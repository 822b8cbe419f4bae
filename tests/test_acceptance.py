"""Acceptance gate: ten criteria, one pass/fail line each under pytest -v."""

import json
import random

from conftest import certified, counting_suite, pi_power, random_unit_matrix

from leveltower.certify import regular_elliptic_certify
from leveltower.chartab import character_table, cuspidal_characters
from leveltower.counting import count_brute, count_structured
from leveltower.cyclotomic import Cyclotomic
from leveltower.division import DivisionAlgebra, projective_fixed_points, total_fixed_points
from leveltower.formal import LevelStructure, build_tower, check_level, gl_order, make_module
from leveltower.fq import FqField
from leveltower.groups import group_gl, group_quaternion_quotient
from leveltower.induced import InducedCharSpec, hc_character, jl_match
from leveltower.laurent import Laurent
from leveltower.matrices import charpoly, companion, det, mat_reduce_mod
from leveltower.rings import CoeffRing, poly_trim
from leveltower.serialize import canonical_dumps, tower_from_doc, tower_to_doc
from leveltower.strata import enumerate_summands, strata_fixed_count

from test_division import _certified_b_suite
from test_strata_flags import brute_subspace_count, gaussian_binomial


def test_criterion_01_tower_ranks_and_stage_degrees():
    t2 = build_tower(2, 2, 1)
    assert t2.stage_degrees == [3, 2]
    assert t2.rank_over_base == 6
    t3 = build_tower(2, 3, 1)
    assert t3.rank_over_base == 48
    # brute-force oracle: enumerate the finite matrix groups outright
    assert group_gl(2, 2, 1).order == t2.rank_over_base == gl_order(2, 2, 1)
    assert group_gl(2, 3, 1).order == t3.rank_over_base == gl_order(2, 3, 1)
    print("criterion 1 PASS: tower ranks 6 and 48 match the enumerated group orders")


def test_criterion_02_divisibility_check_and_perturbations():
    towers = [build_tower(*spec) for spec in [(1, 2, 1), (1, 2, 2), (2, 2, 1), (2, 3, 1)]]
    for tower in towers:
        assert check_level(tower.structure)["ok"]
    # single-value perturbations must be caught, each with a witness
    tower = towers[2]
    phi = tower.structure
    for v in sorted(phi.values):
        if v == (0, 0):
            continue
        bad_values = dict(phi.values)
        bad_values[v] = bad_values[v] + tower.ring.one()
        rep = check_level(LevelStructure(phi.module, phi.m, bad_values))
        assert not rep["ok"] and rep["witness"] is not None
    # a duplicated root sneaks past linearity and must leave a division remainder
    t1 = build_tower(1, 2, 1)
    dup = dict(t1.structure.values)
    dup[(1,)] = t1.ring.zero()
    rep = check_level(LevelStructure(t1.structure.module, 1, dup))
    assert rep["witness"]["kind"] == "divisor"
    remainder = rep["witness"]["remainder"]
    assert remainder and all(len(pair) == 2 and pair[1] for pair in remainder)
    print("criterion 2 PASS: level checks pass and every perturbation is witnessed")


def test_criterion_03_multiplication_degree_law():
    for n, q, m in [(1, 2, 3), (2, 2, 2), (2, 3, 1), (3, 2, 1)]:
        mod = make_module(n, q, m)
        poly = poly_trim(pi_power(mod, m))
        assert len(poly) - 1 == q ** (n * m)
        pi_m = mod.ring.one()
        for _ in range(m):
            pi_m = pi_m * mod.ring.pi()
        assert poly[1] == pi_m
    print("criterion 3 PASS: degree and exact linear coefficient on all four shapes")


def test_criterion_04_strata_census_and_gaussian_binomials():
    counts = [len(enumerate_summands(3, 2, 1, h)) for h in (1, 2)]
    assert counts == [7, 7] and sum(counts) == 14
    for n, q in [(2, 2), (2, 3), (3, 2)]:
        for h in range(1, n):
            c = len(enumerate_summands(n, q, 1, h))
            assert c == gaussian_binomial(n, h, q) == brute_subspace_count(n, h, q)
    print("criterion 4 PASS: census 7 + 7 = 14 and level-one counts match both oracles")


def test_criterion_05_certified_elliptic_fixes_no_stratum():
    f2, f3 = FqField(2, 1), FqField(3, 1)
    specs = [
        (f2, 2, (1, 1, 1)), (f3, 2, (1, 0, 1)), (f3, 2, (2, 2, 1)),
        (f3, 2, (2, 1, 1)), (f2, 3, (1, 1, 0, 1)), (f2, 3, (1, 0, 1, 1)),
        (f3, 3, (1, 2, 0, 1)), (f3, 3, (2, 0, 1, 1)),
    ]
    instances = []
    for field, n, codes in specs:
        pol = [Laurent.const(field, c) for c in codes]
        instances.append((field, n, companion(field, pol)))
        bumped = [pol[0] + Laurent.pi(field, 1)] + pol[1:]
        instances.append((field, n, companion(field, bumped)))
    assert len(instances) >= 10
    for field, n, g in instances:
        cert = regular_elliptic_certify(charpoly(g))
        assert cert.det_val == 0
        for h in range(1, n):
            for m in (1, 2, 3):
                assert strata_fixed_count(mat_reduce_mod(g, m), n, field.q, m, h) == 0
    print(f"criterion 5 PASS: {len(instances)} certified unit-class elements fix no stratum")


def test_criterion_06_dual_route_counting():
    suite = counting_suite(total=24, seed=2024)
    assert len(suite) >= 20
    for inst in suite:
        b, g, m, cert = inst["b"], inst["g"], inst["m"], inst["cert"]
        s = count_structured(b, g, m, cert)
        bf = count_brute(b, g, m)
        assert bf.stable
        assert s.count == bf.count
        if (det(g).valuation() + cert.det_val) % 2 != 0:
            assert s.count == 0
    print(f"criterion 6 PASS: {len(suite)} randomized instances, routes agree, vanishing law holds")


def test_criterion_07_fixed_lines_and_total_assembly():
    rng = random.Random(3)
    checked = 0
    for q in (2, 3):
        alg = DivisionAlgebra(q, 2)
        for b, pol, cert in _certified_b_suite(alg, total=5, seed=40 + q):
            lines = projective_fixed_points(alg, b, pol, cert)
            (x0, x1), (y0, y1) = lines
            assert not (x0 * y1 - x1 * y0).is_zero(), "the two fixed lines coincide"
            rep = total_fixed_points(alg, b, random_unit_matrix(alg.small, 2, rng), 1)
            assert rep.total == rep.n * rep.per_fiber == 2 * rep.per_fiber
            checked += 1
    assert checked >= 10
    print(f"criterion 7 PASS: {checked} certified elements give 2 simple lines and total = n * fiber")


def test_criterion_08_induced_character_consistency():
    # sum_C |C| count(b, c_C, 1) chi(c_C) = |G| conj(hc_character(chi, b)) over
    # the classes C of GL_2(F_q), c_C the constant lift of C's representative
    suite = counting_suite(total=20, seed=2024)
    pairs = 0
    for inst in suite:
        field, b, cert = inst["field"], inst["b"], inst["cert"]
        grp = group_gl(2, field.q, 1)
        tab = character_table(grp)
        lifts = [[[Laurent.const(field, x) for x in row] for row in grp.elements[rep]]
                 for rep in grp.class_reps]
        counts = [(count_structured(b, c, 1, cert).count, count_brute(b, c, 1).count)
                  for c in lifts]
        for row in range(len(tab.degrees)):
            want = hc_character(InducedCharSpec(tab, row), b, *certified(b)).conjugate() * grp.order
            for route in (0, 1):
                got = Cyclotomic.zero()
                for size, cnt, chi in zip(grp.class_sizes, counts, tab.values[row]):
                    got = got + chi * (size * cnt[route])
                assert got == want
            pairs += 1
    print(f"criterion 8 PASS: the level-1 counts average to the induced character "
          f"on {pairs} (row, b) pairs, both count routes")


def test_criterion_09_depth_zero_matching():
    for q, cusp_count in [(2, 1), (3, 3)]:
        tab = character_table(group_gl(2, q, 1))
        assert len(cuspidal_characters(tab)) == cusp_count == q * (q - 1) // 2
        result = jl_match(q)
        assert len(result.pairs) == cusp_count
        assert len({b for _, b in result.pairs}) == cusp_count
        minus_one = Cyclotomic.from_rational(-1)
        for crow, brow in result.pairs:
            for rho_v, pi_v in zip(result.rho_values[brow], result.pi_values[crow]):
                assert rho_v == minus_one * pi_v
    print("criterion 9 PASS: cuspidal counts 1 and 3, unique matching with the sign flip")


def test_criterion_10_algebra_foundations():
    for grp in (group_gl(2, 2, 1), group_gl(2, 3, 1),
                group_quaternion_quotient(2), group_quaternion_quotient(3)):
        assert character_table(grp).verify()
    for seed, ring in [(1, CoeffRing(FqField(2, 1), 3, (2,))),
                       (2, CoeffRing(FqField(3, 1), 2, (3,)))]:
        rng = random.Random(seed)
        zero, one = ring.zero(), ring.one()
        for _ in range(1000):
            a, b, c = (ring.random_element(rng) for _ in range(3))
            assert (a + b) * c == a * c + b * c
            assert (a * b) * c == a * (b * c)
            assert a * b == b * a and a + b == b + a
            assert a * one == a and a + zero == a
            nf = (a * b).nf()
            assert nf == nf.nf() and nf.d == nf.nf().d
    tower = build_tower(2, 2, 1)
    blob = canonical_dumps(tower_to_doc(tower))
    reloaded = tower_from_doc(json.loads(blob), 2, 2, 1, tower.u_spec_label)
    assert canonical_dumps(tower_to_doc(reloaded)) == blob
    print("criterion 10 PASS: orthogonality, 1000-case ring suites, bit-exact round-trip")

"""Formal module arithmetic, level towers, and the level-structure checker."""

import random

import pytest
from conftest import chain_pi, pi_power, poly_eval

from leveltower import formal
from leveltower.errors import CapExceeded, RankCapExceeded
from leveltower.formal import (
    LevelStructure,
    build_tower,
    check_level,
    gl_order,
    make_module,
)
from leveltower.groups import group_gl
from leveltower.rings import poly_trim


def test_pi_poly_shape():
    mod = make_module(2, 2, 2)
    pp = mod.pi_poly()
    assert len(pp) == 2 ** 2 + 1
    assert pp[1] == mod.ring.pi()
    assert pp[-1] == mod.ring.one()
    assert pp[0].is_zero()


@pytest.mark.parametrize("n,q,m", [(1, 2, 3), (2, 2, 2), (2, 3, 1), (3, 2, 1)])
def test_pi_power_degree_and_derivative(n, q, m):
    mod = make_module(n, q, m)
    poly = poly_trim(pi_power(mod, m))
    assert len(poly) - 1 == q ** (n * m)
    pi_m = mod.ring.one()
    for _ in range(m):
        pi_m = pi_m * mod.ring.pi()
    # the formal derivative collapses to the linear coefficient here
    assert poly[1] == pi_m
    assert poly[0].is_zero()


@pytest.mark.parametrize("q,expected", [(2, 6), (3, 48)])
def test_tower_rank_equals_group_order(q, expected):
    tower = build_tower(2, q, 1)
    assert tower.rank_over_base == expected
    assert tower.rank_over_base == gl_order(2, q, 1)
    # brute-force oracle: enumerate the invertible matrices outright
    assert group_gl(2, q, 1).order == expected


def test_tower_stage_degrees_q2():
    tower = build_tower(2, 2, 1)
    assert tower.stage_degrees == [3, 2]


def test_tower_rank_cap_triggers():
    with pytest.raises((CapExceeded, RankCapExceeded)):
        build_tower(3, 3, 1)


def test_tower_rank_cap_is_checked_before_any_stage(monkeypatch):
    def no_stage(*args, **kwargs):
        raise AssertionError("ring_extend called before the rank cap check")

    monkeypatch.setattr(formal, "ring_extend", no_stage)
    with pytest.raises(RankCapExceeded, match="ring rank 89856 exceeds cap 5000"):
        build_tower(3, 3, 1)


def test_check_level_passes_on_towers():
    for n, q, m in [(1, 2, 1), (1, 2, 2), (2, 2, 1)]:
        tower = build_tower(n, q, m)
        report = check_level(tower.structure)
        assert report["ok"], report["witness"]
        assert report["witness"] is None


def test_check_level_single_value_perturbation_fails():
    tower = build_tower(2, 2, 1)
    phi = tower.structure
    ring = tower.ring
    for v in sorted(phi.values):
        if v == (0, 0):
            continue
        values = dict(phi.values)
        values[v] = values[v] + ring.one()
        bad = LevelStructure(phi.module, phi.m, values)
        report = check_level(bad)
        assert not report["ok"]
        assert report["witness"] is not None


def test_check_level_duplicate_root_gives_remainder_witness():
    # collapsing a torsion value onto an existing root survives additivity
    # and pi-linearity, so only the exact-division step can catch it
    tower = build_tower(1, 2, 1)
    phi = tower.structure
    values = dict(phi.values)
    values[(1,)] = tower.ring.zero()
    bad = LevelStructure(phi.module, phi.m, values)
    report = check_level(bad)
    assert not report["ok"]
    assert report["witness"]["kind"] == "divisor"
    # the remainder as canonical data: its nonzero [index, coeff] pairs, sorted
    remainder = report["witness"]["remainder"]
    assert remainder and remainder == sorted(remainder)
    assert all(type(i) is int and type(c) is int and c for i, c in remainder)


def test_check_level_lets_a_defect_in_the_division_propagate(monkeypatch):
    # only NonExactDivision is a witness; any other exception is a defect
    def broken(f, g):
        raise TypeError("division defect")

    monkeypatch.setattr(formal, "poly_divide_exact", broken)
    with pytest.raises(TypeError, match="division defect"):
        check_level(build_tower(1, 2, 1).structure)


def test_build_tower_ring_has_precision_level_plus_one():
    for n, q, m in [(1, 2, 3), (2, 2, 1), (2, 2, 2), (2, 3, 1)]:
        assert build_tower(n, q, m).ring.prec == m + 1


def test_u_spec_value_form():
    tower = build_tower(2, 2, 1, u_spec=[[0, 1]])
    assert tower.rank_over_base == 6
    assert tower.u_spec_label == "val:0,1"
    assert check_level(tower.structure)["ok"]


@pytest.mark.parametrize("q,density,cases", [(2, 0.4, 200), (4, 0.03, 20)])
def test_pi_eval_matches_the_pi_polynomial(q, density, cases):
    tower = build_tower(2, q, 1)
    mod = tower.module
    rng = random.Random(60_000 + q)
    pp = mod.pi_poly()
    points = list(tower.structure.values.values())
    points += [tower.ring.random_element(rng, density=density) for _ in range(cases)]
    for x in points:
        assert mod.pi_eval(x) == poly_eval(pp, x)


def test_check_level_above_the_default_rank_cap():
    tower = build_tower(2, 3, 2, rank_cap=10 ** 7)
    assert tower.ring.rank == 23_328
    report = check_level(tower.structure)
    assert report["ok"], report["witness"]


def _perturbed(phi, v, delta):
    values = dict(phi.values)
    values[v] = values[v] + delta
    return LevelStructure(phi.module, phi.m, values)


def test_check_level_perturbed_non_basis_value_gives_linearity():
    tower = build_tower(2, 2, 1)
    report = check_level(_perturbed(tower.structure, (1, 1), tower.ring.one()))
    assert not report["ok"]
    assert report["witness"] == {"kind": "linearity", "v": (1, 1)}


@pytest.mark.parametrize("q,m", [(2, 1), (2, 2), (3, 1)])
def test_check_level_perturbed_basis_value_gives_torsion(q, m):
    tower = build_tower(1, q, m)
    report = check_level(_perturbed(tower.structure, (1,), tower.ring.one()))
    assert not report["ok"]
    assert report["witness"] == {"kind": "torsion", "j": 0}


def test_check_level_rejects_a_scalar_and_pi_linear_table_that_is_not_additive():
    # add a pi-torsion value delta on the F_q^x orbit of one unit vector v0,
    # c*delta at c*v0; pi*w never lands on that orbit, so [pi] still intertwines
    tower = build_tower(2, 3, 2, rank_cap=10 ** 7)
    phi, mod, ch = tower.structure, tower.module, tower.structure.chain
    delta = phi.values[phi.torsion_vectors()[1]]
    assert not delta.is_zero() and mod.pi_eval(delta).is_zero()
    v0 = (1, chain_pi(ch))
    values = dict(phi.values)
    for c in range(1, ch.q):
        values[ch.vscale(c, v0)] = values[ch.vscale(c, v0)] + mod.ring.from_field(c) * delta
    for w, val in values.items():
        for c in range(ch.q):
            assert values[ch.vscale(c, w)] == mod.ring.from_field(c) * val
        assert values[ch.vscale(chain_pi(ch), w)] == mod.pi_eval(val)
    assert any(values[ch.vadd(v, w)] != values[v] + values[w]
               for v in values for w in values)
    report = check_level(LevelStructure(mod, phi.m, values))
    assert not report["ok"]
    assert report["witness"]["kind"] == "linearity"


def test_check_level_covers_every_pair():
    tower = build_tower(2, 4, 2, rank_cap=10 ** 7)
    report = check_level(tower.structure)
    assert report["ok"], report["witness"]
    assert report["pairs_checked"] == len(tower.structure.values) ** 2 == 65_536


def test_check_level_stray_key_gives_domain():
    # the right number of values, but one key is outside (o/pi^m)^n
    tower = build_tower(2, 2, 2)
    values = dict(tower.structure.values)
    values[(1, 7)] = values.pop((1, 3))
    report = check_level(LevelStructure(tower.module, 2, values))
    assert not report["ok"]
    assert report["witness"] == {"kind": "domain", "detail": "16 values on 15 of 16 vectors"}


@pytest.mark.parametrize("n,q,m", [(2, 2, 1), (2, 2, 2), (1, 3, 3)])
def test_tower_builds_one_table_one_digit_at_a_time(monkeypatch, n, q, m):
    # level 1 grows its span one basis point at a time; for m >= 2 the level-m
    # table is built once from the zero vector, one digit of one coordinate a step
    sizes = []
    extend = formal._extend

    def counted(table, *args):
        out = extend(table, *args)
        sizes.append(len(out))
        return out

    monkeypatch.setattr(formal, "_extend", counted)
    tower = build_tower(n, q, m)
    span = [q ** k for k in range(1, n + 1)]
    assert sizes == span + ([q ** k for k in range(1, m * n + 1)] if m > 1 else [])
    assert tower.structure.values is tower.table
    assert set(tower.table) == set(tower.structure.chain.all_vectors(n))
    assert check_level(tower.structure)["ok"]

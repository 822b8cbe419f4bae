"""Induced-character evaluation and the depth-zero matching."""

import random

import pytest

from conftest import (
    brute_hc_character,
    certified,
    counting_suite,
    random_unit_matrix,
    root_of_unity,
)

from leveltower import counting, induced
from leveltower.chartab import character_table, cuspidal_characters
from leveltower.counting import count_brute, count_structured
from leveltower.cyclotomic import Cyclotomic
from leveltower.errors import CapExceeded, PreconditionError
from leveltower.fq import FqField
from leveltower.groups import group_gl
from leveltower.induced import (
    InducedCharSpec,
    elliptic_quotient_classes,
    hc_character,
    jl_match,
)
from leveltower.laurent import Laurent
from leveltower.matrices import adjugate, companion, det, mat_identity, mat_mul, mat_shift


# The representation induced from the trivial character of pi^Z K_m has the
# fixed-coset count at the identity frame as its character, so its identities
# are checked on `count_structured` and `count_brute` directly.

def _counts_at_identity(b, m, cert=None):
    ident = mat_identity(b[0][0].field, len(b))
    brute = count_brute(b, ident, m)
    assert brute.stable
    cert = certified(b)[0] if cert is None else cert
    return count_structured(b, ident, m, cert).count, brute.count


def test_trivial_spec_equals_count_on_suite():
    for inst in counting_suite(total=20, seed=4321):
        structured, brute = _counts_at_identity(inst["b"], inst["m"], inst["cert"])
        assert structured == brute


def test_trivial_spec_rank_one_closed_form():
    # a single lattice class, so the value counts the residual unit frames
    for q, m, expected in [(3, 1, 2), (2, 2, 2), (3, 2, 6), (2, 3, 4)]:
        field = FqField(q, 1)
        b = [[Laurent.const(field, 1)]]
        assert _counts_at_identity(b, m) == (expected, expected)


def test_trivial_spec_rank_one_congruence_gate():
    field = FqField(2, 1)
    b = [[Laurent.const(field, 1) + Laurent.pi(field, 1)]]
    # 1 + pi is trivial mod pi but not mod pi^2
    assert _counts_at_identity(b, 1) == (1, 1)
    assert _counts_at_identity(b, 2) == (0, 0)


def test_trivial_spec_vanishes_on_certified_rank_two_units():
    field = FqField(2, 1)
    b = companion(field, [Laurent.const(field, c) for c in (1, 1, 1)])
    assert _counts_at_identity(b, 1) == (0, 0)


def test_central_twist_multiplies_by_root_of_unity():
    # a pi-scaled unit has z' = 1, so pi enters once and a degree-one row
    # keeps the value a nonzero root of unity
    field = FqField(3, 1)
    b = mat_shift(companion(field, [Laurent.const(field, c) for c in (1, 0, 1)]), 1)
    tab = character_table(group_gl(2, 3, 1))
    row = tab.degrees.index(1)
    i_unit = root_of_unity(4)
    base = hc_character(InducedCharSpec(tab, row), b, *certified(b))
    assert not base.is_zero()
    twisted = InducedCharSpec(tab, row, central=i_unit)
    got = hc_character(twisted, b, *certified(b))
    assert got == i_unit * base
    assert brute_hc_character(twisted, b) == got


def _inflated_spec(q, row=None):
    tab = character_table(group_gl(2, q, 1))
    if row is None:
        row = cuspidal_characters(tab)[0]
    return tab, InducedCharSpec(tab, row)


def test_inflated_spec_reads_residual_class():
    field = FqField(2, 1)
    tab, spec = _inflated_spec(2)
    b = companion(field, [Laurent.const(field, c) for c in (1, 1, 1)])
    val = hc_character(spec, b, *certified(b))
    # the residual class has order 3 and the q=2 cuspidal row is the sign row
    assert val == Cyclotomic.from_rational(1)
    assert brute_hc_character(spec, b) == val


def test_inflated_spec_conjugation_invariant():
    field = FqField(3, 1)
    tab, spec = _inflated_spec(3)
    b = companion(field, [Laurent.const(field, c) for c in (1, 0, 1)])
    base = hc_character(spec, b, *certified(b))
    rng = random.Random(11)
    for _ in range(5):
        w = random_unit_matrix(field, 2, rng)
        d = det(w)
        di = field.inv(d.coeff(0))
        winv = [[e.scale(di) for e in row] for row in adjugate(w)]
        conj = mat_mul(mat_mul(w, b), winv)
        assert hc_character(spec, conj, *certified(conj)) == base
        assert brute_hc_character(spec, conj) == base


def test_inflated_spec_vanishes_at_half_integral_valuation():
    field = FqField(2, 1)
    tab, spec = _inflated_spec(2)
    b = companion(field, [Laurent.pi(field, 1), Laurent.zero(field),
                          Laurent.const(field, 1)])
    assert hc_character(spec, b, *certified(b)).is_zero()
    assert brute_hc_character(spec, b).is_zero()


def test_hc_character_brute_makes_no_adjugate_call(monkeypatch):
    calls = []

    def counted(A):
        calls.append(A)
        return adjugate(A)

    monkeypatch.setattr(counting, "adjugate", counted)
    cases = []
    for q, codes in [(2, (1, 1, 1)), (3, (1, 0, 1))]:
        field = FqField(q, 1)
        _, spec = _inflated_spec(q)
        b = companion(field, [Laurent.const(field, c) for c in codes])
        w = random_unit_matrix(field, 2, random.Random(11))
        winv = [[e.scale(field.inv(det(w).coeff(0))) for e in row] for row in adjugate(w)]
        cases += [(spec, b), (spec, mat_mul(mat_mul(w, b), winv))]
    for spec, b in cases:
        brute = brute_hc_character(spec, b)
        assert calls == []
        assert hc_character(spec, b, *certified(b)) == brute
        assert calls, "the structured route still takes the adjugate step"
        calls.clear()
    field = FqField(2, 1)
    half = companion(field, [Laurent.pi(field, 1), Laurent.zero(field),
                             Laurent.const(field, 1)])
    assert brute_hc_character(_inflated_spec(2)[1], half).is_zero()
    assert calls == []


def test_elliptic_quotient_class_census():
    for q, unr, ram in [(2, 1, 1), (3, 3, 2)]:
        from leveltower.groups import group_quaternion_quotient
        grp = group_quaternion_quotient(q)
        classes = elliptic_quotient_classes(grp)
        kinds = [rec.kind for rec in classes]
        assert kinds.count("unit") == unr == q * (q - 1) // 2
        assert kinds.count("uniformizer") == ram == q - 1


def test_jl_match_q2():
    result = jl_match(2)
    assert result.pairs == ((0, 2),)
    assert len(result.elliptic) == 2
    for crow, brow in result.pairs:
        pi_vals = result.pi_values[crow]
        rho_vals = result.rho_values[brow]
        for got_rho, got_pi in zip(rho_vals, pi_vals):
            assert got_rho == Cyclotomic.from_rational(-1) * got_pi


def test_jl_match_q3():
    result = jl_match(3)
    assert result.pairs == ((2, 5), (3, 6), (4, 4))
    assert len(result.elliptic) == 5
    for crow, brow in result.pairs:
        for got_rho, got_pi in zip(result.rho_values[brow], result.pi_values[crow]):
            assert got_rho == Cyclotomic.from_rational(-1) * got_pi
    # rows pair off bijectively
    assert len({b for _, b in result.pairs}) == len(result.pairs)


@pytest.mark.parametrize("q,reductions,evaluations", [(3, 3, 15), (4, 6, 54)])
def test_jl_match_reduces_each_class_once(monkeypatch, q, reductions, evaluations):
    # one stable-lattice reduction per unit class (the uniformizer classes
    # have odd v(det) and none), and one evaluation per (cuspidal row, class)
    calls = {"reduce": 0, "evaluate": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(induced, "stable_lattice_reduction",
                        counted("reduce", induced.stable_lattice_reduction))
    monkeypatch.setattr(induced, "hc_character", counted("evaluate", induced.hc_character))
    jl_match(q)
    assert calls == {"reduce": reductions, "evaluate": evaluations}


def test_jl_match_respects_cap():
    with pytest.raises(CapExceeded, match="group order 5760 exceeds the table cap 5000"):
        jl_match(9)


def test_spec_validation():
    from leveltower.groups import group_quaternion_quotient
    tab = character_table(group_gl(2, 2, 1))
    with pytest.raises(PreconditionError):
        InducedCharSpec(character_table(group_quaternion_quotient(2)), 0)
    with pytest.raises(PreconditionError):
        InducedCharSpec(tab, len(tab.degrees))
    with pytest.raises(PreconditionError):
        InducedCharSpec(tab, 0, central=Cyclotomic.from_rational(2))

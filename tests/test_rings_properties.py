"""Randomized ring-axiom and normal-form suites over the coefficient rings."""

import random

import pytest
from conftest import power

from leveltower.errors import PreconditionError
from leveltower.formal import build_tower
from leveltower.fq import FqField
from leveltower.rings import CoeffRing, convert, poly_divide_exact, poly_mul, ring_extend

CASES = 1000


def _tower_stage_ring():
    base = CoeffRing(FqField(2, 1), 2, (2,))
    # adjoin a root of X^2 + pi, a small Eisenstein stage
    ext, _root = ring_extend(base, [base.pi(), base.zero(), base.one()], "s")
    return ext


def _rings():
    return [
        CoeffRing(FqField(2, 1), 3, (2,)),
        CoeffRing(FqField(3, 1), 2, (3,)),
        _tower_stage_ring(),
    ]


@pytest.mark.parametrize("ridx", [0, 1, 2])
def test_ring_axioms_randomized(ridx):
    ring = _rings()[ridx]
    rng = random.Random(20_000 + ridx)
    zero, one = ring.zero(), ring.one()
    for _ in range(CASES):
        a = ring.random_element(rng)
        b = ring.random_element(rng)
        c = ring.random_element(rng)
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert a + zero == a
        assert a * one == a
        assert a - a == zero


@pytest.mark.parametrize("ridx", [0, 1, 2])
def test_normal_form_idempotent(ridx):
    ring = _rings()[ridx]
    rng = random.Random(30_000 + ridx)
    for _ in range(CASES):
        x = ring.random_element(rng) * ring.random_element(rng)
        nf1 = x.nf()
        nf2 = nf1.nf()
        assert nf1 == nf2
        assert nf1.d == nf2.d
        assert x == nf1


@pytest.mark.parametrize("q,density,cases", [(2, 0.4, 200), (4, 0.1, 50)])
def test_qpower_is_the_qth_power(q, density, cases):
    ring = build_tower(2, q, 1).ring
    rng = random.Random(40_000 + q)
    for _ in range(cases):
        x = ring.random_element(rng, density=density)
        assert x.qpower(q) == power(x, q)
    assert ring.one().qpower(1) == ring.one()


def test_qpower_moves_coefficients_of_a_larger_field():
    # over F_4 squaring is not the identity on coefficients
    base = CoeffRing(FqField(2, 2), 3, (2,))
    ring, _root = ring_extend(base, [base.pi(), base.u(1), base.zero(), base.one()], "s")
    rng = random.Random(45_000)
    for _ in range(200):
        x = ring.random_element(rng)
        assert x.qpower(2) == power(x, 2)
        assert x.qpower(4) == power(x, 4)


def test_qpower_rejects_a_non_power_of_p():
    ring = CoeffRing(FqField(2, 1), 2, (2,))
    with pytest.raises(PreconditionError):
        ring.pi().qpower(3)


def test_convert_keeps_indices_through_every_stage():
    base = CoeffRing(FqField(3, 1), 3, (2,))
    rings = [base]
    # X^3 + u*X + pi, then X^2 + t1*X + pi*u over the first extension
    ext1, t1 = ring_extend(base, [base.pi(), base.u(1), base.zero(), base.one()], "t1")
    ext2, _t2 = ring_extend(ext1, [convert(base.pi() * base.u(1), ext1), t1, ext1.one()],
                            "t2")
    rings += [ext1, ext2]
    rng = random.Random(50_000)
    for k, src in enumerate(rings):
        for _ in range(50):
            a = src.random_element(rng)
            b = src.random_element(rng)
            for target in rings[k:]:
                ca, cb = convert(a, target), convert(b, target)
                assert ca.d == a.d and ca.ring is target
                # the embedding is a ring map in the extension's index space
                assert convert(a * b, target) == ca * cb
                assert convert(a + b, target) == ca + cb


def _unit_leads(base):
    # two units other than 1 and a nilpotent, as leading coefficients
    return [base.from_field(2), base.one() + base.pi(), base.pi()]


def test_ring_extend_refuses_a_non_monic_polynomial():
    base = CoeffRing(FqField(3, 1), 2, (2,))
    for lead in _unit_leads(base):
        with pytest.raises(PreconditionError, match="monic"):
            ring_extend(base, [base.pi(), base.zero(), lead])


def test_poly_divide_exact_refuses_a_non_monic_divisor():
    base = CoeffRing(FqField(3, 1), 2, (2,))
    f = [base.pi(), base.zero(), base.one()]
    for lead in _unit_leads(base):
        with pytest.raises(PreconditionError, match="monic"):
            poly_divide_exact(poly_mul(f, [base.one(), lead]), [base.one(), lead])
    # a monic divisor still divides exactly
    g = [base.u(1), base.one()]
    assert poly_divide_exact(poly_mul(f, g), g) == f

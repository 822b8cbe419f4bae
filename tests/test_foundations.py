"""Finite fields, cyclotomic numbers, Laurent scalars, matrix normal forms."""

import random
from fractions import Fraction

import pytest

from leveltower.cyclotomic import Cyclotomic
from leveltower.errors import NonExactDivision, PreconditionError
from leveltower.fq import FqField, split_prime_power
from leveltower.laurent import Laurent
from leveltower.matrices import (
    adjugate,
    charpoly,
    companion,
    det,
    hnf,
    mat_identity,
    mat_mul,
    smith_exponents,
)


def test_field_arithmetic_f4():
    f4 = FqField(2, 2)
    g = f4.generator
    # generator has multiplicative order q - 1
    assert f4.element_order(g) == 3
    x = f4.pow(g, 3)
    assert x == 1
    for a in f4.elements():
        assert f4.add(a, f4.neg(a)) == 0
        if a:
            assert f4.mul(a, f4.inv(a)) == 1


@pytest.mark.parametrize("q,expected", [(2, (2, 1)), (8, (2, 3)), (9, (3, 2)),
                                        (65536, (2, 16))])
def test_split_prime_power(q, expected):
    assert split_prime_power(q) == expected


@pytest.mark.parametrize("q", [-4, 0, 1, 6, 12, 100])
def test_split_prime_power_rejects(q):
    with pytest.raises(PreconditionError):
        split_prime_power(q)


def test_default_modulus_field_is_interned():
    assert FqField(3, 4) is FqField(3, 4)
    assert FqField(2, 2) is FqField(2, 2, FqField(2, 2).modulus)


def test_field_frobenius_fixes_prime_subfield():
    f9 = FqField(3, 2)
    for a in range(3):
        assert f9.frobenius(f9.from_int(a)) == f9.from_int(a)


def test_cyclotomic_roots_and_conjugation():
    z = Cyclotomic.root_of_unity(5)
    acc = Cyclotomic.zero(5)
    p = Cyclotomic.from_rational(1, 5)
    for _ in range(5):
        acc = acc + p
        p = p * z
    # 1 + z + ... + z^4 = 0
    assert acc.is_zero()
    assert (z * z.conjugate()) == Cyclotomic.from_rational(1)


def test_cyclotomic_mixed_conductors():
    a = Cyclotomic.root_of_unity(3)
    b = Cyclotomic.root_of_unity(4)
    prod = a * b
    assert prod * prod.conjugate() == Cyclotomic.from_rational(1)
    assert (a + b) - b == a.lift(12)


def test_cyclotomic_rational_division_only():
    z = Cyclotomic.root_of_unity(8)
    assert (z / 2) * Fraction(2) == z
    with pytest.raises(TypeError):
        z / z


def test_cyclotomic_hash_agrees_across_lifts():
    z = Cyclotomic.root_of_unity(4)
    assert z == z.lift(8) and hash(z) == hash(z.lift(8))
    assert len({z, z.lift(8)}) == 1
    # zeta_6 = 1 + zeta_3 although neither is a lift of the other
    assert len({Cyclotomic.root_of_unity(6), 1 + Cyclotomic.root_of_unity(3)}) == 1
    rng = random.Random(3)
    for _ in range(200):
        N = rng.choice([1, 2, 3, 4, 5, 6, 8, 9, 12])
        x = Cyclotomic(N, [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(N)])
        assert hash(x.lift(N * rng.choice([2, 3, 4, 5]))) == hash(x)
    r = Fraction(-3, 4)
    assert hash(Cyclotomic.from_rational(r).lift(12)) == hash(r)


def test_cyclotomic_integer_coordinates_stay_integers():
    z = Cyclotomic.root_of_unity(12)
    w = (z * z.conjugate() + z - 3).lift(24)
    assert all(type(c) is int for c in w.coords)


def test_laurent_arithmetic_and_valuation():
    f = FqField(3, 1)
    x = Laurent.pi(f, 2).scale(2) + Laurent.const(f, 1)
    assert x.valuation() == 0
    assert (x * Laurent.pi(f, -2)).valuation() == -2
    assert (x - x).valuation() is None or (x - x).coeff(0) == 0
    y = Laurent.pi(f, 1)
    assert (x * y).coeff(3) == 2


def test_hnf_column_lattice_invariance():
    f = FqField(2, 1)
    rng = random.Random(7)

    def rand_unit_mat():
        while True:
            m = [[Laurent.const(f, rng.randrange(2)) + Laurent.pi(f, 1).scale(rng.randrange(2))
                  for _ in range(2)] for _ in range(2)]
            d = det(m)
            if d.valuation() == 0:
                return m

    def columns(mat):
        n = len(mat)
        return [tuple(mat[i][j] for i in range(n)) for j in range(n)]

    base = [[Laurent.pi(f, 2), Laurent.const(f, 1)],
            [Laurent.zero(f), Laurent.pi(f, 1)]]
    h0 = hnf(columns(base))
    for _ in range(10):
        u = rand_unit_mat()
        assert hnf(columns(mat_mul(base, u))) == h0


def test_smith_exponents_diagonal_oracle():
    f = FqField(2, 1)
    m = [[Laurent.pi(f, 3), Laurent.zero(f)], [Laurent.zero(f), Laurent.pi(f, 1)]]
    assert smith_exponents(m) == [1, 3]


def test_charpoly_of_companion_matrix():
    f = FqField(3, 1)
    coeffs = [Laurent.const(f, 2), Laurent.const(f, 1), Laurent.const(f, 1)]
    c = companion(f, coeffs)
    assert charpoly(c) == coeffs
    d = det(c)
    # det = (-1)^n * constant coefficient
    assert d == Laurent.const(f, 2).scale(f.neg(1)) * Laurent.const(f, 1) or d.coeff(0) in (1, 2)


def test_adjugate_identity():
    f = FqField(2, 1)
    a = [[Laurent.const(f, 1), Laurent.pi(f, 1)],
         [Laurent.const(f, 1), Laurent.const(f, 1)]]
    adj = adjugate(a)
    prod = mat_mul(a, adj)
    d = det(a)
    ident = mat_identity(f, 2)
    for i in range(2):
        for j in range(2):
            assert prod[i][j] == ident[i][j] * d

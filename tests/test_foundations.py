"""Finite fields, cyclotomic numbers, Laurent scalars, matrix normal forms."""

import itertools
import random
from fractions import Fraction

import pytest
from conftest import brute_units, chain_pi, method_echelon, random_unit_matrix, root_of_unity

from leveltower import chain, matrices
from leveltower.chain import ChainRing, gl_elements
from leveltower.cyclotomic import Cyclotomic
from leveltower.errors import CapExceeded, PreconditionError
from leveltower.fq import (
    FqField,
    _poly_irreducible,
    factor,
    fp_divmod,
    fp_mul,
    monic_polys,
    split_prime_power,
)
from leveltower.laurent import Laurent
from leveltower.matrices import (
    adjugate,
    charpoly,
    companion,
    det,
    hnf,
    mat_identity,
    mat_mul,
    mat_reduce_mod,
    mat_shift,
    smith_exponents,
)


def test_field_arithmetic_f4():
    f4 = FqField(2, 2)
    g = f4.generator
    # generator has multiplicative order q - 1
    assert f4.pow(g, 1) != 1 and f4.pow(g, 2) != 1
    x = f4.pow(g, 3)
    assert x == 1
    for a in range(f4.q):
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
    assert FqField(2, 2) is FqField(2, 2)


@pytest.mark.parametrize("p,f,modulus", [
    (2, 2, (1, 1, 1)),
    (2, 3, (1, 1, 0, 1)),
    (2, 4, (1, 1, 0, 0, 1)),
    (2, 5, (1, 0, 1, 0, 0, 1)),
    (2, 6, (1, 1, 0, 0, 0, 0, 1)),
    (2, 7, (1, 1, 0, 0, 0, 0, 0, 1)),
    (2, 8, (1, 1, 0, 1, 1, 0, 0, 0, 1)),
    (3, 2, (1, 0, 1)),
    (3, 3, (1, 2, 0, 1)),
    (3, 4, (2, 1, 0, 0, 1)),
    (5, 2, (2, 0, 1)),
])
def test_default_modulus_is_pinned(p, f, modulus):
    # the modulus fixes every element code, so a change would re-code all reports
    assert FqField(p, f).modulus == modulus


# monic irreducibles of degree 1, 2, ... over F_q, by Gauss's necklace formula
@pytest.mark.parametrize("q,irreducible_counts", [
    (2, (2, 1, 2, 3)), (3, (3, 3, 8, 18)), (5, (5, 10, 40))])
def test_rabin_test_agrees_with_factor(q, irreducible_counts):
    field = FqField(q)
    for deg, expected in enumerate(irreducible_counts, start=1):
        found = 0
        for g in monic_polys(field, deg):
            unit, parts = factor(field, g)
            assert unit == 1
            assert _poly_irreducible(field, g) == (parts == [(g, 1)]), g
            found += parts == [(g, 1)]
        assert found == expected, deg


def _generic_exp_table(F):
    """The exp table by q - 2 generic products with the generator: integers
    mod p, or polynomials over F_p mod the modulus."""
    exp = [1]
    for _ in range(F.q - 2):
        if F.f == 1:
            exp.append(exp[-1] * F.generator % F.p)
        else:
            prod = fp_mul(F._prime, F._digits(exp[-1]), F._digits(F.generator))
            exp.append(F._undigits(fp_divmod(F._prime, prod, F.modulus)[1]))
    return exp


def test_exp_tables_match_the_generic_product_loop():
    checked = 0
    for q in range(2, 730):
        try:
            F = FqField(*split_prime_power(q))
        except PreconditionError:
            continue
        exp = _generic_exp_table(F)
        assert F._exp == exp, q
        assert all(F._log[v] == i for i, v in enumerate(exp)), q
        checked += F.f > 1
    assert checked == 23


def test_exp_table_of_the_largest_field():
    F = FqField(2, 16)
    assert sorted(F._exp) == list(range(1, F.q))
    for i in random.Random(16).sample(range(F.q - 1), 40):
        assert F._exp[i] == F._raw_pow(F.generator, i)
        assert F._log[F._exp[i]] == i


def _digitwise_add_table(F):
    p = F.p
    return [[F._undigits([(x + y) % p for x, y in zip(F._digits(a), F._digits(b))])
             for b in range(F.q)] for a in range(F.q)]


def test_addition_tables_match_digitwise_addition():
    fields = [(2, 8), (3, 5)]
    for q in range(2, 65):
        try:
            fields.append(split_prime_power(q))
        except PreconditionError:
            continue
    assert len(fields) == 29
    for p, f in fields:
        F = FqField(p, f)
        assert F._add_table == _digitwise_add_table(F), (p, f)


def test_field_frobenius_fixes_prime_subfield():
    f9 = FqField(3, 2)
    for a in range(3):
        assert f9.frobenius(f9.from_int(a)) == f9.from_int(a)


def test_cyclotomic_roots_and_conjugation():
    z = root_of_unity(5)
    acc = Cyclotomic.zero(5)
    p = Cyclotomic.from_rational(1, 5)
    for _ in range(5):
        acc = acc + p
        p = p * z
    # 1 + z + ... + z^4 = 0
    assert acc.is_zero()
    assert (z * z.conjugate()) == Cyclotomic.from_rational(1)


def test_cyclotomic_mixed_conductors():
    a = root_of_unity(3)
    b = root_of_unity(4)
    prod = a * b
    assert prod * prod.conjugate() == Cyclotomic.from_rational(1)
    assert (a + b) + (-b) == a.lift(12)


def test_cyclotomic_hash_agrees_across_lifts():
    z = root_of_unity(4)
    assert z == z.lift(8) and hash(z) == hash(z.lift(8))
    assert len({z, z.lift(8)}) == 1
    # zeta_6 = 1 + zeta_3 although neither is a lift of the other
    assert len({root_of_unity(6), 1 + root_of_unity(3)}) == 1
    rng = random.Random(3)
    for _ in range(200):
        N = rng.choice([1, 2, 3, 4, 5, 6, 8, 9, 12])
        x = Cyclotomic(N, [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(N)])
        assert hash(x.lift(N * rng.choice([2, 3, 4, 5]))) == hash(x)
    r = Fraction(-3, 4)
    assert hash(Cyclotomic.from_rational(r).lift(12)) == hash(r)


def test_cyclotomic_integer_coordinates_stay_integers():
    z = root_of_unity(12)
    w = (z * z.conjugate() + z + (-3)).lift(24)
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


def _columns(mat):
    n = len(mat)
    return [tuple(mat[i][j] for i in range(n)) for j in range(n)]


def _pi35_matrix(field):
    """det = pi^35 (in characteristic 2, and up to sign in 3): elementary divisors 1, pi^35."""
    return [[Laurent.from_digits(field, [1, 1]), Laurent(field, {0: 1, 1: 1, 35: 1})],
            [Laurent.one(field), Laurent.one(field)]]


@pytest.mark.parametrize("q", [2, 3])
def test_smith_exponents_invariant_under_unimodular_change(q):
    field = FqField(q)
    rng = random.Random(40 + q)
    pi = lambda k: Laurent.pi(field, k)   # noqa: E731
    zero = Laurent.zero(field)
    cases = [
        (_pi35_matrix(field), [0, 35]),
        ([[pi(3), zero], [zero, pi(1)]], [1, 3]),
        ([[pi(0), zero, zero], [zero, pi(40), zero], [zero, zero, pi(2)]], [0, 2, 40]),
        ([[pi(1), pi(1), zero], [zero, pi(1), zero], [zero, zero, pi(1)]], [1, 1, 1]),
    ]
    for A, expected in cases:
        assert smith_exponents(A) == expected
        n = len(A)
        for _ in range(3):
            U = random_unit_matrix(field, n, rng)
            V = random_unit_matrix(field, n, rng)
            assert smith_exponents(mat_mul(mat_mul(U, A), V)) == expected
    with pytest.raises(PreconditionError, match="singular"):
        smith_exponents([[pi(1), pi(2)], [pi(1), pi(2)]])
    with pytest.raises(PreconditionError, match="not integral"):
        smith_exponents([[pi(-1), zero], [zero, pi(0)]])


def _in_lattice(B, C):
    """Every column of C lies in the lattice spanned by the columns of square B.

    B^{-1} C = adj(B) C / det(B), and det(B) is pi^v(det B) times a unit.
    """
    v = det(B).valuation()
    return all(x.valuation() >= v for row in mat_mul(adjugate(B), C) for x in row)


@pytest.mark.parametrize("q", [2, 3])
def test_hnf_is_the_canonical_basis_of_the_same_lattice(q):
    field = FqField(q)
    rng = random.Random(60 + q)
    deep = 0
    for trial in range(24):
        n = 2 + trial % 2
        low = -2 if trial % 3 == 0 else 0           # poles in a third of the trials
        while True:
            A = [[Laurent(field, {e: rng.randrange(q) for e in range(low, low + 3)})
                  for _ in range(n)] for _ in range(n)]
            # scale columns so that v(det) passes 32 in part of the trials
            A = [[x.shift(rng.choice((0, 1, 17, 33))) for x in row] for row in zip(*A)]
            A = mat_mul([list(r) for r in zip(*A)], random_unit_matrix(field, n, rng))
            if not det(A).is_zero():
                break
        H = hnf(_columns(A))
        a = [H[i][i].valuation() for i in range(n)]
        for i in range(n):
            assert H[i][i] == Laurent.pi(field, a[i])
            for j in range(n):
                if j < i:
                    assert H[i][j].is_zero()
                elif j > i:
                    assert all(e < a[i] for e in H[i][j].coeffs)
        assert sum(a) == det(A).valuation()
        deep += sum(a) > 32
        assert _in_lattice(A, H) and _in_lattice(H, A)
        # a spanning set with a redundant column gives the same basis, also
        # first, where the first nonsingular maximal minor is pi det(A), or
        # for n = 3 comes after a singular one, and the elimination runs in
        # o/pi^N for a larger N
        extra = [x + y.shift(1) for x, y in zip(*_columns(A)[:2])]
        assert hnf(_columns(A) + [tuple(extra)]) == H
        assert hnf([tuple(extra)] + _columns(A)) == H
    assert deep
    with pytest.raises(PreconditionError, match="full rank"):
        col = (Laurent.one(field), Laurent.pi(field, 1))
        hnf([col, col])


def test_hnf_takes_one_determinant_when_the_first_columns_are_independent(monkeypatch):
    # the 2n columns that counting._top_stable_lattice passes: M and g1^T M
    field = FqField(2)
    g1 = mat_shift(companion(field, [Laurent.pi(field, 1), Laurent.one(field),
                                     Laurent.zero(field), Laurent.one(field)]), -1)
    M = mat_identity(field, 3)
    cols = list(zip(*M)) + list(zip(*mat_mul(tuple(zip(*g1)), M)))
    sizes = []

    def counted(A):
        sizes.append(len(A))
        return det(A)

    monkeypatch.setattr(matrices, "det", counted)
    H = hnf(cols)
    assert sizes == [3]
    assert hnf(cols[::-1]) == H


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


def _random_laurent(field, rng, low):
    return Laurent(field, {e: rng.randrange(field.q) for e in range(low, 3)})


def _check_charpoly(n, coeffs, powers, add, scale, is_zero, trace, d, neg):
    """Cayley-Hamilton, c_{n-1} = -trace and c_0 = (-1)^n det for one matrix."""
    assert len(coeffs) == n + 1
    total = None
    for c, P in zip(coeffs, powers):
        term = [[scale(c, x) for x in row] for row in P]
        total = term if total is None else [[add(x, y) for x, y in zip(r, s)]
                                            for r, s in zip(total, term)]
    assert all(is_zero(x) for row in total for x in row)
    assert coeffs[n - 1] == neg(trace)
    assert coeffs[0] == (neg(d) if n % 2 else d)


@pytest.mark.parametrize("q", [2, 3])
def test_charpoly_over_laurent_entries(q):
    field = FqField(q)
    rng = random.Random(q)
    for n in range(1, 5):
        for trial in range(6):
            # poles in half the trials; integral ones also reduce mod pi^m
            low = -1 if trial % 2 else 0
            M = tuple(tuple(_random_laurent(field, rng, low) for _ in range(n))
                      for _ in range(n))
            coeffs = charpoly(M)
            powers = [mat_identity(field, n)]
            for _ in range(n):
                powers.append(mat_mul(powers[-1], M))
            trace = sum((M[i][i] for i in range(1, n)), M[0][0])
            _check_charpoly(n, coeffs, powers, lambda x, y: x + y, lambda c, x: c * x,
                            Laurent.is_zero, trace, det(M), lambda x: -x)
            if low == 0:
                for m in (1, 2):
                    ch = ChainRing(field, m)
                    assert ch.charpoly(mat_reduce_mod(M, m)) == \
                        [c.reduce_mod(m) for c in coeffs]


@pytest.mark.parametrize("q,m", [(2, 1), (2, 3), (3, 2)])
def test_charpoly_over_chain_ring(q, m):
    ch = ChainRing(FqField(q), m)
    rng = random.Random(10 * q + m)
    for n in range(1, 5):
        for _ in range(6):
            M = tuple(tuple(rng.randrange(ch.size) for _ in range(n)) for _ in range(n))
            powers = [tuple(tuple(int(i == j) for j in range(n)) for i in range(n))]
            for _ in range(n):
                powers.append(ch.matmul(powers[-1], M))
            trace = 0
            for i in range(n):
                trace = ch.add(trace, M[i][i])
            _check_charpoly(n, ch.charpoly(M), powers, ch.add, ch.mul,
                            lambda x: x == 0, trace, ch.det(M), ch.neg)


@pytest.mark.parametrize("q,m,n", [(2, 2, 2), (2, 3, 2), (3, 2, 2)])
def test_gl_elements_match_the_determinant_filter(q, m, n):
    # the residue units gl_elements lists are the brute filter's at m = 1, and
    # a matrix over o/pi^m is a unit exactly when its reduction mod pi is one
    ch, res = ChainRing(FqField(q), m), ChainRing(FqField(q), 1)
    residue_units = gl_elements(res, n)
    assert residue_units == brute_units(res, n)
    residue_set = set(residue_units)
    lifts = [M for M in itertools.product(itertools.product(range(ch.size), repeat=n),
                                          repeat=n)
             if tuple(tuple(x % q for x in row) for row in M) in residue_set]
    assert lifts == brute_units(ch, n)
    with pytest.raises(PreconditionError):
        gl_elements(ch, n)


def test_gl_elements_cap_holds_on_a_cache_hit(monkeypatch):
    # F_2^(3x3) has 2^9 = 512 candidates; a cached list is no exemption
    ch = ChainRing(FqField(2), 1)
    assert len(gl_elements(ch, 3)) == 168
    monkeypatch.setattr(chain, "_GL_CAP", 500)
    with pytest.raises(CapExceeded):
        gl_elements(ch, 3)


def _random_generating_set(ch, n, rng):
    """Up to n + 2 columns of length n: random ones, zero columns, repeats,
    sums and pi-multiples of earlier ones, and all-non-unit columns."""
    nonunits = [a for a in range(ch.size) if not ch.is_unit(a)]
    gens = []
    for _ in range(rng.randint(0, n + 2)):
        kind = rng.randrange(6)
        if kind == 0:
            gens.append((0,) * n)
        elif kind == 1 and gens:
            gens.append(rng.choice(gens))
        elif kind == 2 and len(gens) >= 2:
            gens.append(ch.vadd(*rng.sample(gens, 2)))
        elif kind == 3 and gens:
            gens.append(ch.vscale(chain_pi(ch), rng.choice(gens)))
        elif kind == 4:
            gens.append(tuple(rng.choice(nonunits) for _ in range(n)))
        else:
            gens.append(tuple(rng.randrange(ch.size) for _ in range(n)))
    return gens


@pytest.mark.parametrize("q,m", [(2, 1), (2, 3), (3, 2), (4, 2), (8, 2), (9, 1)])
def test_echelon_equals_the_method_call_elimination(q, m):
    ch = ChainRing(FqField(*split_prime_power(q)), m)
    rng = random.Random(31 * q + m)
    outcomes = set()
    for _ in range(600):
        n = rng.randint(1, 6)
        gens = _random_generating_set(ch, n, rng)
        got = ch.echelon(n, gens)
        assert got == method_echelon(ch, n, gens), (n, gens)
        outcomes.add(got is None)
    # over a field every span is free
    assert outcomes == ({True, False} if m > 1 else {False})


@pytest.mark.parametrize("q,m", [(2, 1), (2, 3), (3, 2), (4, 2), (8, 2), (9, 1)])
def test_mat_inv_round_trips_on_random_units(q, m):
    ch = ChainRing(FqField(*split_prime_power(q)), m)
    rng = random.Random(17 * q + m)
    units = 0
    for _ in range(200):
        n = rng.randint(1, 5)
        M = tuple(tuple(rng.randrange(ch.size) for _ in range(n)) for _ in range(n))
        if not ch.is_unit(ch.det(M)):
            with pytest.raises(PreconditionError):
                ch.mat_inv(M)
            continue
        eye = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
        assert ch.matmul(ch.mat_inv(M), M) == eye
        units += 1
    assert units > 20


@pytest.mark.parametrize("q,m,n", [(2, 1, 3), (2, 2, 2), (3, 1, 2)])
def test_mat_inv_inverts_every_unit_and_rejects_the_rest(q, m, n):
    ch = ChainRing(FqField(q), m)
    eye = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    units = brute_units(ch, n)
    for M in units:
        Mi = ch.mat_inv(M)
        assert ch.matmul(M, Mi) == eye
        assert ch.matmul(Mi, M) == eye
    unit_set = set(units)
    singular = 0
    for flat in itertools.product(range(ch.size), repeat=n * n):
        M = tuple(flat[i * n:(i + 1) * n] for i in range(n))
        if M not in unit_set:
            singular += 1
            with pytest.raises(PreconditionError):
                ch.mat_inv(M)
    assert singular == ch.size ** (n * n) - len(units) > 0

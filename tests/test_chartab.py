"""Exact character tables of the finite matrix and quaternionic quotients."""

import random

import pytest

from leveltower import chartab
from leveltower.chain import ChainRing, leibniz_charpoly
from leveltower.chartab import CharacterTable, character_table, cuspidal_characters
from leveltower.errors import CapExceeded, OracleMismatch
from leveltower.fq import FqField
from leveltower.groups import FiniteGroup, group_gl, group_quaternion_quotient


def test_gl2_f2_table():
    g = group_gl(2, 2, 1)
    assert g.order == 6
    tab = character_table(g)
    assert sorted(tab.degrees) == [1, 1, 2]
    assert tab.verify()


def test_gl2_f3_table():
    g = group_gl(2, 3, 1)
    assert g.order == 48
    tab = character_table(g)
    assert sorted(tab.degrees) == [1, 1, 2, 2, 2, 3, 3, 4]
    assert tab.verify()


def test_gl2_f4_table():
    g = group_gl(2, 4, 1)
    assert g.order == 180
    tab = character_table(g)
    assert tab.verify()
    assert sum(d * d for d in tab.degrees) == 180


@pytest.mark.parametrize("q,count", [(2, 1), (3, 3), (4, 6)])
def test_cuspidal_counts(q, count):
    tab = character_table(group_gl(2, q, 1))
    cusp = cuspidal_characters(tab)
    assert len(cusp) == count == q * (q - 1) // 2
    # cuspidal degree is q - 1 in rank two
    for i in cusp:
        assert tab.degrees[i] == q - 1


def test_quaternion_quotient_q2():
    # order 2(q^2 - 1) = 6; the unit classes fold into a symmetric group shape
    g = group_quaternion_quotient(2)
    assert g.order == 6
    tab = character_table(g)
    assert tab.conductor == 6
    assert sorted(tab.degrees) == [1, 1, 2]
    assert tab.verify()


def _element_order(g, i):
    """The length of the identity's cycle under right multiplication by element i."""
    perm, e = g.right_mul(i), g.identity_index
    k, cur = 1, perm[e]
    while cur != e:
        k, cur = k + 1, perm[cur]
    return k


def test_quaternion_quotient_q3_is_semidihedral():
    g = group_quaternion_quotient(3)
    assert g.order == 16
    orders = [_element_order(g, i) for i in range(g.order)]
    # 5 involutions, 6 of order 4, 4 of order 8: the semidihedral profile
    assert sorted(orders.count(k) for k in (2, 4, 8)) == sorted((5, 6, 4))
    tab = character_table(g)
    assert tab.conductor == 8
    assert sorted(tab.degrees) == [1, 1, 1, 1, 2, 2, 2]
    assert tab.verify()


@pytest.mark.parametrize("group", [
    lambda: group_gl(2, 2, 1), lambda: group_gl(2, 3, 1), lambda: group_gl(2, 4, 1),
    lambda: group_quaternion_quotient(2), lambda: group_quaternion_quotient(3),
    lambda: group_quaternion_quotient(4), lambda: group_gl(2, 2, 2),
], ids=["gl-2", "gl-3", "gl-4", "quat-2", "quat-3", "quat-4", "gl-2-level-2"])
def test_tables_verify_with_integer_values(group):
    tab = character_table(group())
    assert tab.verify()
    for row in tab.values:
        for v in row:
            assert v.N == tab.conductor
            assert all(type(c) is int for c in v.coords)


def _perturbed(tab, change):
    values = [list(row) for row in tab.values]
    i, l = next((i, l) for i, row in enumerate(values) for l, v in enumerate(row)
                if v != v.conjugate())
    values[i][l] = change(values[i][l])
    return CharacterTable(tab.group, tab.class_reps, tab.class_sizes, tab.degrees,
                          values, tab.conductor)


@pytest.mark.parametrize("change", [lambda v: v + 1, lambda v: v.conjugate()],
                         ids=["plus-one", "conjugate"])
def test_verify_rejects_a_perturbed_value(change):
    tab = character_table(group_gl(2, 3, 1))
    with pytest.raises(OracleMismatch):
        _perturbed(tab, change).verify()


@pytest.mark.parametrize("group", [lambda: group_gl(2, 3, 1),
                                   lambda: group_quaternion_quotient(3)],
                         ids=["GL2(F3)", "quaternion-q3"])
def test_inverse_table_is_an_involution_of_inverses(group):
    g = group()
    e, inv = g.identity_index, g.inverse
    for i in range(g.order):
        assert g.right_mul(inv[i])[i] == e
        assert g.right_mul(i)[inv[i]] == e
        assert inv[inv[i]] == i


def test_class_count_matches_rows():
    g = group_gl(2, 2, 1)
    tab = character_table(g)
    assert tab.n_classes == len(g.classes) == len(tab.values)


def test_table_cap_guard(monkeypatch):
    monkeypatch.setattr(chartab, "TABLE_ORDER_CAP", 10)
    with pytest.raises(CapExceeded):
        character_table(group_gl(2, 3, 1))


@pytest.mark.parametrize("p", [2, 5, 97, 1009])
def test_hessenberg_charpoly_is_the_leibniz_charpoly(p):
    rng = random.Random(p)
    for _ in range(60):
        d = rng.randint(1, 6)
        # sparse entries too, so that zero pivots and early-split Hessenberg forms occur
        M = [[rng.choice([0, 0, 1, rng.randrange(p)]) for _ in range(d)] for _ in range(d)]
        want = leibniz_charpoly(M, lambda x, y: (x + y) % p, lambda x, y: x * y % p,
                                lambda x: -x % p, 0, 1)
        assert chartab._charpoly_mod_p(M, p) == want


def test_roots_are_the_distinct_zeros():
    p = 13
    f = [1]
    for r in (3, 3, 7, 0):
        f = [(a - r * b) % p for a, b in zip([0] + f, f + [0])]
    assert chartab._roots_mod_p(f, p) == [0, 3, 7]
    # T^2 + 1 has no root mod 7
    assert chartab._roots_mod_p([1, 0, 1], 7) == []


def test_a_missed_eigenvalue_is_caught(monkeypatch):
    found = chartab._roots_mod_p

    def drop_one(f, p):
        return found(f, p)[1:]

    monkeypatch.setattr(chartab, "_roots_mod_p", drop_one)
    with pytest.raises(OracleMismatch, match="eigenspace dimensions did not add up"):
        character_table(group_gl(2, 3, 1))


def test_a_split_block_that_is_not_invariant_is_caught(monkeypatch):
    # each eigenspace is replaced by as many coordinate vectors, so a later
    # class-sum matrix moves a vector out of its block
    kernel = chartab._kernel_mod_p

    def coordinate_kernel(rows, p):
        return [[int(i == j) for i in range(len(rows[0]))] for j in range(len(kernel(rows, p)))]

    monkeypatch.setattr(chartab, "_kernel_mod_p", coordinate_kernel)
    with pytest.raises(OracleMismatch, match="does not preserve a split subspace"):
        character_table(group_gl(2, 3, 1))


@pytest.mark.parametrize("n,q,classes", [(3, 3, 24), (4, 2, 14)])
def test_larger_gl_tables_verify_with_the_cap_raised(monkeypatch, n, q, classes):
    monkeypatch.setattr(chartab, "TABLE_ORDER_CAP", 25_000)
    tab = character_table(group_gl(n, q, 1))
    assert tab.n_classes == classes == len(tab.degrees)
    assert tab.verify()


def test_no_group_product_runs_after_the_closure():
    ref = group_gl(2, 3, 1)
    matmul = ChainRing(FqField(3), 1).matmul
    closed = False

    def mul(a, b):
        if closed:
            raise AssertionError("a group product ran after the closure")
        return matmul(a, b)

    gens = [((2, 0), (0, 1)), ((1, 1), (0, 1)), ((0, 1), (1, 0))]
    g = FiniteGroup(((1, 0), (0, 1)), gens, mul, ref.order)
    closed = True
    assert g.classes == ref.classes
    tab = character_table(g)
    assert tab.degrees == character_table(ref).degrees

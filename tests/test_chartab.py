"""Exact character tables of the finite matrix and quaternionic quotients."""

import pytest

from leveltower.chartab import CharacterTable, character_table, cuspidal_characters
from leveltower.errors import CapExceeded, OracleMismatch
from leveltower.groups import group_gl, group_quaternion_quotient


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
    g = group_quaternion_quotient(2, 1)
    assert g.order == 6
    assert g.exponent == 6
    tab = character_table(g)
    assert sorted(tab.degrees) == [1, 1, 2]
    assert tab.verify()


def test_quaternion_quotient_q3_is_semidihedral():
    g = group_quaternion_quotient(3, 1)
    assert g.order == 16
    assert g.exponent == 8
    orders = [g.element_order(i) for i in range(g.order)]
    # 5 involutions, 6 of order 4, 4 of order 8: the semidihedral profile
    assert sorted(orders.count(k) for k in (2, 4, 8)) == sorted((5, 6, 4))
    tab = character_table(g)
    assert sorted(tab.degrees) == [1, 1, 1, 1, 2, 2, 2]
    assert tab.verify()


@pytest.mark.parametrize("group", [
    lambda: group_gl(2, 2, 1), lambda: group_gl(2, 3, 1), lambda: group_gl(2, 4, 1),
    lambda: group_quaternion_quotient(2, 1), lambda: group_quaternion_quotient(3, 1),
    lambda: group_quaternion_quotient(4, 1), lambda: group_quaternion_quotient(2, 2),
], ids=["gl-2", "gl-3", "gl-4", "quat-2", "quat-3", "quat-4", "quat-2-level-2"])
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
                          values, tab.conductor, tab.prime)


@pytest.mark.parametrize("change", [lambda v: v + 1, lambda v: v.conjugate()],
                         ids=["plus-one", "conjugate"])
def test_verify_rejects_a_perturbed_value(change):
    tab = character_table(group_gl(2, 3, 1))
    with pytest.raises(OracleMismatch):
        _perturbed(tab, change).verify()


@pytest.mark.parametrize("group", [lambda: group_gl(2, 3, 1),
                                   lambda: group_quaternion_quotient(2, 2)],
                         ids=["GL2(F3)", "quaternion-q2-level2"])
def test_inverse_table_is_an_involution_of_inverses(group):
    g = group()
    e, inv = g.identity_index, g.inverse
    for i in range(g.order):
        assert g.imul(i, inv[i]) == e
        assert g.imul(inv[i], i) == e
        assert inv[inv[i]] == i


def test_class_count_matches_rows():
    g = group_gl(2, 2, 1)
    tab = character_table(g)
    assert tab.n_classes == len(g.classes) == len(tab.values)


def test_table_cap_guard():
    with pytest.raises(CapExceeded):
        character_table(group_gl(2, 3, 1), cap=10)

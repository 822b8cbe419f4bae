"""Finite groups as closures of generators, against independent oracles."""

import pytest
from conftest import brute_units

from leveltower import groups
from leveltower.chain import ChainRing
from leveltower.errors import CapExceeded, OracleMismatch
from leveltower.fq import FqField, split_prime_power
from leveltower.groups import FiniteGroup, group_gl, group_quaternion_quotient


@pytest.mark.parametrize("n,q,m", [(1, 2, 1), (1, 4, 2), (1, 3, 3), (2, 2, 1), (2, 3, 1),
                                   (2, 4, 1), (2, 2, 2), (2, 3, 2), (3, 2, 1), (2, 2, 3)])
def test_gl_closure_is_the_lexicographic_unit_scan(n, q, m):
    p, s = split_prime_power(q)
    assert group_gl(n, q, m).elements == tuple(brute_units(ChainRing(FqField(p, s), m), n))


@pytest.mark.parametrize("q", [2, 3, 4])
def test_quaternion_quotient_orders(q):
    assert group_quaternion_quotient(q).order == 2 * (q * q - 1)


def _classes_by_full_scan(g):
    """Each class as {x g_i x^-1 : x in G}, conjugating by every element."""
    right = [g.right_mul(j) for j in range(g.order)]     # right[j][x] = index of x g_j
    seen, out = set(), []
    for i in range(g.order):
        if i not in seen:
            cls = tuple(sorted({right[g.inverse[x]][right[i][x]] for x in range(g.order)}))
            seen.update(cls)
            out.append(cls)
    return tuple(out)


@pytest.mark.parametrize("group", [lambda: group_gl(2, 3, 1), lambda: group_gl(2, 4, 1),
                                   lambda: group_gl(2, 2, 2), lambda: group_quaternion_quotient(3)],
                         ids=["GL2(F3)", "GL2(F4)", "GL2(o/pi^2)-q2", "quaternion-q3"])
def test_generator_orbits_are_the_conjugacy_classes(group):
    g = group()
    assert g.classes == _classes_by_full_scan(g)


def test_oversized_quaternion_quotient_is_refused_before_any_product(monkeypatch):
    def unbuilt(*args):
        raise AssertionError("the division algebra was built")

    monkeypatch.setattr(groups, "DivisionAlgebra", unbuilt)
    with pytest.raises(CapExceeded, match="131070"):
        group_quaternion_quotient(256)


def _cyclic_six(a, b):
    return (a + b) % 6


@pytest.mark.parametrize("gens,order,message", [
    ([2], 6, "closure has 3 elements"),
    ([2, 3], 5, "closure exceeds the order 5"),
    ([1], 5, "powers of a generator miss the identity"),
], ids=["too-few-generators", "order-too-small", "generator-order-too-large"])
def test_closure_order_must_match_exactly(gens, order, message):
    with pytest.raises(OracleMismatch, match=message):
        FiniteGroup(0, gens, _cyclic_six, order)


def _cyclic_four_broken(a, b):
    # Z/4 except that 1 * 2 = 1: 2 still has order 2, but right
    # multiplication by 2 sends both 1 and 3 to 1
    return 1 if (a, b) == (1, 2) else (a + b) % 4


def test_a_generator_that_does_not_permute_the_closure_is_caught():
    with pytest.raises(OracleMismatch, match="a generator does not permute the closure"):
        FiniteGroup(0, [1, 2], _cyclic_four_broken, 4)


def test_closure_makes_one_product_per_generator_and_one_inverse_check(monkeypatch):
    # |G| |S| closure products and |G| checks g g^-1 = e; the inverses
    # themselves cost no product
    matmul = ChainRing.matmul
    calls = 0

    def counted(self, a, b):
        nonlocal calls
        calls += 1
        return matmul(self, a, b)

    monkeypatch.setattr(ChainRing, "matmul", counted)
    g = group_gl.__wrapped__(2, 4, 1)
    assert (g.order, len(g.right)) == (180, 3)
    assert calls == g.order * (len(g.right) + 1) == 720


def _quaternion_product(q):
    """(i, x)(j, y) = x w^i y w^j = x sigma^i(y) w^(i+j), sigma the q-power
    Frobenius of F_{q^2}, and w^2 = pi lies in the identity coset."""
    big = group_quaternion_quotient(q).meta["algebra"].big

    def mul(a, b):
        (i, x), (j, y) = a, b
        return ((i + j) % 2, big.mul(x, big.pow(y, q ** i)))
    return mul


@pytest.mark.parametrize("group,mul", [
    (lambda: group_gl(2, 3, 1), lambda: ChainRing(FqField(3), 1).matmul),
    (lambda: group_gl(2, 2, 2), lambda: ChainRing(FqField(2), 2).matmul),
    (lambda: group_quaternion_quotient(3), lambda: _quaternion_product(3)),
], ids=["GL2(F3)", "GL2(o/pi^2)-q2", "quaternion-q3"])
def test_permutation_products_are_the_group_law(group, mul):
    g, mul = group(), mul()
    for i in range(g.order):
        perm = g.right_mul(i)
        for j in range(g.order):
            want = g.index[mul(g.elements[j], g.elements[i])]
            assert perm[j] == want

"""The quaternionic side: algebra arithmetic, norms, fixed lines, totals."""

import random

import pytest
from conftest import reduced_norm, scalar_pi

from leveltower.certify import regular_elliptic_certify
from leveltower.division import DivisionAlgebra, projective_fixed_points, total_fixed_points
from leveltower.errors import Inconclusive, PreconditionError
from leveltower.laurent import Laurent
from leveltower.matrices import companion, det, mat_mul


def _random_elem(alg, rng, allow_w=True):
    big = alg.big
    c0 = sum((Laurent.pi(big, k).scale(rng.randrange(big.q))
              for k in range(3)), Laurent.zero(big))
    c1 = sum((Laurent.pi(big, k).scale(rng.randrange(big.q))
              for k in range(3)), Laurent.zero(big)) if allow_w else Laurent.zero(big)
    return alg.elem([c0, c1])


def test_embedding_is_a_ring_homomorphism():
    alg = DivisionAlgebra(2, 2)
    rng = random.Random(5)
    for _ in range(15):
        a = _random_elem(alg, rng)
        b = _random_elem(alg, rng)
        left = alg.embed_matrix(alg.mul(a, b))
        right = mat_mul(alg.embed_matrix(a), alg.embed_matrix(b))
        assert [list(r) for r in left] == [list(r) for r in right]
        summed = [[x + y for x, y in zip(ra, rb)]
                  for ra, rb in zip(alg.embed_matrix(a), alg.embed_matrix(b))]
        a_plus_b = alg.elem([x + y for x, y in zip(a.coords, b.coords)])
        assert [list(r) for r in alg.embed_matrix(a_plus_b)] == summed


def test_reduced_norm_multiplicative():
    alg = DivisionAlgebra(3, 2)
    rng = random.Random(6)
    zero = alg.elem([0, 0])
    for _ in range(12):
        a = _random_elem(alg, rng)
        b = _random_elem(alg, rng)
        if zero in (a, b):
            continue
        assert reduced_norm(alg, alg.mul(a, b)) == reduced_norm(alg, a) * reduced_norm(alg, b)


def test_uniformizer_squares_to_pi():
    for q in (2, 3):
        alg = DivisionAlgebra(q, 2)
        w = alg.uniformizer()
        assert alg.mul(w, w) == scalar_pi(alg, 1)
        assert reduced_norm(alg, w).valuation() == 1


def test_norm_valuation_one_elements_are_noncentral():
    alg = DivisionAlgebra(2, 2)
    w = alg.uniformizer()
    x = alg.teichmuller(2)
    assert alg.mul(w, x) != alg.mul(x, w)


def _certified_b_suite(alg, total=10, seed=77, separable_only=True):
    rng = random.Random(seed)
    out = []
    while len(out) < total:
        b = _random_elem(alg, rng)
        if rng.random() < 0.4:
            b = alg.mul(b, alg.uniformizer())
        if b == alg.elem([0, 0]):
            continue
        pol = alg.reduced_charpoly(b)
        try:
            cert = regular_elliptic_certify(list(pol))
        except Inconclusive:
            continue
        if separable_only and not cert.separable:
            continue
        out.append((b, pol, cert))
    return out


@pytest.mark.parametrize("q", [2, 3])
def test_projective_fixed_points_two_simple_lines(q):
    alg = DivisionAlgebra(q, 2)
    suite = _certified_b_suite(alg)
    assert len(suite) >= 10
    for b, pol, cert in suite:
        lines = projective_fixed_points(alg, b, pol, cert)
        assert len(lines) == 2
        (a, b), (c, d) = lines
        assert not (a * d - b * c).is_zero(), "the two fixed lines coincide"


def test_total_is_rank_times_fiber():
    from conftest import random_unit_matrix

    rng = random.Random(99)
    for q in (2, 3):
        alg = DivisionAlgebra(q, 2)
        for b, _, _ in _certified_b_suite(alg, total=4, seed=q):
            g = random_unit_matrix(alg.small, 2, rng)
            for m in (1, 2):
                rep = total_fixed_points(alg, b, g, m)
                assert rep.n == 2
                assert rep.total == rep.n * rep.per_fiber
                assert rep.line_count == 2


def test_total_nonzero_on_self_pairing():
    from leveltower.matrices import adjugate

    alg = DivisionAlgebra(2, 2)
    x = alg.teichmuller(2)
    pol = alg.reduced_charpoly(x)
    g_b = companion(alg.small, list(pol))
    d = det(g_b)
    di = alg.small.inv(d.coeff(0))
    g_inv = [[e.scale(di) for e in row] for row in adjugate(g_b)]
    rep = total_fixed_points(alg, x, g_inv, 1)
    assert rep.per_fiber == 3
    assert rep.total == 6


def test_central_element_has_no_simple_lines():
    alg = DivisionAlgebra(2, 2)
    b = scalar_pi(alg, 1)
    with pytest.raises((PreconditionError, Inconclusive)):
        pol = alg.reduced_charpoly(b)
        cert = regular_elliptic_certify(list(pol))
        projective_fixed_points(alg, b, pol, cert)

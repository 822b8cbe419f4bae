"""Decision tree of the regular-elliptic certifier."""

import random

import pytest
from conftest import sylvester_resultant

from leveltower import matrices
from leveltower.certify import _discriminant, _separability, regular_elliptic_certify
from leveltower.errors import CertificationError, Inconclusive
from leveltower.fq import FqField, split_prime_power
from leveltower.laurent import Laurent


def _poly(field, *codes_or_laurents):
    out = []
    for c in codes_or_laurents:
        out.append(c if isinstance(c, Laurent) else Laurent.const(field, c))
    return out


def test_unramified_quadratic():
    f2 = FqField(2, 1)
    cert = regular_elliptic_certify(_poly(f2, 1, 1, 1))
    assert cert.kind == "unramified"
    assert (cert.e, cert.f) == (1, 2)
    assert cert.det_val == 0
    assert cert.separable
    assert not cert.eisenstein


def test_unramified_cubic():
    f2 = FqField(2, 1)
    cert = regular_elliptic_certify(_poly(f2, 1, 1, 0, 1))
    assert cert.kind == "unramified"
    assert (cert.e, cert.f) == (1, 3)
    assert cert.det_val == 0


def test_eisenstein_quadratic():
    f2 = FqField(2, 1)
    cert = regular_elliptic_certify([Laurent.pi(f2, 1), Laurent.zero(f2), Laurent.const(f2, 1)])
    assert cert.kind == "ramified"
    assert cert.eisenstein
    assert (cert.e, cert.f) == (2, 1)
    assert cert.det_val == 1


def test_eisenstein_cubic():
    f3 = FqField(3, 1)
    cert = regular_elliptic_certify(
        [Laurent.pi(f3, 1), Laurent.zero(f3), Laurent.zero(f3), Laurent.const(f3, 1)])
    assert cert.kind == "ramified"
    assert (cert.e, cert.f) == (3, 1)
    assert cert.det_val == 1


def test_split_newton_polygon_rejected():
    f2 = FqField(2, 1)
    # (T - 1)(T - pi): slopes 0 and 1
    pol = [Laurent.pi(f2, 1), Laurent.const(f2, 1) + Laurent.pi(f2, 1), Laurent.const(f2, 1)]
    with pytest.raises(CertificationError):
        regular_elliptic_certify(pol)


def test_split_separable_residue_rejected():
    f3 = FqField(3, 1)
    # residue T^2 + T = T(T + 1), distinct roots downstairs
    pol = _poly(f3, 0, 1, 1)
    with pytest.raises(CertificationError):
        regular_elliptic_certify(pol)


def test_irreducible_power_residue_is_inconclusive():
    f3 = FqField(3, 1)
    # T^2 + T + 1 = (T + 2)^2 over F_3
    pol = _poly(f3, 1, 1, 1)
    with pytest.raises(Inconclusive):
        regular_elliptic_certify(pol)


def test_pi_perturbation_keeps_certificate():
    f2 = FqField(2, 1)
    base = _poly(f2, 1, 1, 1)
    bumped = [base[0] + Laurent.pi(f2, 1), base[1], base[2]]
    cert = regular_elliptic_certify(bumped)
    assert cert.kind == "unramified"
    assert cert.det_val == 0


def test_summary_is_plain_data():
    f2 = FqField(2, 1)
    cert = regular_elliptic_certify(_poly(f2, 1, 1, 1))
    s = cert.summary()
    assert s["kind"] == "unramified"
    assert isinstance(s["det_val"], int)


@pytest.mark.parametrize("q", [2, 3, 4])
def test_discriminant_equals_the_sylvester_resultant(q):
    # det P'(C_P) is Res(P, P') exactly, also where p | n and P' drops degree;
    # in a third of the trials P is a polynomial in T^p below its leading
    # term, so P' = 0 when p | n
    field = FqField(*split_prime_power(q))
    rng = random.Random(700 + q)
    seen = set()
    for trial in range(36):
        n = 2 + trial % 4
        coeffs = [Laurent(field, {e: rng.randrange(q) for e in range(rng.randrange(3))})
                  for _ in range(n)] + [Laurent.one(field)]
        if trial % 3 == 0:
            coeffs = [c if i % field.p == 0 or i == n else Laurent.zero(field)
                      for i, c in enumerate(coeffs)]
        disc = sylvester_resultant(coeffs)
        assert _discriminant(coeffs) == disc
        expected = (False, None) if disc.is_zero() else (True, disc.valuation())
        assert _separability(coeffs, n) == expected
        seen.add(expected[0])
    assert seen == {False, True}


@pytest.mark.parametrize("q", [2, 3])
def test_an_eisenstein_polynomial_in_t_to_the_p_is_inseparable(q):
    # T^2 + pi over F_2 and T^3 + pi over F_3: P' = 0, a totally ramified field
    field = FqField(q)
    pol = [Laurent.pi(field, 1)] + [Laurent.zero(field)] * (q - 1) + [Laurent.one(field)]
    assert sylvester_resultant(pol).is_zero()
    cert = regular_elliptic_certify(pol)
    assert (cert.kind, cert.e, cert.eisenstein) == ("ramified", q, True)
    assert (cert.separable, cert.disc_val) == (False, None)


def test_the_certificate_takes_no_determinant_above_n_by_n(monkeypatch):
    sizes = []
    leibniz = matrices.leibniz_det

    def recorded(M, *ops):
        sizes.append(len(M))
        return leibniz(M, *ops)

    monkeypatch.setattr(matrices, "leibniz_det", recorded)
    f2 = FqField(2, 1)
    # T^2+T+1, T^3+T+1, T^4+T+1 and T^5+T^2+1 are irreducible over F_2
    for codes in [(1, 1, 1), (1, 1, 0, 1), (1, 1, 0, 0, 1), (1, 0, 1, 0, 0, 1)]:
        n = len(codes) - 1
        sizes.clear()
        cert = regular_elliptic_certify(_poly(f2, *codes))
        assert (cert.kind, cert.f, cert.separable) == ("unramified", n, True)
        assert max(sizes) == n

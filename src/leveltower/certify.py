"""Sound-but-incomplete certification of regular elliptic elements.

The certifier looks at the Newton polygon of the characteristic polynomial
and, on a single integral slope, at the residue factorization; separability
is read off the discriminant det P'(C_P), an n x n determinant.  It answers
"irreducible, totally ramified", "irreducible, unramified", or "reducible"
only when the answer is provable from those invariants; everything else
raises Inconclusive.  No certified answer is ever wrong; some true answers
are missed, and the callers treat that as a refusal, not a result.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .errors import CertificationError, Inconclusive, PreconditionError
from .fq import factor
from .laurent import Laurent
from .matrices import companion, det, mat_mul


@dataclass
class EllipticCertificate:
    """A proof object: the extension F[g] is a degree-n field, with this shape."""

    degree: int
    kind: str              # "unramified" or "ramified"
    e: int                 # ramification index of F[g]/F
    f: int                 # residual degree
    eisenstein: bool
    det_val: int           # valuation of the constant coefficient
    slope: Fraction        # common valuation of the roots
    separable: bool
    disc_val: int | None

    def summary(self) -> dict:
        return {
            "degree": self.degree,
            "kind": self.kind,
            "e": self.e,
            "f": self.f,
            "eisenstein": self.eisenstein,
            "det_val": self.det_val,
            "slope": [self.slope.numerator, self.slope.denominator],
            "separable": self.separable,
            "disc_val": self.disc_val,
        }


def newton_segments(coeffs):
    """Lower-hull segments of a monic polynomial over F_Q((pi)).

    Returns a list of (root_valuation: Fraction, multiplicity: int) pairs in
    increasing valuation order.  Zero coefficients contribute no point.
    """
    n = len(coeffs) - 1
    pts = []
    for i, c in enumerate(coeffs):
        if not c.is_zero():
            pts.append((i, c.valuation()))
    if not pts or pts[0][0] != 0:
        raise PreconditionError("constant coefficient is zero, the polygon starts late")
    if pts[-1][0] != n:
        raise PreconditionError("polynomial is not monic of the declared degree")
    hull = []
    for p in pts:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            if (x2 - x1) * (p[1] - y1) - (y2 - y1) * (p[0] - x1) <= 0:
                hull.pop()
            else:
                break
        hull.append(p)
    segs = []
    for (x1, y1), (x2, y2) in zip(hull, hull[1:]):
        segs.append((Fraction(y1 - y2, x2 - x1), x2 - x1))
    return segs


def _discriminant(coeffs):
    """Res(P, P') for monic P: det P'(C_P), the norm of P' in o[T]/(P).  Column
    j of P'(C_P) is T^j P' mod P, C_P applied j times to P'; the determinant
    is taken of the transpose, whose rows are those columns."""
    field = coeffs[0].field
    n = len(coeffs) - 1
    C = companion(field, coeffs)
    cols = [tuple((coeffs[i].scale(i % field.p),) for i in range(1, n + 1))]
    for _ in range(n - 1):
        cols.append(mat_mul(C, cols[-1]))
    return det(tuple(tuple(x for (x,) in col) for col in cols))


def regular_elliptic_certify(coeffs) -> EllipticCertificate:
    """Certify that a monic characteristic polynomial generates a field.

    coeffs: Laurent coefficients, lowest first, length n+1, monic.  Raises
    CertificationError when reducibility is proved, Inconclusive when neither
    direction is provable from the polygon and the residue factorization.
    """
    field = coeffs[0].field
    n = len(coeffs) - 1
    if n < 1:
        raise PreconditionError("degree must be >= 1")
    if not (coeffs[-1] == Laurent.one(field)):
        raise PreconditionError("characteristic polynomial must be monic")
    c0 = coeffs[0]
    if c0.is_zero():
        if n == 1:
            raise CertificationError("determinant is zero, the element is singular")
        raise CertificationError("reducible: zero constant coefficient splits off T")

    sep, disc_val = _separability(coeffs, n)

    if n == 1:
        return EllipticCertificate(
            degree=1, kind="unramified", e=1, f=1, eisenstein=False,
            det_val=c0.valuation(), slope=Fraction(c0.valuation(), 1),
            separable=True, disc_val=disc_val)

    segs = newton_segments(coeffs)
    if len(segs) > 1:
        parts = ", ".join(f"{s} x{l}" for s, l in segs)
        raise CertificationError(f"reducible: Newton polygon has several slopes ({parts})")
    slope, _ = segs[0]
    d = c0.valuation()
    assert slope == Fraction(d, n)
    g = gcd(abs(d), n)
    if g == 1:
        return EllipticCertificate(
            degree=n, kind="ramified", e=n, f=1, eisenstein=(d == 1),
            det_val=d, slope=slope, separable=sep, disc_val=disc_val)
    if d % n == 0:
        s = d // n
        resid = []
        for i, c in enumerate(coeffs):
            shifted = c.shift((n - i) * -s) if s else c
            resid.append(shifted.coeff(0))
        _, parts = factor(field, resid)
        if len(parts) > 1:
            names = " * ".join(f"(deg {len(p) - 1})^{m}" for p, m in parts)
            raise CertificationError(f"reducible: residue polynomial splits as {names}")
        _, mult = parts[0]
        if mult == 1:
            return EllipticCertificate(
                degree=n, kind="unramified", e=1, f=n, eisenstein=False,
                det_val=d, slope=slope, separable=sep, disc_val=disc_val)
        raise Inconclusive(
            f"residue polynomial is an irreducible power (multiplicity {mult}); "
            "the polygon and residue invariants cannot decide this case")
    raise Inconclusive(
        f"single slope {slope} with gcd({abs(d)}, {n}) = {g}; "
        "the polygon alone cannot decide this case")


def _separability(coeffs, n: int):
    """(separable, v(disc)): P is separable exactly when Res(P, P') != 0, also
    where p | n lowers the degree of P'; (True, None) at n = 1."""
    if n == 1:
        return True, None
    disc = _discriminant(coeffs)
    if disc.is_zero():
        return False, None
    return True, disc.valuation()

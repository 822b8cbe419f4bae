"""Cyclic-algebra model of the invariant-1/n division algebra over F_q((pi)).

An element is a left-coordinate vector (x_0, ..., x_{n-1}) over F_{q^n}((pi)),
standing for x_0 + x_1 w + ... + x_{n-1} w^{n-1}, where the generator w
satisfies

    w * x = sigma(x) * w      (sigma = q-power Frobenius on F_{q^n}),
    w^n   = pi.

Left multiplication in the right-module basis (w^0, ..., w^{n-1}) is an
n x n matrix over F_{q^n}((pi)).  Its determinant and characteristic
polynomial have Frobenius-invariant coefficients, so they descend to
F_q((pi)); the determinant is the reduced norm.

The fixed lines of a regular element acting on the projective line are
computed inside the quadratic extension F_{q^2}((pi))[T]/(charpoly), which
covers both the unramified case (where the extension splits) and the
ramified separable case (where it is a field).  Each line is returned as
its eigenvector, a pair of coordinates; both are simple fixed points
because the certified discriminant is nonzero.

`total_fixed_points` certifies b once and runs both routes of `counting` on
the companion matrix of its reduced characteristic polynomial; a
disagreement between them is an OracleMismatch.
"""

from dataclasses import dataclass

from .certify import EllipticCertificate, regular_elliptic_certify
from .counting import CountResult, count_brute, count_structured
from .errors import CapExceeded, OracleMismatch, PreconditionError
from .fq import FqField, split_prime_power
from .laurent import Laurent
from .matrices import charpoly, companion

__all__ = [
    "DivisionAlgebra",
    "DElem",
    "QuadElem",
    "projective_fixed_points",
    "total_fixed_points",
    "TotalFixedReport",
]


class DElem:
    """One algebra element: a tuple of n Laurent coordinates."""

    __slots__ = ("alg", "coords")

    def __init__(self, alg, coords):
        self.alg = alg
        self.coords = tuple(coords)
        if len(self.coords) != alg.n:
            raise PreconditionError(f"need {alg.n} coordinates")

    def __mul__(self, other):
        return self.alg.mul(self, other)

    def __eq__(self, other):
        return (isinstance(other, DElem) and self.alg is other.alg
                and self.coords == other.coords)

    def __hash__(self):
        return hash((id(self.alg), self.coords))

    def __repr__(self):
        parts = []
        for i, c in enumerate(self.coords):
            if not c.is_zero():
                parts.append(f"({c!r})*w^{i}" if i else f"({c!r})")
        return " + ".join(parts) if parts else "0"


class DivisionAlgebra:
    """The degree-n cyclic algebra over F_q((pi)) with w^n = pi."""

    def __init__(self, q: int, n: int):
        if n < 1:
            raise PreconditionError("degree must be >= 1")
        p, s = split_prime_power(q)
        self.q, self.n, self.p, self.s = q, n, p, s
        try:  # FqField bounds s * n by bit length before it forms q^n
            self.big = FqField(p, s * n)
        except CapExceeded:
            raise CapExceeded(f"n = {n}: the degree-n field F_(q^n) has {p}^{s * n} elements, "
                              f"above the 2^16 field cap") from None
        self.small = FqField(p, s)
        self._lift_table = self.small.embedding(self.big)
        self._drop_table = {v: i for i, v in enumerate(self._lift_table)}

    # -- scalars ----------------------------------------------------------

    def sigma(self, x: Laurent, times: int = 1) -> Laurent:
        """The q-power Frobenius on coefficients; fixes pi."""
        return x.frobenius(self.s * (times % self.n) if self.n > 1 else 0)

    def lift_scalar(self, x: Laurent) -> Laurent:
        if x.field is self.big:
            return x
        if x.field is not self.small:
            raise PreconditionError("scalar lives in an unrelated field")
        t = self._lift_table
        return Laurent(self.big, {e: t[c] for e, c in x.coeffs.items()})

    def descend_scalar(self, x: Laurent) -> Laurent:
        """Image in F_q((pi)); every coefficient must be Frobenius-fixed."""
        out = {}
        for e, c in x.coeffs.items():
            if c not in self._drop_table:
                raise OracleMismatch(
                    f"coefficient at pi^{e} is not fixed by the q-power Frobenius")
            out[e] = self._drop_table[c]
        return Laurent(self.small, out)

    # -- element constructors ----------------------------------------------

    def elem(self, coords) -> DElem:
        fixed = []
        for c in coords:
            if isinstance(c, int):
                c = Laurent.const(self.big, c)
            elif c.field is self.small:
                c = self.lift_scalar(c)
            fixed.append(c)
        return DElem(self, fixed)

    def teichmuller(self, code: int) -> DElem:
        """The constant x in F_{q^n} embedded in the w^0 slot."""
        return self.elem([code] + [0] * (self.n - 1))

    def uniformizer(self) -> DElem:
        """The generator w itself (w^n = pi)."""
        if self.n == 1:
            return self.elem([Laurent.pi(self.big)])
        return self.elem([0, 1] + [0] * (self.n - 2))

    # -- arithmetic ---------------------------------------------------------

    def mul(self, a: DElem, b: DElem) -> DElem:
        """(sum x_i w^i)(sum y_j w^j) with w-exponents folded by w^n = pi."""
        n = self.n
        out = [Laurent.zero(self.big) for _ in range(n)]
        for i, x in enumerate(a.coords):
            if x.is_zero():
                continue
            for j, y in enumerate(b.coords):
                if y.is_zero():
                    continue
                k = (i + j) % n
                term = x * self.sigma(y, i)
                if i + j >= n:
                    term = term.shift((i + j) // n)
                out[k] = out[k] + term
        return DElem(self, out)

    # -- matrix model --------------------------------------------------------

    def embed_matrix(self, b: DElem):
        """Left multiplication by b in the basis (w^0, ..., w^{n-1}).

        Row k, column j holds pi^((i+j)//n) * sigma^(-k)(x_i) with
        i = (k - j) mod n.
        """
        n = self.n
        rows = []
        for k in range(n):
            row = []
            for j in range(n):
                i = (k - j) % n
                x = self.sigma(b.coords[i], n - k)
                if i + j >= n:
                    x = x.shift((i + j) // n)
                row.append(x)
            rows.append(tuple(row))
        return tuple(rows)

    def reduced_charpoly(self, b: DElem):
        """Monic degree-n polynomial over F_q((pi)), low coefficients first."""
        return [self.descend_scalar(c) for c in charpoly(self.embed_matrix(b))]


class QuadElem:
    """Element c0 + c1*T of F((pi))[T]/(T^2 + a1*T + a0), F the big field."""

    __slots__ = ("a0", "a1", "c0", "c1")

    def __init__(self, a0: Laurent, a1: Laurent, c0: Laurent, c1: Laurent):
        self.a0, self.a1, self.c0, self.c1 = a0, a1, c0, c1

    def _wrap(self, c0, c1):
        return QuadElem(self.a0, self.a1, c0, c1)

    def __add__(self, other):
        return self._wrap(self.c0 + other.c0, self.c1 + other.c1)

    def __sub__(self, other):
        return self._wrap(self.c0 - other.c0, self.c1 - other.c1)

    def __mul__(self, other):
        # (c0 + c1 T)(d0 + d1 T) with T^2 = -a1 T - a0
        cross = self.c1 * other.c1
        return self._wrap(self.c0 * other.c0 - cross * self.a0,
                          self.c0 * other.c1 + self.c1 * other.c0 - cross * self.a1)

    def __eq__(self, other):
        return self.c0 == other.c0 and self.c1 == other.c1

    def norm(self) -> Laurent:
        """Product over both embeddings: c0^2 - a1 c0 c1 + a0 c1^2."""
        return self.c0 * self.c0 - self.a1 * self.c0 * self.c1 + self.a0 * self.c1 * self.c1

    def is_zero(self) -> bool:
        return self.c0.is_zero() and self.c1.is_zero()

    def __repr__(self):
        return f"({self.c0!r}) + ({self.c1!r})*T"


def projective_fixed_points(alg: DivisionAlgebra, b: DElem, pol,
                            cert: EllipticCertificate):
    """The fixed lines of b acting on the projective line, as eigenvectors.

    `pol` is b's reduced characteristic polynomial and `cert` its
    certificate.  Requires n = 2, a regular (irreducible characteristic
    polynomial) element, and separability.  Returns exactly two eigenvectors,
    each a pair of QuadElem coordinates over the quadratic extension
    F_{q^2}((pi))[T]/(charpoly).  Both lines are simple fixed points: the
    certified discriminant is nonzero, which is checked as a nonzero gap
    between the two eigenvalues.
    """
    if alg.n != 2:
        raise PreconditionError("fixed-line extraction is implemented for n = 2")
    if not cert.separable:
        raise PreconditionError(
            "characteristic polynomial is inseparable, the fixed points are not simple")
    a0 = alg.lift_scalar(pol[0])
    a1 = alg.lift_scalar(pol[1])
    M = alg.embed_matrix(b)

    def emb(x: Laurent) -> QuadElem:
        return QuadElem(a0, a1, x, Laurent.zero(alg.big))

    zero = Laurent.zero(alg.big)
    one = Laurent.one(alg.big)
    t = QuadElem(a0, a1, zero, one)
    t_conj = QuadElem(a0, a1, -a1, -one)

    m00, m01 = M[0]
    m10, m11 = M[1]
    lines = []
    for tv in (t, t_conj):
        if not m01.is_zero():
            vec = (emb(m01), tv - emb(m00))
        elif not m10.is_zero():
            vec = (tv - emb(m11), emb(m10))
        else:
            # diagonal element: the coordinate axes are the fixed lines
            vec = (emb(one), emb(zero)) if tv is t else (emb(zero), emb(one))
            tv = emb(m00) if tv is t else emb(m11)
        got = (emb(m00) * vec[0] + emb(m01) * vec[1],
               emb(m10) * vec[0] + emb(m11) * vec[1])
        want = (tv * vec[0], tv * vec[1])
        if got[0] != want[0] or got[1] != want[1]:
            raise OracleMismatch("eigenvector equation failed in the quadratic extension")
        if vec[0].is_zero() and vec[1].is_zero():
            raise OracleMismatch("degenerate eigenvector")
        lines.append(vec)
    # both lines differ by t - t_conj = charpoly'(t); its norm is -disc != 0
    gap = (t - t_conj).norm()
    if gap.is_zero():
        raise OracleMismatch("separability certificate contradicts a vanishing root gap")
    return lines


@dataclass(frozen=True)
class TotalFixedReport:
    """Total fixed-point count on both routes, each n times its per-fiber
    count, with the certificate of b's reduced characteristic polynomial."""

    n: int
    structured: CountResult
    brute: CountResult
    line_count: int | None
    certificate: EllipticCertificate

    @property
    def per_fiber(self) -> int:
        return self.structured.count

    @property
    def total(self) -> int:
        return self.n * self.structured.count

    def summary(self, route: str) -> dict:
        """One route's block of the report: "structured" or "brute"."""
        res = {"structured": self.structured, "brute": self.brute}[route]
        return {
            "n": self.n,
            "per_fiber": res.count,
            "total": self.n * res.count,
            "route": route,
            "stable": res.stable,
            "projective_lines_checked": self.line_count is not None,
            "projective_line_count": self.line_count,
        }


def total_fixed_points(alg: DivisionAlgebra, b: DElem, g, m: int) -> TotalFixedReport:
    """n times the per-fiber count for the twisted action built from b and g.

    The fiber count is the number of lattice-frame cosets h with
    h^{-1} (g_b) h g in pi^Z K_m, where g_b is the companion matrix of the
    reduced characteristic polynomial of b.  b is certified once, and both
    counting routes run on that one g_b; OracleMismatch is raised when they
    disagree.  When the characteristic polynomial is separable the
    projective fixed lines are found as well, and their number reported.
    """
    pol = alg.reduced_charpoly(b)
    cert = regular_elliptic_certify(pol)
    g_b = companion(alg.small, pol)
    structured = count_structured(g_b, g, m, cert=cert)
    brute = count_brute(g_b, g, m)
    if structured.count != brute.count:
        raise OracleMismatch(f"structured total {alg.n * structured.count} "
                             f"!= brute-force total {alg.n * brute.count}")
    line_count = None
    if alg.n == 2 and cert.separable:
        line_count = len(projective_fixed_points(alg, b, pol, cert))
    return TotalFixedReport(n=alg.n, structured=structured, brute=brute,
                            line_count=line_count, certificate=cert)

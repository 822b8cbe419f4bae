"""Exact cyclotomic numbers: Q(zeta_N) with coordinates mod Phi_N.

Values are stored as tuples of length phi(N): coordinates on 1, zeta, ...,
zeta^(phi(N)-1) after reduction mod the N-th cyclotomic polynomial, so
equality is decidable by tuple comparison.  Phi_N has integer coefficients
and is monic, so coordinates given as ints stay ints; Fractions are kept as
given.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd

from .errors import CapExceeded, PreconditionError

CONDUCTOR_CAP = 10_000


def _divmod_monic(a: list, b: tuple) -> tuple[list, list]:
    """Quotient and remainder of a by the monic b, coefficients low degree first.

    Only the nonzero coefficients of b are visited: most of Phi_N's are zero
    when N has a repeated prime factor.
    """
    rem = list(a)
    d = len(b) - 1
    terms = [(i, bi) for i, bi in enumerate(b) if bi]
    quo = [0] * (len(rem) - d)
    for k in range(len(quo) - 1, -1, -1):
        c = quo[k] = rem[k + d]
        if c:
            for i, bi in terms:
                rem[k + i] -= c * bi
    return quo, rem[:d]


@lru_cache(maxsize=None)
def cyclotomic_poly(n: int) -> tuple[int, ...]:
    """Integer coefficients of Phi_n, low degree first (x^n-1 = prod Phi_d)."""
    if n > CONDUCTOR_CAP:
        raise CapExceeded(f"conductor {n} exceeds cap {CONDUCTOR_CAP}")
    num = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            num, rem = _divmod_monic(num, cyclotomic_poly(d))
            assert not any(rem), "non-exact cyclotomic division"
    return tuple(num)


@lru_cache(maxsize=None)
def _phi(n: int) -> int:
    return len(cyclotomic_poly(n)) - 1


@lru_cache(maxsize=None)
def _mu_over_phi(d: int) -> Fraction:
    """mu(d)/phi(d): Tr(zeta^j)/phi(N) for zeta^j of order d.

    mu(d) is the sum of the primitive d-th roots of unity, which is minus
    the subleading coefficient of Phi_d.
    """
    return Fraction(-cyclotomic_poly(d)[-2], _phi(d))


class Cyclotomic:
    """An element of Q(zeta_N).  Immutable; arithmetic returns new objects."""

    __slots__ = ("N", "coords")

    def __init__(self, N: int, coords):
        d = _phi(N)
        cs = list(coords)
        if len(cs) > d:
            cs = _reduce_mod_phi(N, cs)
        cs += [0] * (d - len(cs))
        self.N = N
        self.coords = tuple(cs)

    # -- constructors ----------------------------------------------------------

    @staticmethod
    def zero(N: int = 1) -> "Cyclotomic":
        return Cyclotomic(N, [])

    @staticmethod
    def from_rational(x, N: int = 1) -> "Cyclotomic":
        return Cyclotomic(N, [x])

    # -- structure -------------------------------------------------------------

    def lift(self, M: int) -> "Cyclotomic":
        """Rewrite in Q(zeta_M); requires N | M."""
        if M == self.N:
            return self
        if M % self.N:
            raise PreconditionError(f"{self.N} does not divide {M}")
        k = M // self.N
        out = [0] * ((_phi(self.N) - 1) * k + 1)
        for j, c in enumerate(self.coords):
            if c:
                out[j * k] += c
        return Cyclotomic(M, out)

    @staticmethod
    def _common(a: "Cyclotomic", b: "Cyclotomic"):
        if a.N == b.N:
            return a, b
        M = a.N * b.N // gcd(a.N, b.N)
        return a.lift(M), b.lift(M)

    # -- arithmetic --------------------------------------------------------------

    def __add__(self, other):
        other = _coerce(other, self.N)
        a, b = Cyclotomic._common(self, other)
        return Cyclotomic(a.N, [x + y for x, y in zip(a.coords, b.coords)])

    __radd__ = __add__

    def __neg__(self):
        return Cyclotomic(self.N, [-c for c in self.coords])

    def __mul__(self, other):
        other = _coerce(other, self.N)
        a, b = Cyclotomic._common(self, other)
        n = len(a.coords) + len(b.coords) - 1
        out = [0] * n
        for i, x in enumerate(a.coords):
            if x:
                for j, y in enumerate(b.coords):
                    if y:
                        out[i + j] += x * y
        return Cyclotomic(a.N, out)

    __rmul__ = __mul__

    def conjugate(self) -> "Cyclotomic":
        """Complex conjugation zeta -> zeta^(N-1)."""
        out = [0] * self.N
        for j, c in enumerate(self.coords):
            if c:
                out[(-j) % self.N] += c
        return Cyclotomic(self.N, out)

    # -- predicates ----------------------------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.coords)

    def __eq__(self, other):
        if not isinstance(other, Cyclotomic):
            try:
                other = _coerce(other, self.N)
            except TypeError:
                return NotImplemented
        a, b = Cyclotomic._common(self, other)
        return a.coords == b.coords

    def __hash__(self):
        # the normalized trace Tr(x)/phi(N) is unchanged by lift and is x for rational x
        return hash(sum(c * _mu_over_phi(self.N // gcd(j, self.N))
                        for j, c in enumerate(self.coords) if c))

    def __repr__(self):
        return f"Cyc(N={self.N}, {list(self.coords)})"


def _reduce_mod_phi(N: int, coords: list) -> list:
    cs = list(coords)
    # first fold exponents mod N (zeta^N = 1), then divide by Phi_N
    if len(cs) > N:
        folded = [0] * N
        for j, c in enumerate(cs):
            folded[j % N] += c
        cs = folded
    return _divmod_monic(cs, cyclotomic_poly(N))[1]


def _coerce(x, N: int) -> Cyclotomic:
    if isinstance(x, Cyclotomic):
        return x
    if isinstance(x, (int, Fraction)):
        return Cyclotomic.from_rational(x, 1)
    raise TypeError(f"cannot coerce {type(x)} to Cyclotomic")

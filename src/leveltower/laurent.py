"""Exact Laurent polynomials over a finite field, the scalars of F_q((pi)).

A scalar is a finite dict {exponent: nonzero F_q code}.  Every scalar the
package builds from its input is a Laurent polynomial, and the matrix
routines only add, subtract, multiply and shift by powers of pi, so every
coefficient is known and none is ever dropped.  Where a unit has to be
inverted (`matrices.hnf`), the inverse is taken modulo a power of pi that
the lattice is known to contain, which is again a polynomial.
"""

from __future__ import annotations

from math import inf

from .errors import PreconditionError
from .fq import FqField


class Laurent:
    __slots__ = ("field", "coeffs")

    def __init__(self, field: FqField, coeffs: dict):
        self.field = field
        self.coeffs = {e: c for e, c in coeffs.items() if c}

    # -- constructors -----------------------------------------------------

    @staticmethod
    def zero(field: FqField) -> "Laurent":
        return Laurent(field, {})

    @staticmethod
    def one(field: FqField) -> "Laurent":
        return Laurent(field, {0: 1})

    @staticmethod
    def pi(field: FqField, k: int = 1) -> "Laurent":
        return Laurent(field, {k: 1})

    @staticmethod
    def const(field: FqField, code: int) -> "Laurent":
        return Laurent(field, {0: code})

    @staticmethod
    def from_digits(field: FqField, digits) -> "Laurent":
        return Laurent(field, dict(enumerate(digits)))

    # -- structure --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.coeffs

    def valuation(self):
        """pi-adic valuation; inf for zero."""
        return min(self.coeffs) if self.coeffs else inf

    def coeff(self, e: int) -> int:
        return self.coeffs.get(e, 0)

    def shift(self, k: int) -> "Laurent":
        return Laurent(self.field, {e + k: c for e, c in self.coeffs.items()})

    def frobenius(self, fp_times: int) -> "Laurent":
        """Apply the coefficientwise p^fp_times power map (fixes pi)."""
        f = self.field
        return Laurent(f, {e: f.frobenius(c, fp_times) for e, c in self.coeffs.items()})

    def reduce_mod(self, m: int) -> int:
        """Image in o/pi^m as a ChainRing code.  Requires integrality."""
        if self.coeffs and min(self.coeffs) < 0:
            raise PreconditionError("series has a pole, no image mod pi^m")
        q = self.field.q
        out = 0
        for e in range(m - 1, -1, -1):
            out = out * q + self.coeffs.get(e, 0)
        return out

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, Laurent):
            return NotImplemented
        f = self.field
        cs = dict(self.coeffs)
        for e, c in other.coeffs.items():
            cs[e] = f.add(cs.get(e, 0), c)
        return Laurent(f, cs)

    def __neg__(self):
        f = self.field
        return Laurent(f, {e: f.neg(c) for e, c in self.coeffs.items()})

    def __sub__(self, other):
        if not isinstance(other, Laurent):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, Laurent):
            return NotImplemented
        f = self.field
        cs = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                e = e1 + e2
                cs[e] = f.add(cs.get(e, 0), f.mul(c1, c2))
        return Laurent(f, cs)

    def scale(self, code: int) -> "Laurent":
        f = self.field
        return Laurent(f, {e: f.mul(c, code) for e, c in self.coeffs.items()})

    # -- comparison -------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Laurent):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.field.q, tuple(sorted(self.coeffs.items()))))

    def __repr__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for e in sorted(self.coeffs):
            c = self.coeffs[e]
            cs = str(c) if self.field.f == 1 else f"[{c}]"
            if e == 0:
                parts.append(cs)
            elif e == 1:
                parts.append(f"{cs}*pi" if c != 1 else "pi")
            else:
                parts.append(f"{cs}*pi^{e}" if c != 1 else f"pi^{e}")
        return " + ".join(parts)

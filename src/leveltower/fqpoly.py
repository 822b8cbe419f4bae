"""Dense polynomial arithmetic over an FqField.

Polynomials are lists of field codes, lowest degree first, no trailing zeros
after trim.  Factorization is by trial division over all monic polynomials of
at most half the degree, which is exact and fast at the degrees used here
(<= 6 over fields with at most a few dozen elements).
"""

from __future__ import annotations

from itertools import product

from .errors import PreconditionError
from .fq import FqField


def fp_trim(f):
    while f and not f[-1]:
        f = f[:-1]
    return list(f)


def fp_deg(f) -> int:
    f = fp_trim(f)
    return len(f) - 1 if f else -1


def fp_scale(field, c, f):
    if not c:
        return []
    return [field.mul(c, a) for a in f]


def fp_divmod(field, f, g):
    f, g = fp_trim(f), fp_trim(g)
    if not g:
        raise PreconditionError("division by zero polynomial")
    inv_lead = field.inv(g[-1])
    rem = list(f)
    quo = [0] * max(0, len(f) - len(g) + 1)
    while len(rem) >= len(g) and rem:
        c = field.mul(rem[-1], inv_lead)
        k = len(rem) - len(g)
        quo[k] = c
        for i, b in enumerate(g):
            rem[k + i] = field.sub(rem[k + i], field.mul(c, b))
        rem = fp_trim(rem)
    return fp_trim(quo), rem


def fp_monic(field, f):
    f = fp_trim(f)
    if not f:
        return f
    return fp_scale(field, field.inv(f[-1]), f)


def monic_polys(field: FqField, deg: int):
    """All monic polynomials of exactly the given degree."""
    for tail in product(range(field.q), repeat=deg):
        yield list(tail) + [1]


def factor(field: FqField, f):
    """Full factorization of a nonzero polynomial by trial division.

    Returns (unit_code, [(monic irreducible, multiplicity), ...]) sorted by
    (degree, coefficient tuple).
    """
    f = fp_trim(f)
    if not f:
        raise PreconditionError("cannot factor the zero polynomial")
    unit = f[-1]
    f = fp_monic(field, f)
    out = {}
    d = 1
    while fp_deg(f) > 0:
        if 2 * d > fp_deg(f):
            out[tuple(f)] = out.get(tuple(f), 0) + 1
            break
        for cand in monic_polys(field, d):
            if fp_deg(f) < d:
                break
            quo, rem = fp_divmod(field, f, cand)
            if not rem:
                # candidate divides; it is irreducible because all smaller
                # degrees were exhausted first
                mult = 0
                while not rem:
                    f = quo
                    mult += 1
                    if fp_deg(f) < d:
                        break
                    quo, rem = fp_divmod(field, f, cand)
                out[tuple(cand)] = out.get(tuple(cand), 0) + mult
        d += 1
    return unit, sorted(((list(k), v) for k, v in out.items()),
                        key=lambda kv: (len(kv[0]), kv[0]))

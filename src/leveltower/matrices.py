"""Matrices over F = F_Q((pi)): exact small-matrix linear algebra, column
Hermite reduction of lattice bases, and elementary divisor exponents.

Matrices are tuples of row tuples of exact Laurent entries.  Lattices are
spanned by matrix columns; the canonical basis is upper triangular with
diagonal pi^(a_i) and above-diagonal entries reduced mod the diagonal of
their row.  Determinants and characteristic polynomials are the Leibniz
expansions of `chain`, over Laurent arithmetic, and both normal forms rest
on them: `smith_exponents` reads the elementary divisors off the least
valuations of the k x k minors, and `hnf` eliminates modulo one power of pi
above the determinant, so no step inverts a unit as a power series.
"""

from __future__ import annotations

from itertools import combinations
from math import inf
from operator import add, mul, neg

from .chain import leibniz_charpoly, leibniz_det
from .errors import PreconditionError
from .fq import FqField
from .laurent import Laurent


def mat_identity(field: FqField, n: int):
    one, zero = Laurent.one(field), Laurent.zero(field)
    return tuple(tuple(one if i == j else zero for j in range(n)) for i in range(n))


def mat_shift(A, k: int):
    """Multiply by pi^k entrywise."""
    return tuple(tuple(a.shift(k) for a in row) for row in A)


def mat_mul(A, B):
    n, mid, m = len(A), len(B), len(B[0])
    out = []
    for i in range(n):
        row = []
        for j in range(m):
            acc = None
            for t in range(mid):
                term = A[i][t] * B[t][j]
                acc = term if acc is None else acc + term
            row.append(acc)
        out.append(tuple(row))
    return tuple(out)


def det(A) -> Laurent:
    return leibniz_det(A, add, mul, neg, Laurent.zero(A[0][0].field))


def adjugate(A):
    """Transpose of cofactors; A * adj(A) = det(A) * I exactly."""
    n = len(A)
    field = A[0][0].field
    if n == 1:
        return ((Laurent.one(field),),)
    out = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            minor = tuple(tuple(A[r][c] for c in range(n) if c != j)
                          for r in range(n) if r != i)
            cof = det(minor)
            if (i + j) % 2:
                cof = -cof
            out[j][i] = cof
    return tuple(tuple(row) for row in out)


def charpoly(A):
    """Coefficients of det(T*I - A), lowest degree first, length n+1, monic."""
    field = A[0][0].field
    return leibniz_charpoly(A, add, mul, neg, Laurent.zero(field), Laurent.one(field))


def companion(field: FqField, coeffs) -> tuple:
    """Companion matrix of a monic polynomial given low-first over Laurent."""
    n = len(coeffs) - 1
    if n < 1 or not (coeffs[-1] == Laurent.one(field)):
        raise PreconditionError("companion needs a monic polynomial of degree >= 1")
    zero, one = Laurent.zero(field), Laurent.one(field)
    rows = []
    for i in range(n):
        row = [zero] * n
        if i > 0:
            row[i - 1] = one
        row[n - 1] = -coeffs[i]
        rows.append(tuple(row))
    return tuple(rows)


def _mod(x: Laurent, N: int) -> Laurent:
    """The terms of x below pi^N: its image in o/pi^N for integral x."""
    return Laurent(x.field, {e: c for e, c in x.coeffs.items() if e < N})


def _unit_inverse(u: Laurent, N: int) -> Laurent:
    """The inverse of a unit u of o modulo pi^N, solved digit by digit."""
    f = u.field
    c0 = f.inv(u.coeff(0))
    digits = [c0]
    for e in range(1, N):
        acc = 0
        for j in range(1, e + 1):
            acc = f.add(acc, f.mul(u.coeff(j), digits[e - j]))
        digits.append(f.mul(f.neg(acc), c0))
    return Laurent.from_digits(f, digits)


def hnf(columns):
    """Canonical column-Hermite basis of the lattice spanned by `columns`.

    Input: a list of length-n column tuples (at least n of them, full rank).
    Output: an n x n upper triangular matrix (tuple of rows) with diagonal
    pi^(a_i) and the entry (i, j), j > i, supported on exponents < a_i.

    The form commutes with scaling by pi^t, so the columns are first scaled
    to be integral with an entry of valuation 0.  With D the least
    valuation of a maximal minor, the lattice then contains pi^D o^n, so the
    elimination runs in o/pi^N, N = D + 1, where a unit inverse is a
    polynomial of degree < N.  Taking N = D + 1 rather than D keeps what the
    placed columns add to a later pivot row above that row's exponent, so
    each pivot is found among the columns not yet placed.
    """
    n = len(columns[0])
    field = columns[0][0].field
    low = min(x.valuation() for c in columns for x in c)
    if low == inf:
        raise PreconditionError("columns do not have full rank")
    cols = [[x.shift(-low) for x in c] for c in columns]
    D = min(det(tuple(tuple(cols[j][i] for j in pick) for i in range(n))).valuation()
            for pick in combinations(range(len(cols)), n))
    if D == inf:
        raise PreconditionError("columns do not have full rank")
    N = D + 1
    cols = [[_mod(x, N) for x in c] for c in cols]
    placed = [None] * n
    diag_exp = [0] * n
    for i in range(n - 1, -1, -1):
        best = min((c for c in cols if not c[i].is_zero()), key=lambda c: c[i].valuation())
        cols.remove(best)
        a = best[i].valuation()
        # normalize the pivot column so its pivot entry is exactly pi^a
        w = _unit_inverse(best[i].shift(-a), N - a)
        best = [_mod(x * w, N) for x in best[:i]] + [Laurent.pi(field, a)] + best[i + 1:]
        placed[i], diag_exp[i] = best, a
        for c in cols:
            if not c[i].is_zero():
                factor = c[i].shift(-a)
                for r in range(i):
                    c[r] = _mod(c[r] - factor * best[r], N)
                c[i] = Laurent.zero(field)
    # above-diagonal reduction, exact: each step subtracts an integral
    # multiple of a placed column
    for j in range(n):
        col = placed[j]
        for i in range(j - 1, -1, -1):
            carry = Laurent(field, {e: c for e, c in col[i].coeffs.items() if e >= diag_exp[i]})
            if not carry.is_zero():
                factor = carry.shift(-diag_exp[i])
                for r in range(i + 1):
                    col[r] = col[r] - factor * placed[i][r]
    return tuple(tuple(placed[j][i].shift(low) if j >= i else Laurent.zero(field)
                       for j in range(n)) for i in range(n))


def smith_exponents(A) -> list:
    """Elementary divisor exponents of an integral full-rank matrix, ascending.

    With d_k the least valuation of a k x k minor (d_0 = 0), the k-th
    exponent is d_k - d_(k-1).
    """
    n = len(A)
    if any(x.valuation() < 0 for row in A for x in row):
        raise PreconditionError("matrix is not integral")
    top = det(A).valuation()
    if top == inf:
        raise PreconditionError("matrix is singular, no elementary divisors")
    d = [0]
    for k in range(1, n):
        d.append(min(det(tuple(tuple(A[r][c] for c in cs) for r in rs)).valuation()
                     for rs in combinations(range(n), k) for cs in combinations(range(n), k)))
    d.append(top)
    return [d[k] - d[k - 1] for k in range(1, n + 1)]


def mat_reduce_mod(A, m: int):
    """Entrywise image in (o/pi^m), ChainRing int codes."""
    return tuple(tuple(x.reduce_mod(m) for x in row) for row in A)

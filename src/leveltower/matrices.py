"""Matrices over F = F_Q((pi)): exact small-matrix linear algebra, column
Hermite reduction of lattice bases, and elementary divisor exponents.

Matrices are tuples of row tuples of Laurent entries.  Lattices are spanned
by matrix columns; the canonical basis is upper triangular with diagonal
pi^(a_i) and above-diagonal entries reduced mod the diagonal of their row.
Determinants and characteristic polynomials are the Leibniz expansions of
`chain`, over Laurent arithmetic.
"""

from __future__ import annotations

from math import inf
from operator import add, mul, neg

from .chain import leibniz_charpoly, leibniz_det
from .errors import PrecisionError, PreconditionError
from .fq import FqField
from .laurent import Laurent

WORK_PREC = 32


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


def _exactify_below(x: Laurent, bound: int) -> Laurent:
    """Rebuild x from its digits at exponents < bound as an exact series."""
    if not x.known_to(bound):
        raise PrecisionError("cannot canonicalize: precision below reduction bound")
    return Laurent(x.field, {e: c for e, c in x.coeffs.items() if e < bound})


def hnf(columns, work_prec: int = WORK_PREC):
    """Canonical column-Hermite basis of the lattice spanned by `columns`.

    Input: a list of length-n column tuples (at least n of them, full rank).
    Output: an n x n upper triangular matrix (tuple of rows) with diagonal
    pi^(a_i) and the entry (i, j), j > i, supported on exponents < a_i.
    Entries of the result are exact.
    """
    n = len(columns[0])
    cols = [list(c) for c in columns]
    placed = [None] * n
    for i in range(n - 1, -1, -1):
        best = None
        best_v = inf
        for c in cols:
            x = c[i]
            if x.is_zero():
                if not x.exact and (x.prec is None or x.prec < work_prec // 2):
                    raise PrecisionError("pivot entry vanishes at precision, rank unclear")
                continue
            v = x.valuation()
            if v < best_v:
                best_v = v
                best = c
        if best is None:
            raise PreconditionError(f"columns do not have full rank at row {i}")
        cols.remove(best)
        pivot = best[i]
        # normalize the pivot column so its leading entry is exactly pi^a
        unit_inv = pivot.shift(-best_v).inverse(work_prec)
        best = [x * unit_inv for x in best]
        best[i] = Laurent.pi(pivot.field, best_v)
        placed[i] = best
        for c in cols:
            if not c[i].is_zero():
                factor = c[i].shift(-best_v)
                for r in range(n):
                    c[r] = c[r] - factor * best[r]
                c[i] = Laurent.zero(pivot.field)
    # above-diagonal reduction, top rows already triangular
    diag_exp = [placed[i][i].valuation() for i in range(n)]
    for j in range(n):
        col = placed[j]
        for i in range(j - 1, -1, -1):
            a_i = diag_exp[i]
            x = col[i]
            if x.is_zero():
                continue
            carry = Laurent(x.field, {e: c for e, c in x.coeffs.items() if e >= a_i})
            if not carry.is_zero():
                factor = carry.shift(-a_i)
                for r in range(i + 1):
                    col[r] = col[r] - factor * placed[i][r]
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            x = placed[j][i]
            if i == j:
                row.append(Laurent.pi(x.field, diag_exp[i]))
            elif j < i:
                row.append(Laurent.zero(x.field))
            else:
                row.append(_exactify_below(x, diag_exp[i]))
        rows.append(tuple(row))
    return tuple(rows)


def smith_exponents(A) -> list:
    """Elementary divisor exponents of an integral full-rank matrix, ascending."""
    n = len(A)
    M = [list(row) for row in A]
    for row in M:
        for x in row:
            if not x.is_zero() and x.valuation() < 0:
                raise PreconditionError("matrix is not integral")
    out = []
    size = n
    while size > 0:
        best = None
        best_v = inf
        for i in range(size):
            for j in range(size):
                x = M[i][j]
                if not x.is_zero():
                    v = x.valuation()
                    if v < best_v:
                        best_v, best = v, (i, j)
        if best is None:
            raise PreconditionError("matrix is singular, no elementary divisors")
        bi, bj = best
        M[0], M[bi] = M[bi], M[0]
        for row in M:
            row[0], row[bj] = row[bj], row[0]
        piv = M[0][0]
        piv_inv = piv.inverse(WORK_PREC)
        for j in range(1, size):
            if not M[0][j].is_zero():
                f = M[0][j] * piv_inv
                for i in range(size):
                    M[i][j] = M[i][j] - f * M[i][0]
        for i in range(1, size):
            if not M[i][0].is_zero():
                f = M[i][0] * piv_inv
                for j in range(size):
                    M[i][j] = M[i][j] - f * M[0][j]
        out.append(best_v)
        M = [row[1:] for row in M[1:]]
        size -= 1
    return sorted(out)


def mat_reduce_mod(A, m: int):
    """Entrywise image in (o/pi^m), ChainRing int codes."""
    return tuple(tuple(x.reduce_mod(m) for x in row) for row in A)

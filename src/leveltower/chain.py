"""The chain ring o/pi^m = F_q[pi]/(pi^m) with int-encoded elements, plus small
matrix/vector helpers over it.

`ChainRing.echelon` is the package's one elimination over o/pi^m; it gives
`strata` its canonical labels, `mat_inv` its inverses and `counting` its
kernels over F_q.  It works on whole rows of the ring's tables: the pivot
column is scaled by one row of the multiplication table, and a column with
entry f at the pivot row is reduced in one pass over f times the negated
pivot column, with no method call per entry.

An element is an int in [0, q^m) whose base-q digits are F_q-codes of the
pi-adic coefficients, lowest first.  Addition is digitwise (no carries),
multiplication is truncated convolution; both are table-backed at desk scale.

`leibniz_det` and `leibniz_charpoly` are the package's one determinant and
characteristic polynomial, over any commutative ring given by its
operations; `ChainRing` and `matrices` (Laurent entries) both call them.
Sizes are desk scale (at most 7, the discriminant's Sylvester matrix for
n = 4), where Leibniz expansion is exact and cheap.
"""

from __future__ import annotations

from functools import cache
from itertools import combinations, permutations, product

from .errors import CapExceeded, PreconditionError
from .fq import FqField

_TABLE_CAP = 729  # build full mul tables up to this ring size


@cache
def _signed_permutations(n: int):
    """(even, odd): the permutations of range(n) split by parity."""
    even, odd = [], []
    for perm in permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        (odd if inversions % 2 else even).append(perm)
    return even, odd


def leibniz_det(M, add, mul, neg, zero):
    """Determinant of a square matrix with n >= 1 by signed-permutation expansion.

    Sizes 1 and 2 are written out: the unit-group scans call them per matrix.
    """
    n = len(M)
    if n == 1:
        return M[0][0]
    if n == 2:
        return add(mul(M[0][0], M[1][1]), neg(mul(M[0][1], M[1][0])))
    sums = []
    for perms in _signed_permutations(n):
        total = zero
        for perm in perms:
            term = M[0][perm[0]]
            for i in range(1, n):
                term = mul(term, M[i][perm[i]])
            total = add(total, term)
        sums.append(total)
    return add(sums[0], neg(sums[1]))


def leibniz_charpoly(M, add, mul, neg, zero, one):
    """Coefficients of det(T*I - M), lowest first, length n+1, monic.

    The T^(n-k) coefficient is (-1)^k times the sum of the principal k x k
    minors of M.
    """
    n = len(M)
    coeffs = [one]
    for k in range(1, n + 1):
        total = zero
        for rows in combinations(range(n), k):
            minor = tuple(tuple(M[i][j] for j in rows) for i in rows)
            total = add(total, leibniz_det(minor, add, mul, neg, zero))
        coeffs.append(neg(total) if k % 2 else total)
    return coeffs[::-1]


class ChainRing:
    _cache: dict[tuple, "ChainRing"] = {}

    def __new__(cls, field: FqField, m: int):
        key = (field.p, field.f, field.modulus, m)
        if key in cls._cache:
            return cls._cache[key]
        if m < 1:
            raise PreconditionError("m must be >= 1")
        # q >= 2, so q^m > _TABLE_CAP once m reaches its bit length: refuse before the power
        if m >= _TABLE_CAP.bit_length() or field.q ** m > _TABLE_CAP:
            raise CapExceeded(
                f"chain ring size q^m = {field.q}^{m} exceeds desk-scale table cap {_TABLE_CAP}")
        self = super().__new__(cls)
        self.field, self.m = field, m
        self.q = field.q
        self.size = field.q ** m
        self._build()
        cls._cache[key] = self
        return self

    def digits(self, a: int) -> list[int]:
        out = []
        for _ in range(self.m):
            out.append(a % self.q)
            a //= self.q
        return out

    def undigits(self, ds) -> int:
        a = 0
        for d in reversed(list(ds)[: self.m]):
            a = a * self.q + d
        return a

    def _build(self):
        f, q, m, size = self.field, self.q, self.m, self.size
        add = [[0] * size for _ in range(size)]
        mul = [[0] * size for _ in range(size)]
        digs = [self.digits(a) for a in range(size)]
        for a in range(size):
            da = digs[a]
            for b in range(a, size):
                db = digs[b]
                s = self.undigits([f.add(x, y) for x, y in zip(da, db)])
                add[a][b] = add[b][a] = s
                conv = [0] * m
                for i, x in enumerate(da):
                    if x:
                        for j in range(m - i):
                            y = db[j]
                            if y:
                                conv[i + j] = f.add(conv[i + j], f.mul(x, y))
                p = self.undigits(conv)
                mul[a][b] = mul[b][a] = p
        self._add, self._mul = add, mul
        self._neg = [self.undigits([f.neg(x) for x in digs[a]]) for a in range(size)]
        inv = [None] * size
        for a in range(size):
            if digs[a][0]:
                for b in range(size):
                    if mul[a][b] == 1:
                        inv[a] = b
                        break
        self._inv = inv

    def add(self, a, b):
        return self._add[a][b]

    def sub(self, a, b):
        return self._add[a][self._neg[b]]

    def neg(self, a):
        return self._neg[a]

    def mul(self, a, b):
        return self._mul[a][b]

    def is_unit(self, a) -> bool:
        return a % self.q != 0

    # -- vectors (tuples) and matrices (row-major tuples of tuples) ------------

    def vadd(self, v, w):
        add = self._add
        return tuple(add[a][b] for a, b in zip(v, w))

    def vscale(self, c, v):
        mul = self._mul
        return tuple(mul[c][a] for a in v)

    def matvec(self, M, v):
        add, mul = self._add, self._mul
        out = []
        for row in M:
            acc = 0
            for a, b in zip(row, v):
                if a and b:
                    acc = add[acc][mul[a][b]]
            out.append(acc)
        return tuple(out)

    def matmul(self, A, B):
        n, k = len(A), len(B[0])
        add, mul = self._add, self._mul
        out = []
        for i in range(n):
            row = []
            Ai = A[i]
            for j in range(k):
                acc = 0
                for t in range(len(B)):
                    a, b = Ai[t], B[t][j]
                    if a and b:
                        acc = add[acc][mul[a][b]]
                row.append(acc)
            out.append(tuple(row))
        return tuple(out)

    def det(self, M):
        return leibniz_det(M, self.add, self.mul, self.neg, 0)

    def echelon(self, n: int, gens):
        """Greedy unit-pivot reduction of length-n columns.  Returns
        (pivot_rows, columns) or None when the span is not a free direct
        summand (a column is left nonzero with no unit entry)."""
        q, add, mul, neg, inv = self.q, self._add, self._mul, self._neg, self._inv
        cols = [g for g in gens if any(g)]
        pivots = []
        piv_cols = []
        for r in range(n):
            for k, c in enumerate(cols):
                if c[r] % q:
                    break
            else:
                continue
            hit = cols.pop(k)
            scale = mul[inv[hit[r]]]
            hit = [scale[x] for x in hit]
            neg_hit = [neg[x] for x in hit]
            for group in (cols, piv_cols):
                for k, c in enumerate(group):
                    if c[r]:
                        row = mul[c[r]]
                        group[k] = [add[a][row[b]] for a, b in zip(c, neg_hit)]
            pivots.append(r)
            piv_cols.append(hit)
        for c in cols:
            if any(c):
                return None
        return tuple(pivots), tuple(map(tuple, piv_cols))

    def mat_inv(self, M):
        """Inverse by `echelon` on the columns of M stacked over I: the column
        operations that turn M into I turn I into M^-1."""
        n = len(M)
        stacked = [tuple(M[i][j] for i in range(n)) + tuple(int(i == j) for i in range(n))
                   for j in range(n)]
        got = self.echelon(2 * n, stacked)
        if got is None or got[0] != tuple(range(n)):
            raise PreconditionError("matrix is not invertible")
        return tuple(tuple(col[n + i] for col in got[1]) for i in range(n))

    def all_vectors(self, n):
        return product(range(self.size), repeat=n)

    def charpoly(self, M):
        return leibniz_charpoly(M, self.add, self.mul, self.neg, 0, 1)

    def __repr__(self):
        return f"ChainRing(q={self.q}, m={self.m})"


_GL_CAP = 200_000
_gl_cache: dict[tuple, list] = {}


def gl_elements(ch: ChainRing, n: int):
    """All invertible n x n matrices over the residue ring o/pi (m = 1), in
    lexicographic order of their entries, cached.

    The scan has q^(n^2) candidates; anything past the cap raises, cached
    or not, so callers can fall back or refuse loudly.
    `counting._frame_count` lists the residue units with it.
    `groups.group_gl` is built as a closure from generators instead; the
    tests compare its element list with this one.
    """
    if ch.m != 1:
        raise PreconditionError("gl_elements lists units of the residue ring only")
    total = ch.size ** (n * n)
    if total > _GL_CAP:
        raise CapExceeded(f"unit group scan size {total} exceeds cap {_GL_CAP}")
    key = (ch.q, n)
    if key in _gl_cache:
        return _gl_cache[key]
    out = []
    for flat in product(range(ch.q), repeat=n * n):
        M = tuple(flat[i * n:(i + 1) * n] for i in range(n))
        if ch.is_unit(ch.det(M)):
            out.append(M)
    _gl_cache[key] = out
    return out

"""Boundary labels: free direct summands of (o/pi^m)^n, their enumeration,
the induced action of invertible matrices, and flags of nested labels.

A label of corank type h is a free rank-h direct summand A of (o/pi^m)^n,
held as its canonical form, the pair (pivots, cols) that
`ChainRing.echelon` returns: the unique generating matrix in reduced column
echelon form with unit pivots scaled to 1, pivot rows increasing, other
columns zero at pivot rows, and every entry lying strictly above a column's
pivot row a non-unit.  `echelon`, greedy unit-pivot reduction, reaches this
form from any generating set or proves the span is not a free direct
summand, so two generating sets span one label exactly when their echelon
forms are equal.  A label's rank is the length of its pivots.

The labels of one pivot pattern are a product of column choices: each
column's choices are listed once, as tuples, and every label of the
pattern is a tuple of those shared column tuples.

An invertible g fixes A exactly when g's images of A's generators have
A's echelon form: gA is a free direct summand of the same rank, and equal
canonical forms are equal spans.

Full flags are built, not searched for: a flag's top part B is a hyperplane
label, B is isomorphic to (o/pi^m)^(n-1) through its generators, and the
parts below B are the image of a full flag of (o/pi^m)^(n-1).  The carry
needs no elimination: B's generators are 1 and 0 on B's pivot rows, so a
carried canonical label has its own columns on those rows, and on the one
row left a sum of products that each hold a non-unit wherever the row lies
above the column's pivot.  That is the canonical form of the carried span.
A built flag is a flag by construction, so it is the plain tuple of its
labels.  So is the flag `flag_of_point` reads off a value table: each cut
is checked to be a label, and the cuts grow strictly.

Both censuses are sized from their closed forms before anything is built
(Honold and Landjev, Electron. J. Combin. 7 (2000)): q^((m-1)h(n-h)) [n h]_q
labels of rank h and q^((m-1)n(n-1)/2) [n]_q! full flags.  One above
LABEL_CAP or FLAG_CAP is refused with CapExceeded.
"""

from __future__ import annotations

from itertools import combinations, product
from operator import itemgetter

from .chain import ChainRing
from .errors import CapExceeded, NotAFlag, OracleMismatch, PreconditionError
from .fq import FqField, split_prime_power

LABEL_CAP = 200_000     # labels of one rank, per enumeration
FLAG_CAP = 1_500_000    # full flags, per enumeration


def describe(label) -> str:
    """`rank h label <(generator), ...>`, as `flag-of-point` reports a part."""
    pivots, cols = label
    gens = ["(" + ",".join(str(x) for x in col) + ")" for col in cols]
    return f"rank {len(pivots)} label <" + ", ".join(gens) + ">"


def _chain(q: int, m: int) -> ChainRing:
    return ChainRing(FqField(*split_prime_power(q)), m)


def _q_factorial(k: int, q: int) -> int:
    """[k]_q! = prod_{i=1..k} (q^i - 1)/(q - 1), the number of full flags of F_q^k."""
    out = 1
    for i in range(1, k + 1):
        out *= (q ** i - 1) // (q - 1)
    return out


def check_label_census(n: int, q: int, m: int, h: int) -> None:
    """CapExceeded when the rank-h labels of (o/pi^m)^n, 0 <= h <= n, are more
    than LABEL_CAP.

    Sized from the closed form, q^((m-1)h(n-h)) times the Gaussian binomial,
    so neither a label nor the chain ring o/pi^m is built.
    """
    # at least 2^(m h(n-h)) labels: past that bound, refuse without the closed form
    e = h * (n - h)
    if m * e >= LABEL_CAP.bit_length() or q ** ((m - 1) * e) * _q_factorial(n, q) // (
            _q_factorial(h, q) * _q_factorial(n - h, q)) > LABEL_CAP:
        raise CapExceeded(f"rank-{h} labels of (o/pi^{m})^{n} exceed cap {LABEL_CAP}")


def enumerate_summands(n: int, q: int, m: int, h: int):
    """All rank-h labels, via the canonical-form parametrization.

    For each increasing pivot-row tuple, a column's choices are its entries
    row by row: 1 at its pivot row, 0 at the other pivot rows, a non-unit
    above its pivot row and anything below it.  Each column's choices are
    listed once, and the pattern's labels are their product, so labels of
    one pivot pattern share their column tuples.
    """
    if not 0 <= h <= n:
        raise PreconditionError("rank out of range")
    ch = _chain(q, m)
    check_label_census(n, q, m, h)
    nonunits = [a for a in range(ch.size) if not ch.is_unit(a)]
    full = range(ch.size)
    out = []
    for pivots in combinations(range(n), h):
        columns = []
        for r in pivots:
            rows = [[1] if i == r else [0] if i in pivots else nonunits if i < r else full
                    for i in range(n)]
            columns.append(list(product(*rows)))
        out.extend((pivots, cols) for cols in product(*columns))
    return out


def strata_fixed_count(gbar, n: int, q: int, m: int, h: int) -> int:
    """Number of rank-h labels fixed by an invertible matrix over o/pi^m: those
    whose generators' images have the label's echelon form."""
    ch = _chain(q, m)
    if not ch.is_unit(ch.det(gbar)):
        raise PreconditionError("matrix is not invertible mod pi^m")
    return sum(ch.echelon(n, [ch.matvec(gbar, col) for col in A[1]]) == A
               for A in enumerate_summands(n, q, m, h))


def enumerate_flags(n: int, q: int, m: int) -> list:
    """All full flags (ranks 1, ..., n-1) of labels in (o/pi^m)^n, each the
    tuple of its labels in ascending rank, q^((m-1)n(n-1)/2) [n]_q! of them.

    Each flag is built once, from its top part B, a hyperplane label, and a
    full flag of (o/pi^m)^(n-1) carried into B by v -> sum_k v_k B.cols[k].
    Each column of the smaller labels is carried once per B.  B's generators
    are the identity at B's pivot rows, so a carried label A has A's columns
    on B's pivot rows and, on the other row e, entries sum_k c_k B.cols[k][e]
    whose terms are non-units whenever e lies above the carried pivot.  So
    the carried generators are the canonical form: the pair of B's pivot
    rows at A's pivots and the carried columns must itself be a label of
    A's rank, and one dict lookup per (B, A) checks it.  That proves every
    chain a flag: the carry is injective and linear, so the carried parts
    nest inside B, and a free direct summand of the ambient module that lies
    inside B is a free direct summand of B.  The parts are the label tuples
    `enumerate_summands` holds, shared between flags.
    """
    if n < 2:
        raise PreconditionError("empty rank signature")
    # at least 2^(m n(n-1)/2) flags: past that bound, refuse without the closed form
    e = n * (n - 1) // 2
    if m * e >= FLAG_CAP.bit_length() or q ** ((m - 1) * e) * _q_factorial(n, q) > FLAG_CAP:
        raise CapExceeded(f"full flags of (o/pi^{m})^{n} exceed cap {FLAG_CAP}")
    top = enumerate_summands(n, q, m, n - 1)
    if n == 2:
        return [(B,) for B in top]
    ch = _chain(q, m)
    labels = {A: A for h in range(1, n - 1) for A in enumerate_summands(n, q, m, h)}
    smaller = [A for h in range(1, n - 1) for A in enumerate_summands(n - 1, q, m, h)]
    position = {A: i for i, A in enumerate(smaller)}
    # a flag's parts, picked from [image of each smaller label] + [B]
    assemble = [itemgetter(*(position[A] for A in parts), len(smaller))
                for parts in enumerate_flags(n - 1, q, m)]
    columns = {col for _, cols in smaller for col in cols}
    patterns = {pivots for pivots, _ in smaller}
    out = []
    for B in top:
        basis = tuple(zip(*B[1]))   # basis[i][k] = B's generator k at coordinate i
        carried = {col: ch.matvec(basis, col) for col in columns}
        rows = {pivots: tuple(B[0][p] for p in pivots) for pivots in patterns}
        image = []
        for pivots, small_cols in smaller:
            got = labels.get((rows[pivots], tuple(map(carried.__getitem__, small_cols))))
            if got is None:
                raise OracleMismatch(f"a rank-{len(pivots)} label carried into a hyperplane "
                                     f"is not a label of rank {len(pivots)}")
            image.append(got)
        image.append(B)
        out.extend([pick(image) for pick in assemble])
    return out


def flag_of_point(values: dict, n: int, q: int, m: int) -> tuple:
    """Flag of the lower-tier cuts of a value table on (pi^-m o/o)^n.

    Keys are coordinate tuples of chain-ring codes and must cover the whole
    module (the zero vector may be omitted; its value is ignored).  A nonzero
    vector's value is its tier tuple, and x is strictly below y when
    tiers(x) < tiers(y) lexicographically, the rank-k stand-in for
    |x| < |y|^r holding at every r > 0.  Each strict lower cut, together
    with 0, must be a free direct summand or NotAFlag is raised; the flag is
    the tuple of the cuts in ascending rank, the full module included.  The
    cuts are labels and grow strictly, and a label inside a larger label is
    a free direct summand of it, so the tuple is a flag.
    """
    ch = _chain(q, m)
    # the module has size^n - 1 >= 2^n - 1 nonzero vectors: bound n by the
    # number of rows before forming the size or the zero vector
    if n > len(values).bit_length():
        raise PreconditionError(
            f"a value table of {len(values)} rows cannot cover (o/pi^{m})^{n}, q = {q}")
    zero = tuple([0] * n)
    table = {}
    for key, tiers in values.items():
        vec = tuple(key)
        if len(vec) != n or any(not 0 <= c < ch.size for c in vec):
            raise PreconditionError(f"vector {vec} is not in the module")
        if vec != zero:
            table[vec] = tuple(tiers)
    if len(table) != ch.size ** n - 1:
        raise PreconditionError(
            f"value table covers {len(table)} of {ch.size ** n - 1} nonzero vectors")
    if len({len(t) for t in table.values()}) > 1:
        raise PreconditionError("tier vectors must all have the same length")
    levels = sorted(set(table.values()))
    parts = []
    for cut in range(1, len(levels) + 1):
        allowed = set(levels[:cut])
        S = sorted(v for v, t in table.items() if t in allowed)
        got = ch.echelon(n, S)
        if got is None:
            raise NotAFlag(
                f"the cut below tier {levels[cut - 1]} does not span a free direct summand")
        # S and 0 lie in the free module `got` spans, so they fill it exactly
        # when closed
        if ch.size ** len(got[0]) != len(S) + 1:
            raise NotAFlag(
                f"the cut below tier {levels[cut - 1]} is not closed under the module operations")
        parts.append(got)
    return tuple(parts)

"""Boundary labels: free direct summands of (o/pi^m)^n, their enumeration,
the induced action of invertible matrices, and flags of nested labels.

A label of corank type h is a free rank-h direct summand A of (o/pi^m)^n.
Canonical form: the unique generating matrix in reduced column echelon form
with unit pivots scaled to 1, pivot rows increasing, other columns zero at
pivot rows, and every entry lying strictly above a column's pivot row a
non-unit.  `ChainRing.echelon`, greedy unit-pivot reduction, reaches this
form from any generating set or proves the span is not a free direct summand.

Full flags are built, not searched for: a flag's top part B is a hyperplane
label, B is isomorphic to (o/pi^m)^(n-1) through its generators, and the
parts below B are the image of a full flag of (o/pi^m)^(n-1).  A built flag
is a flag by construction, so it is the plain tuple of its labels.  So is
the flag `flag_of_point` reads off a value table: each cut is checked to be
a label, and the cuts grow strictly.

Both censuses are sized from their closed forms before anything is built
(Honold and Landjev, Electron. J. Combin. 7 (2000)): q^((m-1)h(n-h)) [n h]_q
labels of rank h and q^((m-1)n(n-1)/2) [n]_q! full flags.  One above
LABEL_CAP or FLAG_CAP is refused with CapExceeded.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations, product

from .chain import ChainRing
from .errors import CapExceeded, NotAFlag, OracleMismatch, PreconditionError
from .fq import FqField, split_prime_power


@dataclass(frozen=True)
class DirectSummand:
    """A free direct summand in canonical echelon form."""

    n: int
    q: int
    m: int
    pivots: tuple
    cols: tuple   # cols[k][i], generator k coordinate i

    @property
    def rank(self) -> int:
        return len(self.pivots)

    @cached_property
    def chain(self) -> ChainRing:
        return _chain(self.q, self.m)

    def coords(self, v):
        """Coordinates of v on the generators, or None when v is not in the label.

        Each generator is 1 at its own pivot row and 0 at the others', so the
        coordinate on generator k is what is left of v at its pivot row.
        """
        ch = self.chain
        w = list(v)
        cs = []
        for r, col in zip(self.pivots, self.cols):
            c = w[r]
            cs.append(c)
            if c:
                for i in range(self.n):
                    w[i] = ch.sub(w[i], ch.mul(c, col[i]))
        return None if any(w) else tuple(cs)

    def member(self, v) -> bool:
        return self.coords(v) is not None

    def key(self):
        return (self.pivots, self.cols)

    def describe(self) -> str:
        gens = ["(" + ",".join(str(x) for x in col) + ")" for col in self.cols]
        return f"rank {self.rank} label <" + ", ".join(gens) + ">"


LABEL_CAP = 200_000     # labels of one rank, per enumeration
FLAG_CAP = 1_500_000    # full flags, per enumeration


def _chain(q: int, m: int) -> ChainRing:
    return ChainRing(FqField(*split_prime_power(q)), m)


def _q_factorial(k: int, q: int) -> int:
    """[k]_q! = prod_{i=1..k} (q^i - 1)/(q - 1), the number of full flags of F_q^k."""
    out = 1
    for i in range(1, k + 1):
        out *= (q ** i - 1) // (q - 1)
    return out


_enum_cache: dict[tuple, list] = {}


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

    For each increasing pivot-row tuple, free entries are: anything at rows
    below a column's pivot, non-units at non-pivot rows above it, zero at
    pivot rows.
    """
    if not 0 <= h <= n:
        raise PreconditionError("rank out of range")
    key = (n, q, m, h)
    if key in _enum_cache:
        return _enum_cache[key]
    ch = _chain(q, m)
    check_label_census(n, q, m, h)
    nonunits = [a for a in range(ch.size) if not ch.is_unit(a)]
    full = list(range(ch.size))
    out = []
    for pivots in combinations(range(n), h):
        slots = []   # (col, row) in a fixed order
        choices = []
        for k, r in enumerate(pivots):
            for i in range(n):
                if i in pivots:
                    continue
                slots.append((k, i))
                choices.append(nonunits if i < r else full)
        for vals in product(*choices):
            cols = [[0] * n for _ in range(h)]
            for k, r in enumerate(pivots):
                cols[k][r] = 1
            for (k, i), v in zip(slots, vals):
                cols[k][i] = v
            out.append(DirectSummand(n=n, q=q, m=m, pivots=tuple(pivots),
                                     cols=tuple(tuple(c) for c in cols)))
    _enum_cache[key] = out
    return out


def strata_fixed_count(gbar, n: int, q: int, m: int, h: int) -> int:
    """Number of rank-h labels fixed by an invertible matrix over o/pi^m."""
    ch = _chain(q, m)
    if not ch.is_unit(ch.det(gbar)):
        raise PreconditionError("matrix is not invertible mod pi^m")
    count = 0
    for A in enumerate_summands(n, q, m, h):
        if all(A.member(ch.matvec(gbar, col)) for col in A.cols):
            count += 1
    return count


def enumerate_flags(n: int, q: int, m: int) -> list:
    """All full flags (ranks 1, ..., n-1) of labels in (o/pi^m)^n, each the
    tuple of its labels in ascending rank, q^((m-1)n(n-1)/2) [n]_q! of them.

    Each flag is built once, from its top part B, a hyperplane label, and a
    full flag of (o/pi^m)^(n-1) carried into B by v -> sum_k v_k B.cols[k].
    Each carried label is checked once per B to be a label of the same rank,
    and that proves every chain a flag: the carry is injective and linear,
    so the carried parts nest inside B, and a free direct summand of the
    ambient module that lies inside B is a free direct summand of B.  The
    parts are the label objects `enumerate_summands` holds.
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
    labels = {A.key(): A for h in range(1, n - 1) for A in enumerate_summands(n, q, m, h)}
    smaller = [A for h in range(1, n - 1) for A in enumerate_summands(n - 1, q, m, h)]
    # The flags below are carried by position in `smaller`: hashing a frozen
    # label hashes every coordinate of it.
    position = {id(A): i for i, A in enumerate(smaller)}
    below = [[position[id(A)] for A in parts] for parts in enumerate_flags(n - 1, q, m)]
    out = []
    for B in top:
        basis = tuple(zip(*B.cols))   # basis[i][k] = B.cols[k][i]
        image = []
        for A in smaller:
            got = ch.echelon(n, [ch.matvec(basis, col) for col in A.cols])
            if got not in labels:
                raise OracleMismatch(f"a rank-{A.rank} label carried into a hyperplane "
                                     f"is not a label of rank {A.rank}")
            image.append(labels[got])
        out.extend((*map(image.__getitem__, parts), B) for parts in below)
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
        pivots, cols = got
        A = DirectSummand(n=n, q=q, m=m, pivots=pivots, cols=cols)
        # S and 0 lie in the free module A, so they fill it exactly when closed
        if ch.size ** A.rank != len(S) + 1:
            raise NotAFlag(
                f"the cut below tier {levels[cut - 1]} is not closed under the module operations")
        parts.append(A)
    return tuple(parts)

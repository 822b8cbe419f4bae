"""Artinian coefficient rings: truncated F_Q[pi, u_*] with a tower of monogenic stages.

A ring is F_Q[pi, u_1..u_k, t_1..t_s] modulo (pi^M, u_i^(N_i), g_j(t_j)) where each
stage polynomial g_j is monic over the ring below it and all of its non-leading
coefficients are nilpotent (so every adjoined root is nilpotent and the ring stays
local with residue field F_Q).  Elements are kept in normal form on the monomial
basis pi^a * prod u_i^(b_i) * prod t_j^(c_j) with exponents below the bounds
(M, N_i, deg g_j).  Multiplication reduces out-of-bound monomials through cached
rewriting of t_j^(deg g_j) by the stage polynomials, which terminates because the
top generator's degree strictly drops at each rewrite.

Index invariant: a basis monomial's index is its exponent vector read in mixed
radix, sum e_k * stride_k, with pi the least and the newest generator the most
significant digit.  Adjoining a stage appends a digit above all others, so every
element of an ancestor ring keeps its indices in each extension and nothing is
ever re-keyed.  No table over the whole rank is built: exponent vectors are
decoded only for the indices arithmetic touches, and the product of two basis
monomials whose exponents stay in bound has index i + j.
"""

from __future__ import annotations

from .errors import NonExactDivision, PreconditionError
from .fq import FqField


class CoeffRing:
    """Local Artinian quotient ring with exact normal-form arithmetic."""

    def __init__(self, field: FqField, prec: int, u_orders=(), _stages=None):
        if prec < 1:
            raise PreconditionError("precision M must be >= 1")
        if any(n < 1 for n in u_orders):
            raise PreconditionError("nilpotency orders must be >= 1")
        self.field = field
        self.prec = prec
        self.u_orders = tuple(u_orders)
        # stage: (name, coeff dicts in THIS ring's index space, degree)
        self.stages = tuple(_stages or ())
        self._bounds = (prec,) + self.u_orders + tuple(d for (_, _, d) in self.stages)
        rank = 1
        for b in self._bounds:
            rank *= b
        self.rank = rank
        # mixed radix, first position (pi) fastest: index = sum e_i * stride_i
        strides = []
        s = 1
        for b in self._bounds:
            strides.append(s)
            s *= b
        self._strides = tuple(strides)
        # Packed exponent vectors: one w-bit field per generator, pi lowest.  A
        # field holds a sum of two in-bound exponents (at most 2b - 2) without
        # spilling, and adding _offset sets a field's top bit exactly when its
        # exponent reaches the bound, so `(key + _offset) & _high` tests a whole
        # product for being in bound at once.
        w = (2 * max(self._bounds)).bit_length() + 1
        half = 1 << (w - 1)
        self._shifts = tuple(w * k for k in range(len(self._bounds)))
        self._mask = (1 << w) - 1
        self._offset = sum((half - b) << sh for b, sh in zip(self._bounds, self._shifts))
        self._high = sum(half << sh for sh in self._shifts)
        self._packed = _PackedExponents(self._bounds, self._shifts)
        self._reduce_cache: dict[int, dict] = {}
        self._tpow_cache: dict[tuple, dict] = {}
        self._qpow_cache: dict[tuple, dict] = {}

    # -- constructors ---------------------------------------------------------

    @property
    def n_u(self) -> int:
        return len(self.u_orders)

    def zero(self) -> "RingElem":
        return RingElem(self, {})

    def one(self) -> "RingElem":
        return RingElem(self, {0: 1})

    def from_field(self, code: int) -> "RingElem":
        return RingElem(self, {0: code} if code else {})

    def from_int(self, n: int) -> "RingElem":
        return self.from_field(self.field.from_int(n))

    def _gen(self, pos: int) -> "RingElem":
        if self._bounds[pos] == 1:
            return self.zero()
        return RingElem(self, {self._strides[pos]: 1})

    def pi(self) -> "RingElem":
        return self._gen(0)

    def u(self, i: int) -> "RingElem":
        """The i-th formal nilpotent generator, 1-based."""
        if not 1 <= i <= self.n_u:
            raise PreconditionError(f"no formal generator u_{i}")
        return self._gen(i)

    def stage_gen(self, j: int) -> "RingElem":
        """The j-th tower generator, 1-based."""
        if not 1 <= j <= len(self.stages):
            raise PreconditionError(f"no stage generator #{j}")
        return self._gen(self.n_u + j)

    def random_element(self, rng, density: float = 0.4) -> "RingElem":
        d = {}
        for i in range(self.rank):
            if rng.random() < density:
                c = rng.randrange(self.field.q)
                if c:
                    d[i] = c
        return RingElem(self, d)

    # -- normal-form kernel -----------------------------------------------------

    def _unpack(self, key: int) -> list:
        """Exponent vector of a packed monomial."""
        return [(key >> sh) & self._mask for sh in self._shifts]

    def _exponents(self, idx: int) -> list:
        """Exponent vector of the basis monomial with index idx."""
        return self._unpack(self._packed[idx])

    def _reduce_monomial(self, key: int) -> dict:
        """Normal form of an out-of-bound monomial, given packed, as a coefficient dict."""
        hit = self._reduce_cache.get(key)
        if hit is not None:
            return hit
        es = self._unpack(key)
        if es[0] >= self.prec or any(e >= n for e, n in zip(es[1:], self.u_orders)):
            out: dict = {}
        else:
            # split off the topmost over-bound tower exponent
            base = 1 + self.n_u
            j = max(k for k in range(len(self.stages))
                    if es[base + k] >= self._bounds[base + k])
            e = es[base + j]
            rest = key - (e << self._shifts[base + j])
            if (rest + self._offset) & self._high:
                rest_dict = self._reduce_monomial(rest)
            else:
                rest_dict = {self._unpack_index(rest): 1}
            out = self._mul_dicts(self._theta_power(j, e), rest_dict)
        self._reduce_cache[key] = out
        return out

    def _unpack_index(self, key: int) -> int:
        """Index of an in-bound packed monomial."""
        return sum(e * st for e, st in zip(self._unpack(key), self._strides))

    def _theta_power(self, j: int, e: int) -> dict:
        """Normal form of t_j^e."""
        base = 1 + self.n_u
        d = self._bounds[base + j]
        if e < d:
            return {e * self._strides[base + j]: 1}
        key = (j, e)
        hit = self._tpow_cache.get(key)
        if hit is not None:
            return hit
        # t_j^d = -(sum of lower coefficients); stage coeffs are stored in this ring
        _, coeffs, deg = self.stages[j]
        neg = self.field.neg
        tail: dict = {}
        for i in range(deg):
            ci = coeffs[i]
            if not ci:
                continue
            shifted_pow = self._theta_power(j, i)
            for idx, c in self._mul_dicts(ci, shifted_pow).items():
                prev = tail.get(idx, 0)
                s = self.field.sub(prev, c)
                if s:
                    tail[idx] = s
                elif idx in tail:
                    del tail[idx]
        out = self._mul_dicts(self._theta_power(j, e - d), tail)
        self._tpow_cache[key] = out
        return out

    def _qpower_monomial(self, idx: int, q: int) -> dict:
        """Normal form of m^q for the basis monomial m with index idx."""
        key = (idx, q)
        hit = self._qpow_cache.get(key)
        if hit is not None:
            return hit
        es = self._exponents(idx)
        base = 1 + self.n_u
        if any(q * e >= b for e, b in zip(es[:base], self._bounds)):
            out: dict = {}
        else:
            out = {q * sum(e * st for e, st in zip(es[:base], self._strides)): 1}
            for j, e in enumerate(es[base:]):
                if e and out:
                    out = self._mul_dicts(out, self._theta_power(j, q * e))
        self._qpow_cache[key] = out
        return out

    def _mul_dicts(self, A: dict, B: dict) -> dict:
        if not A or not B:
            return {}
        if len(A) > len(B):
            A, B = B, A
        fmul, fadd = self.field.mul, self.field.add
        packed, offset, high = self._packed, self._offset, self._high
        reduce = self._reduce_monomial
        terms = [(j, cj, packed[j]) for j, cj in B.items()]
        out: dict = {}
        get = out.get
        for i, ci in A.items():
            pi = packed[i]
            po = pi + offset
            for j, cj, pj in terms:
                c = fmul(ci, cj)
                if (po + pj) & high:
                    for k, ck in reduce(pi + pj).items():
                        out[k] = fadd(get(k, 0), fmul(c, ck))
                else:
                    # in bound: no digit carries, so the index is the plain sum
                    k = i + j
                    out[k] = fadd(get(k, 0), c)
        return {k: c for k, c in out.items() if c}

    # -- misc -------------------------------------------------------------------

    def describe(self) -> dict:
        return {
            "field": self.field.describe(),
            "prec": self.prec,
            "u_orders": list(self.u_orders),
            "stages": [{"name": n, "degree": d,
                        "coeffs": [sorted(c.items()) for c in cs]}
                       for (n, cs, d) in self.stages],
            "rank": self.rank,
        }

    def __repr__(self):
        return (f"CoeffRing(q={self.field.q}, M={self.prec}, u={list(self.u_orders)}, "
                f"stages={[(n, d) for (n, _, d) in self.stages]}, rank={self.rank})")


class _PackedExponents(dict):
    """Memo index -> packed exponent vector, filled only for indices looked up."""

    __slots__ = ("bounds", "shifts")

    def __init__(self, bounds, shifts):
        super().__init__()
        self.bounds, self.shifts = bounds, shifts

    def __missing__(self, idx: int) -> int:
        key, r = 0, idx
        for b, sh in zip(self.bounds, self.shifts):
            r, e = divmod(r, b)
            key |= e << sh
        self[idx] = key
        return key


class RingElem:
    """Normal-form element of a CoeffRing.  Treat as immutable."""

    __slots__ = ("ring", "d")

    def __init__(self, ring: CoeffRing, d: dict):
        self.ring = ring
        self.d = d

    def _check(self, other) -> "RingElem":
        if isinstance(other, int):
            return self.ring.from_int(other)
        if not isinstance(other, RingElem) or other.ring is not self.ring:
            raise PreconditionError("operands live in different rings")
        return other

    def __add__(self, other):
        other = self._check(other)
        fadd = self.ring.field.add
        out = dict(self.d)
        for i, c in other.d.items():
            s = fadd(out.get(i, 0), c)
            if s:
                out[i] = s
            elif i in out:
                del out[i]
        return RingElem(self.ring, out)

    __radd__ = __add__

    def __neg__(self):
        fneg = self.ring.field.neg
        return RingElem(self.ring, {i: fneg(c) for i, c in self.d.items()})

    def __sub__(self, other):
        return self + (-self._check(other))

    def __rsub__(self, other):
        return self._check(other) - self

    def __mul__(self, other):
        other = self._check(other)
        return RingElem(self.ring, self.ring._mul_dicts(self.d, other.d))

    __rmul__ = __mul__

    def __pow__(self, e: int):
        if e < 0:
            return self.inverse() ** (-e)
        r = self.ring.one()
        b = self
        while e:
            if e & 1:
                r = r * b
            b = b * b
            e >>= 1
        return r

    def __eq__(self, other):
        if isinstance(other, int):
            other = self.ring.from_int(other)
        if not isinstance(other, RingElem) or other.ring is not self.ring:
            return NotImplemented
        return self.d == other.d

    def __hash__(self):
        return hash((id(self.ring), tuple(sorted(self.d.items()))))

    def __bool__(self):
        return bool(self.d)

    def is_zero(self) -> bool:
        return not self.d

    def is_unit(self) -> bool:
        # the ring is local with every non-1 basis monomial nilpotent
        return self.d.get(0, 0) != 0

    def is_nilpotent(self) -> bool:
        return self.d.get(0, 0) == 0

    def inverse(self) -> "RingElem":
        c = self.d.get(0, 0)
        if not c:
            raise PreconditionError("element is not a unit")
        ring = self.ring
        cinv = ring.from_field(ring.field.inv(c))
        y = ring.one() - cinv * self          # nilpotent
        acc, term = ring.one(), y
        guard = 0
        while term:
            acc = acc + term
            term = term * y
            guard += 1
            if guard > ring.rank * ring.prec + 2:
                raise AssertionError("inverse iteration failed to terminate")
        return cinv * acc

    def qpower(self, q: int) -> "RingElem":
        """self^q by Frobenius, for q a power of the characteristic p.

        The ring is commutative of characteristic p, so x -> x^q is a ring
        endomorphism: each term c*m maps to c^q * NF(m^q).
        """
        ring = self.ring
        p = ring.field.p
        t = q
        while t > 1 and t % p == 0:
            t //= p
        if q < 1 or t != 1:
            raise PreconditionError(f"q={q} is not a power of the characteristic {p}")
        fadd, fmul, fpow = ring.field.add, ring.field.mul, ring.field.pow
        out: dict = {}
        get = out.get
        for i, c in self.d.items():
            cq = fpow(c, q)
            for k, ck in ring._qpower_monomial(i, q).items():
                out[k] = fadd(get(k, 0), fmul(cq, ck))
        return RingElem(ring, {k: c for k, c in out.items() if c})

    def nf(self) -> "RingElem":
        """Re-normalize (drop stored zeros); idempotent by construction."""
        return RingElem(self.ring, {i: c for i, c in self.d.items() if c})

    def coords(self) -> list[int]:
        out = [0] * self.ring.rank
        for i, c in self.d.items():
            out[i] = c
        return out

    def __repr__(self):
        if not self.d:
            return "0"
        names = ["pi"] + [f"u{i+1}" for i in range(self.ring.n_u)] + \
                [n for (n, _, _) in self.ring.stages]
        parts = []
        for i in sorted(self.d):
            es = self.ring._exponents(i)
            mono = "*".join(f"{nm}^{e}" if e > 1 else nm
                            for nm, e in zip(names, es) if e)
            c = self.d[i]
            if mono:
                parts.append(mono if c == 1 else f"{c}*{mono}")
            else:
                parts.append(str(c))
        return " + ".join(parts)


def ring_extend(ring: CoeffRing, poly, name: str | None = None) -> tuple[CoeffRing, RingElem]:
    """Adjoin a root of a monic polynomial, returning (new ring, adjoined root).

    poly: coefficient list of RingElems of `ring`, low degree first.  The leading
    coefficient must be a unit (the polynomial is normalized to monic) and every
    lower coefficient must be nilpotent, which keeps the extension local and
    guarantees the new generator is nilpotent.
    """
    coeffs = [c if isinstance(c, RingElem) else ring.from_int(c) for c in poly]
    while coeffs and coeffs[-1].is_zero():
        coeffs.pop()
    if len(coeffs) < 2:
        raise PreconditionError("stage polynomial must have degree >= 1")
    lead = coeffs[-1]
    if not lead.is_unit():
        raise PreconditionError("stage polynomial needs a unit leading coefficient")
    if not (lead == ring.one()):
        li = lead.inverse()
        coeffs = [li * c for c in coeffs]
    deg = len(coeffs) - 1
    for c in coeffs[:-1]:
        if not c.is_nilpotent():
            raise PreconditionError(
                "stage would break locality: a non-leading coefficient is a unit")
    if deg == 1:
        # X + c already has its root in the ring, nothing to adjoin
        return ring, ring.zero() - coeffs[0]
    name = name or f"t{len(ring.stages) + 1}"
    # indices of `ring` are indices of the extension, so coefficients carry over as is
    stage = (name, tuple(c.d for c in coeffs[:-1]), deg)
    ext = CoeffRing(ring.field, ring.prec, ring.u_orders,
                    _stages=ring.stages + (stage,))
    root = ext.stage_gen(len(ext.stages))
    return ext, root


def convert(elem: RingElem, target: CoeffRing) -> RingElem:
    """Coerce an element of an ancestor ring into `target` (same field/prec/u tower)."""
    src = elem.ring
    if src is target:
        return elem
    if (src.field is not target.field or src.prec != target.prec
            or src.u_orders != target.u_orders
            or len(src.stages) > len(target.stages)):
        raise PreconditionError("element does not come from an ancestor ring")
    for (a, b) in zip(src.stages, target.stages):
        if a[0] != b[0] or a[2] != b[2]:
            raise PreconditionError("stage mismatch between rings")
    # the new generators are the most significant digits: every index is unchanged
    return RingElem(target, elem.d)


# -- polynomials over a CoeffRing (plain coefficient lists, low degree first) --

def poly_trim(f: list[RingElem]) -> list[RingElem]:
    f = list(f)
    while f and f[-1].is_zero():
        f.pop()
    return f


def poly_add(f, g):
    ring = (f or g)[0].ring
    n = max(len(f), len(g))
    z = ring.zero()
    return poly_trim([(f[i] if i < len(f) else z) + (g[i] if i < len(g) else z)
                      for i in range(n)])


def poly_scale(c: RingElem, f):
    return poly_trim([c * a for a in f])


def poly_mul(f, g):
    f, g = poly_trim(f), poly_trim(g)
    if not f or not g:
        return []
    ring = f[0].ring
    out = [ring.zero() for _ in range(len(f) + len(g) - 1)]
    for i, a in enumerate(f):
        if a.is_zero():
            continue
        for j, b in enumerate(g):
            if not b.is_zero():
                out[i + j] = out[i + j] + a * b
    return poly_trim(out)


def poly_eval(f, x: RingElem) -> RingElem:
    acc = x.ring.zero()
    for c in reversed(f):
        acc = acc * x + c
    return acc


def poly_compose(f, g):
    """f(g(T)) as a coefficient list."""
    if not f:
        return []
    ring = f[0].ring
    acc = [f[-1]]
    for c in reversed(f[:-1]):
        acc = poly_mul(acc, g)
        acc = poly_add(acc, [c])
    return acc


def poly_divide_exact(f, g) -> list[RingElem]:
    """Quotient f/g for polynomials over a CoeffRing; raises if division is not exact.

    Requires a unit leading coefficient on g.  A nonzero remainder indicates an
    implementation bug upstream, so the error carries the first offending
    coefficient as a witness.
    """
    f, g = poly_trim(f), poly_trim(g)
    if not g:
        raise ZeroDivisionError("division by the zero polynomial")
    ring = g[0].ring
    if not g[-1].is_unit():
        raise PreconditionError("divisor needs a unit leading coefficient")
    if not f:
        return []
    if len(f) < len(g):
        raise NonExactDivision("degree of dividend below divisor", remainder=f[0])
    inv = g[-1].inverse()
    rem = list(f)
    out = [ring.zero()] * (len(f) - len(g) + 1)
    for k in range(len(out) - 1, -1, -1):
        c = rem[len(g) - 1 + k] * inv
        out[k] = c
        if not c.is_zero():
            for i, gi in enumerate(g):
                rem[i + k] = rem[i + k] - c * gi
    for c in rem:
        if not c.is_zero():
            raise NonExactDivision("non-exact polynomial division", remainder=c)
    return poly_trim(out)

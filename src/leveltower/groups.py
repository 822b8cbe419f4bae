"""Finite groups as explicit element lists with a multiplication rule.

Two constructions are provided: the unit groups GL_n(o/pi^m) of the chain
ring, enumerated matrix by matrix, and the quotients of the quaternionic
unit group by pi^Z and a principal congruence level, realized by actual
division-algebra arithmetic rather than by an abstract presentation.
"""

import random
from functools import cached_property

from .chain import ChainRing, gl_elements
from .division import DivisionAlgebra
from .errors import CapExceeded, OracleMismatch, PreconditionError
from .formal import gl_order
from .fq import FqField, split_prime_power
from .laurent import Laurent

__all__ = ["FiniteGroup", "group_gl", "group_quaternion_quotient"]

GROUP_ORDER_CAP = 100_000


class FiniteGroup:
    """A finite group: hashable element labels plus a composition callable.

    The element list fixes a deterministic order; conjugacy classes are
    ordered by their smallest element index.  Construction spot-checks
    closure and associativity on random samples and locates the identity,
    so a malformed multiplication rule fails fast.
    """

    def __init__(self, elements, mul, name: str = "", meta=None):
        self.elements = tuple(elements)
        self.order = len(self.elements)
        self.index = {g: i for i, g in enumerate(self.elements)}
        if len(self.index) != self.order:
            raise PreconditionError("duplicate element labels")
        self.mul = mul
        self.name = name or f"group of order {self.order}"
        self.meta = dict(meta or {})
        self._spot_check()

    def imul(self, i: int, j: int) -> int:
        g = self.mul(self.elements[i], self.elements[j])
        try:
            return self.index[g]
        except KeyError:
            raise OracleMismatch(
                f"{self.name}: product of elements {i} and {j} left the element list")

    def _spot_check(self, samples: int = 40):
        rng = random.Random(0)
        n = self.order
        if n == 0:
            raise PreconditionError("a group needs at least one element")
        for _ in range(min(samples, n * n)):
            i, j, k = rng.randrange(n), rng.randrange(n), rng.randrange(n)
            ij = self.imul(i, j)
            if self.imul(ij, k) != self.imul(i, self.imul(j, k)):
                raise OracleMismatch(f"{self.name}: associativity failed at ({i},{j},{k})")
        _ = self.identity_index

    @cached_property
    def identity_index(self) -> int:
        probe = 0
        for e in range(self.order):
            if self.imul(e, probe) == probe and self.imul(probe, e) == probe:
                for other in range(self.order):
                    if self.imul(e, other) != other or self.imul(other, e) != other:
                        raise OracleMismatch(f"{self.name}: one-sided identity at {e}")
                return e
        raise OracleMismatch(f"{self.name}: no identity element")

    @cached_property
    def inverse(self):
        """inverse[i] = index of the inverse of element i.

        One walk x, x^2, ..., x^k = e fills in all of <x>: x^j and x^(k-j)
        are inverse, and two-sided since powers of x commute.
        """
        e = self.identity_index
        inv = [None] * self.order
        for i in range(self.order):
            if inv[i] is not None:
                continue
            powers = [e, i]
            while powers[-1] != e:
                if len(powers) > self.order:
                    raise OracleMismatch(f"{self.name}: powers of element {i} miss the identity")
                powers.append(self.imul(powers[-1], i))
            for j, x in enumerate(powers):
                inv[x] = powers[-1 - j]
        return tuple(inv)

    @cached_property
    def classes(self):
        """Conjugacy classes as sorted index tuples, ordered by first element."""
        inv = self.inverse
        seen = [False] * self.order
        out = []
        for i in range(self.order):
            if seen[i]:
                continue
            orbit = set()
            for x in range(self.order):
                orbit.add(self.imul(self.imul(x, i), inv[x]))
            cls = tuple(sorted(orbit))
            for j in cls:
                seen[j] = True
            out.append(cls)
        out.sort(key=lambda c: c[0])
        return tuple(out)

    @cached_property
    def class_of(self):
        lookup = [None] * self.order
        for ci, cls in enumerate(self.classes):
            for j in cls:
                lookup[j] = ci
        return tuple(lookup)

    @property
    def class_reps(self):
        return tuple(cls[0] for cls in self.classes)

    @property
    def class_sizes(self):
        return tuple(len(cls) for cls in self.classes)

    def element_order(self, i: int) -> int:
        e = self.identity_index
        k, cur = 1, i
        while cur != e:
            cur = self.imul(cur, i)
            k += 1
            if k > self.order:
                raise OracleMismatch(f"{self.name}: element {i} has unbounded order")
        return k

    @cached_property
    def exponent(self) -> int:
        from math import lcm
        out = 1
        for rep in self.class_reps:
            out = lcm(out, self.element_order(rep))
        return out


_gl_group_cache: dict = {}


def group_gl(n: int, q: int, m: int = 1, cap: int = GROUP_ORDER_CAP) -> FiniteGroup:
    """GL_n(o/pi^m) as an explicit group of chain-ring matrices."""
    expected = gl_order(n, q, m)
    if expected > cap:
        raise CapExceeded(f"|GL_{n}(o/pi^{m})| = {expected} exceeds the cap {cap}")
    key = (n, q, m)
    if key in _gl_group_cache:
        return _gl_group_cache[key]
    p, s = split_prime_power(q)
    ch = ChainRing(FqField(p, s), m)
    elements = gl_elements(ch, n, cap=max(ch.size ** (n * n), cap))
    if len(elements) != expected:
        raise OracleMismatch(
            f"enumerated {len(elements)} invertible matrices, formula gives {expected}")
    grp = FiniteGroup(elements, ch.matmul, name=f"GL_{n}(o/pi^{m}) q={q}",
                      meta={"kind": "gl", "n": n, "q": q, "m": m, "chain": ch})
    _gl_group_cache[key] = grp
    return grp


_quat_cache: dict = {}


def group_quaternion_quotient(q: int, k: int = 1) -> FiniteGroup:
    """The quaternionic unit quotient at level k, over the residue field F_q.

    Elements are cosets of pi^Z (1 + P^k) in the unit group of the n = 2
    division algebra, labeled (i, x) for level 1 and (i, x, y) for level 2,
    standing for (x + y*w) * w^i with x in F_{q^2} nonzero and y in F_{q^2}.
    The product is computed in the algebra and renormalized, so the group
    law is inherited rather than postulated.  Orders: 2(q^2-1) at level 1,
    2 q^2 (q^2-1) at level 2.
    """
    if k not in (1, 2):
        raise PreconditionError("only congruence levels 1 and 2 are supported")
    key = (q, k)
    if key in _quat_cache:
        return _quat_cache[key]
    alg = DivisionAlgebra(q, 2)
    big = alg.big
    Q2 = big.q
    w = alg.uniformizer()
    w_inv = alg.elem([Laurent.zero(big), Laurent.pi(big, -1)])

    def to_elem(label):
        if k == 1:
            i, x = label
            y = 0
        else:
            i, x, y = label
        unit = alg.elem([x, y])
        return unit * w if i else unit

    def normalize(d):
        vals = []
        for slot, c in enumerate(d.coords):
            if not c.is_zero():
                vals.append(2 * c.valuation() + slot)
        if not vals:
            raise PreconditionError("zero is not a unit coset")
        v = min(vals)
        u = d
        for _ in range(v):
            u = u * w_inv
        x = u.coords[0].coeff(0)
        if x == 0:
            raise OracleMismatch("renormalized unit has a non-unit leading slot")
        if k == 1:
            return (v % 2, x)
        return (v % 2, x, u.coords[1].coeff(0))

    def mul(a, b):
        return normalize(to_elem(a) * to_elem(b))

    if k == 1:
        labels = [(i, x) for i in (0, 1) for x in range(1, Q2)]
    else:
        labels = [(i, x, y) for i in (0, 1) for x in range(1, Q2) for y in range(Q2)]
    grp = FiniteGroup(labels, mul,
                      name=f"w^Z\\D_{q}^x/(1+P^{k})",
                      meta={"kind": "quaternion", "q": q, "k": k, "algebra": alg,
                            "uniformizer_label": (1, 1) if k == 1 else (1, 1, 0)})
    expected = 2 * (Q2 - 1) if k == 1 else 2 * Q2 * (Q2 - 1)
    if grp.order != expected:
        raise OracleMismatch(f"quaternion quotient order {grp.order}, expected {expected}")
    # w^2 = pi must land in the identity coset
    if normalize(w * w) != grp.elements[grp.identity_index]:
        raise OracleMismatch("w^2 does not reduce to the identity coset")
    _quat_cache[key] = grp
    return grp

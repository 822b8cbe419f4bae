"""Finite groups built exactly from generators.

Two constructions are provided: the unit groups GL_n(o/pi^m) of the chain
ring, as chain-ring matrices, and the quotient of the quaternionic unit
group by pi^Z and the level-1 congruence subgroup 1 + P, realized by actual
division-algebra arithmetic rather than by an abstract presentation.  Each
is the closure of its identity under a generating set, checked against its
order formula.  The closure keeps its products as one index permutation
per generator; every later product, conjugacy class and power is read off
those permutations, so the multiplication rule runs only during the closure
and nothing is sampled.
"""

from functools import cache, cached_property

from .chain import ChainRing
from .division import DivisionAlgebra
from .errors import CapExceeded, OracleMismatch, PreconditionError
from .formal import gl_order
from .fq import FqField, split_prime_power
from .laurent import Laurent

__all__ = ["FiniteGroup", "group_gl", "group_quaternion_quotient"]

GROUP_ORDER_CAP = 100_000


def _check_generator_order(identity, s, mul, order: int, name: str):
    """Raise unless some power s^k with k <= `order` is the identity."""
    cur = s
    for _ in range(order):
        if cur == identity:
            return
        cur = mul(cur, s)
    raise OracleMismatch(f"{name}: powers of a generator miss the identity")


class FiniteGroup:
    """A finite group: the closure of an identity under generators.

    The closure is built breadth-first by right multiplication, |G| |S|
    products for a generating set S, and must reach exactly `order`
    elements.  The elements are stored sorted; conjugacy classes are ordered
    by their smallest element index.  The inverse of g = s_1 ... s_k is
    read off the word as e s_k^-1 ... s_1^-1 through the inverted generator
    permutations, and every g g^-1 = e is checked with one more product, so
    a malformed multiplication rule fails at construction and a valid one
    costs |G| (|S| + 1) products.

    The closure's products are kept as one index permutation per generator,
    `right[s][i]` = index of elements[i] * s, and each element keeps its
    breadth-first parent, so it has a word in the generators.  Every later
    product is read off these permutations: the multiplication rule never
    runs after construction.
    """

    def __init__(self, identity, gens, mul, order: int, name: str = "", meta=None):
        self.name = name or f"group of order {order}"
        self.meta = dict(meta or {})
        gens = tuple(dict.fromkeys(gens))
        # found[t] is the t-th element reached,
        # parent[t] = (t', a) with found[t] = found[t'] * gens[a]
        found, parent, ids = [identity], [None], {identity: 0}
        right = [[] for _ in gens]          # right[a][t] = id of found[t] * gens[a]
        for t, g in enumerate(found):
            for a, s in enumerate(gens):
                h = mul(g, s)
                u = ids.get(h)
                if u is None:
                    u = ids[h] = len(found)
                    if u >= order:
                        # name a generator whose powers run past the order, if one does
                        for gen in gens:
                            _check_generator_order(identity, gen, mul, order, self.name)
                        raise OracleMismatch(f"{self.name}: closure exceeds the order {order}")
                    found.append(h)
                    parent.append((t, a))
                right[a].append(u)
        if len(found) != order:
            raise OracleMismatch(f"{self.name}: closure has {len(found)} elements, "
                                 f"the order is {order}")
        right_inv = []                      # right_inv[a][u] = id of found[u] * gens[a]^-1
        for r in right:
            undo = [None] * order
            for t, u in enumerate(r):
                undo[u] = t
            if None in undo:
                raise OracleMismatch(f"{self.name}: a generator does not permute the closure")
            right_inv.append(undo)
        self.elements = tuple(sorted(found))
        self.order = order
        self.index = {g: i for i, g in enumerate(self.elements)}
        self.identity_index = self.index[identity]
        new = [self.index[g] for g in found]
        perms = [[0] * order for _ in gens]
        inverse = [0] * order
        self.parent = [None] * order
        for t, g in enumerate(found):
            for perm, r in zip(perms, right):
                perm[new[t]] = new[r[t]]
            if parent[t] is not None:
                self.parent[new[t]] = (new[parent[t][0]], parent[t][1])
            # g = s_1 ... s_k, so g^-1 = e s_k^-1 ... s_1^-1
            h, link = 0, parent[t]
            while link is not None:
                h = right_inv[link[1]][h]
                link = parent[link[0]]
            if mul(g, found[h]) != identity:
                raise OracleMismatch(f"{self.name}: {g} has no inverse in the closure")
            inverse[new[t]] = new[h]
        self.right = tuple(perms)
        self.inverse = tuple(inverse)

    def word(self, j: int):
        """Generator positions whose product, left to right, is element j."""
        out = []
        link = self.parent[j]
        while link is not None:
            j, a = link
            out.append(a)
            link = self.parent[j]
        return out[::-1]

    def right_mul(self, j: int):
        """The permutation y -> y * elements[j] of the element indices."""
        perm = range(self.order)
        for a in self.word(j):
            r = self.right[a]
            perm = [r[y] for y in perm]
        return list(perm)

    @cached_property
    def classes(self):
        """Conjugacy classes as sorted index tuples, ordered by first element.

        Each class is the orbit of its first element under x -> s^-1 x s for
        the generators s, read as r[inv[r[inv[x]]]] with r the permutation
        of s: four lookups per element and generator, no products.
        """
        inv = self.inverse
        seen = [False] * self.order
        out = []
        for i in range(self.order):
            if seen[i]:
                continue
            seen[i] = True
            orbit = [i]
            for x in orbit:
                for r in self.right:
                    y = r[inv[r[inv[x]]]]
                    if not seen[y]:
                        seen[y] = True
                        orbit.append(y)
            out.append(tuple(sorted(orbit)))
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


def _capped(order: int, what: str) -> int:
    if order > GROUP_ORDER_CAP:
        raise CapExceeded(f"{what} = {order} exceeds the cap {GROUP_ORDER_CAP}")
    return order


@cache
def group_gl(n: int, q: int, m: int = 1) -> FiniteGroup:
    """GL_n(o/pi^m) as chain-ring matrices, generated by diag(u, 1, ..., 1)
    for u in a generating set of (o/pi^m)^x, I + E_12 and the permutation
    matrices of (1 2) and (1 2 ... n)."""
    order = _capped(gl_order(n, q, m), f"|GL_{n}(o/pi^{m})|")
    p, s = split_prime_power(q)
    ch = ChainRing(FqField(p, s), m)

    def matrix(entry):
        return tuple(tuple(entry(i, j) for j in range(n)) for i in range(n))

    # a generating set of the units: u is taken only when the span so far misses it
    units, span = [], {1}
    for u in range(2, ch.size):
        if ch.is_unit(u) and u not in span:
            units.append(u)
            grown, power = set(span), u
            while power not in span:
                grown.update(ch.mul(h, power) for h in span)
                power = ch.mul(power, u)
            span = grown
    gens = [matrix(lambda i, j: u if i == j == 0 else int(i == j)) for u in units]
    if n > 1:
        swap = {0: 1, 1: 0}
        gens += [matrix(lambda i, j: int(i == j or (i, j) == (0, 1))),
                 matrix(lambda i, j: int(j == swap.get(i, i))),
                 matrix(lambda i, j: int(j == (i + 1) % n))]
    return FiniteGroup(matrix(lambda i, j: int(i == j)), gens, ch.matmul, order,
                       name=f"GL_{n}(o/pi^{m}) q={q}",
                       meta={"kind": "gl", "n": n, "q": q, "m": m})


@cache
def group_quaternion_quotient(q: int) -> FiniteGroup:
    """The quaternionic unit quotient at level 1, over the residue field F_q.

    Elements are cosets of pi^Z (1 + P) in the unit group of the n = 2
    division algebra, labeled (i, x) and standing for x * w^i with x in
    F_{q^2} nonzero.  The product is computed in the algebra and
    renormalized, so the group law is inherited rather than postulated.
    Order 2(q^2-1); generators the generator zeta of F_{q^2}^x and w.
    """
    name = f"w^Z\\D_{q}^x/(1+P^1)"
    order = _capped(2 * (q * q - 1), f"|{name}|")
    alg = DivisionAlgebra(q, 2)
    w = alg.uniformizer()
    w_inv = alg.elem([Laurent.zero(alg.big), Laurent.pi(alg.big, -1)])

    @cache
    def to_elem(label):
        i, x = label
        unit = alg.elem([x, 0])
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
        return (v % 2, x)

    def mul(a, b):
        return normalize(to_elem(a) * to_elem(b))

    identity = (0, 1)
    # w^2 = pi must land in the identity coset
    if normalize(w * w) != identity:
        raise OracleMismatch("w^2 does not reduce to the identity coset")
    gens = [(0, alg.big.generator), (1, 1)]
    return FiniteGroup(identity, gens, mul, order, name=name,
                       meta={"kind": "quaternion", "q": q, "algebra": alg})

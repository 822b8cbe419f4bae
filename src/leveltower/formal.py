"""Additive formal o-modules in polynomial normal form, full level
structures and level towers.

Conventions used throughout:

* o = F_q[[pi]] acts through the normal form
  [pi](T) = pi*T + u_1*T^q + ... + u_{n-1}*T^(q^(n-1)) + T^(q^n),
  [c](T) = c*T for c in F_q.
* A point of level m is a vector v in (o/pi^m)^n of ints whose base-q digits
  are pi-adic F_q-codes, lowest first, as in `chain`; v stands for
  sum_j v_j * pi^(-m) e_j in the generic fibre picture, so the unit vector
  e_j denotes the basis point pi^(-m) e_j.
* Polynomials are dense coefficient lists over a CoeffRing, lowest degree
  first, as in rings.py.
"""

from __future__ import annotations

from itertools import product
from math import prod

from .errors import DEFAULT_RANK_CAP, NonExactDivision, PreconditionError, RankCapExceeded
from .fq import FqField, split_prime_power
from .rings import (
    CoeffRing,
    RingElem,
    convert,
    poly_divide_exact,
    poly_mul,
    poly_trim,
    ring_extend,
)


class FormalOModule:
    """A height-n additive formal o-module over a coefficient ring.

    Stored data: the ring, q (the size of the ring's residue field F_q, whose
    codes are the scalars), n, and the list of middle coefficients
    u_1 .. u_{n-1} (the T^q .. T^(q^(n-1)) coefficients of [pi]; the leading
    coefficient is always 1, the linear one always pi).
    """

    def __init__(self, ring: CoeffRing, n: int, u_values):
        u_values = list(u_values)
        if len(u_values) != n - 1:
            raise PreconditionError(f"expected {n - 1} middle coefficients, got {len(u_values)}")
        self.ring = ring
        self.n = n
        self.q = ring.field.q
        self.u_values = u_values

    def pi_poly(self):
        """[pi](T) as a dense coefficient list of length q^n + 1.

        For polynomial work only: division, stage polynomials and the
        quotient.  To evaluate [pi] at a point use pi_eval.
        """
        ring, q, n = self.ring, self.q, self.n
        out = [ring.zero()] * (q ** n + 1)
        out[1] = ring.pi()
        for i, u in enumerate(self.u_values, start=1):
            out[q ** i] = u
        out[q ** n] = ring.one()
        return out

    def pi_eval(self, x: RingElem) -> RingElem:
        """[pi](x) = pi*x + sum_i u_i*x^(q^i) + x^(q^n), by iterated Frobenius."""
        acc = self.ring.pi() * x
        xq = x
        for u in self.u_values:
            xq = xq.qpower(self.q)
            if u:
                acc = acc + u * xq
        return acc + xq.qpower(self.q)

    def __repr__(self):
        return f"FormalOModule(n={self.n}, q={self.q}, over {self.ring.describe()})"


def _checked_u_spec(n: int, q: int, u_spec) -> list:
    """u_spec as a list, the default filled in; PreconditionError unless well formed.

    u_spec is a list of n-1 entries, one per middle coefficient:
      * an int N >= 1: a formal nilpotent generator with that vanishing order
        (N = 1 collapses to the value 0),
      * a tuple/list of F_q digit codes (c_0, c_1, ...), each in 0..q-1, with
        c_0 = 0: the value sum_i c_i pi^i, a multiple of pi as every middle
        coefficient of a height-n module must be.
    The default makes every middle coefficient a square-zero formal generator.
    """
    if u_spec is None:
        u_spec = [2] * (n - 1)
    u_spec = list(u_spec)
    if len(u_spec) != n - 1:
        raise PreconditionError(f"u_spec must have {n - 1} entries")
    for k, s in enumerate(u_spec, start=1):
        if isinstance(s, int):
            if s < 1:
                raise PreconditionError(f"u-spec order {s} must be at least 1")
        else:
            for c in s:
                if not 0 <= c < q:
                    raise PreconditionError(f"u-spec digit code {c} is outside 0..{q - 1}")
            if s and s[0]:
                raise PreconditionError(
                    f"u-spec entry {k} has the unit constant digit {s[0]}; "
                    f"middle coefficients must be multiples of pi")
    return u_spec


def make_module(n: int, q: int, m: int, u_spec=None) -> FormalOModule:
    """The formal o-module of u_spec (see `_checked_u_spec`) over a fresh
    coefficient ring of precision m + 1, so that a level-m tower over it sees
    one pi beyond its level.  Requires m, n >= 1, which `tower_rank` checks.
    """
    u_spec = _checked_u_spec(n, q, u_spec)
    u_orders = tuple(s for s in u_spec if isinstance(s, int) and s >= 2)
    ring = CoeffRing(FqField(*split_prime_power(q)), m + 1, u_orders=u_orders)
    u_values = []
    slot = 0
    for s in u_spec:
        if not isinstance(s, int):  # sum_i c_i pi^i; pi^i has index i, as pi's stride is 1
            u_values.append(RingElem(ring, {i: c for i, c in enumerate(s[:m + 1]) if c}))
        elif s >= 2:
            slot += 1
            u_values.append(ring.u(slot))
        else:
            u_values.append(ring.zero())
    return FormalOModule(ring, n, u_values)


class LevelStructure:
    """A level-m structure: a value phi(v) for every v in (o/pi^m)^n."""

    def __init__(self, module: FormalOModule, m: int, values: dict):
        self.module, self.m, self.values = module, m, values

    def torsion_vectors(self):
        """Vectors killed by pi, i.e. with all digits below the top one zero."""
        q = self.module.q
        top = q ** (self.m - 1)
        return [tuple(top * c for c in cs) for cs in product(range(q), repeat=self.module.n)]


def check_level(phi: LevelStructure):
    """Validate the level-structure contract exactly.

    Checks, in order: the keys are exactly (o/pi^m)^n (witness kind domain);
    [pi^m] kills each basis image x_j = phi(e_j), read from the table
    (witness kind torsion); every value is the o-linear extension
    sum_j sum_i [d_ij][pi^i](x_j) over the pi-adic digits d_ij of its
    vector, with [pi^i] by pi_eval (witness kind linearity), which covers
    phi(0) = 0, additivity on all pairs, F_q- and pi-linearity; and the
    product of (T - phi(v)) over the pi-torsion vectors divides [pi](T)
    exactly.

    Linearity costs one addition per value: phi(0) = 0, and phi(v) =
    phi(v') + phi(c e_k) with c e_k the last nonzero coordinate of v and v'
    the rest, which by induction on v's support is the full extension.

    Returns a report dict with keys ok, witness, quotient_degree, pairs_checked.
    """
    module, m, values = phi.module, phi.m, phi.values
    ring, q, n = module.ring, module.q, module.n
    report = {"ok": False, "witness": None, "quotient_degree": None, "pairs_checked": 0}

    domain = set(product(range(q ** m), repeat=n))
    if values.keys() != domain:
        report["witness"] = {"kind": "domain", "detail": (
            f"{len(values)} values on {len(values.keys() & domain)} of {len(domain)} vectors")}
        return report

    terms = []  # terms[j][c] = phi(c e_j), summed over the digits of c
    for j in range(n):
        powers = [values[tuple(int(k == j) for k in range(n))]]
        for _ in range(m):
            powers.append(module.pi_eval(powers[-1]))
        if not powers.pop().is_zero():
            report["witness"] = {"kind": "torsion", "j": j}
            return report
        scaled = [[ring.from_field(d) * y for d in range(q)] for y in powers]
        terms.append([sum((s[c // q ** i % q] for i, s in enumerate(scaled)), ring.zero())
                      for c in range(q ** m)])
    for v, val in values.items():
        k = max((i for i, c in enumerate(v) if c), default=None)
        if k is None:
            ok = val.is_zero()
        else:
            ok = val == values[v[:k] + (0,) * (n - k)] + terms[k][v[k]]
        if not ok:
            report["witness"] = {"kind": "linearity", "v": v}
            return report
    report["pairs_checked"] = len(values) ** 2

    prod = [ring.one()]
    for v in phi.torsion_vectors():
        prod = poly_mul(prod, [ring.zero() - values[v], ring.one()])
    try:
        quo = poly_divide_exact(module.pi_poly(), prod)
    except NonExactDivision as exc:  # it carries the witness coefficient
        report["witness"] = {"kind": "divisor", "detail": str(exc),
                             "remainder": sorted(exc.remainder.d.items())}
        return report
    report["quotient_degree"] = len(poly_trim(quo)) - 1
    report["ok"] = True
    return report


class Tower:
    """A full level-m structure built stage by stage over the base ring."""

    def __init__(self, module: FormalOModule, m: int, stage_degrees: list, table: dict,
                 u_spec_label: str):
        self.module, self.m = module, m
        self.n, self.q, self.ring = module.n, module.q, module.ring
        self.stage_degrees = stage_degrees
        self.table = table  # phi on (o/pi^m)^n, in the top ring
        self.u_spec_label = u_spec_label
        self.structure = LevelStructure(module, m, table)

    @property
    def rank_over_base(self) -> int:
        return prod(self.stage_degrees)


def u_spec_label(n: int, u_spec) -> str:
    if u_spec is None:
        u_spec = [2] * (n - 1)
    parts = []
    for s in u_spec:
        if isinstance(s, int):
            parts.append(f"nil{s}")
        else:
            parts.append("val:" + ",".join(str(c) for c in s))
    return ";".join(parts) if parts else "-"


def gl_order(n: int, q: int, m: int = 1) -> int:
    """|GL_n(o/pi^m)| by the standard product formula."""
    r = q ** ((m - 1) * n * n)
    for i in range(n):
        r *= q ** n - q ** i
    return r


def tower_rank(n: int, q: int, m: int, u_spec, rank_cap: int) -> int:
    """The rank of the level-m tower's top ring; RankCapExceeded above rank_cap.

    It is (m + 1) * prod(N_i) * |GL_n(o/pi^m)|: the base ring's precision
    times its nilpotency orders times the degree of the tower over it.
    """
    if m < 1:
        raise PreconditionError("level must be >= 1")
    if n < 1:
        raise PreconditionError("height n must be >= 1")
    # |GL_n(o/pi^m)| >= 2^(m n^2 - n): refuse on that bound before forming the
    # rank or the module's n - 1 coefficients
    bound = m * n * n - n
    if bound >= rank_cap.bit_length():
        raise RankCapExceeded(f"ring rank >= 2^{bound} exceeds cap {rank_cap}")
    orders = prod(s for s in _checked_u_spec(n, q, u_spec) if isinstance(s, int))
    rank = (m + 1) * orders * gl_order(n, q, m)
    if rank > rank_cap:
        raise RankCapExceeded(f"ring rank {rank} exceeds cap {rank_cap}")
    return rank


def _extend(table: dict, module: FormalOModule, j: int, weight: int, point: RingElem) -> dict:
    """Extend a table by one pi-adic digit of coordinate j, one addition per value.

    That digit (place value `weight` in the int code) is 0 in every vector of
    `table`; the result maps v + c*weight*e_j to table[v] + [c](point) for
    every F_q-code c.
    """
    out = {}
    for c in range(module.q):
        cp = module.ring.from_field(c) * point
        for v, val in table.items():
            w = list(v)
            w[j] += c * weight
            out[tuple(w)] = val + cp
    return out


def build_tower(n: int, q: int, m: int, u_spec=None,
                rank_cap: int = DEFAULT_RANK_CAP) -> Tower:
    """Adjoin a complete level-m structure stage by stage, then tabulate it.

    Level 1 goes one basis point at a time: with the span V_i of the first i
    points already adjoined, psi_i(T) = prod_{a in V_i} (T - phi(a)) divides
    [pi](T) exactly and the quotient f_i is the minimal polynomial of the next
    point.  Each later level adjoins, for each j, a root of
    [pi](T) - phi(pi^{-(l-1)} e_j).  The base ring has precision m + 1, so
    the tower sees one pi beyond the level being built.

    The one table is phi on (o/pi^m)^n in the top ring.  `_extend` builds it
    digit by digit from the basis points, as it builds each V_i; for m = 1
    the finished span is that table.
    """
    top_rank = tower_rank(n, q, m, u_spec, rank_cap)
    module = make_module(n, q, m, u_spec)
    ring = module.ring

    stage_degrees = []
    basis = [[]]  # basis[l-1][j] = phi(pi^{-l} e_j), in the ring it was adjoined to
    span = {(0,) * n: ring.zero()}
    for i in range(n):
        psi = [ring.one()]
        for val in span.values():
            psi = poly_mul(psi, [ring.zero() - val, ring.one()])
        f_i = poly_trim(poly_divide_exact(module.pi_poly(), psi))
        stage_degrees.append(len(f_i) - 1)
        ring, theta = ring_extend(ring, f_i, name=f"y{i + 1}_1")
        module = FormalOModule(ring, n, [convert(u, ring) for u in module.u_values])
        span = _extend({v: convert(val, ring) for v, val in span.items()}, module, i, 1, theta)
        basis[0].append(theta)
    for level in range(2, m + 1):
        basis.append([])
        for j, target in enumerate(basis[-2]):
            g = list(module.pi_poly())
            g[0] = g[0] - convert(target, ring)
            stage_degrees.append(len(poly_trim(g)) - 1)
            ring, y = ring_extend(ring, g, name=f"y{j + 1}_{level}")
            module = FormalOModule(ring, n, [convert(u, ring) for u in module.u_values])
            basis[-1].append(y)

    table = span
    if m > 1:  # digit i of coordinate j stands for pi^i e_j = pi^{-(m-i)} e_j
        table = {(0,) * n: ring.zero()}
        for j in range(n):
            for i in range(m):
                table = _extend(table, module, j, q ** i, convert(basis[m - 1 - i][j], ring))

    expected = gl_order(n, q, m)
    assert prod(stage_degrees) == expected, f"stage degrees {stage_degrees} != {expected}"
    assert ring.rank == top_rank
    return Tower(module, m, stage_degrees, table, u_spec_label(n, u_spec))

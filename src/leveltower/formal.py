"""Additive formal o-modules in polynomial normal form, full level
structures and level towers.

Conventions used throughout:

* o = F_q[[pi]] acts through the normal form
  [pi](T) = pi*T + u_1*T^q + ... + u_{n-1}*T^(q^(n-1)) + T^(q^n),
  [c](T) = c*T for c in F_q.
* A point of level m is a vector v in (o/pi^m)^n, int-encoded per ChainRing;
  v stands for sum_j v_j * pi^(-m) e_j in the generic fibre picture, so the
  unit vector e_j denotes the basis point pi^(-m) e_j.
* Polynomials are dense coefficient lists over a CoeffRing, lowest degree
  first, as in rings.py.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from itertools import product

from .chain import ChainRing
from .errors import PreconditionError, RankCapExceeded
from .fq import FqField, split_prime_power
from .rings import (
    CoeffRing,
    RingElem,
    convert,
    poly_add,
    poly_compose,
    poly_divide_exact,
    poly_mul,
    poly_scale,
    poly_trim,
    ring_extend,
)


class FormalOModule:
    """A height-n additive formal o-module over a coefficient ring.

    Stored data: the ring, q, n, and the list of middle coefficients
    u_1 .. u_{n-1} (the T^q .. T^(q^(n-1)) coefficients of [pi]; the leading
    coefficient is always 1, the linear one always pi).
    """

    def __init__(self, ring: CoeffRing, n: int, q: int, u_values):
        if n < 1:
            raise PreconditionError("height must be >= 1")
        u_values = list(u_values)
        if len(u_values) != n - 1:
            raise PreconditionError(f"expected {n - 1} middle coefficients, got {len(u_values)}")
        p, f = split_prime_power(q)
        if p != ring.field.p:
            raise PreconditionError(
                f"q={q} is not a power of the coefficient characteristic {ring.field.p}")
        if ring.field.f % f != 0:
            raise PreconditionError("the scalar field F_q does not embed in the coefficient field")
        self.ring = ring
        self.n = n
        self.q = q
        self.scalar_field = FqField(p, f)
        if self.scalar_field.q == ring.field.q:
            self._embed = list(range(q))
        else:
            self._embed = self.scalar_field.embedding(ring.field)
        self.u_values = [v if isinstance(v, RingElem) else ring.from_int(v) for v in u_values]
        self._pi_powers = [[ring.zero(), ring.one()]]  # [pi^0] = T

    def scalar(self, c: int) -> RingElem:
        """The ring element acting as the F_q-scalar with code c."""
        return self.ring.from_field(self._embed[c])

    def pi_poly(self):
        """[pi](T) as a dense coefficient list of length q^n + 1.

        For polynomial work only: division, stage polynomials, [pi^k] and the
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

    def pi_power(self, k: int):
        """[pi^k](T), cached; degree q^(n*k), derivative pi^k."""
        if k < 0:
            raise PreconditionError("k must be >= 0")
        while len(self._pi_powers) <= k:
            self._pi_powers.append(poly_compose(self.pi_poly(), self._pi_powers[-1]))
        return self._pi_powers[k]

    def alpha_mult(self, digits):
        """[alpha](T) for alpha = sum_i digits[i] * pi^i, digits F_q-codes."""
        out = [self.ring.zero()]
        for i, c in enumerate(digits):
            if c:
                out = poly_add(out, poly_scale(self.scalar(c), self.pi_power(i)))
        return poly_trim(out)

    def act(self, digits, value: RingElem) -> RingElem:
        """Evaluate [alpha] at a point value without building any polynomial.

        Applies [pi] through pi_eval; alpha_mult builds [alpha](T) instead.
        """
        acc = self.ring.zero()
        cur = value
        for i, c in enumerate(digits):
            if i:
                cur = self.pi_eval(cur)
            if c:
                acc = acc + self.scalar(c) * cur
        return acc

    def __repr__(self):
        return f"FormalOModule(n={self.n}, q={self.q}, over {self.ring.describe()})"


def make_module(n: int, q: int, u_spec=None, prec: int = 3) -> FormalOModule:
    """Build a formal o-module over a fresh coefficient ring.

    u_spec is a list of n-1 entries, one per middle coefficient:
      * an int N >= 1: a formal nilpotent generator with that vanishing order
        (N = 1 collapses to the value 0),
      * a tuple/list of F_q digit codes (c_0, c_1, ...): the value
        sum_i c_i pi^i.
    The default makes every middle coefficient a square-zero formal generator.
    """
    if n < 1:
        raise PreconditionError("height n must be >= 1")
    if u_spec is None:
        u_spec = [2] * (n - 1)
    u_spec = list(u_spec)
    if len(u_spec) != n - 1:
        raise PreconditionError(f"u_spec must have {n - 1} entries")
    if prec < 2:
        raise PreconditionError("precision must be >= 2 so pi is visible")
    fld = FqField(*split_prime_power(q))
    u_orders = tuple(s for s in u_spec if isinstance(s, int) and s >= 2)
    ring = CoeffRing(fld, prec, u_orders=u_orders)
    u_values = []
    slot = 0
    for s in u_spec:
        if isinstance(s, int):
            if s >= 2:
                slot += 1
                u_values.append(ring.u(slot))
            else:
                u_values.append(ring.zero())
        else:
            u_values.append(_pi_poly_value(ring, s))
    return FormalOModule(ring, n, q, u_values)


def _pi_poly_value(ring: CoeffRing, digits) -> RingElem:
    out = ring.zero()
    pi = ring.pi()
    pw = ring.one()
    for c in digits:
        if c:
            out = out + ring.from_field(c) * pw
        pw = pw * pi
    return out


@dataclass
class LevelStructure:
    """A level-m structure: a value phi(v) for every v in (o/pi^m)^n."""

    module: FormalOModule
    m: int
    values: dict

    def __post_init__(self):
        self.chain = ChainRing(self.module.scalar_field, self.m)

    def torsion_vectors(self):
        """Vectors killed by pi, i.e. with all digits below the top one zero."""
        ch = self.chain
        top = ch.q ** (ch.m - 1)
        return [tuple(top * c for c in cs)
                for cs in product(range(ch.q), repeat=self.module.n)]


def check_level(phi: LevelStructure):
    """Validate the level-structure contract exactly.

    Checks, in order: the domain is complete; [pi^m] kills each basis image
    x_j = phi(e_j), read from the table (witness kind torsion); every value
    is the o-linear extension sum_j sum_i [d_ij][pi^i](x_j) over the pi-adic
    digits d_ij of its vector, with [pi^i] by pi_eval (witness kind
    linearity), which covers phi(0) = 0, additivity on all pairs, F_q- and
    pi-linearity; and the product of (T - phi(v)) over the pi-torsion
    vectors divides [pi](T) exactly.

    Returns a report dict with keys ok, witness, quotient_degree, pairs_checked.
    """
    module, m, values = phi.module, phi.m, phi.values
    ring, ch = module.ring, phi.chain
    n = module.n
    report = {"ok": False, "witness": None, "quotient_degree": None, "pairs_checked": 0}

    expected = ch.size ** n
    if len(values) != expected:
        report["witness"] = {"kind": "domain", "detail": f"{len(values)} values, expected {expected}"}
        return report

    terms = []  # terms[j][c] = phi(c e_j), summed over the digits of c
    for j in range(n):
        powers = [values[tuple(int(k == j) for k in range(n))]]
        for _ in range(m):
            powers.append(module.pi_eval(powers[-1]))
        if not powers.pop().is_zero():
            report["witness"] = {"kind": "torsion", "j": j}
            return report
        scaled = [[module.scalar(d) * y for d in range(ch.q)] for y in powers]
        terms.append([sum((s[d] for s, d in zip(scaled, ch.digits(c))), ring.zero())
                      for c in range(ch.size)])
    for v, val in values.items():
        if val != sum((t[c] for t, c in zip(terms, v)), ring.zero()):
            report["witness"] = {"kind": "linearity", "v": v}
            return report
    report["pairs_checked"] = len(values) ** 2

    prod = [ring.one()]
    for v in phi.torsion_vectors():
        prod = poly_mul(prod, [ring.zero() - values[v], ring.one()])
    try:
        quo = poly_divide_exact(module.pi_poly(), prod)
    except Exception as exc:  # NonExactDivision carries the witness coefficient
        report["witness"] = {"kind": "divisor", "detail": str(exc),
                             "remainder": repr(getattr(exc, "remainder", None))}
        return report
    report["quotient_degree"] = len(poly_trim(quo)) - 1
    report["ok"] = True
    return report


@dataclass
class Tower:
    """A full level-m structure built stage by stage over the base ring."""

    n: int
    q: int
    m: int
    ring: CoeffRing
    module: FormalOModule
    stage_degrees: list
    level_values: list          # level_values[l-1]: dict for level l, in top ring
    u_spec_label: str
    structure: LevelStructure = dc_field(init=False)

    def __post_init__(self):
        self.structure = LevelStructure(self.module, self.m, self.level_values[-1])

    @property
    def rank_over_base(self) -> int:
        r = 1
        for d in self.stage_degrees:
            r *= d
        return r


def _u_spec_label(n, u_spec) -> str:
    if u_spec is None:
        u_spec = [2] * (n - 1)
    parts = []
    for s in u_spec:
        if isinstance(s, int):
            parts.append(f"nil{s}")
        else:
            parts.append("val:" + ",".join(str(c) for c in s))
    return ";".join(parts) if parts else "-"


DEFAULT_RANK_CAP = 5000


def gl_order(n: int, q: int, m: int = 1) -> int:
    """|GL_n(o/pi^m)| by the standard product formula."""
    r = q ** ((m - 1) * n * n)
    for i in range(n):
        r *= q ** n - q ** i
    return r


def build_tower(n: int, q: int, m: int, prec: int | None = None, u_spec=None,
                rank_cap: int = DEFAULT_RANK_CAP) -> Tower:
    """Adjoin a complete level-m structure stage by stage.

    Level 1 goes one basis point at a time: with the span V_i of the first i
    points already adjoined, psi_i(T) = prod_{a in V_i} (T - phi(a)) divides
    [pi](T) exactly and the quotient f_i is the minimal polynomial of the next
    point.  Each later level adjoins, for each j, a root of
    [pi](T) - phi_{l-1}(pi^{-(l-1)} e_j).  Requires prec >= m + 1 so that the
    tower sees one pi beyond the level being built.
    """
    if m < 1:
        raise PreconditionError("level must be >= 1")
    if prec is None:
        prec = m + 1
    if prec < m + 1:
        raise PreconditionError(f"precision {prec} < level + 1 = {m + 1}")
    module = make_module(n, q, u_spec=u_spec, prec=prec)
    ring = module.ring
    expected = gl_order(n, q, m)
    top_rank = ring.rank * expected
    if top_rank > rank_cap:
        raise RankCapExceeded(f"ring rank {top_rank} exceeds cap {rank_cap}")
    fld = module.scalar_field

    stage_degrees = []
    # level 1, basis point by basis point
    span = {tuple([0] * n): ring.zero()}
    level1_basis = []
    for i in range(n):
        psi = [ring.one()]
        for val in span.values():
            psi = poly_mul(psi, [ring.zero() - val, ring.one()])
        f_i = poly_divide_exact(module.pi_poly(), psi)
        f_i = poly_trim(f_i)
        stage_degrees.append(len(f_i) - 1)
        ring, theta = ring_extend(ring, f_i, name=f"y{i + 1}_1")
        module = FormalOModule(ring, n, q, [convert(u, ring) for u in module.u_values])
        span = {v: convert(val, ring) for v, val in span.items()}
        level1_basis.append(theta)
        new_span = {}
        for c in range(q):
            ct = module.scalar(c) * theta if c else ring.zero()
            for v, val in span.items():
                w = list(v)
                w[i] = fld.add(w[i], c)
                new_span[tuple(w)] = val + ct
        span = new_span
    level_value_dicts = [span]
    basis_images = [level1_basis]

    # higher levels; an element keeps its indices in every extension, so values
    # are converted only where they meet a newer ring
    for level in range(2, m + 1):
        new_basis = []
        for j, target in enumerate(basis_images[-1]):
            g = list(module.pi_poly())
            g[0] = g[0] - convert(target, ring)
            stage_degrees.append(len(poly_trim(g)) - 1)
            ring, y = ring_extend(ring, g, name=f"y{j + 1}_{level}")
            module = FormalOModule(ring, n, q, [convert(u, ring) for u in module.u_values])
            new_basis.append(y)
        basis_images.append(new_basis)
        # assemble the full value table for this level
        chl = ChainRing(fld, level)
        # col[k][j] = phi_{k+1} basis value
        col = [[convert(b, ring) for b in lvl] for lvl in basis_images]
        vals = {}
        for vec in product(range(chl.size), repeat=n):
            acc = ring.zero()
            for j, c in enumerate(vec):
                digs = chl.digits(c)
                for i, d in enumerate(digs):
                    if d:
                        # [d * pi^i] applied to the level-`level` basis point e_j
                        acc = acc + module.scalar(d) * col[level - i - 1][j]
            vals[vec] = acc
        level_value_dicts.append(vals)

    level_value_dicts = [{v: convert(val, ring) for v, val in d.items()}
                         for d in level_value_dicts]

    got = 1
    for d in stage_degrees:
        got *= d
    assert got == expected, f"tower rank {got} != unit-group order {expected}"
    assert ring.rank == top_rank

    return Tower(n=n, q=q, m=m, ring=ring, module=module,
                 stage_degrees=stage_degrees, level_values=level_value_dicts,
                 u_spec_label=_u_spec_label(n, u_spec))

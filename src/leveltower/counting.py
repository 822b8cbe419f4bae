"""Fixed-coset counting on G/pi^Z K_m for G = GL_n(F), two independent routes.

A coset is parametrized as h = H*y: H the canonical triangular basis of the
lattice h*o^n normalized so its minimal entry valuation is 0 (one lattice per
pi^Z class), and y a unit-group frame taken mod K_m = 1 + pi^m M_n(o).  The
counted condition, for a pair (b, g) with g = pi^w u in the normalizer
pi^Z K_0 of K_m, is h^{-1} b h g in pi^Z K_m, which splits into

  * z' := v(det b)/n must be an integer,
  * V := pi^{-z'} H^{-1} b H must lie in GL_n(o)   (the lattice condition),
  * ybar^{-1} Vbar ybar = ubar^{-1} in GL_n(o/pi^m) (the frame condition).

Since det V = pi^{-nz'} det b is a unit, the lattice condition is that V is
integral.  `count_brute` takes one box of triangular lattice bases, sized
from m and the elementary divisors of b, and finds the box lattices that
pi^{-z'} b fixes by a descent over its stable lattices, from the largest one
inside o^n down through the invariant subspaces mod pi
(`_fixed_lattices`); the work grows with the lattices found, not with the
box.  Each visited lattice is stable, so its V, formed with the
back-substituted inverse `_triangular_inverse(H)`, is integral by
construction and only asserted to be.  It reports whether the count was
already stable one shell earlier.
Its frame count (`_frame_count`) solves the frame condition as one
F_q-linear kernel over o/pi^m and counts the solutions that are units mod
pi; it lists only the residue units GL_n(F_q), never GL_n(o/pi^m).
`count_structured` uses a certificate for b: the order o[pi^{-z'} b] is
then maximal, so at most one lattice class survives, tested once by the
adjugate formula (`_lattice_eigen_matrix`), and the frame count is a
centralizer order.  It takes the same steps at every rank n >= 1.  Both
return a `CountResult` holding the count and the stability flag.  The
two routes share nothing past the membership split above;
`division.total_fixed_points` runs both on every count and raises when they
disagree, and the test suite compares them on randomized instances.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .certify import EllipticCertificate
from .chain import ChainRing, gl_elements
from .errors import CapExceeded, PreconditionError
from .laurent import Laurent
from .matrices import (
    adjugate,
    charpoly,
    det,
    hnf,
    mat_identity,
    mat_mul,
    mat_reduce_mod,
    mat_shift,
    smith_exponents,
)

# Lattices the brute route's descent may visit before it refuses.  On a
# 2-vCPU VM a visit at n = 3 takes 1.5 ms (unipotent b) to 5 ms (scalar b,
# for which every subspace is invariant), so a refused run stops within
# about 25 s.  A certified elliptic b visits one lattice.
BRUTE_LATTICE_CAP = 5_000


def normalizer_split(g):
    """Write g = pi^w * u with u in GL_n(o), or reject.

    Elements of this shape are exactly the normalizer of K_m, which is what
    makes the coset condition well posed.  The n elementary divisor exponents
    are at least the least entry valuation w and sum to v(det g), so they are
    all equal exactly when v(det g) = n w.
    """
    d = det(g)
    if d.is_zero():
        raise PreconditionError("matrix is singular, no elementary divisors")
    w = min(x.valuation() for row in g for x in row)
    if d.valuation() != len(g) * w:
        raise PreconditionError(
            f"element has v(det g) = {d.valuation()} but least entry valuation {w}: "
            "not in pi^Z GL_n(o), so it does not normalize K_m")
    return w, mat_shift(g, -w)


def _frame_target(g, m: int):
    """ubar^{-1} over o/pi^m for g = pi^w u."""
    field = g[0][0].field
    _, u = normalizer_split(g)
    ch = ChainRing(field, m)
    ubar = mat_reduce_mod(u, m)
    return ch, ch.mat_inv(ubar)


def _z_prime(b):
    d = det(b)
    if d.is_zero():
        raise PreconditionError("element is singular")
    n = len(b)
    return Fraction(d.valuation(), n)


@dataclass
class CountResult:
    count: int
    stable: bool = True


def _triangular_inverse(H):
    """H^{-1} for an upper triangular H with diagonal exactly pi^(d_i).

    Back-substitution column by column: dividing by pi^(d_i) is an exact
    shift, so no adjugate is formed.
    """
    n = len(H)
    field = H[0][0].field
    X = [[Laurent.zero(field)] * n for _ in range(n)]
    for k in range(n):
        for i in range(k, -1, -1):
            acc = Laurent.one(field) if i == k else Laurent.zero(field)
            for j in range(i + 1, k + 1):
                acc = acc - H[i][j] * X[j][k]
            X[i][k] = acc.shift(-H[i][i].valuation())
    return X


def _top_stable_lattice(g1):
    """The hnf basis of L_max, the intersection of g1^(-k) o^n over k < n:
    the largest g1-stable lattice inside o^n, for g1 with integral
    characteristic polynomial.

    Its dual lattice is o[g1^T] o^n, grown from o^n by adding g1^T times the
    current basis until the hnf form stops changing.  A lattice with basis M
    has dual basis (M^T)^{-1}, whose columns are the rows of M^{-1}.
    """
    gT = tuple(zip(*g1))
    M = mat_identity(g1[0][0].field, len(g1))
    while True:
        grown = hnf(list(zip(*M)) + list(zip(*mat_mul(gT, M))))
        if grown == M:
            return hnf([tuple(row) for row in _triangular_inverse(M)])
        M = grown


def _invariant_subspaces(res: ChainRing, Vbar, n: int):
    """The nonzero proper Vbar-invariant subspaces of F_q^n, each as the
    columns of its reduced echelon basis.

    Each is a sum of cyclic spans F_q[Vbar] v, which v, Vbar v, ...,
    Vbar^(n-1) v span; the sums are closed one cyclic span at a time.
    """
    def canonical(gens):
        return res.echelon(n, gens)[1]

    cyclic = set()
    for v in res.all_vectors(n):
        if any(v):
            orbit = [v]
            for _ in range(n - 1):
                orbit.append(res.matvec(Vbar, orbit[-1]))
            cyclic.add(canonical(orbit))
    spaces, frontier = set(cyclic), cyclic
    while frontier:
        frontier = {canonical(U + C) for U in frontier for C in cyclic} - spaces
        spaces |= frontier
    return [U for U in spaces if len(U) < n]


def _fixed_lattices(b, z_prime: int, m: int):
    """(on_shell, V mod pi^m) for every lattice of the box that
    g1 = pi^{-z'} b fixes, found by a descent over the g1-stable lattices.

    The box holds the normalized lattices (inside o^n, not inside pi o^n)
    with diagonal exponents at most m + (spread of the elementary divisor
    exponents of b) + 2; `on_shell` marks a lattice with an exponent at that
    bound, one that a box smaller by one would have missed.

    A g1-stable lattice forces an integral characteristic polynomial, so
    without one nothing is fixed.  Every stable lattice inside o^n lies in
    L_max (`_top_stable_lattice`).  A step goes from a stable L with basis H
    to the stable L' with pi L < L' < L, namely H (lift(U) + pi o^n) for
    each nonzero proper (V mod pi)-invariant subspace U.  A stable L' < L is
    reached by the path L_(i+1) = L' + pi L_i, each lattice a child of the
    one before.  Both ways of leaving the box, a diagonal exponent above the
    bound and containment in pi o^n, pass from a lattice to its sublattices,
    so a child that leaves the box is pruned with everything below it.
    Lattices are deduplicated by hnf form, and every one visited counts
    against `BRUTE_LATTICE_CAP`.
    """
    field = b[0][0].field
    n = len(b)
    g1 = mat_shift(b, -z_prime)
    if any(c.valuation() < 0 for c in charpoly(g1)):
        return
    exps = smith_exponents(b)
    bound = m + (exps[-1] - exps[0]) + 2
    res = ChainRing(field, 1)
    zero, pi = Laurent.zero(field), Laurent.pi(field)
    seen, stack = set(), []

    def visit(H):
        if (H not in seen and max(H[i][i].valuation() for i in range(n)) <= bound
                and min(x.valuation() for row in H for x in row) == 0):
            seen.add(H)
            if len(seen) > BRUTE_LATTICE_CAP:
                raise CapExceeded(f"stable lattice descent visits more than "
                                  f"{BRUTE_LATTICE_CAP} lattices")
            stack.append(H)

    visit(_top_stable_lattice(g1))
    while stack:
        H = stack.pop()
        V = mat_mul(mat_mul(_triangular_inverse(H), g1), H)
        assert all(x.valuation() >= 0 for row in V for x in row), \
            "every lattice of the descent is g1-stable"
        yield max(H[i][i].valuation() for i in range(n)) >= bound, mat_reduce_mod(V, m)
        for U in _invariant_subspaces(res, mat_reduce_mod(V, 1), n):
            # a basis of lift(U) + pi o^n: U's echelon columns, and pi e_r
            # for each row r that is no pivot of U
            pivots = {next(r for r, x in enumerate(u) if x) for u in U}
            cols = [tuple(Laurent.const(field, x) for x in u) for u in U]
            cols += [tuple(pi if i == r else zero for i in range(n))
                     for r in range(n) if r not in pivots]
            visit(hnf(list(zip(*mat_mul(H, tuple(zip(*cols)))))))


def _lattice_eigen_matrix(H, b, z_prime: int):
    """V = pi^{-z'} H^{-1} b H if integral, else None; the structured route's test.

    H is triangular with monomial diagonal, so det H = pi^s exactly and
    H^{-1} = pi^{-s} adj(H); everything stays exact.  With z' = v(det b)/n,
    det V = pi^{-nz'} det b is a unit, so integrality alone puts V in
    GL_n(o).  Only `stable_lattice_reduction` (one lattice per run) uses
    this; the brute route forms V with `_triangular_inverse` instead.
    """
    s = sum(H[i][i].valuation() for i in range(len(H)))
    A = mat_mul(mat_mul(adjugate(H), b), H)
    shift = -s - z_prime
    for row in A:
        for x in row:
            if not x.is_zero() and x.valuation() + shift < 0:
                return None
    return mat_shift(A, shift)


def _frame_count(ch: ChainRing, n: int, Vbar, target) -> int:
    """#{y in GL_n(o/pi^m) : Vbar y = y target}, by one F_q-linear kernel.

    The base-q digits of an element are its coordinates over F_q, and
    y -> Vbar y - y target is F_q-linear, so the solutions form a subspace K
    of the m n^2 coordinates.  `echelon` over F_q runs on the images of the
    basis matrices pi^t E_ij stacked over the identity, whose rows put t = 0
    first.  It leaves K's basis in reduced form: the vectors pivoting at
    t = 0 reduce to a basis of W = K mod pi, the others span the solutions
    divisible by pi.  As y is invertible exactly when y mod pi is, the count
    is q^(dim K - dim W) times the number of residue units in W.
    """
    res = ChainRing(ch.field, 1)
    nn = n * n
    size = ch.m * nn
    cols = []
    for k in range(size):
        t, ij = divmod(k, nn)
        E = tuple(tuple(ch.q ** t if a * n + c == ij else 0 for c in range(n))
                  for a in range(n))
        image = zip(ch.matmul(Vbar, E), ch.matmul(E, target))
        digits = [d for left, right in image for x, y in zip(left, right)
                  for d in ch.digits(ch.sub(x, y))]
        cols.append(tuple(digits) + tuple(int(u == k) for u in range(size)))
    pivots, reduced = res.echelon(2 * size, cols)
    residue_basis = [(r - size, col[size:size + nn])
                     for r, col in zip(pivots, reduced) if size <= r < size + nn]
    higher = sum(r >= size + nn for r in pivots)
    units = 0
    for y in gl_elements(res, n):
        flat = tuple(x for row in y for x in row)
        span = (0,) * nn
        for r, w in residue_basis:
            span = res.vadd(span, res.vscale(flat[r], w))
        units += span == flat
    return ch.q ** higher * units


def count_brute(b, g, m: int) -> CountResult:
    """Brute count of fixed cosets, with a shell-stability flag.

    The lattices are those of the box of `_fixed_lattices`; `stable` reports
    that no lattice with a nonzero frame count lies on its outer shell, i.e.
    the same count would have been found with a box smaller by one.
    """
    n = len(b)
    ch, target = _frame_target(g, m)
    zp = _z_prime(b)
    if zp.denominator != 1:
        return CountResult(count=0)
    total = 0
    touched_shell = False
    for on_shell, Vbar in _fixed_lattices(b, int(zp), m):
        fc = _frame_count(ch, n, Vbar, target)
        total += fc
        touched_shell |= on_shell and fc > 0
    return CountResult(count=total, stable=not touched_shell)


def _cyclic_basis(ch: ChainRing, M, n: int):
    """The first P = (v, Mv, ..., M^(n-1) v) that is invertible, or None."""
    for v in ch.all_vectors(n):
        cols = [v]
        for _ in range(n - 1):
            cols.append(ch.matvec(M, cols[-1]))
        P = tuple(zip(*cols))
        if ch.is_unit(ch.det(P)):
            return P
    return None


def unit_group_order_unramified(n: int, q: int, m: int) -> int:
    """|(o_E / pi^m)^x| for E/F unramified of degree n."""
    return q ** (n * (m - 1)) * (q ** n - 1)


def stable_lattice_reduction(b, m: int, cert: EllipticCertificate):
    """The one lattice class a certified elliptic b, with certificate `cert`,
    can fix, reduced mod pi^m.

    Returns (H, Vbar, z') with H the hnf basis of the order lattice
    o[pi^{-z'} b] * e1, Vbar the reduction of
    V = pi^{-z'} H^{-1} b H, and z' = v(det b)/n.  Raises PreconditionError
    when z' is not an integer, since then no lattice meets the eigen
    condition at all.
    """
    field = b[0][0].field
    n = len(b)
    zp = Fraction(cert.det_val, n)
    if zp.denominator != 1:
        raise PreconditionError(
            f"z' = {zp} is not an integer, no stable lattice exists")
    zp_int = int(zp)
    assert cert.kind == "unramified", "integral z' forces the unramified kind"
    # the unique candidate lattice class: the order o[g1] acting on e1
    g1 = mat_shift(b, -zp_int)
    cols = []
    P = mat_identity(field, n)
    for _ in range(n):
        cols.append(tuple(P[a][0] for a in range(n)))
        P = mat_mul(g1, P)
    H = hnf(cols)
    V = _lattice_eigen_matrix(H, b, zp_int)
    assert V is not None, "the order lattice must satisfy the eigen condition"
    return H, mat_reduce_mod(V, m), zp_int


def count_structured(b, g, m: int, cert: EllipticCertificate) -> CountResult:
    """Certificate-backed count; refuses (by raising) rather than guessing.

    With b certified elliptic, any fixed lattice is a module over the order
    generated by pi^{-z'} b, which the certificate forces to be maximal.  Up
    to pi^Z there is then at most one lattice class, and the frame count is
    either zero or the order of the centralizer of a cyclic matrix, i.e. of
    the unit group of o_E/pi^m.
    """
    field = b[0][0].field
    n = len(b)
    ch, target = _frame_target(g, m)
    zp = Fraction(cert.det_val, n)
    if zp.denominator != 1:
        # no lattice satisfies the eigen condition
        return CountResult(count=0)

    _, Vbar, _ = stable_lattice_reduction(b, m, cert)
    if ch.charpoly(Vbar) != ch.charpoly(target):
        return CountResult(count=0)
    Pt = _cyclic_basis(ch, target, n)
    if Pt is None:  # not conjugate to a maximal-order generator
        return CountResult(count=0)
    Pv = _cyclic_basis(ch, Vbar, n)
    assert Pv is not None, "a maximal-order generator is cyclic"
    y0 = ch.matmul(Pv, ch.mat_inv(Pt))
    assert ch.matmul(Vbar, y0) == ch.matmul(y0, target), "conjugator check"
    return CountResult(count=unit_group_order_unramified(n, field.q, m))

"""Shared generators for the randomized counting suite, and the oracles the
tests compare the package against: code that no command runs lives here."""

import random
from itertools import combinations, product
from math import prod

from leveltower.certify import regular_elliptic_certify
from leveltower.counting import _fixed_lattices, _triangular_inverse, stable_lattice_reduction
from leveltower.cyclotomic import Cyclotomic
from leveltower.errors import CapExceeded, Inconclusive
from leveltower.fq import FqField
from leveltower.induced import _root_power
from leveltower.laurent import Laurent
from leveltower.matrices import (
    charpoly,
    companion,
    det,
    mat_mul,
    mat_reduce_mod,
    mat_shift,
    smith_exponents,
)
from leveltower.rings import poly_mul, poly_trim
from leveltower.strata import _chain as chain_ring


def random_unit_matrix(field, n, rng, prec=3):
    """A random element of GL_n(o) with polynomial entries of bounded degree."""
    while True:
        m = [[sum((Laurent.pi(field, k).scale(rng.randrange(field.q))
                   for k in range(prec)), Laurent.zero(field))
              for _ in range(n)] for _ in range(n)]
        if det(m).valuation() == 0:
            return m


def _b_pool(field):
    """Certified companion-style elements with a spread of norm valuations."""
    q = field.q
    if q == 2:
        unit_polys = [(1, 1, 1)]
    else:
        unit_polys = [(1, 0, 1), (2, 2, 1), (2, 1, 1)]
    pool = []
    for codes in unit_polys:
        pol = [Laurent.const(field, c) for c in codes]
        pool.append(companion(field, pol))
        bumped = [pol[0] + Laurent.pi(field, 1), pol[1], pol[2]]
        pool.append(companion(field, bumped))
    # pi-scaled units (norm valuation 2) and an Eisenstein element (valuation 1)
    pool.extend(mat_shift(b, 1) for b in list(pool))
    pool.append(companion(field, [Laurent.pi(field, 1), Laurent.zero(field),
                                  Laurent.const(field, 1)]))
    return pool


def counting_suite(total=24, seed=1234):
    """Randomized certified instances (field, b, g, m, cert) for n = 2."""
    rng = random.Random(seed)
    fields = {2: FqField(2, 1), 3: FqField(3, 1)}
    out = []
    while len(out) < total:
        field = fields[rng.choice((2, 3))]
        m = rng.choice((1, 2))
        b = rng.choice(_b_pool(field))
        try:
            cert = regular_elliptic_certify(charpoly(b))
        except Inconclusive:
            continue
        g = random_unit_matrix(field, 2, rng)
        if rng.random() < 0.3:
            g = mat_shift(g, 1)
        out.append({"field": field, "b": b, "g": g, "m": m, "cert": cert})
    return out


BOX_CAP = 400_000


def lattice_bases(field, n, bound, cap=BOX_CAP):
    """Normalized triangular lattice bases with diagonal exponents <= bound.

    Yields (diag_exponents, H).  Normalization: minimal valuation over all
    entries is 0, picking one representative per pi^Z class.  An entry with
    code c has valuation 0 exactly when c is not divisible by q, so the test
    runs on the codes before H is built.  Every candidate counts against the
    cap, and the box is refused before the scan: row i has n - 1 - i entries
    above the diagonal with q^(d_i) codes each.
    """
    q = field.q
    total = prod(sum(q ** (d * (n - 1 - i)) for d in range(bound + 1)) for i in range(n))
    if total > cap:
        raise CapExceeded(f"lattice box of {total} candidates exceeds cap {cap}")
    positions = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for diag in product(range(bound + 1), repeat=n):
        rows = [[Laurent.pi(field, diag[i]) if i == j else Laurent.zero(field)
                 for j in range(n)] for i in range(n)]
        for combo in product(*(range(q ** diag[i]) for i, _ in positions)):
            if min(diag) and all(code % q == 0 for code in combo):
                continue
            for (i, j), code in zip(positions, combo):
                digs = []
                while code:
                    digs.append(code % q)
                    code //= q
                rows[i][j] = Laurent.from_digits(field, digs)
            yield diag, tuple(tuple(r) for r in rows)


def triangular_eigen_matrix(H, g1):
    """V = H^{-1} g1 H, with H^{-1} from `counting._triangular_inverse`, if
    integral, else None.  Row i of H^{-1} is zero left of i, so the rows of
    V are formed bottom up, each from the rows of g1 H at and below it, and
    the first non-integral one ends the test."""
    n = len(H)
    inverse = _triangular_inverse(H)
    g1H, V = [None] * n, [None] * n
    for i in reversed(range(n)):
        g1H[i] = mat_mul((g1[i],), H)[0]
        V[i] = mat_mul((inverse[i][i:],), g1H[i:])[0]
        if any(x.valuation() < 0 for x in V[i]):
            return None
    return tuple(V)


def box_fixed_lattices(b, z_prime, m):
    """`counting._fixed_lattices` by scanning its whole box: (on_shell,
    V mod pi^m) for every box lattice whose V is integral."""
    exps = smith_exponents(b)
    bound = m + (exps[-1] - exps[0]) + 2
    g1 = mat_shift(b, -z_prime)
    for diag, H in lattice_bases(b[0][0].field, len(b), bound):
        V = triangular_eigen_matrix(H, g1)
        if V is not None:
            yield max(diag) >= bound, mat_reduce_mod(V, m)


def certified(g):
    """(certificate, reduction) of a regular elliptic g, as `jl_match` holds
    them for `hc_character`: the reduction is `stable_lattice_reduction` at
    level 1, or None when v(det g) is not a multiple of n."""
    cert = regular_elliptic_certify(charpoly(g))
    return cert, None if cert.det_val % len(g) else stable_lattice_reduction(g, 1, cert)


def brute_hc_character(spec, g):
    """`induced.hc_character` by the stable-lattice descent of
    `_fixed_lattices`: the sum of the inflated row over every box lattice
    that g fixes, with no certificate-driven shortcut.  A lattice on the
    box's shell fails."""
    n = len(g)
    det_val = regular_elliptic_certify(charpoly(g)).det_val
    if det_val % n:
        return Cyclotomic.zero()
    grp = spec.table.group
    row = spec.table.values[spec.row]
    total = Cyclotomic.zero()
    for on_shell, Vbar in _fixed_lattices(g, det_val // n, 1):
        assert not on_shell, "the lattice box did not stabilize"
        total = total + row[grp.class_of[grp.index[Vbar]]]
    return _root_power(spec.central, det_val // n) * total


def laplace_det(M):
    """det M by Laplace expansion along the rows, each minor on the lower rows
    kept by its column set: 2^n minors, a determinant that shares nothing with
    `chain.leibniz_det` and takes the 9 x 9 Sylvester matrix in milliseconds."""
    n = len(M)
    field = M[0][0].field
    minors = {(): Laurent.one(field)}
    for k in range(n - 1, -1, -1):
        lower = {}
        for cols in combinations(range(n), n - k):
            total = Laurent.zero(field)
            for i, c in enumerate(cols):
                term = M[k][c] * minors[cols[:i] + cols[i + 1:]]
                total = total - term if i % 2 else total + term
            lower[cols] = total
        minors = lower
    return minors[tuple(range(n))]


def sylvester_resultant(coeffs):
    """Res(P, P') of a monic P, Laurent coefficients lowest first, as the
    determinant of the Sylvester matrix with formal degrees (n, n - 1): the
    oracle of `certify._discriminant`."""
    field = coeffs[0].field
    n = len(coeffs) - 1
    zero = Laurent.zero(field)
    dcoeffs = [sum((coeffs[i] for _ in range(i % field.p)), zero) for i in range(1, n + 1)]
    size = 2 * n - 1
    rows = []
    for shifts, poly in ((n - 1, coeffs), (n, dcoeffs)):
        for k in range(shifts):
            row = [zero] * size
            for i, c in enumerate(reversed(poly)):
                row[k + i] = c
            rows.append(row)
    return laplace_det(rows)


def chain_pi(ch):
    """The code of pi in the chain ring ch: digits (0, 1), which is q, or 0 when m = 1."""
    return ch.q if ch.m > 1 else 0


def label_coords(ch, label, v):
    """Coordinates of v on the generators of a `strata` label (pivots, cols),
    or None when v is not in the label.

    Each generator is 1 at its own pivot row and 0 at the others', so the
    coordinate on generator k is what is left of v at its pivot row.
    """
    w = list(v)
    cs = []
    for r, col in zip(*label):
        c = w[r]
        cs.append(c)
        if c:
            for i in range(len(w)):
                w[i] = ch.sub(w[i], ch.mul(c, col[i]))
    return None if any(w) else tuple(cs)


def slot_loop_summands(n, q, m, h):
    """The rank-h labels of (o/pi^m)^n, filled in free slot by free slot with
    fresh column tuples per label: the oracle of `enumerate_summands`, order
    included."""
    ch = chain_ring(q, m)
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
            out.append((pivots, tuple(tuple(c) for c in cols)))
    return out


def method_echelon(ch, n, gens):
    """Greedy unit-pivot reduction of length-n columns over the chain ring ch,
    one ring method call per entry: the oracle of `ChainRing.echelon`."""
    cols = [list(g) for g in gens if any(g)]
    pivots = []
    piv_cols = []
    for r in range(n):
        hit = None
        for c in cols:
            if ch.is_unit(c[r]):
                hit = c
                break
        if hit is None:
            continue
        cols.remove(hit)
        inv = ch._inv[hit[r]]
        hit = [ch.mul(inv, x) for x in hit]
        for c in cols + piv_cols:
            if c[r]:
                f = c[r]
                for i in range(n):
                    c[i] = ch.sub(c[i], ch.mul(f, hit[i]))
        pivots.append(r)
        piv_cols.append(hit)
    for c in cols:
        if any(c):
            return None
    return tuple(pivots), tuple(tuple(c) for c in piv_cols)


def is_flag(parts, q, m):
    """Whether a chain of labels over o/pi^m, residue field F_q, is a flag:
    ranks strictly increase and each part is a free direct summand of the
    next, checked step by step."""
    ch = chain_ring(q, m)
    for A, B in zip(parts, parts[1:]):
        coords = [label_coords(ch, B, col) for col in A[1]]
        if len(A[0]) >= len(B[0]) or None in coords or ch.echelon(len(B[0]), coords) is None:
            return False
    return bool(parts)


def member_fixed_count(gbar, labels, q, m):
    """How many of the labels the matrix gbar over o/pi^m maps into
    themselves, by membership of each generator's image."""
    ch = chain_ring(q, m)
    return sum(all(label_coords(ch, A, ch.matvec(gbar, col)) is not None for col in A[1])
               for A in labels)


def power(x, e):
    """x^e for a ring element x and e >= 0, by repeated squaring."""
    out = x.ring.one()
    while e:
        if e & 1:
            out = out * x
        x = x * x
        e >>= 1
    return out


def poly_add(f, g):
    ring = (f or g)[0].ring
    z = ring.zero()
    return poly_trim([(f[i] if i < len(f) else z) + (g[i] if i < len(g) else z)
                      for i in range(max(len(f), len(g)))])


def poly_eval(f, x):
    acc = x.ring.zero()
    for c in reversed(f):
        acc = acc * x + c
    return acc


def poly_compose(f, g):
    """f(g(T)) as a coefficient list."""
    acc = [f[-1]]
    for c in reversed(f[:-1]):
        acc = poly_add(poly_mul(acc, g), [c])
    return acc


def pi_power(module, k):
    """[pi^k](T), [pi] composed with itself k times; degree q^(n*k)."""
    out = [module.ring.zero(), module.ring.one()]
    for _ in range(k):
        out = poly_compose(module.pi_poly(), out)
    return out


def reduced_norm(alg, b):
    """The determinant of left multiplication by b, descended to F_q((pi))."""
    return alg.descend_scalar(det(alg.embed_matrix(b)))


def scalar_pi(alg, k=1):
    """The central element pi^k of the division algebra."""
    return alg.elem([Laurent.pi(alg.big, k)] + [0] * (alg.n - 1))


def root_of_unity(N, power=1):
    """zeta_N^power as a cyclotomic number."""
    v = [0] * (power % N + 1)
    v[-1] = 1
    return Cyclotomic(N, v)


def brute_units(ch, n):
    """The invertible n x n matrices over the chain ring ch, in lexicographic
    order of their entries: a full determinant of every one of the
    q^(m n^2) matrices, kept when it is a unit."""
    out = []
    for flat in product(range(ch.size), repeat=n * n):
        M = tuple(flat[i * n:(i + 1) * n] for i in range(n))
        if ch.is_unit(ch.det(M)):
            out.append(M)
    return out

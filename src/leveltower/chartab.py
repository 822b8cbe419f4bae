"""Exact character tables of small finite groups by the modular method.

The table is found over a prime field F_p with p = 1 (mod exponent) and
p > 2*sqrt(|G|) (Dixon, Numer. Math. 10 (1967)).  The class-sum
coefficients, element orders and power maps are read off the group's
right-multiplication permutations of the class representatives, with no
group product; the exponent is the lcm of those orders.  The class-sum
matrices are diagonalized together over F_p: each block is split at the
roots of its characteristic polynomial, taken by Hessenberg reduction.
Degrees are recovered from the second orthogonality relation, and the
mod-p character values are lifted to exact cyclotomic integers by Fourier
inversion over each element order, with the powers of the root of unity
read from one table.  Both orthogonality relations are then re-verified
exactly; any failure raises, it is never papered over.
"""

from math import lcm
from operator import mul

from .cyclotomic import Cyclotomic
from .errors import CapExceeded, OracleMismatch, PreconditionError
from .fq import _factor, _is_prime
from .groups import FiniteGroup

__all__ = ["CharacterTable", "character_table", "check_table_order", "cuspidal_characters"]

TABLE_ORDER_CAP = 5000


def _choose_prime(exponent: int, order: int) -> int:
    p = exponent + 1
    while True:
        if _is_prime(p) and p * p > 4 * order and (p - 1) % exponent == 0:
            return p
        p += 1


def _primitive_root(p: int) -> int:
    fac = _factor(p - 1)
    for g in range(2, p):
        if all(pow(g, (p - 1) // r, p) != 1 for r in fac):
            return g
    raise OracleMismatch(f"no primitive root mod {p}")


def _echelon_mod_p(rows, p: int):
    """Reduced row echelon basis of the span of the given rows over F_p."""
    mat = [list(r) for r in rows]
    ncols = len(mat[0])
    r = 0
    pivots = []
    for c in range(ncols):
        pr = next((i for i in range(r, len(mat)) if mat[i][c] % p), None)
        if pr is None:
            continue
        mat[r], mat[pr] = mat[pr], mat[r]
        inv = pow(mat[r][c], p - 2, p)
        mat[r] = [x * inv % p for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c] % p:
                f = mat[i][c]
                mat[i] = [(x - f * y) % p for x, y in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
    return mat[:r], pivots


def _kernel_mod_p(rows, p: int):
    """Basis of the right kernel of the matrix with the given rows, over F_p."""
    ncols = len(rows[0])
    mat, pivots = _echelon_mod_p(rows, p)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [0] * ncols
        v[fc] = 1
        for ri, pc in enumerate(pivots):
            v[pc] = (-mat[ri][fc]) % p
        basis.append(v)
    return basis


def _charpoly_mod_p(M, p: int):
    """Coefficients of det(T*I - M) over F_p, lowest first, in O(d^3).

    M is brought to upper Hessenberg form H by similarity (Cohen, A Course
    in Computational Algebraic Number Theory, 2.2.9), and the characteristic
    polynomials of the leading blocks of H follow by a three-term recurrence.
    """
    d = len(M)
    H = [[x % p for x in row] for row in M]
    for j in range(d - 2):
        piv = next((i for i in range(j + 1, d) if H[i][j]), None)
        if piv is None:
            continue
        if piv != j + 1:
            H[piv], H[j + 1] = H[j + 1], H[piv]
            for row in H:
                row[piv], row[j + 1] = row[j + 1], row[piv]
        inv = pow(H[j + 1][j], p - 2, p)
        for i in range(j + 2, d):
            u = H[i][j] * inv % p
            if u:
                H[i] = [(x - u * y) % p for x, y in zip(H[i], H[j + 1])]
                for row in H:
                    row[j + 1] = (row[j + 1] + u * row[i]) % p
    # polys[m] = det(T*I - H[:m, :m]), and with 0-based entries h of H
    # polys[m+1] = (T - h_mm) polys[m] - sum_{i<m} h_im h_{i+1,i} ... h_{m,m-1} polys[i]
    polys = [[1]]
    for m in range(d):
        prev = polys[-1]
        cur = [0] + prev
        for t, c in enumerate(prev):
            cur[t] = (cur[t] - H[m][m] * c) % p
        sub = 1
        for i in range(m - 1, -1, -1):
            sub = sub * H[i + 1][i] % p
            if not sub:
                break
            f = H[i][m] * sub % p
            for t, c in enumerate(polys[i]):
                cur[t] = (cur[t] - f * c) % p
        polys.append(cur)
    return polys[-1]


def _roots_mod_p(f, p: int):
    """The roots in F_p of f (coefficients lowest first), by evaluation at each lambda."""
    roots = []
    for lam in range(p):
        acc = 0
        for c in reversed(f):
            acc = (acc * lam + c) % p
        if not acc:
            roots.append(lam)
    return roots


class CharacterTable:
    """Conjugacy data plus the full array of exact character values.

    Every value is a Cyclotomic at the table's conductor e, the group
    exponent, with integer coordinates.
    """

    __slots__ = ("group", "class_reps", "class_sizes", "degrees", "values",
                 "conductor")

    def __init__(self, group, class_reps, class_sizes, degrees, values, conductor):
        self.group = group
        self.class_reps = tuple(class_reps)
        self.class_sizes = tuple(class_sizes)
        self.degrees = tuple(degrees)
        self.values = tuple(tuple(row) for row in values)
        self.conductor = conductor

    @property
    def n_classes(self) -> int:
        return len(self.class_reps)

    def verify(self):
        """Check the degrees and both orthogonality relations as identities in Z[zeta_e].

        Each sum of products x * conj(y), less the integer it should be
        (|G| delta_ij for rows i, j and |G|/|C_a| delta_ab for columns a, b),
        is accumulated in Z[x]/(x^e - 1), where conjugation negates exponents
        mod e, and must vanish there or, reduced once mod Phi_e, in Z[zeta_e].
        """
        order = self.group.order
        e = self.conductor
        k = self.n_classes
        if sum(d * d for d in self.degrees) != order:
            raise OracleMismatch("degree squares do not sum to the group order")
        if any(d < 1 for d in self.degrees):
            raise OracleMismatch("a character degree is not a positive integer")
        terms = [[[(j, c) for j, c in enumerate(v.lift(e).coords) if c] for v in row]
                 for row in self.values]

        def defect(xs, ys, weights, want):
            """The sum less `want`, or None when it vanishes in Z[zeta_e]."""
            acc = [0] * e
            acc[0] = -want
            for x, y, w in zip(xs, ys, weights):
                for a, c in x:
                    for b, d in y:
                        acc[(a - b) % e] += w * c * d
            # most sums vanish already in Z[x]/(x^e - 1) and need no reduction
            if any(acc):
                off = Cyclotomic(e, acc)
                if not off.is_zero():
                    return off
            return None

        for i in range(k):
            for j in range(i, k):
                want = order if i == j else 0
                off = defect(terms[i], terms[j], self.class_sizes, want)
                if off is not None:
                    raise OracleMismatch(
                        f"row orthogonality failed at ({i},{j}): {off + want}")
        cols = list(zip(*terms))
        for a in range(k):
            for b in range(a, k):
                want = order // self.class_sizes[a] if a == b else 0
                off = defect(cols[a], cols[b], [1] * k, want)
                if off is not None:
                    raise OracleMismatch(
                        f"column orthogonality failed at ({a},{b}): {off + want}")
        return True


def check_table_order(order: int):
    """Refuse a group of this order before any table work."""
    if order > TABLE_ORDER_CAP:
        raise CapExceeded(f"group order {order} exceeds the table cap {TABLE_ORDER_CAP}")


def character_table(group: FiniteGroup) -> CharacterTable:
    """The complete exact character table, verified against both orthogonality laws."""
    check_table_order(group.order)
    k = len(group.classes)
    cls_of = group.class_of
    sizes = group.class_sizes
    inverse = group.inverse
    ident = group.identity_index
    # class-sum coefficients, counted at the class representatives z_l (Dixon 1967):
    # A[i][j][l] = #{y : y^-1 in C_i, y z_l in C_j}, the coefficient of C_l in C_i C_j;
    # the cycle of the identity under y -> y z_l gives the order and power map of z_l
    mats = [[[0] * k for _ in range(k)] for _ in range(k)]
    powmaps = []
    for l, z in enumerate(group.class_reps):
        perm = group.right_mul(z)
        for y in range(group.order):
            mats[cls_of[inverse[y]]][cls_of[perm[y]]][l] += 1
        pm, cur = [cls_of[ident]], perm[ident]
        while cur != ident:
            pm.append(cls_of[cur])
            cur = perm[cur]
        powmaps.append(pm)
    e = lcm(*map(len, powmaps))
    p = _choose_prime(e, group.order)
    omega = pow(_primitive_root(p), (p - 1) // e, p)

    # joint diagonalization over F_p: each block is split along the
    # eigenspaces of one class-sum matrix at the roots of its characteristic polynomial
    spaces = [([[1 if a == b else 0 for b in range(k)] for a in range(k)],
               list(range(k)))]
    for i in range(k):
        A = mats[i]
        nxt = []
        for S, pivots in spaces:
            d = len(S)
            if d == 1:
                nxt.append((S, pivots))
                continue
            act = []
            cols = list(zip(*S))
            for v in S:
                img = [sum(map(mul, row, v)) % p for row in A]
                coeffs = [img[c] for c in pivots]
                # img must be the combination of S with these coefficients
                if any((x - sum(map(mul, coeffs, col))) % p for x, col in zip(img, cols)):
                    raise OracleMismatch("class-sum matrix does not preserve a split subspace")
                act.append(coeffs)
            scalar = act[0][0]
            if act == [[scalar if a == b else 0 for b in range(d)] for a in range(d)]:
                # a scalar on the block: its one eigenspace is the whole block
                nxt.append((S, pivots))
                continue
            found = 0
            for lam in _roots_mod_p(_charpoly_mod_p(act, p), p):
                shifted = [[(act[a][b] - (lam if a == b else 0)) % p for b in range(d)]
                           for a in range(d)]
                ker = _kernel_mod_p([list(col) for col in zip(*shifted)], p)
                sub = [[sum(map(mul, coeff, col)) % p for col in cols] for coeff in ker]
                nxt.append(_echelon_mod_p(sub, p))
                found += len(ker)
            if found != d:
                raise OracleMismatch("eigenspace dimensions did not add up")
        spaces = nxt
    if any(len(S) != 1 for S, _ in spaces) or len(spaces) != k:
        raise OracleMismatch(f"splitting stopped at {len(spaces)} blocks, expected {k}")

    ident_cls = cls_of[ident]
    inv_cls = [cls_of[inverse[cls[0]]] for cls in group.classes]
    inv_size = [pow(s, p - 2, p) for s in sizes]

    rows = []
    for S, _ in spaces:
        w = S[0]
        scale = pow(w[ident_cls], p - 2, p)
        w = [x * scale % p for x in w]
        s = sum(w[l] * w[inv_cls[l]] * inv_size[l] for l in range(k)) % p
        d2 = group.order * pow(s, p - 2, p) % p
        deg = next((r for r in range(1, (p + 1) // 2) if r * r % p == d2), None)
        if deg is None:
            raise OracleMismatch("no square root below p/2 for a degree")
        theta = [deg * w[l] * inv_size[l] % p for l in range(k)]
        rows.append((deg, theta))

    # lift mod-p values to exact cyclotomic sums of roots of unity:
    # the multiplicity of zeta_e^(step a) at z is (1/dl) sum_t theta(z^t) omega^(-step a t),
    # with the rows omega^(-step a t) over t built once per element order dl
    omega_pow = [1] * e
    for j in range(1, e):
        omega_pow[j] = omega_pow[j - 1] * omega % p
    fourier = {}
    for pm in powmaps:
        dl = len(pm)
        if dl not in fourier:
            step = e // dl
            fourier[dl] = (step, pow(dl, p - 2, p),
                           [[omega_pow[-step * a * t % e] for t in range(dl)]
                            for a in range(dl)])
    chars = []
    lifted = {}        # (step, multiplicities) -> value, shared by equal values
    for deg, theta in rows:
        vals = []
        for pm in powmaps:
            step, inv_dl, omega_rows = fourier[len(pm)]
            orbit = [theta[c] for c in pm]
            mults = tuple(sum(map(mul, orbit, row)) * inv_dl % p for row in omega_rows)
            if max(mults) > deg:
                raise OracleMismatch("eigenvalue multiplicity exceeds the degree")
            if sum(mults) != deg:
                raise OracleMismatch("eigenvalue multiplicities do not sum to the degree")
            key = (step, mults)
            value = lifted.get(key)
            if value is None:
                mult = [0] * e
                mult[::step] = mults
                value = lifted[key] = Cyclotomic(e, mult)
            vals.append(value)
        chars.append((deg, vals))

    chars.sort(key=lambda c: (c[0], tuple(v.coords for v in c[1])))
    table = CharacterTable(group,
                           [group.elements[cls[0]] for cls in group.classes],
                           sizes,
                           [c[0] for c in chars],
                           [c[1] for c in chars],
                           e)
    table.verify()
    return table


def cuspidal_characters(table: CharacterTable):
    """Indices of the characters with no Borel-induced constituent.

    Only meaningful for GL_2 over the residue field: a character chi is kept
    when it has no vector fixed by the unipotent radical U of the
    upper-triangular subgroup, that is when sum_{u in U} chi(u) = 0, since
    dim V^U = (1/q) sum_u chi(u) and V^U is exactly the sum of the Borel
    constituents of V that are trivial on U.  U is the q upper unitriangular
    matrices.  The count must be q(q-1)/2.
    """
    group = table.group
    meta = group.meta
    if meta.get("kind") != "gl" or meta.get("n") != 2 or meta.get("m") != 1:
        raise PreconditionError("cuspidality testing expects GL_2 over the residue field")
    q = meta["q"]
    u_classes = [group.class_of[i] for i, g in enumerate(group.elements)
                 if g[0][0] == g[1][1] == 1 and g[1][0] == 0]
    if len(u_classes) != q:
        raise OracleMismatch("unipotent radical has the wrong order")
    out = tuple(row for row, chi in enumerate(table.values)
                if sum((chi[c] for c in u_classes), Cyclotomic.zero()).is_zero())
    if len(out) != q * (q - 1) // 2:
        raise OracleMismatch(
            f"found {len(out)} cuspidal characters, expected {q * (q - 1) // 2}")
    return out

"""Fixed-coset counting: the structured route against the brute route, and the
brute route's stable-lattice descent against a scan of its whole box."""

import random
from collections import Counter
from fractions import Fraction
from itertools import product
from math import prod

import pytest

from conftest import (
    box_fixed_lattices,
    brute_units,
    certified,
    counting_suite,
    lattice_bases,
    random_unit_matrix,
    triangular_eigen_matrix,
)

from leveltower import chain, cli, counting, matrices
from leveltower.chain import ChainRing, gl_elements
from leveltower.counting import (
    _fixed_lattices,
    _frame_count,
    _lattice_eigen_matrix,
    _triangular_inverse,
    count_brute,
    count_structured,
    normalizer_split,
    stable_lattice_reduction,
    unit_group_order_unramified,
)
from leveltower.errors import CapExceeded, PreconditionError
from leveltower.fq import FqField, split_prime_power
from leveltower.laurent import Laurent
from leveltower.matrices import (
    adjugate,
    charpoly,
    companion,
    det,
    mat_identity,
    mat_shift,
    smith_exponents,
)


def _codes(field, *cs):
    return [Laurent.const(field, c) for c in cs]


def _inv_unit(mat):
    field = mat[0][0].field
    d = det(mat)
    di = field.inv(d.coeff(0))
    adj = adjugate(mat)
    return [[entry.scale(di) for entry in row] for row in adj]


@pytest.mark.parametrize("q,codes,m,expected", [
    (2, (1, 1, 1), 1, 3),
    (2, (1, 1, 1), 2, 12),
    (3, (1, 0, 1), 1, 8),
    (3, (1, 0, 1), 2, 72),
])
def test_frozen_counts_self_pairing(q, codes, m, expected):
    field = FqField(q, 1)
    b = companion(field, _codes(field, *codes))
    g = _inv_unit(b)
    s = count_structured(b, g, m, certified(b)[0])
    bf = count_brute(b, g, m)
    assert s.count == expected
    assert bf.count == expected
    assert bf.stable
    assert expected == unit_group_order_unramified(2, q, m)


def test_frozen_count_rank_three():
    field = FqField(2, 1)
    b = companion(field, _codes(field, 1, 1, 0, 1))
    g = _inv_unit(b)
    s = count_structured(b, g, 1, certified(b)[0])
    bf = count_brute(b, g, 1)
    assert s.count == bf.count == 7 == unit_group_order_unramified(3, 2, 1)
    assert bf.stable


def test_ramified_element_count_vanishes():
    field = FqField(2, 1)
    b = companion(field, [Laurent.pi(field, 1), Laurent.zero(field),
                          Laurent.const(field, 1)])
    g = mat_identity(field, 2)
    s = count_structured(b, g, 1, certified(b)[0])
    bf = count_brute(b, g, 1)
    assert s.count == bf.count == 0
    assert counting._z_prime(b) == Fraction(1, 2)
    assert bf.stable


def test_stable_lattice_reduction_unit_case():
    field = FqField(2, 1)
    b = companion(field, _codes(field, 1, 1, 1))
    H, Vbar, zp = stable_lattice_reduction(b, 1, certified(b)[0])
    assert zp == 0
    ch_char = [c for c in charpoly(b)]
    # the reduced frame matrix has the same residual charpoly as b
    ch = ChainRing(field, 1)
    assert list(ch.charpoly(Vbar)) == [c.coeff(0) for c in ch_char]


def test_stable_lattice_reduction_rejects_half_integral():
    field = FqField(2, 1)
    b = companion(field, [Laurent.pi(field, 1), Laurent.zero(field),
                          Laurent.const(field, 1)])
    with pytest.raises(PreconditionError):
        stable_lattice_reduction(b, 1, certified(b)[0])


def test_noncommensurable_g_rejected():
    field = FqField(2, 1)
    b = companion(field, _codes(field, 1, 1, 1))
    g = [[Laurent.pi(field, 1), Laurent.zero(field)],
         [Laurent.zero(field), Laurent.const(field, 1)]]
    with pytest.raises(PreconditionError):
        count_structured(b, g, 1, certified(b)[0])
    with pytest.raises(PreconditionError):
        count_brute(b, g, 1)


def test_randomized_routes_agree():
    suite = counting_suite()
    assert len(suite) >= 20
    nonzero_seen = 0
    for inst in suite:
        b, g, m, cert = inst["b"], inst["g"], inst["m"], inst["cert"]
        s = count_structured(b, g, m, cert)
        bf = count_brute(b, g, m)
        assert bf.stable, inst
        assert s.count == bf.count, inst
        v_sum = det(g).valuation() + cert.det_val
        if v_sum % 2 != 0:
            assert s.count == 0
        if s.count:
            nonzero_seen += 1
            assert v_sum % 2 == 0
    assert nonzero_seen >= 1


def test_self_pairing_counts_scale_with_twist():
    # conjugation-invariant: twisting g by pi^2 keeps z integral and the count
    field = FqField(2, 1)
    b = companion(field, _codes(field, 1, 1, 1))
    g = _inv_unit(b)
    base = count_structured(b, g, 1, certified(b)[0]).count
    twisted = count_structured(b, mat_shift(g, 2), 1, certified(b)[0]).count
    assert base == twisted == 3


def _box_size(q, n, bound):
    """Triangular candidates with diagonal exponents in [0, bound]; entry (i, j)
    above the diagonal ranges over q^(d_i) codes."""
    return sum(prod(q ** diag[i] for i in range(n) for _ in range(i + 1, n))
               for diag in product(range(bound + 1), repeat=n))


@pytest.mark.parametrize("q,n,bound", [(2, 3, 2), (3, 2, 2), (2, 2, 3)])
def test_lattice_bases_yield_exactly_the_normalized_candidates(q, n, bound):
    # the unnormalized candidates are pi times the candidates of the box bound - 1
    field = FqField(q, 1)
    total = _box_size(q, n, bound)
    bases = list(lattice_bases(field, n, bound, total))
    assert len(bases) == total - _box_size(q, n, bound - 1)
    assert len({H for _, H in bases}) == len(bases)
    for diag, H in bases:
        assert [H[i][i] for i in range(n)] == [Laurent.pi(field, d) for d in diag]
        assert all(H[i][j].is_zero() for i in range(n) for j in range(i))
        assert min(x.valuation() for row in H for x in row) == 0
    with pytest.raises(CapExceeded):
        list(lattice_bases(field, n, bound, total - 1))


def _assert_lattice_tests_agree(field, n, b, bound):
    """On every basis H, the triangular inverse is pi^(-s) adj(H) with
    det H = pi^s, and V formed from it agrees with the adjugate test for b,
    pi*b and pi^2*b, which share g1 = pi^(-z') b."""
    z0 = det(b).valuation() // n
    g1 = mat_shift(b, -z0)
    integral = 0
    for diag, H in lattice_bases(field, n, bound):
        inverse = tuple(tuple(row) for row in _triangular_inverse(H))
        assert inverse == mat_shift(adjugate(H), -sum(diag)), H
        fast = triangular_eigen_matrix(H, g1)
        for k in range(3):
            slow = _lattice_eigen_matrix(H, mat_shift(b, k), z0 + k)
            assert fast == slow, (H, k)
            integral += fast is not None
    return integral


def _unipotent_rank_three():
    field = FqField(2, 1)
    one, zero = Laurent.one(field), Laurent.zero(field)
    return ((one, one, zero), (zero, one, one), (zero, zero, one))


def test_triangular_inverse_matches_adjugate_rank_three_box():
    # a unipotent b fixes hundreds of lattices in the box, so off-diagonal H
    # entries meet z' > 0; an elliptic b fixes one class and would not
    assert _assert_lattice_tests_agree(FqField(2, 1), 3, _unipotent_rank_three(), 3) > 100


def test_triangular_inverse_matches_adjugate_on_counting_suite():
    integral = 0
    for inst in counting_suite():
        integral += _assert_lattice_tests_agree(inst["field"], 2, inst["b"], 3)
    assert integral > 0


def _descent_matches_box(b, m):
    """The descent and the box scan find the same (on_shell, Vbar) multiset;
    returns how many lattices they found."""
    z = det(b).valuation() // len(b)
    found = Counter(_fixed_lattices(b, z, m))
    assert found == Counter(box_fixed_lattices(b, z, m)), (b, m)
    return sum(found.values())


def test_descent_matches_the_box_on_counting_suite():
    checked = 0
    for inst in counting_suite():
        if det(inst["b"]).valuation() % 2:
            continue  # z' is not an integer, so no lattice is tested
        for m, k in product((1, 2), (0, 1)):
            assert _descent_matches_box(mat_shift(inst["b"], k), m) == 1
            checked += 1
    assert checked >= 60


def test_descent_matches_the_box_on_rank_three_elements():
    # the unipotent b's invariant subspaces mod pi form a chain; 1 + pi*C
    # has a scalar residue, so its planes mod pi are no cyclic span and the
    # descent reaches them only as sums
    assert _descent_matches_box(_unipotent_rank_three(), 1) == 155
    field = FqField(2, 1)
    C = companion(field, _codes(field, 1, 1, 0, 1))
    b = tuple(tuple(x.shift(1) + (Laurent.one(field) if i == j else Laurent.zero(field))
                    for j, x in enumerate(row)) for i, row in enumerate(C))
    assert _descent_matches_box(b, 1) == 29


def _random_integral(rng, field, n, spread):
    """A random integral n x n b with v(det b) divisible by n, entries of
    degree < 2 in pi, whose elementary divisor exponents spread by at most
    `spread`."""
    while True:
        b = tuple(tuple(Laurent.from_digits(field, [rng.randrange(field.q) for _ in range(2)])
                        for _ in range(n)) for _ in range(n))
        d = det(b)
        if d.is_zero() or d.valuation() % n:
            continue
        exps = smith_exponents(b)
        if exps[-1] - exps[0] <= spread:
            return b


def test_descent_matches_the_box_on_random_integral_elements():
    # mostly not elliptic: scalar, split and unipotent residues fix many
    # lattices, and a non-integral characteristic polynomial fixes none
    rng = random.Random(24)
    found = []
    for case in range(100):
        if case % 20 == 19:
            b, m = _random_integral(rng, FqField(2, 1), 3, 0), 1
        else:
            b = _random_integral(rng, FqField(rng.choice((2, 3)), 1), 2, 2)
            m = rng.choice((1, 2))
        found.append(_descent_matches_box(b, m))
    assert 0 in found and max(found) >= 10


def test_count_brute_makes_no_adjugate_call(monkeypatch):
    calls = []

    def counted(A):
        calls.append(A)
        return adjugate(A)

    monkeypatch.setattr(counting, "adjugate", counted)
    field = FqField(2, 1)
    b = companion(field, _codes(field, 1, 1, 0, 1))
    g = _inv_unit(b)
    assert count_brute(b, g, 1).count == 7
    assert calls == []
    assert count_structured(b, g, 1, certified(b)[0]).count == 7
    assert calls, "the structured route still takes the adjugate step"


def _frame_pairs(ch, n, units, rng):
    """(V, T) pairs of the given units: V = T = I, three conjugate pairs, two
    with different characteristic polynomials (so never conjugate)."""
    identity = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    pairs = [(identity, identity)]
    while len(pairs) < 4:
        T, y = rng.choice(units), rng.choice(units)
        pairs.append((ch.matmul(ch.matmul(y, T), ch.mat_inv(y)), T))
    while len(pairs) < 6:
        V, T = rng.choice(units), rng.choice(units)
        if ch.charpoly(V) != ch.charpoly(T):
            pairs.append((V, T))
    return pairs


@pytest.mark.parametrize("q,m,n", [(2, 1, 2), (2, 2, 2), (2, 3, 2), (3, 2, 2), (4, 1, 2),
                                   (2, 1, 3)])
def test_frame_count_matches_the_unit_scan(q, m, n):
    ch = ChainRing(FqField(*split_prime_power(q)), m)
    rng = random.Random(q * 100 + m * 10 + n)
    units = brute_units(ch, n)
    counts = []
    for V, T in _frame_pairs(ch, n, units, rng):
        scan = sum(ch.matmul(V, y) == ch.matmul(y, T) for y in units)
        assert _frame_count(ch, n, V, T) == scan, (V, T)
        counts.append(scan)
    assert counts[0] == len(units)
    assert all(counts[1:4]) and counts[4:] == [0, 0]


def test_frame_count_lists_only_residue_units(monkeypatch):
    # the unit scan over o/pi^m leaves the count path: only the residue
    # units mod pi are listed, even at m = 4
    rings = []

    def recorded(ch, n, *args, **kwargs):
        rings.append(ch.m)
        return gl_elements(ch, n, *args, **kwargs)

    for module in (chain, counting):
        monkeypatch.setattr(module, "gl_elements", recorded)
    code = cli.main(["count", "--q", "2", "--n", "2", "--m", "4", "--b", "x:3",
                     "--g", "companion:T^2+T+P*T+1"])
    assert code == 0
    assert rings and set(rings) == {1}


@pytest.mark.parametrize("q", [2, 3])
def test_normalizer_split_agrees_with_the_smith_test(monkeypatch, q):
    # g is in pi^Z GL_n(o) exactly when its elementary divisor exponents are
    # all equal; normalizer_split decides it with one determinant
    field = FqField(q)
    rng = random.Random(90 + q)
    sizes = []
    leibniz = matrices.leibniz_det

    def recorded(M, *ops):
        sizes.append(len(M))
        return leibniz(M, *ops)

    outcomes = Counter()
    for trial in range(48):
        n = 1 + trial % 4
        kind = trial // 4 % 3
        if kind == 0:
            g = mat_shift(random_unit_matrix(field, n, rng), rng.randrange(3))
        else:
            g = [[Laurent(field, {e: rng.randrange(q) for e in range(rng.randrange(3))})
                  for _ in range(n)] for _ in range(n)]
            if kind == 2:  # singular: a repeated row, or the zero matrix at n = 1
                g[-1] = g[0] if n > 1 else [Laurent.zero(field)]
        try:
            exps = smith_exponents(g)
        except PreconditionError as exc:
            assert str(exc) == "matrix is singular, no elementary divisors"
            outcome = "singular"
        else:
            outcome = "inside" if exps[0] == exps[-1] else "outside"
        outcomes[outcome] += 1
        sizes.clear()
        monkeypatch.setattr(matrices, "leibniz_det", recorded)
        try:
            got = normalizer_split(g)
        except PreconditionError as exc:
            got = str(exc)
        monkeypatch.undo()
        assert sizes == [n]
        if outcome == "singular":
            assert got == "matrix is singular, no elementary divisors"
        elif outcome == "outside":
            assert got == (f"element has v(det g) = {sum(exps)} but least entry valuation "
                           f"{exps[0]}: not in pi^Z GL_n(o), so it does not normalize K_m")
        else:
            w, u = got
            assert w == exps[0] and u == mat_shift(g, -w)
            assert det(u).valuation() == 0
    assert set(outcomes) == {"singular", "inside", "outside"}

"""Boundary labels: summand enumeration, group action, flags."""

import itertools
import random

import pytest
from conftest import (
    chain_pi,
    chain_ring,
    is_flag,
    label_coords,
    member_fixed_count,
    slot_loop_summands,
)

from leveltower.certify import regular_elliptic_certify
from leveltower import strata
from leveltower.chain import ChainRing
from leveltower.errors import CapExceeded, NotAFlag, OracleMismatch, PreconditionError
from leveltower.formal import gl_order
from leveltower.fq import FqField
from leveltower.laurent import Laurent
from leveltower.matrices import charpoly, companion, mat_reduce_mod
from leveltower.strata import (
    enumerate_flags,
    enumerate_summands,
    flag_of_point,
    strata_fixed_count,
)


def gaussian_binomial(n: int, h: int, q: int) -> int:
    num = den = 1
    for i in range(h):
        num *= q ** n - q ** i
        den *= q ** h - q ** i
    return num // den


def brute_subspace_count(n: int, h: int, q: int) -> int:
    """Count h-dimensional subspaces of F_q^n by collecting spans of tuples."""
    f = FqField(q, 1)
    vectors = list(itertools.product(range(q), repeat=n))

    def span(gens):
        out = {tuple([0] * n)}
        for coeffs in itertools.product(range(q), repeat=len(gens)):
            acc = [0] * n
            for c, g in zip(coeffs, gens):
                if c:
                    acc = [f.add(a, f.mul(c, x)) for a, x in zip(acc, g)]
            out.add(tuple(acc))
        return frozenset(out)

    seen = set()
    for gens in itertools.product(vectors, repeat=h):
        s = span(gens)
        if len(s) == q ** h:
            seen.add(s)
    return len(seen)


def test_census_n3_q2_m1():
    counts = [len(enumerate_summands(3, 2, 1, h)) for h in (1, 2)]
    assert counts == [7, 7]
    assert sum(counts) == 14


@pytest.mark.parametrize("n,q", [(2, 2), (2, 3), (3, 2)])
def test_level_one_counts_are_gaussian_binomials(n, q):
    for h in range(1, n):
        count = len(enumerate_summands(n, q, 1, h))
        assert count == gaussian_binomial(n, h, q)
        assert count == brute_subspace_count(n, h, q)


def test_higher_level_label_counts():
    # free rank-h summands of (o/pi^m)^n: Gaussian binomial times q^(h(n-h)(m-1))
    for n, q, m, h in [(2, 2, 2, 1), (3, 2, 2, 1), (3, 2, 2, 2), (2, 3, 2, 1)]:
        expected = gaussian_binomial(n, h, q) * q ** (h * (n - h) * (m - 1))
        assert len(enumerate_summands(n, q, m, h)) == expected


@pytest.mark.parametrize("n,q,m", [(3, 2, 1), (3, 2, 2), (5, 2, 2), (3, 3, 2), (2, 4, 3),
                                   (4, 3, 1), (2, 9, 2)])
def test_labels_equal_the_slot_loop(n, q, m):
    for h in range(n + 1):
        assert enumerate_summands(n, q, m, h) == slot_loop_summands(n, q, m, h), h


def test_labels_of_one_pivot_pattern_share_their_columns():
    # 9,920 labels hold 19,840 columns of 375 distinct values; a fresh tuple
    # per label column would make 19,840 column objects
    labels = enumerate_summands(5, 2, 2, 2)
    columns = [col for _, cols in labels for col in cols]
    assert len({id(col) for col in columns}) <= 2 * len(set(columns))


def test_label_census_is_capped_before_it_is_built(monkeypatch):
    # (3,2,2) has 28 labels of each rank: admitted at a cap of 28, refused at 27
    monkeypatch.setattr(strata, "LABEL_CAP", 28)
    assert len(enumerate_summands(3, 2, 2, 1)) == 28
    monkeypatch.setattr(strata, "LABEL_CAP", 27)
    with pytest.raises(CapExceeded, match=r"rank-2 labels of \(o/pi\^2\)\^3 exceed cap 27"):
        enumerate_summands(3, 2, 2, 2)
    monkeypatch.undo()
    # 2^18 - 1 lines of F_2^18 by the closed form; at least 2^999 lines of F_2^1000
    # by the lower bound
    for n in (18, 1000):
        with pytest.raises(CapExceeded, match=f"rank-1 labels of \\(o/pi\\^1\\)\\^{n} exceed"):
            enumerate_summands(n, 2, 1, 1)


def _certified_unit_companions():
    """Certified regular elliptic matrices with unit determinant, q in {2,3}."""
    f2, f3 = FqField(2, 1), FqField(3, 1)
    specs = [
        (f2, 2, (1, 1, 1)),
        (f3, 2, (1, 0, 1)),
        (f3, 2, (2, 2, 1)),
        (f3, 2, (2, 1, 1)),
        (f2, 3, (1, 1, 0, 1)),
        (f2, 3, (1, 0, 1, 1)),
        (f3, 3, (1, 2, 0, 1)),
        (f3, 3, (2, 0, 1, 1)),
    ]
    out = []
    for field, n, codes in specs:
        pol = [Laurent.const(field, c) for c in codes]
        out.append((field, n, companion(field, pol)))
        # a pi-bump of the constant coefficient keeps the certificate
        bumped = list(pol)
        bumped[0] = bumped[0] + Laurent.pi(field, 1)
        out.append((field, n, companion(field, bumped)))
    return out


def test_certified_elliptic_fix_no_stratum():
    instances = _certified_unit_companions()
    assert len(instances) >= 10
    for field, n, g in instances:
        cert = regular_elliptic_certify(charpoly(g))
        assert cert.det_val == 0
        for h in range(1, n):
            for m in (1, 2, 3):
                assert strata_fixed_count(mat_reduce_mod(g, m), n, field.q, m, h) == 0


def test_non_unit_matrix_rejected_by_action():
    f2 = FqField(2, 1)
    g = [[Laurent.pi(f2, 1), Laurent.zero(f2)], [Laurent.zero(f2), Laurent.const(f2, 1)]]
    with pytest.raises(PreconditionError):
        strata_fixed_count(mat_reduce_mod(g, 1), 2, 2, 1, 1)


def test_identity_fixes_every_label():
    f2 = FqField(2, 1)
    g = [[Laurent.const(f2, 1), Laurent.zero(f2)], [Laurent.zero(f2), Laurent.const(f2, 1)]]
    total = len(enumerate_summands(2, 2, 1, 1))
    assert strata_fixed_count(mat_reduce_mod(g, 1), 2, 2, 1, 1) == total


@pytest.mark.parametrize("n,q,m", [(2, 2, 2), (3, 2, 2), (2, 3, 2), (4, 2, 1),
                                   (2, 2, 3), (2, 2, 4), (3, 2, 3), (2, 3, 3)])
def test_fixed_label_counts_match_membership(n, q, m):
    # strata_fixed_count compares echelon forms, and returns 0 when g mod pi
    # fixes no label; the oracle tests whether each generator's image lies in
    # the label.  Random invertible matrices are mostly not elliptic, so many
    # fix some labels but not all.  A unit 1 + pi^j X, 1 <= j < m, is the
    # identity mod pi^j: it fixes every label mod pi, and some but not all of
    # them over o/pi^m.
    ch = chain_ring(q, m)
    rng = random.Random(100 * n + 10 * q + m)
    identity = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    mats = [identity]
    while len(mats) < 10:
        g = tuple(tuple(rng.randrange(ch.size) for _ in range(n)) for _ in range(n))
        if ch.is_unit(ch.det(g)):
            mats.append(g)
    near = [tuple(tuple((int(i == k) + q ** j * rng.randrange(ch.size)) % ch.size
                        for k in range(n)) for i in range(n))
            for j in range(1, m) for _ in range(3)]
    partial = near_partial = 0
    for g in mats + near:
        for h in range(1, n):
            labels = enumerate_summands(n, q, m, h)
            count = strata_fixed_count(g, n, q, m, h)
            assert count == member_fixed_count(g, labels, q, m), (g, h)
            if g == identity:
                assert count == len(labels)
            partial += 0 < count < len(labels)
            near_partial += g in near and 0 < count < len(labels)
    assert partial > 0
    assert near_partial > 0 or m == 1


def test_flag_counts():
    assert len(enumerate_flags(2, 2, 1)) == 3
    assert len(enumerate_flags(3, 2, 1)) == 21
    # full flags in F_q^n: prod of Gaussian binomial ladders
    assert len(enumerate_flags(2, 3, 1)) == 4
    assert len(enumerate_flags(3, 3, 1)) == 13 * 4


@pytest.mark.parametrize("n,q,m", [(2, 3, 2), (3, 2, 2), (2, 2, 3), (4, 2, 1)])
def test_flag_count_is_gl_over_borel(n, q, m):
    # GL_n(o/pi^m) acts transitively on full flags; the stabilizer of the
    # standard flag is the upper-triangular group mod pi^m
    borel = (q - 1) ** n * q ** ((m - 1) * n + m * n * (n - 1) // 2)
    assert len(enumerate_flags(n, q, m)) == gl_order(n, q, m) // borel


def pairwise_flags(n, q, m):
    """Full flags found by search: extend every chain by each label of the
    next rank that its top part is a free direct summand of."""
    chains = [(A,) for A in enumerate_summands(n, q, m, 1)]
    for h in range(2, n):
        chains = [c + (B,) for c in chains for B in enumerate_summands(n, q, m, h)
                  if is_flag((c[-1], B), q, m)]
    return set(chains)


@pytest.mark.parametrize("n,q,m", [(3, 2, 2), (3, 3, 1), (4, 2, 1)])
def test_built_flags_equal_pairwise_search(n, q, m):
    flags = enumerate_flags(n, q, m)
    assert len(set(flags)) == len(flags)
    assert set(flags) == pairwise_flags(n, q, m)


@pytest.mark.parametrize("n,q,m", [(3, 2, 2), (3, 3, 1), (4, 2, 1)])
def test_built_flags_pass_the_step_check(n, q, m):
    # enumerate_flags proves its chains flags by construction; is_flag checks each step
    for chain in enumerate_flags(n, q, m):
        assert is_flag(chain, q, m)
        assert tuple(len(pivots) for pivots, _ in chain) == tuple(range(1, n))


@pytest.mark.parametrize("wrong", ["rescaled", "none"])
def test_a_wrong_carried_label_is_caught(monkeypatch, wrong):
    # the fifth carried column comes back scaled by the unit 1 + pi (the same
    # span, but not the canonical form) or by pi (no unit entry left)
    matvec = ChainRing.matvec
    carried = []

    def corrupt(self, M, v):
        got = matvec(self, M, v)
        carried.append(got)
        if len(carried) == 5:
            pi = chain_pi(self)
            return self.vscale(1 + pi if wrong == "rescaled" else pi, got)
        return got

    monkeypatch.setattr(ChainRing, "matvec", corrupt)
    with pytest.raises(OracleMismatch, match="carried into a hyperplane is not a label"):
        enumerate_flags(3, 2, 2)
    # the first hyperplane carries the six columns of the lines of (o/pi^2)^2
    # before its first lookup
    assert len(carried) == 6


def test_enumerate_flags_makes_no_elimination(monkeypatch):
    # a carried canonical label is already the canonical form of its span,
    # so one lookup certifies it
    echelon = ChainRing.echelon
    calls = []

    def counted(self, n, gens):
        calls.append(n)
        return echelon(self, n, gens)

    monkeypatch.setattr(ChainRing, "echelon", counted)
    assert len(enumerate_flags(4, 2, 2)) == 20160
    assert calls == []


def test_flag_census_is_capped_before_it_is_built(monkeypatch):
    # (3,2,2) has 2^3 * [3]_2! = 168 full flags: admitted at a cap of 168, refused at 167
    monkeypatch.setattr(strata, "FLAG_CAP", 168)
    assert len(enumerate_flags(3, 2, 2)) == 168
    monkeypatch.setattr(strata, "FLAG_CAP", 167)
    with pytest.raises(CapExceeded, match=r"full flags of \(o/pi\^2\)\^3 exceed cap 167"):
        enumerate_flags(3, 2, 2)
    monkeypatch.undo()
    # 2^10 * [5]_2! = 9,999,360 by the closed form; at least 2^(2*45) by the lower bound
    for n in (5, 10):
        with pytest.raises(CapExceeded, match=f"full flags of \\(o/pi\\^2\\)\\^{n} exceed"):
            enumerate_flags(n, 2, 2)


def test_flag_checks_every_step_after_enumeration():
    # a label inside a larger label is a free direct summand of it, which is
    # why flag_of_point needs no step check: over the labels enumerate_flags
    # carries, the step check accepts exactly the pairs where the line lies
    # in the plane
    enumerate_flags(3, 2, 2)
    ch = chain_ring(2, 2)
    lines, planes = enumerate_summands(3, 2, 2, 1), enumerate_summands(3, 2, 2, 2)
    verdicts = [(is_flag((A, B), 2, 2),
                 all(label_coords(ch, B, col) is not None for col in A[1]))
                for A in lines for B in planes]
    assert {v for v, _ in verdicts} == {True, False}
    assert all(step == inside for step, inside in verdicts)


def test_flags_need_two_ranks():
    for n in (0, 1):
        with pytest.raises(PreconditionError, match="empty rank signature"):
            enumerate_flags(n, 2, 1)


def test_flag_of_point_recovers_a_flag():
    values = {
        (0, 1): (1,),
        (1, 0): (2,),
        (1, 1): (2,),
        (0, 0): (0,),
    }
    flag = flag_of_point(values, 2, 2, 1)
    assert is_flag(flag, 2, 1)
    assert tuple(len(pivots) for pivots, _ in flag) == (1, 2)
    ch = chain_ring(2, 1)
    assert label_coords(ch, flag[0], (0, 1)) is not None
    assert label_coords(ch, flag[0], (1, 0)) is None


def test_flag_of_point_trivial_single_tier():
    values = {v: (1,) for v in itertools.product(range(2), repeat=2) if any(v)}
    flag = flag_of_point(values, 2, 2, 1)
    assert tuple(len(pivots) for pivots, _ in flag) == (2,)


def test_flag_of_point_rejects_unclosed_cut():
    values = {
        (0, 1): (1,),
        (1, 1): (1,),
        (1, 0): (2,),
    }
    with pytest.raises(NotAFlag):
        flag_of_point(values, 2, 2, 1)


def test_flag_of_point_level_two_cuts():
    # the free line through e1 in (o/pi^2)^2 has the three nonzero points
    # (1,0), (2,0), (3,0); dropping the pi-multiple (2,0) from the low tier
    # leaves a cut that is not scalar-stable and must be rejected
    low = {(1, 0), (2, 0), (3, 0)}
    vectors = [(a, b) for a in range(4) for b in range(4) if (a, b) != (0, 0)]
    good = {v: ((1,) if v in low else (2,)) for v in vectors}
    flag = flag_of_point(good, 2, 2, 2)
    assert is_flag(flag, 2, 2)
    assert tuple(len(pivots) for pivots, _ in flag) == (1, 2)
    bad = dict(good)
    bad[(2, 0)] = (2,)
    with pytest.raises(NotAFlag):
        flag_of_point(bad, 2, 2, 2)

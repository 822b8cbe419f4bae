"""Characters of representations induced from pi^Z K_0, and depth-zero matching.

The inducing data is a character of GL_n(o/pi) inflated to K_0 and extended
to pi^Z K_0 by a central root of unity.  For a certified regular elliptic
argument the character of the induced representation is a finite sum over
the cosets h with h^{-1} g h in pi^Z K_0; the certificate leaves one stable
lattice class, which `counting.stable_lattice_reduction` finds, so
`hc_character` reads one table value.  That reduction depends only on the
argument, so `jl_match` computes it once per elliptic class and passes it to
every cuspidal row's evaluation.  The same number is an average
of level-1 fixed-coset counts: summing count(g, c, 1) * chi(c) over GL_n(F_q),
with c the constant lifts, gives |GL_n(F_q)| times the conjugate of this
character, which the tests check on both counting routes.

`jl_match` compares these induced characters against the character table of
the quaternion unit quotient: for each cuspidal character of GL_2(F_q) it
looks for the unique quotient character whose values are the exact
negatives on every regular elliptic class, classes on the two sides being
aligned by reduced characteristic polynomial.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm

from .certify import EllipticCertificate, regular_elliptic_certify
from .chartab import CharacterTable, character_table, check_table_order, cuspidal_characters
from .counting import stable_lattice_reduction
from .cyclotomic import Cyclotomic
from .errors import Inconclusive, OracleMismatch, PreconditionError
from .formal import gl_order
from .groups import group_gl, group_quaternion_quotient
from .matrices import companion

_ONE = Cyclotomic.from_rational(1)


def _root_power(c: Cyclotomic, a: int) -> Cyclotomic:
    # inverse via conjugation, valid because c is constrained to |c| = 1
    out = _ONE
    base = c if a >= 0 else c.conjugate()
    for _ in range(abs(a)):
        out = out * base
    return out


@dataclass(frozen=True)
class InducedCharSpec:
    """A character of pi^Z K_0: row `row` of `table` (a table of GL_n(o/pi))
    inflated through K_0 -> GL_n(o/pi), sending the scalar pi to `central`.
    pi^Z meets K_0 trivially, so any root of unity is a consistent central
    value.
    """

    table: CharacterTable
    row: int
    central: Cyclotomic = _ONE

    def __post_init__(self):
        meta = self.table.group.meta
        if meta.get("kind") != "gl" or meta.get("m") != 1:
            raise PreconditionError("the inducing table must be one of GL_n(o/pi)")
        if not 0 <= self.row < len(self.table.degrees):
            raise PreconditionError("character row out of range")
        if self.central * self.central.conjugate() != _ONE:
            raise PreconditionError("the central value must be a root of unity")


def hc_character(spec: InducedCharSpec, g, cert: EllipticCertificate,
                 reduction) -> Cyclotomic:
    """Character of c-Ind(lambda) at a certified regular elliptic g.

    Evaluates sum_{h in G/pi^Z K_0, h^-1 g h in pi^Z K_0} lambda(h^-1 g h).
    Certification keeps the support finite and pins it to the single stable
    lattice class.  `cert` is g's certificate and `reduction` is
    `stable_lattice_reduction(g, 1, cert)`, or None when v(det g) is not a
    multiple of n and the support is empty.
    """
    field = g[0][0].field
    n = len(g)
    grp = spec.table.group
    if grp.meta.get("q") != field.q:
        raise PreconditionError("the table's residue field does not match g")
    if len(grp.elements[0]) != n:
        raise PreconditionError("the table's matrix size does not match g")
    if cert.det_val % n:
        # pi^Z-normalization impossible, the support is empty
        return Cyclotomic.zero()
    _, Vbar, zp_int = reduction
    row = spec.table.values[spec.row]
    return _root_power(spec.central, zp_int) * row[grp.class_of[grp.index[Vbar]]]


@dataclass(frozen=True)
class EllipticClassRecord:
    """A regular elliptic class of the quaternion unit quotient, with its
    matched companion matrix over F_q((pi)).  `reduction` is the class's
    `stable_lattice_reduction` at level 1, or None when v(det) is not a
    multiple of n and no lattice is stable."""

    class_index: int
    label: tuple
    kind: str                  # "unit" or "uniformizer"
    g_matrix: tuple
    certificate: EllipticCertificate
    reduction: tuple | None


@dataclass(frozen=True)
class JLMatchResult:
    q: int
    convention: str
    pairs: tuple               # (cuspidal row in table_g, row in table_b)
    elliptic: tuple            # EllipticClassRecord per compared class
    pi_values: dict            # cuspidal row -> tuple of values per class
    rho_values: dict           # quotient row -> tuple of values per class
    table_g: CharacterTable
    table_b: CharacterTable

    def summary(self) -> dict:
        # both values of a check as integer coordinates at one shared conductor
        N = lcm(self.table_g.conductor, self.table_b.conductor)
        return {
            "q": self.q,
            "convention": self.convention,
            "pairs": [list(p) for p in self.pairs],
            "elliptic_classes": [
                {"label": list(r.label), "kind": r.kind,
                 "class_index": r.class_index}
                for r in self.elliptic
            ],
            "checks": [
                {"pair": [r, s],
                 "values": [[list(self.rho_values[s][k].lift(N).coords),
                             list(self.pi_values[r][k].lift(N).coords)]
                            for k in range(len(self.elliptic))]}
                for r, s in self.pairs
            ],
        }


def elliptic_quotient_classes(group) -> tuple:
    """The regular elliptic classes of a level-1 quaternion unit quotient.

    Each class representative (i, x), an element x*w^i of the algebra, gets
    its reduced characteristic polynomial computed honestly in the algebra
    and the companion matrix of that polynomial over F_q((pi)) attached.
    Classes whose polynomial fails certification (the residue-split units)
    are left out.  Each class with v(det) divisible by 2 gets its stable
    lattice reduction, once.
    """
    meta = group.meta
    if meta.get("kind") != "quaternion":
        raise PreconditionError("expected a level-1 quaternion unit quotient")
    alg = meta["algebra"]
    out = []
    for ci, rep_idx in enumerate(group.class_reps):
        i, x = group.elements[rep_idx]
        b = alg.elem([x, 0]) if i == 0 else alg.elem([0, x])
        pol = alg.reduced_charpoly(b)
        try:
            cert = regular_elliptic_certify(pol)
        except Inconclusive:
            continue
        g = companion(alg.small, pol)
        out.append(EllipticClassRecord(
            class_index=ci,
            label=(i, x),
            kind="unit" if i == 0 else "uniformizer",
            g_matrix=g,
            certificate=cert,
            reduction=None if cert.det_val % 2 else stable_lattice_reduction(g, 1, cert),
        ))
    q = meta["q"]
    want = q * (q - 1) // 2 + (q - 1)
    if len(out) != want:
        raise OracleMismatch(
            f"found {len(out)} elliptic classes in the quotient, expected {want}")
    return tuple(out)


CONVENTION = ("pi lands in the identity coset of both quotient groups, so both "
              "inducing characters send pi to 1 and the comparison has no "
              "central twist")


def jl_match(q: int) -> JLMatchResult:
    """Match each cuspidal character of GL_2(F_q) with its opposite number.

    For every cuspidal row chi of GL_2(F_q), find the rows of the quaternion
    quotient table whose value at each regular elliptic class b equals minus
    the induced character of chi at the companion matrix with b's reduced
    characteristic polynomial.  Exactly one row may survive per cuspidal and
    the assignment must be injective; anything else raises OracleMismatch
    with the offending class.
    """
    check_table_order(gl_order(2, q))
    grp_g = group_gl(2, q, 1)
    table_g = character_table(grp_g)
    cuspidal_rows = cuspidal_characters(table_g)
    grp_b = group_quaternion_quotient(q)
    table_b = character_table(grp_b)
    elliptic = elliptic_quotient_classes(grp_b)

    pi_values = {}
    for r in cuspidal_rows:
        spec = InducedCharSpec(table_g, r)
        pi_values[r] = tuple(
            hc_character(spec, rec.g_matrix, cert=rec.certificate,
                         reduction=rec.reduction)
            for rec in elliptic)
    rho_values = {
        s: tuple(table_b.values[s][rec.class_index] for rec in elliptic)
        for s in range(len(table_b.degrees))
    }

    pairs = []
    matched = {}
    for r in cuspidal_rows:
        survivors = []
        best = (-1, None, None)    # (#classes passed, row, first failing class)
        want = [-v for v in pi_values[r]]
        for s, vals in rho_values.items():
            passed = 0
            failing = None
            for k, rec in enumerate(elliptic):
                if vals[k] == want[k]:
                    passed += 1
                elif failing is None:
                    failing = rec
            if failing is None:
                survivors.append(s)
            elif passed > best[0]:
                best = (passed, s, failing)
        if len(survivors) != 1:
            detail = ""
            if not survivors and best[1] is not None:
                detail = (f"; closest row {best[1]} fails first at class "
                          f"{best[2].label} ({best[2].kind})")
            raise OracleMismatch(
                f"cuspidal row {r}: {len(survivors)} quotient rows satisfy the "
                f"sign identity on all elliptic classes, need exactly 1{detail}")
        s = survivors[0]
        if s in matched:
            raise OracleMismatch(
                f"quotient row {s} matches both cuspidal rows {matched[s]} and {r}")
        matched[s] = r
        pairs.append((r, s))

    return JLMatchResult(q=q, convention=CONVENTION, pairs=tuple(pairs),
                         elliptic=elliptic, pi_values=pi_values,
                         rho_values=rho_values, table_g=table_g, table_b=table_b)

"""Bit-exact document serialization and the on-disk cache.

Every document is a plain JSON-safe structure; `canonical_dumps` fixes key
order and spacing so equal documents produce identical bytes, and
`content_key` names a request by the CRC-32 of those bytes.  Ring and tower
documents reconstruct working objects; a reloaded tower must behave
identically to a fresh build (its describe-document must match bit for
bit, which `tower_from_doc` verifies).  Ring and tower documents store each
ring element in its in-memory sparse form, as [index, coeff] pairs sorted by
index, so a document grows with the nonzero terms rather than the ring rank.
A tower document holds the ring with its stages and one table, the level-m
structure on (o/pi^m)^n in the top ring, which `build_tower` fills with one
span routine.  The tower cache key includes TOWER_SCHEMA, so an entry
written under an older schema is a plain miss, never misread.
`tower_from_doc` checks the whole document's JSON shape, that it holds the
requested tower (its n, q, m and u_spec label) over a ring of precision
m + 1, and that the table keys are exactly (o/pi^m)^n, before reading it,
so a misshapen document or one for another tower raises PreconditionError
and any other exception from the reload is a defect, not a corrupt entry.
Because every entry is checked against its request before it is used, a
cache key only has to spread entries over file names: two requests whose
keys collide overwrite each other's entry, and each reads the other's as a
miss, never as its own tower.

Cache writes go to a temporary file in the same directory followed by
os.replace, so a reader never observes a half-written entry.
"""

from __future__ import annotations

import json
import os
from itertools import product, zip_longest

from .errors import OracleMismatch, PreconditionError

RING_SCHEMA = "leveltower/ring/2"
TOWER_SCHEMA = "leveltower/tower/3"
REPORT_SCHEMA = "leveltower/report/1"


def canonical_dumps(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"), ensure_ascii=True)


def content_key(doc) -> str:
    """8 lowercase hex digits, the CRC-32 of the document's canonical bytes."""
    from zlib import crc32
    return f"{crc32(canonical_dumps(doc).encode('ascii')):08x}"


# -- document shapes -------------------------------------------------------------

# A shape is a type (int or str, matched exactly, so a JSON bool is not an
# int), a dict of required keys, a one-item list (a list of that shape) or a
# tuple (a list of exactly those shapes).
_PAIRS = [(int, int)]
_RING_SHAPE = {
    "field": {"p": int, "f": int, "modulus": [int]},
    "prec": int,
    "u_orders": [int],
    "stages": [{"name": str, "degree": int, "coeffs": [_PAIRS]}],
    "rank": int,
}
_TOWER_SHAPE = {
    "n": int,
    "q": int,
    "m": int,
    "u_spec_label": str,
    "ring": {},  # checked by ring_from_doc
    "module_u": [_PAIRS],
    "stage_degrees": [int],
    "table": [([int], _PAIRS)],
}


def _check_shape(value, shape, where: str) -> None:
    if isinstance(shape, dict):
        if not isinstance(value, dict):
            raise PreconditionError(f"{where} is not an object")
        for key, sub in shape.items():
            if key not in value:
                raise PreconditionError(f"{where} has no key {key!r}")
            _check_shape(value[key], sub, f"{where}.{key}")
    elif isinstance(shape, (list, tuple)):
        if not isinstance(value, list) or (
                isinstance(shape, tuple) and len(value) != len(shape)):
            raise PreconditionError(f"{where} is not a list of the expected shape")
        subs = shape if isinstance(shape, tuple) else shape * len(value)
        for i, (item, sub) in enumerate(zip(value, subs)):
            _check_shape(item, sub, f"{where}[{i}]")
    elif type(value) is not shape:
        raise PreconditionError(f"{where} is not of type {shape.__name__}")


def _check_doc(doc, schema: str, shape: dict, what: str) -> None:
    """PreconditionError unless doc is a `what` document of `schema` shaped as `shape`."""
    _check_shape(doc, {"schema": str}, what)
    if doc["schema"] != schema:
        raise PreconditionError(f"not a {what} document: {doc['schema']!r}")
    _check_shape(doc, shape, what)


# -- rings ---------------------------------------------------------------------


def ring_to_doc(ring: CoeffRing) -> dict:
    doc = ring.describe()
    doc["schema"] = RING_SCHEMA
    return doc


def ring_from_doc(doc) -> CoeffRing:
    from .fq import FqField
    from .rings import CoeffRing
    _check_doc(doc, RING_SCHEMA, _RING_SHAPE, "ring")
    fd = doc["field"]
    field = FqField(fd["p"], fd["f"])
    if list(field.modulus) != list(fd["modulus"]):
        raise OracleMismatch("reconstructed field modulus differs from the document")
    stages = tuple(
        (st["name"], [dict(c) for c in st["coeffs"]], st["degree"])
        for st in doc["stages"])
    ring = CoeffRing(field, doc["prec"], tuple(doc["u_orders"]), _stages=stages)
    if ring.rank != doc["rank"]:
        raise OracleMismatch(
            f"reconstructed ring rank {ring.rank} != documented {doc['rank']}")
    return ring


# -- towers --------------------------------------------------------------------


def tower_to_doc(tower: Tower) -> dict:
    return {
        "schema": TOWER_SCHEMA,
        "n": tower.n,
        "q": tower.q,
        "m": tower.m,
        "u_spec_label": tower.u_spec_label,
        "ring": ring_to_doc(tower.ring),
        "module_u": [sorted(u.d.items()) for u in tower.module.u_values],
        "stage_degrees": list(tower.stage_degrees),
        "table": sorted([list(vec), sorted(val.d.items())]
                        for vec, val in tower.table.items()),
    }


def tower_from_doc(doc, n: int, q: int, m: int, u_spec_label: str) -> Tower:
    """The tower a document holds, which must be the requested level-m tower of (n, q, u_spec)."""
    from .formal import FormalOModule, Tower
    from .rings import RingElem
    _check_doc(doc, TOWER_SCHEMA, _TOWER_SHAPE, "tower")
    # compared before any size is formed from the document's own values
    want = {"n": n, "q": q, "m": m, "u_spec_label": u_spec_label}
    got = {key: doc[key] for key in want}
    if got != want:
        raise PreconditionError(f"the document holds the tower {got}, not {want}")
    ring = ring_from_doc(doc["ring"])
    if ring.prec != m + 1:
        raise PreconditionError(f"tower ring precision {ring.prec} != level + 1 = {m + 1}")

    rank, q = ring.rank, ring.field.q

    def elem(pairs) -> RingElem:
        for index, coeff in pairs:
            if not (0 <= index < rank and 1 <= coeff < q):
                raise PreconditionError(
                    f"term [{index}, {coeff}] is outside ring rank {rank} or F_{q}")
        return RingElem(ring, dict(pairs))

    module = FormalOModule(ring, n, [elem(p) for p in doc["module_u"]])
    # the sorted keys must be (o/pi^m)^n itself, which product lists in that order
    domain = product(range(q ** m), repeat=n)
    if any(entry is None or tuple(entry[0]) != v
           for entry, v in zip_longest(doc["table"], domain)):
        raise PreconditionError(f"tower.table keys are not exactly (o/pi^{m})^{n}")
    table = {tuple(vec): elem(pairs) for vec, pairs in doc["table"]}
    tower = Tower(module, m, list(doc["stage_degrees"]), table, u_spec_label)
    back = canonical_dumps(tower_to_doc(tower))
    if back != canonical_dumps(doc):
        raise OracleMismatch("tower document did not survive a round trip")
    return tower


# -- cache -----------------------------------------------------------------------


class Cache:
    """Text store under lowercase hex keys, with atomic writes."""

    def __init__(self, root: str):
        self.root = root
        try:
            os.makedirs(root, exist_ok=True)
        except OSError as exc:
            raise PreconditionError(
                f"cannot create cache directory {root!r}: {exc.strerror}") from None

    def _path(self, key: str) -> str:
        if not key or any(c not in "0123456789abcdef" for c in key):
            raise PreconditionError("cache keys are lowercase hex digits")
        return os.path.join(self.root, key + ".json")

    def get(self, key: str) -> str | None:
        try:
            with open(self._path(key), "r", encoding="ascii") as fh:
                return fh.read()
        except FileNotFoundError:
            return None

    def put(self, key: str, text: str) -> str:
        import tempfile
        path = self._path(key)
        fd, tmp = tempfile.mkstemp(dir=self.root, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="ascii") as fh:
                fh.write(text)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
        return path

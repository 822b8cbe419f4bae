"""Bit-exact document serialization and the on-disk cache.

Every document is a plain JSON-safe structure; `canonical_dumps` fixes key
order and spacing so equal documents produce identical bytes, and
`content_key` hashes those bytes for content addressing.  Ring and tower
documents reconstruct working objects; a reloaded tower must behave
identically to a fresh build (its describe-document must match bit for
bit, which `tower_from_doc` verifies).  Ring and tower documents store each
ring element in its in-memory sparse form, as [index, coeff] pairs sorted by
index, so a document grows with the nonzero terms rather than the ring rank.
The tower cache key includes TOWER_SCHEMA, so an entry written under an
older schema is a plain miss, never misread.

Cache writes go to a temporary file in the same directory followed by
os.replace, so a reader never observes a half-written entry.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile

from .errors import OracleMismatch, PreconditionError
from .formal import FormalOModule, Tower
from .fq import FqField
from .rings import CoeffRing, RingElem

RING_SCHEMA = "leveltower/ring/2"
TOWER_SCHEMA = "leveltower/tower/2"
REPORT_SCHEMA = "leveltower/report/1"


def canonical_dumps(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"), ensure_ascii=True)


def content_key(doc) -> str:
    return hashlib.sha256(canonical_dumps(doc).encode("ascii")).hexdigest()


# -- rings ---------------------------------------------------------------------


def ring_to_doc(ring: CoeffRing) -> dict:
    doc = ring.describe()
    doc["schema"] = RING_SCHEMA
    return doc


def ring_from_doc(doc) -> CoeffRing:
    if doc.get("schema") != RING_SCHEMA:
        raise PreconditionError(f"not a ring document: {doc.get('schema')!r}")
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
        "level_values": [
            sorted([list(vec), sorted(val.d.items())] for vec, val in d.items())
            for d in tower.level_values
        ],
    }


def tower_from_doc(doc) -> Tower:
    if doc.get("schema") != TOWER_SCHEMA:
        raise PreconditionError(f"not a tower document: {doc.get('schema')!r}")
    ring = ring_from_doc(doc["ring"])

    rank, q = ring.rank, ring.field.q

    def elem(pairs) -> RingElem:
        for index, coeff in pairs:
            if not (0 <= index < rank and 1 <= coeff < q):
                raise PreconditionError(
                    f"term [{index}, {coeff}] is outside ring rank {rank} or F_{q}")
        return RingElem(ring, dict(pairs))

    module = FormalOModule(ring, doc["n"], doc["q"],
                           [elem(p) for p in doc["module_u"]])
    level_values = [
        {tuple(vec): elem(pairs) for vec, pairs in table}
        for table in doc["level_values"]
    ]
    tower = Tower(n=doc["n"], q=doc["q"], m=doc["m"], ring=ring, module=module,
                  stage_degrees=list(doc["stage_degrees"]),
                  level_values=level_values, u_spec_label=doc["u_spec_label"])
    back = canonical_dumps(tower_to_doc(tower))
    if back != canonical_dumps(doc):
        raise OracleMismatch("tower document did not survive a round trip")
    return tower


# -- cache -----------------------------------------------------------------------


class Cache:
    """Content-addressed text store with atomic writes."""

    def __init__(self, root: str):
        self.root = root
        os.makedirs(root, exist_ok=True)

    def _path(self, key: str) -> str:
        if not key or any(c not in "0123456789abcdef" for c in key):
            raise PreconditionError("cache keys are lowercase hex digests")
        return os.path.join(self.root, key + ".json")

    def get(self, key: str) -> str | None:
        try:
            with open(self._path(key), "r", encoding="ascii") as fh:
                return fh.read()
        except FileNotFoundError:
            return None

    def put(self, key: str, text: str) -> str:
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

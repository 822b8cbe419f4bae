"""Canonical JSON documents, content keys, and the atomic cache."""

import json
import os

import pytest

from leveltower.errors import PreconditionError
from leveltower.formal import build_tower, check_level
from leveltower.fq import FqField
from leveltower.rings import CoeffRing
from leveltower.serialize import (
    Cache,
    canonical_dumps,
    content_key,
    ring_from_doc,
    ring_to_doc,
    tower_from_doc,
    tower_to_doc,
)


def test_canonical_dumps_is_key_sorted_and_ascii():
    s = canonical_dumps({"b": 1, "a": [2, {"z": 0, "y": 1}]})
    assert s == '{"a":[2,{"y":1,"z":0}],"b":1}'


def test_content_key_stable_and_distinct():
    a = content_key({"kind": "t", "q": 2})
    b = content_key({"q": 2, "kind": "t"})
    c = content_key({"kind": "t", "q": 3})
    assert a == b
    assert a != c
    assert len(a) == 8 and set(a) <= set("0123456789abcdef")


def test_ring_roundtrip_bit_exact():
    ring = CoeffRing(FqField(3, 1), 2, (3,))
    doc = ring_to_doc(ring)
    blob = canonical_dumps(doc)
    again = ring_to_doc(ring_from_doc(json.loads(blob)))
    assert canonical_dumps(again) == blob


@pytest.mark.parametrize("spec", [(1, 2, 2), (2, 2, 1), (2, 3, 1), (2, 2, 2)])
def test_tower_roundtrip_bit_exact(spec):
    tower = build_tower(*spec)
    doc = tower_to_doc(tower)
    n, q, m = spec
    assert [key for key in doc if "table" in key or "level" in key] == ["table"]
    assert len(doc["table"]) == q ** (m * n)
    blob = canonical_dumps(doc)
    reloaded = tower_from_doc(json.loads(blob), n, q, m, tower.u_spec_label)
    assert canonical_dumps(tower_to_doc(reloaded)) == blob
    report = check_level(reloaded.structure)
    assert report["ok"]
    assert reloaded.stage_degrees == tower.stage_degrees
    assert reloaded.rank_over_base == tower.rank_over_base


def test_cache_roundtrip_and_validation(tmp_path):
    cache = Cache(str(tmp_path / "c"))
    key = content_key({"x": 1})
    assert cache.get(key) is None
    cache.put(key, canonical_dumps({"v": 1}))
    assert json.loads(cache.get(key)) == {"v": 1}
    with pytest.raises(PreconditionError):
        cache.put("../escape", "{}")
    with pytest.raises(PreconditionError):
        cache.get("UPPER")


def test_cache_leaves_no_temp_files(tmp_path):
    root = tmp_path / "c2"
    cache = Cache(str(root))
    key = content_key({"y": 2})
    cache.put(key, "{}")
    names = os.listdir(root)
    assert names == [key + ".json"]

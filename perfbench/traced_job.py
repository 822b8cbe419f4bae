"""Run one leveltower CLI job with spans around calls into each module.

    python perfbench/traced_job.py TRACE_OUT CLI_ARG...

Every binding of each traced function is replaced, in its home module and
in every module or class that imported it (`from .formal import
build_tower` makes a second binding in `cli`).  Spans (name, parent, start,
end) and counters are kept in memory and written to TRACE_OUT as JSON when
the job ends.  Nothing under `src/` is edited.
"""

from __future__ import annotations

import importlib
import json
import sys
from time import perf_counter as clock

# span name -> (module, attribute path)
SPANS = {
    "cli.emit": ("cli", "emit"),
    "rings.coeffring_init": ("rings", "CoeffRing.__init__"),
    "rings.ring_extend": ("rings", "ring_extend"),
    "rings.convert": ("rings", "convert"),
    "rings.poly_divide_exact": ("rings", "poly_divide_exact"),
    "formal.build_tower": ("formal", "build_tower"),
    "formal.check_level": ("formal", "check_level"),
    "serialize.tower_to_doc": ("serialize", "tower_to_doc"),
    "serialize.tower_from_doc": ("serialize", "tower_from_doc"),
    "serialize.canonical_dumps": ("serialize", "canonical_dumps"),
    "serialize.cache_get": ("serialize", "Cache.get"),
    "serialize.cache_put": ("serialize", "Cache.put"),
    "groups.group_gl": ("groups", "group_gl"),
    "groups.group_quaternion_quotient": ("groups", "group_quaternion_quotient"),
    "chartab.character_table": ("chartab", "character_table"),
    "chartab.verify": ("chartab", "CharacterTable.verify"),
    "induced.jl_match": ("induced", "jl_match"),
    "induced.hc_character": ("induced", "hc_character"),
    "induced.elliptic_quotient_classes": ("induced", "elliptic_quotient_classes"),
    "counting.count_brute": ("counting", "count_brute"),
    "counting.count_structured": ("counting", "count_structured"),
    "matrices.adjugate": ("matrices", "adjugate"),
    "matrices.smith_exponents": ("matrices", "smith_exponents"),
    "matrices.hnf": ("matrices", "hnf"),
    "chain.gl_elements": ("chain", "gl_elements"),
    "certify.regular_elliptic_certify": ("certify", "regular_elliptic_certify"),
    "division.total_fixed_points": ("division", "total_fixed_points"),
    "division.projective_fixed_points": ("division", "projective_fixed_points"),
    "strata.enumerate_flags": ("strata", "enumerate_flags"),
    "strata.enumerate_summands": ("strata", "enumerate_summands"),
    "strata.strata_fixed_count": ("strata", "strata_fixed_count"),
}

# Hot functions that are only counted: a span per call would swamp the run.
COUNTS = {
    "cyclotomic.mul_calls": ("cyclotomic", "Cyclotomic.__mul__"),
    "matrices.det_calls": ("matrices", "det"),
}


class Recorder:
    def __init__(self):
        self.spans = []      # [name, parent index or -1, start, end]
        self.stack = []
        self.counters = {}
        self.seen_ids = set()

    def add(self, key: str, k=1):
        self.counters[key] = self.counters.get(key, 0) + k

    def maximum(self, key: str, value):
        self.counters[key] = max(self.counters.get(key, value), value)

    def span(self, name: str, fn, observe=None):
        spans, stack = self.spans, self.stack

        def wrapper(*args, **kwargs):
            rec = [name, stack[-1] if stack else -1, clock(), None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[3] = clock()
                stack.pop()
            if observe is not None:
                observe(self, args, result)
            return result
        return wrapper

    def counted(self, name: str, fn):
        counters = self.counters

        def wrapper(*args, **kwargs):
            counters[name] = counters.get(name, 0) + 1
            return fn(*args, **kwargs)
        return wrapper


def _new_list_size(rec: Recorder, args, result):
    # gl_elements returns a cached list; count each distinct list once.
    if id(result) not in rec.seen_ids:
        rec.seen_ids.add(id(result))
        rec.add("chain.gl_elements_size", len(result))


OBSERVERS = {
    "rings.coeffring_init": lambda rec, args, _: rec.maximum("rings.max_rank", args[0].rank),
    "serialize.cache_get": lambda rec, args, hit: rec.add("serialize.cache_hits", hit is not None),
    "serialize.cache_put": lambda rec, args, _: rec.add("serialize.cache_bytes_written", len(args[2])),
    "chartab.character_table": lambda rec, args, _: rec.maximum("chartab.table_order", args[0].order),
    "chain.gl_elements": _new_list_size,
}


def _resolve(module, path: str):
    owner = module
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return getattr(owner, attr)


def install(rec: Recorder) -> None:
    """Replace every binding of each traced function with its wrapper."""
    replacement = {}
    for table, make in ((SPANS, lambda name, fn: rec.span(name, fn, OBSERVERS.get(name))),
                        (COUNTS, rec.counted)):
        for name, (mod, path) in table.items():
            original = _resolve(importlib.import_module(f"leveltower.{mod}"), path)
            replacement[id(original)] = make(name, original)
    modules = [m for key, m in list(sys.modules.items())
               if key.startswith("leveltower.") and m is not None]
    for module in modules:
        for key, value in list(vars(module).items()):
            if id(value) in replacement:
                setattr(module, key, replacement[id(value)])
            elif isinstance(value, type) and value.__module__ == module.__name__:
                for attr, member in list(vars(value).items()):
                    if id(member) in replacement:
                        setattr(value, attr, replacement[id(member)])


def main(argv: list[str]) -> int:
    out_path, cli_argv = argv[0], argv[1:]
    t0 = clock()
    import leveltower.cli as cli
    import_s = clock() - t0
    rec = Recorder()
    install(rec)
    code = 1
    try:
        code = cli.main(cli_argv)
    finally:
        sys.stdout.flush()
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump({"import_s": import_s, "spans": rec.spans,
                       "counters": rec.counters}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

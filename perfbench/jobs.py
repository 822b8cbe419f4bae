"""Workload job lists, their seeded inputs, and the answer oracle.

A job is one `python -m leveltower.cli` invocation plus a check on its
report.  Checks look at answers, never at bytes: the resolved config echoes
paths such as `cache_dir`, and the layout of some results is expected to
change.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

WORKLOADS = ("tower-cold", "tower-cache", "jl-match", "lattice")

# The cold rungs are above the default rank cap of 5000.
BIG_CAP = ("--rank-cap", "10000000")
CACHE_DIR_TOKEN = "{cache_dir}"


@dataclass(frozen=True)
class Job:
    argv: tuple
    # Returns why the report's answer is wrong, or None when it is right.
    check: Callable[[dict], "str | None"]

    def label(self) -> str:
        return " ".join(self.argv)


def gl_order(n: int, q: int, m: int) -> int:
    r = q ** ((m - 1) * n * n)
    for i in range(n):
        r *= q ** n - q ** i
    return r


def _tower_check(q: int, n: int, m: int, expect_hit: bool | None = None):
    # Level one adjoins points of degree q^n - q^i, each later level n of degree q^n.
    stages = [q ** n - q ** i for i in range(n)] + [q ** n] * (n * (m - 1))

    def check(res: dict):
        if res["rank"] != res["gl_order"] or res["rank"] != gl_order(n, q, m):
            return f"rank {res['rank']} != |GL_{n}(o/pi^{m})| = {gl_order(n, q, m)}"
        if res["stage_degrees"] != stages:
            return f"stage degrees {res['stage_degrees']} != {stages}"
        if not res["level_check"]["ok"]:
            return "level check not ok"
        if expect_hit is not None and res["cache"]["hit"] != expect_hit:
            return f"cache hit {res['cache']['hit']}, expected {expect_hit}"
        return None
    return check


def _tower(q, n, m, extra=(), expect_hit=None) -> Job:
    argv = ("tower", "--q", str(q), "--n", str(n), "--m", str(m)) + tuple(extra)
    return Job(argv, _tower_check(q, n, m, expect_hit))


def _count_check(q: int, n: int, m: int):
    unit_order = (q ** n - 1) * q ** (n * (m - 1))

    def check(res: dict):
        if res["agreement"] is not True:
            return "routes disagree"
        if res["structured"]["per_fiber"] != res["bruteforce"]["per_fiber"]:
            return "structured and brute per-fiber counts differ"
        if res["per_fiber"] not in (0, unit_order):
            return f"per_fiber {res['per_fiber']} not in {{0, {unit_order}}}"
        if res["total"] != n * res["per_fiber"]:
            return f"total {res['total']} != {n} * per_fiber"
        return None
    return check


def _jl_check(q: int):
    want = q * (q - 1) // 2

    def check(res: dict):
        pairs = res["pairs"]
        if res["cuspidal_count"] != want or len(pairs) != want:
            return f"{res['cuspidal_count']} cuspidal rows, {len(pairs)} pairs, expected {want}"
        if len({a for a, _ in pairs}) != want or len({b for _, b in pairs}) != want:
            return "matching is not injective"
        return None
    return check


def _equals(**expected):
    def check(res: dict):
        for key, want in expected.items():
            if res[key] != want:
                return f"{key} = {res[key]}, expected {want}"
        return None
    return check


def _full_degree_codes(q: int, n: int) -> list[int]:
    """Codes x of F_{q^n} lying in no proper subfield containing F_q.

    For those, `x:<code>` has an irreducible reduced characteristic
    polynomial, so it is certified elliptic (unramified, unit norm) and the
    brute lattice box has the same size for every choice.
    """
    from leveltower.fq import FqField

    p = next(d for d in range(2, q + 1) if q % d == 0)
    f = 1
    while p ** f < q:
        f += 1
    big = FqField(p, f * n)
    proper = [d for d in range(1, n) if n % d == 0]
    return [x for x in range(1, big.q)
            if all(big.pow(x, q ** d) != x for d in proper)]


def _unit_companion(rng: random.Random, q: int, n: int, m: int) -> str:
    """A random monic degree-n polynomial over o/pi^m with unit constant term."""
    terms = [f"T^{n}"]
    for i in reversed(range(n)):
        t = "" if i == 0 else ("*T" if i == 1 else f"*T^{i}")
        c = rng.randrange(1, q) if i == 0 else rng.randrange(q)
        if c:
            terms.append(t[1:] if c == 1 and t else f"{c}{t}")
        d = rng.randrange(q) if m > 1 else 0
        if d:
            terms.append(f"P{t}" if d == 1 else f"{d}*P{t}")
    return "companion:" + "+".join(terms)


def _count(rng: random.Random, q: int, n: int, m: int) -> Job:
    b = rng.choice(_full_degree_codes(q, n))
    g = _unit_companion(rng, q, n, m)
    argv = ("count", "--q", str(q), "--n", str(n), "--m", str(m),
            "--b", f"x:{b}", "--g", g)
    return Job(argv, _count_check(q, n, m))


def build(workload: str, seed: int) -> list[Job]:
    """The workload's job list; the seed orders it and draws the count inputs."""
    rng = random.Random(seed)
    if workload == "tower-cold":
        jobs = [_tower(q, n, m, BIG_CAP)
                for q, n, m in ((2, 3, 2), (4, 2, 2), (3, 2, 2), (2, 2, 3))]
        rng.shuffle(jobs)
        return jobs
    if workload == "tower-cache":
        cache = ("--cache-dir", CACHE_DIR_TOKEN)
        # The large rungs are requested once: a cache hit rebuilds the ring
        # with the default rank cap of 5000, so a repeat exits 3.
        requests = [(rung, ()) for rung in ((2, 3, 1), (5, 2, 1), (2, 2, 2), (4, 2, 1))
                    for _ in range(3)]
        requests += [((2, 2, 3), ("--rank-cap", "100000")),
                     ((3, 2, 2), ("--rank-cap", "100000"))]
        rng.shuffle(requests)
        seen = set()
        jobs = []
        for rung, cap in requests:
            jobs.append(_tower(*rung, cache + cap, expect_hit=rung in seen))
            seen.add(rung)
        return jobs
    if workload == "jl-match":
        jobs = [Job(("jl", "--q", str(q)), _jl_check(q)) for q in (3, 4)]
        rng.shuffle(jobs)
        return jobs
    if workload == "lattice":
        jobs = [_count(rng, q, n, m) for q, n, m in ((2, 3, 1), (2, 2, 4), (3, 2, 2), (4, 2, 1))]
        jobs.append(Job(("flags", "--q", "2", "--n", "4", "--m", "2"), _equals(count=20160)))
        jobs.append(Job(("strata", "--q", "2", "--n", "5", "--m", "2"),
                        _equals(counts={"1": 496, "2": 9920, "3": 9920, "4": 496}, total=20832)))
        zero_row = {str(m): 0 for m in range(1, 5)}
        jobs.append(Job(("strata-action", "--q", "2", "--n", "3",
                         "--g", "companion:T^3+T+1", "--scan-m", "4"),
                        _equals(fixed_counts={"1": zero_row, "2": zero_row},
                                observed_minimal_free_level={"1": 1, "2": 1})))
        rng.shuffle(jobs)
        return jobs
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")

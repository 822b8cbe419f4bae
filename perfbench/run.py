"""leveltower benchmark: end-to-end CLI workloads and a per-module traced run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the package is taken from `src/` next to this directory.
Each workload is a fixed list of CLI jobs (see jobs.py).  The list runs as
whole rounds, one fresh `python -m leveltower.cli` process at a time, until
the next round would end past S seconds (at least one round).  Every job's
answer is checked.  With --trace 0 the end-to-end metrics are medians over
rounds; with --trace 1 untraced and traced rounds alternate, the traced
rounds run each job through traced_job.py, and the per-layer metrics are
medians over traced rounds.  The last line of standard output is the JSON
result; the lines before it give the same numbers for a reader.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter as clock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

sys.path.insert(0, str(SRC))
sys.pycache_prefix = str(WORK / "pycache")
import jobs  # noqa: E402  (perfbench/jobs.py, beside this file)
from traced_job import COUNTS, SPANS  # noqa: E402

JOB_TIMEOUT_S = 60
SETUP_SPAWNS = 9

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "max_job_s": "s",
                    "peak_rss_mb": "MB", "setup_s": "s"}

# Spans that must fire on a workload's traced run; a silent wrapper fails the run.
COVERAGE = {
    "tower-cold": ["rings.coeffring_init", "rings.ring_extend", "rings.convert",
                   "rings.poly_divide_exact", "formal.build_tower", "formal.check_level"],
    "tower-cache": ["serialize.tower_to_doc", "serialize.tower_from_doc",
                    "serialize.canonical_dumps", "serialize.cache_get", "serialize.cache_put",
                    "rings.coeffring_init", "formal.build_tower", "formal.check_level"],
    "jl-match": ["groups.group_gl", "groups.group_quaternion_quotient",
                 "chartab.character_table", "chartab.verify", "induced.jl_match",
                 "induced.hc_character", "induced.elliptic_quotient_classes",
                 "cyclotomic.mul_calls"],
    "lattice": ["counting.count_brute", "counting.count_structured", "matrices.adjugate",
                "matrices.smith_exponents", "matrices.hnf", "chain.gl_elements",
                "certify.regular_elliptic_certify", "division.total_fixed_points",
                "division.projective_fixed_points", "strata.enumerate_flags",
                "strata.enumerate_summands", "strata.strata_fixed_count",
                "matrices.det_calls"],
}
for names in COVERAGE.values():
    names.append("cli.emit")

CALL_COUNTS = {"rings.coeffring_init_calls": "rings.coeffring_init",
               "rings.convert_calls": "rings.convert",
               "matrices.adjugate_calls": "matrices.adjugate"}
COUNTERS = ["rings.max_rank", "serialize.cache_bytes_written", "chartab.table_order",
            "chain.gl_elements_size", *COUNTS]
MICRO = ["rings.mul_ns", "cyclotomic.mul_ns", "cyclotomic.conjugate_ns",
         "chain.matmul_ns", "laurent.mul_ns", "fq.mul_ns"]
PER_LAYER_UNITS = {
    **{f"{name}_s": "s" for name in SPANS},
    **{name: "count" for name in [*CALL_COUNTS, *COUNTERS]},
    "serialize.cache_bytes_written": "B",
    "serialize.cache_hit_ratio": "1",
    "formal.level_pairs_checked": "count",
    "formal.level_pair_coverage": "1",
    "cli.import_s": "s",
    "trace.overhead_s": "s",
    **{name: "ns" for name in MICRO},
}


class Runner:
    """Spawns jobs one at a time from this process and checks their answers."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.cache_dir = workdir / "cache"
        self.env = dict(os.environ, PYTHONPATH=str(SRC),
                        PYTHONPYCACHEPREFIX=str(WORK / "pycache"))
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)
        self.attempted = 0
        self.failures = []

    def spawn(self, argv):
        """Run argv to its end; (exit code, wall s, cpu s, max RSS MB, output).

        The output is stdout, followed by stderr when the exit code is not 0.
        """
        out_path = self.workdir / "stdout"
        err_path = self.workdir / "stderr"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = clock()
            proc = subprocess.Popen(argv, cwd=ROOT, env=self.env, stdin=subprocess.DEVNULL,
                                    stdout=out, stderr=err)
            timer = threading.Timer(JOB_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
                proc.returncode = os.waitstatus_to_exitcode(status)
            finally:
                timer.cancel()
                if proc.returncode is None:  # interrupted: leave no job running
                    proc.kill()
                    proc.wait()
            wall = clock() - t0
        stdout = out_path.read_text(encoding="utf-8", errors="replace")
        if proc.returncode:
            stdout += err_path.read_text(encoding="utf-8", errors="replace")
        return (proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                usage.ru_maxrss / 1024, stdout)

    def setup_s(self) -> float:
        """Median time of a fresh interpreter importing leveltower.cli."""
        argv = [sys.executable, "-c", "import leveltower.cli"]
        times = []
        for _ in range(SETUP_SPAWNS):
            code, wall, _, _, out = self.spawn(argv)
            if code:
                raise SystemExit(f"importing leveltower.cli failed:\n{out}")
            times.append(wall)
        return statistics.median(times)

    def check(self, job: jobs.Job, code: int, stdout: str) -> None:
        self.attempted += 1
        reason = None
        if code != 0:
            reason = f"exit {code}: {stdout.strip()[-300:]}"
        else:
            try:
                reason = job.check(json.loads(stdout)["results"])
            except (ValueError, KeyError, TypeError) as exc:
                reason = f"unreadable report: {exc!r}"
        if reason:
            self.failures.append(f"{job.label()}: {reason}")

    def round(self, job_list, traced: bool) -> dict:
        """Run the job list once; returns totals and, when traced, the traces."""
        shutil.rmtree(self.cache_dir, ignore_errors=True)
        self.cache_dir.mkdir()
        walls, cpus, rsss, traces, reports = [], [], [], [], []
        trace_path = self.workdir / "trace.json"
        for job in job_list:
            argv = [a.replace(jobs.CACHE_DIR_TOKEN, str(self.cache_dir)) for a in job.argv]
            if traced:
                trace_path.unlink(missing_ok=True)
                argv = [sys.executable, str(HERE / "traced_job.py"), str(trace_path)] + argv
            else:
                argv = [sys.executable, "-m", "leveltower.cli"] + argv
            code, wall, cpu, rss, stdout = self.spawn(argv)
            self.check(job, code, stdout)
            walls.append(wall)
            cpus.append(cpu)
            rsss.append(rss)
            if traced:
                if not trace_path.exists():
                    raise SystemExit(f"traced job wrote no trace: {job.label()}\n{stdout}")
                traces.append(json.loads(trace_path.read_text(encoding="utf-8")))
                if code == 0:
                    reports.append(json.loads(stdout))
        return {"wall_s": sum(walls), "cpu_s": sum(cpus), "max_job_s": max(walls),
                "peak_rss_mb": max(rsss), "traces": traces, "reports": reports}


def self_times(spans) -> dict:
    """Per span name: total self time (duration minus direct children) and calls."""
    child = [0.0] * len(spans)
    for name, parent, start, end in spans:
        if parent >= 0:
            child[parent] += end - start
    out = {}
    for i, (name, _, start, end) in enumerate(spans):
        total, calls = out.get(name, (0.0, 0))
        out[name] = (total + end - start - child[i], calls + 1)
    return out


def layer_metrics(rnd: dict) -> tuple[dict, set]:
    """Per-layer metrics of one traced round, and the span and counter names that fired."""
    selfs, counters, import_s = {}, {}, 0.0
    for trace in rnd["traces"]:
        import_s += trace["import_s"]
        for name, (t, calls) in self_times(trace["spans"]).items():
            t0, c0 = selfs.get(name, (0.0, 0))
            selfs[name] = (t0 + t, c0 + calls)
        for key, value in trace["counters"].items():
            if key in ("rings.max_rank", "chartab.table_order"):
                counters[key] = max(counters.get(key, 0), value)
            else:
                counters[key] = counters.get(key, 0) + value
    out = {f"{name}_s": selfs.get(name, (0.0, 0))[0] for name in SPANS}
    out.update({key: selfs.get(name, (0.0, 0))[1] for key, name in CALL_COUNTS.items()})
    out.update({key: counters.get(key, 0) for key in COUNTERS})
    lookups = selfs.get("serialize.cache_get", (0.0, 0))[1]
    out["serialize.cache_hit_ratio"] = counters.get("serialize.cache_hits", 0) / lookups if lookups else 0.0
    checked = total = 0
    for rep in rnd["reports"]:
        if rep["command"] == "tower":
            c = rep["config"]
            checked += rep["results"]["level_check"]["pairs_checked"]
            total += c["q"] ** (2 * c["m"] * c["n"])
    out["formal.level_pairs_checked"] = checked
    out["formal.level_pair_coverage"] = checked / total if total else 0.0
    out["cli.import_s"] = import_s
    fired = {name for name, (_, calls) in selfs.items() if calls}
    fired |= {key for key, value in counters.items() if value}
    return out, fired


def run_record(before) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=30).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                    for p in sorted((SRC / "leveltower").glob("*.py")))
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "loadavg_before": list(before), "loadavg_after": list(os.getloadavg()),
            "commit": commit, "src_lines": src_lines}


def measure(args, runner: Runner, job_list) -> tuple[dict, dict]:
    plain, traced = [], []
    start = clock()
    while True:
        is_traced = bool(args.trace) and len(traced) < len(plain)
        t0 = clock()
        (traced if is_traced else plain).append(runner.round(job_list, is_traced))
        last = clock() - t0
        enough = not args.trace or traced
        if enough and clock() - start + last > args.seconds:
            break
    detail = {"rounds": len(plain), "traced_rounds": len(traced)}
    if not args.trace:
        metrics = {key: statistics.median(r[key] for r in plain)
                   for key in ("wall_s", "cpu_s", "max_job_s", "peak_rss_mb")}
        return metrics, detail
    per_round = [layer_metrics(r) for r in traced]
    missing = [name for name in COVERAGE[args.workload]
               if any(name not in fired for _, fired in per_round)]
    if missing:
        raise SystemExit(f"traced run: spans that never fired: {', '.join(missing)}")
    metrics = {key: statistics.median(m[key] for m, _ in per_round) for key in per_round[0][0]}
    metrics["trace.overhead_s"] = (statistics.median(r["wall_s"] for r in traced)
                                   - statistics.median(r["wall_s"] for r in plain))
    return metrics, detail


def micro(runner: Runner, seed: int) -> dict:
    code, _, _, _, out = runner.spawn([sys.executable, str(HERE / "micro.py"), "--seed", str(seed)])
    if code:
        raise SystemExit(f"microbenchmarks failed:\n{out}")
    return json.loads(out.strip().splitlines()[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="leveltower benchmark")
    ap.add_argument("--workload", required=True, choices=jobs.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # SIGTERM unwinds like an exception, so a running job is killed and reaped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "leveltower" / "cli.py").is_file():
        print(f"no leveltower sources under {SRC}", file=sys.stderr)
        return 2

    loadavg_before = os.getloadavg()
    job_list = jobs.build(args.workload, args.seed)
    workdir = WORK / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        runner = Runner(workdir)
        # Fill the bytecode cache first, as an installed package would have it.
        runner.spawn([sys.executable, "-c", "import leveltower.cli"])
        setup = None if args.trace else runner.setup_s()
        metrics, detail = measure(args, runner, job_list)
        if args.trace:
            metrics.update(micro(runner, args.seed))
            units = PER_LAYER_UNITS
        else:
            metrics["setup_s"] = setup
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    record = run_record(loadavg_before)
    fail_ratio = len(runner.failures) / runner.attempted
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"jobs/round {len(job_list)}  rounds {detail['rounds']}  "
          f"traced rounds {detail['traced_rounds']}")
    print("record " + json.dumps(record, sort_keys=True))
    for failure in runner.failures:
        print(f"FAILED {failure}")
    for key in units:
        print(f"{key:40s} {metrics[key]:>16.6f} {units[key]}")
    print(f"{'fail_ratio':40s} {fail_ratio:>16.6f} 1  "
          f"({len(runner.failures)} of {runner.attempted} jobs)")
    result = {
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": {key: {"value": metrics[key], "unit": units[key]} for key in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

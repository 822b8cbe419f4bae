"""Every span perfbench requires of a workload fires when its jobs run.

A traced benchmark run exits 1 when a span that `COVERAGE` in
perfbench/run.py lists for the workload never fires, for instance because a
change stopped calling the traced function.  Here each workload's seed-1 job
list runs in one fresh process, in process through `cli.main`, with the
wrappers of perfbench/traced_job.py installed and a temporary cache directory
in place of the `{cache_dir}` token.  Nothing under perfbench/ is changed.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


def _workloads():
    """perfbench/jobs.py's WORKLOADS, read without importing the module."""
    tree = ast.parse((PERFBENCH / "jobs.py").read_text(encoding="utf-8"))
    for node in tree.body:
        targets = [getattr(t, "id", None) for t in getattr(node, "targets", ())]
        if targets == ["WORKLOADS"]:
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/jobs.py defines no WORKLOADS")


# Importing run.py points the bytecode cache into its work directory; the
# prefix is restored before the package is imported, and the process is run
# with PYTHONDONTWRITEBYTECODE so that nothing is written there.
SCRIPT = r"""
import contextlib, io, json, sys
perfbench, workload, cache_dir = sys.argv[1:]
sys.path.insert(0, perfbench)
prefix = sys.pycache_prefix
import run
sys.pycache_prefix = prefix
import jobs, traced_job
import leveltower.cli as cli
rec = traced_job.Recorder()
traced_job.install(rec)
failed = []
for job in jobs.build(workload, 1):
    argv = [a.replace(jobs.CACHE_DIR_TOKEN, cache_dir) for a in job.argv]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    if code != 0 or job.check(json.loads(out.getvalue())["results"]) is not None:
        failed.append(job.label())
fired = {span[0] for span in rec.spans} | {k for k, v in rec.counters.items() if v}
print(json.dumps({"missing": [s for s in run.COVERAGE[workload] if s not in fired],
                  "failed": failed}))
"""


@pytest.mark.parametrize("workload", _workloads())
def test_every_covered_span_fires(workload, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, "-c", SCRIPT, str(PERFBENCH), workload,
                           str(tmp_path / "cache")],
                          capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout.strip().splitlines()[-1])
    assert got == {"missing": [], "failed": []}


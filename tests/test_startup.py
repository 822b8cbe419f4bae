"""What a CLI process imports: `import leveltower.cli` loads only the argument
parser, `json` and `errors`, and each command imports the modules it runs.

Structural, not timed: a fresh interpreter records `sys.modules` at its bare
start and reports which modules each step added.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = r"""
import contextlib, io, json, sys
bare = set(sys.modules)
import leveltower.cli as cli
after_import = set(sys.modules)
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(["tower", "--q", "2", "--n", "2", "--m", "2"])
print(json.dumps({"import": sorted(after_import - bare),
                  "tower": sorted(set(sys.modules) - bare), "code": code}))
"""


@pytest.fixture(scope="module")
def added():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", SCRIPT], capture_output=True, text=True,
                          timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_importing_the_cli_loads_no_command_module(added):
    loaded = added["import"]
    assert sorted(m for m in loaded if m.startswith("leveltower.")) == [
        "leveltower.cli", "leveltower.errors"]
    assert not {"dataclasses", "inspect", "hashlib", "fractions", "decimal"} & set(loaded)


def test_an_uncached_tower_loads_only_the_tower_path(added):
    assert added["code"] == 0
    others = {f"leveltower.{name}" for name in (
        "counting", "induced", "chartab", "groups", "cyclotomic", "strata", "certify",
        "division", "matrices", "laurent")}
    assert not (others | {"dataclasses", "hashlib"}) & set(added["tower"])

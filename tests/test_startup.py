"""What a CLI process imports: `import leveltower.cli` loads only `json` and
`errors`, and each command imports the modules it runs.

Structural, not timed: a fresh interpreter records `sys.modules` at its bare
start and reports which modules each step added.  It runs with `-S`, so no
`.pth` file of the installed site-packages can preload a module (`typing`,
`re`, `tempfile`, ...) and hide that the package imports it.
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
with contextlib.redirect_stdout(io.StringIO()) as report:
    code = cli.main(sys.argv[1:])
print(json.dumps({"import": sorted(after_import - bare),
                  "command": sorted(set(sys.modules) - bare), "code": code,
                  "report": report.getvalue()}))
"""


def run_fresh(*argv):
    """Modules a fresh interpreter added by importing the cli, and by then
    running the command argv, with its exit code and report."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-S", "-c", SCRIPT, *argv], capture_output=True,
                          text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def added():
    return run_fresh("tower", "--q", "2", "--n", "2", "--m", "2")


def test_importing_the_cli_loads_no_command_module(added):
    loaded = added["import"]
    assert sorted(m for m in loaded if m.startswith("leveltower.")) == [
        "leveltower.cli", "leveltower.errors"]
    assert not {"dataclasses", "inspect", "hashlib", "fractions", "decimal"} & set(loaded)
    # the flags are read from COMMANDS, with no argparse and its gettext and locale
    assert not {"argparse", "gettext", "locale", "typing"} & set(loaded)


def test_an_uncached_tower_loads_only_the_tower_path(added):
    assert added["code"] == 0
    others = {f"leveltower.{name}" for name in (
        "counting", "induced", "chartab", "groups", "cyclotomic", "strata", "certify",
        "division", "matrices", "laurent")}
    assert not (others | {"dataclasses", "hashlib"}) & set(added["command"])


@pytest.mark.parametrize("command", ["strata", "flags"])
def test_label_commands_load_no_dataclasses_and_no_counting(command):
    # a label is the echelon pair of tuples, so neither command builds a
    # dataclass, and neither counts cosets
    added = run_fresh(command, "--q", "2", "--n", "3", "--m", "2")
    assert added["code"] == 0
    assert "leveltower.strata" in added["command"]
    assert not {"dataclasses", "leveltower.counting"} & set(added["command"])


def test_a_cached_tower_loads_no_hashlib(tmp_path):
    # the cache key is a CRC-32, so neither a miss nor a hit loads OpenSSL
    argv = ("tower", "--q", "2", "--n", "2", "--m", "1", "--cache-dir", str(tmp_path))
    for hit in (False, True):
        added = run_fresh(*argv)
        assert added["code"] == 0
        assert json.loads(added["report"])["results"]["cache"]["hit"] is hit
        assert "leveltower.serialize" in added["command"]
        assert not {"hashlib", "_hashlib"} & set(added["command"])

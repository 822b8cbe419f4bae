"""End-to-end command driver checks through main()."""

import json
import os
import re
import resource
import subprocess
import sys
from pathlib import Path

import pytest

from leveltower import cli, counting, division, formal, induced, rings, serialize, strata
from leveltower.chain import ChainRing
from leveltower.errors import (
    CapExceeded,
    NonExactDivision,
    NotAFlag,
    OracleMismatch,
    PreconditionError,
    RankCapExceeded,
)


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def _fresh_cli(*argv):
    # a fresh process with a timeout, so an input that runs on fails instead of hanging
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parent.parent))
    return subprocess.run([sys.executable, "-m", "leveltower.cli", *argv],
                          capture_output=True, text=True, timeout=60, env=env)


def test_exit_code_mapping():
    assert cli.exit_code_for(PreconditionError("x")) == 2
    assert cli.exit_code_for(NotAFlag("x")) == 2
    assert cli.exit_code_for(CapExceeded("x")) == 3
    assert cli.exit_code_for(RankCapExceeded("x")) == 3
    assert cli.exit_code_for(OracleMismatch("x")) == 4
    assert cli.exit_code_for(NonExactDivision("x")) == 4


def test_tower_command(capsys):
    code, out, err = run(capsys, "tower", "--q", "2", "--n", "2", "--m", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == "leveltower/report/1"
    assert doc["results"]["rank"] == 6
    assert doc["results"]["stage_degrees"] == [3, 2]
    assert doc["results"]["level_check"]["ok"] is True


@pytest.mark.parametrize("q,rank", [(27, 702), (32, 992)])
def test_tower_at_a_level_above_the_chain_ring_cap(capsys, q, rank):
    # the level structure builds no chain ring, so q^m = 27^2 costs no
    # (q^m)^2 tables and 32^2 = 1024 > 729 is not refused
    code, out, err = run(capsys, "tower", "--q", str(q), "--n", "1", "--m", "2")
    assert (code, err) == (0, "")
    res = json.loads(out)["results"]
    assert res["rank"] == res["gl_order"] == rank
    assert res["level_check"]["ok"] is True


def test_tower_rank_cap_exit(capsys):
    code, out, err = run(capsys, "tower", "--q", "3", "--n", "3", "--m", "1")
    assert code == 3
    assert "cap" in err


def test_tower_cache_hit(capsys, tmp_path):
    argv = ["tower", "--q", "2", "--n", "2", "--m", "1",
            "--cache-dir", str(tmp_path)]
    code1, out1, _ = run(capsys, *argv)
    code2, out2, _ = run(capsys, *argv)
    assert code1 == code2 == 0
    d1, d2 = json.loads(out1), json.loads(out2)
    assert d1["results"]["cache"]["hit"] is False
    assert d2["results"]["cache"]["hit"] is True
    assert d1["results"]["rank"] == d2["results"]["rank"]
    assert d1["results"]["level_check"] == d2["results"]["level_check"]


def test_tower_cache_hit_keeps_rank_cap(capsys, tmp_path):
    # the ring of (2,2,3) has rank 12288, above the default cap; a reload must honour the flag
    argv = ["tower", "--q", "2", "--n", "2", "--m", "3", "--rank-cap", "100000",
            "--cache-dir", str(tmp_path)]
    code1, out1, _ = run(capsys, *argv)
    code2, out2, err2 = run(capsys, *argv)
    assert code1 == 0
    assert code2 == 0, err2
    assert json.loads(out1)["results"]["cache"]["hit"] is False
    assert json.loads(out2)["results"]["cache"]["hit"] is True


def test_tower_cache_key_names_the_schema(capsys, tmp_path, monkeypatch):
    # an entry written under another document schema is never looked up
    argv = ["tower", "--q", "2", "--n", "2", "--m", "1", "--cache-dir", str(tmp_path)]
    _, out1, _ = run(capsys, *argv)
    monkeypatch.setattr(serialize, "TOWER_SCHEMA", "leveltower/tower/1")
    code, out2, err = run(capsys, *argv)
    assert code == 0 and err == ""
    c1, c2 = json.loads(out1)["results"]["cache"], json.loads(out2)["results"]["cache"]
    assert c1["key"] != c2["key"]
    assert c2["hit"] is False


@pytest.mark.parametrize("kind", ["existing-file", "empty"])
def test_uncreatable_cache_dir_exits_2(capsys, tmp_path, kind):
    if kind == "existing-file":
        root = tmp_path / "taken"
        root.write_text("")
        reason = "File exists"
    else:
        root = ""
        reason = "No such file or directory"
    code, out, err = run(capsys, "tower", "--q", "2", "--n", "2", "--m", "1",
                         "--cache-dir", str(root))
    assert code == 2
    assert out == ""
    assert err == f"error: cannot create cache directory {str(root)!r}: {reason}\n"


def test_tower_height_zero_exit(capsys):
    code, out, err = run(capsys, "tower", "--q", "2", "--n", "0", "--m", "1")
    assert code == 2
    assert "height n must be >= 1" in err


def test_reports_are_byte_identical(capsys):
    code1, out1, _ = run(capsys, "jl", "--q", "2")
    code2, out2, _ = run(capsys, "jl", "--q", "2")
    assert code1 == code2 == 0
    assert out1 == out2


def test_strata_command(capsys):
    code, out, _ = run(capsys, "strata", "--q", "2", "--n", "3", "--m", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["results"]["counts"] == {"1": 7, "2": 7}
    assert doc["results"]["total"] == 14


def test_strata_action_zero_table(capsys):
    code, out, _ = run(capsys, "strata-action", "--q", "2", "--n", "3",
                       "--g", "companion:T^3+T+1", "--scan-m", "2")
    assert code == 0
    doc = json.loads(out)
    for row in doc["results"]["fixed_counts"].values():
        assert set(row.values()) == {0}
    assert doc["results"]["observed_minimal_free_level"] == {"1": 1, "2": 1}


def test_strata_action_zero_table_at_rank_5(capsys):
    # the certificate's discriminant is a 5 x 5 determinant, where the
    # Sylvester form was 9 x 9 and took seconds
    code, out, _ = run(capsys, "strata-action", "--q", "2", "--n", "5",
                       "--g", "companion:T^5+T^2+1", "--scan-m", "2")
    assert code == 0
    results = json.loads(out)["results"]
    assert results["fixed_counts"] == {str(h): {"1": 0, "2": 0} for h in range(1, 5)}
    assert results["observed_minimal_free_level"] == {str(h): 1 for h in range(1, 5)}


def test_strata_action_stops_when_nothing_is_fixed_mod_pi(capsys, monkeypatch):
    # T^3+T+1 is irreducible over F_2, so g fixes no label mod pi: one call
    # per rank makes the 7 eliminations of the level-1 census and returns 0,
    # and levels 2 to 4, where a full scan at level 4 makes 448, are not scanned
    echelon, fixed_count = ChainRing.echelon, strata.strata_fixed_count
    eliminations, per_call = [], []

    def counted_echelon(self, n, gens):
        eliminations.append(n)
        return echelon(self, n, gens)

    def counted_fixed_count(*args):
        before = len(eliminations)
        got = fixed_count(*args)
        per_call.append(len(eliminations) - before)
        return got

    monkeypatch.setattr(ChainRing, "echelon", counted_echelon)
    monkeypatch.setattr(strata, "strata_fixed_count", counted_fixed_count)
    code, _, _ = run(capsys, "strata-action", "--q", "2", "--n", "3",
                     "--g", "companion:T^3+T+1", "--scan-m", "4")
    assert code == 0
    assert len(per_call) == 2
    assert max(per_call) <= 7


def test_strata_n_must_be_positive(capsys):
    for n in ("0", "-1"):
        code, out, err = run(capsys, "strata", "--n", n)
        assert (code, out, err) == (2, "", "error: height n must be >= 1\n")
    code, out, err = run(capsys, "strata", "--n", "1")
    assert (code, err) == (0, "")
    assert json.loads(out)["results"]["counts"] == {}


@pytest.mark.parametrize("argv,message", [
    # 9,999,360 flags, refused before one is built
    (["flags", "--q", "2", "--n", "5", "--m", "2"],
     "error: full flags of (o/pi^2)^5 exceed cap 1500000\n"),
    # 2^18 - 1 lines, refused before one is built
    (["strata", "--q", "2", "--n", "18", "--m", "1"],
     "error: rank-1 labels of (o/pi^1)^18 exceed cap 200000\n"),
    # ranks 1 and 2 fit (175,274 labels) but rank 3 does not: refused before rank 1 is built
    (["strata", "--q", "2", "--n", "10", "--m", "1"],
     "error: rank-3 labels of (o/pi^1)^10 exceed cap 200000\n"),
], ids=["flags-2-5-2", "strata-2-18-1", "strata-2-10-1"])
def test_census_cap_exits_3(argv, message):
    proc = _fresh_cli(*argv)
    assert (proc.returncode, proc.stdout, proc.stderr) == (3, "", message)


@pytest.mark.parametrize("argv", [
    ["strata", "--q", "2", "--n", "10", "--m", "1"],
    ["strata-action", "--q", "2", "--n", "3", "--g", "companion:T^3+T+1", "--scan-m", "9"],
], ids=["strata", "strata-action"])
def test_census_refusal_builds_no_label(capsys, monkeypatch, argv):
    # every rank (and, for strata-action, every level) is sized before any is built
    built, enumerate_summands = [], strata.enumerate_summands

    def recorded(*args):
        labels = enumerate_summands(*args)
        built.append(args)
        return labels

    monkeypatch.setattr(strata, "enumerate_summands", recorded)
    code, out, err = run(capsys, *argv)
    assert (code, out) == (3, "")
    assert err.startswith("error: rank-") and err.endswith("exceed cap 200000\n")
    assert built == []


@pytest.mark.parametrize("n,message", [
    # |GL_100(F_3)| has more than 4,300 digits; |GL_3000(F_3)| would take minutes to form
    ("100", "error: ring rank >= 2^9900 exceeds cap 5000\n"),
    ("3000", "error: ring rank >= 2^8997000 exceeds cap 5000\n"),
], ids=["n100", "n3000"])
def test_huge_tower_is_refused_before_its_rank_is_formed(n, message):
    proc = _fresh_cli("tower", "--q", "3", "--n", n)
    assert (proc.returncode, proc.stdout, proc.stderr) == (3, "", message)


def _limit_address_space():
    # about 1 GB: an allocation sized by an oversized argument fails fast
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


def _limited_cli(*argv):
    # a fresh process under the address-space limit, with a timeout
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parent.parent))
    return subprocess.run([sys.executable, "-m", "leveltower.cli", *argv],
                          capture_output=True, text=True, timeout=60, env=env,
                          preexec_fn=_limit_address_space)


@pytest.mark.parametrize("argv,code,message", [
    (["count", "--q", "2", "--n", "2", "--m", "1000000000", "--b", "x:2",
      "--g", "companion:T^2+T+1"], 3,
     "error: chain ring size q^m = 2^1000000000 exceeds desk-scale table cap 729\n"),
    (["count", "--q", "2", "--n", "2", "--m", "1000000000000", "--b", "x:2",
      "--g", "companion:T^2+T+1"], 3,
     "error: chain ring size q^m = 2^1000000000000 exceeds desk-scale table cap 729\n"),
    (["count", "--q", "2", "--n", "1000000000000", "--m", "1", "--b", "x:2",
      "--g", "companion:T^2+T+1"], 3,
     "error: n = 1000000000000: the degree-n field F_(q^n) has 2^1000000000000 elements, "
     "above the 2^16 field cap\n"),
    (["tower", "--q", "2", "--n", "100000000", "--m", "1"], 3,
     "error: ring rank >= 2^9999999900000000 exceeds cap 5000\n"),
    (["flag-of-point", "--table", "100000000 2 1"], 2,
     "error: a value table of 0 rows cannot cover (o/pi^1)^100000000, q = 2\n"),
    (["flag-of-point", "--table", "1000000000000 2 1"], 2,
     "error: a value table of 0 rows cannot cover (o/pi^1)^1000000000000, q = 2\n"),
    (["count", "--q", "2", "--n", "2", "--m", "1", "--b", "x:2",
      "--g", "companion:T^300000+T+1"], 2,
     "error: matrix 'companion:T^300000+T+1' is 300000x300000, not 2x2\n"),
    # --q is in range: the refused field is the algebra's F_(q^n)
    (["count", "--q", "4", "--n", "9", "--m", "1", "--b", "x:2",
      "--g", "companion:T^2+T+1"], 3,
     "error: n = 9: the degree-n field F_(q^n) has 2^18 elements, above the 2^16 field cap\n"),
    (["count", "--q", "2", "--n", "17", "--m", "1", "--b", "x:2",
      "--g", "companion:T^2+T+1"], 3,
     "error: n = 17: the degree-n field F_(q^n) has 2^17 elements, above the 2^16 field cap\n"),
])
def test_oversized_sizes_are_refused_before_they_are_computed(tmp_path, argv, code, message):
    # each used to exit 4 (a MemoryError, or a size too long to print) or
    # exhaust memory; a flag-of-point table is given by its header line
    if argv[0] == "flag-of-point":
        table = tmp_path / "header.table"
        table.write_text(argv[-1] + "\n")
        argv = [*argv[:-1], str(table)]
    proc = _limited_cli(*argv)
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, "", message)


def test_coefficient_powers_are_not_repeated_products(monkeypatch):
    from leveltower.fq import FqField
    field = FqField(3)
    calls = []
    mul = FqField.mul

    def counted(self, a, b):
        calls.append((a, b))
        return mul(self, a, b)

    monkeypatch.setattr(FqField, "mul", counted)
    x = cli.parse_laurent("2^1000000", field)
    assert x.coeff(0) == 1       # 2 = -1 in F_3, to an even power
    assert len(calls) <= 64


def test_strata_action_census_cap_exits_3(capsys, monkeypatch):
    # (3,2,m) has 7 * 4^(m-1) rank-1 labels: 7 and 28 fit under a cap of 100, 112 does not
    monkeypatch.setattr(strata, "LABEL_CAP", 100)
    code, out, err = run(capsys, "strata-action", "--q", "2", "--n", "3",
                         "--g", "companion:T^3+T+1", "--scan-m", "4")
    assert (code, out, err) == (3, "", "error: rank-1 labels of (o/pi^3)^3 exceed cap 100\n")


def test_strata_action_rejects_non_unit(capsys):
    code, out, err = run(capsys, "strata-action", "--q", "2", "--n", "2",
                         "--g", "companion:T^2+P")
    assert code == 2
    assert "unit" in err


def test_flags_command(capsys):
    code, out, _ = run(capsys, "flags", "--q", "2", "--n", "2", "--m", "1")
    assert code == 0
    assert json.loads(out)["results"]["count"] == 3


def test_flag_of_point_command(capsys, tmp_path):
    table = tmp_path / "vt.txt"
    table.write_text("2 2 1\n0,1 : 1\n1,0 : 2\n1,1 : 2\n")
    code, out, _ = run(capsys, "flag-of-point", "--table", str(table))
    assert code == 0
    assert json.loads(out)["results"]["signature"] == [1, 2]
    bad = tmp_path / "bad.txt"
    bad.write_text("2 2 1\n0,1 : 1\n1,0 : 1\n1,1 : 2\n")
    code, out, err = run(capsys, "flag-of-point", "--table", str(bad))
    assert code == 2


def _bad_q_argv(command, q, tmp_path):
    if command == "flag-of-point":
        # complete for n = m = 1 over F_8, the field q = 6 used to be read as
        table = tmp_path / "vt.txt"
        table.write_text(f"1 {q} 1\n" + "".join(f"{c} : 1\n" for c in range(1, 8)))
        return [command, "--table", str(table)]
    if command == "strata-n1":
        # n = 1 has no ranks to enumerate, so no field is ever built
        return ["strata", "--q", str(q), "--n", "1"]
    argv = [command, "--q", str(q)]
    if command in ("strata", "flags"):
        argv += ["--n", "2", "--m", "1"]
    if command == "strata-action":
        argv += ["--n", "2", "--g", "companion:T^2+T+1"]
    return argv


@pytest.mark.parametrize("q", [1, 6, 12])
@pytest.mark.parametrize("command", ["strata", "flags", "strata-action", "flag-of-point",
                                     "strata-n1", "selftest", "jl"])
def test_q_not_prime_power_exits_2(command, q, tmp_path):
    proc = _fresh_cli(*_bad_q_argv(command, q, tmp_path))
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == f"error: q = {q} " + (
        "must be a prime power >= 2\n" if q < 2 else "is not a prime power\n")


def test_removed_knobs_are_rejected(capsys, tmp_path):
    for argv in (["strata", "--group-cap", "5"], ["strata", "--pair-cap", "5"],
                 ["selftest", "--seed", "5"], ["jl", "--q", "3", "--jl-q-cap", "3"]):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
    cfg = tmp_path / "run.cfg"
    for command, key in (("strata", "table_cap"), ("strata", "pair_cap"), ("jl", "jl_q_cap")):
        cfg.write_text(f"{key} = 5\n")
        code, out, err = run(capsys, command, "--config", str(cfg))
        assert code == 2
        assert "unknown config key" in err
    code, out, _ = run(capsys, "strata")
    assert sorted(json.loads(out)["config"]) == ["format", "m", "n", "q"]


README = Path(__file__).resolve().parent.parent / "README.md"
ALL_KNOBS = ("q", "n", "m", "u_spec", "rank_cap", "scan_m", "cache_dir")


@pytest.mark.parametrize("command,knobs,extra", [
    ("tower", "q n m u_spec rank_cap cache_dir", []),
    ("count", "q n m", ["--b", "x:2", "--g", "companion:T^2+T+1"]),
    ("strata", "q n m", []),
    ("strata-action", "q n scan_m", ["--g", "companion:T^2+T+1"]),
    ("flags", "q n m", []),
    ("flag-of-point", "", ["--table", "{table}"]),
    ("jl", "q", []),
    ("selftest", "q", []),
])
def test_command_takes_and_reports_only_its_knobs(capsys, tmp_path, command, knobs, extra):
    table = tmp_path / "vt.txt"
    table.write_text("2 2 1\n0,1 : 1\n1,0 : 2\n1,1 : 2\n")
    argv = [command] + [a.format(table=table) for a in extra]
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    config = json.loads(out)["config"]
    assert sorted(config) == sorted(knobs.split() + ["format"])
    if command == "flag-of-point":
        assert config == {"format": "json"}
    outside = next(k for k in ALL_KNOBS if k not in knobs.split())
    with pytest.raises(SystemExit) as exc:
        cli.main(argv + ["--" + outside.replace("_", "-"), "1"])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{outside} = 1\n")
    code, out, err = run(capsys, *argv, "--config", str(cfg))
    assert code == 2
    assert out == ""
    assert err == f"error: unknown config key '{outside}' for {command}\n"


def test_readme_knob_table_matches_the_commands():
    lines = README.read_text(encoding="utf-8").splitlines()
    start = lines.index("| command | knobs |") + 2
    documented = {}
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        name, flags = (cell.strip() for cell in line.strip("|").split("|"))
        documented[name.strip("`")] = tuple(
            flag.replace("-", "_") for flag in re.findall(r"`--([a-z-]+)`", flags))
    assert documented == {name: c.knobs for name, c in cli.COMMANDS.items()}


def test_huge_q_is_refused_before_factoring():
    # 2^61 - 1 is prime; trial division up to its square root would not finish
    proc = _fresh_cli("tower", "--q", "2305843009213693951")
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert proc.stderr == "error: q = 2305843009213693951 exceeds the 2^16 field cap\n"


@pytest.mark.parametrize("argv,message", [
    (["count", "--q", "2", "--n", "2", "--m", "1", "--b", "x:99",
      "--g", "companion:T^2+T+1"], "error: coefficient code 99 is outside 0..3\n"),
    (["count", "--q", "2", "--n", "2", "--m", "1", "--b", "x:2",
      "--g", "companion:T^2+T+Q"], "error: coefficient 'Q' is not an integer\n"),
    (["tower", "--u-spec", "abc"], "error: u-spec digit 'abc' is not an integer\n"),
    # a minus right after '^' is a negative exponent, not a subtraction
    (["count", "--q", "2", "--n", "2", "--m", "1", "--b", "w", "--g", "diag:P^-1,1"],
     "error: the element language has no negative exponents: 'P^-1'\n"),
    (["count", "--q", "2", "--n", "2", "--m", "1", "--b", "w", "--g", "diag:P^,1"],
     "error: missing exponent after '^' in 'P^'\n"),
    (["flags", "--n", "1"], "error: empty rank signature\n"),
    (["strata-action", "--q", "2", "--n", "3", "--g", "companion:T^3+T+1", "--scan-m", "0"],
     "error: scan_m 0 must be at least 1\n"),
    # u-spec digits must be F_q codes and nil orders at least 1
    (["tower", "--q", "2", "--n", "2", "--m", "2", "--u-spec", "3"],
     "error: u-spec digit code 3 is outside 0..1\n"),
    (["tower", "--q", "2", "--n", "2", "--m", "2", "--u-spec", "1,5"],
     "error: u-spec digit code 5 is outside 0..1\n"),
    (["tower", "--q", "2", "--n", "2", "--m", "2", "--u-spec", "nil-3"],
     "error: u-spec order -3 must be at least 1\n"),
    (["tower", "--q", "2", "--n", "2", "--m", "2", "--u-spec", "-1"],
     "error: u-spec digit code -1 is outside 0..1\n"),
    # a --g of another size than --n: count used to exit 4, strata-action to cut g silently
    (["count", "--q", "2", "--n", "3", "--m", "1", "--b", "x:3", "--g", "companion:T^2+T+1"],
     "error: matrix 'companion:T^2+T+1' is 2x2, not 3x3\n"),
    (["count", "--q", "2", "--n", "2", "--m", "1", "--b", "x:2", "--g", "mat:1,0,0;0,1,0;0,0,1"],
     "error: matrix 'mat:1,0,0;0,1,0;0,0,1' is 3x3, not 2x2\n"),
    (["count", "--q", "2", "--n", "2", "--m", "1", "--b", "x:2", "--g", "diag:1"],
     "error: matrix 'diag:1' is 1x1, not 2x2\n"),
    (["strata-action", "--q", "2", "--n", "3", "--g", "companion:T^2+T+1"],
     "error: matrix 'companion:T^2+T+1' is 2x2, not 3x3\n"),
    (["strata-action", "--q", "2", "--n", "2", "--g", "companion:T^3+T+1"],
     "error: matrix 'companion:T^3+T+1' is 3x3, not 2x2\n"),
    (["count", "--q", "2", "--n", "2", "--m", "1", "--b", "w", "--g", "companion:T^2+P^-1"],
     "error: the element language has no negative exponents: 'T^2+P^-1'\n"),
])
def test_bad_element_tokens_exit_2(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == message


@pytest.mark.parametrize("n,u_spec,entry", [("2", "1", 1), ("2", "1,1", 1), ("3", "0;1", 2)])
def test_u_spec_with_a_unit_constant_digit_exits_2(capsys, n, u_spec, entry):
    # a middle coefficient with a unit constant digit used to pass make_module
    # and fail later in ring_extend, with a message that named no input
    code, out, err = run(capsys, "tower", "--q", "2", "--n", n, "--m", "1", "--u-spec", u_spec)
    assert code == 2
    assert out == ""
    assert err == (f"error: u-spec entry {entry} has the unit constant digit 1; "
                   "middle coefficients must be multiples of pi\n")
    code, out, _ = run(capsys, "tower", "--q", "2", "--n", "2", "--m", "1", "--u-spec", "0,1")
    assert code == 0
    assert json.loads(out)["results"]["level_check"]["ok"]


@pytest.mark.parametrize("text,message", [
    ("2 2 x\n", "1: header entry 'x' is not an integer"),
    ("2 2 1\n0,a : 1\n", "2: code 'a' is not an integer"),
    # a second row for one vector used to replace the first silently
    ("2 2 1\n1,0 : 1\n1,0 : 2\n0,1 : 2\n1,1 : 2\n", "3: vector (1, 0) has a second row"),
    # n < 1 used to reach the table check ("covers 0 of -0.5") or "empty chain"
    ("-1 2 1\n", "1: height n must be >= 1"),
    ("0 2 1\n", "1: height n must be >= 1"),
])
def test_bad_table_tokens_exit_2(capsys, tmp_path, text, message):
    table = tmp_path / "vt.txt"
    table.write_text(text)
    code, out, err = run(capsys, "flag-of-point", "--table", str(table))
    assert code == 2
    assert out == ""
    assert err == f"error: {table}:{message}\n"


@pytest.mark.parametrize("command,flag", [("strata", "--config"), ("flag-of-point", "--table")])
def test_unreadable_file_exits_2(capsys, tmp_path, command, flag):
    missing = tmp_path / "missing.txt"
    code, out, err = run(capsys, command, flag, str(missing))
    assert code == 2
    assert out == ""
    assert err == f"error: cannot read {missing}: No such file or directory\n"
    binary = tmp_path / "binary.txt"
    binary.write_bytes(b"\xff\xfe\n")
    code, out, err = run(capsys, command, flag, str(binary))
    assert code == 2
    assert out == ""
    assert err == f"error: {binary} is not UTF-8 text\n"


def _unsorted_pairs(good):
    # the same value with its [index, coeff] pairs out of order fails the round trip
    doc = json.loads(good)
    vec_pairs = next(vp for vp in doc["table"] if len(vp[1]) > 1)
    vec_pairs[1].reverse()
    return json.dumps(doc)


def _index_beyond_rank(good):
    # well formed and round-tripping, but the term index is past the ring rank
    doc = json.loads(good)
    doc["table"][1][1] = [[1000000, 1]]
    return json.dumps(doc)


def _string_for_int(good):
    doc = json.loads(good)
    doc["ring"]["stages"][0]["degree"] = str(doc["ring"]["stages"][0]["degree"])
    return json.dumps(doc)


def _no_level_tables(good):
    doc = json.loads(good)
    doc["table"] = []
    return json.dumps(doc)


def _negative_level(good):
    doc = json.loads(good)
    doc["m"] = -1
    return json.dumps(doc)


def _u_spec_nil3(good):
    # well formed, but for u-spec nil3: it used to be served as a hit for the default nil2
    return serialize.canonical_dumps(serialize.tower_to_doc(formal.build_tower(2, 2, 1, [3])))


def _level_two(good):
    # well formed, but the (2,2,2) tower: it used to exit 4 on the tower rank check
    return serialize.canonical_dumps(serialize.tower_to_doc(formal.build_tower(2, 2, 2)))


def _key_outside_domain(good):
    # well formed and round-tripping, but the last key is not in (o/pi)^2
    doc = json.loads(good)
    doc["table"][-1][0] = [1, 7]
    return json.dumps(doc)


@pytest.mark.parametrize("text", [
    lambda good: good[: len(good) // 2],
    lambda good: '{"schema":"leveltower/tower/1"}',
    lambda good: json.dumps({"schema": serialize.TOWER_SCHEMA}),
    _unsorted_pairs,
    _index_beyond_rank,
    lambda good: "[]",
    _string_for_int,
    _no_level_tables,
    _key_outside_domain,
    _negative_level,
    _u_spec_nil3,
    _level_two,
    lambda good: good[:-1] + ',"note":"é"}',
], ids=["truncated", "old-schema", "no-ring", "round-trip", "index-beyond-rank",
        "not-an-object", "string-for-int", "no-level-tables", "key-outside-domain",
        "negative-level", "other-u-spec", "other-level", "non-ascii"])
def test_corrupt_cache_entry_is_a_miss(capsys, tmp_path, text):
    argv = ["tower", "--q", "2", "--n", "2", "--m", "1", "--cache-dir", str(tmp_path)]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    key = json.loads(out)["results"]["cache"]["key"]
    entry = tmp_path / f"{key}.json"
    entry.write_text(text(entry.read_text(encoding="utf-8")), encoding="utf-8")
    code, out, err = run(capsys, *argv)
    assert code == 0
    assert json.loads(out)["results"]["cache"]["hit"] is False
    assert err.startswith(f"warning: rebuilding unusable cache entry {key} (")
    assert err.count("\n") == 1
    code, out, err = run(capsys, *argv)
    assert code == 0 and err == ""
    assert json.loads(out)["results"]["cache"]["hit"] is True


def test_reload_defect_is_not_a_cache_miss(capsys, tmp_path, monkeypatch):
    # a bug in the reload code exits 4 with one line instead of a silent rebuild
    argv = ["tower", "--q", "2", "--n", "2", "--m", "1", "--cache-dir", str(tmp_path)]
    code, _, _ = run(capsys, *argv)
    assert code == 0

    def broken(doc):
        raise TypeError("reload defect")

    monkeypatch.setattr(serialize, "ring_from_doc", broken)
    code, out, err = run(capsys, *argv)
    assert code == 4
    assert out == ""
    assert err.startswith("error: internal defect: TypeError: reload defect (at ")
    assert err.count("\n") == 1


def _tower_entry(capsys, cache, *argv):
    """The cache entry that `tower <argv> --cache-dir cache` writes."""
    code, out, err = run(capsys, "tower", *argv, "--cache-dir", str(cache))
    assert code == 0, err
    return cache / (json.loads(out)["results"]["cache"]["key"] + ".json")


def test_cache_entry_of_a_huge_level_is_a_miss(capsys, tmp_path):
    # m = 40 over a ring of precision 41 and matching rank used to exit 4,
    # a MemoryError in listing the keys of (o/pi^40)^2
    shape = ["--q", "2", "--n", "2", "--m", "1"]
    entry = _tower_entry(capsys, tmp_path, *shape)
    doc = json.loads(entry.read_text())
    doc["m"] = 40
    doc["ring"]["rank"] = doc["ring"]["rank"] // doc["ring"]["prec"] * 41
    doc["ring"]["prec"] = 41
    entry.write_text(json.dumps(doc))
    proc = _limited_cli("tower", *shape, "--cache-dir", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["results"]["cache"]["hit"] is False
    assert proc.stderr.startswith(f"warning: rebuilding unusable cache entry {entry.stem} "
                                  "(PreconditionError: the document holds the tower ")
    assert proc.stderr.count("\n") == 1


def test_over_cap_tower_exits_3_although_a_matching_entry_exists(capsys, tmp_path):
    # the rank cap is applied before the lookup, and is not part of the key:
    # the one entry of the request exists, and is not served
    entry = _tower_entry(capsys, tmp_path, "--q", "2", "--n", "2", "--m", "2")
    assert entry.stem == serialize.content_key({
        "kind": "tower", "schema": serialize.TOWER_SCHEMA, "q": 2, "n": 2, "m": 2,
        "u_spec": None})
    proc = _limited_cli("tower", "--q", "2", "--n", "2", "--m", "2", "--rank-cap", "500",
                        "--cache-dir", str(tmp_path))
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        3, "", "error: ring rank 576 exceeds cap 500\n")
    assert os.listdir(tmp_path) == [entry.name]


def test_tower_cache_hit_under_another_rank_cap(capsys, tmp_path):
    # the cap does not change the tower, so a tower built under one cap is a
    # hit under any other cap it fits
    argv = ["tower", "--q", "2", "--n", "2", "--m", "1", "--cache-dir", str(tmp_path)]
    code1, out1, _ = run(capsys, *argv, "--rank-cap", "100000")
    code2, out2, err2 = run(capsys, *argv, "--rank-cap", "200000")
    assert code1 == code2 == 0 and err2 == ""
    c1, c2 = json.loads(out1)["results"]["cache"], json.loads(out2)["results"]["cache"]
    assert (c1["hit"], c2["hit"]) == (False, True)
    assert c1["key"] == c2["key"]


@pytest.mark.parametrize("argv,full,code,message", [
    (["jl", "--q", "9", "--form", "json"], ["jl", "--q", "9", "--format", "json"], 3,
     "error: group order 5760 exceeds the table cap 5000\n"),
    (["tower", "--q", "2", "--n", "2", "--m", "1", "--rank", "9"],
     ["tower", "--q", "2", "--n", "2", "--m", "1", "--rank-cap", "9"], 3,
     "error: ring rank 24 exceeds cap 9\n"),
], ids=["jl-format", "tower-rank-cap"])
def test_flags_need_their_full_spelling(capsys, argv, full, code, message):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == f"error: unrecognized arguments: {' '.join(argv[-2:])}\n"
    assert run(capsys, *full) == (code, "", message)


def test_count_command(capsys):
    code, out, _ = run(capsys, "count", "--q", "2", "--n", "2", "--m", "1",
                       "--b", "x:2", "--g", "companion:T^2+T+1")
    assert code == 0
    doc = json.loads(out)
    assert doc["results"]["agreement"] is True
    assert doc["results"]["total"] == doc["results"]["per_fiber"] * 2
    assert doc["results"]["structured"]["per_fiber"] == doc["results"]["bruteforce"]["per_fiber"]


COUNT_ARGV = ("count", "--q", "2", "--n", "2", "--m", "1", "--b", "x:2", "--g", "companion:T^2+T+1")


def test_count_certifies_b_once(capsys, monkeypatch):
    calls = []

    def counted(pol):
        calls.append(pol)
        return certify(pol)

    certify = division.regular_elliptic_certify
    monkeypatch.setattr(division, "regular_elliptic_certify", counted)
    code, _, err = run(capsys, *COUNT_ARGV)
    assert (code, err) == (0, "")
    assert len(calls) == 1


def test_count_computes_the_reduced_charpoly_once(capsys, monkeypatch):
    calls = []
    charpoly = division.DivisionAlgebra.reduced_charpoly

    def counted(alg, b):
        calls.append(b)
        return charpoly(alg, b)

    monkeypatch.setattr(division.DivisionAlgebra, "reduced_charpoly", counted)
    code, _, err = run(capsys, *COUNT_ARGV)
    assert (code, err) == (0, "")
    assert len(calls) == 1


def test_count_routes_that_disagree_exit_4(capsys, monkeypatch):
    code, out, _ = run(capsys, *COUNT_ARGV)
    assert code == 0
    total = json.loads(out)["results"]["total"]
    brute = division.count_brute

    def one_too_many(b, g, m):
        res = brute(b, g, m)
        return counting.CountResult(res.count + 1, res.stable)

    monkeypatch.setattr(division, "count_brute", one_too_many)
    code, out, err = run(capsys, *COUNT_ARGV)
    assert (code, out) == (4, "")
    assert err == f"error: structured total {total} != brute-force total {total + 2}\n"


@pytest.mark.parametrize("q,n,m,g", [(2, 3, 2, "companion:T^3+T+1"),
                                     (3, 2, 3, "companion:T^2+T+2+P")])
def test_count_past_the_old_unit_scan_cap(capsys, q, n, m, g):
    # |GL_n(o/pi^m)| is 262,144 and 531,441 candidates here, over the 200k
    # scan cap; the frame count only lists the residue units mod pi
    code, out, err = run(capsys, "count", "--q", str(q), "--n", str(n), "--m", str(m),
                         "--b", "x:3", "--g", g)
    assert (code, err) == (0, "")
    res = json.loads(out)["results"]
    assert res["agreement"] is True
    assert res["structured"]["per_fiber"] == res["bruteforce"]["per_fiber"]
    assert res["per_fiber"] in (0, (q ** n - 1) * q ** (n * (m - 1)))


def test_count_at_rank_5_reaches_the_unit_scan_cap(capsys):
    # the certificate and the normalizer test take n x n determinants, so
    # the unit-scan cap is the first thing that stops this count
    code, out, err = run(capsys, "count", "--q", "2", "--n", "5", "--m", "1",
                         "--b", "x:3", "--g", "companion:T^5+T^2+1")
    assert (code, out) == (3, "")
    assert err == "error: unit group scan size 33554432 exceeds cap 200000\n"


@pytest.mark.parametrize("g,message", [
    ("diag:1,P", "element has v(det g) = 1 but least entry valuation 0: "
                 "not in pi^Z GL_n(o), so it does not normalize K_m"),
    ("mat:1,1;1,1", "matrix is singular, no elementary divisors"),
    ("diag:0,0", "matrix is singular, no elementary divisors"),
], ids=["outside-the-normalizer", "singular", "zero"])
def test_count_refuses_a_g_outside_the_normalizer(capsys, g, message):
    code, out, err = run(capsys, "count", "--q", "2", "--n", "2", "--m", "1",
                         "--b", "w", "--g", g)
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("q,n,m,g", [(2, 3, 3, "companion:T^3+T+1"),
                                     (2, 4, 1, "companion:T^4+T+1")])
def test_count_past_the_old_lattice_box_cap(capsys, q, n, m, g):
    # the brute box held 515,970 and 2,983,500 candidates here, over the old
    # 400k cap; the stable-lattice descent visits one lattice
    code, out, err = run(capsys, "count", "--q", str(q), "--n", str(n), "--m", str(m),
                         "--b", "x:3", "--g", g)
    assert (code, err) == (0, "")
    res = json.loads(out)["results"]
    assert res["agreement"] is True
    assert res["bruteforce"]["stable"] is True
    assert res["structured"]["per_fiber"] == res["bruteforce"]["per_fiber"]


def test_count_refuses_past_the_lattice_visit_cap(capsys, monkeypatch):
    monkeypatch.setattr(counting, "BRUTE_LATTICE_CAP", 0)
    code, out, err = run(capsys, *COUNT_ARGV)
    assert (code, out) == (3, "")
    assert err == "error: stable lattice descent visits more than 0 lattices\n"


def test_unknown_command_lists_every_command(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["nope"])
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == ("error: argument command: invalid choice: 'nope' (choose from "
                       + ", ".join(repr(name) for name in cli.COMMANDS) + ")\n")


@pytest.mark.parametrize("argv", [["--help"], ["-h"], ["tower", "--help"],
                                  ["count", "--q", "2", "-h"]])
def test_help_goes_to_stdout_and_exits_0(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert out.startswith("usage: leveltower ")
    if argv[0] == "count":
        # every flag the command takes is listed, its required arguments too
        assert all(f"--{flag} " in out for flag in ("config", "q", "n", "m", "format", "b", "g"))
        assert "--timings" in out
    elif len(argv) == 1:
        assert all(f"  {name} " in out for name in cli.COMMANDS)


@pytest.mark.parametrize("argv,message", [
    ([], "the following arguments are required: command"),
    (["tower", "--bogus", "1"], "unrecognized arguments: --bogus 1"),
    # a knob of another command is not a flag of this one
    (["jl", "--m", "2"], "unrecognized arguments: --m 2"),
    (["jl", "--q", "2", "3"], "unrecognized arguments: 3"),
    (["jl", "--q"], "argument --q: expected one argument"),
    (["jl", "--q", "--format", "json"], "argument --q: expected one argument"),
    (["jl", "--q", "x"], "argument --q: invalid int value: 'x'"),
    (["jl", "--q="], "argument --q: invalid int value: ''"),
    (["jl", "--format", "xml"],
     "argument --format: invalid choice: 'xml' (choose from 'json', 'csv', 'text')"),
    (["count", "--q", "2"], "the following arguments are required: --b, --g"),
    (["count", "--g", "diag:1,1"], "the following arguments are required: --b"),
    (["jl", "--timings=1"], "argument --timings: ignored explicit argument '1'"),
    # a bad value is reported before a missing argument, and that before an unknown flag
    (["count", "--bogus", "1", "--q", "x"], "argument --q: invalid int value: 'x'"),
    (["count", "--bogus", "1"], "the following arguments are required: --b, --g"),
])
def test_usage_errors_exit_2_with_one_line(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_flag_spellings_and_repeats(capsys):
    base = run(capsys, "strata", "--q", "2", "--n", "3", "--m", "1")
    assert base[0] == 0
    # `--name=value` is `--name value`, and a repeated flag keeps its last value
    assert run(capsys, "strata", "--q=2", "--n=3", "--m", "1") == base
    assert run(capsys, "strata", "--q", "3", "--n", "3", "--q", "2", "--m=2", "--m", "1") == base
    # a negative integer is a value, not a flag
    assert run(capsys, "strata", "--q", "2", "--n", "-3") == (
        2, "", "error: height n must be >= 1\n")
    code, out, err = run(capsys, "strata", "--q", "2", "--n", "3", "--m", "1", "--timings",
                         "--timings")
    assert (code, err) == (0, "")
    assert "total_seconds" in json.loads(out)["timings"]


def test_jl_cap_exit(capsys):
    # the table cap is the one bound: GL_2(F_5) (order 480) is matched, GL_2(F_9) refused
    code, out, _ = run(capsys, "jl", "--q", "5")
    assert code == 0 and json.loads(out)["results"]["cuspidal_count"] == 10
    code, out, err = run(capsys, "jl", "--q", "9")
    assert (code, out, err) == (3, "", "error: group order 5760 exceeds the table cap 5000\n")
    with pytest.raises(SystemExit) as exc:
        cli.main(["jl", "--q", "4", "--jl-q-cap", "4"])
    assert exc.value.code == 2
    assert capsys.readouterr().err == "error: unrecognized arguments: --jl-q-cap 4\n"


JL_TABLE_CAP_ERR = "error: group order 61200 exceeds the table cap 5000\n"


def test_jl_table_cap_is_checked_before_the_group_is_built(capsys, monkeypatch):
    def unbuilt(*args):
        raise AssertionError("GL_2(F_q) was built")

    monkeypatch.setattr(induced, "group_gl", unbuilt)
    code, out, err = run(capsys, "jl", "--q", "16")
    assert (code, out, err) == (3, "", JL_TABLE_CAP_ERR)


def test_jl_table_cap_refuses_a_fresh_process():
    proc = _fresh_cli("jl", "--q", "16")
    assert (proc.returncode, proc.stdout, proc.stderr) == (3, "", JL_TABLE_CAP_ERR)


def test_jl_command_values(capsys):
    # width is phi of the shared conductor, lcm of the two group exponents: 6 and 24
    for q, pairs, width in [(2, [[0, 2]], 2), (3, [[2, 5], [3, 6], [4, 4]], 8)]:
        code, out, _ = run(capsys, "jl", "--q", str(q))
        doc = json.loads(out)
        assert doc["results"]["pairs"] == pairs
        assert doc["results"]["cuspidal_count"] == len(pairs)
        for check in doc["results"]["checks"]:
            for rho, pi in check["values"]:
                assert len(rho) == len(pi) == width
                assert all(type(c) is int for c in rho + pi)
                assert rho == [-c for c in pi]


def test_config_file_with_flag_override(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("q = 3\nn = 2\nm = 1\n# comment\nformat = json\n")
    code, out, _ = run(capsys, "strata", "--config", str(cfg))
    assert code == 0
    doc = json.loads(out)
    assert doc["config"]["q"] == 3
    assert doc["results"]["counts"] == {"1": 4}
    code, out, _ = run(capsys, "strata", "--config", str(cfg), "--q", "2")
    assert json.loads(out)["config"]["q"] == 2


@pytest.mark.parametrize("key", ["q", "n", "rank_cap"])
def test_config_none_only_for_prec(capsys, tmp_path, key):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{key} = none\n")
    code, out, err = run(capsys, "strata", "--config", str(cfg))
    assert code == 2
    assert out == ""
    assert err == f"error: {key} 'none' is not an integer\n"
    # the ring precision is m + 1, worked out rather than set
    cfg.write_text("prec = none\n")
    code, out, err = run(capsys, "tower", "--config", str(cfg))
    assert code == 2
    assert out == ""
    assert err == "error: unknown config key 'prec' for tower\n"


def test_csv_format_versioned_header(capsys):
    code, out, _ = run(capsys, "strata", "--q", "2", "--n", "3", "--m", "1",
                       "--format", "csv")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "schema,command,q,n,m,h,count"
    assert lines[1].startswith("leveltower-csv/1,strata,2,3,1,1,7")


def test_text_format(capsys):
    code, out, _ = run(capsys, "flags", "--q", "2", "--n", "2", "--m", "1",
                       "--format", "text")
    assert code == 0
    assert out.startswith("command: flags")


def test_bad_format_rejected(capsys, tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("format = nope\n")
    code, out, err = run(capsys, "strata", "--q", "2", "--config", str(cfg))
    assert code == 2
    assert "format" in err


def test_selftest_command(capsys):
    code, out, _ = run(capsys, "selftest")
    assert code == 0
    doc = json.loads(out)
    assert all(c["status"] == "pass" for c in doc["results"]["checks"])


def test_selftest_catches_a_non_commutative_product(capsys, monkeypatch):
    # skew only the precision-3 ring the axiom check builds; the tower rings have precision 2
    product = rings.CoeffRing._mul_dicts

    def skewed(ring, A, B):
        out = product(ring, A, B)
        if ring.prec == 3 and len(A) == len(B) == 1 and min(A) > min(B):
            out = {**out, 0: ring.field.add(out.get(0, 0), 1)}
        return {k: c for k, c in out.items() if c}

    monkeypatch.setattr(rings.CoeffRing, "_mul_dicts", skewed)
    code, out, err = run(capsys, "selftest")
    assert (code, out, err) == (4, "", "error: selftest failed at ring axioms\n")

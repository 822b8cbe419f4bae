"""End-to-end command driver checks through main()."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from leveltower import cli, serialize, strata
from leveltower.errors import (
    CapExceeded,
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
    assert cli.EXIT_CODES["mismatch"] == 4


def test_tower_command(capsys):
    code, out, err = run(capsys, "tower", "--q", "2", "--n", "2", "--m", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == "leveltower/report/1"
    assert doc["results"]["rank"] == 6
    assert doc["results"]["stage_degrees"] == [3, 2]
    assert doc["results"]["level_check"]["ok"] is True


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
    monkeypatch.setattr(cli, "TOWER_SCHEMA", "leveltower/tower/1")
    code, out2, err = run(capsys, *argv)
    assert code == 0 and err == ""
    c1, c2 = json.loads(out1)["results"]["cache"], json.loads(out2)["results"]["cache"]
    assert c1["key"] != c2["key"]
    assert c2["hit"] is False


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
], ids=["flags-2-5-2", "strata-2-18-1"])
def test_census_cap_exits_3(argv, message):
    proc = _fresh_cli(*argv)
    assert (proc.returncode, proc.stdout, proc.stderr) == (3, "", message)


def test_strata_action_census_cap_exits_3(capsys, monkeypatch):
    # (3,2,m) has 7 * 4^(m-1) rank-1 labels: 7 and 28 fit under a cap of 100, 112 does not
    monkeypatch.setattr(strata, "_enum_cache", {})
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
                 ["selftest", "--seed", "5"]):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
    cfg = tmp_path / "run.cfg"
    for key in ("table_cap", "pair_cap"):
        cfg.write_text(f"{key} = 5\n")
        code, out, err = run(capsys, "strata", "--config", str(cfg))
        assert code == 2
        assert "unknown config key" in err
    code, out, _ = run(capsys, "strata")
    assert sorted(json.loads(out)["config"]) == ["format", "m", "n", "q"]


README = Path(__file__).resolve().parent.parent / "README.md"
ALL_KNOBS = ("q", "n", "m", "prec", "u_spec", "rank_cap", "jl_q_cap", "scan_m",
             "cache_dir")


@pytest.mark.parametrize("command,knobs,extra", [
    ("tower", "q n m prec u_spec rank_cap cache_dir", []),
    ("count", "q n m", ["--b", "x:2", "--g", "companion:T^2+T+1"]),
    ("strata", "q n m", []),
    ("strata-action", "q n scan_m", ["--g", "companion:T^2+T+1"]),
    ("flags", "q n m", []),
    ("flag-of-point", "", ["--table", "{table}"]),
    ("jl", "q jl_q_cap", []),
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
    # P^-1 splits into the terms P^ and -1; it used to run as 1 + pi
    (["count", "--q", "2", "--n", "2", "--m", "1", "--b", "w", "--g", "diag:P^-1,1"],
     "error: missing exponent after '^' in 'P^'\n"),
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
])
def test_bad_element_tokens_exit_2(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == message


@pytest.mark.parametrize("text,message", [
    ("2 2 x\n", "1: header entry 'x' is not an integer"),
    ("2 2 1\n0,a : 1\n", "2: code 'a' is not an integer"),
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
], ids=["truncated", "old-schema", "no-ring", "round-trip", "index-beyond-rank",
        "not-an-object", "string-for-int", "no-level-tables", "key-outside-domain",
        "negative-level"])
def test_corrupt_cache_entry_is_a_miss(capsys, tmp_path, text):
    argv = ["tower", "--q", "2", "--n", "2", "--m", "1", "--cache-dir", str(tmp_path)]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    key = json.loads(out)["results"]["cache"]["key"]
    entry = tmp_path / f"{key}.json"
    entry.write_text(text(entry.read_text()))
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


@pytest.mark.parametrize("argv,full,code,message", [
    (["jl", "--q", "2", "--jl-q", "3"], ["jl", "--q", "2", "--jl-q-cap", "3"], 0, ""),
    (["tower", "--q", "2", "--n", "2", "--m", "1", "--rank", "9"],
     ["tower", "--q", "2", "--n", "2", "--m", "1", "--rank-cap", "9"], 3,
     "error: ring rank 24 exceeds cap 9\n"),
], ids=["jl-q-cap", "tower-rank-cap"])
def test_flags_need_their_full_spelling(capsys, argv, full, code, message):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == f"error: unrecognized arguments: {' '.join(argv[-2:])}\n"
    got, out, err = run(capsys, *full)
    assert (got, err) == (code, message)
    if code == 0:
        assert json.loads(out)["config"]["jl_q_cap"] == 3


def test_count_command(capsys):
    code, out, _ = run(capsys, "count", "--q", "2", "--n", "2", "--m", "1",
                       "--b", "x:2", "--g", "companion:T^2+T+1")
    assert code == 0
    doc = json.loads(out)
    assert doc["results"]["agreement"] is True
    assert doc["results"]["total"] == doc["results"]["per_fiber"] * 2
    assert doc["results"]["structured"]["per_fiber"] == doc["results"]["bruteforce"]["per_fiber"]



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


def test_count_refuses_an_oversized_lattice_box_before_scanning(capsys):
    # (2,3,3) has a brute box bound of 5: 1365 * 63 * 6 candidates
    code, out, err = run(capsys, "count", "--q", "2", "--n", "3", "--m", "3",
                         "--b", "x:3", "--g", "companion:T^3+T+1")
    assert (code, out) == (3, "")
    assert err == "error: lattice box of 515970 candidates exceeds cap 400000\n"

def test_jl_cap_exit(capsys):
    code, out, err = run(capsys, "jl", "--q", "5")
    assert code == 3


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
    cfg.write_text("prec = none\n")
    code, out, err = run(capsys, "tower", "--config", str(cfg))
    assert code == 0 and err == ""
    assert json.loads(out)["config"]["prec"] is None


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
    product = cli.CoeffRing._mul_dicts

    def skewed(ring, A, B):
        out = product(ring, A, B)
        if ring.prec == 3 and len(A) == len(B) == 1 and min(A) > min(B):
            out = {**out, 0: ring.field.add(out.get(0, 0), 1)}
        return {k: c for k, c in out.items() if c}

    monkeypatch.setattr(cli.CoeffRing, "_mul_dicts", skewed)
    code, out, err = run(capsys, "selftest")
    assert (code, out, err) == (4, "", "error: selftest failed at ring axioms\n")

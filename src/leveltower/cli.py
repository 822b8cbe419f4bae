"""Command-line driver with reproducible, schema-versioned reports.

Each command declares in COMMANDS the knobs it reads.  Only those can be
set, from an optional flat key=value file overridden by command-line flags,
and every report embeds exactly those knobs, resolved, so a report
identifies its own inputs.  With the same configuration the emitted
bytes are identical run to run (timings are only included on request,
since they cannot be).

Exit codes: 0 success, 2 a refused input or failed certification (a usage
error included), 3 a desk-scale cap was exceeded, 4 an internal defect: two
computation routes disagreed or an unexpected exception was raised (never
user error).  Every nonzero exit writes one `error:` line to stderr.

Importing this module loads only `json` and `errors`; each command imports
the modules it runs, so a process loads only its own.  The argument grammar
is read from COMMANDS by `parse_args`, so no parser object is built.
"""

from __future__ import annotations

import json
import sys
from time import perf_counter

from .errors import (
    DEFAULT_RANK_CAP,
    CapExceeded,
    NonExactDivision,
    NotAFlag,
    OracleMismatch,
    PreconditionError,
)

CSV_SCHEMA = "leveltower-csv/1"

EXIT_OK = 0
EXIT_PRECONDITION = 2
EXIT_CAP = 3
EXIT_MISMATCH = 4


def exit_code_for(exc: BaseException) -> int | None:
    if isinstance(exc, CapExceeded):
        return EXIT_CAP
    if isinstance(exc, (OracleMismatch, NonExactDivision)):
        return EXIT_MISMATCH
    if isinstance(exc, (PreconditionError, NotAFlag)):
        return EXIT_PRECONDITION
    return None


# -- configuration ----------------------------------------------------------------


class RunConfig:
    q: int = 2
    n: int = 2
    m: int = 1
    u_spec: str | None = None
    rank_cap: int = DEFAULT_RANK_CAP
    scan_m: int = 3
    cache_dir: str | None = None
    format: str = "json"

    def resolved(self, knobs) -> dict:
        """The report's `config`: the given knobs and `format`, checked."""
        out = {key: getattr(self, key) for key in knobs}
        out["format"] = self.format
        if self.format not in FORMATS:
            raise PreconditionError(f"unknown output format {self.format!r}")
        if out.get("rank_cap", 1) <= 0:
            raise PreconditionError("cap rank_cap must be positive")
        if out.get("n", 1) < 1:
            raise PreconditionError("height n must be >= 1")
        if out.get("scan_m", 1) < 1:
            raise PreconditionError(f"scan_m {out['scan_m']} must be at least 1")
        if "q" in out:
            from .fq import split_prime_power
            split_prime_power(out["q"])
        return out

    def parsed_u_spec(self):
        if self.u_spec is None:
            return None
        out = []
        for tok in self.u_spec.split(";"):
            tok = tok.strip()
            if tok.startswith("nil"):
                out.append(_int(tok[3:], "u-spec order"))
            else:
                out.append([_int(c, "u-spec digit") for c in tok.split(",")])
        return out


_INT_KEYS = {"q", "n", "m", "rank_cap", "scan_m"}
FORMATS = ("json", "csv", "text")


def _int(tok: str, what: str, bound: int | None = None) -> int:
    """An integer token; PreconditionError unless it is one and, given a bound, in 0..bound-1."""
    try:
        v = int(tok)
    except ValueError:
        raise PreconditionError(f"{what} {tok!r} is not an integer") from None
    if bound is not None and not 0 <= v < bound:
        raise PreconditionError(f"{what} code {v} is outside 0..{bound - 1}")
    return v


def _read_lines(path: str):
    """(line number, text) of each line of a file that is not blank once `#` comments are cut."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise PreconditionError(f"cannot read {path}: {exc.strerror}") from None
    except UnicodeDecodeError:
        raise PreconditionError(f"{path} is not UTF-8 text") from None
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def load_config_file(path: str) -> dict:
    out = {}
    for lineno, line in _read_lines(path):
        if "=" not in line:
            raise PreconditionError(f"{path}:{lineno}: expected key=value")
        key, _, value = line.partition("=")
        key = key.strip().replace("-", "_")
        value = value.strip()
        if key in _INT_KEYS:
            out[key] = _int(value, key)
        else:
            out[key] = value
    return out


def resolve_config(name: str, args: dict) -> RunConfig:
    """The command's knobs from `--config`, then from its flags; any other key exits 2."""
    cfg = RunConfig()
    settable = (*COMMANDS[name].knobs, "format")
    if args["config"]:
        for key, value in load_config_file(args["config"]).items():
            if key not in settable:
                raise PreconditionError(f"unknown config key {key!r} for {name}")
            setattr(cfg, key, value)
    for key in settable:
        if args[key] is not None:
            setattr(cfg, key, args[key])
    return cfg


# -- element mini-language ----------------------------------------------------------


def parse_laurent(expr: str, field: FqField) -> Laurent:
    """Sum of terms over F_q((pi)): `3`, `P`, `P^2`, `2*P^3`, `1+P`, `-P`."""
    return parse_poly(expr, field, 0)[0]


def parse_poly(expr: str, field: FqField, max_t: int):
    """Coefficient list (low degree first) of a polynomial in T over F_q((pi)).

    max_t, the largest T-degree accepted, is 0 for a scalar entry and n for
    an n x n `companion:` matrix, whose larger degrees get `parse_matrix`'s
    wrong-size message; both are refused before the list is allocated.
    """
    from .laurent import Laurent
    spec = f"companion:{expr}"
    expr = expr.replace(" ", "")
    if not expr:
        raise PreconditionError("empty element expression")
    terms = []
    sign, cur = 1, ""
    for ch in expr:
        if ch == "-" and cur.endswith("^"):
            raise PreconditionError(
                f"the element language has no negative exponents: {expr!r}")
        if ch in "+-" and cur:
            terms.append((sign, cur))
            sign, cur = (1 if ch == "+" else -1), ""
        elif ch == "-" and not cur:
            sign = -sign
        elif ch == "+" and not cur:
            pass
        else:
            cur += ch
    if not cur:
        raise PreconditionError(f"dangling sign in {expr!r}")
    terms.append((sign, cur))

    parsed = []
    for sign, term in terms:
        code = 1
        pi_exp = 0
        t_deg = 0
        for factor in term.split("*"):
            if not factor:
                raise PreconditionError(f"empty factor in term {term!r}")
            base, caret, exp = factor.partition("^")
            if caret and not exp:
                raise PreconditionError(f"missing exponent after '^' in {factor!r}")
            e = _int(exp, "exponent") if caret else 1
            if base == "P":
                pi_exp += e
            elif base == "T":
                if not max_t:
                    raise PreconditionError("T is not allowed in a scalar entry")
                t_deg += e
            else:
                code = field.mul(code, field.pow(_int(base, "coefficient", field.q), e))
        parsed.append((t_deg, pi_exp, field.neg(code) if sign < 0 else code))
    degree = max(t_deg for t_deg, _, _ in parsed)
    if degree > max_t:
        raise PreconditionError(f"matrix {spec!r} is {degree}x{degree}, not {max_t}x{max_t}")
    out = [Laurent.zero(field)] * (degree + 1)
    for t_deg, pi_exp, code in parsed:
        out[t_deg] = out[t_deg] + Laurent.pi(field, pi_exp).scale(code)
    return out


def parse_matrix(spec: str, field: FqField, n: int):
    """An n x n matrix in the mini-language: companion:<poly in T>, diag:<entries>, mat:<rows>."""
    from .laurent import Laurent
    kind, sep, rest = spec.partition(":")
    if not sep:
        raise PreconditionError(
            f"matrix spec {spec!r} needs a kind prefix (companion:, diag:, mat:)")
    if kind == "companion":
        from .matrices import companion
        g = companion(field, parse_poly(rest, field, n))
    elif kind == "diag":
        entries = [parse_laurent(tok, field) for tok in rest.split(",")]
        zero = Laurent.zero(field)
        g = [[e if i == j else zero for j in range(len(entries))] for i, e in enumerate(entries)]
    elif kind == "mat":
        g = [[parse_laurent(tok, field) for tok in row.split(",")]
             for row in rest.split(";")]
        if any(len(r) != len(g) for r in g):
            raise PreconditionError("mat: needs a square matrix")
    else:
        raise PreconditionError(f"unknown matrix kind {kind!r}")
    if len(g) != n:
        raise PreconditionError(f"matrix {spec!r} is {len(g)}x{len(g)}, not {n}x{n}")
    return g


def parse_algebra_element(spec: str, alg: DivisionAlgebra):
    """Element of the division algebra: `w`, `x:<code>`, or `<c0>;<c1>;...`
    with each slot a scalar expression over the degree-n coefficient field."""
    if spec == "w":
        return alg.uniformizer()
    if spec.startswith("x:"):
        return alg.teichmuller(_int(spec[2:], "coefficient", alg.big.q))
    slots = spec.split(";")
    if len(slots) != alg.n:
        raise PreconditionError(f"expected {alg.n} coordinate slots")
    return alg.elem([parse_laurent(tok, alg.big) for tok in slots])


# -- commands -------------------------------------------------------------------


def cmd_tower(cfg: RunConfig) -> dict:
    from .formal import build_tower, check_level, gl_order, tower_rank, u_spec_label
    u_spec = cfg.parsed_u_spec()
    tower_rank(cfg.n, cfg.q, cfg.m, u_spec, cfg.rank_cap)  # over the cap exits 3, cached or not
    cache_info = {"enabled": cfg.cache_dir is not None, "hit": False, "key": None}
    tower = None
    if cfg.cache_dir is not None:
        from .serialize import (
            TOWER_SCHEMA, Cache, canonical_dumps, content_key, tower_from_doc, tower_to_doc)
        cache = Cache(cfg.cache_dir)
        key = content_key({
            "kind": "tower", "schema": TOWER_SCHEMA, "q": cfg.q, "n": cfg.n, "m": cfg.m,
            "u_spec": cfg.u_spec, "rank_cap": cfg.rank_cap,
        })
        cache_info["key"] = key
        try:  # an undecodable, misshapen, non-round-tripping or other tower's entry is a miss
            hit = cache.get(key)
            if hit is not None:
                tower = tower_from_doc(json.loads(hit), cfg.n, cfg.q, cfg.m,
                                       u_spec_label(cfg.n, u_spec))
                cache_info["hit"] = True
        except (ValueError, PreconditionError, OracleMismatch) as exc:
            sys.stderr.write(f"warning: rebuilding unusable cache entry {key} "
                             f"({type(exc).__name__}: {exc})\n")
    if tower is None:
        tower = build_tower(cfg.n, cfg.q, cfg.m, u_spec, cfg.rank_cap)
        if cfg.cache_dir is not None:
            cache.put(cache_info["key"], canonical_dumps(tower_to_doc(tower)))
    level = check_level(tower.structure)
    if not level["ok"]:
        raise OracleMismatch(f"level check failed: {level['witness']}")
    expected = gl_order(cfg.n, cfg.q, cfg.m)
    if tower.rank_over_base != expected:
        raise OracleMismatch(
            f"tower rank {tower.rank_over_base} != group order {expected}")
    return {
        "stage_degrees": list(tower.stage_degrees),
        "rank": tower.rank_over_base,
        "gl_order": expected,
        "level_check": level,
        "u_spec_label": tower.u_spec_label,
        "cache": cache_info,
    }


def cmd_count(cfg: RunConfig, b_spec: str, g_spec: str) -> dict:
    from .division import DivisionAlgebra, total_fixed_points
    from .matrices import det
    alg = DivisionAlgebra(cfg.q, cfg.n)
    b = parse_algebra_element(b_spec, alg)
    g = parse_matrix(g_spec, alg.small, cfg.n)
    rep = total_fixed_points(alg, b, g, cfg.m)
    cert = rep.certificate
    return {
        "b": b_spec,
        "g": g_spec,
        "m": cfg.m,
        "norm_valuation": cert.det_val,
        "det_g_valuation": det(g).valuation(),
        "per_fiber": rep.per_fiber,
        "total": rep.total,
        "structured": rep.summary("structured"),
        "bruteforce": rep.summary("brute"),
        "certificate": cert.summary(),
        "agreement": True,
    }


def cmd_strata(cfg: RunConfig) -> dict:
    from .strata import check_label_census, enumerate_summands
    for h in range(1, cfg.n):  # every census is sized before any is built
        check_label_census(cfg.n, cfg.q, cfg.m, h)
    counts = {str(h): len(enumerate_summands(cfg.n, cfg.q, cfg.m, h)) for h in range(1, cfg.n)}
    return {"n": cfg.n, "q": cfg.q, "m": cfg.m, "counts": counts, "total": sum(counts.values())}


def cmd_strata_action(cfg: RunConfig, g_spec: str) -> dict:
    from .certify import regular_elliptic_certify
    from .fq import FqField, split_prime_power
    from .matrices import charpoly, mat_reduce_mod
    from .strata import check_label_census, strata_fixed_count
    field = FqField(*split_prime_power(cfg.q))
    g = parse_matrix(g_spec, field, cfg.n)
    cert = regular_elliptic_certify(charpoly(g))
    if cert.det_val != 0:
        raise PreconditionError(
            f"v(det g) = {cert.det_val} != 0, the label action needs a unit class")
    for h in range(1, cfg.n):  # every census is sized before any is built
        for m in range(1, cfg.scan_m + 1):
            check_label_census(cfg.n, cfg.q, m, h)
    # a label fixed mod pi^m reduces to one fixed mod pi^(m-1), so once a
    # level fixes none, no higher level does and those are not scanned
    table = {}
    minimal_zero = {}
    for h in range(1, cfg.n):
        row = {}
        first_zero = None
        for m in range(1, cfg.scan_m + 1):
            row[str(m)] = 0 if first_zero else strata_fixed_count(
                mat_reduce_mod(g, m), cfg.n, cfg.q, m, h)
            if first_zero is None and row[str(m)] == 0:
                first_zero = m
        table[str(h)] = row
        minimal_zero[str(h)] = first_zero
    return {"g": g_spec, "certificate": cert.summary(), "fixed_counts": table,
            "observed_minimal_free_level": minimal_zero, "scan_m": cfg.scan_m}


def cmd_flags(cfg: RunConfig) -> dict:
    from .strata import enumerate_flags
    flags = enumerate_flags(cfg.n, cfg.q, cfg.m)
    return {"n": cfg.n, "q": cfg.q, "m": cfg.m,
            "signature": list(range(1, cfg.n)),
            "count": len(flags)}


def load_value_table(path: str):
    """Value-table file: a header line `n q m`, then `codes : tiers` rows."""
    header = None
    values = {}
    for lineno, line in _read_lines(path):
        where = f"{path}:{lineno}:"
        if header is None:
            parts = line.split()
            if len(parts) != 3:
                raise PreconditionError(f"{where} header must be `n q m`")
            header = tuple(_int(x, f"{where} header entry") for x in parts)
            if header[0] < 1:
                raise PreconditionError(f"{where} height n must be >= 1")
            continue
        if ":" not in line:
            raise PreconditionError(f"{where} expected `codes : tiers`")
        left, _, right = line.partition(":")
        right = right.strip()
        vec = tuple(_int(x, f"{where} code") for x in left.strip().split(","))
        if vec in values:
            raise PreconditionError(f"{where} vector {vec} has a second row")
        values[vec] = tuple(_int(x, f"{where} tier") for x in right.split(",")) if right else ()
    if header is None:
        raise PreconditionError(f"{path}: missing `n q m` header")
    return header, values


def cmd_flag_of_point(cfg: RunConfig, path: str) -> dict:
    from .strata import describe, flag_of_point
    (n, q, m), values = load_value_table(path)
    parts = flag_of_point(values, n, q, m)
    return {"n": n, "q": q, "m": m,
            "signature": [len(pivots) for pivots, _ in parts],
            "parts": [describe(A) for A in parts]}


def cmd_jl(cfg: RunConfig) -> dict:
    from .induced import jl_match
    result = jl_match(cfg.q)
    doc = result.summary()
    doc["cuspidal_count"] = len(result.pairs)
    doc["degrees_g"] = list(result.table_g.degrees)
    doc["degrees_b"] = list(result.table_b.degrees)
    return doc


def cmd_selftest(cfg: RunConfig) -> dict:
    """A quick battery of cross-checked identities; any failure raises."""
    from .certify import regular_elliptic_certify
    from .chartab import TABLE_ORDER_CAP, character_table, cuspidal_characters
    from .counting import count_brute, count_structured
    from .formal import build_tower, check_level, gl_order
    from .fq import FqField
    from .groups import group_gl
    from .induced import jl_match
    from .matrices import charpoly
    from .rings import CoeffRing, RingElem
    from .strata import enumerate_flags, enumerate_summands

    checks = []

    def record(name, ok=True):
        checks.append({"name": name, "status": "pass" if ok else "fail"})
        if not ok:
            raise OracleMismatch(f"selftest failed at {name}")

    tower = build_tower(2, 2, 1)
    record("tower 2,2,1 rank 6", tower.rank_over_base == 6 == gl_order(2, 2, 1))
    record("tower 2,2,1 stages [3,2]", tower.stage_degrees == [3, 2])
    record("tower 2,2,1 level check", check_level(tower.structure)["ok"])

    record("strata census 3,2,1",
           [len(enumerate_summands(3, 2, 1, h)) for h in (1, 2)] == [7, 7])
    record("flags 2,2,1", len(enumerate_flags(2, 2, 1)) == 3)

    field = FqField(2, 1)
    g = parse_matrix("companion:T^2+T+1", field, 2)
    gi = parse_matrix("mat:1,1;1,0", field, 2)
    s = count_structured(g, gi, 1, regular_elliptic_certify(charpoly(g)))
    bf = count_brute(g, gi, 1)
    record("count routes agree", s.count == bf.count and bf.stable)
    record("count value 3", s.count == 3)

    # The product is F_q-bilinear by construction, so commutativity and
    # associativity on the basis monomials prove them for the whole ring.
    ring = CoeffRing(field, 3, (2,))
    basis = [RingElem(ring, {i: 1}) for i in range(ring.rank)]
    prod = [[x * y for y in basis] for x in basis]
    r = range(ring.rank)
    record("ring axioms",
           all(prod[i][j] == prod[j][i] for i in r for j in r)
           and all(prod[i][j] * basis[k] == basis[i] * prod[j][k]
                   for i in r for j in r for k in r))
    record("normal form idempotence", all(p.nf() == p.nf().nf() for row in prod for p in row))

    if gl_order(2, cfg.q) <= TABLE_ORDER_CAP:
        tab = character_table(group_gl(2, cfg.q, 1))
        record(f"cuspidal count q={cfg.q}",
               len(cuspidal_characters(tab)) == cfg.q * (cfg.q - 1) // 2)
    jl = jl_match(2)
    record("jl q=2 matching size 1", len(jl.pairs) == 1)
    return {"checks": checks, "passed": len(checks)}


# -- report rendering -------------------------------------------------------------


def render_csv(command: str, results: dict) -> str:
    import csv
    import io

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")

    def add(cols):
        writer.writerow([str(c) for c in cols])

    if command == "tower":
        add(["schema", "command", "q", "n", "m", "rank", "gl_order", "stages",
             "level_ok", "cache_hit"])
        add([CSV_SCHEMA, command, results["config"]["q"], results["config"]["n"],
             results["config"]["m"], results["results"]["rank"],
             results["results"]["gl_order"],
             "|".join(str(d) for d in results["results"]["stage_degrees"]),
             results["results"]["level_check"]["ok"],
             results["results"]["cache"]["hit"]])
    elif command == "count":
        add(["schema", "command", "q", "n", "m", "b", "g", "per_fiber", "total",
             "stable", "agreement"])
        r = results["results"]
        add([CSV_SCHEMA, command, results["config"]["q"], results["config"]["n"],
             results["config"]["m"], r["b"], r["g"], r["per_fiber"], r["total"],
             r["bruteforce"]["stable"], r["agreement"]])
    elif command == "strata":
        add(["schema", "command", "q", "n", "m", "h", "count"])
        r = results["results"]
        for h, c in sorted(r["counts"].items(), key=lambda kv: int(kv[0])):
            add([CSV_SCHEMA, command, r["q"], r["n"], r["m"], h, c])
    elif command == "strata-action":
        add(["schema", "command", "g", "h", "m", "fixed"])
        r = results["results"]
        for h, row in sorted(r["fixed_counts"].items(), key=lambda kv: int(kv[0])):
            for m, c in sorted(row.items(), key=lambda kv: int(kv[0])):
                add([CSV_SCHEMA, command, r["g"], h, m, c])
    elif command == "flags":
        r = results["results"]
        add(["schema", "command", "q", "n", "m", "signature", "count"])
        add([CSV_SCHEMA, command, r["q"], r["n"], r["m"],
             "|".join(str(x) for x in r["signature"]), r["count"]])
    elif command == "flag-of-point":
        r = results["results"]
        add(["schema", "command", "q", "n", "m", "signature"])
        add([CSV_SCHEMA, command, r["q"], r["n"], r["m"],
             "|".join(str(x) for x in r["signature"])])
    elif command == "jl":
        r = results["results"]
        add(["schema", "command", "q", "cuspidal_row", "quotient_row"])
        for a, b in r["pairs"]:
            add([CSV_SCHEMA, command, r["q"], a, b])
    elif command == "selftest":
        r = results["results"]
        add(["schema", "command", "check", "status"])
        for chk in r["checks"]:
            add([CSV_SCHEMA, command, chk["name"], chk["status"]])
    else:
        raise PreconditionError(f"no csv schema for {command}")
    return buf.getvalue()


def render_text(command: str, report: dict) -> str:
    lines = [f"command: {command}"]
    for key, value in report["results"].items():
        lines.append(f"  {key}: {json.dumps(value, sort_keys=True)}")
    return "\n".join(lines) + "\n"


def emit(report: dict, cfg: RunConfig) -> str:
    if cfg.format == "json":
        from .serialize import canonical_dumps
        return canonical_dumps(report) + "\n"
    if cfg.format == "csv":
        return render_csv(report["command"], report)
    return render_text(report["command"], report)


# -- entry point ------------------------------------------------------------------


class Command:
    def __init__(self, run, help: str, knobs: tuple, required: tuple = ()):
        self.run = run            # run(cfg, *required argument values) -> results
        self.help = help
        self.knobs = knobs        # the RunConfig fields it reads; the only ones it accepts
        self.required = required  # (name, help) of each required --name argument, in run order


COMMANDS = {
    "tower": Command(cmd_tower, "build a level tower and verify it",
                     ("q", "n", "m", "u_spec", "rank_cap", "cache_dir")),
    "count": Command(cmd_count, "fixed-coset counts, both routes", ("q", "n", "m"),
                     (("b", "algebra element: w, x:<code>, or c0;c1"),
                      ("g", "matrix: companion:<poly>, diag:..., mat:..."))),
    "strata": Command(cmd_strata, "count boundary labels per rank", ("q", "n", "m")),
    "strata-action": Command(cmd_strata_action, "fixed labels of a certified unit-class matrix",
                             ("q", "n", "scan_m"), (("g", "matrix, as for count"),)),
    "flags": Command(cmd_flags, "count full flags of labels", ("q", "n", "m")),
    "flag-of-point": Command(cmd_flag_of_point, "flag of a value table read from a file", (),
                             (("table", "value-table file"),)),
    "jl": Command(cmd_jl, "depth-zero character matching", ("q",)),
    "selftest": Command(cmd_selftest, "run the built-in battery", ("q",)),
}


def _help(name: str | None) -> str:
    """What `-h` prints: the command list, or the flags of the command `name`."""
    if name is None:
        rows = [f"{cmd:<15}{command.help}" for cmd, command in COMMANDS.items()]
        return "usage: leveltower COMMAND [--FLAG VALUE ...]\n\ncommands:\n" + "".join(
            f"  {row}\n" for row in rows)
    command = COMMANDS[name]
    rows = ["--config FILE", *(f"--{knob.replace('_', '-')} VALUE" for knob in command.knobs),
            "--format {json,csv,text}", "--timings",
            *(f"--{arg} VALUE  (required) {text}" for arg, text in command.required)]
    return f"usage: leveltower {name} [--FLAG VALUE ...]\n\n{command.help}\n\nflags:\n" + "".join(
        f"  {row}\n" for row in rows)


def _is_flag(tok: str) -> bool:
    # a dash word with no space, unless it is a negative integer (`--u-spec -1`)
    return tok.startswith("-") and tok != "-" and " " not in tok and not tok[1:].isdigit()


def _usage_error(message: str):
    sys.stderr.write(f"error: {message}\n")
    raise SystemExit(EXIT_PRECONDITION)


def _invalid_choice(argument: str, value: str, choices):
    _usage_error(f"argument {argument}: invalid choice: {value!r} "
                 f"(choose from {', '.join(map(repr, choices))})")


def parse_args(argv: list) -> tuple:
    """(command name, {flag key: value}) from argv, read against COMMANDS.

    argv is a command name, then `--name value` or `--name=value` for
    `config`, `format`, the command's knobs and its required arguments, and
    a bare `--timings`; a flag given twice keeps its last value, and only
    its full spelling is a flag.  `-h`/`--help` prints the command list, or
    the command's flags, and raises SystemExit(0).  A usage error writes one
    `error:` line and raises SystemExit(2): a bad value at once, then a
    missing required argument, then every unrecognized token.
    """
    if argv and argv[0] in ("-h", "--help"):
        sys.stdout.write(_help(None))
        raise SystemExit(EXIT_OK)
    if not argv:
        _usage_error("the following arguments are required: command")
    name = argv[0]
    if name not in COMMANDS:
        _invalid_choice("command", name, COMMANDS)
    command = COMMANDS[name]
    keys = ("config", *command.knobs, "format", *(arg for arg, _ in command.required))
    flags = {"--" + key.replace("_", "-"): key for key in keys}
    args = dict.fromkeys(keys)
    args["timings"] = False
    extras = []
    rest = iter(argv[1:])
    for tok in rest:
        if tok in ("-h", "--help"):
            sys.stdout.write(_help(name))
            raise SystemExit(EXIT_OK)
        flag, eq, value = tok.partition("=")
        if flag == "--timings":
            if eq:
                _usage_error(f"argument --timings: ignored explicit argument {value!r}")
            args["timings"] = True
            continue
        if flag not in flags:
            extras.append(tok)
            continue
        if not eq:
            value = next(rest, None)
            if value is None or _is_flag(value):
                _usage_error(f"argument {flag}: expected one argument")
        key = flags[flag]
        if key in _INT_KEYS:
            try:
                value = int(value)
            except ValueError:
                _usage_error(f"argument {flag}: invalid int value: {value!r}")
        elif key == "format" and value not in FORMATS:
            _invalid_choice("--format", value, FORMATS)
        args[key] = value
    missing = [f"--{arg}" for arg, _ in command.required if args[arg] is None]
    if missing:
        _usage_error(f"the following arguments are required: {', '.join(missing)}")
    if extras:
        _usage_error(f"unrecognized arguments: {' '.join(extras)}")
    return name, args


def main(argv=None) -> int:
    name, args = parse_args(sys.argv[1:] if argv is None else list(argv))
    command = COMMANDS[name]
    try:
        cfg = resolve_config(name, args)
        resolved = cfg.resolved(command.knobs)
        t0 = perf_counter()
        results = command.run(cfg, *(args[arg] for arg, _ in command.required))
        elapsed = perf_counter() - t0
        from .serialize import REPORT_SCHEMA
        report = {
            "schema": REPORT_SCHEMA,
            "command": name,
            "config": resolved,
            "results": results,
        }
        if args["timings"]:
            report["timings"] = {"total_seconds": round(elapsed, 6)}
        sys.stdout.write(emit(report, cfg))
        return EXIT_OK
    except Exception as exc:
        code = exit_code_for(exc)
        if code is None:
            import traceback  # only on this path: it would slow every start-up
            from pathlib import Path
            where = traceback.extract_tb(exc.__traceback__)[-1]
            sys.stderr.write(f"error: internal defect: {type(exc).__name__}: {exc} "
                             f"(at {Path(where.filename).name}:{where.lineno})\n")
            return EXIT_MISMATCH
        sys.stderr.write(f"error: {exc}\n")
        return code


if __name__ == "__main__":
    sys.exit(main())

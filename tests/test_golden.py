"""Default reports compared byte for byte with the committed files in tests/golden/.

Each `.out` file is the stdout of `leveltower <argv>` for the argv named
below, which exits 0; a `.table` file is a value table that an argv reads.
A change to one of these files is a change to the report bytes and is named
in CHANGES.md.
"""

from pathlib import Path

import pytest

from leveltower import cli

GOLDEN = Path(__file__).resolve().parent / "golden"

CASES = {
    "tower_2_2_1": ["tower", "--q", "2", "--n", "2", "--m", "1"],
    "tower_3_2_2": ["tower", "--q", "3", "--n", "2", "--m", "2", "--rank-cap", "100000"],
    "count_readme": ["count", "--q", "2", "--n", "2", "--m", "1", "--b", "x:2",
                     "--g", "companion:T^2+T+1"],
    "count_2_3_1": ["count", "--q", "2", "--n", "3", "--m", "1", "--b", "x:3",
                    "--g", "companion:T^3+T+1"],
    "count_2_3_3": ["count", "--q", "2", "--n", "3", "--m", "3", "--b", "x:3",
                    "--g", "companion:T^3+T+1"],
    "count_3_2_3": ["count", "--q", "3", "--n", "2", "--m", "3", "--b", "x:3",
                    "--g", "companion:T^2+T+2+P"],
    "strata_2_5_2": ["strata", "--q", "2", "--n", "5", "--m", "2"],
    "flags_2_4_2": ["flags", "--q", "2", "--n", "4", "--m", "2"],
    "strata_action_readme": ["strata-action", "--q", "2", "--n", "3",
                             "--g", "companion:T^3+T+1", "--scan-m", "3"],
    "jl_q3": ["jl", "--q", "3"],
    "jl_q4": ["jl", "--q", "4"],
    "selftest": ["selftest"],
    "strata_csv": ["strata", "--q", "2", "--n", "3", "--m", "1", "--format", "csv"],
    "flags_text": ["flags", "--q", "2", "--n", "2", "--m", "1", "--format", "text"],
    "flag_of_point_2_2_2": ["flag-of-point", "--table",
                            str(GOLDEN / "flag_of_point_2_2_2.table")],
}
# every command's CSV report, each on the argv of one JSON case above
CASES.update({
    name + "_csv": CASES[json_case] + ["--format", "csv"]
    for name, json_case in [
        ("tower", "tower_2_2_1"), ("count", "count_readme"),
        ("strata_action", "strata_action_readme"), ("flags", "flags_2_4_2"),
        ("flag_of_point", "flag_of_point_2_2_2"), ("jl", "jl_q3"), ("selftest", "selftest"),
    ]
})


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_golden(capsys, name):
    code = cli.main(CASES[name])
    out = capsys.readouterr()
    assert code == 0
    assert out.err == ""
    assert out.out.encode("ascii") == (GOLDEN / f"{name}.out").read_bytes()

from __future__ import annotations

import argparse
import json
from importlib import resources

import jsonschema
import pytest

import longvk.invariants as invariants
from longvk import cli
from longvk.cli import main
from longvk.gauss import parse_gauss_code, serialize
from longvk.monoid import concat

SCHEMA = json.loads(
    resources.files("longvk").joinpath("data/report.schema.json").read_text()
)


def _run(capsys, argv: list[str]) -> tuple[int, str, str]:
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _run_report(capsys, argv: list[str]) -> dict:
    code, out, _ = _run(capsys, argv + ["--json"])
    assert code == 0
    report = json.loads(out)
    jsonschema.validate(report, SCHEMA)
    return report


# -----------------------------------------------------------------------------
# Happy paths
# -----------------------------------------------------------------------------


def test_parse_plain_and_json(capsys):
    code, out, _ = _run(capsys, ["parse", "--code", "O3+ U3+", "--code", "0"])
    assert code == 0
    assert out.splitlines() == ["O1+ U1+", "0"]
    report = _run_report(capsys, ["parse", "--code", "O3+ U3+"])
    assert report["command"] == "parse"
    assert report["outputs"] == [
        {"code": "O3+ U3+", "canonical": "O1+ U1+", "crossings": 1}
    ]


def test_genus_emits_one_object_per_line(capsys):
    code, out, _ = _run(
        capsys, ["genus", "--code", "O1+ O2+ U1+ U2+", "--code", "0"]
    )
    assert code == 0
    rows = [json.loads(line) for line in out.splitlines()]
    assert rows[0] == {
        "code": "O1+ O2+ U1+ U2+",
        "chi": -3,
        "boundary_total": 3,
        "boundary_distinguished": 1,
        "genus": 1,
    }
    assert rows[1]["genus"] == 0 and rows[1]["chi"] == -1
    report = _run_report(capsys, ["genus", "--code", "O1+ O2+ U1+ U2+"])
    assert report["outputs"][0]["genus"] == 1


def test_concat_joins_left_to_right(capsys):
    code, out, _ = _run(
        capsys, ["concat", "--code", "O1+ U1+", "--code", "O1- U1-"]
    )
    assert code == 0
    assert out.strip() == "O1+ U1+ O2- U2-"


def test_invariants_with_structure_flag(capsys):
    report = _run_report(
        capsys,
        ["invariants", "--code", "O1+ U2+ O3+ U1+ O2+ U3+",
         "--structure", "dihedral:3"],
    )
    entry = report["outputs"][0]
    assert entry["odd_writhe"] == 0
    assert entry["matrices"] == {
        "dihedral:3": [[3, 0, 0], [0, 3, 0], [0, 0, 3]]
    }


def test_equiv_reports_verdict_not_exit_code(capsys):
    code, out, _ = _run(
        capsys, ["equiv", "--code", "O1+ O2- U1+ U2-", "--code", "0"]
    )
    assert code == 0
    verdict = json.loads(out)
    assert verdict["verdict"] == "equivalent"
    assert [m["kind"] for m in verdict["path"]] == ["r2_remove"]

    report = _run_report(
        capsys, ["equiv", "--code", "O1+ O2+ U1+ U2+", "--code", "0"]
    )
    assert report["outputs"][0]["verdict"] == "distinct"
    assert report["budget"]["max_depth"] == 16


def test_commute_flags_and_witness(capsys):
    report = _run_report(
        capsys,
        ["commute", "--code", "O1+ U2- U1+ O2-", "--code", "U1+ O2- O1+ U2-",
         "--scan-structures", "3", "--max-depth", "2", "--max-states", "200"],
    )
    out = report["outputs"][0]
    assert out["verdict"] == "inconclusive"  # no witness among sizes <= 3

    code, text, _ = _run(
        capsys, ["commute", "--code", "0", "--code", "O1+ U1+"]
    )
    assert code == 0
    assert json.loads(text)["verdict"] == "equivalent"


def test_commute_readme_example_finds_order_4_witness(capsys):
    report = _run_report(
        capsys,
        ["commute", "--code", "O1+ U2- U1+ O2-", "--code", "U1+ O2- O1+ U2-",
         "--scan-structures", "4"],
    )
    out = report["outputs"][0]
    assert out["verdict"] == "distinct"
    witness = out["witness"]
    assert witness["structure"] == "biq:4:052"
    assert (witness["entry"], witness["left"], witness["right"]) == ([0, 1], 4, 0)


def test_commute_witness_structure_is_a_valid_spec(capsys):
    """The structure a scan names rebuilds through --structure and gives
    the same witness."""
    argv = ["commute", "--code", "O1+ U2- U1+ O2-", "--code", "U1+ O2- O1+ U2-"]
    scanned = _run_report(capsys, argv + ["--scan-structures", "4"])["outputs"][0]
    named = _run_report(capsys, argv + ["--structure", scanned["witness"]["structure"]])
    assert named["outputs"][0]["witness"] == scanned["witness"]


def test_prime_scan_smoke(capsys):
    report = _run_report(
        capsys,
        ["prime-scan", "--code", "O1+ U1+ O2- U2-",
         "--max-crossings", "2", "--max-depth", "2"],
    )
    scan = report["outputs"][0]
    assert scan["decomposable"][0]["cuts"][0]["gap"] == 2


def test_file_input_skips_blanks_and_comments(capsys, tmp_path):
    path = tmp_path / "codes.txt"
    path.write_text("# two diagrams\nO1+ U1+\n\n0\n")
    code, out, _ = _run(capsys, ["parse", "--file", str(path)])
    assert code == 0
    assert out.splitlines() == ["O1+ U1+", "0"]


# -----------------------------------------------------------------------------
# Golden outputs: the README examples and the count errors, stdout and exit
# code, plain and with --json, every wall_ms dropped
# -----------------------------------------------------------------------------

BUDGET_2 = {"max_crossings": 2, "max_depth": 16, "max_states": 1000000}
BUDGET_4 = {"max_crossings": 4, "max_depth": 16, "max_states": 1000000}
BUDGET_6 = {"max_crossings": 6, "max_depth": 16, "max_states": 1000000}
KINKS = ["O1+ U1+", "O1- U1-", "U1+ O1+", "U1- O1-"]
# (left, right) kink factors of each orbit member, in the order prime-scan visits them
SCAN_ORDER = [(0, 1), (0, 0), (0, 2), (0, 3), (1, 0), (2, 0), (3, 0), (1, 1),
              (1, 2), (1, 3), (2, 1), (3, 1), (2, 2), (2, 3), (3, 2), (3, 3)]
PRIME_SCAN = {
    "budget": BUDGET_2,
    "code": "O1+ U1+ O2- U2-",
    "decomposable": [
        {"code": serialize(concat(parse_gauss_code(KINKS[i]), parse_gauss_code(KINKS[j]))),
         "cuts": [{"gap": 2, "left": KINKS[i], "right": KINKS[j]}]}
        for i, j in SCAN_ORDER
    ],
    "exhausted": True,
    "states_visited": 41,
}

# (argv, outputs of the run report, plain stdout lines or None for one JSON
# line per output)
GOLDEN = [
    (["parse", "--code", "O3+ U3+"],
     [{"canonical": "O1+ U1+", "code": "O3+ U3+", "crossings": 1}],
     ["O1+ U1+"]),
    (["genus", "--code", "O1+ O2+ U1+ U2+"],
     [{"boundary_distinguished": 1, "boundary_total": 3, "chi": -3,
       "code": "O1+ O2+ U1+ U2+", "genus": 1}],
     None),
    (["concat", "--code", "O1+ U1+", "--code", "O1- U1-"],
     [{"canonical": "O1+ U1+ O2- U2-", "crossings": 2}],
     ["O1+ U1+ O2- U2-"]),
    (["invariants", "--code", "O1+ U2+ O3+ U1+ O2+ U3+", "--structure", "dihedral:3"],
     [{"code": "O1+ U2+ O3+ U1+ O2+ U3+", "odd_writhe": 0,
       "matrices": {"dihedral:3": [[3, 0, 0], [0, 3, 0], [0, 0, 3]]}}],
     ["O1+ U2+ O3+ U1+ O2+ U3+  odd_writhe=0",
      "  dihedral:3: [[3, 0, 0], [0, 3, 0], [0, 0, 3]]"]),
    (["equiv", "--code", "O1+ O2- U1+ U2-", "--code", "0"],
     [{"budget": BUDGET_4, "path": [{"kind": "r2_remove", "label": 1, "label2": 2}],
       "states_visited": 2, "verdict": "equivalent"}],
     None),
    (["commute", "--code", "O1+ U2- U1+ O2-", "--code", "U1+ O2- O1+ U2-",
      "--scan-structures", "4"],
     [{"budget": BUDGET_6, "states_visited": 0, "verdict": "distinct",
       "witness": {"entry": [0, 1], "invariant": "coloring_matrix", "left": 4,
                   "right": 0, "structure": "biq:4:052"}}],
     None),
    (["prime-scan", "--code", "O1+ U1+ O2- U2-", "--max-crossings", "2"],
     [PRIME_SCAN],
     None),
]
COUNT_ERRORS = [
    ["parse"],
    ["concat", "--code", "O1+ U1+"],
    ["equiv", "--code", "0"],
    ["prime-scan", "--code", "0", "--code", "0"],
]


def _drop_wall_ms(obj):
    if isinstance(obj, dict):
        return {k: _drop_wall_ms(v) for k, v in obj.items() if k != "wall_ms"}
    if isinstance(obj, list):
        return [_drop_wall_ms(v) for v in obj]
    return obj


def _stable_lines(out: str) -> list[str]:
    """Stdout lines, each JSON object line dumped again without wall_ms."""
    return [
        json.dumps(_drop_wall_ms(json.loads(line)), sort_keys=True)
        if line.startswith("{") else line
        for line in out.splitlines()
    ]


@pytest.mark.parametrize("argv, outputs, plain", GOLDEN, ids=[g[0][0] for g in GOLDEN])
def test_golden_output(capsys, argv, outputs, plain):
    if plain is None:
        plain = [json.dumps(obj, sort_keys=True) for obj in outputs]
    code, out, _ = _run(capsys, argv)
    assert (code, _stable_lines(out)) == (0, plain)

    report = {
        "command": argv[0],
        "inputs": [argv[i + 1] for i, flag in enumerate(argv) if flag == "--code"],
        "outputs": outputs,
        "timings": {},
    }
    if argv[0] in ("equiv", "commute", "prime-scan"):
        report["budget"] = outputs[0]["budget"]
    code, out, _ = _run(capsys, argv + ["--json"])
    assert (code, _stable_lines(out)) == (0, [json.dumps(report, sort_keys=True)])
    jsonschema.validate(json.loads(out), SCHEMA)


@pytest.mark.parametrize("argv", COUNT_ERRORS, ids=[a[0] for a in COUNT_ERRORS])
@pytest.mark.parametrize("extra", [[], ["--json"]], ids=["plain", "json"])
def test_golden_count_errors(capsys, argv, extra):
    code, out, err = _run(capsys, argv + extra)
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1


def test_schema_names_exactly_the_parser_subcommands():
    """The schema's command enum is the parser's subcommand set, and the
    golden test validates a report of each."""
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    names = sorted(SCHEMA["properties"]["command"]["enum"])
    assert sorted(sub.choices) == names
    assert sorted(argv[0] for argv, _, _ in GOLDEN) == names


# -----------------------------------------------------------------------------
# Error paths
# -----------------------------------------------------------------------------


def test_exit_2_on_bad_code(capsys):
    code, _, err = _run(capsys, ["parse", "--code", "O1 U1+"])
    assert code == 2 and "longvk:" in err


def test_exit_2_on_missing_input(capsys):
    assert _run(capsys, ["parse"])[0] == 2
    assert _run(capsys, ["concat", "--code", "O1+ U1+"])[0] == 2
    assert _run(capsys, ["equiv", "--code", "0"])[0] == 2
    assert _run(capsys, ["prime-scan", "--code", "0", "--code", "0"])[0] == 2


def test_exit_2_on_missing_file(capsys):
    assert _run(capsys, ["parse", "--file", "/no/such/file"])[0] == 2


def test_exit_2_on_bad_structure_spec(capsys):
    code, _, err = _run(
        capsys, ["invariants", "--code", "0", "--structure", "octonion:8"]
    )
    assert code == 2 and "longvk:" in err


@pytest.mark.parametrize("spec", ["dihedral:65", "trivial:250", "trivial:10000000000",
                                  "biq:6:000"])
def test_exit_2_on_structure_size_past_the_ceiling(capsys, monkeypatch, spec):
    """Sizes past the ceiling are refused before any table is built."""
    def fail(m):
        raise AssertionError(f"built a structure of size {m}")

    for name in ("dihedral_quandle", "trivial_quandle", "enumerate_biquandles"):
        monkeypatch.setattr(invariants, name, fail)
    code, out, err = _run(capsys, ["invariants", "--code", "0", "--structure", spec])
    assert code == 2 and out == ""
    assert err.startswith("longvk: size in structure spec") and len(err.splitlines()) == 1


def test_exit_2_on_structure_file_past_the_ceiling(capsys, tmp_path):
    """A file: structure obeys the same ceiling as dihedral:M and trivial:M;
    the library reader itself stays unbounded."""
    m = 65
    text = f"{m} quandle\n" + "".join(" ".join([str(x)] * m) + "\n" for x in range(m))
    path = tmp_path / "trivial65.txt"
    path.write_text(text)
    code, out, err = _run(capsys, ["invariants", "--code", "O1+ U1+",
                                   "--structure", f"file:{path}"])
    assert code == 2 and out == ""
    assert err.startswith("longvk: size in structure spec") and len(err.splitlines()) == 1
    assert invariants.structure_from_text(text).m == m


@pytest.mark.parametrize("order", ["0", "-1", "6"])
def test_exit_2_on_scan_order_out_of_range(capsys, monkeypatch, order):
    def fail(m):
        raise AssertionError(f"enumerated order {m}")

    monkeypatch.setattr(cli, "enumerate_biquandles", fail)
    code, out, err = _run(
        capsys, ["commute", "--code", "0", "--code", "O1+ U1+", "--scan-structures", order]
    )
    assert code == 2 and out == ""
    assert err.startswith("longvk: --scan-structures") and len(err.splitlines()) == 1


def test_exit_3_on_bad_budget(capsys):
    code, _, err = _run(
        capsys,
        ["equiv", "--code", "0", "--code", "O1+ U1+", "--max-states", "0"],
    )
    assert code == 3 and "budget" in err
    assert _run(
        capsys,
        ["equiv", "--code", "0", "--code", "0", "--max-depth", "-1"],
    )[0] == 3


def test_exit_4_on_internal_error(capsys, monkeypatch):
    def fail(diagram):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr(cli, "odd_writhe", fail)
    code, out, err = _run(capsys, ["invariants", "--code", "O1+ U1+"])
    assert code == 4 and out == ""
    assert err.startswith("longvk: internal error: RecursionError(")
    assert len(err.splitlines()) == 1


def test_unknown_subcommand_raises_system_exit(capsys):
    with pytest.raises(SystemExit):
        main(["frobnicate"])

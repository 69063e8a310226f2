"""Command line front end.

Subcommands mirror the library: parse, genus, concat, invariants,
equiv, commute, prime-scan.  Diagrams come in through repeated --code
flags or a --file with one code per line (blank lines and # comments
skipped).  Exit status is 0 when the command ran, 2 on bad input, 3 on
a bad budget and 4 on an internal error (one line on stderr, no
traceback); search verdicts are reported in the output, not the exit
status.

With --json every subcommand wraps its results in a run report
{command, inputs, outputs, budget, timings} that validates against
data/report.schema.json.  The genus subcommand always prints one JSON
object per input diagram, report or not.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from longvk.gauss import (
    GaussCodeError,
    canonicalize,
    parse_gauss_code,
    serialize,
)
from longvk.invariants import (
    SCAN_MAX,
    FiniteBiquandle,
    coloring_matrix,
    default_catalog,
    enumerate_biquandles,
    odd_writhe,
    structure_from_spec,
)
from longvk.monoid import concat
from longvk.search import (
    Budget,
    _BudgetError,
    commute_check,
    default_budget,
    equivalent_within,
    prime_scan,
)
from longvk.surface import (
    boundary_components,
    build_band_surface,
    euler_characteristic,
    supporting_genus,
)

OK, INPUT_ERROR, BUDGET_ERROR, INTERNAL_ERROR = 0, 2, 3, 4


def _add_input_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--code", action="append", default=[], metavar="GAUSS",
                     help="diagram code; repeat for several inputs")
    sub.add_argument("--file", metavar="PATH",
                     help="read codes from a file, one per line")
    sub.add_argument("--json", action="store_true",
                     help="emit a full run report as JSON")


def _add_budget_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--max-crossings", type=int, default=None)
    sub.add_argument("--max-states", type=int, default=None)
    sub.add_argument("--max-depth", type=int, default=None)


def _add_structure_flag(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--structure", action="append", default=[], metavar="SPEC",
                     help="dihedral:M, trivial:M, biq:M:NNN or file:PATH; repeatable")


def _gather_codes(args: argparse.Namespace) -> list[str]:
    codes = list(args.code)
    if args.file:
        with open(args.file, encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if line and not line.startswith("#"):
                    codes.append(line)
    return codes


def _resolve_budget(args: argparse.Namespace, n: int) -> Budget:
    base = default_budget(n)
    return Budget(
        max_crossings=args.max_crossings if args.max_crossings is not None else base.max_crossings,
        max_states=args.max_states if args.max_states is not None else base.max_states,
        max_depth=args.max_depth if args.max_depth is not None else base.max_depth,
    )


def _resolve_catalog(args: argparse.Namespace) -> list[FiniteBiquandle]:
    scan = getattr(args, "scan_structures", None)
    if scan is not None and not 1 <= scan <= SCAN_MAX:
        raise ValueError(f"--scan-structures must be in 1..{SCAN_MAX}, got {scan}")
    catalog = [structure_from_spec(spec) for spec in args.structure]
    if not catalog:
        catalog = default_catalog()
    if scan:
        for m in range(2, scan + 1):
            catalog.extend(enumerate_biquandles(m))
    return catalog


def _report(command: str, inputs: list[str], outputs: list, started: float,
            budget: Budget | None = None) -> dict:
    report = {
        "command": command,
        "inputs": inputs,
        "outputs": outputs,
        "timings": {"wall_ms": round((time.perf_counter() - started) * 1000.0, 3)},
    }
    if budget is not None:
        report["budget"] = budget.to_json_dict()
    return report


def _emit(report: dict, as_json: bool, plain_lines: list[str]) -> None:
    if as_json:
        print(json.dumps(report, sort_keys=True))
    else:
        for line in plain_lines:
            print(line)


def _cmd_parse(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    codes = _gather_codes(args)
    if not codes:
        print("parse: no input codes", file=sys.stderr)
        return INPUT_ERROR
    outputs = []
    lines = []
    for code in codes:
        diagram = canonicalize(parse_gauss_code(code))
        canonical = serialize(diagram)
        outputs.append({"code": code, "canonical": canonical, "crossings": diagram.n})
        lines.append(canonical if canonical else "0")
    _emit(_report("parse", codes, outputs, started), args.json, lines)
    return OK


def _cmd_genus(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    codes = _gather_codes(args)
    if not codes:
        print("genus: no input codes", file=sys.stderr)
        return INPUT_ERROR
    outputs = []
    for code in codes:
        diagram = canonicalize(parse_gauss_code(code))
        rg = build_band_surface(diagram)
        total, distinguished = boundary_components(rg)
        outputs.append({
            "code": serialize(diagram),
            "chi": euler_characteristic(rg),
            "boundary_total": total,
            "boundary_distinguished": distinguished,
            "genus": supporting_genus(diagram),
        })
    if args.json:
        print(json.dumps(_report("genus", codes, outputs, started), sort_keys=True))
    else:
        for obj in outputs:
            print(json.dumps(obj, sort_keys=True))
    return OK


def _cmd_concat(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    codes = _gather_codes(args)
    if len(codes) < 2:
        print("concat: need at least two codes", file=sys.stderr)
        return INPUT_ERROR
    product = parse_gauss_code(codes[0])
    for code in codes[1:]:
        product = concat(product, parse_gauss_code(code))
    canonical = serialize(product)
    outputs = [{"canonical": canonical, "crossings": product.n}]
    _emit(_report("concat", codes, outputs, started), args.json,
          [canonical if canonical else "0"])
    return OK


def _cmd_invariants(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    codes = _gather_codes(args)
    if not codes:
        print("invariants: no input codes", file=sys.stderr)
        return INPUT_ERROR
    catalog = _resolve_catalog(args)
    outputs = []
    lines = []
    for code in codes:
        diagram = canonicalize(parse_gauss_code(code))
        entry = {
            "code": serialize(diagram),
            "odd_writhe": odd_writhe(diagram),
            "matrices": {},
        }
        lines.append(f"{serialize(diagram) or '0'}  odd_writhe={entry['odd_writhe']}")
        for x in catalog:
            matrix = coloring_matrix(diagram, x)
            entry["matrices"][x.name] = [list(row) for row in matrix]
            lines.append(f"  {x.name}: {[list(row) for row in matrix]}")
        outputs.append(entry)
    _emit(_report("invariants", codes, outputs, started), args.json, lines)
    return OK


def _cmd_pair(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    codes = _gather_codes(args)
    if len(codes) != 2:
        print(f"{args.command}: need exactly two codes", file=sys.stderr)
        return INPUT_ERROR
    d1, d2 = (canonicalize(parse_gauss_code(c)) for c in codes)
    budget = _resolve_budget(args, args.size((d1.n, d2.n)))
    verdict = args.check(d1, d2, budget=budget, catalog=_resolve_catalog(args))
    out = verdict.to_json_dict()
    _emit(_report(args.command, codes, [out], started, budget), args.json,
          [json.dumps(out, sort_keys=True)])
    return OK


def _cmd_prime_scan(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    codes = _gather_codes(args)
    if len(codes) != 1:
        print("prime-scan: need exactly one code", file=sys.stderr)
        return INPUT_ERROR
    diagram = canonicalize(parse_gauss_code(codes[0]))
    budget = _resolve_budget(args, diagram.n)
    report = prime_scan(diagram, budget=budget)
    _emit(_report("prime-scan", codes, [report], started, budget), args.json,
          [json.dumps(report, sort_keys=True)])
    return OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="longvk",
        description="Gauss-code calculus for long virtual knots",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", help="validate and canonicalize codes")
    _add_input_flags(p)
    p.set_defaults(func=_cmd_parse)

    p = sub.add_parser("genus", help="band-surface data, one JSON object per input")
    _add_input_flags(p)
    p.set_defaults(func=_cmd_genus)

    p = sub.add_parser("concat", help="concatenate codes left to right")
    _add_input_flags(p)
    p.set_defaults(func=_cmd_concat)

    p = sub.add_parser("invariants", help="odd writhe and coloring matrices")
    _add_input_flags(p)
    _add_structure_flag(p)
    p.set_defaults(func=_cmd_invariants)

    p = sub.add_parser("equiv", help="budgeted equivalence search for two codes")
    _add_input_flags(p)
    _add_budget_flags(p)
    _add_structure_flag(p)
    p.set_defaults(func=_cmd_pair, check=equivalent_within, size=max)

    p = sub.add_parser("commute", help="compare the two concatenation orders")
    _add_input_flags(p)
    _add_budget_flags(p)
    _add_structure_flag(p)
    p.add_argument("--scan-structures", type=int, default=None, metavar="M",
                   help=f"also scan all biquandles up to size M (1..{SCAN_MAX}) for witnesses")
    p.set_defaults(func=_cmd_pair, check=commute_check, size=sum)

    p = sub.add_parser("prime-scan", help="look for decomposable diagrams in the orbit")
    _add_input_flags(p)
    _add_budget_flags(p)
    p.set_defaults(func=_cmd_prime_scan)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _BudgetError as exc:
        print(f"longvk: {exc}", file=sys.stderr)
        return BUDGET_ERROR
    except (GaussCodeError, ValueError, OSError) as exc:
        print(f"longvk: {exc}", file=sys.stderr)
        return INPUT_ERROR
    except Exception as exc:
        print(f"longvk: internal error: {exc!r}", file=sys.stderr)
        return INTERNAL_ERROR


if __name__ == "__main__":
    sys.exit(main())

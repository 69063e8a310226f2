"""Command line front end.

Each subcommand (parse, genus, concat, invariants, equiv, commute,
prime-scan) is one row of ``_COMMANDS``: help, how many codes it takes,
flag groups, a work function and a plain-line formatter; ``_run`` runs
every row.  Codes come from repeated --code flags or a --file with one
code per line (blank lines and # comments skipped).  Exit status is 0
when the command ran, 2 on bad input (a wrong number of codes included),
3 on a bad budget and 4 on an internal error (one line on stderr, no
traceback); search verdicts are in the output, not the exit status.

With --json each subcommand prints one run report {command, inputs,
outputs, budget, timings} that validates against data/report.schema.json.
Without it, parse and concat print canonical codes, invariants prints
matrix lines, and the others print one JSON object per output.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from collections import namedtuple

from longvk.gauss import canonicalize, parse_gauss_code, serialize
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


def _add_scan_flag(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--scan-structures", type=int, default=None, metavar="M",
                     help=f"also scan all biquandles up to size M (1..{SCAN_MAX}) for witnesses")


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
    scan = args.scan_structures
    if scan is not None and not 1 <= scan <= SCAN_MAX:
        raise ValueError(f"--scan-structures must be in 1..{SCAN_MAX}, got {scan}")
    catalog = [structure_from_spec(spec) for spec in args.structure]
    if not catalog:
        catalog = default_catalog()
    if scan:
        for m in range(2, scan + 1):
            catalog.extend(enumerate_biquandles(m))
    return catalog


# Work functions: (args, codes, canonical diagrams) -> (outputs, budget or None)
def _parse(args, codes, diagrams):
    outputs = [
        {"code": code, "canonical": serialize(d), "crossings": d.n}
        for code, d in zip(codes, diagrams)
    ]
    return outputs, None


def _genus(args, codes, diagrams):
    outputs = []
    for d in diagrams:
        rg = build_band_surface(d)
        total, distinguished = boundary_components(rg)
        outputs.append({
            "code": serialize(d),
            "chi": euler_characteristic(rg),
            "boundary_total": total,
            "boundary_distinguished": distinguished,
            "genus": supporting_genus(d),
        })
    return outputs, None


def _concat(args, codes, diagrams):
    product = functools.reduce(concat, diagrams)
    return [{"canonical": serialize(product), "crossings": product.n}], None


def _invariants(args, codes, diagrams):
    catalog = _resolve_catalog(args)
    outputs = []
    for d in diagrams:
        matrices = {x.name: [list(row) for row in coloring_matrix(d, x)] for x in catalog}
        outputs.append({"code": serialize(d), "odd_writhe": odd_writhe(d), "matrices": matrices})
    return outputs, None


def _pair(check, size, args, codes, diagrams):
    """``check`` is equivalent_within or commute_check; ``size`` (max or
    sum) turns the two crossing counts into the default budget's size."""
    budget = _resolve_budget(args, size(d.n for d in diagrams))
    verdict = check(*diagrams, budget=budget, catalog=_resolve_catalog(args))
    return [verdict.to_json_dict()], budget


def _prime_scan(args, codes, diagrams):
    budget = _resolve_budget(args, diagrams[0].n)
    return [prime_scan(diagrams[0], budget=budget)], budget


# Plain-line formatters: one output -> its lines
def _canonical_line(output: dict) -> str:
    return output["canonical"] or "0"


def _invariant_lines(output: dict) -> str:
    lines = [f"{output['code'] or '0'}  odd_writhe={output['odd_writhe']}"]
    lines += [f"  {name}: {matrix}" for name, matrix in output["matrices"].items()]
    return "\n".join(lines)


_json_line = functools.partial(json.dumps, sort_keys=True)

# codes: (fewest, most) input codes, most None for no limit; flags: the flag
# groups added after the input flags; work and plain as above
_Command = namedtuple("_Command", "help codes flags work plain")

_COMMANDS = {
    "parse": _Command("validate and canonicalize codes", (1, None), (),
                      _parse, _canonical_line),
    "genus": _Command("band-surface data, one JSON object per input", (1, None), (),
                      _genus, _json_line),
    "concat": _Command("concatenate codes left to right", (2, None), (),
                       _concat, _canonical_line),
    "invariants": _Command("odd writhe and coloring matrices", (1, None),
                           (_add_structure_flag,),
                           _invariants, _invariant_lines),
    "equiv": _Command("budgeted equivalence search for two codes", (2, 2),
                      (_add_budget_flags, _add_structure_flag),
                      functools.partial(_pair, equivalent_within, max), _json_line),
    "commute": _Command("compare the two concatenation orders", (2, 2),
                        (_add_budget_flags, _add_structure_flag, _add_scan_flag),
                        functools.partial(_pair, commute_check, sum), _json_line),
    "prime-scan": _Command("look for decomposable diagrams in the orbit", (1, 1),
                           (_add_budget_flags,),
                           _prime_scan, _json_line),
}


def _run(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    command = _COMMANDS[args.command]
    codes = _gather_codes(args)
    fewest, most = command.codes
    if not fewest <= len(codes) <= (most or len(codes)):
        bound = f"exactly {fewest}" if most else f"at least {fewest}"
        raise ValueError(f"{args.command} needs {bound} code(s), got {len(codes)}")
    diagrams = [canonicalize(parse_gauss_code(code)) for code in codes]
    outputs, budget = command.work(args, codes, diagrams)
    if not args.json:
        for output in outputs:
            print(command.plain(output))
        return OK
    report = {
        "command": args.command,
        "inputs": codes,
        "outputs": outputs,
        "timings": {"wall_ms": round((time.perf_counter() - started) * 1000.0, 3)},
    }
    if budget is not None:
        report["budget"] = budget.to_json_dict()
    print(_json_line(report))
    return OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="longvk",
        description="Gauss-code calculus for long virtual knots",
    )
    parser.set_defaults(scan_structures=None)  # only commute adds --scan-structures
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        _add_input_flags(p)
        for add_flags in command.flags:
            add_flags(p)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _run(args)
    except (ValueError, OSError) as exc:  # GaussCodeError and _BudgetError included
        print(f"longvk: {exc}", file=sys.stderr)
        return BUDGET_ERROR if isinstance(exc, _BudgetError) else INPUT_ERROR
    except Exception as exc:
        print(f"longvk: internal error: {exc!r}", file=sys.stderr)
        return INTERNAL_ERROR


if __name__ == "__main__":
    sys.exit(main())

"""Per-module spans recorded from outside the library.

``Tracer.install`` replaces each public function listed in ``WRAPPED``
by a wrapper wherever a ``longvk`` module binds it: modules import with
``from x import y``, so ``longvk.search.enumerate_moves`` and
``longvk.moves.enumerate_moves`` are separate bindings of one function,
and a recursive call such as ``coloring_matrix`` on a cut piece goes
through its own module's binding.  ``uninstall`` puts the originals
back, so untraced work runs the library unchanged.

A span is a name, a start, an end and its parent.  Spans live on a
stack while open; when one closes, its duration and self time (the
duration minus the time its child spans cover) are added to per-name
totals, and the few cross-span relations the metrics need (children of
``enumerate_moves`` inside a search, invariant work whose parent is a
search) are read off the stack at that moment.  Keeping totals instead
of every closed span bounds memory: a traced search run closes about
300,000 spans.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

import reference

# span name -> (module, function)
WRAPPED = {
    "gauss.parse": ("longvk.gauss", "parse_gauss_code"),
    "gauss.serialize": ("longvk.gauss", "serialize"),
    "gauss.canonicalize": ("longvk.gauss", "canonicalize"),
    "moves.enumerate": ("longvk.moves", "enumerate_moves"),
    "moves.apply": ("longvk.moves", "apply_move"),
    "monoid.concat": ("longvk.monoid", "concat"),
    "monoid.cut_points": ("longvk.monoid", "cut_points"),
    "monoid.split_at": ("longvk.monoid", "split_at"),
    "surface.genus": ("longvk.surface", "supporting_genus"),
    "invariants.odd_writhe": ("longvk.invariants", "odd_writhe"),
    "invariants.coloring": ("longvk.invariants", "coloring_matrix"),
    "invariants.witness": ("longvk.invariants", "commutator_witness"),
    "invariants.enumerate": ("longvk.invariants", "enumerate_biquandles"),
    "search.equivalent_within": ("longvk.search", "equivalent_within"),
    "search.commute_check": ("longvk.search", "commute_check"),
    "search.prime_scan": ("longvk.search", "prime_scan"),
    "search.min_genus_in_orbit": ("longvk.search", "min_genus_in_orbit"),
}

# Metrics reported by a traced run, in BENCHMARK.json order.
PER_LAYER = (
    ("moves.enumerate.calls", "count"),
    ("moves.enumerate.self_s", "s"),
    ("moves.enumerate.children", "count"),
    ("moves.apply.calls", "count"),
    ("moves.apply.self_s", "s"),
    ("gauss.parse.calls", "count"),
    ("gauss.parse.self_s", "s"),
    ("gauss.serialize.calls", "count"),
    ("gauss.serialize.self_s", "s"),
    ("gauss.canonicalize.calls", "count"),
    ("gauss.canonicalize.self_s", "s"),
    ("search.calls", "count"),
    ("search.self_s", "s"),
    ("search.states", "count"),
    ("search.states_per_s", "1/s"),
    ("search.admit_ratio", "ratio"),
    ("search.invariant_phase_s", "s"),
    ("invariants.coloring.calls", "count"),
    ("invariants.coloring.dihedral_self_s", "s"),
    ("invariants.coloring.enumerated_self_s", "s"),
    ("invariants.coloring.repeat_share", "ratio"),
    ("monoid.cut_points.calls", "count"),
    ("monoid.cut_points.self_s", "s"),
    ("monoid.split_at.calls", "count"),
    ("invariants.enumerate.self_s", "s"),
    ("invariants.enumerate.classes", "count"),
    ("invariants.witness.calls", "count"),
    ("invariants.witness.self_s", "s"),
    ("invariants.witness.structures_per_pair", "count"),
    ("surface.genus.calls", "count"),
    ("surface.genus.self_s", "s"),
    ("invariants.odd_writhe.self_s", "s"),
    ("invariants.past_limit.failed_share", "ratio"),
    ("trace.overhead", "ratio"),
)


def _family(structure) -> str:
    name = getattr(structure, "name", "")
    if name.startswith("dihedral:"):
        return "dihedral"
    if name.startswith("biq:"):
        return "enumerated"
    return "other"


def _states(sub: str, result) -> int:
    if sub == "prime_scan":
        return result["states_visited"]
    if sub == "min_genus_in_orbit":
        return result[2]
    return result.states_visited


class Tracer:
    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self.classes: dict[int, int] = {}
        self._stack: list[list] = []  # [name, start, child time]
        self._search_open = 0
        self._seen_colorings: set[tuple] = set()
        self._saved: list[tuple] = []

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        modules = [mod for name, mod in sys.modules.items()
                   if name == "longvk" or name.startswith("longvk.")]
        for span, (module_name, attr) in WRAPPED.items():
            original = getattr(sys.modules[module_name], attr)
            wrapper = self._wrap(span, original)
            for mod in modules:
                if getattr(mod, attr, None) is original:
                    self._saved.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._saved):
            setattr(mod, attr, original)
        self._saved.clear()

    # -- spans ----------------------------------------------------------

    def _wrap(self, span: str, fn):
        stack = self._stack
        clock = time.perf_counter
        close = self._close

        is_search = span.startswith("search.")

        def wrapper(*args, **kwargs):
            name = span
            if span == "invariants.coloring":
                name = f"{span}.{_family(args[1])}"
                self._note_coloring(args[0], args[1])
            if is_search:
                self._search_open += 1
            frame = [name, 0.0, 0.0]
            stack.append(frame)
            frame[1] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                close(clock(), None, args)
                raise
            close(clock(), result, args)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _close(self, end: float, result, args) -> None:
        name, start, child = self._stack.pop()
        duration = end - start
        if name.startswith("search."):
            self._search_open -= 1
        self.calls[name] += 1
        self.self_s[name] += duration - child
        parent = self._stack[-1][0] if self._stack else ""
        if self._stack:
            self._stack[-1][2] += duration
        in_search = self._search_open > 0
        if result is None:
            return
        if name == "moves.enumerate" and in_search:
            self.counts["children_in_search"] += len(result)
        elif name.startswith("search.") and not in_search:
            self.counts["search_top_s"] += duration
            self.counts["search_states"] += _states(name[len("search."):], result)
            if name == "search.commute_check":
                self.counts["pair_scans"] += 1
        elif name == "invariants.enumerate":
            self.classes[args[0]] = len(result)
        if parent.startswith("search.") and (
            name == "invariants.odd_writhe" or name.startswith("invariants.coloring")
        ):
            self.counts["invariant_phase_s"] += duration

    def _note_coloring(self, diagram, structure) -> None:
        sign_of = dict(diagram.signs)
        tokens = [(label, role, sign_of[label]) for label, role in diagram.endpoints]
        key = (reference.canonical_code(tokens), structure.name)
        if key in self._seen_colorings:
            self.counts["coloring_repeats"] += 1
        else:
            self._seen_colorings.add(key)

    def count(self, name: str, value: float = 1) -> None:
        self.counts[name] += value

    # -- metrics --------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        calls, self_s, counts = self.calls, self.self_s, self.counts
        search_names = [n for n in calls if n.startswith("search.")]
        coloring_calls = sum(v for n, v in calls.items() if n.startswith("invariants.coloring."))
        states = counts["search_states"]
        pair_scans = counts["pair_scans"]
        return {
            "moves.enumerate.calls": calls["moves.enumerate"],
            "moves.enumerate.self_s": self_s["moves.enumerate"],
            "moves.enumerate.children": counts["children_in_search"],
            "moves.apply.calls": calls["moves.apply"],
            "moves.apply.self_s": self_s["moves.apply"],
            "gauss.parse.calls": calls["gauss.parse"],
            "gauss.parse.self_s": self_s["gauss.parse"],
            "gauss.serialize.calls": calls["gauss.serialize"],
            "gauss.serialize.self_s": self_s["gauss.serialize"],
            "gauss.canonicalize.calls": calls["gauss.canonicalize"],
            "gauss.canonicalize.self_s": self_s["gauss.canonicalize"],
            "search.calls": sum(calls[n] for n in search_names),
            "search.self_s": sum(self_s[n] for n in search_names),
            "search.states": states,
            "search.states_per_s": states / counts["search_top_s"] if counts["search_top_s"] else 0.0,
            "search.admit_ratio": (
                states / counts["children_in_search"] if counts["children_in_search"] else 0.0
            ),
            "search.invariant_phase_s": counts["invariant_phase_s"],
            "invariants.coloring.calls": coloring_calls,
            "invariants.coloring.dihedral_self_s": self_s["invariants.coloring.dihedral"],
            "invariants.coloring.enumerated_self_s": self_s["invariants.coloring.enumerated"],
            "invariants.coloring.repeat_share": (
                counts["coloring_repeats"] / coloring_calls if coloring_calls else 0.0
            ),
            "monoid.cut_points.calls": calls["monoid.cut_points"],
            "monoid.cut_points.self_s": self_s["monoid.cut_points"],
            "monoid.split_at.calls": calls["monoid.split_at"],
            "invariants.enumerate.self_s": self_s["invariants.enumerate"],
            "invariants.enumerate.classes": sum(self.classes.values()),
            "invariants.witness.calls": calls["invariants.witness"],
            "invariants.witness.self_s": self_s["invariants.witness"],
            "invariants.witness.structures_per_pair": (
                calls["invariants.witness"] / pair_scans if pair_scans else 0.0
            ),
            "surface.genus.calls": calls["surface.genus"],
            "surface.genus.self_s": self_s["surface.genus"],
            "invariants.odd_writhe.self_s": self_s["invariants.odd_writhe"],
        }

    def classes_by_order(self) -> str:
        return "/".join(str(self.classes[m]) for m in sorted(self.classes)) or "-"

"""Budget-bounded equivalence search over the move graph.

Two diagrams present the same long virtual knot exactly when some chain
of kink, poke and slide moves joins them.  The chain can be long and
can pass through bigger diagrams, so every search here carries an
explicit Budget and the answer is a three-way Verdict:

* equivalent, with a replayable move path;
* distinct, with an invariant witness (no search needed);
* inconclusive, when the budget ran out first.

Inconclusive is an honest answer, never a claim.  Deterministic
ordering (canonical codes, sorted frontiers, sorted move listings)
makes reruns reproducible, and Verdict.to_json_dict(stable=True) drops
the wall-clock field so equal runs serialize byte-identically.

Witnesses come from one ordered list of invariant stages: odd writhe,
then each catalog structure's coloring matrix.  Odd writhe is additive
under concatenation, so commute_check skips it; coloring matrices are
multiplicative, so it compares their commutators on the two factors.

All orbit walks here (equivalence, orbit genus, prime scan) run on one
breadth-first walker, so they read the budget the same way.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from longvk.gauss import OpenGaussDiagram, _read_code, canonicalize, serialize
from longvk.invariants import (
    FiniteBiquandle,
    coloring_matrix,
    commutator_witness,
    default_catalog,
    odd_writhe,
)
from longvk.monoid import concat, cut_points, split_at
from longvk.moves import MoveEvent, _list_moves, apply_move, inverse_event
from longvk.surface import supporting_genus

EQUIVALENT = "equivalent"
DISTINCT = "distinct"
INCONCLUSIVE = "inconclusive"


class _BudgetError(ValueError):
    """A budget field is out of range."""


@dataclass(frozen=True)
class Budget:
    """Caps for one search: diagram size, visited states, path length.

    ``max_crossings`` bounds the size of every diagram visited.
    ``max_states`` caps the distinct states admitted across all walked
    orbits, roots included; the roots are always admitted, and the walk
    stops at the first new state past the cap, so ``states_visited``
    never exceeds ``max_states`` unless the two roots of an equivalence
    search alone do.  ``max_depth`` caps the breadth-first layers
    expanded, counted over both sides of an equivalence search together.
    """

    max_crossings: int
    max_states: int
    max_depth: int

    def __post_init__(self) -> None:
        if self.max_crossings < 0 or self.max_states < 1 or self.max_depth < 0:
            raise _BudgetError(f"budget out of range: {self.to_json_dict()}")

    def to_json_dict(self) -> dict:
        return {
            "max_crossings": self.max_crossings,
            "max_states": self.max_states,
            "max_depth": self.max_depth,
        }


def default_budget(n: int) -> Budget:
    """Allow two extra crossings of slack over the larger input."""
    return Budget(max_crossings=n + 2, max_states=10**6, max_depth=16)


@dataclass(frozen=True)
class Verdict:
    verdict: str
    budget: Budget
    states_visited: int
    wall_ms: float
    path: tuple[MoveEvent, ...] | None = None
    witness: dict | None = None

    def to_json_dict(self, stable: bool = False) -> dict:
        out: dict = {
            "verdict": self.verdict,
            "budget": self.budget.to_json_dict(),
            "states_visited": self.states_visited,
        }
        if self.path is not None:
            out["path"] = [m.to_json_dict() for m in self.path]
        if self.witness is not None:
            out["witness"] = self.witness
        if not stable:
            out["wall_ms"] = round(self.wall_ms, 3)
        return out


def _stages(catalog: list[FiniteBiquandle]):
    """(witness fields, value, structure) per stage; additive ones have no structure."""
    yield {"invariant": "odd_writhe"}, odd_writhe, None
    for x in catalog:
        yield ({"invariant": "coloring_matrix", "structure": x.name},
               lambda d, x=x: coloring_matrix(d, x), x)


def _value_witness(stages, c1: OpenGaussDiagram, c2: OpenGaussDiagram) -> dict | None:
    """The first stage whose values on the two diagrams differ."""
    for fields, value, x in stages:
        v1, v2 = value(c1), value(c2)
        if v1 != v2:
            if x is not None:
                v1, v2 = [list(row) for row in v1], [list(row) for row in v2]
            return {**fields, "left": v1, "right": v2}
    return None


_CLOSED, _MAX_DEPTH, _MAX_STATES = "closed", "max_depth", "max_states"


class _OrbitWalk:
    """Breadth-first walk over the move orbits of one or two canonical roots.

    Iterating yields ``(side, parent code, event, code)``: each root
    first (parent and event None), then each newly admitted state, and
    also each move into a state that another root's orbit owns, which
    is how a caller sees two orbits meet.  Each layer expands the
    smallest frontier (ties go to the first root), parents and then
    each parent's children in code order.  States are canonical codes
    that the package wrote: a parent is read back unchecked to list its
    children's codes, and no child diagram is built.  ``seen`` maps each
    code to ``(side, parent code, event)``.  When iteration ends by
    itself, ``stop`` says why: the orbit closed (a frontier ran empty),
    ``max_depth`` layers were expanded, or the next new state would
    pass ``max_states``.
    """

    def __init__(self, roots: list[OpenGaussDiagram], budget: Budget) -> None:
        self.roots = roots
        self.budget = budget
        self.seen: dict[str, tuple[int, str | None, MoveEvent | None]] = {}
        self.stop: str | None = None

    def __iter__(self):
        frontiers = []
        for side, root in enumerate(self.roots):
            code = serialize(root)
            self.seen[code] = (side, None, None)
            frontiers.append([code])
            yield side, None, None, code
        depth = 0
        while all(frontiers):
            if depth >= self.budget.max_depth:
                self.stop = _MAX_DEPTH
                return
            side = min(range(len(frontiers)), key=lambda s: len(frontiers[s]))
            next_frontier = []
            cap = self.budget.max_crossings
            for code in sorted(frontiers[side]):
                # Codes are distinct, so sorting the pairs never compares events.
                for child_code, event in sorted(_list_moves(_read_code(code), cap).items()):
                    owner = self.seen.get(child_code)
                    if owner is None:
                        if len(self.seen) >= self.budget.max_states:
                            self.stop = _MAX_STATES
                            return
                        self.seen[child_code] = (side, code, event)
                        next_frontier.append(child_code)
                    elif owner[0] == side:
                        continue
                    yield side, code, event, child_code
            frontiers[side] = next_frontier
            depth += 1
        self.stop = _CLOSED


def _chain(seen: dict, code: str) -> list[tuple[str, MoveEvent]]:
    """(parent code, event) steps from code back to its root."""
    steps = []
    _, parent, event = seen[code]
    while parent is not None:
        steps.append((parent, event))
        _, parent, event = seen[parent]
    return steps


def _verdict(d1: OpenGaussDiagram, d2: OpenGaussDiagram, budget: Budget | None,
             catalog: list[FiniteBiquandle] | None, witness) -> Verdict:
    """Decide d1 ~ d2: equal canonical codes, then ``witness(stages, c1,
    c2)`` on the canonical roots, then the walk, timed as one call."""
    start = time.perf_counter()
    c1, c2 = canonicalize(d1), canonicalize(d2)
    if budget is None:
        budget = default_budget(max(c1.n, c2.n))

    def done(verdict: str, states: int, **kw) -> Verdict:
        wall = (time.perf_counter() - start) * 1000.0
        return Verdict(verdict=verdict, budget=budget, states_visited=states,
                       wall_ms=wall, **kw)

    fp1, fp2 = serialize(c1), serialize(c2)
    if fp1 == fp2:
        return done(EQUIVALENT, 1, path=())
    found = witness(_stages(default_catalog() if catalog is None else catalog), c1, c2)
    if found is not None:
        return done(DISTINCT, 0, witness=found)

    walk = _OrbitWalk([c1, c2], budget)
    for side, parent, event, code in walk:
        if walk.seen[code][0] == side:
            continue
        chains = [[], []]
        chains[side] = [(parent, event)] + _chain(walk.seen, parent)
        chains[1 - side] = _chain(walk.seen, code)
        forward = [step for _, step in reversed(chains[0])]
        backward = [inverse_event(_read_code(p), step) for p, step in chains[1]]
        path = tuple(forward + backward)
        replay = c1
        for step in path:
            replay = apply_move(replay, step)
        if serialize(replay) != fp2:
            raise AssertionError("reconstructed path does not replay")
        return done(EQUIVALENT, len(walk.seen), path=path)
    return done(INCONCLUSIVE, len(walk.seen))


def equivalent_within(
    d1: OpenGaussDiagram,
    d2: OpenGaussDiagram,
    budget: Budget | None = None,
    catalog: list[FiniteBiquandle] | None = None,
) -> Verdict:
    """Decide d1 ~ d2 within the budget.

    Invariants are compared first; a mismatch settles the question
    without any search.  Otherwise a bidirectional breadth-first search
    runs over canonical codes, always expanding the smaller frontier,
    and a meeting point yields a verified move path from d1 to d2.
    """
    return _verdict(d1, d2, budget, catalog, _value_witness)


def min_genus_in_orbit(
    d: OpenGaussDiagram, budget: Budget | None = None
) -> tuple[int, OpenGaussDiagram, int]:
    """Smallest band-surface genus seen in the budgeted move orbit.

    Returns (genus, witness diagram, states visited).  An upper bound
    for the knot's genus, not the exact value: the orbit is truncated
    by the budget.
    """
    c = canonicalize(d)
    if budget is None:
        budget = default_budget(c.n)
    walk = _OrbitWalk([c], budget)
    genus, _, code = min((supporting_genus(x), x.n, code)
                         for _, _, _, code in walk for x in [_read_code(code)])
    return genus, _read_code(code), len(walk.seen)


def commute_check(
    a: OpenGaussDiagram,
    b: OpenGaussDiagram,
    budget: Budget | None = None,
    catalog: list[FiniteBiquandle] | None = None,
) -> Verdict:
    """Compare a then b against b then a under concatenation.

    Coloring matrices multiply along concatenation, so a pair of
    non-commuting matrices settles the question immediately; otherwise
    the two products go to the equivalence search.
    """

    def witness(stages, *products) -> dict | None:
        for fields, _, x in stages:
            hit = None if x is None else commutator_witness(a, b, x)
            if hit is not None:
                i, j, left, right = hit
                return {**fields, "entry": [i, j], "left": left, "right": right}
        return None

    return _verdict(concat(a, b), concat(b, a), budget, catalog, witness)


def prime_scan(d: OpenGaussDiagram, budget: Budget | None = None) -> dict:
    """Look for decomposable diagrams in the budgeted orbit.

    Reports every visited diagram with an interior cut point, together
    with the two factors at each cut.  Finding none never proves
    primality; the report says only what the bounded search saw, and
    ``exhausted`` records whether the orbit was fully closed under the
    size cap before any other limit bit.
    """
    c = canonicalize(d)
    if budget is None:
        budget = default_budget(c.n)
    walk = _OrbitWalk([c], budget)
    decomposable = []
    for _, _, _, code in walk:
        diagram = _read_code(code)
        interior = [g for g in cut_points(diagram) if 0 < g < 2 * diagram.n]
        if interior:
            cuts = []
            for gap in interior:
                left, right = split_at(diagram, gap)
                cuts.append({"gap": gap, "left": serialize(left), "right": serialize(right)})
            decomposable.append({"code": code, "cuts": cuts})
    return {
        "code": serialize(c),
        "decomposable": decomposable,
        "states_visited": len(walk.seen),
        "exhausted": walk.stop == _CLOSED,
        "budget": budget.to_json_dict(),
    }

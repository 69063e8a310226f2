from __future__ import annotations

import hashlib
import json
import random
import time

import pytest

import longvk.search as search
from longvk.corpus import full_corpus, virtual_corpus
from longvk.gauss import _read_code, canonicalize, parse_gauss_code, serialize
from longvk.invariants import commutator_witness, default_catalog, dihedral_quandle
from longvk.monoid import concat
from longvk.moves import apply_move
from longvk.search import (
    DISTINCT,
    EQUIVALENT,
    INCONCLUSIVE,
    Budget,
    _OrbitWalk,
    commute_check,
    default_budget,
    equivalent_within,
    min_genus_in_orbit,
    prime_scan,
)
from strategies import mixed_diagram, walked_diagram
from test_invariants import WITNESS_STRUCTURE

TRIVIAL = parse_gauss_code("")
KINK = parse_gauss_code("O1+ U1+")
VT = parse_gauss_code("O1+ O2+ U1+ U2+")
TREFOIL = parse_gauss_code("O1+ U2+ O3+ U1+ O2+ U3+")
TREFOIL_MIRROR = parse_gauss_code("U1- O2- U3- O1- U2- O3-")


def test_default_budget_scales_with_size():
    b = default_budget(4)
    assert (b.max_crossings, b.max_states, b.max_depth) == (6, 10**6, 16)


def test_budget_rejects_out_of_range_fields():
    with pytest.raises(ValueError, match="budget"):
        Budget(4, 0, 4)
    with pytest.raises(ValueError):
        Budget(-1, 10, 4)
    with pytest.raises(ValueError):
        Budget(4, 10, -1)


# Under a 4-crossing cap the trefoil's orbit closes at 64 states, and the
# two-root walk from the trefoil and its mirror closes at 93.
@pytest.mark.parametrize(
    "visit, roots, orbit",
    [
        (lambda b: equivalent_within(TREFOIL, TREFOIL_MIRROR, budget=b).states_visited, 2, 93),
        (lambda b: min_genus_in_orbit(TREFOIL, budget=b)[2], 1, 64),
        (lambda b: prime_scan(TREFOIL, budget=b)["states_visited"], 1, 64),
    ],
    ids=["equivalent_within", "min_genus_in_orbit", "prime_scan"],
)
def test_max_states_caps_admitted_states(visit, roots, orbit):
    assert visit(Budget(4, 30, 16)) == 30
    assert visit(Budget(4, orbit - 1, 16)) == orbit - 1
    assert visit(Budget(4, orbit, 16)) == orbit
    assert visit(Budget(4, 10 * orbit, 16)) == orbit
    assert visit(Budget(4, 1, 16)) == roots


def test_verdict_json_stable_drops_timing():
    v = equivalent_within(VT, TRIVIAL)
    full = v.to_json_dict()
    assert "wall_ms" in full
    stable = v.to_json_dict(stable=True)
    assert "wall_ms" not in stable
    assert stable["budget"] == v.budget.to_json_dict()


def test_same_fingerprint_is_immediate():
    relabeled = parse_gauss_code("O7+ O4+ U7+ U4+")
    v = equivalent_within(VT, relabeled)
    assert v.verdict == EQUIVALENT
    assert v.path == ()
    assert v.states_visited == 1


def test_known_equivalences_found_with_replayable_paths():
    pairs = [
        (parse_gauss_code("O1+ O2- U1+ U2-"), TRIVIAL),
        (parse_gauss_code("U1+ U2- O3+ O2- O1+ U3+"), TRIVIAL),
        (KINK, TRIVIAL),
        (parse_gauss_code("O1+ U3- O3- U1+"), KINK),
    ]
    for a, b in pairs:
        v = equivalent_within(a, b, budget=Budget(a.n + 2, 20000, 6))
        assert v.verdict == EQUIVALENT, (serialize(a), serialize(b))
        replay = canonicalize(a)
        for event in v.path:
            replay = apply_move(replay, event)
        assert serialize(replay) == serialize(canonicalize(b))


def test_distinct_by_odd_writhe():
    v = equivalent_within(VT, TRIVIAL)
    assert v.verdict == DISTINCT
    assert v.witness == {"invariant": "odd_writhe", "left": 2, "right": 0}
    assert v.states_visited == 0 and v.path is None


def test_distinct_by_coloring_matrix():
    v = equivalent_within(TREFOIL, TRIVIAL)
    assert v.verdict == DISTINCT
    assert v.witness["invariant"] == "coloring_matrix"
    assert v.witness["structure"] == "dihedral:3"
    assert v.witness["left"] == [[3, 0, 0], [0, 3, 0], [0, 0, 3]]
    assert v.witness["right"] == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]


_FLAGSHIP = (virtual_corpus()["mixed_interleaved"], virtual_corpus()["mixed_interleaved_swap"])


@pytest.mark.parametrize(
    "verdict, blob",
    [
        (lambda: equivalent_within(VT, TRIVIAL),
         '{"verdict": "distinct", "budget": {"max_crossings": 4, "max_states": 1000000, '
         '"max_depth": 16}, "states_visited": 0, "witness": {"invariant": "odd_writhe", '
         '"left": 2, "right": 0}}'),
        (lambda: equivalent_within(TREFOIL, TRIVIAL),
         '{"verdict": "distinct", "budget": {"max_crossings": 5, "max_states": 1000000, '
         '"max_depth": 16}, "states_visited": 0, "witness": {"invariant": "coloring_matrix", '
         '"structure": "dihedral:3", "left": [[3, 0, 0], [0, 3, 0], [0, 0, 3]], '
         '"right": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}}'),
        (lambda: commute_check(*_FLAGSHIP, catalog=[dihedral_quandle(3), WITNESS_STRUCTURE]),
         '{"verdict": "distinct", "budget": {"max_crossings": 6, "max_states": 1000000, '
         '"max_depth": 16}, "states_visited": 0, "witness": {"invariant": "coloring_matrix", '
         '"structure": "biq:4:052", "entry": [0, 1], "left": 4, "right": 0}}'),
    ],
    ids=["odd_writhe", "coloring_matrix", "commutator"],
)
def test_witness_shapes_are_pinned(verdict, blob):
    """Whole witness verdicts, key order included, byte for byte."""
    assert json.dumps(verdict().to_json_dict(stable=True)) == blob


def test_inconclusive_when_budget_cannot_settle():
    v = equivalent_within(TREFOIL, TREFOIL_MIRROR, budget=Budget(6, 100, 0))
    assert v.verdict == INCONCLUSIVE
    assert v.states_visited == 2
    roomier = equivalent_within(TREFOIL, TREFOIL_MIRROR, budget=Budget(6, 400, 4))
    assert roomier.verdict == INCONCLUSIVE


def test_walked_pairs_are_recovered(rng: random.Random):
    for _ in range(8):
        start = mixed_diagram(rng, rng.randint(1, 4))
        cap = start.n + 2
        end, _ = walked_diagram(rng, start, steps=3, cap=cap)
        budget = Budget(cap, 50000, 8)
        v = equivalent_within(start, end, budget=budget)
        assert v.verdict == EQUIVALENT, (serialize(start), serialize(end))
        replay = canonicalize(start)
        for event in v.path:
            replay = apply_move(replay, event)
        assert serialize(replay) == serialize(canonicalize(end))


def test_walked_states_read_back_as_parsed(rng: random.Random):
    """The walker reads its states back unchecked; on walked pairs every
    admitted state reads back to what the validating parser builds."""
    for _ in range(3):
        start = mixed_diagram(rng, 4)
        end, _ = walked_diagram(rng, start, steps=3, cap=start.n + 2)
        walk = _OrbitWalk([canonicalize(start), canonicalize(end)], Budget(start.n + 2, 3000, 6))
        for _ in walk:
            pass
        assert len(walk.seen) > 2
        for code in walk.seen:
            assert _read_code(code) == parse_gauss_code(code), code


def test_stable_json_is_reproducible():
    budget = Budget(5, 2000, 5)
    first = equivalent_within(parse_gauss_code("O1+ O2- U1+ U2-"), TRIVIAL, budget=budget)
    second = equivalent_within(parse_gauss_code("O1+ O2- U1+ U2-"), TRIVIAL, budget=budget)
    blob1 = json.dumps(first.to_json_dict(stable=True), sort_keys=True)
    blob2 = json.dumps(second.to_json_dict(stable=True), sort_keys=True)
    assert blob1 == blob2


def test_min_genus_in_orbit():
    genus, witness, _ = min_genus_in_orbit(
        parse_gauss_code("O1+ O2- U1+ U2-"), budget=Budget(3, 2000, 3)
    )
    assert genus == 0 and serialize(witness) == ""
    genus, witness, _ = min_genus_in_orbit(VT, budget=Budget(3, 500, 3))
    assert genus == 1 and serialize(witness) == serialize(VT)
    genus, _, _ = min_genus_in_orbit(TREFOIL, budget=Budget(6, 10, 0))
    assert genus == 0


def test_commute_check_finds_the_witness_pair():
    a = parse_gauss_code("O1+ U2- U1+ O2-")
    b = parse_gauss_code("U1+ O2- O1+ U2-")
    v = commute_check(a, b, catalog=[dihedral_quandle(3), WITNESS_STRUCTURE])
    assert v.verdict == DISTINCT
    assert v.witness["structure"] == "biq:4:052"
    assert v.witness["entry"] == [0, 1]
    assert v.witness["left"] == 4 and v.witness["right"] == 0
    assert v.states_visited == 0


def test_flagship_commute_stops_on_a_closed_orbit():
    corpus = virtual_corpus()
    a, b = corpus["mixed_interleaved"], corpus["mixed_interleaved_swap"]
    budget = Budget(6, 20000, 16)
    v = commute_check(a, b, budget=budget)
    assert v.verdict == INCONCLUSIVE
    assert v.states_visited == 2452
    # Not the budget: a#b has only 1226 diagrams under the 6-crossing cap.
    orbit = prime_scan(concat(a, b), budget=budget)
    assert orbit["exhausted"] is True and orbit["states_visited"] == 1226


def test_commute_check_trivial_factor_commutes():
    v = commute_check(TRIVIAL, VT)
    assert v.verdict == EQUIVALENT and v.path == ()
    v = commute_check(VT, VT)
    assert v.verdict == EQUIVALENT


def test_commute_check_times_the_witness_phase(monkeypatch):
    """Without a witness the verdict's wall time still counts the
    commutator checks, not just the equivalence search after them.  The
    products differ as codes, so the witness phase runs."""

    def slow_witness(a, b, x):
        time.sleep(0.05)
        return None

    monkeypatch.setattr(search, "commutator_witness", slow_witness)
    v = commute_check(VT, KINK, catalog=[dihedral_quandle(3), WITNESS_STRUCTURE])
    assert v.verdict == EQUIVALENT
    assert v.wall_ms >= 100.0


def test_commute_check_never_evaluates_an_additive_stage(monkeypatch):
    """Odd writhe adds under concatenation, so it cannot separate a#b
    from b#a, and commute_check never computes it."""

    def fail(d):
        raise AssertionError("odd writhe evaluated")

    monkeypatch.setattr(search, "odd_writhe", fail)
    corpus = full_corpus()
    v = commute_check(corpus["double_over"], corpus["interleaved_pair"],
                      budget=Budget(6, 50, 2), catalog=[])
    assert v.verdict == INCONCLUSIVE


def test_products_without_a_commutator_witness_never_separate(rng: random.Random):
    """No stage separates a#b from b#a when no coloring commutator does:
    odd writhe adds, and matrices that commute give equal products."""
    catalog = default_catalog() + [WITNESS_STRUCTURE]
    diagrams = list(full_corpus().values())
    diagrams += [mixed_diagram(rng, rng.randint(1, 4)) for _ in range(30)]
    checked = 0
    for a in diagrams:
        for b in diagrams:
            if any(commutator_witness(a, b, x) for x in catalog):
                continue
            v = equivalent_within(concat(a, b), concat(b, a), budget=Budget(0, 1, 0),
                                  catalog=catalog)
            assert v.verdict != DISTINCT, (serialize(a), serialize(b), v.witness)
            checked += 1
    assert 400 <= checked < len(diagrams) ** 2


def test_commute_check_classical_factor_never_yields_witness():
    v = commute_check(TREFOIL, KINK, budget=Budget(8, 300, 4))
    assert v.verdict != DISTINCT


def test_prime_scan_reports_cut_points():
    composite = concat(TREFOIL, KINK)
    report = prime_scan(composite, budget=Budget(composite.n, 50, 1))
    assert report["code"] == serialize(canonicalize(composite))
    root_entry = next(e for e in report["decomposable"] if e["code"] == report["code"])
    gaps = [c["gap"] for c in root_entry["cuts"]]
    assert 6 in gaps
    cut = next(c for c in root_entry["cuts"] if c["gap"] == 6)
    assert cut["left"] == serialize(TREFOIL)
    assert cut["right"] == serialize(KINK)


def test_prime_scan_closed_orbit_is_exhausted():
    report = prime_scan(VT, budget=Budget(VT.n, 100, 4))
    assert report["decomposable"] == []
    assert report["exhausted"] is True
    shallow = prime_scan(VT, budget=Budget(VT.n, 100, 0))
    assert shallow["exhausted"] is False
    at_cap = prime_scan(TREFOIL, budget=Budget(4, 64, 16))
    assert at_cap["states_visited"] == 64 and at_cap["exhausted"] is True
    below_cap = prime_scan(TREFOIL, budget=Budget(4, 63, 16))
    assert below_cap["states_visited"] == 63 and below_cap["exhausted"] is False


# sha256 of the blobs below, recorded before the walker moved from child
# diagrams to child codes; any change to states, order or paths shows here.
SEARCH_OUTPUTS_SHA256 = "c73c580582db1421624091221a507a71fa924e6a22fd71c67d316ba2f06d9b58"


def test_search_outputs_are_pinned():
    rng = random.Random(0)
    blobs = []
    for _ in range(8):
        start = mixed_diagram(rng, rng.randint(2, 5))
        n = start.n
        end, _ = walked_diagram(rng, start, steps=3, cap=n + 2)
        v = equivalent_within(start, end, budget=Budget(n + 2, 4000, 8))
        blobs.append(v.to_json_dict(stable=True))
    for name, d in sorted(full_corpus().items()):
        budget = Budget(d.n + 2, 300, 16)
        blobs.append(prime_scan(d, budget=budget))
        genus, witness, states = min_genus_in_orbit(d, budget=budget)
        blobs.append([genus, serialize(witness), states])
    corpus = full_corpus()
    v = commute_check(corpus["double_over"], corpus["interleaved_pair"],
                      budget=Budget(6, 20000, 16), catalog=[])
    blobs.append(v.to_json_dict(stable=True))
    digest = hashlib.sha256(json.dumps(blobs, sort_keys=True).encode()).hexdigest()
    assert digest == SEARCH_OUTPUTS_SHA256

from __future__ import annotations

import random
from itertools import combinations, product

import pytest

import longvk.moves as moves
from longvk.gauss import (
    OpenGaussDiagram,
    _read_code,
    canonicalize,
    mirror,
    parse_gauss_code,
    serialize,
)
from longvk.invariants import coloring_matrix, dihedral_quandle, odd_writhe
from longvk.monoid import concat, split_at
from longvk.moves import (
    IllegalMove,
    MoveEvent,
    apply_move,
    classify_slide_site,
    enumerate_moves,
    inverse_event,
    removable_kinks,
    removable_pokes,
    slide_sites,
)
from longvk.surface import RibbonGraph, build_band_surface
from oracles import (
    oracle_classify_slide_site,
    oracle_descend,
    oracle_enumerate_moves,
    oracle_slide_patterns,
    oracle_slide_sites,
)
from strategies import every_diagram, mixed_diagram, random_diagram

VT = parse_gauss_code("O1+ O2+ U1+ U2+")
SLIDE_KEYS = list(product(("TM", "TB"), ("TM", "MB"), ("TB", "MB"), (1, -1), (1, -1), (1, -1)))


def _diagram_for_entry(entry: tuple) -> OpenGaussDiagram:
    """Minimal diagram showing the given slide pattern at site (1, 3, 5)."""
    o_t, o_m, o_b, s_tm, s_tb, s_mb = entry
    c_tm, c_tb, c_mb = 1, 2, 3
    t_block = [(c_tm, "O"), (c_tb, "O")]
    if o_t == "TB":
        t_block.reverse()
    m_block = [(c_tm, "U"), (c_mb, "O")]
    if o_m == "MB":
        m_block.reverse()
    b_block = [(c_tb, "U"), (c_mb, "U")]
    if o_b == "MB":
        b_block.reverse()
    return canonicalize(
        OpenGaussDiagram(
            endpoints=tuple(t_block + m_block + b_block),
            signs=((c_tm, s_tm), (c_tb, s_tb), (c_mb, s_mb)),
        )
    )


# -----------------------------------------------------------------------------
# Events and their JSON form
# -----------------------------------------------------------------------------


def test_event_json_round_trip():
    events = [
        MoveEvent.r1_insert(3, -1, "UO"),
        MoveEvent.r1_remove(2),
        MoveEvent.r2_insert(0, 4, "U", "crossed", 1),
        MoveEvent.r2_remove(5, 2),
        MoveEvent.r3((1, 4, 7)),
    ]
    for event in events:
        data = event.to_json_dict()
        assert MoveEvent.from_json_dict(data) == event
    assert MoveEvent.r2_remove(5, 2).label == 2  # sorted on construction
    with pytest.raises(ValueError):
        MoveEvent.from_json_dict({"kind": "r4"})
    with pytest.raises(ValueError, match="bogus"):
        MoveEvent.from_json_dict({"kind": "r3", "bogus": 1})
    with pytest.raises(ValueError):
        MoveEvent.from_json_dict({"kind": "r3", "site": 5})


# -----------------------------------------------------------------------------
# Kink moves
# -----------------------------------------------------------------------------


def test_kink_insert_known():
    out = apply_move(VT, MoveEvent.r1_insert(2, -1, "UO"))
    assert serialize(out) == "O1+ O2+ U3- O3- U1+ U2+"


def test_kink_insert_rejects_bad_parameters():
    with pytest.raises(IllegalMove):
        apply_move(VT, MoveEvent.r1_insert(9, 1, "OU"))
    with pytest.raises(IllegalMove):
        apply_move(VT, MoveEvent.r1_insert(0, 0, "OU"))
    with pytest.raises(IllegalMove):
        apply_move(VT, MoveEvent.r1_insert(0, 1, "XY"))
    with pytest.raises(IllegalMove):
        apply_move(VT, MoveEvent.from_json_dict(
            {"kind": "r1_insert", "gap": "x", "sign": 1, "order": "OU"}))
    with pytest.raises(IllegalMove):
        apply_move(VT, MoveEvent.r1_remove(1.0))
    with pytest.raises(IllegalMove):
        apply_move(VT, MoveEvent.r3((1, "3", 5)))


def test_kink_remove_known():
    d = parse_gauss_code("O1+ U3- O3- U1+")
    out = apply_move(d, MoveEvent.r1_remove(2))  # canonical label of the kink
    assert serialize(out) == "O1+ U1+"
    with pytest.raises(IllegalMove):
        apply_move(VT, MoveEvent.r1_remove(1))  # endpoints not adjacent
    with pytest.raises(IllegalMove):
        apply_move(VT, MoveEvent.r1_remove(7))


def test_removable_kinks_listing():
    assert removable_kinks(parse_gauss_code("O1+ U1+ O2+ U2+")) == (1, 2)
    assert removable_kinks(VT) == ()


# -----------------------------------------------------------------------------
# Poke moves
# -----------------------------------------------------------------------------


def test_poke_insert_parallel_and_crossed():
    parallel = apply_move(parse_gauss_code(""), MoveEvent.r2_insert(0, 0, "O", "parallel", 1))
    assert serialize(parallel) == "O1+ O2- U1+ U2-"
    crossed = apply_move(parse_gauss_code(""), MoveEvent.r2_insert(0, 0, "O", "crossed", 1))
    assert serialize(crossed) == "O1+ O2- U2- U1+"
    split = apply_move(parse_gauss_code("O1+ U1+"), MoveEvent.r2_insert(0, 1, "U", "crossed", 1))
    assert serialize(split) == "U1+ U2- O3+ O2- O1+ U3+"


def test_poke_insert_rejects_bad_parameters():
    empty = parse_gauss_code("")
    with pytest.raises(IllegalMove):
        apply_move(empty, MoveEvent.r2_insert(1, 0, "O", "parallel", 1))
    with pytest.raises(IllegalMove):
        apply_move(empty, MoveEvent.r2_insert(0, 0, "Q", "parallel", 1))
    with pytest.raises(IllegalMove):
        apply_move(empty, MoveEvent.r2_insert(0, 0, "O", "sideways", 1))


def test_poke_remove_checks_pattern():
    d = parse_gauss_code("O1+ O2- U1+ U2-")
    assert serialize(apply_move(d, MoveEvent.r2_remove(1, 2))) == ""
    same_sign = parse_gauss_code("O1+ O2+ U1+ U2+")
    with pytest.raises(IllegalMove):
        apply_move(same_sign, MoveEvent.r2_remove(1, 2))
    non_adjacent = parse_gauss_code("O1+ U1+ O2- U2-")
    with pytest.raises(IllegalMove):
        apply_move(non_adjacent, MoveEvent.r2_remove(1, 2))


def test_removable_pokes_listing():
    assert removable_pokes(parse_gauss_code("O1+ O2- U1+ U2-")) == ((1, 2),)
    assert removable_pokes(VT) == ()


# -----------------------------------------------------------------------------
# Slide moves and the pattern table
# -----------------------------------------------------------------------------


def test_pattern_tables_load_and_validate():
    legal = [key for key in SLIDE_KEYS if moves._slide_legal(key)]
    assert len(legal) == 16
    for o_t, o_m, o_b, *signs in legal:  # flipping all three orders keeps legality
        flipped = ("TB" if o_t == "TM" else "TM", "MB" if o_m == "TM" else "TM",
                   "MB" if o_b == "TB" else "TB", *signs)
        assert moves._slide_legal(flipped)
    for pairing in ("parallel", "crossed"):  # all four pokes are legal
        for sign in (1, -1):
            poke = apply_move(parse_gauss_code(""), MoveEvent.r2_insert(0, 0, "O", pairing, sign))
            assert poke.signs == ((1, sign), (2, -sign))  # the partner gets -sign
    with pytest.raises(IllegalMove):
        apply_move(parse_gauss_code(""), MoveEvent.r2_insert(0, 0, "O", "sideways", 1))


def test_slide_table_equals_geometric_model():
    assert {key for key in SLIDE_KEYS if moves._slide_legal(key)} == oracle_slide_patterns()


def test_slide_classifier_matches_counting_oracle(rng: random.Random):
    """Every ascending position triple, the out-of-range ends included, of
    every diagram with at most 3 chords and of 200 random larger ones."""
    diagrams = [d for n in range(4) for d in every_diagram(n)]
    diagrams += [random_diagram(rng, rng.randint(5, 9)) for _ in range(200)]
    for d in diagrams:
        for site in combinations(range(2 * d.n + 1), 3):
            assert classify_slide_site(d, site) == oracle_classify_slide_site(d, site), (
                serialize(d), site)


def test_slide_known_example():
    d = parse_gauss_code("O1+ O2+ O3- U1+ U3- U2+")
    assert classify_slide_site(d, (1, 3, 5)) == ("TM", "MB", "MB", 1, 1, -1)
    assert slide_sites(d) == ((1, 3, 5),)
    out = apply_move(d, MoveEvent.r3((1, 3, 5)))
    assert serialize(out) == "O1+ O2+ U2+ O3- U1+ U3-"
    assert serialize(apply_move(out, MoveEvent.r3((1, 3, 5)))) == serialize(d)


def test_slide_rejects_bad_sites():
    with pytest.raises(IllegalMove):
        apply_move(VT, MoveEvent.r3((1, 3, 5)))  # blocks exist but roles wrong
    with pytest.raises(IllegalMove):
        apply_move(VT, MoveEvent.r3((1, 2, 3)))  # overlapping blocks
    alternating = parse_gauss_code("O1+ U2+ O3+ U1+ O2+ U3+")
    assert slide_sites(alternating) == ()


def test_every_table_entry_is_applicable():
    for entry in sorted(oracle_slide_patterns()):
        d = _diagram_for_entry(entry)
        key = classify_slide_site(d, (1, 3, 5))
        assert key == (entry[0], entry[1], entry[2], entry[3], entry[4], entry[5])
        out = apply_move(d, MoveEvent.r3((1, 3, 5)))
        results = [serialize(child) for _, child in enumerate_moves(d, cap=d.n)]
        assert serialize(out) in results


def test_deleting_any_entry_breaks_its_slides(monkeypatch):
    """Each legal pattern does real work: without it, its slide is not
    enumerable and the endpoints stay disconnected in a short forward
    search."""
    legal = moves._slide_legal
    for entry in sorted(oracle_slide_patterns()):
        d = _diagram_for_entry(entry)
        target = serialize(apply_move(d, MoveEvent.r3((1, 3, 5))))
        monkeypatch.setattr(moves, "_slide_legal", lambda key, e=entry: key != e and legal(key))
        with pytest.raises(IllegalMove):
            apply_move(d, MoveEvent.r3((1, 3, 5)))
        frontier = {serialize(canonicalize(d))}
        seen = set(frontier)
        for _ in range(2):  # forward-only, depth 2, tight size cap
            nxt = set()
            for code in sorted(frontier):
                for _, child in enumerate_moves(parse_gauss_code(code), cap=4):
                    c = serialize(child)
                    if c not in seen:
                        seen.add(c)
                        nxt.add(c)
            frontier = nxt
        assert target not in seen


# -----------------------------------------------------------------------------
# Enumeration and inversion
# -----------------------------------------------------------------------------


def test_enumerate_is_sorted_deduplicated_and_capped(rng: random.Random):
    for _ in range(25):
        d = mixed_diagram(rng, 5)
        cap = d.n + 1
        listing = enumerate_moves(d, cap=cap)
        codes = [serialize(child) for _, child in listing]
        assert codes == sorted(codes)
        assert len(codes) == len(set(codes))
        for event, child in listing:
            assert child.n <= max(d.n, cap)
            assert apply_move(d, event) == child


def _with_triangle(rng: random.Random, d: OpenGaussDiagram) -> OpenGaussDiagram:
    """d with the three blocks of a random legal slide pattern inserted,
    in random block order, at three random gaps."""
    entry = rng.choice(sorted(oracle_slide_patterns()))
    triangle = _diagram_for_entry(entry)
    n = d.n
    blocks = [tuple((label + n, role) for label, role in triangle.endpoints[i:i + 2])
              for i in (0, 2, 4)]
    rng.shuffle(blocks)
    endpoints = list(d.endpoints)
    for gap, block in zip(sorted((rng.randint(0, 2 * n) for _ in range(3)), reverse=True), blocks):
        endpoints[gap:gap] = block  # right to left, so earlier gaps keep their place
    signs = d.signs + tuple((label + n, sign) for label, sign in triangle.signs)
    return canonicalize(OpenGaussDiagram(endpoints=tuple(endpoints), signs=signs))


def test_listing_matches_exhaustive_oracles(rng: random.Random):
    """Completeness: the listing finds every legal move an exhaustive
    search over candidates finds, with the same first event per result."""
    for i in range(24):
        d = mixed_diagram(rng, 8) if i % 2 else _with_triangle(rng, mixed_diagram(rng, 5))
        assert slide_sites(d) == oracle_slide_sites(d), serialize(d)
        for cap in (d.n, d.n + 1, d.n + 2):
            assert enumerate_moves(d, cap=cap) == oracle_enumerate_moves(d, cap=cap), (
                serialize(d), cap)


def test_listed_codes_read_back_as_parsed(rng: random.Random):
    """Every code the listing writes, spliced or rewritten, reads back
    unchecked to the diagram the validating parser builds from it.  The
    inputs are those of test_listing_matches_exhaustive_oracles."""
    for i in range(24):
        d = mixed_diagram(rng, 8) if i % 2 else _with_triangle(rng, mixed_diagram(rng, 5))
        codes = set()
        for cap in (d.n, d.n + 1, d.n + 2):
            codes.update(moves._list_moves(canonicalize(d), cap))
        for code in codes:
            assert _read_code(code) == parse_gauss_code(code), code


def test_derived_diagrams_pass_validation(rng: random.Random):
    """What the package builds without validation, the public constructors
    accept unchanged."""
    for _ in range(40):
        d = random_diagram(rng, rng.randint(0, 7))
        scattered = OpenGaussDiagram(  # labels 3k + 7: not canonical
            endpoints=tuple((3 * label + 7, role) for label, role in d.endpoints),
            signs=tuple((3 * label + 7, sign) for label, sign in d.signs),
        )
        product = concat(scattered, random_diagram(rng, rng.randint(0, 4)))
        derived = [canonicalize(scattered), mirror(scattered), product,
                   *split_at(product, 2 * d.n)]
        listing = enumerate_moves(scattered, cap=d.n + 2)
        for event, child in rng.sample(listing, min(10, len(listing))):
            derived += [apply_move(scattered, event), child]
        for x in derived:
            assert OpenGaussDiagram(endpoints=x.endpoints, signs=x.signs) == x
        rg = build_band_surface(scattered)
        assert RibbonGraph(rg.rotations, rg.over_in, rg.under_in, rg.start_dart) == rg


def _with_inserts(rng: random.Random, d: OpenGaussDiagram, count: int) -> OpenGaussDiagram:
    """d after ``count`` random kink or poke inserts, each listed legal."""
    for _ in range(count):
        inserts = [child for event, child in enumerate_moves(d, cap=d.n + 2)
                   if event.kind in ("r1_insert", "r2_insert")]
        d = rng.choice(inserts)
    return d


def test_descend_matches_greedy_oracle(rng: random.Random):
    """The one-pass descent leaves what single removals leave, in a fixed
    or a random order, and nothing removable; labels need not be canonical."""
    for i in range(240):
        d = mixed_diagram(rng, 8)
        if i % 2:
            d = _with_inserts(rng, d if d.n <= 5 else random_diagram(rng, 3), rng.randint(1, 3))
        scattered = OpenGaussDiagram(
            endpoints=tuple((5 * label + 2, role) for label, role in d.endpoints),
            signs=tuple((5 * label + 2, sign) for label, sign in d.signs),
        )
        low = OpenGaussDiagram(*moves._descend(scattered.endpoints, scattered.signs))
        assert low == canonicalize(low)
        assert removable_kinks(low) == () and removable_pokes(low) == ()
        want = oracle_descend(d, rng if i % 3 else None)
        assert (low.endpoints, low.signs) == (want.endpoints, want.signs), serialize(d)


def test_enumerate_cap_suppresses_growth():
    listing = enumerate_moves(VT, cap=2)
    kinds = {event.kind for event, _ in listing}
    assert "r1_insert" not in kinds and "r2_insert" not in kinds


def test_inverse_round_trip_fuzz(rng: random.Random):
    for _ in range(20):
        d = mixed_diagram(rng, 5)
        for event, child in enumerate_moves(d, cap=d.n + 2):
            back = apply_move(child, inverse_event(d, event))
            assert back == canonicalize(d), (serialize(d), event)


def test_moves_preserve_invariants_fuzz(rng: random.Random):
    dz3 = dihedral_quandle(3)
    dz5 = dihedral_quandle(5)
    for _ in range(12):
        d = mixed_diagram(rng, 5)
        j = odd_writhe(d)
        m3 = coloring_matrix(d, dz3)
        m5 = coloring_matrix(d, dz5)
        for event, child in enumerate_moves(d, cap=d.n + 1):
            assert odd_writhe(child) == j
            assert coloring_matrix(child, dz3) == m3
            assert coloring_matrix(child, dz5) == m5

"""Independent reference implementations used only by the tests.

Everything here recomputes a quantity the library also computes, by a
different route: boundary circles via an explicit segment graph instead
of dart orbits, coloring matrices by exhaustive assignment or by a
transfer pass over the open chords instead of the library's engine,
the legal slide patterns from explicit line
geometry instead of the library's sign rule, slide sites by counting
labels per block instead of intersecting them, odd writhe by a direct
double loop.  Agreement between the two routes is what the tests
assert, so nothing in this module may import the corresponding library
internals.  The move-listing and descent oracles are the one
exception: they try every candidate event, or remove one kink or poke
at a time, through the public ``removable_kinks``, ``removable_pokes``
and ``apply_move``, so what they check is that the library's listing
finds every legal move and that its one-pass descent ends where single
removals end, not the rewrite itself.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from longvk.gauss import OpenGaussDiagram, canonicalize, serialize
from longvk.invariants import FiniteBiquandle
from longvk.moves import (
    IllegalMove,
    MoveEvent,
    apply_move,
    removable_kinks,
    removable_pokes,
)


def oracle_odd_writhe(d: OpenGaussDiagram) -> int:
    """Sum of signs over chords interleaved with an odd number of others."""
    c = canonicalize(d)
    spans = {label: tuple(sorted(c.positions(label))) for label in c.labels()}
    total = 0
    for a in c.labels():
        lo_a, hi_a = spans[a]
        odd_count = 0
        for b in c.labels():
            if a == b:
                continue
            lo_b, hi_b = spans[b]
            crosses = (lo_a < lo_b < hi_a < hi_b) or (lo_b < lo_a < hi_b < hi_a)
            if crosses:
                odd_count += 1
        if odd_count % 2 == 1:
            total += c.sign(a)
    return total


# ----------------------------------------------------------------------------
# Boundary circles via the segment graph
# ----------------------------------------------------------------------------
#
# Each band contributes two side segments; each vertex contributes one
# corner arc between rotation-adjacent attachments.  A band side joins
# the corner just counterclockwise of its tail attachment to the corner
# just clockwise of its head attachment (and the other side the other
# way around), so the segment graph is 2-regular and its cycles are the
# ribbon boundary circles.


def oracle_boundary_total(rg) -> int:
    adjacency: dict[tuple, list[tuple]] = {}

    def join(u: tuple, v: tuple) -> None:
        adjacency.setdefault(u, []).append(v)
        adjacency.setdefault(v, []).append(u)

    slot_of = {}
    for vertex, rot in enumerate(rg.rotations):
        for index, dart in enumerate(rot):
            slot_of[dart] = (vertex, index)
        for index in range(len(rot)):
            adjacency.setdefault(("corner", vertex, index), [])

    def corner_after(dart: int) -> tuple:
        vertex, index = slot_of[dart]
        return ("corner", vertex, index)

    def corner_before(dart: int) -> tuple:
        vertex, index = slot_of[dart]
        return ("corner", vertex, (index - 1) % len(rg.rotations[vertex]))

    for band in range(rg.bands):
        tail, head = 2 * band, 2 * band + 1
        side1 = ("side", band, 1)
        side2 = ("side", band, 2)
        join(side1, corner_after(tail))
        join(side1, corner_before(head))
        join(side2, corner_before(tail))
        join(side2, corner_after(head))

    for node, neighbours in adjacency.items():
        assert len(neighbours) == 2, (node, neighbours)
    seen: set[tuple] = set()
    cycles = 0
    for node in adjacency:
        if node in seen:
            continue
        cycles += 1
        prev, cur = None, node
        while cur not in seen:
            seen.add(cur)
            a, b = adjacency[cur]
            prev, cur = cur, (b if a == prev else a)
    return cycles + 1  # the annulus V keeps its untouched outer circle


# ----------------------------------------------------------------------------
# Exhaustive coloring matrices
# ----------------------------------------------------------------------------


def oracle_coloring_matrix(
    d: OpenGaussDiagram, x: FiniteBiquandle
) -> tuple[tuple[int, ...], ...]:
    """Try every semi-arc assignment; feasible only for tiny diagrams."""
    c = canonicalize(d)
    m = x.m
    segs = 2 * c.n + 1
    counts = [[0] * m for _ in range(m)]
    chords = []
    for label in c.labels():
        over_pos, under_pos = c.positions(label)
        chords.append((over_pos, under_pos, c.sign(label)))
    for colors in itertools.product(range(m), repeat=segs):
        ok = True
        for over_pos, under_pos, sign in chords:
            o_in, o_out = colors[over_pos - 1], colors[over_pos]
            u_in, u_out = colors[under_pos - 1], colors[under_pos]
            if sign == 1:
                good = x.s_map(u_in, o_in) == (u_out, o_out)
            else:
                good = x.s_map(u_out, o_out) == (u_in, o_in)
            if not good:
                ok = False
                break
        if ok:
            counts[colors[0]][colors[-1]] += 1
    return tuple(tuple(row) for row in counts)


def oracle_transfer_matrix(
    d: OpenGaussDiagram, x: FiniteBiquandle
) -> tuple[tuple[int, ...], ...]:
    """Count colorings by a left-to-right transfer pass over the line.

    The state is (first color, current color, pending chords), where a
    pending chord records the other strand's guessed incoming color and
    its outgoing color; equal states merge.  The crossing maps come
    from the tables alone, so the cost is about m^(open chords + 2) per
    position whatever the diagram's labels.
    """
    m = x.m
    positive = {(u, o): (x.up[u][o], x.down[o][u]) for u in range(m) for o in range(m)}
    maps = {1: positive, -1: {out: pair for pair, out in positive.items()}}
    sign_of = dict(d.signs)
    states: dict[tuple, int] = {(a, a, ()): 1 for a in range(m)}
    for label, role in d.endpoints:
        f = maps[sign_of[label]]
        nxt: dict[tuple, int] = {}
        for (start, cur, pending), count in states.items():
            entry = next((p for p in pending if p[0] == label), None)
            if entry is None:
                for guess in range(m):
                    if role == "U":
                        out, other_out = f[(cur, guess)]
                    else:
                        other_out, out = f[(guess, cur)]
                    key = (start, out, tuple(sorted(pending + ((label, guess, other_out),))))
                    nxt[key] = nxt.get(key, 0) + count
            elif entry[1] == cur:
                key = (start, entry[2], tuple(p for p in pending if p[0] != label))
                nxt[key] = nxt.get(key, 0) + count
        states = nxt
    matrix = [[0] * m for _ in range(m)]
    for (start, cur, _), count in states.items():
        matrix[start][cur] += count
    return tuple(tuple(row) for row in matrix)


# ----------------------------------------------------------------------------
# Slide-pattern table from line geometry
# ----------------------------------------------------------------------------
#
# Three straight strands bounding a triangle: T crosses over both
# others, M over B only.  Reversing any strand and mirroring the whole
# picture generate every realizable configuration.  Crossing signs come
# from det(over direction, under direction); the first crossing a
# strand meets along its own direction gives the order entries.


def _line_sign(det: Fraction) -> int:
    assert det != 0
    return 1 if det > 0 else -1


def oracle_slide_patterns() -> frozenset[tuple[str, str, str, int, int, int]]:
    patterns = set()
    half = Fraction(1, 2)
    for chirality in (1, 2):
        if chirality == 1:
            # B along y=0, M along y=x, T along y=1-x
            pos = {"TM": half, "TB": Fraction(1), "MB": Fraction(0)}
            direction = {"T": (1, -1), "M": (1, 1), "B": (1, 0)}
        else:
            # mirror image: M along y=1-x, T along y=x
            pos = {"TM": half, "TB": Fraction(0), "MB": Fraction(1)}
            direction = {"T": (1, 1), "M": (1, -1), "B": (1, 0)}
        meets = {"T": ("TM", "TB"), "M": ("TM", "MB"), "B": ("TB", "MB")}
        over_under = {"TM": ("T", "M"), "TB": ("T", "B"), "MB": ("M", "B")}
        for eps in itertools.product((1, -1), repeat=3):
            eps_of = dict(zip("TMB", eps))
            order = {}
            for strand, (c1, c2) in meets.items():
                first = c1 if (pos[c1] - pos[c2]) * eps_of[strand] < 0 else c2
                order[strand] = first
            signs = {}
            for crossing, (over, under) in over_under.items():
                vo = tuple(eps_of[over] * t for t in direction[over])
                vu = tuple(eps_of[under] * t for t in direction[under])
                signs[crossing] = _line_sign(Fraction(vo[0] * vu[1] - vo[1] * vu[0]))
            patterns.add(
                (order["T"], order["M"], order["B"],
                 signs["TM"], signs["TB"], signs["MB"])
            )
    return frozenset(patterns)


# ----------------------------------------------------------------------------
# Cut points by direct span inspection
# ----------------------------------------------------------------------------


def oracle_cut_points(d: OpenGaussDiagram) -> tuple[int, ...]:
    c = canonicalize(d)
    out = []
    for gap in range(2 * c.n + 1):
        spanned = False
        for label in c.labels():
            lo, hi = sorted(c.positions(label))
            if lo <= gap < hi:
                spanned = True
                break
        if not spanned:
            out.append(gap)
    return tuple(out)


# ----------------------------------------------------------------------------
# Move listings by trying every candidate
# ----------------------------------------------------------------------------


def oracle_classify_slide_site(
    d: OpenGaussDiagram, site: tuple[int, int, int]
) -> tuple[str, str, str, int, int, int] | None:
    """Block-order/sign pattern at a site, as ``classify_slide_site``
    reads it, found by counting labels and naming chords by the kinds
    of the blocks they meet."""
    if len(site) != 3:
        return None
    p1, p2, p3 = site
    if not (1 <= p1 and p1 + 1 < p2 and p2 + 1 < p3 and p3 + 1 <= 2 * d.n):
        return None
    block_eps = [(d.endpoint(p), d.endpoint(p + 1)) for p in (p1, p2, p3)]
    counts: dict[int, int] = {}
    for first, second in block_eps:
        counts[first[0]] = counts.get(first[0], 0) + 1
        counts[second[0]] = counts.get(second[0], 0) + 1
    if len(counts) != 3 or set(counts.values()) != {2}:
        return None
    kind_of_block: dict[str, int] = {}
    for index, (first, second) in enumerate(block_eps):
        roles = (first[1], second[1])
        kind = {("O", "O"): "T", ("U", "U"): "B"}.get(roles, "M")
        if kind in kind_of_block:
            return None
        kind_of_block[kind] = index
    membership: dict[int, set[str]] = {label: set() for label in counts}
    for kind, index in kind_of_block.items():
        first, second = block_eps[index]
        membership[first[0]].add(kind)
        membership[second[0]].add(kind)
    chord_of: dict[frozenset[str], int] = {}
    for label, kinds in membership.items():
        if len(kinds) != 2:
            return None
        chord_of[frozenset(kinds)] = label
    c_tm = chord_of.get(frozenset(("T", "M")))
    c_tb = chord_of.get(frozenset(("T", "B")))
    c_mb = chord_of.get(frozenset(("M", "B")))
    if c_tm is None or c_tb is None or c_mb is None:
        return None
    first_t = block_eps[kind_of_block["T"]][0][0]
    first_m = block_eps[kind_of_block["M"]][0][0]
    first_b = block_eps[kind_of_block["B"]][0][0]
    return (
        "TM" if first_t == c_tm else "TB",
        "TM" if first_m == c_tm else "MB",
        "TB" if first_b == c_tb else "MB",
        d.sign(c_tm),
        d.sign(c_tb),
        d.sign(c_mb),
    )


def oracle_slide_sites(d: OpenGaussDiagram) -> tuple[tuple[int, int, int], ...]:
    """Classify every ascending triple of block starts; keep the ones the
    geometric model realizes."""
    c = canonicalize(d)
    patterns = oracle_slide_patterns()
    out = []
    for p1 in range(1, 2 * c.n):
        for p2 in range(p1 + 2, 2 * c.n):
            for p3 in range(p2 + 2, 2 * c.n):
                if oracle_classify_slide_site(c, (p1, p2, p3)) in patterns:
                    out.append((p1, p2, p3))
    return tuple(out)


def oracle_enumerate_moves(
    d: OpenGaussDiagram, cap: int | None = None
) -> tuple[tuple[MoveEvent, OpenGaussDiagram], ...]:
    """Apply every candidate event, keep the first per result, sort by code.

    Candidates are every removal of one label or of a label pair, every
    slide site from :func:`oracle_slide_sites` and every insert within
    the cap, in the order ``enumerate_moves`` documents; illegal ones
    are skipped.
    """
    c = canonicalize(d)
    n = c.n
    labels = c.labels()
    events = [MoveEvent.r1_remove(a) for a in labels]
    events += [MoveEvent.r2_remove(a, b) for a, b in itertools.combinations(labels, 2)]
    events += [MoveEvent.r3(site) for site in oracle_slide_sites(c)]
    if cap is None or n + 1 <= cap:
        events += [MoveEvent.r1_insert(gap, sign, order)
                   for gap in range(2 * n + 1)
                   for order in ("OU", "UO")
                   for sign in (1, -1)]
    if cap is None or n + 2 <= cap:
        events += [MoveEvent.r2_insert(gap, gap2, roles1, pairing, sign)
                   for gap in range(2 * n + 1)
                   for gap2 in range(gap, 2 * n + 1)
                   for roles1 in ("O", "U")
                   for pairing in ("parallel", "crossed")
                   for sign in (1, -1)]
    seen: dict[str, tuple[MoveEvent, OpenGaussDiagram]] = {}
    for event in events:
        try:
            result = apply_move(c, event)
        except IllegalMove:
            continue
        seen.setdefault(serialize(result), (event, result))
    return tuple(seen[code] for code in sorted(seen))


def oracle_descend(d: OpenGaussDiagram, rng: random.Random | None = None) -> OpenGaussDiagram:
    """Remove kinks and pokes one at a time until none is left.

    Without ``rng`` the first removable kink goes first, else the first
    removable poke; with it, a random one of all removable patterns.
    """
    c = canonicalize(d)
    while True:
        events = [MoveEvent.r1_remove(label) for label in removable_kinks(c)]
        events += [MoveEvent.r2_remove(a, b) for a, b in removable_pokes(c)]
        if not events:
            return c
        c = apply_move(c, rng.choice(events) if rng else events[0])

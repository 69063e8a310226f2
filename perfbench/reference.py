"""Known answers and independent recomputations for the benchmark checks.

Nothing here imports longvk: every function works on plain token lists
``[(label, role, sign), ...]`` and plain operation tables, so a check
built from these functions does not trust the code it is checking.

* ``canonical_code`` relabels chords by first appearance, as the Gauss
  code grammar defines canonical form.
* ``odd_writhe`` counts interleavings with a direct double loop, and
  ``cut_points`` tests every gap against every chord.
* ``coloring_matrix`` counts colorings by a left-to-right transfer pass
  whose state is the current color plus the pending data of the chords
  left open at the current gap.
* ``axiom_failures`` and ``iso_key`` check enumerated structures without
  the library's axiom suite or its canonical table form.
"""

from __future__ import annotations

import itertools

# Criterion 7: odd writhe of every corpus diagram, frozen.
ODD_WRITHE_FROZEN = {
    "trivial": 0,
    "kinked_unknot": 0,
    "poked_unknot": 0,
    "trefoil": 0,
    "trefoil_mirror": 0,
    "figure_eight": 0,
    "double_over": 2,
    "double_over_mirror": -2,
    "double_over_negative": -2,
    "interleaved_pair": 2,
    "braid_triple": 2,
    "hidden_unknot_parallel": 0,
    "hidden_unknot_kink_split": 0,
    "mixed_interleaved": 0,
    "mixed_interleaved_swap": 0,
}

# Band-surface genus: classical corpus diagrams are planar, the virtual
# ones need a torus.
GENUS_CLASSICAL, GENUS_VIRTUAL = 0, 1

# Biquandle classes and quandle classes of order 1..4.
ENUMERATION_CLASSES = {1: 1, 2: 2, 3: 15, 4: 98}
ENUMERATION_QUANDLES = {1: 1, 2: 1, 3: 3, 4: 7}

# The paper's flagship non-commuting pair and its first witness when the
# enumerated structures are scanned in order: entry [0, 1], 4 versus 0.
FLAGSHIP = ("mixed_interleaved", "mixed_interleaved_swap")
FLAGSHIP_WITNESS = ([0, 1], 4, 0)


# Non-linear order-3 biquandles (up table, down table) under which the
# backtracking coloring of a prime chain follows every chord to the end:
# past 500 chords its recursion is deeper than Python's default limit.
# (Under some other order-3 structures colorings die out early, and the
# same chains finish, slowly, without reaching the limit.)
PAST_LIMIT_TABLES = (
    (((0, 0, 0), (1, 1, 1), (2, 2, 2)), ((0, 0, 0), (2, 1, 1), (1, 2, 2))),
    (((0, 0, 0), (2, 2, 2), (1, 1, 1)), ((0, 0, 0), (1, 2, 2), (2, 1, 1))),
    (((1, 1, 1), (2, 2, 2), (0, 0, 0)), ((1, 0, 2), (0, 2, 1), (2, 1, 0))),
)


def tokens_of(code: str) -> list[tuple[int, str, int]]:
    """Parse ``O1+ U2- ...`` into ``(label, role, sign)`` triples."""
    if code in ("", "0"):
        return []
    return [(int(t[1:-1]), t[0], 1 if t[-1] == "+" else -1) for t in code.split(" ")]


def code_of(tokens: list[tuple[int, str, int]]) -> str:
    return " ".join(f"{role}{label}{'+' if sign == 1 else '-'}" for label, role, sign in tokens)


def canonical_code(tokens: list[tuple[int, str, int]]) -> str:
    rename: dict[int, int] = {}
    out = []
    for label, role, sign in tokens:
        new = rename.setdefault(label, len(rename) + 1)
        out.append((new, role, sign))
    return code_of(out)


def concat_tokens(*pieces: list[tuple[int, str, int]]) -> list[tuple[int, str, int]]:
    """Left-to-right concatenation with labels made disjoint."""
    out: list[tuple[int, str, int]] = []
    shift = 0
    for piece in pieces:
        labels = {label for label, _, _ in piece}
        rename = {old: shift + i for i, old in enumerate(sorted(labels), start=1)}
        out.extend((rename[label], role, sign) for label, role, sign in piece)
        shift += len(labels)
    return out


def odd_writhe(tokens: list[tuple[int, str, int]]) -> int:
    span: dict[int, list[int]] = {}
    sign_of: dict[int, int] = {}
    for pos, (label, _, sign) in enumerate(tokens):
        span.setdefault(label, []).append(pos)
        sign_of[label] = sign
    total = 0
    for a, (a_lo, a_hi) in span.items():
        crossings = sum(
            1
            for b, (b_lo, b_hi) in span.items()
            if b != a and ((a_lo < b_lo < a_hi) != (a_lo < b_hi < a_hi))
        )
        if crossings % 2:
            total += sign_of[a]
    return total


def max_open_chords(tokens: list[tuple[int, str, int]]) -> int:
    """Largest number of chords spanning one gap."""
    seen: set[int] = set()
    width = best = 0
    for label, _, _ in tokens:
        if label in seen:
            width -= 1
        else:
            seen.add(label)
            width += 1
            best = max(best, width)
    return best


def cut_points(tokens: list[tuple[int, str, int]]) -> tuple[int, ...]:
    """Gaps (after position g) that no chord spans, ascending."""
    first: dict[int, int] = {}
    spans = []
    for pos, (label, _, _) in enumerate(tokens, start=1):
        if label in first:
            spans.append((first[label], pos))
        else:
            first[label] = pos
    return tuple(g for g in range(len(tokens) + 1) if not any(lo <= g < hi for lo, hi in spans))


def crossing_maps(up, down) -> tuple[dict, dict]:
    """Positive and negative crossing maps, (under_in, over_in) -> outs.

    A positive crossing sends (x, y) to (up[x][y], down[y][x]); a
    negative one applies the inverse of that map.
    """
    m = len(up)
    positive = {(x, y): (up[x][y], down[y][x]) for x in range(m) for y in range(m)}
    negative = {out: pair for pair, out in positive.items()}
    if len(negative) != m * m:
        raise ValueError("crossing map is not invertible")
    return positive, negative


def coloring_matrix(tokens: list[tuple[int, str, int]], up, down) -> tuple[tuple[int, ...], ...]:
    """Colorings counted by (first color, last color).

    At a chord's first passage the other strand's incoming color is
    guessed and the other strand's outgoing color is remembered; the
    second passage keeps only colorings whose current color matches the
    guess.  Equal states merge, so the cost is m^(open chords + 2).
    """
    m = len(up)
    maps = dict(zip((1, -1), crossing_maps(up, down)))
    states: dict[tuple, int] = {(a, a, ()): 1 for a in range(m)}
    for label, role, sign in tokens:
        f = maps[sign]
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
    for (start, cur, pending), count in states.items():
        matrix[start][cur] += count
    return tuple(tuple(row) for row in matrix)


def mat_mul(a, b) -> tuple[tuple[int, ...], ...]:
    size = len(a)
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(size)) for j in range(size))
        for i in range(size)
    )


def first_difference(a, b) -> tuple[int, int, int, int] | None:
    """First (row, col, a value, b value) where a and b differ, rows first."""
    for i, (row_a, row_b) in enumerate(zip(a, b)):
        for j, (x, y) in enumerate(zip(row_a, row_b)):
            if x != y:
                return (i, j, x, y)
    return None


def dihedral_tables(m: int) -> tuple[tuple, tuple]:
    up = tuple(tuple((2 * y - x) % m for y in range(m)) for x in range(m))
    down = tuple(tuple(y for _ in range(m)) for y in range(m))
    return up, down


def axiom_failures(up, down) -> list[str]:
    """Biquandle axioms, checked from the tables alone."""
    m = len(up)
    failures = []
    if any(len({up[x][y] for x in range(m)}) != m for y in range(m)):
        failures.append("up columns")
    if any(len({down[y][x] for y in range(m)}) != m for x in range(m)):
        failures.append("down columns")
    try:
        s, _ = crossing_maps(up, down)
    except ValueError:
        return failures + ["invertible"]
    kinks = [(x, y) for (x, y), out in s.items() if out == (y, x)]
    if sorted(x for x, _ in kinks) != list(range(m)) or sorted(y for _, y in kinks) != list(range(m)):
        failures.append("kink")
    for t0, m0, b0 in itertools.product(range(m), repeat=3):
        m1, t1 = s[m0, t0]
        b1, t2 = s[b0, t1]
        b2, m2 = s[b1, m1]
        b1a, m1a = s[b0, m0]
        b2a, t1a = s[b1a, t0]
        m2a, t2a = s[m1a, t1a]
        if (t2, m2, b2) != (t2a, m2a, b2a):
            failures.append("exchange")
            break
    return failures


def iso_key(up, down) -> tuple:
    """Smallest relabelled copy of the crossing map, for isomorphism tests."""
    m = len(up)
    s, _ = crossing_maps(up, down)
    best = None
    for perm in itertools.permutations(range(m)):
        key = tuple(
            sorted(((perm[x], perm[y]), (perm[a], perm[b])) for (x, y), (a, b) in s.items())
        )
        if best is None or key < best:
            best = key
    return best

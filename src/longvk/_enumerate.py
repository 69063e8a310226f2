"""Isomorph-free enumeration of the finite biquandles of one order.

``longvk.invariants.enumerate_biquandles`` imports this module on its
first call, so a plain ``import longvk`` does not load it.

The kink cells, where S(x, y) == (y, x), form a permutation sigma with
y = sigma(x), and relabelling the colors by pi conjugates sigma to
pi sigma pi^-1.  Every class thus has a member whose sigma is the chosen
representative of its cycle type, and tables of different cycle types
are never isomorphic.  Two tables with the same sigma are isomorphic
only by a relabelling in the centralizer C(sigma), so the search runs
once per representative and keeps, by orderly generation (Read 1978;
McKay 1998), only the least table of each C(sigma) orbit.  Tables are
ordered by their S values in row-major order of the cells that are not
kink cells, and a partial table is dropped as soon as some map of
C(sigma) sends its assigned cells to a smaller prefix.  One table per
class survives; the least relabelling over all m! maps then gives the
class its ``biq:m:NNN`` name.
"""

from __future__ import annotations

import functools
import itertools

from longvk.invariants import FiniteBiquandle, _exchange_state


def canonical_table_form(
    up: tuple[tuple[int, ...], ...], down: tuple[tuple[int, ...], ...]
) -> tuple:
    """Lexicographically least relabeling of the table pair.

    Each relabelling is built row by row and dropped at its first row
    above the least one so far.
    """
    m = len(up)
    best: list = []
    for perm, inv in _maps(m):
        key, tie = [], bool(best)
        for row in [table[i] for table in (up, down) for i in inv]:
            new = tuple([perm[row[j]] for j in inv])
            if tie:
                old = best[len(key)]
                if new > old:
                    break
                tie = new == old
            key.append(new)
        else:
            if not tie:
                best = key
    return tuple(best[:m]), tuple(best[m:])


def _maps(m: int) -> tuple:
    """Every permutation of range(m) with its inverse, the identity first."""
    return tuple((p, tuple(sorted(range(m), key=p.__getitem__)))
                 for p in itertools.permutations(range(m)))


def _kink_permutations(m: int, largest: int | None = None):
    """One permutation of range(m) per cycle type, cycles on consecutive blocks."""
    if m == 0:
        yield []
        return
    for p in range(min(m, largest or m), 0, -1):
        for rest in _kink_permutations(m - p, p):
            yield [(i + 1) % p for i in range(p)] + [p + v for v in rest]


@functools.lru_cache(maxsize=8)
def classes(m: int) -> tuple[FiniteBiquandle, ...]:
    """One biquandle per isomorphism class on {0..m-1}, named and sorted."""
    forms = sorted(canonical_table_form(up, down)
                   for sigma in _kink_permutations(m) for up, down in _least_tables(m, sigma))
    result = []
    for index, (up, down) in enumerate(forms):
        is_quandle = all(down[yy][xx] == yy for yy in range(m) for xx in range(m))
        result.append(
            FiniteBiquandle(
                m=m,
                up=up,
                down=down,
                kind="quandle" if is_quandle else "biquandle",
                name=f"biq:{m}:{index:03d}",
            )
        )
    return tuple(result)


def _least_tables(m: int, sigma: list[int]) -> list[tuple]:
    """(up, down) of the least table of each C(sigma) orbit of biquandles
    whose kink permutation is sigma.

    The search preassigns the m kink cells and forbids S(x, y) == (y, x)
    elsewhere.  It backtracks over the other cells of S, in table order,
    under column invertibility of both tables and invertibility of S.
    Each exchange instance waits on an unassigned cell it reads, and an
    assignment re-evaluates only the instances waiting on that cell.  An
    instance with one cell left to read forces that cell's value, so two
    instances forcing one cell apart, or a forced value already taken,
    fail at once.  Recursion goes one level per cell, under m**2 in all.
    """
    s: list[list[tuple[int, int] | None]] = [[None] * m for _ in range(m)]
    forced: list[list[tuple[int, int] | None]] = [[None] * m for _ in range(m)]
    used: set[tuple[int, int]] = set()
    col_first: list[set[int]] = [set() for _ in range(m)]  # per y, over x
    col_second: list[set[int]] = [set() for _ in range(m)]  # per x, over y
    for x, y in enumerate(sigma):
        s[x][y] = (y, x)
        used.add((y, x))
        col_first[y].add(y)
        col_second[x].add(x)
    watch = {(x, y): [] for x in range(m) for y in range(m)}
    cells = [(x, y) for x in range(m) for y in range(m) if y != sigma[x]]
    codes = [0] * len(cells)  # S(cell) as a * m + b, valid for the assigned cells
    tables = []

    def settle(instances, moved: list, pinned: list) -> bool:
        """Evaluate ``instances``; False as soon as one fails."""
        for t in instances:
            state = _exchange_state(s, *t)
            if state is True:
                continue
            if state is False:
                return False
            cell, value = state
            if value is None:
                watch[cell].append(t)
                moved.append(cell)
                continue
            x, y = cell
            if (old := forced[x][y]) is None:
                a, b = value
                if a in col_first[y] or b in col_second[x] or value in used or value == (y, x):
                    return False
                forced[x][y] = value
                pinned.append(cell)
            elif old != value:
                return False
        return True

    def assign(idx: int, live: list) -> None:
        if idx == len(cells):
            up = tuple(tuple(s[x][y][0] for y in range(m)) for x in range(m))
            down = tuple(tuple(s[x][y][1] for x in range(m)) for y in range(m))
            tables.append((up, down))
            return
        x, y = cells[idx]
        waiting, watch[x, y] = watch[x, y], []
        choices = [(a, b) for a in range(m) if a not in col_first[y] for b in range(m)
                   if b not in col_second[x] and (a, b) not in used and (a, b) != (y, x)]
        if pin := forced[x][y]:
            choices = [pin] if pin in choices else []
        for a, b in choices:
            s[x][y] = (a, b)
            codes[idx] = a * m + b
            used.add((a, b))
            col_first[y].add(a)
            col_second[x].add(b)
            moved, pinned = [], []
            if settle(waiting, moved, pinned):
                kept = _still_least(codes, live, idx + 1)
                if kept is not None:
                    assign(idx + 1, kept)
            for cell in moved:
                watch[cell].pop()
            for cx, cy in pinned:
                forced[cx][cy] = None
            used.discard((a, b))
            col_first[y].discard(a)
            col_second[x].discard(b)
        s[x][y] = None
        watch[x, y] = waiting

    moved, pinned = [], []
    if settle(itertools.product(range(m), repeat=3), moved, pinned):
        assign(0, _relabellings(m, sigma, cells))
    return tables


def _relabellings(m: int, sigma: list[int], cells: list) -> list:
    """Per map p of C(sigma) but the identity: (p on S values as codes,
    per cell the index of the cell p sends onto it, 0 cells compared)."""
    index = {cell: i for i, cell in enumerate(cells)}
    return [(tuple(p[a] * m + p[b] for a in range(m) for b in range(m)),
             tuple(index[inv[x], inv[y]] for x, y in cells), 0)
            for p, inv in _maps(m)[1:] if all(p[sigma[x]] == sigma[p[x]] for x in range(m))]


def _still_least(codes: list[int], live: list, depth: int) -> list | None:
    """The maps of ``live`` not yet shown to relabel the table to a larger
    one, each with how many leading cells it leaves equal, or None when
    one relabels the first ``depth`` cells to a smaller table.

    A map compares cell by cell until it reaches a cell whose own value
    or whose preimage's value is not assigned yet; equal cells stay
    equal in every completion, so the next call resumes there.
    """
    kept = []
    for relabel, pre, i in live:
        while i < depth and (j := pre[i]) < depth:
            image, own = relabel[codes[j]], codes[i]
            if image != own:
                if image < own:
                    return None
                break
            i += 1
        else:
            kept.append((relabel, pre, i))
    return kept

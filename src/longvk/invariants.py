"""Invariants of long virtual knot diagrams.

Two families live here.

*Odd writhe.*  A chord is odd when it interleaves an odd number of other
chords; the odd writhe is the signed count of odd chords.  It vanishes
on every diagram realizable in the plane, so a nonzero value certifies
that a diagram is genuinely virtual.  It adds under concatenation and
changes sign under mirror.

*Coloring matrices.*  A finite biquandle is a set {0..m-1} with two
operation tables describing how strand colors transform at a classical
crossing.  Coloring a long diagram leaves one free color at each end;
counting colorings by end pair gives an m x m matrix which is invariant
under the Reidemeister moves and sends concatenation to matrix product.
For honest soundness the axiom checker verifies exactly the finite
conditions that move-invariance of the count requires: column
invertibility of both tables, invertibility of the combined crossing map
S(x, y) = (up[x][y], down[y][x]), the kink (first-move) conditions, and
the exchange (third-move) identity.

Table conventions.  ``up[x][y]`` is the new color of a strand entering
the under-passage with color ``x`` while the over strand enters with
``y``; ``down[y][x]`` is the new color of the over strand in the same
situation.  Both are for positive crossings; negative crossings apply
the inverse of S.  A quandle is the special case where the over strand
keeps its color (``down[y][x] == y``); its colorings are the classical
arc colorings broken at under-passages only, since colors never change
across an over-passage.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from longvk.gauss import OVER, UNDER, OpenGaussDiagram, canonicalize
from longvk.monoid import cut_points, split_at

ColoringMatrix = tuple[tuple[int, ...], ...]


class InvalidStructure(ValueError):
    """Structure tables are malformed or fail the axiom suite."""


# ---------------------------------------------------------------------------
# odd writhe
# ---------------------------------------------------------------------------


def odd_writhe(d: OpenGaussDiagram) -> int:
    """Sum of signs of chords with an odd interleaving count."""
    first: dict[int, int] = {}
    second: dict[int, int] = {}
    for pos, (label, _) in enumerate(d.endpoints, start=1):
        (second if label in first else first)[label] = pos
    total = 0
    for a, sign in d.signs:
        fa, sa = first[a], second[a]
        count = 0
        for b in first:
            if b != a and (fa < first[b] < sa) != (fa < second[b] < sa):
                count += 1
        if count % 2 == 1:
            total += sign
    return total


# ---------------------------------------------------------------------------
# finite biquandles
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FiniteBiquandle:
    """Finite biquandle (or quandle) given by explicit operation tables."""

    m: int
    up: tuple[tuple[int, ...], ...]
    down: tuple[tuple[int, ...], ...]
    kind: str = "biquandle"
    name: str = ""

    def __post_init__(self) -> None:
        m = self.m
        if m < 1:
            raise InvalidStructure("need m >= 1")
        if self.kind not in ("quandle", "biquandle"):
            raise InvalidStructure(f"unknown kind {self.kind!r}")
        for table_name, table in (("up", self.up), ("down", self.down)):
            if len(table) != m or any(len(row) != m for row in table):
                raise InvalidStructure(f"{table_name} table is not {m}x{m}")
            if any(not (0 <= v < m) for row in table for v in row):
                raise InvalidStructure(f"{table_name} entries out of range")
        object.__setattr__(self, "_axiom_report", None)
        s = tuple(
            tuple((self.up[x][y], self.down[y][x]) for y in range(m)) for x in range(m)
        )
        object.__setattr__(self, "_s", s)
        outputs = {}
        for x in range(m):
            for y in range(m):
                outputs.setdefault(s[x][y], (x, y))
        if len(outputs) == m * m:
            sinv = tuple(
                tuple(outputs[(a, b)] for b in range(m)) for a in range(m)
            )
        else:
            sinv = None
        object.__setattr__(self, "_sinv", sinv)

    # -- crossing maps -------------------------------------------------

    def s_map(self, u_in: int, o_in: int) -> tuple[int, int]:
        """Positive crossing: (under_out, over_out)."""
        return self._s[u_in][o_in]

    def s_inv(self, u_in: int, o_in: int) -> tuple[int, int]:
        """Negative crossing: (under_out, over_out)."""
        if self._sinv is None:
            raise InvalidStructure("crossing map is not invertible")
        return self._sinv[u_in][o_in]

    # -- axiom suite ---------------------------------------------------

    def axiom_violations(self) -> list[tuple[str, tuple]]:
        """First witness per violated axiom; empty list when valid."""
        if self._axiom_report is not None:
            return self._axiom_report
        m, up, down, s = self.m, self.up, self.down, self._s
        report: list[tuple[str, tuple]] = []

        if self.kind == "quandle":
            for y, x in itertools.product(range(m), repeat=2):
                if down[y][x] != y:
                    report.append(("quandle_down_identity", (y, x)))
                    break

        for y in range(m):
            seen: dict[int, int] = {}
            for x in range(m):
                v = up[x][y]
                if v in seen:
                    report.append(("up_invertible", (y, seen[v], x)))
                    break
                seen[v] = x
            else:
                continue
            break
        for x in range(m):
            seen = {}
            for y in range(m):
                v = down[y][x]
                if v in seen:
                    report.append(("down_invertible", (x, seen[v], y)))
                    break
                seen[v] = y
            else:
                continue
            break

        if self._sinv is None:
            pairs: dict[tuple[int, int], tuple[int, int]] = {}
            witness = None
            for x, y in itertools.product(range(m), repeat=2):
                v = s[x][y]
                if v in pairs and witness is None:
                    witness = (pairs[v], (x, y))
                pairs.setdefault(v, (x, y))
            report.append(("pair_invertible", witness or ((0, 0), (0, 0))))

        # Kink conditions: the positions (x, y) with S(x, y) == (y, x) must
        # form a permutation matrix (one per row and one per column).  Rows
        # are the under-then-over kinks, columns the over-then-under ones;
        # negative kinks reduce to the same condition through S inverse.
        hits_by_row = [[y for y in range(m) if s[x][y] == (y, x)] for x in range(m)]
        for x in range(m):
            if len(hits_by_row[x]) != 1:
                report.append(("kink_under_first", (x, tuple(hits_by_row[x]))))
                break
        for y in range(m):
            col = [x for x in range(m) if s[x][y] == (y, x)]
            if len(col) != 1:
                report.append(("kink_over_first", (y, tuple(col))))
                break

        if self._sinv is not None:
            exchange = self._exchange_witness()
            if exchange is not None:
                report.append(("exchange", exchange))

        object.__setattr__(self, "_axiom_report", report)
        return report

    def _exchange_witness(self) -> tuple | None:
        """First color triple failing the third-move identity, or None."""
        for t in itertools.product(range(self.m), repeat=3):
            if _exchange_instance(self._s, *t) is False:
                return t
        return None

    def is_valid(self) -> bool:
        return not self.axiom_violations()


def _exchange_instance(s, t0: int, m0: int, b0: int) -> bool | tuple[int, int]:
    """Third-move identity for one color triple of the crossing map ``s``.

    Three strands cross pairwise, all crossings positive; sliding the
    middle strand across must not change the three outgoing colors.
    Returns True or False, or the first cell (x, y) read while
    ``s[x][y]`` is still None (the enumerator's unassigned cells).
    """
    if (v := s[m0][t0]) is None:
        return (m0, t0)
    m1, t1 = v
    if (v := s[b0][t1]) is None:
        return (b0, t1)
    b1, t2 = v
    if (v := s[b1][m1]) is None:
        return (b1, m1)
    b2, m2 = v
    if (v := s[b0][m0]) is None:
        return (b0, m0)
    b1a, m1a = v
    if (v := s[b1a][t0]) is None:
        return (b1a, t0)
    b2a, t1a = v
    if (v := s[m1a][t1a]) is None:
        return (m1a, t1a)
    m2a, t2a = v
    return (t2, m2, b2) == (t2a, m2a, b2a)


def check_axioms(x: FiniteBiquandle) -> bool | list[tuple[str, tuple]]:
    """True when the axiom suite holds, else the violation report."""
    report = x.axiom_violations()
    return True if not report else report


_VALIDATED: set[tuple] = set()


def _require_valid(x: FiniteBiquandle) -> None:
    key = (x.m, x.up, x.down, x.kind)
    if key in _VALIDATED:
        return
    report = x.axiom_violations()
    if report:
        raise InvalidStructure(f"axioms fail: {report}")
    _VALIDATED.add(key)


# ---------------------------------------------------------------------------
# shipped structures
# ---------------------------------------------------------------------------


def trivial_quandle(m: int) -> FiniteBiquandle:
    """Colors never change; every diagram gets the identity matrix."""
    up = tuple(tuple(x for _ in range(m)) for x in range(m))
    down = tuple(tuple(y for _ in range(m)) for y in range(m))
    return FiniteBiquandle(m=m, up=up, down=down, kind="quandle", name=f"trivial:{m}")


def dihedral_quandle(m: int) -> FiniteBiquandle:
    """Reflection quandle on Z_m: under-strand color x becomes 2y - x."""
    up = tuple(tuple((2 * y - x) % m for y in range(m)) for x in range(m))
    down = tuple(tuple(y for _ in range(m)) for y in range(m))
    return FiniteBiquandle(m=m, up=up, down=down, kind="quandle", name=f"dihedral:{m}")


def structure_from_text(text: str, name: str = "") -> FiniteBiquandle:
    """Parse the structure file format.

    First line: ``m kind``.  Then m rows of m integers for the up table
    (row x, column y).  Biquandles append m more rows for the down table
    (row = over-in color, column = under-in color).  ``#`` lines and
    blank lines are skipped.
    """
    lines = [
        line.strip()
        for line in text.splitlines()
        if line.strip() and not line.strip().startswith("#")
    ]
    if not lines:
        raise InvalidStructure("empty structure text")
    head = lines[0].split()
    if len(head) != 2:
        raise InvalidStructure(f"bad header {lines[0]!r}, want 'm kind'")
    try:
        m = int(head[0])
    except ValueError as exc:
        raise InvalidStructure(f"bad size {head[0]!r}") from exc
    kind = head[1]
    rows_needed = m if kind == "quandle" else 2 * m
    body = lines[1:]
    if len(body) != rows_needed:
        raise InvalidStructure(f"expected {rows_needed} table rows, got {len(body)}")

    def parse_rows(rows: list[str]) -> tuple[tuple[int, ...], ...]:
        table = []
        for row in rows:
            try:
                values = tuple(int(v) for v in row.split())
            except ValueError as exc:
                raise InvalidStructure(f"bad table row {row!r}") from exc
            if len(values) != m:
                raise InvalidStructure(f"row {row!r} has {len(values)} entries, want {m}")
            table.append(values)
        return tuple(table)

    up = parse_rows(body[:m])
    if kind == "quandle":
        down = tuple(tuple(y for _ in range(m)) for y in range(m))
    else:
        down = parse_rows(body[m:])
    return FiniteBiquandle(m=m, up=up, down=down, kind=kind, name=name or f"file:{m}")


def structure_from_file(path: str) -> FiniteBiquandle:
    with open(path, "r", encoding="utf-8") as handle:
        return structure_from_text(handle.read(), name=f"file:{path}")


def structure_from_spec(spec: str) -> FiniteBiquandle:
    """Resolve ``dihedral:M``, ``trivial:M`` or ``file:PATH``."""
    head, sep, rest = spec.partition(":")
    if not sep:
        raise InvalidStructure(f"bad structure spec {spec!r}")
    if head == "dihedral":
        return dihedral_quandle(_positive_int(rest, spec))
    if head == "trivial":
        return trivial_quandle(_positive_int(rest, spec))
    if head == "file":
        return structure_from_file(rest)
    raise InvalidStructure(f"unknown structure family {head!r}")


def _positive_int(text: str, spec: str) -> int:
    try:
        value = int(text)
    except ValueError as exc:
        raise InvalidStructure(f"bad structure spec {spec!r}") from exc
    if value < 1:
        raise InvalidStructure(f"bad structure spec {spec!r}")
    return value


def default_catalog() -> list[FiniteBiquandle]:
    """Structures used by the search verdicts when none are given."""
    return [dihedral_quandle(3), dihedral_quandle(5)]


def shipped_catalog(max_m: int = 5) -> list[FiniteBiquandle]:
    """Trivial quandles up to size 5 plus the odd dihedral quandles."""
    catalog = [trivial_quandle(m) for m in range(1, max_m + 1)]
    catalog += [dihedral_quandle(m) for m in (3, 5) if m <= max_m]
    return catalog


# ---------------------------------------------------------------------------
# coloring matrices
# ---------------------------------------------------------------------------

_MATRIX_CACHE: dict[tuple, ColoringMatrix] = {}
_LINEAR_CACHE: dict[tuple, tuple | None] = {}


def _is_prime(m: int) -> bool:
    if m < 2:
        return False
    return all(m % p for p in range(2, int(m ** 0.5) + 1))


def _linear_coeffs(x: FiniteBiquandle) -> tuple | None:
    """Coefficients of s_map and s_inv as 2x2 matrices over Z_m.

    Non-None only when m is prime and the crossing map is exactly
    linear, as for the dihedral quandles; those structures then count
    colorings by elimination instead of search.
    """
    key = (x.m, x.up, x.down)
    if key in _LINEAR_CACHE:
        return _LINEAR_CACHE[key]
    out = None
    m = x.m
    if _is_prime(m) and x.s_map(0, 0) == (0, 0):
        a11, a21 = x.s_map(1 % m, 0)
        a12, a22 = x.s_map(0, 1 % m)
        ok = all(
            x.s_map(u, o) == ((a11 * u + a12 * o) % m, (a21 * u + a22 * o) % m)
            for u in range(m)
            for o in range(m)
        )
        det = (a11 * a22 - a12 * a21) % m
        if ok and det:
            inv_det = pow(det, -1, m)
            out = (
                (a11, a12, a21, a22),
                ((a22 * inv_det) % m, (-a12 * inv_det) % m,
                 (-a21 * inv_det) % m, (a11 * inv_det) % m),
            )
    _LINEAR_CACHE[key] = out
    return out


def _linear_matrix(c: OpenGaussDiagram, coeffs: tuple, m: int) -> ColoringMatrix:
    """Count colorings of a linear structure by elimination over GF(m).

    Solutions form a subspace of Z_m^(2n+1); the matrix entry (a, b) is
    the fiber size of the projection onto (first color, last color) when
    (a, b) lies in its image, and zero otherwise.
    """
    v = 2 * c.n + 1
    over_pos: dict[int, int] = {}
    under_pos: dict[int, int] = {}
    for pos, (label, role) in enumerate(c.endpoints, start=1):
        (over_pos if role == OVER else under_pos)[label] = pos
    rows = []
    for label, sign in c.signs:
        a11, a12, a21, a22 = coeffs[0] if sign == 1 else coeffs[1]
        p, q = over_pos[label], under_pos[label]
        row = [0] * v
        row[q] = 1
        row[q - 1] = (row[q - 1] - a11) % m
        row[p - 1] = (row[p - 1] - a12) % m
        rows.append(row)
        row = [0] * v
        row[p] = 1
        row[q - 1] = (row[q - 1] - a21) % m
        row[p - 1] = (row[p - 1] - a22) % m
        rows.append(row)

    pivots = []
    rank = 0
    for col in range(v):
        sel = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if sel is None:
            continue
        rows[rank], rows[sel] = rows[sel], rows[rank]
        inv = pow(rows[rank][col], -1, m)
        rows[rank] = [(val * inv) % m for val in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                f = rows[i][col]
                rows[i] = [(a - f * b) % m for a, b in zip(rows[i], rows[rank])]
        pivots.append(col)
        rank += 1

    free_cols = [col for col in range(v) if col not in pivots]
    ends = []  # (first, last) coordinates of one basis vector per free column
    for fc in free_cols:
        first = 1 if fc == 0 else 0
        last = 1 if fc == v - 1 else 0
        for ri, pc in enumerate(pivots):
            if pc == 0:
                first = (-rows[ri][fc]) % m
            elif pc == v - 1:
                last = (-rows[ri][fc]) % m
        ends.append((first, last))

    span = {(0, 0)}
    for e0, e1 in ends:
        span |= {
            ((s0 + t * e0) % m, (s1 + t * e1) % m)
            for s0, s1 in span
            for t in range(1, m)
        }
    width = 0 if len(span) == 1 else (1 if len(span) == m else 2)
    count = m ** (len(free_cols) - width)
    return tuple(
        tuple(count if (a, b) in span else 0 for b in range(m)) for a in range(m)
    )


def coloring_matrix(d: OpenGaussDiagram, x: FiniteBiquandle) -> ColoringMatrix:
    """Count colorings by (incoming color, outgoing color).

    Arcs are the 2n+1 line segments between classical passages; for a
    quandle the over-passages act trivially, which recovers the coarser
    under-passage segmentation.  The count runs left to right, coloring
    the leftmost undetermined arc first; at the first passage of a chord
    whose outcome depends on the yet-unseen other strand, every color is
    tried and checked when the other passage is reached.  All passage
    transitions are precomputed into per-position tables so the hot
    recursion only indexes lists.
    """
    _require_valid(x)
    c = canonicalize(d)
    key = (c.endpoints, c.signs, x.m, x.up, x.down)
    cached = _MATRIX_CACHE.get(key)
    if cached is not None:
        return cached

    # The matrix multiplies along concatenation, so factor at the first
    # interior cut point; the pieces cache separately, and diagrams one
    # move apart usually share a piece.
    interior = [g for g in cut_points(c) if 0 < g < 2 * c.n]
    if interior:
        left, right = split_at(c, interior[0])
        result = mat_mul(coloring_matrix(left, x), coloring_matrix(right, x))
        _MATRIX_CACHE[key] = result
        return result

    linear = _linear_coeffs(x)
    if linear is not None:
        result = _linear_matrix(c, linear, x.m)
        if len(_MATRIX_CACHE) > 120_000:
            _MATRIX_CACHE.clear()
        _MATRIX_CACHE[key] = result
        return result

    m = x.m
    over_pos: dict[int, int] = {}
    under_pos: dict[int, int] = {}
    for pos, (label, role) in enumerate(c.endpoints, start=1):
        (over_pos if role == OVER else under_pos)[label] = pos
    sign_of = dict(c.signs)
    s_of = {1: x.s_map, -1: x.s_inv}
    total = 2 * c.n

    # Transition tables per position.  First passages: a constant next
    # color (no branching needed, the other strand's input cannot change
    # it) or one (guess, next, stored second output) triple per guess.
    # Second passages after a deferral: next color by (cur, first color).
    chord_at = [0] * total
    is_first_at = [False] * total
    first_const: list = [None] * total
    first_branch: list = [None] * total
    second_defer: list = [None] * total
    for idx, (label, role) in enumerate(c.endpoints):
        pos = idx + 1
        is_under = role == UNDER
        other = under_pos[label] if role == OVER else over_pos[label]
        fn = s_of[sign_of[label]]
        chord_at[idx] = label
        if other > pos:
            is_first_at[idx] = True
            const_row = [-1] * m
            branch_row: list[tuple] = []
            for cur in range(m):
                if is_under:
                    outs = {fn(cur, g)[0] for g in range(m)}
                else:
                    outs = {fn(g, cur)[1] for g in range(m)}
                if len(outs) == 1:
                    const_row[cur] = outs.pop()
                    branch_row.append(())
                elif is_under:
                    branch_row.append(tuple((g,) + fn(cur, g) for g in range(m)))
                else:
                    branch_row.append(tuple(
                        (g, fn(g, cur)[1], fn(g, cur)[0]) for g in range(m)
                    ))
            first_const[idx] = const_row
            first_branch[idx] = branch_row
        elif is_under:  # the deferred first passage was the over one
            second_defer[idx] = [
                [fn(cur, f)[0] for f in range(m)] for cur in range(m)
            ]
        else:
            second_defer[idx] = [
                [fn(f, cur)[1] for f in range(m)] for cur in range(m)
            ]

    matrix = [[0] * m for _ in range(m)]
    # chord state: None (unseen), (-1, first_color) when deferred, or
    # (guessed_other_in, stored_second_out)
    state: list = [None] * (c.n + 1)

    def walk(idx: int, cur: int, row: list[int]) -> None:
        if idx == total:
            row[cur] += 1
            return
        label = chord_at[idx]
        if is_first_at[idx]:
            const = first_const[idx][cur]
            if const >= 0:
                state[label] = (-1, cur)
                walk(idx + 1, const, row)
            else:
                for g, nxt, second in first_branch[idx][cur]:
                    state[label] = (g, second)
                    walk(idx + 1, nxt, row)
            state[label] = None
            return
        entry = state[label]
        g = entry[0]
        if g < 0:
            walk(idx + 1, second_defer[idx][cur][entry[1]], row)
        elif cur == g:
            walk(idx + 1, entry[1], row)

    for start in range(m):
        walk(0, start, matrix[start])

    result = tuple(tuple(row) for row in matrix)
    if len(_MATRIX_CACHE) > 120_000:
        _MATRIX_CACHE.clear()
    _MATRIX_CACHE[key] = result
    return result


def mat_mul(a: ColoringMatrix, b: ColoringMatrix) -> ColoringMatrix:
    size = len(a)
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(size)) for j in range(size))
        for i in range(size)
    )


def mat_identity(m: int) -> ColoringMatrix:
    return tuple(tuple(1 if i == j else 0 for j in range(m)) for i in range(m))


def commutator_witness(
    a: OpenGaussDiagram, b: OpenGaussDiagram, x: FiniteBiquandle
) -> tuple[int, int, int, int] | None:
    """First entry where M(a)M(b) and M(b)M(a) differ, or None.

    Returns ``(row, col, left_value, right_value)`` scanning rows first.
    A witness proves that a#b and b#a are inequivalent.
    """
    ma = coloring_matrix(a, x)
    mb = coloring_matrix(b, x)
    left = mat_mul(ma, mb)
    right = mat_mul(mb, ma)
    for i in range(x.m):
        for j in range(x.m):
            if left[i][j] != right[i][j]:
                return (i, j, left[i][j], right[i][j])
    return None


# ---------------------------------------------------------------------------
# biquandle enumeration
# ---------------------------------------------------------------------------


def canonical_table_form(
    up: tuple[tuple[int, ...], ...], down: tuple[tuple[int, ...], ...]
) -> tuple:
    """Lexicographically least relabeling of the table pair."""
    m = len(up)
    best = None
    for perm in itertools.permutations(range(m)):
        inv = [0] * m
        for i, p in enumerate(perm):
            inv[p] = i
        key = (
            tuple(tuple(perm[up[inv[x]][inv[y]]] for y in range(m)) for x in range(m)),
            tuple(tuple(perm[down[inv[y]][inv[x]]] for x in range(m)) for y in range(m)),
        )
        if best is None or key < best:
            best = key
    return best


_ENUM_CACHE: dict[int, tuple[FiniteBiquandle, ...]] = {}


def _kink_permutations(m: int, largest: int | None = None):
    """One permutation of range(m) per cycle type, cycles on consecutive blocks."""
    if m == 0:
        yield []
        return
    for p in range(min(m, largest or m), 0, -1):
        for rest in _kink_permutations(m - p, p):
            yield [(i + 1) % p for i in range(p)] + [p + v for v in rest]


def enumerate_biquandles(m: int) -> list[FiniteBiquandle]:
    """All biquandles on {0..m-1}, one canonical representative per class.

    The kink cells, where S(x, y) == (y, x), form a permutation sigma with
    y = sigma(x), and relabelling the colors by pi conjugates sigma to
    pi sigma pi^-1.  Every class thus has a member whose sigma is the
    chosen representative of its cycle type, so the search fixes sigma to
    each representative in turn (5 at m = 4), preassigns those m cells and
    forbids S(x, y) == (y, x) elsewhere.  It backtracks over the other
    cells of S under column invertibility of both tables and invertibility
    of S.  Each exchange instance waits on the first unassigned cell it
    reads, and an assignment re-evaluates only the instances waiting on
    that cell.  ``canonical_table_form`` merges the relabelled copies that
    remain; the sorted forms are named ``biq:m:NNN``.  Results are cached
    per process; m = 4 takes about 0.15 s, m = 5 about 75 s.
    """
    if m in _ENUM_CACHE:
        return list(_ENUM_CACHE[m])
    found: dict[tuple, None] = {}
    for sigma in _kink_permutations(m):
        s: list[list[tuple[int, int] | None]] = [[None] * m for _ in range(m)]
        used: set[tuple[int, int]] = set()
        col_first: list[set[int]] = [set() for _ in range(m)]  # per y, over x
        col_second: list[set[int]] = [set() for _ in range(m)]  # per x, over y
        for x, y in enumerate(sigma):
            s[x][y] = (y, x)
            used.add((y, x))
            col_first[y].add(y)
            col_second[x].add(x)
        watch = {(x, y): [] for x in range(m) for y in range(m)}
        # An instance that reads only kink cells ends at (b0, m0, t0) on
        # both sides, so none fails yet; the rest wait on a free cell.
        for t in itertools.product(range(m), repeat=3):
            if (cell := _exchange_instance(s, *t)) is not True:
                watch[cell].append(t)
        cells = [(x, y) for x in range(m) for y in range(m) if y != sigma[x]]

        def assign(idx: int) -> None:
            if idx == len(cells):
                up = tuple(tuple(s[x][y][0] for y in range(m)) for x in range(m))
                down = tuple(tuple(s[x][y][1] for x in range(m)) for y in range(m))
                found.setdefault(canonical_table_form(up, down))
                return
            x, y = cells[idx]
            waiting, watch[x, y] = watch[x, y], []
            for a in range(m):
                if a in col_first[y]:
                    continue
                for b in range(m):
                    if b in col_second[x] or (a, b) in used or (a, b) == (y, x):
                        continue
                    s[x][y] = (a, b)
                    used.add((a, b))
                    col_first[y].add(a)
                    col_second[x].add(b)
                    moved = []
                    for t in waiting:
                        cell = _exchange_instance(s, *t)
                        if cell is False:
                            break
                        if cell is not True:
                            watch[cell].append(t)
                            moved.append(cell)
                    else:
                        assign(idx + 1)
                    for cell in moved:
                        watch[cell].pop()
                    used.discard((a, b))
                    col_first[y].discard(a)
                    col_second[x].discard(b)
            s[x][y] = None
            watch[x, y] = waiting

        assign(0)

    result = []
    for index, (up, down) in enumerate(sorted(found)):
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
    _ENUM_CACHE[m] = tuple(result)
    return result

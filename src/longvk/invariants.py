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

import functools
import itertools
from dataclasses import dataclass, field

from longvk.gauss import OVER, UNDER, OpenGaussDiagram, _unchecked
from longvk.monoid import _canonical_cuts, _piece
from longvk.moves import _descend

ColoringMatrix = tuple[tuple[int, ...], ...]
SCAN_MAX = 5  # enumerating order 5 takes 1-2 s, order 6 about 2 minutes
_SPEC_MAX = 64


class InvalidStructure(ValueError):
    """Structure tables are malformed or fail the axiom suite."""


# ---------------------------------------------------------------------------
# odd writhe
# ---------------------------------------------------------------------------


def odd_writhe(d: OpenGaussDiagram) -> int:
    """Sum of signs of chords with an odd interleaving count.

    The endpoints strictly inside a chord are two for each chord nested in
    it and one for each chord interleaving it.  So a chord interleaves an
    odd number of others exactly when its own endpoints are an even
    distance apart, and one pass over the chord table decides every chord.
    """
    return sum(sign for over, under, sign in d._chords.values() if (over - under) % 2 == 0)


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
            if _exchange_state(self._s, *t) is False:
                return t
        return None


def _exchange_state(s: list, t0: int, m0: int, b0: int):
    """Third-move identity for one color triple of the crossing map ``s``.

    Three strands cross pairwise, all crossings positive; sliding the
    middle strand across must not change the three outgoing colors.
    Returns True or False once decided.  On a partial map, whose cells
    still None are the enumerator's unassigned ones, it may instead
    return (cell, value): the first unassigned cell that the left side
    reads, or the right side once the left is complete, and the value
    the identity forces there, or None when more than that cell is
    missing.
    """
    # left: (m1, t1) = S(m0, t0), (b1, t2) = S(b0, t1), (b2, m2) = S(b1, m1)
    l1 = s[m0][t0]
    l2 = l1 and s[b0][l1[1]]
    if not l2:
        return ((b0, l1[1]) if l1 else (m0, t0)), None
    l3 = s[l2[0]][l1[0]]
    # right: (b1, m1) = S(b0, m0), (b2, t1) = S(b1, t0), (m2, t2) = S(m1, t1)
    r1 = s[b0][m0]
    r2 = r1 and s[r1[0]][t0]
    r3 = r2 and s[r1[1]][r2[1]]
    if l3:
        if r3:
            return (l2[1], l3[1], l3[0]) == (r3[1], r3[0], r2[0])
        if r2:
            return r2[0] == l3[0] and ((r1[1], r2[1]), (l3[1], l2[1]))
        return ((r1[0], t0) if r1 else (b0, m0)), None
    if r3:
        return l2[1] == r3[1] and ((l2[0], l1[0]), (r2[0], r3[0]))
    return (l2[0], l1[0]), None


def check_axioms(x: FiniteBiquandle) -> bool | list[tuple[str, tuple]]:
    """True when the axiom suite holds, else the violation report."""
    report = x.axiom_violations()
    return True if not report else report


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
    return _read_structure(text.splitlines(), name)


def structure_from_file(path: str) -> FiniteBiquandle:
    with open(path, "r", encoding="utf-8") as handle:
        return _read_structure(handle, f"file:{path}")


def _read_structure(lines, name: str, spec: str = "") -> FiniteBiquandle:
    """Parse the lines of a structure; given the ``spec`` that named the
    file, refuse an order outside 1.._SPEC_MAX on the header line, before
    any table row is read."""
    content = (line.strip() for line in lines)
    content = (line for line in content if line and not line.startswith("#"))
    header = next(content, None)
    if header is None:
        raise InvalidStructure("empty structure text")
    head = header.split()
    if len(head) != 2:
        raise InvalidStructure(f"bad header {header!r}, want 'm kind'")
    try:
        m = int(head[0])
    except ValueError as exc:
        raise InvalidStructure(f"bad size {head[0]!r}") from exc
    if spec and not 1 <= m <= _SPEC_MAX:
        raise InvalidStructure(f"size in structure spec {spec!r} must be in 1..{_SPEC_MAX}")
    kind = head[1]
    rows_needed = m if kind == "quandle" else 2 * m
    body = list(content)
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


def structure_from_spec(spec: str) -> FiniteBiquandle:
    """Resolve ``dihedral:M``, ``trivial:M``, ``biq:M:NNN`` or ``file:PATH``.

    ``biq:M:NNN`` names a class of ``enumerate_biquandles(M)``, M up to
    SCAN_MAX.  ``dihedral:M``, ``trivial:M`` and files stop at M = _SPEC_MAX:
    preparing a structure for counting grows as M**4, and trivial:80
    already takes 1.5 s on one small diagram.
    """
    head, sep, rest = spec.partition(":")
    if not sep:
        raise InvalidStructure(f"bad structure spec {spec!r}")
    if head == "dihedral":
        return dihedral_quandle(_bounded_int(rest, spec, _SPEC_MAX))
    if head == "trivial":
        return trivial_quandle(_bounded_int(rest, spec, _SPEC_MAX))
    if head == "biq":
        classes = enumerate_biquandles(_bounded_int(rest.partition(":")[0], spec, SCAN_MAX))
        for x in classes:
            if x.name == spec:
                return x
        raise InvalidStructure(f"no {spec!r} among the {len(classes)} classes of that order")
    if head == "file":
        with open(rest, "r", encoding="utf-8") as handle:
            return _read_structure(handle, f"file:{rest}", spec)
    raise InvalidStructure(f"unknown structure family {head!r}")


def _bounded_int(text: str, spec: str, top: int) -> int:
    try:
        value = int(text)
    except ValueError as exc:
        raise InvalidStructure(f"bad structure spec {spec!r}") from exc
    if not 1 <= value <= top:
        raise InvalidStructure(f"size in structure spec {spec!r} must be in 1..{top}")
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


def coloring_matrix(d: OpenGaussDiagram, x: FiniteBiquandle) -> ColoringMatrix:
    """Count colorings by (incoming color, outgoing color).

    Arcs are the 2n+1 line segments between classical passages; for a
    quandle the over-passages act trivially, which recovers the coarser
    under-passage segmentation.  The matrix is invariant under the moves
    and multiplies along concatenation, so the count runs on the prime
    factors of the diagram left once its kinks and pokes are removed.
    Each factor is counted once per structure and cached, so diagrams a
    kink or poke apart share their entries; identity factors are not
    multiplied.  Linear structures over GF(p) count by one elimination
    pass, the others depth first on an explicit stack, one row per orbit
    of colors under the structure's automorphisms; nothing recurses.
    """
    count = _counter(x.m, x.up, x.down, x.kind)
    identity = result = mat_identity(x.m)
    for endpoints, signs, known in _factors(d.endpoints, d.signs):
        matrix = known.get(count)
        if matrix is None:
            matrix = known[count] = count(endpoints, signs)
        if matrix != identity:
            result = matrix if result is identity else mat_mul(result, matrix)
    return result


@functools.lru_cache(maxsize=1 << 12)
def _factors(endpoints: tuple, signs: tuple) -> tuple:
    """(endpoints, signs, matrices) per prime factor of a valid diagram
    with no kink or poke left, the matrices shared through ``_matrices``."""
    d = _unchecked(OpenGaussDiagram, *_descend(endpoints, signs))
    cuts = _canonical_cuts(d)
    pieces = (_piece(d, lo, hi) for lo, hi in zip(cuts, cuts[1:]))
    return tuple((e, s, _matrices(e, s)) for e, s in pieces)


@functools.lru_cache(maxsize=1 << 12)
def _matrices(endpoints: tuple, signs: tuple) -> dict:
    """A prime canonical diagram's matrices by counting function, one per
    structure used on it."""
    return {}


@functools.lru_cache(maxsize=2048)
def _counter(m: int, up: tuple, down: tuple, kind: str):
    """The counting function of one valid structure, tables prepared.

    Keyed on the tables, not on the instance: ``default_catalog`` builds
    new structures per call, and each is validated once.  The bound
    holds every class up to order 5.
    """
    x = FiniteBiquandle(m=m, up=up, down=down, kind=kind)
    report = x.axiom_violations()
    if report:
        raise InvalidStructure(f"axioms fail: {report}")
    linear = _linear_coeffs(x)
    if linear is not None:
        return functools.partial(_linear_count, linear, m)
    # Per (sign, role): pairs[cur][g] is (this strand's out, the other
    # strand's out) when this strand enters with cur and the other with
    # g; const[cur] is this strand's out if no g changes it, else -1.
    tables = {}
    for sign, s in ((1, x._s), (-1, x._sinv)):
        for role in (UNDER, OVER):
            pairs = s if role == UNDER else tuple(
                tuple(s[g][cur][::-1] for g in range(m)) for cur in range(m))
            tables[sign, role] = (pairs, tuple(
                row[0][0] if len({out for out, _ in row}) == 1 else -1 for row in pairs))
    orbits = [None] * m  # per color a: (least r in a's orbit, automorphism p with p(r) == a)
    for r in range(m):
        if orbits[r] is None:
            for a in range(r, m):
                if orbits[a] is None and (p := _automorphism(x._s, m, r, a)):
                    orbits[a] = (r, p)
    return functools.partial(_stack_count, tables, m, tuple(orbits))


def _automorphism(s: tuple, m: int, r: int, a: int) -> tuple[int, ...] | None:
    """A permutation p commuting with the crossing map s and p(r) == a, or None.

    Depth first over partial bijections: mapping x to y forces
    p(s[x][z]) = s[y][p(z)] componentwise, and likewise for s[z][x], for
    every z already mapped; a clash drops the branch.
    """
    stack = [([-1] * m, [-1] * m, [(r, a)])]
    while stack:
        p, inv, todo = stack.pop()
        while todo:
            x, y = todo.pop()
            if p[x] != y:
                if p[x] >= 0 or inv[y] >= 0:
                    break
                p[x], inv[y] = y, x
                for z, w in enumerate(p):
                    if w >= 0:
                        todo += zip(s[x][z] + s[z][x], s[y][w] + s[w][y])
        else:
            if -1 not in p:
                return tuple(p)
            x = p.index(-1)
            stack += [(p[:], inv[:], [(x, y)]) for y in range(m - 1, -1, -1) if inv[y] < 0]
    return None


def _stack_count(tables: dict, m: int, orbits: tuple, endpoints: tuple,
                 signs: tuple) -> ColoringMatrix:
    """Count the colorings of a canonical diagram depth first.

    At a chord's first passage the current color either fixes the next
    one whatever the other strand brings (the chord is deferred with
    the current color) or each guess of the other strand's incoming
    color is tried, storing its outgoing color.  The second passage
    applies the deferred crossing or keeps only the matching guess.
    A chord's slot is written before it is read, so backtracking off
    the explicit stack undoes nothing.  An automorphism p of the
    structure maps colorings to colorings, so row p(r) is row r with its
    columns moved by p, and only each orbit's least color r is counted.
    """
    plan, top = [], 0  # in canonical labels a chord begins above all earlier ones
    for label, role in endpoints:
        plan.append((label, label > top) + tables[signs[label - 1][1], role])
        top = max(top, label)
    total = len(plan)
    slot: list = [None] * (len(signs) + 1)  # (-1, first color) or (guess, other out)
    matrix = []
    for start in range(m):
        rep, perm = orbits[start]
        row = [0] * m
        if rep < start:
            for b, value in enumerate(matrix[rep]):
                row[perm[b]] = value
            matrix.append(tuple(row))
            continue
        stack = []  # (position, color there, next guess)
        idx, cur = 0, start
        while True:
            while idx < total:
                label, is_first, pairs, const = plan[idx]
                if is_first:
                    nxt = const[cur]
                    if nxt < 0:
                        stack.append((idx, cur, 1))
                        nxt, other = pairs[cur][0]
                        slot[label] = (0, other)
                    else:
                        slot[label] = (-1, cur)
                    cur = nxt
                else:
                    guess, value = slot[label]
                    if guess < 0:
                        cur = pairs[cur][value][0]
                    elif guess == cur:
                        cur = value
                    else:
                        break
                idx += 1
            else:
                row[cur] += 1
            if not stack:
                break
            idx, cur, guess = stack.pop()
            if guess + 1 < m:
                stack.append((idx, cur, guess + 1))
            label, _, pairs, _ = plan[idx]
            cur, other = pairs[cur][guess]
            slot[label] = (guess, other)
            idx += 1
        matrix.append(tuple(row))
    return tuple(matrix)


def _linear_coeffs(x: FiniteBiquandle) -> dict | None:
    """Per (sign, role), the crossing map as four coefficients over Z_m.

    Non-None only when m is prime and the crossing map is linear, as for
    the dihedral quandles.  With (a, b, c, e), a strand entering with
    color cur while the other enters with g leaves with a*cur + b*g, and
    the other strand with c*cur + e*g.
    """
    m = x.m
    if m < 2 or any(m % p == 0 for p in range(2, int(m ** 0.5) + 1)):
        return None
    coeffs = {}
    for sign, s in ((1, x._s), (-1, x._sinv)):
        (a11, a21), (a12, a22) = s[1][0], s[0][1]
        if any(s[u][o] != ((a11 * u + a12 * o) % m, (a21 * u + a22 * o) % m)
               for u in range(m) for o in range(m)):
            return None
        coeffs[sign, UNDER] = (a11, a12, a21, a22)
        coeffs[sign, OVER] = (a22, a21, a12, a11)
    return coeffs


def _add(f: dict, b: int, g: dict, p: int) -> dict:
    """The linear form f + b*g over GF(p), zero coefficients dropped."""
    out = dict(f)
    for v, c in g.items():
        out[v] = (out.get(v, 0) + b * c) % p
    return {v: c for v, c in out.items() if c}


def _linear_count(coeffs: dict, p: int, endpoints: tuple, signs: tuple) -> ColoringMatrix:
    """Count the colorings of a canonical diagram by one pass over GF(p).

    Arc colors are linear forms over the first color (variable 0) and,
    per chord, the other strand's incoming color guessed at its first
    passage.  The second passage equates guess and current color; unless
    that reads 0 = 0, its newest variable is substituted away in every
    live form (first, current, two per open chord), and the solutions
    lose a dimension.  Entry (a, b) is p^(dim - rank) when (a, b) is in
    the image of the (first, last) projection, and zero otherwise.
    """
    first = cur = {0: 1}
    pending: dict[int, tuple[dict, dict]] = {}  # label -> (guess, other strand's out)
    dim = 1
    for label, role in endpoints:
        entry = pending.pop(label, None)
        if entry is None:
            a, b, c, e = coeffs[signs[label - 1][1], role]
            guess = {label: 1}
            pending[label] = (guess, _add({v: c * k % p for v, k in cur.items()}, e, guess, p))
            cur = _add({v: a * k % p for v, k in cur.items()}, b, guess, p)
            dim += 1
            continue
        eq = _add(cur, p - 1, entry[0], p)
        cur = entry[1]
        if eq:
            v = max(eq)
            scale = -pow(eq[v], -1, p) % p
            def sub(f: dict) -> dict:
                return _add(f, f[v] * scale % p, eq, p) if v in f else f
            first, cur = sub(first), sub(cur)
            for key, (guess, out) in pending.items():
                pending[key] = (sub(guess), sub(out))
            dim -= 1
    span = {(0, 0)}
    for v in first.keys() | cur.keys():
        e0, e1 = first.get(v, 0), cur.get(v, 0)
        span |= {((s0 + t * e0) % p, (s1 + t * e1) % p) for s0, s1 in span for t in range(1, p)}
    count = p ** (dim - (0 if len(span) == 1 else 1 if len(span) == p else 2))
    return tuple(tuple(count if (a, b) in span else 0 for b in range(p)) for a in range(p))


def mat_mul(a: ColoringMatrix, b: ColoringMatrix) -> ColoringMatrix:
    cols = tuple(zip(*b))
    return tuple(tuple(sum([x * y for x, y in zip(row, col)]) for col in cols) for row in a)


@functools.lru_cache(maxsize=64)
def mat_identity(m: int) -> ColoringMatrix:
    return tuple(tuple(1 if i == j else 0 for j in range(m)) for i in range(m))


def commutator_witness(
    a: OpenGaussDiagram, b: OpenGaussDiagram, x: FiniteBiquandle
) -> tuple[int, int, int, int] | None:
    """First entry where M(a)M(b) and M(b)M(a) differ, or None.

    Returns ``(row, col, left_value, right_value)`` scanning rows first.
    A witness proves that a#b and b#a are inequivalent.  Equal matrices,
    or an identity on either side, commute, so nothing is multiplied.
    """
    ma = coloring_matrix(a, x)
    mb = coloring_matrix(b, x)
    identity = mat_identity(x.m)
    if ma == mb or ma == identity or mb == identity:
        return None
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


def enumerate_biquandles(m: int) -> list[FiniteBiquandle]:
    """All biquandles on {0..m-1}, one canonical representative per class.

    The search fixes the kink permutation to one representative per
    cycle type and keeps the least table under its centralizer, so each
    class is found once; the least relabelling over all m! maps gives its
    ``biq:m:NNN`` name, in sorted order.  The enumerator lives in
    ``longvk._enumerate``, imported on the first call.  Results are
    cached per process; m = 4 takes about 0.03 s, m = 5 one to two seconds.
    """
    from longvk._enumerate import classes

    return list(classes(m))

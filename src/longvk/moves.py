"""Diagram rewriting: kink, poke and slide moves on Gauss codes.

Three move families act on an open Gauss diagram:

* kink (R1): a chord whose endpoints are adjacent appears or vanishes;
* poke (R2): two opposite-sign chords whose over endpoints form one
  adjacent block and whose under endpoints form another appear or
  vanish together;
* slide (R3): three chords meeting pairwise in three adjacent blocks
  swap endpoints inside each block.

Every move is described by a MoveEvent, a small JSON-friendly record.
Events are interpreted against the canonicalized diagram; since
canonical relabelling never changes endpoint positions, a position
recorded in an event stays meaningful after the rewrite.

Slide moves are only legal for the 16 block-order/sign patterns a
triangle of strands can actually realize; ``_slide_legal`` tells them
apart by two sign products.  A poke is legal in both pairings, and its
two chords always get opposite signs.

``apply_move`` checks every event it is given.  The listing works on a
canonical diagram the package made itself and writes each insert's
code by splicing the parent's code instead of rewriting the diagram.
The coloring layer removes every kink and poke in one linear pass.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from itertools import accumulate, product

from longvk.gauss import (
    OVER,
    UNDER,
    GaussCodeError,
    OpenGaussDiagram,
    _canonical_code,
    _read_code,
    _unchecked,
    canonicalize,
)


class IllegalMove(GaussCodeError):
    """Event cannot be applied to this diagram."""


_ORDERS = ("OU", "UO")
_PAIRINGS = ("parallel", "crossed")
_KINDS = ("r1_insert", "r1_remove", "r2_insert", "r2_remove", "r3")
_FIELDS = ("gap", "gap2", "sign", "order", "roles1", "pairing", "label", "label2")


# =============================================================================
# Move events
# =============================================================================


@dataclass(frozen=True)
class MoveEvent:
    """One rewrite step.  Unused fields stay None.

    kind        one of r1_insert, r1_remove, r2_insert, r2_remove, r3
    gap, gap2   insertion gaps, counted in endpoints to the left (0..2n);
                for a poke gap <= gap2 and the first block lands at gap
    sign        sign of the inserted chord (for a poke: of the chord
                listed first in the first block; its partner gets -sign)
    order       kink endpoint order, "OU" or "UO"
    roles1      role of both endpoints in the poke's first block, O or U
    pairing     "parallel" or "crossed" block orders for a poke
    label       chord to remove (canonical label)
    label2      second chord of a poke removal, label < label2
    site        slide site: starting positions of the three blocks
    """

    kind: str
    gap: int | None = None
    gap2: int | None = None
    sign: int | None = None
    order: str | None = None
    roles1: str | None = None
    pairing: str | None = None
    label: int | None = None
    label2: int | None = None
    site: tuple[int, int, int] | None = None

    @classmethod
    def r1_insert(cls, gap: int, sign: int, order: str) -> MoveEvent:
        return cls(kind="r1_insert", gap=gap, sign=sign, order=order)

    @classmethod
    def r1_remove(cls, label: int) -> MoveEvent:
        return cls(kind="r1_remove", label=label)

    @classmethod
    def r2_insert(
        cls, gap: int, gap2: int, roles1: str, pairing: str, sign: int
    ) -> MoveEvent:
        return cls(
            kind="r2_insert",
            gap=gap,
            gap2=gap2,
            roles1=roles1,
            pairing=pairing,
            sign=sign,
        )

    @classmethod
    def r2_remove(cls, label: int, label2: int) -> MoveEvent:
        a, b = sorted((label, label2))
        return cls(kind="r2_remove", label=a, label2=b)

    @classmethod
    def r3(cls, site: tuple[int, int, int]) -> MoveEvent:
        return cls(kind="r3", site=tuple(site))

    def to_json_dict(self) -> dict:
        out: dict = {"kind": self.kind}
        for field in _FIELDS:
            value = getattr(self, field)
            if value is not None:
                out[field] = value
        if self.site is not None:
            out["site"] = list(self.site)
        return out

    @classmethod
    def from_json_dict(cls, data: dict) -> MoveEvent:
        kind = data.get("kind")
        if kind not in _KINDS:
            raise ValueError(f"unknown move kind: {kind!r}")
        if not set(data) <= {"kind", "site", *_FIELDS}:
            raise ValueError(f"unknown move event fields in {sorted(data)}")
        kwargs = {k: data[k] for k in data if k not in ("kind", "site")}
        site = data.get("site")
        if site is not None and not isinstance(site, (list, tuple)):
            raise ValueError(f"move site must be a list, got {site!r}")
        return cls(kind=kind, site=tuple(site) if site is not None else None, **kwargs)


# =============================================================================
# Kink moves
# =============================================================================
#
# Each _apply_* checks that its event is legal on the canonical diagram d
# and returns the rewritten (endpoints, signs), not yet relabelled.


def _check_sign(sign: int) -> None:
    if sign not in (1, -1):
        raise IllegalMove(f"sign must be +1 or -1, got {sign!r}")


def _apply_r1_insert(d: OpenGaussDiagram, m: MoveEvent) -> tuple:
    if m.gap is None or not 0 <= m.gap <= 2 * d.n:
        raise IllegalMove(f"kink gap {m.gap!r} out of range 0..{2 * d.n}")
    _check_sign(m.sign)
    if m.order not in _ORDERS:
        raise IllegalMove(f"kink order must be OU or UO, got {m.order!r}")
    label = d.n + 1
    roles = (OVER, UNDER) if m.order == "OU" else (UNDER, OVER)
    block = ((label, roles[0]), (label, roles[1]))
    return d.endpoints[: m.gap] + block + d.endpoints[m.gap :], d.signs + ((label, m.sign),)


def _apply_r1_remove(d: OpenGaussDiagram, m: MoveEvent) -> tuple:
    if m.label not in d._chords:
        raise IllegalMove(f"no chord labelled {m.label!r}")
    p, q = d.positions(m.label)
    if abs(p - q) != 1:
        raise IllegalMove(f"chord {m.label} endpoints are not adjacent")
    endpoints = tuple(e for e in d.endpoints if e[0] != m.label)
    signs = tuple(s for s in d.signs if s[0] != m.label)
    return endpoints, signs


def removable_kinks(d: OpenGaussDiagram) -> tuple[int, ...]:
    """Labels of chords whose two endpoints are adjacent."""
    ends = d.endpoints
    return tuple(sorted(ends[p][0] for p in range(1, len(ends)) if ends[p - 1][0] == ends[p][0]))


# =============================================================================
# Poke moves
# =============================================================================


def _apply_r2_insert(d: OpenGaussDiagram, m: MoveEvent) -> tuple:
    if m.gap is None or m.gap2 is None or not 0 <= m.gap <= m.gap2 <= 2 * d.n:
        raise IllegalMove(
            f"poke gaps ({m.gap!r}, {m.gap2!r}) must satisfy 0 <= gap <= gap2 <= {2 * d.n}"
        )
    if m.roles1 not in (OVER, UNDER):
        raise IllegalMove(f"poke first-block role must be O or U, got {m.roles1!r}")
    _check_sign(m.sign)
    if m.pairing not in _PAIRINGS:
        raise IllegalMove(f"poke pairing must be parallel or crossed, got {m.pairing!r}")
    a, b = d.n + 1, d.n + 2
    role2 = UNDER if m.roles1 == OVER else OVER
    block1 = ((a, m.roles1), (b, m.roles1))
    block2 = ((a, role2), (b, role2)) if m.pairing == "parallel" else ((b, role2), (a, role2))
    endpoints = (
        d.endpoints[: m.gap]
        + block1
        + d.endpoints[m.gap : m.gap2]
        + block2
        + d.endpoints[m.gap2 :]
    )
    return endpoints, d.signs + ((a, m.sign), (b, -m.sign))


def _r2_block_starts(d: OpenGaussDiagram, a: int, b: int) -> tuple[int, int] | None:
    """Start positions of the over and under blocks of chords a, b, or None."""
    a_over, a_under = d.positions(a)
    b_over, b_under = d.positions(b)
    if abs(a_over - b_over) != 1 or abs(a_under - b_under) != 1:
        return None
    return min(a_over, b_over), min(a_under, b_under)


def _apply_r2_remove(d: OpenGaussDiagram, m: MoveEvent) -> tuple:
    a, b = m.label, m.label2
    if a not in d._chords or b not in d._chords or a == b:
        raise IllegalMove(f"poke removal needs two distinct chords, got {a!r}, {b!r}")
    if d.sign(a) + d.sign(b) != 0:
        raise IllegalMove(f"chords {a} and {b} do not have opposite signs")
    if _r2_block_starts(d, a, b) is None:
        raise IllegalMove(f"chords {a} and {b} do not form two adjacent blocks")
    endpoints = tuple(e for e in d.endpoints if e[0] not in (a, b))
    signs = tuple(s for s in d.signs if s[0] not in (a, b))
    return endpoints, signs


def _two_chord_blocks(d: OpenGaussDiagram) -> dict[frozenset[int], list[int]]:
    """Chord pair -> starts of the adjacent endpoint pairs on those chords."""
    ends = d.endpoints
    blocks: dict[frozenset[int], list[int]] = {}
    for p in range(1, len(ends)):
        if ends[p - 1][0] != ends[p][0]:
            blocks.setdefault(frozenset((ends[p - 1][0], ends[p][0])), []).append(p)
    return blocks


def removable_pokes(d: OpenGaussDiagram) -> tuple[tuple[int, int], ...]:
    """Label pairs forming removable poke patterns, each pair sorted."""
    return _removable_pokes(d, _two_chord_blocks(d))


def _removable_pokes(d: OpenGaussDiagram, blocks: dict) -> tuple[tuple[int, int], ...]:
    ends, chords = d.endpoints, d._chords
    out = []
    for pair, starts in blocks.items():
        a, b = sorted(pair)
        roles = {ends[p - 1][1] + ends[p][1] for p in starts}  # an OO and a UU block
        if chords[a][2] + chords[b][2] == 0 and {OVER * 2, UNDER * 2} <= roles:
            out.append((a, b))
    return tuple(sorted(out))


def _descend(endpoints: tuple, signs: tuple) -> tuple[tuple, tuple]:
    """Canonical fields of a valid diagram once no kink or poke is left.

    A linked list runs over positions 1..2n and a worklist holds the left
    ends of adjacent pairs to check.  A pair turns into a kink, or into
    one block of a poke, only when something between its ends goes, so a
    removal re-checks just the pairs it closes up: one pass, linear time.
    Kink and poke removals meet again after overlaps, so the result does
    not depend on their order.
    """
    size, sign_of = len(endpoints), dict(signs)
    nxt, prv = list(range(1, size + 2)), list(range(-1, size + 1))  # ends: 0, size + 1
    partner, first = [0] * (size + 1), {}
    for pos, (label, _) in enumerate(endpoints, start=1):
        other = first.setdefault(label, pos)
        partner[pos], partner[other] = other, pos
    alive = [False] + [True] * size
    work = list(range(size - 1, 0, -1))
    while work:
        p = work.pop()
        q = nxt[p]
        if not alive[p] or q > size:
            continue
        (a, role), (b, role_b) = endpoints[p - 1], endpoints[q - 1]
        if a == b:
            gone = (p, q)
        elif role == role_b and sign_of[a] + sign_of[b] == 0 and (
                nxt[partner[p]] == partner[q] or nxt[partner[q]] == partner[p]):
            gone = (p, q, partner[p], partner[q])
        else:
            continue
        for x in gone:  # the last removal in each run pushes its live left end
            alive[x] = False
            nxt[prv[x]], prv[nxt[x]] = nxt[x], prv[x]
            work.append(prv[x])
    rename: dict[int, int] = {}
    out = []
    p = nxt[0]
    while p <= size:
        label, role = endpoints[p - 1]
        out.append((rename.setdefault(label, len(rename) + 1), role))
        p = nxt[p]
    return tuple(out), tuple((new, sign_of[old]) for old, new in rename.items())


# =============================================================================
# Slide moves
# =============================================================================


R3Key = tuple[str, str, str, int, int, int]


def classify_slide_site(
    d: OpenGaussDiagram, site: tuple[int, int, int]
) -> R3Key | None:
    """Read the block-order/sign pattern at a candidate slide site.

    Returns None when the six endpoints do not form three chords in the
    required over/under block shapes; a returned key still needs to pass
    ``_slide_legal``.  The blocks are T (two over endpoints), B (two
    under) and M (mixed); in a valid diagram they hold three chords
    pairwise exactly when each two blocks share one label, and the
    shared labels are the chords TM, TB and MB.
    """
    if len(site) != 3:
        return None
    p1, p2, p3 = site
    if not (1 <= p1 and p1 + 1 < p2 and p2 + 1 < p3 and p3 + 1 <= 2 * d.n):
        return None
    blocks = {}
    for p in site:
        (a, role_a), (b, role_b) = d.endpoints[p - 1], d.endpoints[p]
        blocks[role_a + role_b if role_a == role_b else "M"] = (a, b)
    if len(blocks) != 3:
        return None
    t, m, b = blocks[OVER * 2], blocks["M"], blocks[UNDER * 2]
    tm, tb, mb = set(t) & set(m), set(t) & set(b), set(m) & set(b)
    if not len(tm) == len(tb) == len(mb) == 1:
        return None
    (tm,), (tb,), (mb,) = tm, tb, mb
    return (
        "TM" if t[0] == tm else "TB",
        "TM" if m[0] == tm else "MB",
        "TB" if b[0] == tb else "MB",
        d.sign(tm),
        d.sign(tb),
        d.sign(mb),
    )


def _slide_legal(key: R3Key) -> bool:
    """Whether a triangle of strands realizes the slide pattern ``key``.

    Let t, m, b be +1 when the TM chord comes first in block T, the TM
    chord first in block M and the TB chord first in block B, else -1.
    The pattern is legal iff sign(TM)·sign(TB) = m·b and
    sign(TM)·sign(MB) = t·b: 16 of the 64 keys.  Flipping all three
    orders keeps both products, so a slide is its own inverse at the
    same site.  ``oracle_slide_patterns`` in the tests derives the same
    16 keys from the geometry of three straight strands.
    """
    o_t, o_m, o_b, s_tm, s_tb, s_mb = key
    t = 1 if o_t == "TM" else -1
    m = 1 if o_m == "TM" else -1
    b = 1 if o_b == "TB" else -1
    return s_tm * s_tb == m * b and s_tm * s_mb == t * b


def _apply_r3(d: OpenGaussDiagram, m: MoveEvent) -> tuple:
    if m.site is None:
        raise IllegalMove("slide event needs a site")
    key = classify_slide_site(d, m.site)
    if key is None:
        raise IllegalMove(f"positions {m.site} do not form a slide site")
    if not _slide_legal(key):
        raise IllegalMove(f"slide pattern {key} is not realizable")
    endpoints = list(d.endpoints)
    for p in m.site:
        endpoints[p - 1], endpoints[p] = endpoints[p], endpoints[p - 1]
    return tuple(endpoints), d.signs


def slide_sites(d: OpenGaussDiagram) -> tuple[tuple[int, int, int], ...]:
    """All legal slide sites, ascending.

    A site's blocks hold its chords pairwise: {a, b}, {a, c}, {b, c}.  So
    each two-chord block is joined with the blocks sharing its chord a and
    with a block on the remaining pair; ``_slide_legal`` confirms each.
    """
    return _slide_sites(d, _two_chord_blocks(d))


def _slide_sites(d: OpenGaussDiagram, blocks: dict) -> tuple[tuple[int, int, int], ...]:
    pairs_of: dict[int, list[frozenset[int]]] = {}
    for pair in blocks:
        for label in pair:
            pairs_of.setdefault(label, []).append(pair)
    candidates = {
        tuple(sorted(site))
        for pair in blocks
        for other in pairs_of[min(pair)]
        if other != pair and pair ^ other in blocks
        for site in product(blocks[pair], blocks[other], blocks[pair ^ other])
    }
    keys = ((site, classify_slide_site(d, site)) for site in sorted(candidates))
    return tuple(site for site, key in keys if key is not None and _slide_legal(key))


# =============================================================================
# Application, enumeration, inversion
# =============================================================================

_APPLY = {
    "r1_insert": _apply_r1_insert,
    "r1_remove": _apply_r1_remove,
    "r2_insert": _apply_r2_insert,
    "r2_remove": _apply_r2_remove,
    "r3": _apply_r3,
}


def apply_move(d: OpenGaussDiagram, m: MoveEvent) -> OpenGaussDiagram:
    """Apply one event to the canonicalized diagram; result is canonical."""
    if m.kind not in _APPLY:
        raise IllegalMove(f"unknown move kind: {m.kind!r}")
    numbers = [v for v in (m.gap, m.gap2, m.label, m.label2) if v is not None]
    if not all(type(v) is int for v in numbers + list(m.site or ())):
        raise IllegalMove(f"gaps, labels and site entries must be integers: {m}")
    endpoints, signs = _APPLY[m.kind](canonicalize(d), m)
    return canonicalize(_unchecked(OpenGaussDiagram, endpoints, signs))


_poke_event = functools.lru_cache(maxsize=4096)(MoveEvent.r2_insert)  # listings share events


def _list_moves(c: OpenGaussDiagram, cap: int | None) -> dict[str, MoveEvent]:
    """Result code -> first event making it, over every legal move from the
    canonical c within cap crossings; no result diagram is built.

    Removals and slides rewrite c; inserts are spliced into c's code.  With
    F chords begun before the gap, the code before it stays, the new chords
    are F+1 (and F+2 for a poke) and later labels above F move up by one
    (two).  The loops run over the legal inserts in the events' order.
    """
    n, ends, blocks = c.n, c.endpoints, _two_chord_blocks(c)
    events = [MoveEvent.r1_remove(label) for label in removable_kinks(c)]
    events += [MoveEvent.r2_remove(a, b) for a, b in _removable_pokes(c, blocks)]
    events += [MoveEvent.r3(site) for site in _slide_sites(c, blocks)]
    listing: dict[str, MoveEvent] = {}
    for event in events:
        listing.setdefault(_canonical_code(*_APPLY[event.kind](c, event)), event)
    text = ["+" if sign == 1 else "-" for _, sign in c.signs]  # by label - 1
    # Per gap: the code before it, each token followed by a space, and F.
    heads = ["", *accumulate(f"{role}{label}{text[label - 1]} " for label, role in ends)]
    begun = [0, *accumulate((label for label, _ in ends), max)]

    def tail(gap: int, shift: int) -> list[str]:
        return [f"{role}{label + shift if label > begun[gap] else label}{text[label - 1]}"
                for label, role in ends[gap:]]

    gaps, signs = range(2 * n + 1), ((1, "+", "-"), (-1, "-", "+"))
    for gap in gaps if cap is None or n + 1 <= cap else ():
        new, rest = begun[gap] + 1, "".join(" " + token for token in tail(gap, 1))
        for order, (sign, s, _) in product(_ORDERS, signs):
            code = f"{heads[gap]}{order[0]}{new}{s} {order[1]}{new}{s}{rest}"
            if code not in listing:
                listing[code] = MoveEvent.r1_insert(gap, sign, order)
    for gap in gaps if cap is None or n + 2 <= cap else ():
        a, b, rest, middle = begun[gap] + 1, begun[gap] + 2, tail(gap, 2), ""
        pokes = []  # (roles1, pairing, sign, first block and a space, second block)
        for (roles1, role2), pairing, (sign, sa, sb) in product(
                ((OVER, UNDER), (UNDER, OVER)), _PAIRINGS, signs):
            x, y = f"{a}{sa}", f"{b}{sb}"
            u, v = (x, y) if pairing == "parallel" else (y, x)
            pokes.append((roles1, pairing, sign,
                          f"{roles1}{x} {roles1}{y} ", f"{role2}{u} {role2}{v}"))
        for k in range(len(rest) + 1):  # the second block lands at gap + k
            after = "".join(" " + token for token in rest[k:])
            for roles1, pairing, sign, first, second in pokes:
                code = f"{heads[gap]}{first}{middle}{second}{after}"
                if code not in listing:
                    listing[code] = _poke_event(gap, gap + k, roles1, pairing, sign)
            middle += f"{rest[k]} " if k < len(rest) else ""
    return listing


def enumerate_moves(
    d: OpenGaussDiagram, cap: int | None = None
) -> tuple[tuple[MoveEvent, OpenGaussDiagram], ...]:
    """Every legal single move from d, with its result.

    Inserts whose result would exceed cap crossings are suppressed.
    Results are deduplicated on their code (first event wins: removals,
    slides, then inserts) and sorted by it, so the order is reproducible.
    """
    listing = _list_moves(canonicalize(d), cap)
    return tuple((listing[code], _read_code(code)) for code in sorted(listing))


def inverse_event(d_before: OpenGaussDiagram, m: MoveEvent) -> MoveEvent:
    """Event that undoes m, interpreted on apply_move(d_before, m)."""
    c = canonicalize(d_before)
    if m.kind == "r3":
        return m
    if m.kind == "r1_insert":
        result = apply_move(c, m)
        return MoveEvent.r1_remove(result.endpoint(m.gap + 1)[0])
    if m.kind == "r1_remove":
        over, under, sign = c._chord(m.label)
        return MoveEvent.r1_insert(min(over, under) - 1, sign, "OU" if over < under else "UO")
    if m.kind == "r2_insert":
        result = apply_move(c, m)
        a = result.endpoint(m.gap + 1)[0]
        b = result.endpoint(m.gap + 2)[0]
        return MoveEvent.r2_remove(a, b)
    if m.kind == "r2_remove":
        starts = _r2_block_starts(c, m.label, m.label2)
        if starts is None:
            raise IllegalMove(
                f"chords {m.label} and {m.label2} do not form two adjacent blocks"
            )
        over_start, under_start = starts
        i, j = sorted((over_start, under_start))
        first1 = c.endpoint(i)[0]
        first2 = c.endpoint(j)[0]
        return MoveEvent.r2_insert(
            gap=i - 1,
            gap2=j - 3,
            roles1=c.endpoint(i)[1],
            pairing="parallel" if first1 == first2 else "crossed",
            sign=c.sign(first1),
        )
    raise IllegalMove(f"unknown move kind: {m.kind!r}")

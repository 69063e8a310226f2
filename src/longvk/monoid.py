"""Concatenation monoid of long virtual knot diagrams.

Placing one long diagram entirely to the left of another concatenates
their Gauss codes; on diagrams this is associative with the empty
diagram as identity (the classical connected sum, made well-behaved by
the long setting).  A *cut point* is a gap on the line spanned by no
chord; cutting there splits the diagram back into two factors.  Note
that decomposability here is a property of one diagram, not of its
equivalence class: statements about the underlying knot require a
search over the move orbit and stay budget-bounded.
"""

from __future__ import annotations

from longvk.gauss import GaussCodeError, OpenGaussDiagram, _unchecked, canonicalize


class NotACutPoint(GaussCodeError):
    """Requested gap is spanned by a chord (or out of range)."""


def concat(d1: OpenGaussDiagram, d2: OpenGaussDiagram) -> OpenGaussDiagram:
    """Concatenate: ``d1`` first, then ``d2`` with labels shifted by d1.n."""
    a = canonicalize(d1)
    b = canonicalize(d2)
    shift = a.n
    endpoints = a.endpoints + tuple((label + shift, role) for label, role in b.endpoints)
    signs = a.signs + tuple((label + shift, sign) for label, sign in b.signs)
    return _unchecked(OpenGaussDiagram, endpoints, signs)


def cut_points(d: OpenGaussDiagram) -> tuple[int, ...]:
    """Gaps spanned by no chord, ascending.  Gap g sits after position g.

    Gaps 0 and 2n always qualify.
    """
    return tuple(_canonical_cuts(d) or _canonical_cuts(canonicalize(d)))


def _canonical_cuts(d: OpenGaussDiagram) -> list[int] | None:
    """Cut points by one running count, or None if d is not canonical.

    In canonical labels chord k first appears after chords 1..k-1, so
    once the first g positions have begun chords 1..k, gap g is a cut
    point exactly when g == 2k.
    """
    top = 0
    cuts = [0]
    for pos, (label, _) in enumerate(d.endpoints, start=1):
        if label == top + 1:
            top = label
        elif label > top:
            return None
        elif 2 * top == pos:
            cuts.append(pos)
    return cuts


def _piece(c: OpenGaussDiagram, lo: int, hi: int) -> tuple[tuple, tuple]:
    """Canonical fields of positions lo+1..hi of a canonical diagram,
    where gaps lo and hi are cut points."""
    shift = lo // 2  # chords left of the cut
    return (
        tuple((label - shift, role) for label, role in c.endpoints[lo:hi]),
        tuple((label - shift, sign) for label, sign in c.signs[shift:hi // 2]),
    )


def split_at(d: OpenGaussDiagram, gap: int) -> tuple[OpenGaussDiagram, OpenGaussDiagram]:
    """Split at a cut point; inverse of :func:`concat` up to relabelling."""
    c = canonicalize(d)
    if gap not in cut_points(c):
        raise NotACutPoint(f"gap {gap} is spanned by a chord or out of range")
    left, right = _piece(c, 0, gap), _piece(c, gap, len(c.endpoints))
    return _unchecked(OpenGaussDiagram, *left), _unchecked(OpenGaussDiagram, *right)


def is_diagram_decomposable(d: OpenGaussDiagram) -> bool:
    """True iff some cut point has at least one chord on each side."""
    return len(cut_points(d)) > 2

"""Band surfaces supporting a long virtual knot diagram.

Every long virtual knot diagram sits on a compact oriented surface built
from bands: one small disc per classical crossing (the strands cross
inside it), one annulus V whose core is a large circle enclosing the
whole picture (the two ends of the long knot leave through it), and one
band per diagram arc.  Virtual crossings need no discs; their bands
simply pass one over the other, which is why the construction is well
defined on Gauss diagrams.

Combinatorially the surface is a ribbon graph: vertices carry cyclic
(counterclockwise) orders of band attachments, and the boundary circles
of the thickened graph are the orbits of next-attachment-after-partner
tracing.  With n crossings there are 2n+1 bands, so

    euler characteristic = (discs) - (bands) = -n - 1.

The annulus V contributes one extra boundary circle, its outer circle,
which no band touches; that circle is the distinguished boundary, and
the construction always yields exactly one distinguished component.
Genus then comes from chi = 2 - 2 genus - boundary_components.

Rotation convention at a crossing disc, reading counterclockwise: a
positive crossing attaches (over-in, under-in, over-out, under-out), a
negative crossing (over-in, under-out, over-out, under-in).  This is
the planar picture of a crossing whose sign is the determinant sign of
(over direction, under direction), so diagrams realizable in the plane
get genus 0.

Darts: band i owns darts 2i (tail, earlier on the line) and 2i+1
(head); dart d's partner across its band is d ^ 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from longvk.gauss import OVER, UNDER, OpenGaussDiagram, _unchecked, canonicalize


class InvalidRibbonGraph(ValueError):
    """Rotation system is not a valid band-surface presentation."""


class InvalidTraversal(ValueError):
    """Band walk does not trace a long knot on the surface."""


class NonIntegralGenus(RuntimeError):
    """Internal failure: Euler characteristic and boundary disagree."""


@dataclass(frozen=True)
class RibbonGraph:
    """Band surface with the knot's course drawn on it.

    ``rotations[0]`` is the annulus V (two attachments on its inner
    circle); ``rotations[1:]`` are crossing discs with four attachments
    counterclockwise.  ``over_in[i]`` / ``under_in[i]`` mark where the
    over and under strands enter disc ``i + 1``; together with the
    rotation they carry the whole diagram, including crossing signs.
    ``start_dart`` is the attachment at V where the knot leaves towards
    its first crossing.  ``_vertex``, the dart -> vertex table, is built
    on first read and cached like ``OpenGaussDiagram._chords``.
    """

    rotations: tuple[tuple[int, ...], ...]
    over_in: tuple[int, ...]
    under_in: tuple[int, ...]
    start_dart: int

    def __post_init__(self) -> None:
        if not self.rotations:
            raise InvalidRibbonGraph("need at least the end annulus V")
        if len(self.rotations[0]) != 2:
            raise InvalidRibbonGraph("V must have exactly 2 attachments")
        discs = self.rotations[1:]
        if any(len(rot) != 4 for rot in discs):
            raise InvalidRibbonGraph("every crossing disc needs 4 attachments")
        if len(self.over_in) != len(discs) or len(self.under_in) != len(discs):
            raise InvalidRibbonGraph("over_in/under_in must mark every disc")
        darts = [d for rot in self.rotations for d in rot]
        if sorted(darts) != list(range(len(darts))):
            raise InvalidRibbonGraph("attachments must use darts 0..2B-1 once each")
        if len(darts) % 2:
            raise InvalidRibbonGraph("odd number of darts")
        for i, rot in enumerate(discs):
            over, under = self.over_in[i], self.under_in[i]
            if over not in rot or under not in rot:
                raise InvalidRibbonGraph(f"disc {i + 1} marks are not attachments")
            gap = (rot.index(under) - rot.index(over)) % 4
            if gap not in (1, 3):
                raise InvalidRibbonGraph(
                    f"disc {i + 1}: over and under entries must be rotation neighbours"
                )
        if self.start_dart not in self.rotations[0]:
            raise InvalidRibbonGraph("start_dart must attach to V")

    @property
    def bands(self) -> int:
        return sum(len(rot) for rot in self.rotations) // 2

    @property
    def discs(self) -> int:
        return len(self.rotations) - 1

    @cached_property
    def _vertex(self) -> dict[int, int]:
        return {dart: index for index, rot in enumerate(self.rotations) for dart in rot}

    def vertex_of(self, dart: int) -> int:
        vertex = self._vertex.get(dart)
        if vertex is None:
            raise InvalidRibbonGraph(f"dart {dart} attaches nowhere")
        return vertex

    def disc_sign(self, disc: int) -> int:
        """Crossing sign encoded by the rotation, +1 or -1."""
        rot = self.rotations[disc]
        gap = (rot.index(self.under_in[disc - 1]) - rot.index(self.over_in[disc - 1])) % 4
        return 1 if gap == 1 else -1


def build_band_surface(d: OpenGaussDiagram) -> RibbonGraph:
    """Assemble the band surface of a diagram (labels canonicalized)."""
    c = canonicalize(d)
    rotations = [(4 * c.n + 1, 0)]
    over_in = []
    under_in = []
    for p, q, sign in c._chords.values():  # labels 1..n in order
        o_in, o_out = 2 * p - 1, 2 * p
        u_in, u_out = 2 * q - 1, 2 * q
        if sign == 1:
            rotations.append((o_in, u_in, o_out, u_out))
        else:
            rotations.append((o_in, u_out, o_out, u_in))
        over_in.append(o_in)
        under_in.append(u_in)
    return _unchecked(RibbonGraph, tuple(rotations), tuple(over_in), tuple(under_in), 0)


def euler_characteristic(rg: RibbonGraph) -> int:
    """Discs count 1 each, V counts 0, bands count -1 each."""
    return rg.discs - rg.bands


def boundary_components(rg: RibbonGraph) -> tuple[int, int]:
    """(total, distinguished) boundary circle counts.

    Ribbon boundary circles are orbits of dart -> next attachment after
    the band partner; V's untouched outer circle adds one more, and it
    is the single distinguished component.
    """
    succ: dict[int, int] = {}
    for rot in rg.rotations:
        for i, dart in enumerate(rot):
            succ[dart] = rot[(i + 1) % len(rot)]
    seen: set[int] = set()
    faces = 0
    for dart in succ:
        if dart in seen:
            continue
        faces += 1
        cur = dart
        while cur not in seen:
            seen.add(cur)
            cur = succ[cur ^ 1]
    return faces + 1, 1


def supporting_genus(d: OpenGaussDiagram) -> int:
    """Genus of the band surface: (2 - chi - boundary_total) / 2."""
    rg = build_band_surface(d)
    chi = euler_characteristic(rg)
    total, _ = boundary_components(rg)
    double = 2 - chi - total
    if double < 0 or double % 2:
        raise NonIntegralGenus(f"chi={chi}, boundary={total}")
    return double // 2


def natural_traversal(rg: RibbonGraph) -> tuple[int, ...]:
    """Band order along the knot, from V back to V."""
    walk, bands = [], rg.bands
    dart = rg.start_dart
    while True:
        walk.append(dart // 2)
        far = dart ^ 1
        vertex = rg.vertex_of(far)
        if vertex == 0:
            if len(walk) != bands:
                raise InvalidTraversal("walk returned to V before using every band")
            return tuple(walk)
        rot = rg.rotations[vertex]
        dart = rot[(rot.index(far) + 2) % 4]
        if len(walk) > bands:
            raise InvalidTraversal("walk does not close up at V")


def gauss_from_surface(rg: RibbonGraph, traversal: tuple[int, ...]) -> OpenGaussDiagram:
    """Read the diagram back off the surface along a band walk.

    The walk must start at V's ``start_dart`` band, pass straight
    through every crossing disc (entering at an in-attachment, leaving
    at the opposite one), visit every band exactly once, and return to
    V.  Chord signs are recovered from the rotation alone: at a disc the
    under entry sits one step counterclockwise from the over entry for a
    positive crossing, one step clockwise for a negative one.
    """
    if sorted(traversal) != list(range(rg.bands)):
        raise InvalidTraversal("walk must use every band exactly once")
    if not traversal or traversal[0] != rg.start_dart // 2:
        raise InvalidTraversal("walk must leave V through start_dart")

    endpoints: list[tuple[int, str]] = []
    signs: dict[int, int] = {}
    label_of_disc: dict[int, int] = {}
    visits: dict[int, int] = {}
    dart = rg.start_dart
    for step, band in enumerate(traversal):
        if dart // 2 != band:
            raise InvalidTraversal(f"step {step}: walk is not connected (band {band})")
        far = dart ^ 1
        vertex = rg.vertex_of(far)
        if vertex == 0:
            if step != len(traversal) - 1:
                raise InvalidTraversal("walk returned to V early")
            if far == rg.start_dart:
                raise InvalidTraversal("walk re-entered V at its start attachment")
            break
        if step == len(traversal) - 1:
            raise InvalidTraversal("walk must end at V")
        visits[vertex] = visits.get(vertex, 0) + 1
        if visits[vertex] > 2:
            raise InvalidTraversal(f"disc {vertex} visited more than twice")
        if far == rg.over_in[vertex - 1]:
            role = OVER
        elif far == rg.under_in[vertex - 1]:
            role = UNDER
        else:
            raise InvalidTraversal(f"disc {vertex} entered against the knot orientation")
        if vertex not in label_of_disc:
            label_of_disc[vertex] = len(label_of_disc) + 1
            signs[label_of_disc[vertex]] = rg.disc_sign(vertex)
        endpoints.append((label_of_disc[vertex], role))
        rot = rg.rotations[vertex]
        dart = rot[(rot.index(far) + 2) % 4]
    if any(count != 2 for count in visits.values()):
        raise InvalidTraversal("every disc must be crossed exactly twice")
    return canonicalize(
        OpenGaussDiagram(endpoints=tuple(endpoints), signs=tuple(sorted(signs.items())))
    )

"""Open Gauss diagrams for long virtual knots.

A long virtual knot diagram is recorded here as an *open Gauss diagram*:
2n endpoint tokens on an oriented line (read left to right), paired into
n signed chords.  Each chord stands for one classical crossing; the two
endpoint roles record where the strand passes over ("O") and under ("U")
at that crossing, and the chord carries the crossing sign.  Virtual
crossings are not recorded at all: two planar pictures with the same
open Gauss diagram differ by detour moves only, so the combinatorial
object below is the whole datum this package works with.

Text grammar (tokens separated by single ASCII spaces)::

    code  := "" | "0" | token (" " token)*
    token := role label sign
    role  := "O" | "U"
    label := nonzero decimal integer, no leading zeros
    sign  := "+" | "-"

``""`` and ``"0"`` both denote the long trivial knot.  Every label must
occur exactly twice, once per role, with a consistent sign.  Positions
are 1-based; position ``i`` holds the ``i``-th token.

Validation happens at the trust boundary: :func:`parse_gauss_code` and
the ``OpenGaussDiagram`` constructor check all outside input.  What the
package derives from valid diagrams, and codes it wrote itself, are
rebuilt unchecked (the private ``_unchecked`` and ``_read_code``).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property

OVER = "O"
UNDER = "U"

_TOKEN_RE = re.compile(r"([OU])([1-9][0-9]*)([+-])\Z")


class GaussCodeError(ValueError):
    """Base class for malformed Gauss codes and invalid diagrams."""


class MalformedToken(GaussCodeError):
    """A token does not match ``role label sign``."""


class LabelArity(GaussCodeError):
    """A label occurs once, or more than twice."""


class RoleClash(GaussCodeError):
    """A label occurs twice with the same role."""


class SignClash(GaussCodeError):
    """The two tokens of one label carry different signs."""


class UnknownLabel(GaussCodeError):
    """A queried label is not present in the diagram."""


@dataclass(frozen=True)
class OpenGaussDiagram:
    """Immutable open Gauss diagram.

    ``endpoints`` lists ``(label, role)`` in line order; ``signs`` maps
    each label to its crossing sign, stored as label-sorted pairs so the
    whole object stays hashable.  Labels may be arbitrary positive
    integers; :func:`canonicalize` renames them 1..n by first appearance.

    Label lookups go through ``_chords``, a table label -> (over position,
    under position, sign) in label order, built in one pass on first read.
    It is cached in the instance ``__dict__``, so it also serves diagrams
    built by ``_unchecked``, and it takes no part in ``==`` or ``hash``.
    """

    endpoints: tuple[tuple[int, str], ...]
    signs: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        seen: dict[int, list[str]] = {}
        for label, role in self.endpoints:
            if role not in (OVER, UNDER) or not isinstance(label, int) or label < 1:
                raise MalformedToken(f"bad endpoint ({label!r}, {role!r})")
            seen.setdefault(label, []).append(role)
        for label, roles in seen.items():
            if len(roles) != 2:
                raise LabelArity(f"label {label} occurs {len(roles)} time(s), need 2")
            if roles[0] == roles[1]:
                raise RoleClash(f"label {label} occurs twice as {roles[0]!r}")
        sign_labels = [label for label, _ in self.signs]
        if sorted(sign_labels) != sorted(seen):
            raise LabelArity("signs do not cover exactly the chord labels")
        if sign_labels != sorted(sign_labels):
            raise GaussCodeError("signs must be sorted by label")
        for _, sign in self.signs:
            if sign not in (1, -1):
                raise MalformedToken(f"sign must be +1 or -1, got {sign!r}")

    # -- basic queries ------------------------------------------------

    @property
    def n(self) -> int:
        """Number of chords (classical crossings)."""
        return len(self.signs)

    def labels(self) -> tuple[int, ...]:
        return tuple(label for label, _ in self.signs)

    @cached_property
    def _chords(self) -> dict[int, tuple[int, int, int]]:
        over, under = {}, {}
        for pos, (label, role) in enumerate(self.endpoints, start=1):
            (over if role == OVER else under)[label] = pos
        return {label: (over[label], under[label], sign) for label, sign in self.signs}

    def _chord(self, label: int) -> tuple[int, int, int]:
        chord = self._chords.get(label)
        if chord is None:
            raise UnknownLabel(f"label {label} not in diagram")
        return chord

    def sign(self, label: int) -> int:
        return self._chord(label)[2]

    def positions(self, label: int) -> tuple[int, int]:
        """1-based ``(over_position, under_position)`` of a chord."""
        return self._chord(label)[:2]

    def endpoint(self, position: int) -> tuple[int, str]:
        """``(label, role)`` at a 1-based position."""
        if not 1 <= position <= len(self.endpoints):
            raise IndexError(f"position {position} out of range")
        return self.endpoints[position - 1]


def parse_gauss_code(text: str) -> OpenGaussDiagram:
    """Parse a Gauss code; raise a ``GaussCodeError`` subclass on bad input.

    Original labels are preserved: the diagram at position ``i`` holds
    the ``i``-th token of ``text``.
    """
    if text in ("", "0"):
        return OpenGaussDiagram(endpoints=(), signs=())
    endpoints: list[tuple[int, str]] = []
    signs: dict[int, int] = {}
    for index, token in enumerate(text.split(" ")):
        match = _TOKEN_RE.match(token)
        if match is None:
            raise MalformedToken(f"token {index}: {token!r}")
        role, label_text, sign_text = match.groups()
        label = int(label_text)
        sign = 1 if sign_text == "+" else -1
        if label in signs and signs[label] != sign:
            raise SignClash(f"label {label} carries both signs")
        signs[label] = sign
        endpoints.append((label, role))
    return OpenGaussDiagram(
        endpoints=tuple(endpoints),
        signs=tuple(sorted(signs.items())),
    )


def _unchecked(cls, *values):
    """``cls(*values)`` without validation, for fields derived from valid ones."""
    obj = object.__new__(cls)
    for name, value in zip(cls.__dataclass_fields__, values):
        object.__setattr__(obj, name, value)  # what frozen dataclasses do
    return obj


def _read_code(code: str) -> OpenGaussDiagram:
    """Diagram of a code that :func:`_canonical_code` wrote; unchecked."""
    endpoints, signs = [], []
    for token in code.split(" ") if code else ():
        label = int(token[1:-1])
        endpoints.append((label, token[0]))
        if label > len(signs):  # canonical: a new chord is the next label
            signs.append((label, 1 if token[-1] == "+" else -1))
    return _unchecked(OpenGaussDiagram, tuple(endpoints), tuple(signs))


def canonicalize(d: OpenGaussDiagram) -> OpenGaussDiagram:
    """Relabel chords 1..n in order of first appearance along the line.

    Positions, roles and signs are untouched; the map is idempotent.
    """
    rename: dict[int, int] = {}
    for label, _ in d.endpoints:
        if label not in rename:
            rename[label] = len(rename) + 1
    if all(old == new for old, new in rename.items()):
        return d
    sign_of = dict(d.signs)
    return _unchecked(
        OpenGaussDiagram,
        tuple((rename[label], role) for label, role in d.endpoints),
        tuple((new, sign_of[old]) for old, new in rename.items()),
    )


def _canonical_code(endpoints: tuple, signs: tuple) -> str:
    """Code of ``endpoints`` and ``signs`` with chords renamed 1..n by first
    appearance.  Nothing is validated: callers pass a valid diagram's
    fields or a legal rewrite of them."""
    sign_of = dict(signs)
    tail_of: dict[int, str] = {}  # label -> its canonical "label sign" text
    tokens = []
    for label, role in endpoints:
        tail = tail_of.get(label)
        if tail is None:
            tail = tail_of[label] = f"{len(tail_of) + 1}{'+' if sign_of[label] == 1 else '-'}"
        tokens.append(role + tail)
    return " ".join(tokens)


def serialize(d: OpenGaussDiagram) -> str:
    """Emit the code using canonical labels; empty string for n = 0."""
    return _canonical_code(d.endpoints, d.signs)


def mirror(d: OpenGaussDiagram) -> OpenGaussDiagram:
    """Mirror image: swap over/under roles and negate every sign.

    Endpoint order along the line is unchanged; the result is
    canonicalized.  Applying ``mirror`` twice is the identity (up to
    canonical labels).
    """
    flipped = tuple(
        (label, UNDER if role == OVER else OVER) for label, role in d.endpoints
    )
    negated = tuple((label, -sign) for label, sign in d.signs)
    return canonicalize(_unchecked(OpenGaussDiagram, flipped, negated))


def linked(d: OpenGaussDiagram, a: int, b: int) -> bool:
    """True iff chords ``a`` and ``b`` interleave along the line.

    Exactly one endpoint of ``b`` lies strictly between the endpoints of
    ``a``.  Symmetric in ``a`` and ``b``; a chord is never linked with
    itself.
    """
    a_lo, a_hi = sorted(d.positions(a))  # raises UnknownLabel if absent
    return a != b and sum(a_lo < p < a_hi for p in d.positions(b)) == 1

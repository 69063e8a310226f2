"""Seeded diagram generators shared across the test modules."""

from __future__ import annotations

import random
from itertools import product

from longvk.gauss import OpenGaussDiagram, canonicalize, parse_gauss_code
from longvk.moves import MoveEvent, apply_move, enumerate_moves


def every_diagram(n: int):
    """Every canonical diagram with exactly n chords: a pairing of the 2n
    positions, which end of each chord is over, and the signs."""

    def pairings(free: list[int]):
        if not free:
            yield []
            return
        for b in free[1:]:
            rest = [p for p in free[1:] if p != b]
            for tail in pairings(rest):
                yield [(free[0], b), *tail]

    for pairs in pairings(list(range(2 * n))):  # chord k starts k-th: canonical
        for roles, signs in product(product(("OU", "UO"), repeat=n),
                                    product((1, -1), repeat=n)):
            endpoints: list[tuple[int, str]] = [(0, "")] * (2 * n)
            for label, ((p, q), (first, second)) in enumerate(zip(pairs, roles), start=1):
                endpoints[p], endpoints[q] = (label, first), (label, second)
            yield OpenGaussDiagram(endpoints=tuple(endpoints),
                                   signs=tuple(zip(range(1, n + 1), signs)))


def random_diagram(rng: random.Random, n: int) -> OpenGaussDiagram:
    """Uniform random diagram with exactly n chords."""
    positions = list(range(2 * n))
    rng.shuffle(positions)
    endpoints: list[tuple[int, str] | None] = [None] * (2 * n)
    signs = []
    for label in range(1, n + 1):
        a, b = positions[2 * (label - 1)], positions[2 * label - 1]
        over, under = (a, b) if rng.random() < 0.5 else (b, a)
        endpoints[over] = (label, "O")
        endpoints[under] = (label, "U")
        signs.append((label, rng.choice((1, -1))))
    return canonicalize(
        OpenGaussDiagram(endpoints=tuple(endpoints), signs=tuple(signs))
    )


def prime_chain(rng: random.Random, n: int, signs: str = "+-") -> OpenGaussDiagram:
    """``O1 O2 U1 O3 U2 ... On U(n-1) Un``, parsed: no interior cut point.

    Each chord's sign is drawn from ``signs``.
    """
    sign = {i: rng.choice(signs) for i in range(1, n + 1)}
    tokens = [f"O1{sign[1]}"]
    for i in range(2, n + 1):
        tokens += [f"O{i}{sign[i]}", f"U{i - 1}{sign[i - 1]}"]
    tokens.append(f"U{n}{sign[n]}")
    return parse_gauss_code(" ".join(tokens))


def walked_diagram(
    rng: random.Random,
    start: OpenGaussDiagram,
    steps: int,
    cap: int,
) -> tuple[OpenGaussDiagram, list[MoveEvent]]:
    """Random move walk from start; returns the end diagram and the path.

    Walk endpoints are known-equivalent to the start by construction,
    and walking tends to leave removable patterns behind, which makes
    these diagrams good move-enumeration inputs.
    """
    current = canonicalize(start)
    path = []
    for _ in range(steps):
        options = enumerate_moves(current, cap=cap)
        if not options:
            break
        event, result = options[rng.randrange(len(options))]
        path.append(event)
        current = result
    return current, path


def mixed_diagram(rng: random.Random, max_n: int) -> OpenGaussDiagram:
    """Half uniform random, half random-walked from a small seed."""
    if rng.random() < 0.5:
        return random_diagram(rng, rng.randint(1, max_n))
    seed = random_diagram(rng, rng.randint(0, max(0, max_n - 2)))
    out, _ = walked_diagram(rng, seed, steps=rng.randint(1, 3), cap=max_n)
    return out


_PLANAR_SEEDS = (
    "O1+ U2+ O3+ U1+ O2+ U3+",
    "O1+ U2+ O3- U4- O2+ U1+ O4- U3-",
    "O1+ U1+",
    "O1- U1-",
)


def planar_diagram(rng: random.Random, ops: int) -> OpenGaussDiagram:
    """Build a diagram by plane-preserving operations only.

    Kinks anywhere, self-pokes at a single gap with crossed block
    orders, and concatenation with known planar codes all keep the band
    surface at genus 0, so the result is planar by construction.  Tests
    still verify that with the independent boundary oracle.
    """
    from longvk.monoid import concat

    current = canonicalize(OpenGaussDiagram(endpoints=(), signs=()))
    for _ in range(ops):
        choice = rng.random()
        n = current.n
        if choice < 0.5:
            event = MoveEvent.r1_insert(
                rng.randint(0, 2 * n), rng.choice((1, -1)), rng.choice(("OU", "UO"))
            )
            current = apply_move(current, event)
        elif choice < 0.8:
            gap = rng.randint(0, 2 * n)
            event = MoveEvent.r2_insert(gap, gap, rng.choice(("O", "U")), "crossed",
                                        rng.choice((1, -1)))
            current = apply_move(current, event)
        else:
            current = concat(current, parse_gauss_code(rng.choice(_PLANAR_SEEDS)))
    return current


def narrow_diagram(rng: random.Random, sizes: list[int], width: int) -> OpenGaussDiagram:
    """Concatenated random prime pieces with scattered labels.

    One piece per entry of ``sizes``; inside a piece at most ``width``
    chords are open at any gap (``width`` >= 2) and only its ends are
    cut points.  Labels are distinct random integers in no particular
    order, so the result is not canonical.
    """
    tokens: list[tuple[int, str]] = []
    signs: list[int] = []
    for n in sizes:
        opened: list[int] = []
        made = 0
        while made < n or opened:
            can_open = made < n and len(opened) < width
            can_close = opened and (len(opened) > 1 or made == n)
            if can_open and (not can_close or rng.random() < 0.5):
                opened.append(len(signs))
                signs.append(rng.choice((1, -1)))
                tokens.append((opened[-1], rng.choice(("O", "U"))))
                made += 1
            else:
                chord = opened.pop(rng.randrange(len(opened)))
                first_role = next(role for c, role in tokens if c == chord)
                tokens.append((chord, "U" if first_role == "O" else "O"))
    labels = rng.sample(range(1, 10 * len(signs) + 10), len(signs))
    return OpenGaussDiagram(
        endpoints=tuple((labels[c], role) for c, role in tokens),
        signs=tuple(sorted((labels[c], sign) for c, sign in enumerate(signs))),
    )

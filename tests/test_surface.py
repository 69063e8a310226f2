from __future__ import annotations

import random

import pytest

from longvk.gauss import canonicalize, mirror, parse_gauss_code, serialize
from longvk.invariants import odd_writhe
from longvk.monoid import cut_points
from longvk.moves import MoveEvent, apply_move, slide_sites
from longvk.surface import (
    InvalidRibbonGraph,
    InvalidTraversal,
    RibbonGraph,
    boundary_components,
    build_band_surface,
    euler_characteristic,
    gauss_from_surface,
    natural_traversal,
    supporting_genus,
)
from oracles import oracle_boundary_total
from strategies import planar_diagram, prime_chain, random_diagram

# hand-traced reference values: (code, chi, boundary_total, genus)
REFERENCE = [
    ("", -1, 3, 0),
    ("O1+ U1+", -2, 4, 0),
    ("U1- O1-", -2, 4, 0),
    ("O1+ O2+ U1+ U2+", -3, 3, 1),
    ("U1- U2- O1- O2-", -3, 3, 1),
    ("O1+ U2+ O3+ U1+ O2+ U3+", -4, 6, 0),
    ("O1+ U2+ O3- U4- O2+ U1+ O4- U3-", -5, 7, 0),
]


def test_reference_surfaces():
    for code, chi, total, genus in REFERENCE:
        d = parse_gauss_code(code)
        rg = build_band_surface(d)
        assert euler_characteristic(rg) == chi, code
        assert boundary_components(rg) == (total, 1), code
        assert supporting_genus(d) == genus, code


def test_classical_corpus_is_planar(classical):
    for name, d in classical.items():
        assert supporting_genus(d) == 0, name


def test_virtual_corpus_genus_frozen(virtual):
    expected = {
        "double_over": 1,
        "double_over_mirror": 1,
        "double_over_negative": 1,
        "interleaved_pair": 1,
        "braid_triple": 1,
        "hidden_unknot_parallel": 1,
        "hidden_unknot_kink_split": 1,
        "mixed_interleaved": 1,
        "mixed_interleaved_swap": 1,
    }
    assert {name: supporting_genus(d) for name, d in virtual.items()} == expected


def test_boundary_matches_segment_oracle(rng: random.Random):
    for _ in range(150):
        d = random_diagram(rng, rng.randint(0, 7))
        rg = build_band_surface(d)
        assert boundary_components(rg)[0] == oracle_boundary_total(rg)


def test_chi_formula(rng: random.Random):
    for _ in range(60):
        d = random_diagram(rng, rng.randint(0, 7))
        assert euler_characteristic(build_band_surface(d)) == -d.n - 1


def test_mirror_preserves_genus(rng: random.Random):
    for _ in range(80):
        d = random_diagram(rng, rng.randint(0, 6))
        assert supporting_genus(mirror(d)) == supporting_genus(d)


def test_planar_moves_preserve_genus(rng: random.Random):
    """Kinks, crossed self-pokes and slides never change the surface."""
    for _ in range(120):
        d = random_diagram(rng, rng.randint(0, 5))
        g = supporting_genus(d)
        gap = rng.randint(0, 2 * d.n)
        kinked = apply_move(
            d, MoveEvent.r1_insert(gap, rng.choice((1, -1)), rng.choice(("OU", "UO")))
        )
        assert supporting_genus(kinked) == g
        poked = apply_move(
            d, MoveEvent.r2_insert(gap, gap, rng.choice(("O", "U")), "crossed", 1)
        )
        assert supporting_genus(poked) == g
        for site in slide_sites(d)[:2]:
            assert supporting_genus(apply_move(d, MoveEvent.r3(site))) == g


def test_constructed_planar_diagrams(rng: random.Random):
    for _ in range(40):
        d = planar_diagram(rng, rng.randint(1, 6))
        rg = build_band_surface(d)
        # genus 0 via the independent oracle, not just the library count
        assert oracle_boundary_total(rg) == -euler_characteristic(rg) + 2
        assert supporting_genus(d) == 0


def test_surface_round_trip(rng: random.Random):
    for _ in range(120):
        d = random_diagram(rng, rng.randint(0, 7))
        rg = build_band_surface(d)
        walk = natural_traversal(rg)
        assert gauss_from_surface(rg, walk) == canonicalize(d)


def test_disc_signs_recoverable():
    d = parse_gauss_code("O1+ U2- O3+ U1+ O2- U3+")
    rg = build_band_surface(d)
    assert [rg.disc_sign(i) for i in (1, 2, 3)] == [1, -1, 1]


def test_traversal_validation():
    d = parse_gauss_code("O1+ O2+ U1+ U2+")
    rg = build_band_surface(d)
    walk = natural_traversal(rg)
    with pytest.raises(InvalidTraversal):
        gauss_from_surface(rg, walk[:-1])
    with pytest.raises(InvalidTraversal):
        gauss_from_surface(rg, tuple(reversed(walk)))
    with pytest.raises(InvalidTraversal):
        gauss_from_surface(rg, walk[1:] + walk[:1])


def test_ribbon_graph_validation():
    with pytest.raises(InvalidRibbonGraph):
        RibbonGraph(rotations=(), over_in=(), under_in=(), start_dart=0)
    with pytest.raises(InvalidRibbonGraph):
        RibbonGraph(rotations=((0, 1, 2),), over_in=(), under_in=(), start_dart=0)
    with pytest.raises(InvalidRibbonGraph):
        # over/under marks must be rotation neighbours
        RibbonGraph(
            rotations=((5, 0), (1, 2, 3, 4)),
            over_in=(1,),
            under_in=(3,),
            start_dart=0,
        )
    with pytest.raises(InvalidRibbonGraph):
        # dart 9 attaches nowhere
        RibbonGraph(
            rotations=((9, 0), (1, 2, 3, 4)),
            over_in=(1,),
            under_in=(2,),
            start_dart=0,
        )
    good = RibbonGraph(
        rotations=((5, 0), (1, 2, 3, 4)),
        over_in=(1,),
        under_in=(2,),
        start_dart=0,
    )
    assert good.bands == 3 and good.discs == 1 and good.disc_sign(1) == 1
    assert [good.vertex_of(dart) for dart in range(6)] == [0, 1, 1, 1, 1, 0]
    for absent in (6, -1):
        with pytest.raises(InvalidRibbonGraph):
            good.vertex_of(absent)


def test_structural_layers_on_large_inputs(rng: random.Random):
    """Genus, odd writhe, cut points and the surface round trip run in
    time linear in the chords, so these sizes finish in seconds."""
    for n in range(1, 12):  # the chain's genus, checked by the segment oracle
        rg = build_band_surface(prime_chain(rng, n, "+"))
        assert oracle_boundary_total(rg) == -euler_characteristic(rg) + 2 - 2 * (n // 2)
    n = 100_000
    chain = prime_chain(rng, n, "+")
    assert supporting_genus(chain) == n // 2
    assert odd_writhe(chain) == 2  # only the two end chords are odd
    assert cut_points(chain) == (0, 2 * n)
    d = random_diagram(rng, 20_000)
    rg = build_band_surface(d)
    assert gauss_from_surface(rg, natural_traversal(rg)) == canonicalize(d)
    assert odd_writhe(mirror(d)) == -odd_writhe(d)

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import random
import time

import pytest

import longvk._enumerate as enumerator
import longvk.invariants as invariants
from longvk.gauss import canonicalize, mirror, parse_gauss_code
from longvk.invariants import (
    FiniteBiquandle,
    InvalidStructure,
    check_axioms,
    coloring_matrix,
    commutator_witness,
    default_catalog,
    dihedral_quandle,
    enumerate_biquandles,
    mat_identity,
    mat_mul,
    odd_writhe,
    shipped_catalog,
    structure_from_spec,
    structure_from_text,
    trivial_quandle,
)
from longvk.monoid import concat
from longvk.moves import _descend, enumerate_moves
from oracles import oracle_coloring_matrix, oracle_odd_writhe, oracle_transfer_matrix
from strategies import mixed_diagram, narrow_diagram, prime_chain, random_diagram

VT = parse_gauss_code("O1+ O2+ U1+ U2+")
TREFOIL = parse_gauss_code("O1+ U2+ O3+ U1+ O2+ U3+")
FIG8 = parse_gauss_code("O1+ U2+ O3- U4- O2+ U1+ O4- U3-")
INTERLEAVED = parse_gauss_code("O1+ U2+ U1+ O2+")

# frozen from the size-4 enumeration: under-out cycles the under colour,
# over-out comes from a latin square; gives non-commuting matrices below
WITNESS_STRUCTURE = FiniteBiquandle(
    m=4,
    up=((0, 0, 0, 0), (2, 2, 2, 2), (3, 3, 3, 3), (1, 1, 1, 1)),
    down=((0, 2, 3, 1), (2, 0, 1, 3), (3, 1, 0, 2), (1, 3, 2, 0)),
    kind="biquandle",
    name="biq:4:052",
)


def test_odd_writhe_frozen_values():
    assert odd_writhe(parse_gauss_code("")) == 0
    assert odd_writhe(VT) == 2
    assert odd_writhe(mirror(VT)) == -2
    assert odd_writhe(TREFOIL) == 0
    assert odd_writhe(FIG8) == 0
    assert odd_writhe(INTERLEAVED) == 2
    assert odd_writhe(parse_gauss_code("O1+ U2- U1+ O2-")) == 0


def test_odd_writhe_matches_oracle(rng: random.Random):
    for _ in range(250):
        d = random_diagram(rng, rng.randint(0, 8))
        assert odd_writhe(d) == oracle_odd_writhe(d)
    for _ in range(150):  # scattered labels, nesting and products, to 30 chords
        sizes = [rng.randint(1, 15) for _ in range(rng.randint(1, 2))]
        d = narrow_diagram(rng, sizes, rng.randint(2, 6))
        assert odd_writhe(d) == oracle_odd_writhe(d), d


def test_odd_writhe_mirror_antisymmetric(rng: random.Random):
    for _ in range(100):
        d = random_diagram(rng, rng.randint(0, 7))
        assert odd_writhe(mirror(d)) == -odd_writhe(d)


def test_odd_writhe_additive_under_concat(rng: random.Random):
    for _ in range(80):
        a = random_diagram(rng, rng.randint(0, 5))
        b = random_diagram(rng, rng.randint(0, 5))
        assert odd_writhe(concat(a, b)) == odd_writhe(a) + odd_writhe(b)


def test_standard_structures_satisfy_axioms():
    for x in (trivial_quandle(2), trivial_quandle(5), dihedral_quandle(3),
              dihedral_quandle(5), dihedral_quandle(7), WITNESS_STRUCTURE):
        assert check_axioms(x) is True


def test_axiom_violations_are_named():
    broken = FiniteBiquandle(
        m=2, up=((0, 0), (0, 0)), down=((0, 1), (0, 1)),
        kind="biquandle", name="bad",
    )
    report = check_axioms(broken)
    assert report is not True
    assert ("up_invertible", (0, 0, 1)) in report
    for _ in range(3):  # a failed check is not remembered as a pass
        with pytest.raises(InvalidStructure):
            coloring_matrix(VT, broken)
        with pytest.raises(InvalidStructure):
            commutator_witness(VT, INTERLEAVED, broken)
        assert broken._count is None

    d3 = dihedral_quandle(3)
    up = [list(row) for row in d3.up]
    up[0][1], up[0][2] = up[0][2], up[0][1]
    tweaked = FiniteBiquandle(
        m=3, up=tuple(tuple(row) for row in up), down=d3.down,
        kind="quandle", name="bad2",
    )
    names = [axiom for axiom, _ in check_axioms(tweaked)]
    assert "up_invertible" in names

    kinkless = FiniteBiquandle(
        m=2, up=((0, 0), (1, 1)), down=((1, 1), (0, 0)),
        kind="biquandle", name="bad3",
    )
    names = [axiom for axiom, _ in check_axioms(kinkless)]
    assert "kink_under_first" in names and "kink_over_first" in names

    false_quandle = FiniteBiquandle(
        m=2, up=((0, 0), (1, 1)), down=((0, 1), (1, 0)),
        kind="quandle", name="bad4",
    )
    names = [axiom for axiom, _ in check_axioms(false_quandle)]
    assert "quandle_down_identity" in names
    assert "exchange" in names


def test_structure_text_round_trip():
    text = "3 quandle\n0 2 1\n2 1 0\n1 0 2\n"
    x = structure_from_text(text, name="dz3")
    assert x.up == dihedral_quandle(3).up
    assert x.kind == "quandle"
    with pytest.raises(InvalidStructure):
        structure_from_text("2 quandle\n0 0\n")
    with pytest.raises(InvalidStructure):
        structure_from_text("nonsense")


def test_structure_from_spec():
    assert structure_from_spec("dihedral:5").name == "dihedral:5"
    assert structure_from_spec("trivial:4").m == 4
    with pytest.raises(InvalidStructure):
        structure_from_spec("dihedral:0")
    with pytest.raises(InvalidStructure):
        structure_from_spec("whatever:3")


def test_structure_from_spec_names_enumerated_classes(monkeypatch):
    assert structure_from_spec("biq:4:052") == WITNESS_STRUCTURE
    assert structure_from_spec("biq:1:000").m == 1
    enumerate_all = invariants.enumerate_biquandles

    def enumerate_small(m):
        assert 1 <= m <= invariants.SCAN_MAX, f"enumerated order {m}"
        return enumerate_all(m)

    monkeypatch.setattr(invariants, "enumerate_biquandles", enumerate_small)
    for spec in ("biq:0:000", "biq:6:000", "biq:4:999", "biq:4:-1", "biq:4:52", "biq:4",
                 "biq:x:000", "dihedral:65", "trivial:10000000000"):
        with pytest.raises(InvalidStructure):
            structure_from_spec(spec)
    assert structure_from_spec("dihedral:64").m == 64


def test_catalogs():
    names = [x.name for x in default_catalog()]
    assert names == ["dihedral:3", "dihedral:5"]
    shipped = shipped_catalog()
    assert len(shipped) >= 2
    for x in shipped:
        assert check_axioms(x) is True


def test_coloring_matrix_frozen_values():
    identity3 = mat_identity(3)
    assert coloring_matrix(parse_gauss_code(""), dihedral_quandle(3)) == identity3
    assert coloring_matrix(VT, dihedral_quandle(3)) == identity3
    assert coloring_matrix(TREFOIL, dihedral_quandle(3)) == tuple(
        tuple(3 if i == j else 0 for j in range(3)) for i in range(3)
    )
    assert coloring_matrix(INTERLEAVED, dihedral_quandle(3)) == tuple(
        tuple(1 for _ in range(3)) for _ in range(3)
    )
    assert coloring_matrix(FIG8, dihedral_quandle(5)) == tuple(
        tuple(5 if i == j else 0 for j in range(5)) for i in range(5)
    )
    assert coloring_matrix(parse_gauss_code("O1+ U2- U1+ O2-"), WITNESS_STRUCTURE) == (
        (4, 0, 0, 0), (0, 0, 0, 0), (0, 0, 0, 0), (0, 0, 0, 0)
    )


def test_coloring_matrix_matches_exhaustive_oracle(rng: random.Random):
    dz3 = dihedral_quandle(3)
    for _ in range(60):
        d = random_diagram(rng, rng.randint(0, 3))
        assert coloring_matrix(d, dz3) == oracle_coloring_matrix(d, dz3)
    dz5 = dihedral_quandle(5)
    for _ in range(15):
        d = random_diagram(rng, rng.randint(0, 2))
        assert coloring_matrix(d, dz5) == oracle_coloring_matrix(d, dz5)
    for _ in range(25):
        d = random_diagram(rng, rng.randint(0, 3))
        assert coloring_matrix(d, WITNESS_STRUCTURE) == oracle_coloring_matrix(
            d, WITNESS_STRUCTURE
        )


# Order-3 biquandles (up table, down table) under which the colorings of
# a prime chain follow every chord to the end of the line.
LONG_CHAIN_TABLES = (
    (((0, 0, 0), (1, 1, 1), (2, 2, 2)), ((0, 0, 0), (2, 1, 1), (1, 2, 2))),
    (((0, 0, 0), (2, 2, 2), (1, 1, 1)), ((0, 0, 0), (1, 2, 2), (2, 1, 1))),
    (((1, 1, 1), (2, 2, 2), (0, 0, 0)), ((1, 0, 2), (0, 2, 1), (2, 1, 0))),
)


def _components(x: FiniteBiquandle) -> list[frozenset]:
    """Per color, its component: u joined to up[u][o], o to down[o][u]."""
    root = list(range(x.m))

    def find(a: int) -> int:
        while root[a] != a:
            a = root[a]
        return a

    for u, o in itertools.product(range(x.m), repeat=2):
        for a, b in ((u, x.up[u][o]), (o, x.down[o][u])):
            root[find(a)] = find(b)
    return [frozenset(b for b in range(x.m) if find(b) == find(a)) for a in range(x.m)]


def test_coloring_matrix_matches_transfer_oracle(rng: random.Random):
    """Every class of order <= 4, with dihedral quandles up to order 7.
    The oracle knows nothing of components, yet reads 0 wherever the
    two end colors lie in different ones."""
    structures = [dihedral_quandle(3), dihedral_quandle(5), dihedral_quandle(7),
                  trivial_quandle(2)]
    structures += [x for m in range(1, 5) for x in enumerate_biquandles(m)]
    for x in structures:
        comps = _components(x)
        # the oracle's cost grows as m^(open chords + 2)
        width = {2: 5, 3: 4, 4: 3, 5: 3}.get(x.m, 2)
        primes = [[rng.randint(1, 12)] for _ in range(4)]
        products = [[rng.randint(1, 5) for _ in range(rng.randint(2, 4))] for _ in range(2)]
        for sizes in primes + products:
            d = narrow_diagram(rng, sizes, width)
            oracle = oracle_transfer_matrix(d, x)
            assert all(oracle[a][b] == 0 for a in range(x.m) for b in range(x.m)
                       if comps[a] != comps[b]), (x.name, d)
            assert coloring_matrix(d, x) == oracle, (x.name, d)


def test_coloring_matrix_ignores_label_values():
    big = parse_gauss_code("O1000000000+ U7- U1000000000+ O7-")
    small = parse_gauss_code("O1+ U2- U1+ O2-")
    biquandle = next(x for x in enumerate_biquandles(3) if x.kind == "biquandle")
    for x in (dihedral_quandle(3), biquandle):
        assert coloring_matrix(big, x) == coloring_matrix(small, x)


def test_coloring_matrix_of_long_kink_chain(rng: random.Random):
    kinks = ("O{0}+ U{0}+", "U{0}+ O{0}+", "O{0}- U{0}-", "U{0}- O{0}-")
    dz3 = dihedral_quandle(3)
    picks = [rng.randrange(len(kinks)) for _ in range(1200)]
    d = parse_gauss_code(" ".join(kinks[k].format(i) for i, k in enumerate(picks, start=1)))
    factors = [coloring_matrix(parse_gauss_code(kink.format(1)), dz3) for kink in kinks]
    product = mat_identity(3)
    for k in picks:
        product = mat_mul(product, factors[k])
    assert coloring_matrix(d, dz3) == product


def test_coloring_matrix_of_long_prime_chain(rng: random.Random):
    d = prime_chain(rng, 600)
    for up, down in LONG_CHAIN_TABLES:
        x = FiniteBiquandle(m=3, up=up, down=down)
        assert coloring_matrix(d, x) == oracle_transfer_matrix(d, x)


def test_coloring_matrix_of_very_long_chain_is_fast(rng: random.Random):
    d = prime_chain(rng, 20_000)
    up, down = LONG_CHAIN_TABLES[0]
    for x in (FiniteBiquandle(m=3, up=up, down=down), dihedral_quandle(5)):
        started = time.perf_counter()
        matrix = coloring_matrix(d, x)
        assert time.perf_counter() - started < 30.0
        assert len(matrix) == x.m


def test_deep_poke_tower_descends_to_nothing():
    """O a1..ak bk..b1 U a1..ak bk..b1 with alternating signs: 10,000
    pokes, so a descent that rescans the line per removal is quadratic."""
    k = 10_000
    sign = {i: "+-"[i % 2] for i in range(1, k + 1)}
    sign.update({2 * k + 1 - i: "-+"[i % 2] for i in range(1, k + 1)})  # b_i is 2k+1-i
    order = [*range(1, k + 1), *range(k + 1, 2 * k + 1)]
    d = parse_gauss_code(" ".join(f"{role}{i}{sign[i]}" for role in "OU" for i in order))
    started = time.perf_counter()
    assert _descend(d.endpoints, d.signs) == ((), ())
    for x in (dihedral_quandle(3), WITNESS_STRUCTURE):
        assert coloring_matrix(d, x) == mat_identity(x.m)
    assert time.perf_counter() - started < 10.0


def test_counter_agrees_on_undescended_move_neighbours(rng: random.Random):
    """Descent gives a diagram and its kink or poke neighbours one cache
    entry, so criterion 2 compares one matrix with itself there; the raw
    count of each undescended canonical diagram must still agree."""
    structures = [dihedral_quandle(3), dihedral_quandle(5)]
    structures += (enumerate_biquandles(3) + enumerate_biquandles(4))[::5]
    for i in range(60):  # criterion 2's inputs under dz3 and dz5, smaller ones under all
        d = mixed_diagram(rng, 8 if i < 30 else 5)
        family = [canonicalize(d)] + [child for _, child in enumerate_moves(d, cap=d.n + 1)]
        for x in structures[: 2 if i < 30 else None]:
            count = invariants._counter(x.m, x.up, x.down, x.kind)
            for c in family:
                assert count(c.endpoints, c.signs) == coloring_matrix(c, x), (x.name, c)


def _orbit_maps(x: FiniteBiquandle) -> tuple:
    count = invariants._counter(x.m, x.up, x.down, x.kind)
    return count.args[2] if count.func is invariants._stack_count else None


def test_counter_orbits_are_automorphism_orbits():
    """Every map the counter uses commutes with S, and each color's
    representative is the least color of its orbit under all m! maps."""
    structures = enumerate_biquandles(3) + enumerate_biquandles(4)
    structures += [trivial_quandle(4), dihedral_quandle(4), dihedral_quandle(6)]
    orbit_counts: dict[int, int] = {}
    for x in structures:
        orbits = _orbit_maps(x)
        if orbits is None:
            continue  # linear over GF(p): counted in one pass
        m = x.m
        autos = [p for p in itertools.permutations(range(m))
                 if all(x.s_map(p[u], p[o]) == tuple(p[v] for v in x.s_map(u, o))
                        for u in range(m) for o in range(m))]
        for a, (r, p) in enumerate(orbits):
            assert p in autos and p[r] == a, (x.name, a)
            assert r == min(q.index(a) for q in autos), (x.name, a)
        if m == 4 and x.name.startswith("biq:"):
            reps = len({r for r, _ in orbits})
            orbit_counts[reps] = orbit_counts.get(reps, 0) + 1
    assert orbit_counts == {1: 19, 2: 57, 3: 22}


def test_counter_components_are_the_structures_components():
    """The counter guesses inside exactly the components found here by
    union-find; pins how the order-4 classes split."""
    structures = [x for m in range(1, 5) for x in enumerate_biquandles(m)]
    structures += [trivial_quandle(4), dihedral_quandle(4), dihedral_quandle(6)]
    profile: dict[tuple, int] = {}
    for x in structures:
        comps = _components(x)
        count = invariants._counter(x.m, x.up, x.down, x.kind)
        if count.func is invariants._stack_count:
            assert [frozenset(c) for c in count.args[3]] == comps, x.name
        if x.m == 4 and x.name.startswith("biq:"):
            sizes = tuple(sorted(len(c) for c in set(comps)))
            profile[sizes] = profile.get(sizes, 0) + 1
    assert profile == {(4,): 17, (2, 2): 32, (1, 3): 29, (1, 1, 2): 19, (1, 1, 1, 1): 1}


def test_counter_prepares_large_symmetric_structures_fast():
    """A depth-first search for each needed map, not a walk over all 12!."""
    for x in (trivial_quandle(12), dihedral_quandle(12)):
        started = time.perf_counter()
        invariants._counter.__wrapped__(x.m, x.up, x.down, x.kind)
        assert time.perf_counter() - started < 1.0, x.name
        assert len({r for r, _ in _orbit_maps(x)}) == 1
        assert coloring_matrix(INTERLEAVED, x) == oracle_transfer_matrix(INTERLEAVED, x)


def test_matrix_product_law(rng: random.Random):
    structures = [dihedral_quandle(3), dihedral_quandle(5), WITNESS_STRUCTURE]
    for _ in range(40):
        a = random_diagram(rng, rng.randint(0, 4))
        b = random_diagram(rng, rng.randint(0, 4))
        ab = concat(a, b)
        for x in structures:
            assert coloring_matrix(ab, x) == mat_mul(
                coloring_matrix(a, x), coloring_matrix(b, x)
            )


def test_commutator_witness_frozen_pair():
    a = parse_gauss_code("O1+ U2- U1+ O2-")
    b = parse_gauss_code("U1+ O2- O1+ U2-")
    hit = commutator_witness(a, b, WITNESS_STRUCTURE)
    assert hit == (0, 1, 4, 0)
    left = mat_mul(coloring_matrix(a, WITNESS_STRUCTURE), coloring_matrix(b, WITNESS_STRUCTURE))
    right = mat_mul(coloring_matrix(b, WITNESS_STRUCTURE), coloring_matrix(a, WITNESS_STRUCTURE))
    assert (left[0][1], right[0][1]) == (4, 0)


def test_commutator_witness_none_for_commuting_pairs():
    assert commutator_witness(TREFOIL, VT, dihedral_quandle(3)) is None
    assert commutator_witness(VT, INTERLEAVED, dihedral_quandle(3)) is None


def test_structure_holds_its_counter():
    """A structure looks its counting function up once and keeps it;
    equality, hashing and ``dataclasses.replace`` see only the tables."""
    x = dihedral_quandle(3)
    assert x._count is None
    coloring_matrix(TREFOIL, x)
    count = x._count
    assert count is invariants._counter(x.m, x.up, x.down, x.kind)
    commutator_witness(TREFOIL, INTERLEAVED, x)
    assert x._count is count
    fresh = dihedral_quandle(3)
    assert fresh == x and hash(fresh) == hash(x)
    copy = dataclasses.replace(x)
    assert copy == x and hash(copy) == hash(x) and copy._count is None
    renamed = dataclasses.replace(x, name="other")
    assert renamed != x and renamed._count is None


# Scalar coloring matrices other than the identity: 0 under biq:3:012,
# 3*I under biq:3:002.
SCALAR_SIDE = parse_gauss_code(
    "O1- U2- U3- O4+ O3- U1- U4+ O5- U6+ O2- O7- O8+ U5- U8+ U7- O6+")


def _eager_witness(ma, mb):
    """The first entry where ma*mb and mb*ma differ, rows first, or None."""
    left, right = mat_mul(ma, mb), mat_mul(mb, ma)
    return next(((i, j, left[i][j], right[i][j]) for i in range(len(ma))
                 for j in range(len(ma)) if left[i][j] != right[i][j]), None)


def _clear_factor_caches():
    invariants._factors.cache_clear()
    invariants._matrices.cache_clear()


def test_commutator_witness_matches_eager_witness(rng: random.Random):
    """Counting one side at a time, and stopping at a scalar side, gives
    the witness that full oracle matrices give, in both argument orders,
    whatever the factor caches already hold."""
    structures = [dihedral_quandle(3), dihedral_quandle(5), WITNESS_STRUCTURE]
    structures += [x for m in (1, 2, 3) for x in enumerate_biquandles(m)]
    frozen = (parse_gauss_code("O1+ U2- U1+ O2-"), parse_gauss_code("U1+ O2- O1+ U2-"))
    # the frozen pair has a witness; SCALAR_SIDE is 0 or 3*I under two classes
    pairs = [frozen, (SCALAR_SIDE, frozen[0])]
    pairs += [(mixed_diagram(rng, 6), mixed_diagram(rng, 6)) for _ in range(12)]
    for x in structures:
        oracle = {}
        for a, b in pairs:
            for d in (a, b):
                if d not in oracle:
                    oracle[d] = oracle_transfer_matrix(d, x)
            for first, second in ((a, b), (b, a)):
                want = _eager_witness(oracle[first], oracle[second])
                _clear_factor_caches()
                assert commutator_witness(first, second, x) == want, (x.name, first, second)
                assert commutator_witness(first, second, x) == want
                _clear_factor_caches()
                coloring_matrix(second, x)
                assert commutator_witness(first, second, x) == want


def test_scalar_side_settles_the_commutator():
    """Once one side's matrix is known to be c*I, or is counted first and
    found to be, the other side is not counted: its factor caches gain
    no entry."""
    cases = [(structure_from_spec("biq:3:012"), 0), (structure_from_spec("biq:3:002"), 3)]
    others = [parse_gauss_code("O1+ U2- U1+ O2-"), INTERLEAVED, FIG8]
    for x, c in cases:
        assert coloring_matrix(SCALAR_SIDE, x) == tuple(
            tuple(c if i == j else 0 for j in range(3)) for i in range(3))
        for other, known_first in itertools.product(others, (True, False)):
            _clear_factor_caches()
            if known_first:
                coloring_matrix(SCALAR_SIDE, x)
                assert commutator_witness(other, SCALAR_SIDE, x) is None
            assert commutator_witness(SCALAR_SIDE, other, x) is None
            factors = invariants._factors(other.endpoints, other.signs)
            assert factors and all(not known for _, _, known in factors), (x.name, other)


def test_commutator_witness_agrees_with_products(rng: random.Random, corpus):
    diagrams = list(corpus.values())
    structures = [dihedral_quandle(3), WITNESS_STRUCTURE]
    for _ in range(40):
        a = diagrams[rng.randrange(len(diagrams))]
        b = diagrams[rng.randrange(len(diagrams))]
        for x in structures:
            ma, mb = coloring_matrix(a, x), coloring_matrix(b, x)
            commutes = mat_mul(ma, mb) == mat_mul(mb, ma)
            assert (commutator_witness(a, b, x) is None) == commutes


# sha256 of repr([(name, up, down, kind) ...]) over the orders 1..4, frozen
# from the exhaustive search that generated every relabelled copy
CATALOG_DIGEST = "3114a3dac1dd2cc40d5627a03027befa16b2d9bf0f0684eb2cee3d2c834e2293"


def test_enumeration_counts_small_sizes():
    by_order = {m: enumerate_biquandles(m) for m in range(1, 5)}
    assert [len(by_order[m]) for m in range(1, 5)] == [1, 2, 15, 98]
    assert [sum(x.kind == "quandle" for x in by_order[m]) for m in range(1, 5)] == [
        1, 1, 3, 7,
    ]
    for structures in by_order.values():
        for x in structures:
            assert check_axioms(x) is True
    assert by_order[4][52] == WITNESS_STRUCTURE
    rows = [(x.name, x.up, x.down, x.kind) for m in range(1, 5) for x in by_order[m]]
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == CATALOG_DIGEST


# the same digest over order 5 alone, frozen from the exhaustive search
ORDER_5_DIGEST = "bf092d29baff8b6f884523369c14a49cbf76946d9e2346ea909e5407620d37d8"


def test_enumeration_order_5():
    """1,062 classes, 22 of them quandles (OEIS A181769), in seconds;
    31 of them have a single component."""
    started = time.perf_counter()
    structures = enumerate_biquandles(5)
    elapsed = time.perf_counter() - started
    assert len(structures) == 1062
    assert sum(x.kind == "quandle" for x in structures) == 22
    assert all(check_axioms(x) is True for x in structures)
    rows = [(x.name, x.up, x.down, x.kind) for x in structures]
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == ORDER_5_DIGEST
    assert sum(len(set(_components(x))) == 1 for x in structures) == 31
    assert elapsed < 30.0, f"order 5 took {elapsed:.1f} s"


def test_enumeration_runs_one_full_canonical_form_per_class(monkeypatch):
    """Orderly search under the kink permutation's centralizer leaves one
    table per class, so the m! relabelling runs once per class."""
    calls = []
    full_form = enumerator.canonical_table_form

    def counted(up, down):
        calls.append(up)
        return full_form(up, down)

    monkeypatch.setattr(enumerator, "canonical_table_form", counted)
    fresh = enumerator.classes.__wrapped__(4)
    assert len(calls) == len(fresh) == 98
    assert list(fresh) == enumerate_biquandles(4)
    assert enumerate_biquandles(4) is not enumerate_biquandles(4)


def test_structure_file_refused_from_its_header(tmp_path):
    """A file: structure past the ceiling is refused on its header line,
    before any table row is read."""
    path = tmp_path / "header_only.txt"
    # int() reads underscore digits, so 1_500 and 0_65 are orders too
    for size in ("65", "1_500", "0_65", "0", "-3"):
        path.write_text(f"# no rows follow\n\n{size} quandle\n")
        with pytest.raises(InvalidStructure, match=r"size in structure spec .* in 1\.\.64"):
            structure_from_spec(f"file:{path}")
    path.write_text("2 quandle\n0 0\n1 1\n")
    x = structure_from_spec(f"file:{path}")
    assert (x.up, x.down, x.kind, x.name) == (
        trivial_quandle(2).up, trivial_quandle(2).down, "quandle", f"file:{path}")

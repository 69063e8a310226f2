"""The three workloads: seeded request streams and their known answers.

A workload is a stream of rounds.  Round ``r`` of seed ``s`` is made by
``random.Random(f"{s}:{workload}:{r}")``, so it is the same on every
commit and for every run length.  Each round has a fixed composition,
and the request classes are interleaved inside it, so a run that stops
partway through a round still sees the workload's mix.  Requests carry
only Gauss codes; parsing them is part of the request.

Each request has a ``check`` that compares its answer with a reference
from ``reference.py`` or with a known answer fixed when the input was
made (a walked pair is equivalent by construction, a chain's matrix is
the product of its factors' matrices).  A check returns ``None`` or a
message.

Why these three:

* ``search``: the queries of interactive use (walked pairs,
  random pairs, corpus orbit walks, the flagship commute), so ``moves``,
  ``gauss`` and ``search`` do most of the work.  Early meetings sit
  beside budget-exhausting walks, so an orbit-walker change that helps
  one and costs the other shows.
* ``invariants``: bulk invariant evaluation with no search, over mostly
  distinct inputs, from small diagrams and their one-move neighbours up
  to 300-chord chains; it loads both coloring paths, ``monoid`` and
  ``surface``.
* ``witness_scan``: the paper's headline result, certifying that two
  knots do not commute, over order-4 structures; every diagram appears
  in many pairs, so most coloring calls repeat an earlier one.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Callable

import reference as ref

WORKLOADS = ("search", "invariants", "witness_scan")

# Largest structure order enumerated at set-up, per workload.
ENUM_ORDER = {"search": 0, "invariants": 3, "witness_scan": 4}
# Rounds per second of request time when the benchmark was written
# (2 cores, Python 3.11).  A run makes seconds x rate rounds, so its
# length is set by the benchmark, not by the speed of the code under test.
ROUNDS_PER_SECOND = {"search": 2.0, "invariants": 1.1, "witness_scan": 3.5}


@dataclass
class Request:
    """One library call: its inputs, how to make it, and how to judge it."""

    kind: str
    codes: tuple[str, ...]
    run: Callable[[], Any]
    check: Callable[[Any], str | None]
    decided: Callable[[Any], bool] = lambda result: True
    outcome: Callable[[Any], str] | None = None
    chords: int = 0
    result: Any = None


@dataclass(frozen=True)
class Corpus:
    codes: dict[str, str]
    classical: frozenset[str]
    virtual: frozenset[str]

    @classmethod
    def load(cls, lvk) -> Corpus:
        classical = {name: lvk.serialize(d) for name, d in lvk.classical_corpus().items()}
        virtual = {name: lvk.serialize(d) for name, d in lvk.virtual_corpus().items()}
        return cls({**classical, **virtual}, frozenset(classical), frozenset(virtual))

    def genus(self, name: str) -> int:
        return ref.GENUS_VIRTUAL if name in self.virtual else ref.GENUS_CLASSICAL


# ---------------------------------------------------------------------------
# input generators (plain token lists; the library only sees their codes)
# ---------------------------------------------------------------------------


def random_tokens(rng: random.Random, n: int) -> list[tuple[int, str, int]]:
    """Uniform random diagram with n chords, canonically labelled."""
    slots = list(range(2 * n))
    rng.shuffle(slots)
    line: list = [None] * (2 * n)
    for label in range(1, n + 1):
        a, b = slots[2 * label - 2], slots[2 * label - 1]
        sign = rng.choice((1, -1))
        if rng.random() < 0.5:
            a, b = b, a
        line[a] = (label, "O", sign)
        line[b] = (label, "U", sign)
    return ref.tokens_of(ref.canonical_code(line))


def prime_chain(rng: random.Random, n: int) -> list[tuple[int, str, int]]:
    """``O1 O2 U1 O3 U2 ... On U(n-1) Un``: no interior cut point."""
    signs = [rng.choice((1, -1)) for _ in range(n + 1)]
    out = [(1, "O", signs[1])]
    for i in range(2, n + 1):
        out += [(i, "O", signs[i]), (i - 1, "U", signs[i - 1])]
    out.append((n, "U", signs[n]))
    return out


def walk(lvk, rng: random.Random, code: str, steps: int, cap: int) -> str:
    """Random move walk through the library's own move listing."""
    d = lvk.parse_gauss_code(code)
    for _ in range(steps):
        options = lvk.enumerate_moves(d, cap=cap)
        if not options:
            break
        d = options[rng.randrange(len(options))][1]
    return lvk.serialize(d)


def neighbour(lvk, rng: random.Random, code: str, cap: int) -> str:
    options = lvk.enumerate_moves(lvk.parse_gauss_code(code), cap=cap)
    return lvk.serialize(options[rng.randrange(len(options))][1])


def _n(code: str) -> int:
    return 0 if code in ("", "0") else len(code.split(" ")) // 2


# ---------------------------------------------------------------------------
# search
# ---------------------------------------------------------------------------

# Explicit budgets: under default_budget (10^6 states) one random pair
# searched for minutes.  Walked pairs meet within their walk length.
WALKED_STATES, WALKED_DEPTH = 4_000, 8
RANDOM_STATES, RANDOM_DEPTH = 600, 6
CORPUS_STATES, CORPUS_DEPTH = 300, 16
FLAGSHIP_STATES, FLAGSHIP_DEPTH = 20_000, 16
FLAGSHIP_EVERY = 16  # rounds between flagship commutes
WALK_SIZES = (3, 4, 4, 4, 5, 6)  # start chords of one round's walked pairs
# (max_crossings, max_states, max_depth) of each search request, as text.
BUDGETS = {
    "walked_pair": f"(n + 2, {WALKED_STATES}, {WALKED_DEPTH}), n = start chords",
    "random_pair": f"(n + 1, {RANDOM_STATES}, {RANDOM_DEPTH}), n = larger input",
    "prime_scan": f"(n + 2, {CORPUS_STATES}, {CORPUS_DEPTH})",
    "min_genus": f"(n + 2, {CORPUS_STATES}, {CORPUS_DEPTH})",
    "flagship_commute": f"(6, {FLAGSHIP_STATES}, {FLAGSHIP_DEPTH})",
}


def _verdict_check(lvk, start: str, end: str, must_not_be: str | None):
    def check(v) -> str | None:
        if v.verdict == must_not_be:
            return f"{v.verdict} for a pair known otherwise"
        if v.verdict == "equivalent":
            replay = lvk.parse_gauss_code(start)
            for event in v.path:
                replay = lvk.apply_move(replay, event)
            if ref.canonical_code(ref.tokens_of(lvk.serialize(replay))) != ref.canonical_code(
                ref.tokens_of(end)
            ):
                return "equivalent path does not replay"
        if v.verdict == "distinct":
            return _witness_error(lvk, start, end, v.witness)
        return None

    return check


def _witness_error(lvk, a: str, b: str, witness: dict | None) -> str | None:
    if not witness:
        return "distinct without a witness"
    ta, tb = ref.tokens_of(a), ref.tokens_of(b)
    if witness["invariant"] == "odd_writhe":
        want = (ref.odd_writhe(ta), ref.odd_writhe(tb))
        if want != (witness["left"], witness["right"]) or want[0] == want[1]:
            return f"odd writhe witness {witness} disagrees with reference {want}"
        return None
    family, _, size = witness["structure"].partition(":")
    if family != "dihedral":
        return f"unexpected witness structure {witness['structure']}"
    m = int(size)
    got = (tuple(map(tuple, witness["left"])), tuple(map(tuple, witness["right"])))
    if got[0] == got[1]:
        return "coloring witness with equal matrices"
    if not (_reference_affordable(ta, m) and _reference_affordable(tb, m)):
        return None
    up, down = ref.dihedral_tables(m)
    left = ref.coloring_matrix(ta, up, down)
    right = ref.coloring_matrix(tb, up, down)
    if got != (left, right):
        return f"coloring witness on {witness['structure']} disagrees with reference"
    return None


def _search_outcome(budget):
    def outcome(v) -> str:
        if v.verdict == "equivalent":
            return "met"
        if v.verdict == "distinct":
            return "invariant"
        # An exhausted frontier and the depth limit look alike from outside.
        return "budget" if v.states_visited > budget.max_states else "closed_or_depth"

    return outcome


def search_round(lvk, seed: int, r: int, corpus: Corpus) -> list[Request]:
    rng = random.Random(f"{seed}:search:{r}")
    Budget = lvk.Budget
    requests: list[Request] = []
    # Sizes and walk lengths follow a fixed pattern, so every seed has
    # the same size profile; the seed picks the diagrams and the moves.
    # Search cost steps up with n, and the pattern puts the median request
    # inside the n = 4 band rather than on the edge between two bands.
    for i, n in enumerate(WALK_SIZES):
        steps = 2 + (i + r) % 3
        cap = n + 2
        # A walk that comes back to its start (a kink made and removed)
        # would be a one-state request; walk again until it does not.
        end = start = ref.code_of(random_tokens(rng, n))
        while end == start:
            end = walk(lvk, rng, start, steps, cap)
        budget = Budget(cap, WALKED_STATES, WALKED_DEPTH)
        requests.append(Request(
            "walked_pair", (start, end),
            run=lambda s=start, e=end, b=budget: lvk.equivalent_within(
                lvk.parse_gauss_code(s), lvk.parse_gauss_code(e), budget=b),
            check=_verdict_check(lvk, start, end, must_not_be="distinct"),
            decided=lambda v: v.verdict != "inconclusive",
            outcome=_search_outcome(budget), chords=max(n, _n(end)),
        ))
    for i in range(2):
        a = ref.code_of(random_tokens(rng, 3 + (r + i) % 4))
        b = ref.code_of(random_tokens(rng, 3 + (r + i + 1) % 4))
        budget = Budget(max(_n(a), _n(b)) + 1, RANDOM_STATES, RANDOM_DEPTH)
        requests.append(Request(
            "random_pair", (a, b),
            run=lambda a=a, b=b, budget=budget: lvk.equivalent_within(
                lvk.parse_gauss_code(a), lvk.parse_gauss_code(b), budget=budget),
            check=_verdict_check(lvk, a, b, must_not_be=None),
            decided=lambda v: v.verdict != "inconclusive",
            outcome=_search_outcome(budget), chords=max(_n(a), _n(b)),
        ))
    rng.shuffle(requests)

    # Both orbit walks on one corpus diagram per round, in a fixed order,
    # so every seed walks the same diagrams.
    names = sorted(corpus.codes)
    name = names[r % len(names)]
    code = corpus.codes[name]
    budget = Budget(_n(code) + 2, CORPUS_STATES, CORPUS_DEPTH)
    requests.insert(rng.randrange(len(requests) + 1), Request(
        "prime_scan", (code,),
        run=lambda c=code, b=budget: lvk.prime_scan(lvk.parse_gauss_code(c), budget=b),
        check=_prime_scan_check,
        decided=lambda res: res["exhausted"],
        outcome=lambda res: "closed" if res["exhausted"] else "budget",
        chords=_n(code),
    ))
    requests.insert(rng.randrange(len(requests) + 1), Request(
        "min_genus", (code,),
        run=lambda c=code, b=budget: lvk.min_genus_in_orbit(lvk.parse_gauss_code(c), budget=b),
        check=lambda res, g=corpus.genus(name): (
            None if 0 <= res[0] <= g else f"orbit genus {res[0]} above the diagram's {g}"),
        decided=lambda res, b=budget: res[2] < b.max_states,
        outcome=lambda res, b=budget: "closed_or_depth" if res[2] < b.max_states else "budget",
        chords=_n(code),
    ))
    if r % FLAGSHIP_EVERY == 0:
        a, b = (corpus.codes[name] for name in ref.FLAGSHIP)
        budget = Budget(6, FLAGSHIP_STATES, FLAGSHIP_DEPTH)
        requests.insert(rng.randrange(len(requests) + 1), Request(
            "flagship_commute", (a, b),
            run=lambda a=a, b=b, budget=budget: lvk.commute_check(
                lvk.parse_gauss_code(a), lvk.parse_gauss_code(b), budget=budget),
            # The pair is known not to commute (the witness needs order 4).
            check=lambda v: (
                "equivalent verdict for a non-commuting pair" if v.verdict == "equivalent"
                else "distinct without a witness" if v.verdict == "distinct" and not v.witness
                else None),
            decided=lambda v: v.verdict != "inconclusive",
            outcome=_search_outcome(budget), chords=4,
        ))
    return requests


def _prime_scan_check(res: dict) -> str | None:
    for entry in res["decomposable"]:
        whole = ref.canonical_code(ref.tokens_of(entry["code"]))
        for cut in entry["cuts"]:
            joined = ref.concat_tokens(ref.tokens_of(cut["left"]), ref.tokens_of(cut["right"]))
            if ref.canonical_code(joined) != whole:
                return f"cut at gap {cut['gap']} does not rebuild {entry['code']}"
    return None


# ---------------------------------------------------------------------------
# invariants
# ---------------------------------------------------------------------------

KINKS = ("O1+ U1+", "U1+ O1+", "O1- U1-", "U1- O1-")
# Every round has the same four chain slots.  Chain cost is set by size
# and coloring path, not by the seed, so fixed slots keep each slot's
# latency band narrow and p90 inside one band.  A 300-chord prime chain
# takes 3-5 s on either path, too long for a run of a few seconds.
KINK_CHAIN = 150
CORPUS_CHAIN = 120
PRIME_CHAIN = 100
PAST_LIMIT_SIZES = (500, 550, 600)
SMALL_PER_ROUND = 5


def invariants_catalog(lvk) -> list:
    catalog = [lvk.dihedral_quandle(3), lvk.dihedral_quandle(5)]
    for m in range(1, ENUM_ORDER["invariants"] + 1):
        catalog += lvk.enumerate_biquandles(m)
    return catalog


def _invariants_call(lvk, code: str, x):
    d = lvk.parse_gauss_code(code)
    return (lvk.odd_writhe(d), lvk.supporting_genus(d), lvk.cut_points(d),
            lvk.coloring_matrix(d, x))


# A reference coloring count costs about m^(open chords + 2) per position;
# larger ones are skipped.
REF_WORK_LIMIT = 250_000


def _reference_affordable(tokens, m: int) -> bool:
    return m ** (ref.max_open_chords(tokens) + 2) * len(tokens) <= REF_WORK_LIMIT


def _invariants_check(tokens, x, genus=None, matrix=None, same_as=None):
    """Check one invariants answer.

    ``genus``/``matrix`` are known answers for chains; ``same_as`` is the
    request of the diagram one move away, whose answer must agree.
    """
    n = len(tokens) // 2

    def check(res) -> str | None:
        writhe, g, cuts, mat = res
        if writhe != ref.odd_writhe(tokens):
            return f"odd writhe {writhe} != reference {ref.odd_writhe(tokens)}"
        if cuts != ref.cut_points(tokens):
            return "cut points disagree with reference"
        if genus is not None and g != genus:
            return f"genus {g} != known {genus}"
        if not 0 <= g <= (n + 1) // 2:
            return f"genus {g} out of range for {n} chords"
        want = matrix
        if want is None and _reference_affordable(tokens, x.m):
            want = ref.coloring_matrix(tokens, x.up, x.down)
        if want is not None and mat != want:
            return f"coloring matrix on {x.name} disagrees with reference"
        if same_as is not None:
            base = same_as.result
            if base is not None and (base[0], base[3]) != (writhe, mat):
                return f"invariants changed across one move on {x.name}"
        return None

    return check


def invariants_round(lvk, seed: int, r: int, corpus: Corpus, catalog) -> list[Request]:
    rng = random.Random(f"{seed}:invariants:{r}")
    requests: list[Request] = []
    for i in range(SMALL_PER_ROUND):
        n = 4 + (2 * i + r) % 9
        if (i + r) % 2:
            code = ref.code_of(random_tokens(rng, n))
        else:
            code = walk(lvk, rng, ref.code_of(random_tokens(rng, n - 2)), rng.randint(1, 3), n)
        near = neighbour(lvk, rng, code, _n(code) + 1)
        # Structures are dealt in turn, not drawn: coloring cost depends
        # on the structure far more than on the diagram.
        x = catalog[(SMALL_PER_ROUND * r + i) % len(catalog)]
        base = Request("small", (code,), run=lambda c=code, x=x: _invariants_call(lvk, c, x),
                       check=_invariants_check(ref.tokens_of(code), x), chords=_n(code))
        requests.append(base)
        requests.append(Request(
            "neighbour", (near,), run=lambda c=near, x=x: _invariants_call(lvk, c, x),
            check=_invariants_check(ref.tokens_of(near), x, same_as=base), chords=_n(near)))

    x = catalog[r % len(catalog)]
    pieces = [ref.tokens_of(rng.choice(KINKS)) for _ in range(KINK_CHAIN)]
    requests.insert(rng.randrange(len(requests) + 1), _chain_request(lvk, "kink_chain", pieces, x, 0))
    # Band-surface genus is not additive (two interleaved_pair factors
    # give genus 1), so corpus chains get no genus answer.
    factors = [name for name in sorted(corpus.codes) if corpus.codes[name]]
    pieces = []
    while sum(len(p) for p in pieces) // 2 < CORPUS_CHAIN:
        pieces.append(ref.tokens_of(corpus.codes[rng.choice(factors)]))
    x = catalog[(r + 7) % len(catalog)]
    requests.insert(rng.randrange(len(requests) + 1),
                    _chain_request(lvk, "corpus_chain", pieces, x, None))
    # One prime chain on the GF(p) path (dense elimination), one on the
    # backtracking path of an enumerated structure.
    for x in (catalog[r % 2], catalog[2 + r % (len(catalog) - 2)]):
        tokens = prime_chain(rng, PRIME_CHAIN)
        code = ref.code_of(tokens)
        requests.insert(rng.randrange(len(requests) + 1), Request(
            "prime_chain", (code,), run=lambda c=code, x=x: _invariants_call(lvk, c, x),
            check=_invariants_check(tokens, x), chords=PRIME_CHAIN))
    # Each neighbour stays after its base, whose answer it is checked against.
    return requests


def _chain_request(lvk, kind, pieces, x, genus) -> Request:
    tokens = ref.concat_tokens(*pieces)
    code = ref.code_of(tokens)
    return Request(kind, (code,), run=lambda: _invariants_call(lvk, code, x),
                   check=_invariants_check(tokens, x, genus=genus, matrix=_chain_product(pieces, x)),
                   chords=len(tokens) // 2)


def _chain_product(pieces, x):
    """Product of the factors' reference matrices, multiplied here."""
    cache: dict[str, tuple] = {}
    product = tuple(tuple(int(i == j) for j in range(x.m)) for i in range(x.m))
    for piece in pieces:
        key = ref.code_of(piece)
        if key not in cache:
            cache[key] = ref.coloring_matrix(piece, x.up, x.down)
        product = ref.mat_mul(product, cache[key])
    return product


def past_limit_probes(lvk, seed: int) -> list[Request]:
    """Prime chains past the recursion limit under non-linear structures."""
    rng = random.Random(f"{seed}:invariants:past_limit")
    structures = [lvk.FiniteBiquandle(m=3, up=up, down=down, name=f"past_limit:{i}")
                  for i, (up, down) in enumerate(ref.PAST_LIMIT_TABLES)]
    probes = []
    for size in PAST_LIMIT_SIZES:
        tokens = prime_chain(rng, size)
        x = structures[rng.randrange(len(structures))]
        code = ref.code_of(tokens)
        probes.append(Request(
            "past_limit", (code,), run=lambda c=code, x=x: _invariants_call(lvk, c, x),
            check=_invariants_check(tokens, x), chords=size))
    return probes


# ---------------------------------------------------------------------------
# witness_scan
# ---------------------------------------------------------------------------

NEW_PER_ROUND = 2
POOL_PAIRS_PER_ROUND = 4
CORPUS_PAIRS_PER_ROUND = 6


def witness_catalog(lvk, max_order: int) -> list:
    catalog = [lvk.dihedral_quandle(3), lvk.dihedral_quandle(5), lvk.trivial_quandle(2)]
    for m in range(1, max_order + 1):
        catalog += lvk.enumerate_biquandles(m)
    return catalog


def scan_pair(lvk, a: str, b: str, catalog):
    """First structure whose matrices for a and b fail to commute."""
    da, db = lvk.parse_gauss_code(a), lvk.parse_gauss_code(b)
    for index, x in enumerate(catalog):
        hit = lvk.commutator_witness(da, db, x)
        if hit is not None:
            return index + 1, x, hit
    return len(catalog), None, None


def corpus_pairs(corpus: Corpus) -> list[tuple[str, str]]:
    """Every classical factor with every diagram, every virtual pair.

    The order is fixed, not seeded, with the flagship pair first so that
    every run checks its witness.
    """
    names = sorted(corpus.codes)
    virtual = sorted(corpus.virtual)
    pairs = [(c, o) for c in sorted(corpus.classical) for o in names]
    pairs += [(virtual[i], b) for i in range(len(virtual)) for b in virtual[i + 1:]]
    pairs.remove(ref.FLAGSHIP)
    random.Random("corpus pairs").shuffle(pairs)
    return [ref.FLAGSHIP] + pairs


def _witness_check(a_name, b_name, a: str, b: str, classical: bool, order4: bool):
    """No witness for a classical factor; the flagship's frozen witness
    (it needs the order-4 structures); any other witness recomputed."""

    def check(res) -> str | None:
        _, x, hit = res
        if classical:
            return None if hit is None else f"classical factor witnessed by {x.name}"
        if (a_name, b_name) == ref.FLAGSHIP and order4:
            entry, left, right = ref.FLAGSHIP_WITNESS
            if hit is None or (list(hit[:2]), hit[2], hit[3]) != (entry, left, right):
                return f"flagship witness {hit} != entry {entry}, {left} vs {right}"
        if hit is None:
            return None
        ta, tb = ref.tokens_of(a), ref.tokens_of(b)
        if not (_reference_affordable(ta, x.m) and _reference_affordable(tb, x.m)):
            return None
        ma = ref.coloring_matrix(ta, x.up, x.down)
        mb = ref.coloring_matrix(tb, x.up, x.down)
        want = ref.first_difference(ref.mat_mul(ma, mb), ref.mat_mul(mb, ma))
        return None if tuple(hit) == want else f"witness {hit} on {x.name}, reference {want}"

    return check


def witness_round(lvk, seed: int, r: int, corpus: Corpus, catalog,
                  pool: list[str], order: list[tuple[str, str]]) -> list[Request]:
    """``pool`` collects this run's seeded virtual diagrams across rounds."""
    rng = random.Random(f"{seed}:witness_scan:{r}")
    for i in range(NEW_PER_ROUND):
        # The first scan of a new diagram costs about 4^(open chords) per
        # structure: 0.06 s at four open chords, 0.15 s at five, 4 s at
        # eight.  Sizes and widths follow a fixed pattern so that every
        # seed has the same cost profile.
        k = NEW_PER_ROUND * r + i
        n, width = 6 + k % 3, 4 + (k // 3) % 2
        while True:
            tokens = random_tokens(rng, n)
            if ref.odd_writhe(tokens) != 0 and ref.max_open_chords(tokens) == width:
                break  # certified non-classical, at the slot's width
        pool.append(ref.code_of(tokens))
    requests = []
    order4 = any(x.m == 4 for x in catalog)
    fresh = pool[-NEW_PER_ROUND:]
    for i in range(POOL_PAIRS_PER_ROUND):
        a = fresh[i % NEW_PER_ROUND] if i < NEW_PER_ROUND else pool[rng.randrange(len(pool))]
        b = pool[rng.randrange(len(pool))]
        if rng.random() < 0.5:
            a, b = b, a
        requests.append(_witness_request(lvk, "pool_pair", a, b, catalog,
                                         _witness_check(None, None, a, b, False, order4)))
    for i in range(CORPUS_PAIRS_PER_ROUND):
        a_name, b_name = order[(r * CORPUS_PAIRS_PER_ROUND + i) % len(order)]
        a, b = corpus.codes[a_name], corpus.codes[b_name]
        classical = a_name in corpus.classical or b_name in corpus.classical
        requests.append(_witness_request(lvk, "corpus_pair", a, b, catalog,
                                         _witness_check(a_name, b_name, a, b, classical, order4)))
    rng.shuffle(requests)
    return requests


def _witness_request(lvk, kind, a, b, catalog, check) -> Request:
    return Request(kind, (a, b), run=lambda: scan_pair(lvk, a, b, catalog), check=check,
                   outcome=lambda res: "witnessed" if res[2] is not None else "commuting",
                   chords=max(_n(a), _n(b)))

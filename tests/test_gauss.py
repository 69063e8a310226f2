from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from longvk.gauss import (
    GaussCodeError,
    LabelArity,
    MalformedToken,
    OpenGaussDiagram,
    RoleClash,
    SignClash,
    UnknownLabel,
    _read_code,
    _unchecked,
    canonicalize,
    linked,
    mirror,
    parse_gauss_code,
    serialize,
)
from strategies import random_diagram

VT = "O1+ O2+ U1+ U2+"
TREFOIL = "O1+ U2+ O3+ U1+ O2+ U3+"


def test_trivial_spellings():
    for text in ("", "0"):
        d = parse_gauss_code(text)
        assert d.n == 0
        assert serialize(d) == ""
    # the grammar is strict: surrounding whitespace is not part of it
    with pytest.raises(MalformedToken):
        parse_gauss_code(" 0 ")
    with pytest.raises(MalformedToken):
        parse_gauss_code("  ")


def _three_builds() -> list[OpenGaussDiagram]:
    """``O7+ O3- U7+ U3-`` parsed with its scattered labels, and its
    canonical form read back by ``_read_code`` and built by ``_unchecked``."""
    canonical = (((1, "O"), (2, "O"), (1, "U"), (2, "U")), ((1, 1), (2, -1)))
    return [parse_gauss_code("O7+ O3- U7+ U3-"), _read_code("O1+ O2- U1+ U2-"),
            _unchecked(OpenGaussDiagram, *canonical)]


def test_parse_positions_and_signs():
    d = parse_gauss_code(VT)
    assert d.n == 2
    assert d.positions(1) == (1, 3)
    assert d.positions(2) == (2, 4)
    assert d.sign(1) == 1 and d.sign(2) == 1
    assert d.endpoint(1) == (1, "O")
    assert d.endpoint(3) == (1, "U")
    scattered, read, unchecked = _three_builds()
    assert scattered.positions(7) == (1, 3) and scattered.positions(3) == (2, 4)
    assert scattered.sign(7) == 1 and scattered.sign(3) == -1
    for c in (read, unchecked):
        assert c.positions(1) == (1, 3) and c.positions(2) == (2, 4)
        assert c.sign(1) == 1 and c.sign(2) == -1


def test_chord_table_stays_out_of_equality_and_hash():
    for used, fresh in zip(_three_builds(), _three_builds()):
        used.positions(used.labels()[0])  # builds the cached table
        assert "_chords" in vars(used) and "_chords" not in vars(fresh)
        assert used == fresh and hash(used) == hash(fresh)
        assert {used: 1}[fresh] == 1


def test_serialize_round_trip_known():
    for code in (VT, TREFOIL, "O1+ U1+", "U1- O1-"):
        assert serialize(parse_gauss_code(code)) == code


def test_parse_rejects_malformed_tokens():
    bad = [
        "O1",          # missing sign
        "1+",          # missing role
        "Q1+",         # bad role letter
        "O01+",        # leading zero
        "O0+",         # zero label
        "O1 +",        # split token
        "O1+  U1-",    # double space
        " O1+ U1+",    # leading space
        "O1+ U1+ ",    # trailing space
        "O1+\tU1+",    # tab separator
        "o1+ u1+",     # lowercase
        "O1++",        # trailing junk
    ]
    for text in bad:
        with pytest.raises(MalformedToken):
            parse_gauss_code(text)


def test_parse_rejects_label_arity():
    with pytest.raises(LabelArity):
        parse_gauss_code("O1+ U1+ O1+")
    with pytest.raises(LabelArity):
        parse_gauss_code("O1+ U2+ U1+")


def test_parse_rejects_role_clash():
    with pytest.raises(RoleClash):
        parse_gauss_code("O1+ O1+")


def test_parse_rejects_sign_clash():
    with pytest.raises(SignClash):
        parse_gauss_code("O1+ U1-")


def test_error_hierarchy():
    for exc in (MalformedToken, LabelArity, RoleClash, SignClash, UnknownLabel):
        assert issubclass(exc, GaussCodeError)
        assert issubclass(exc, ValueError)


def test_accessor_unknown_label():
    for d in [parse_gauss_code(VT), *_three_builds()]:
        for absent in (0, 9, 4):
            with pytest.raises(UnknownLabel):
                d.positions(absent)
            with pytest.raises(UnknownLabel):
                d.sign(absent)


def test_canonicalize_relabels_by_first_appearance():
    d = parse_gauss_code("O7- U3+ U7- O3+")
    c = canonicalize(d)
    assert serialize(c) == "O1- U2+ U1- O2+"
    # canonicalization is a pure relabelling: roles stay put
    assert [role for _, role in c.endpoints] == [role for _, role in d.endpoints]
    assert canonicalize(c) == c


def test_parse_serialize_equals_canonicalize_fuzz(rng: random.Random):
    for _ in range(300):
        d = random_diagram(rng, rng.randint(0, 9))
        again = parse_gauss_code(serialize(d))
        assert again == canonicalize(d)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**31), n=st.integers(0, 8))
def test_round_trip_property(seed: int, n: int):
    d = random_diagram(random.Random(seed), n)
    assert parse_gauss_code(serialize(d)) == canonicalize(d)


def test_serialize_injective_on_sample(rng: random.Random):
    seen: dict[str, OpenGaussDiagram] = {}
    for _ in range(500):
        d = random_diagram(rng, rng.randint(0, 6))
        code = serialize(d)
        if code in seen:
            assert seen[code] == d
        seen[code] = d


def test_mirror_swaps_roles_and_signs():
    assert serialize(mirror(parse_gauss_code(VT))) == "U1- U2- O1- O2-"
    assert serialize(mirror(parse_gauss_code("O1+ U1+"))) == "U1- O1-"


def test_mirror_is_an_involution(rng: random.Random):
    for _ in range(100):
        d = random_diagram(rng, rng.randint(0, 7))
        assert mirror(mirror(d)) == canonicalize(d)


def test_linked_examples():
    d = parse_gauss_code(VT)
    assert linked(d, 1, 2)
    assert linked(d, 2, 1)
    nested = parse_gauss_code("O1+ O2+ U2+ U1+")
    assert not linked(nested, 1, 2)
    side_by_side = parse_gauss_code("O1+ U1+ O2+ U2+")
    assert not linked(side_by_side, 1, 2)


def test_diagram_validation_rejects_bad_tuples():
    with pytest.raises(GaussCodeError):
        OpenGaussDiagram(endpoints=((1, "O"),), signs=((1, 1),))
    with pytest.raises(GaussCodeError):
        OpenGaussDiagram(endpoints=((1, "O"), (1, "U")), signs=())
    with pytest.raises(GaussCodeError):
        OpenGaussDiagram(endpoints=((1, "O"), (1, "U")), signs=((1, 2),))

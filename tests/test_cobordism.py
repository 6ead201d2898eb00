"""Word syntax: validation, constructors, composition, and the text format."""

import tracemalloc

import pytest

from frob2d.cobordism import (
    CobordismWord,
    Generator,
    WordError,
    closed_oriented_surface,
    closed_unoriented_surface,
    compose_words,
    identity_word,
    parse_word,
    serialize_word,
    tensor_words,
    validate_word,
)
from frob2d.linalg import MAX_CELLS, BudgetError

CUP, CAP = Generator.CUP, Generator.CAP
MULT, COMULT = Generator.MULT, Generator.COMULT
ID, SWAP = Generator.ID, Generator.SWAP
PHI, THETA = Generator.PHI, Generator.THETA


def word(*slices, orientation="oriented"):
    return CobordismWord(orientation, tuple(tuple(s) for s in slices))


def test_sphere_word_is_closed():
    assert validate_word(word([CUP], [CAP])) == (0, 0)


def test_torus_word_is_closed():
    assert validate_word(word([CUP], [COMULT], [MULT], [CAP])) == (0, 0)


def test_open_word_arities():
    assert validate_word(word([MULT], [COMULT])) == (2, 2)
    assert validate_word(word([ID, CUP])) == (1, 2)


def test_interface_mismatch_names_slice():
    with pytest.raises(WordError) as err:
        validate_word(word([MULT], [COMULT], [CAP], [CAP]))
    assert "slice 3" in str(err.value)


def test_trailing_extra_cap_detected():
    with pytest.raises(WordError) as err:
        validate_word(word([CUP], [CAP], [CAP]))
    assert "slice 3" in str(err.value)


def test_empty_slice_rejected():
    with pytest.raises(WordError) as err:
        validate_word(word([CUP], [], [CAP]))
    assert "slice 2" in str(err.value)


def test_oriented_word_rejects_phi_theta():
    with pytest.raises(WordError) as err:
        validate_word(word([THETA], [CAP]))
    assert "unoriented" in str(err.value)
    with pytest.raises(WordError):
        validate_word(word([CUP], [PHI], [CAP]))


def test_unoriented_word_allows_phi_theta():
    w = word([THETA], [PHI], [CAP], orientation="unoriented")
    assert validate_word(w) == (0, 0)


def test_empty_word_is_closed_identity():
    w = word()
    assert validate_word(w) == (0, 0)
    assert w.source_arity == w.target_arity == 0


def test_orientation_keyword_validated():
    with pytest.raises(WordError):
        CobordismWord("sideways", ())


def test_slices_must_hold_generators():
    with pytest.raises(WordError):
        CobordismWord("oriented", (("cup",),))


def test_identity_word():
    w = identity_word(3)
    assert validate_word(w) == (3, 3)
    assert w.slices == ((ID, ID, ID),)
    assert identity_word(0).slices == ()


def test_compose_words_concatenates():
    sphere = compose_words(word([CUP]), word([CAP]))
    assert sphere == word([CUP], [CAP])


def test_compose_words_orientation_rule():
    theta_in = CobordismWord("unoriented", ((THETA,),))
    cap = word([CAP])
    out = compose_words(theta_in, cap)
    assert out.orientation == "unoriented"
    assert validate_word(out) == (0, 0)


def test_compose_words_arity_mismatch():
    with pytest.raises(WordError):
        compose_words(word([CUP]), word([MULT]))


def test_tensor_words_empty_is_unit():
    w = word([CUP], [COMULT])
    assert tensor_words(word(), w) == w
    assert tensor_words(w, word()) == w


def test_tensor_words_side_by_side():
    t = tensor_words(word([CUP]), word([CUP]))
    assert t.slices == ((CUP, CUP),)
    assert validate_word(t) == (0, 2)


def test_tensor_words_pads_shorter_word():
    sphere = word([CUP], [CAP])
    torus = closed_oriented_surface(1)
    t = tensor_words(sphere, torus)
    assert len(t.slices) == 4
    assert validate_word(t) == (0, 0)
    # after the sphere ends, the torus continues alone
    assert t.slices[2] == (MULT,)
    assert t.slices[3] == (CAP,)


def test_tensor_words_arities_add():
    w1 = word([MULT])
    w2 = word([COMULT])
    t = tensor_words(w1, w2)
    assert validate_word(t) == (3, 3)


def test_closed_oriented_surface_shapes():
    assert closed_oriented_surface(0) == word([CUP], [CAP])
    assert closed_oriented_surface(1) == word([CUP], [COMULT], [MULT], [CAP])
    g2 = closed_oriented_surface(2)
    assert len(g2.slices) == 6
    assert validate_word(g2) == (0, 0)


def test_closed_oriented_surface_high_genus_validates():
    for g in range(9):
        assert validate_word(closed_oriented_surface(g)) == (0, 0)


def test_closed_oriented_surface_rejects_negative():
    with pytest.raises(ValueError):
        closed_oriented_surface(-1)


def test_closed_unoriented_surface_shapes():
    p = closed_unoriented_surface(1)
    assert p.orientation == "unoriented"
    assert p.slices == ((THETA,), (CAP,))
    klein = closed_unoriented_surface(2)
    assert klein.slices == ((THETA,), (THETA, ID), (MULT,), (CAP,))
    mixed = closed_unoriented_surface(1, 1)
    assert len(mixed.slices) == 4
    assert validate_word(mixed) == (0, 0)


def test_closed_unoriented_surface_validates_in_range():
    for k in range(1, 9):
        for g in range((8 - k) // 2 + 1):
            w = closed_unoriented_surface(k, g)
            assert validate_word(w) == (0, 0)


def test_closed_surface_words_past_the_slice_budget_are_refused_unbuilt():
    builders = (
        lambda: closed_oriented_surface(2**23),
        lambda: closed_unoriented_surface(2**23),
        lambda: closed_unoriented_surface(1, 2**23),
    )
    for build in builders:
        tracemalloc.start()
        try:
            with pytest.raises(BudgetError, match=f"more than {MAX_CELLS} slices"):
                build()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # 2**24 slices would hold over 100 MiB of tuple pointers
        assert peak < 2**16


def test_closed_unoriented_surface_requires_crosscap():
    with pytest.raises(ValueError) as err:
        closed_unoriented_surface(0)
    assert "closed_oriented_surface" in str(err.value)


def test_serialize_parse_round_trip():
    words = [
        word(),
        word([CUP], [CAP]),
        closed_oriented_surface(3),
        closed_unoriented_surface(3, 1),
        word([ID, CUP], [SWAP], [MULT]),
    ]
    for w in words:
        assert parse_word(serialize_word(w)) == w


def test_serialize_format():
    text = serialize_word(word([CUP], [COMULT], [MULT], [CAP]))
    assert text == "oriented\ncup\ncomult\nmult\ncap\n"
    text = serialize_word(closed_unoriented_surface(2))
    assert text == "unoriented\ntheta\ntheta, id\nmult\ncap\n"


def test_parse_handles_comments_and_whitespace():
    text = """# the torus
oriented

cup     # birth
comult
  mult
cap
"""
    parsed = parse_word(text)
    assert parsed == closed_oriented_surface(1)


def test_parse_rejects_unknown_generator():
    with pytest.raises(WordError) as err:
        parse_word("oriented\ncup\nfrobnicate\n")
    assert "frobnicate" in str(err.value)


def test_parse_rejects_missing_orientation():
    with pytest.raises(WordError):
        parse_word("# nothing but comments\n")
    with pytest.raises(WordError):
        parse_word("cup\ncap\n")


def test_parse_validates_result():
    with pytest.raises(WordError) as err:
        parse_word("oriented\ncup\ncap\ncap\n")
    assert "slice 3" in str(err.value)
    with pytest.raises(WordError):
        parse_word("oriented\ntheta\ncap\n")


def test_generator_arities():
    expect = {
        ID: (1, 1), CUP: (0, 1), CAP: (1, 0), MULT: (2, 1),
        COMULT: (1, 2), SWAP: (2, 2), PHI: (1, 1), THETA: (0, 1),
    }
    for gen, (a_in, a_out) in expect.items():
        assert (gen.arity_in, gen.arity_out) == (a_in, a_out)

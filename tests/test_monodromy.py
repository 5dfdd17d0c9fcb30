import math

import pytest
from hypothesis import given, settings, strategies as st

from melnikov.monodromy import (
    LoopWord, PuncturedModel, var, pair_with_form, homology_class,
    WordError, PairingError, W, GENERATORS,
)

syllables = st.lists(
    st.tuples(st.sampled_from(GENERATORS), st.integers(-3, 3)), max_size=12)


@given(syllables)
def test_words_reduce_to_fixed_point(syl):
    w = LoopWord.from_syllables(syl)
    again = LoopWord.from_syllables(w.letters)
    assert again == w


@given(syllables)
def test_inverse_law(syl):
    w = LoopWord.from_syllables(syl)
    assert (w * w.inverse()).is_identity()
    assert (w.inverse() * w).is_identity()


@given(syllables, syllables)
def test_homology_is_additive(a, b):
    wa = LoopWord.from_syllables(a)
    wb = LoopWord.from_syllables(b)
    ha = homology_class(wa)
    hb = homology_class(wb)
    hab = homology_class(wa * wb)
    assert hab == tuple(x + y for x, y in zip(ha, hb))


@given(syllables, syllables)
def test_homology_is_conjugation_invariant(a, c):
    wa = LoopWord.from_syllables(a)
    wc = LoopWord.from_syllables(c)
    conj = wc * wa * wc.inverse()
    assert homology_class(conj) == homology_class(wa)
    assert conj.conjugate_equal(wa)


def test_parse_and_reduce():
    w = W("g1 g2 g2' g1'")
    assert w.is_identity()
    w = W("[g1,g2]")
    assert w.letters == (("g1", 1), ("g2", 1), ("g1", -1), ("g2", -1))
    w = W("d^-1 g1 d")
    assert homology_class(w) == (0, 1, 0, 0)


@pytest.mark.parametrize("text, letters", [
    ("g1'g2", (("g1", -1), ("g2", 1))),
    ("d*g1", (("d", 1), ("g1", 1))),
    ("g1^3 g1^-2", (("g1", 1),)),
    ("g1^-0", ()),
    ("[g1^2,g2']*d^-1", (("g1", 1), ("g1", 1), ("g2", -1), ("g1", -1), ("g1", -1),
                         ("g2", 1), ("d", -1))),
    ("[g1,[g2,g3]]g1'", (("g1", 1), ("g2", 1), ("g3", 1), ("g2", -1), ("g3", -1),
                         ("g1", -1), ("g3", 1), ("g2", 1), ("g3", -1), ("g2", -1),
                         ("g1", -1))),
    ("[,g1]", ()),
])
def test_word_grammar(text, letters):
    assert W(text).letters == letters


@pytest.mark.parametrize("text", ["g1g2", "g1^", "g1^-", "g1''", "g1 ^2", "g1^+2",
                                  "[g1,g2]^2", "[g1]", "[g1,g2", "[g1,g2,g3]", "g1]",
                                  "g1,g2", "g4"])
def test_word_grammar_rejects(text):
    with pytest.raises(WordError):
        W(text)


def test_display_groups_equal_letters():
    assert W("g1 g1 g2' g2' g2' d").display() == "g1^2 g2^-3 d"
    assert W("").display() == "1"


def test_free_reduction_idempotent():
    w = W("g1 g1 g1^-1 g2 g2^-1 g1^-1")
    assert w.is_identity()


def test_conjugacy_equality():
    a = W("g1 g2")
    b = W("g2 g1")
    assert a.conjugate_equal(b)
    assert not a.conjugate_equal(W("g1 g2 g3"))


def test_variation_chain_d4():
    assert var(W("d"), "d4_l0") == W("g1 g2 g3")
    assert var(W("g1 g2 g3"), "d4_l0") == W("[g1,g2]")
    assert var(W("[g1,g2]"), "d4_l0").is_identity()


def test_variation_chain_a3():
    # the connecting cycle dies after two variations about the inner level
    v1 = var(W("g3"), "a3_l0")
    v2 = var(v1, "a3_l0")
    assert v2.is_identity()
    # about the saddle level the center cycles map to the saddle cycle
    assert var(W("g1"), "a3_l14") == W("g3")
    assert var(W("g3"), "a3_l14").is_identity()


def test_variation_unknown_twist():
    with pytest.raises(WordError):
        var(W("d"), "nope")


def test_homology_classes():
    assert homology_class(W("[g1,g2]")) == (0, 0, 0, 0)
    assert homology_class(W("g1 g2 g3")) == (0, 1, 1, 1)
    assert homology_class(W("d' g1 d")) == (0, 1, 0, 0)


def test_pairing_delta_vanishes():
    val = pair_with_form(W("d"))
    assert abs(val) < 1e-8


def test_pairing_commutator_is_minus_four_pi_squared():
    val = pair_with_form(W("[g1,g2]"))
    assert abs(val - (-4 * math.pi**2)) < 1e-6


def test_pairing_homology_zero_but_value_nonzero():
    w = W("[g1,g2]")
    assert homology_class(w) == (0, 0, 0, 0)
    assert abs(pair_with_form(w)) > 1.0


def test_pairing_branch_independence():
    a = pair_with_form(W("g1 g2 g3"), branch_offset=0)
    b = pair_with_form(W("g1 g2 g3"), branch_offset=1)
    assert abs(a - b) < 1e-8


def test_pairing_precondition_errors():
    with pytest.raises(PairingError, match="residue"):
        pair_with_form(W("g1"))
    with pytest.raises(PairingError, match="single-valued"):
        pair_with_form(W("g1 g2"))


def test_pairing_additivity():
    a = pair_with_form(W("d"))
    b = pair_with_form(W("[g1,g2]"))
    c = pair_with_form(W("d [g1,g2]"))
    assert abs(c - (a + b)) < 1e-7


def test_pairing_path_deformation_invariance():
    base = pair_with_form(W("[g1,g2]"))
    model = PuncturedModel(radius=0.385, radius_scale=(1.1, 0.9, 1.05, 0.95),
                           approach_jitter=(0.03 - 0.02j, -0.02j, 0.02 + 0.01j, 0.01j))
    moved = pair_with_form(W("[g1,g2]"), model)
    assert abs(base - moved) < 1e-7

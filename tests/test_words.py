import pytest
from hypothesis import given, strategies as st

from clairvoyant.rng import RngSpec
from clairvoyant.words import (
    Word,
    alternating_word,
    bernoulli_word,
    constant_word,
)

letters = st.lists(st.integers(0, 1), max_size=12)


@given(letters)
def test_word_letter_round_trip(ls):
    w = Word.from_letters(ls)
    assert list(w) == ls
    assert len(w) == len(ls)
    assert Word.from_string(str(w)) == w


def test_word_validation():
    with pytest.raises(ValueError):
        Word(4, 2)
    with pytest.raises(ValueError):
        Word(-1, 2)
    with pytest.raises(ValueError):
        Word.from_letters([0, 2])
    with pytest.raises(ValueError):
        Word.from_string("012")


def test_word_accessors():
    w = Word.from_string("0110")
    assert (w[0], w[1], w[2], w[3]) == (0, 1, 1, 0)
    assert str(w.complement()) == "1001"
    assert str(w.prefix(2)) == "01"
    with pytest.raises(IndexError):
        w[4]
    with pytest.raises(ValueError):
        w.prefix(5)


def test_word_factories():
    assert str(alternating_word(5)) == "01010"
    assert str(constant_word(4)) == "1111"
    assert str(constant_word(3, letter=0)) == "000"
    for factory in (alternating_word, constant_word):
        with pytest.raises(ValueError):
            factory(-1)
    with pytest.raises(ValueError, match="n must be >= 0"):
        bernoulli_word(-1, 0.5, RngSpec(1))


def test_bernoulli_word_deterministic():
    rng = RngSpec(123, 5)
    a = bernoulli_word(50, 0.4, rng)
    b = bernoulli_word(50, 0.4, rng)
    assert a == b
    assert bernoulli_word(50, 0.0, rng) == constant_word(50, letter=0)
    assert bernoulli_word(50, 1.0, rng) == constant_word(50)

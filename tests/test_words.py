import numpy as np
import pytest
from hypothesis import given, strategies as st

from clairvoyant.rng import RngSpec
from clairvoyant.words import (
    Word,
    alternating_word,
    bernoulli_word,
    constant_word,
    gap_frontiers,
    pack_mask,
)

from oracles import shift_frontiers

letters = st.lists(st.integers(0, 1), max_size=12)


@given(letters)
def test_word_letter_round_trip(ls):
    w = Word.from_letters(ls)
    assert list(w) == ls
    assert len(w) == len(ls)
    assert Word.from_string(str(w)) == w


@pytest.mark.parametrize("n", [0, 1, 63, 64, 65, 1000, 10**5, 10**6])
def test_long_word_round_trips(n):
    # building and reading are linear in n; a quadratic pass would take
    # minutes at 10**6
    mask = np.random.default_rng(n).random(n) < 0.5
    want = tuple(int(a) for a in mask)
    text = "".join(map(str, want))
    for w in (Word.from_letters(mask), Word.from_letters(list(want)),
              Word.from_letters(mask.astype(np.int64)),
              Word.from_string(text)):
        assert w.n == n
        assert w.letters() == want
        assert str(w) == text
        assert w.bits == int(text[::-1] or "0", 2)
    assert tuple(alternating_word(n)) == tuple(i & 1 for i in range(n))


def test_from_letters_accepts_what_equals_0_or_1():
    w = Word.from_letters([True, np.int64(1), np.uint8(0), False, 1, 0, 1.0])
    assert str(w) == "1100101"
    assert Word.from_letters(np.array([1.0, 0.0, 1.0])) == Word.from_string("101")
    for bad in (2, -1, 1.5, "1", None, [1]):
        with pytest.raises(ValueError):
            Word.from_letters([0, bad])
    for bad in (np.array([0, 2]), np.array([0.5]), np.array([[0, 1]])):
        with pytest.raises(ValueError):
            Word.from_letters(bad)
    for bad in ("0 1", "+1", "1_0", "2"):
        with pytest.raises(ValueError):
            Word.from_string(bad)


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


@pytest.mark.parametrize("M", list(range(1, 71)) + [127, 128, 129, 1000])
def test_gap_frontiers_equal_the_plain_spread(M):
    # the doubling spread covers gaps 1..M exactly, for M a power of two,
    # one either side of one, and the rest up to 70
    gen = np.random.default_rng(M)
    for letters in (0, 1, 2, 7):
        for density in (0.2, 0.6, 0.97):
            width = 40 + M * (letters + 1)
            r = pack_mask(gen.random(40) < 0.5) | 1 << int(gen.integers(40))
            masks = [pack_mask(gen.random(width) < density)
                     for _ in range(letters)]
            want = shift_frontiers(r, masks, M)
            assert list(gap_frontiers(r, iter(masks), M)) == want
            if density > 0.9:
                assert want[-1]      # the sweep ran through every mask

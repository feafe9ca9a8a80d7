import pytest
from hypothesis import given, strategies as st

from clairvoyant.rng import RngSpec
from clairvoyant.words import (
    GapEncoding,
    IntSequence,
    Word,
    alternating_word,
    bernoulli_word,
    constant_word,
    gap_encode,
    make_word,
    periodic_word,
    reduces_to,
    sample_uniform_sequence,
)

from oracles import all_zero_deletions, brute_reduces_to

letters = st.lists(st.integers(0, 1), max_size=12)


@given(letters)
def test_word_letter_round_trip(ls):
    w = Word.from_letters(ls)
    assert list(w) == ls
    assert len(w) == len(ls)
    assert Word.from_string(str(w)) == w


@given(letters)
def test_gap_encoding_round_trip(ls):
    w = Word.from_letters(ls)
    enc = gap_encode(w)
    assert enc.decode() == w
    assert len(enc.gaps) == w.ones()
    assert sum(enc.gaps) + enc.trailing + w.ones() == len(w)


def test_gap_encoding_examples():
    assert gap_encode(Word.from_string("001010")) == GapEncoding((2, 1), 1)
    assert gap_encode(Word.from_string("111")) == GapEncoding((0, 0, 0), 0)
    assert gap_encode(Word.from_string("0000")) == GapEncoding((), 4)
    assert gap_encode(Word.from_string("")) == GapEncoding((), 0)


@given(letters, letters)
def test_reduces_to_matches_brute_force(xl, yl):
    x, y = Word.from_letters(xl), Word.from_letters(yl)
    assert reduces_to(x, y) == brute_reduces_to(xl, yl)


@given(letters)
def test_reduces_to_reflexive(ls):
    w = Word.from_letters(ls)
    assert reduces_to(w, w)


@given(letters, st.data())
def test_deleting_zeros_reduces(ls, data):
    x = Word.from_letters(ls)
    targets = sorted(all_zero_deletions(tuple(ls)))
    yl = data.draw(st.sampled_from(targets))
    assert reduces_to(x, Word.from_letters(yl))


@given(letters, st.data())
def test_reduces_to_transitive(ls, data):
    x = Word.from_letters(ls)
    mid = data.draw(st.sampled_from(sorted(all_zero_deletions(tuple(ls)))))
    z = data.draw(st.sampled_from(sorted(all_zero_deletions(mid))))
    assert reduces_to(x, Word.from_letters(mid))
    assert reduces_to(Word.from_letters(mid), Word.from_letters(z))
    assert reduces_to(x, Word.from_letters(z))


def test_reduces_to_respects_one_count():
    assert not reduces_to(Word.from_string("11"), Word.from_string("1"))
    assert not reduces_to(Word.from_string("01"), Word.from_string("11"))
    # deletion can only shrink gaps, never grow them
    assert not reduces_to(Word.from_string("11"), Word.from_string("101"))


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
    assert w.ones() == 2
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
    assert str(periodic_word(Word.from_string("011"), 7)) == "0110110"
    assert make_word("alternating", 4) == alternating_word(4)
    assert make_word("zeros", 3) == constant_word(3, letter=0)
    with pytest.raises(ValueError):
        make_word("periodic", 5)
    with pytest.raises(ValueError):
        make_word("bernoulli", 5)
    with pytest.raises(ValueError):
        make_word("mystery", 5)


def test_bernoulli_word_deterministic():
    rng = RngSpec(123, 5)
    a = bernoulli_word(50, 0.4, rng)
    b = bernoulli_word(50, 0.4, rng)
    assert a == b
    assert bernoulli_word(50, 0.0, rng) == constant_word(50, letter=0)
    assert bernoulli_word(50, 1.0, rng) == constant_word(50)


def test_int_sequence():
    s = IntSequence.from_string("1,3,2", 3)
    assert s.values == (1, 3, 2)
    assert str(s) == "1,3,2"
    assert len(s) == 3 and s[1] == 3
    with pytest.raises(ValueError):
        IntSequence((0, 1), 2)
    with pytest.raises(ValueError):
        IntSequence((1, 4), 3)
    with pytest.raises(ValueError):
        IntSequence((1,), 1)


def test_sample_uniform_sequence():
    rng = RngSpec(9)
    s = sample_uniform_sequence(4, 200, rng.generator())
    assert len(s) == 200
    assert set(s.values) == {1, 2, 3, 4}
    assert s == sample_uniform_sequence(4, 200, rng.generator())

"""The value classes are frozen records: these pin the behaviour they had
as frozen dataclasses, with the strings the dataclasses printed."""

import copy
import pickle

import numpy as np
import pytest

from clairvoyant._record import FrozenInstanceError, Record
from clairvoyant.embedding import recursion_params
from clairvoyant.environment import FiniteDistribution, sample_environment
from clairvoyant.lattice import block_grid, sample_field
from clairvoyant.rng import RngSpec
from clairvoyant.scheduling import CouplingReport, ScheduleGrid
from clairvoyant.stats import Estimate
from clairvoyant.words import Word


def _estimate():
    return Estimate(0.5, 0.1, 10, RngSpec(3, 4))


def test_repr_is_name_and_fields_in_order():
    assert repr(_estimate()) == ("Estimate(mean=0.5, stderr=0.1, replicas=10, "
                                 "rng=RngSpec(master_seed=3, stream_id=4))")
    assert repr(recursion_params(2)) == (
        "RecursionParams(M=2, alpha=Fraction(3, 4), beta=Fraction(1, 4), "
        "b=Fraction(1, 1), c=Fraction(1, 8))")
    assert repr(FiniteDistribution.point_mass(0.5)) == (
        "FiniteDistribution(points=(Fraction(1, 2),), "
        "weights=(Fraction(1, 1),))")
    assert repr(ScheduleGrid(np.array([1, 2]), np.array([2, 1]), 3)) == \
        "ScheduleGrid(x=array([1, 2]), y=array([2, 1]), M=3)"
    # a class's own __repr__ wins
    assert repr(Word.from_string("0110")) == "Word('0110')"


def test_fields_are_the_annotations_in_order():
    assert Estimate._fields == ("mean", "stderr", "replicas", "rng")
    assert CouplingReport._fields == ("M", "k", "depth", "samples",
                                      "reduced_survivals", "big_survivals")


def test_equality_and_hash_by_value_within_one_class():
    assert _estimate() == _estimate()
    assert hash(_estimate()) == hash(_estimate())
    assert _estimate() != Estimate(0.5, 0.1, 11, RngSpec(3, 4))
    assert RngSpec(3, 4) == RngSpec(master_seed=3, stream_id=4)
    assert hash(RngSpec(1)) == hash((1, 0))
    assert len({Word(5, 4), Word(5, 4), Word(5, 3)}) == 2

    # two classes with the same fields and values are not equal
    class Other(Record):
        bits: int
        n: int

    assert Other(5, 4) != Word(5, 4)
    assert Word(5, 4) != (5, 4)
    assert Word.__eq__(Word(5, 4), Other(5, 4)) is NotImplemented


def test_schedule_grid_equality_is_identity():
    x, y = np.array([1, 2, 3]), np.array([2, 1, 3])
    grid = ScheduleGrid(x, y, 3)
    assert grid == grid
    assert grid != ScheduleGrid(x, y, 3)
    assert grid != copy.copy(grid)
    assert hash(grid) == object.__hash__(grid)


def test_records_holding_arrays_compare_by_identity():
    # by value, == on two fields of arrays raised ValueError ("truth value
    # of an array ... is ambiguous") and hash raised TypeError
    mu = FiniteDistribution.parse("0.4:1/2,0.8:1/2")
    for make in (lambda: sample_field(0.5, 3, 3, RngSpec(1)),
                 lambda: block_grid(sample_field(0.5, 4, 4, RngSpec(1)), 2),
                 lambda: sample_environment(mu, 3, RngSpec(1))):
        a, b = make(), make()
        assert a == a and a != b
        assert hash(a) == object.__hash__(a)
        assert len({a, b}) == 2


def test_cached_property_leaves_equality_alone():
    mu = FiniteDistribution.parse("0.4:1/2,0.8:1/2")
    other = FiniteDistribution.parse("0.4:1/2,0.8:1/2")
    mu._float_law
    assert mu == other and hash(mu) == hash(other)
    assert repr(mu) == repr(other)


def test_defaults_and_keywords():
    assert RngSpec(1).stream_id == 0
    assert RngSpec(stream_id=2, master_seed=1) == RngSpec(1, 2)
    assert Estimate(mean=0.5, stderr=0.1, replicas=10,
                    rng=RngSpec(3, 4)) == _estimate()


@pytest.mark.parametrize("call, says", [
    (lambda: RngSpec(), "missing required argument(s): 'master_seed'"),
    (lambda: Word(5), "missing required argument(s): 'n'"),
    (lambda: RngSpec(1, foo=2), "unexpected keyword argument 'foo'"),
    (lambda: RngSpec(1, 2, 3), "takes at most 2 arguments (3 given)"),
    (lambda: RngSpec(1, master_seed=2),
     "multiple values for argument 'master_seed'"),
])
def test_missing_or_unknown_argument_raises_type_error(call, says):
    with pytest.raises(TypeError) as info:
        call()
    assert says in str(info.value)


def test_fields_are_frozen():
    rng = RngSpec(1)
    with pytest.raises(AttributeError, match="cannot assign to field "
                                             "'master_seed'") as info:
        rng.master_seed = 2
    assert isinstance(info.value, FrozenInstanceError)
    with pytest.raises(FrozenInstanceError, match="cannot delete field"):
        del rng.stream_id
    with pytest.raises(FrozenInstanceError):
        rng.other = 1
    assert rng == RngSpec(1, 0)


def test_post_init_validation_still_raises():
    with pytest.raises(ValueError, match="master_seed must lie"):
        RngSpec(-1)
    with pytest.raises(ValueError, match="master_seed must lie"):
        RngSpec(master_seed=2**64)
    with pytest.raises(ValueError, match="bits out of range"):
        Word(8, 3)
    with pytest.raises(ValueError, match="weights must sum to 1"):
        FiniteDistribution((0.5,), (0.5,))
    with pytest.raises(ValueError, match="alphabet size M"):
        ScheduleGrid(np.array([1]), np.array([1]), 1)


def test_pickle_and_deepcopy_round_trip():
    est = _estimate()
    for twin in (pickle.loads(pickle.dumps(est)), copy.deepcopy(est),
                 copy.copy(est)):
        assert twin == est and twin is not est
        assert repr(twin) == repr(est)
        with pytest.raises(FrozenInstanceError):
            twin.mean = 1.0

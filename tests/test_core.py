import numpy as np
import pytest

from genage import (
    Dataset,
    GenAgeModel,
    HyperParams,
    Sample,
    ThresholdLadder,
    Variant,
    validate_dataset,
)
from genage.errors import (
    BadGenderLabel,
    DimensionMismatch,
    LadderOrderError,
    NonFiniteFeature,
    RankOutOfRange,
)


def small_dataset():
    return Dataset([[0.0, 1.0], [1.0, 0.0], [0.5, 0.5]], [1, -1, 1], [1, 2, 3], num_ranks=3)


def test_validate_accepts_well_formed():
    ds = small_dataset()
    assert validate_dataset(ds) is ds


def test_validate_is_idempotent():
    ds = validate_dataset(small_dataset())
    assert validate_dataset(ds) is ds


def test_bad_gender_label_names_index():
    ds = Dataset([[0.0], [1.0], [2.0]], [1, 0, -1], [1, 2, 2], num_ranks=2)
    with pytest.raises(BadGenderLabel) as err:
        validate_dataset(ds)
    assert err.value.index == 1


def test_nan_feature_names_index():
    ds = Dataset([[0.0], [np.nan]], [1, -1], [1, 2], num_ranks=2)
    with pytest.raises(NonFiniteFeature) as err:
        validate_dataset(ds)
    assert err.value.index == 1


def test_rank_out_of_range_names_index():
    ds = Dataset([[0.0], [1.0]], [1, -1], [1, 7], num_ranks=3)
    with pytest.raises(RankOutOfRange) as err:
        validate_dataset(ds)
    assert err.value.index == 1


def test_mismatched_lengths_rejected():
    with pytest.raises(DimensionMismatch):
        Dataset([[0.0], [1.0]], [1], [1, 2])


def test_counts_per_gender_and_rank():
    counts = small_dataset().counts()
    assert counts[(1, 1)] == 1 and counts[(-1, 2)] == 1 and counts[(1, 3)] == 1
    assert counts[(-1, 1)] == 0


def test_dataset_round_trip_through_samples():
    ds = small_dataset()
    again = Dataset.from_samples(ds.samples, num_ranks=ds.num_ranks)
    assert again == ds


def test_dataset_arrays_are_frozen():
    ds = small_dataset()
    with pytest.raises(ValueError):
        ds.features[0, 0] = 9.0


def test_dataset_copies_the_callers_arrays():
    features, gender, ranks = np.array([[0.0, 1.0], [1.0, 0.0]]), np.array([1, -1]), np.array([1, 2])
    ds = Dataset(features, gender, ranks)
    for given, held in ((features, ds.features), (gender, ds.gender), (ranks, ds.age_rank)):
        assert not np.shares_memory(given, held)
        given[0] = 2
    assert ds == Dataset([[0.0, 1.0], [1.0, 0.0]], [1, -1], [1, 2])


def test_ladder_rejects_decreasing_cuts():
    with pytest.raises(LadderOrderError):
        ThresholdLadder([0.0, -1.0])


def test_ladder_accepts_ties_and_reports_spread():
    ladder = ThresholdLadder([0.0, 0.0, 2.0])
    assert ladder.num_ranks == 4
    assert ladder.spread == 2.0


def test_hyperparams_validation():
    with pytest.raises(ValueError):
        HyperParams(lambda1=-1.0)
    with pytest.raises(ValueError):
        HyperParams(t_max=0)
    with pytest.raises(ValueError):
        HyperParams(tol=0.0)


def test_variant_parsing():
    assert Variant.parse("TT") is Variant.TT
    assert Variant.parse("2step") is Variant.TWO_STEP
    assert Variant.parse(Variant.ST) is Variant.ST
    with pytest.raises(ValueError):
        Variant.parse("bogus")


def test_shared_ladder_variants_require_equal_ladders():
    ladder_a = ThresholdLadder([0.0])
    ladder_b = ThresholdLadder([1.0])
    with pytest.raises(LadderOrderError):
        GenAgeModel(
            w_g=[1.0], b_g=0.0, w_a=[1.0],
            ladder_male=ladder_a, ladder_female=ladder_b, variant=Variant.DIRECT,
        )
    model = GenAgeModel(
        w_g=[1.0], b_g=0.0, w_a=[1.0],
        ladder_male=ladder_a, ladder_female=ladder_b, variant=Variant.TT,
    )
    assert model.num_ranks == 2


def test_sample_is_immutable_view():
    sample = Sample(np.array([1.0, 2.0]), 1, 2)
    with pytest.raises(ValueError):
        sample.features[0] = 3.0

import copy
import pickle

import numpy as np
import pytest

from genage import (
    Dataset,
    SynthConfig,
    GenAgeModel,
    HyperParams,
    ThresholdLadder,
    TrainConfig,
    Variant,
    fit,
    generate,
    objective_value,
    validate_dataset,
)
from genage.errors import (
    BadConfig,
    BadGenderLabel,
    DimensionMismatch,
    GenAgeError,
    InsufficientRanks,
    LadderOrderError,
    NonFiniteFeature,
    RankOutOfRange,
)


def small_dataset_arrays():
    return [[0.0, 1.0], [1.0, 0.0], [0.5, 0.5], [0.0, 0.5]], [1, -1, 1, -1], [1, 2, 3, 3]


def small_dataset():
    return Dataset([[0.0, 1.0], [1.0, 0.0], [0.5, 0.5]], [1, -1, 1], [1, 2, 3], num_ranks=3)


def test_validate_accepts_well_formed():
    ds = small_dataset()
    assert validate_dataset(ds) is ds


def test_validate_is_idempotent():
    ds = validate_dataset(small_dataset())
    assert validate_dataset(ds) is ds


def test_bad_gender_label_names_index():
    with pytest.raises(BadGenderLabel) as err:
        Dataset([[0.0], [1.0], [2.0]], [1, 0, -1], [1, 2, 2], num_ranks=2)
    assert err.value.index == 1


def test_nan_feature_names_index():
    with pytest.raises(NonFiniteFeature) as err:
        Dataset([[0.0], [np.nan]], [1, -1], [1, 2], num_ranks=2)
    assert err.value.index == 1


def test_rank_out_of_range_names_index():
    with pytest.raises(RankOutOfRange) as err:
        Dataset([[0.0], [1.0]], [1, -1], [1, 7], num_ranks=3)
    assert err.value.index == 1


@pytest.mark.parametrize("column, value, error", [
    ("gender", 2, BadGenderLabel),
    ("gender", 0, BadGenderLabel),
    ("age_rank", 9, RankOutOfRange),
    ("age_rank", 0, RankOutOfRange),
    ("age_rank", -2, RankOutOfRange),
    ("features", np.nan, NonFiniteFeature),
    ("features", -np.inf, NonFiniteFeature),
])
def test_construction_rejects_one_bad_value(column, value, error):
    """One bad value in an otherwise valid dataset fails at construction,
    before a fit can misroute the row or fail on it with a numpy error."""
    ds = generate(SynthConfig(discrepancy=2.0, seed=3))
    arrays = {name: getattr(ds, name).copy() for name in ("features", "gender", "age_rank")}
    arrays[column][17] = value
    with pytest.raises(error) as err:
        Dataset(arrays["features"], arrays["gender"], arrays["age_rank"], num_ranks=ds.num_ranks)
    assert err.value.index == 17


def test_mismatched_lengths_rejected():
    with pytest.raises(DimensionMismatch):
        Dataset([[0.0], [1.0]], [1], [1, 2])


def test_dataset_arrays_are_frozen():
    ds = small_dataset()
    with pytest.raises(ValueError):
        ds.features[0, 0] = 9.0


@pytest.mark.parametrize("duplicate", [copy.copy, copy.deepcopy, lambda ds: pickle.loads(pickle.dumps(ds))])
def test_a_copied_dataset_is_frozen_with_an_empty_store(duplicate):
    """The store relies on frozen arrays: a copy or an unpickled dataset
    freezes them again and derives its own entries."""
    ds = Dataset(*small_dataset_arrays(), num_ranks=3, rank_to_year=(1990, 1991, 1992))
    fit(ds)
    assert ds._store
    again = duplicate(ds)
    assert again == ds and again.rank_to_year == ds.rank_to_year and again._store == {}
    assert not any(arr.flags.writeable for arr in (again.features, again.gender, again.age_rank))


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
    for field, value in (("lambda1", float("nan")), ("lambda2", float("inf")),
                         ("lambda3", float("nan")), ("t_max", 2.5), ("t_max", 2.0),
                         ("tol", float("nan")), ("tol", float("inf"))):
        with pytest.raises(ValueError):
            HyperParams(**{field: value})


@pytest.mark.parametrize("declared", [1, None])
def test_fewer_than_two_ranks_names_k_and_no_sample(declared):
    # without a declaration K is the largest rank, 1 here
    with pytest.raises(InsufficientRanks, match="num_ranks must be at least 2, got 1") as err:
        Dataset([[0.0]], [1], [1], num_ranks=declared)
    assert not hasattr(err.value, "index")


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


def test_ladder_rejects_nested_and_non_finite_cuts():
    with pytest.raises(LadderOrderError, match="flat"):
        ThresholdLadder([[0.0, 1.0]])
    for bad in (np.nan, np.inf):
        with pytest.raises(LadderOrderError, match="finite"):
            ThresholdLadder([0.0, bad])


def test_model_rejects_mismatched_shapes():
    ladder = ThresholdLadder([0.0])
    with pytest.raises(DimensionMismatch, match="w_g and w_a"):
        GenAgeModel(w_g=[1.0, 0.0], b_g=0.0, w_a=[1.0],
                    ladder_male=ladder, ladder_female=ladder, variant=Variant.TT)
    with pytest.raises(DimensionMismatch, match="ladders"):
        GenAgeModel(w_g=[1.0], b_g=0.0, w_a=[1.0],
                    ladder_male=ladder, ladder_female=ThresholdLadder([0.0, 1.0]),
                    variant=Variant.TT)


@pytest.mark.parametrize("field", ["w_g", "b_g", "w_a"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_model_rejects_non_finite_weights(field, bad):
    ladder = ThresholdLadder([0.0])
    values = {"w_g": [1.0, 0.0], "b_g": 0.0, "w_a": [0.0, 1.0]}
    values[field] = bad if field == "b_g" else [1.0, bad]
    with pytest.raises(GenAgeError, match=f"model field '{field}' must be finite"):
        GenAgeModel(**values, ladder_male=ladder, ladder_female=ladder, variant=Variant.TT)


FOUR_ROWS = [[0.0], [1.0], [2.0], [3.0]], [1, -1, 1, -1], [1, 2, 1, 2]


@pytest.mark.parametrize("year_map", [(1990,), (1990, 1991, 1992)])
def test_a_year_map_of_the_wrong_length_is_rejected(year_map):
    with pytest.raises(DimensionMismatch, match=f"{len(year_map)} entries for 2 ranks"):
        Dataset(*FOUR_ROWS, rank_to_year=year_map)


@pytest.mark.parametrize("year_map", [(1991, 1990), (1990, 1990), ("1990", "1991"), (1990.0, 1991.0),
                                      (False, True)])
def test_a_year_map_that_is_not_increasing_integers_is_rejected(year_map):
    with pytest.raises(BadConfig, match="must be a list of increasing integers"):
        Dataset(*FOUR_ROWS, rank_to_year=year_map)


def test_a_year_map_that_is_not_a_sequence_is_rejected():
    with pytest.raises(BadConfig, match="must be a sequence, got 1990"):
        Dataset(*FOUR_ROWS, rank_to_year=1990)


def test_a_year_map_of_numpy_integers_is_kept_as_python_integers():
    ds = Dataset(*FOUR_ROWS, rank_to_year=np.array([1990, 2000]))
    assert ds.rank_to_year == (1990, 2000) and all(type(y) is int for y in ds.rank_to_year)


@pytest.mark.parametrize("num_ranks", [2.5, 2.0, True, "2"])
def test_num_ranks_must_be_an_integer(num_ranks):
    with pytest.raises(BadConfig, match="num_ranks must be an integer"):
        Dataset(*FOUR_ROWS, num_ranks=num_ranks)
    assert Dataset(*FOUR_ROWS, num_ranks=np.int64(3)).num_ranks == 3


def test_train_config_rejects_hyper_that_is_not_hyperparams():
    with pytest.raises(BadConfig, match="hyper must be a HyperParams, got dict"):
        TrainConfig(hyper={"lambda1": 1.0})


def test_a_ladder_that_is_not_a_threshold_ladder_is_named():
    ladder = ThresholdLadder([0.0])
    with pytest.raises(LadderOrderError, match="ladder_female must be a ThresholdLadder, got list"):
        GenAgeModel(w_g=[1.0], b_g=0.0, w_a=[1.0], ladder_male=ladder, ladder_female=[0.0],
                    variant=Variant.TT)
    ds = Dataset(*FOUR_ROWS)
    with pytest.raises(LadderOrderError, match="ladder_male must be a ThresholdLadder, got list"):
        objective_value(ds, HyperParams(), [1.0], 0.0, [1.0], [0.0], ladder)

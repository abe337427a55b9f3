"""The single-row entry points against the batch ones, and their shared handling of bad input.

``predict`` and ``predict_pls`` decide one sample on Python floats, and
``predict_batch`` and ``predict_pls_batch`` decide many with numpy; on every
row they must return the same (gender, rank).  The hand-built models below
make the scores the inputs themselves, so a score can be placed exactly on a
cut, on a gender score of 0, or at a PLS rank score of k + 0.5.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genage import GenAgeModel, ThresholdLadder, Variant, predict, predict_batch
from genage.errors import NonFiniteFeature
from genage.pls import PlsModel, fit_pls, predict_pls, predict_pls_batch

SHARED = (Variant.DIRECT, Variant.ST)

moderate = st.floats(-1e6, 1e6, allow_nan=False)
cut = st.one_of(st.sampled_from([-1.0, 0.0, 0.5, 2.0]), moderate)  # a few shared values make ties


@st.composite
def ladders(draw, variant):
    """Male and female cuts for ``variant``: one list twice for a shared-ladder variant."""
    male = sorted(draw(st.lists(cut, max_size=5)))
    if variant in SHARED:
        return male, male
    return male, sorted(draw(st.lists(cut, min_size=len(male), max_size=len(male))))


def assert_rows_agree(single, batch, model, X):
    genders, ranks = batch(model, X)
    got = [single(model, x) for x in X]
    assert got == list(zip(genders.tolist(), ranks.tolist()))
    assert all(type(g) is int and type(r) is int for g, r in got)


@st.composite
def exact_models(draw):
    """A two-feature model whose gender score is x0 + b_g and whose age score is x1,
    with rows placed on, beside and outside its cuts and at a gender score of 0."""
    variant = draw(st.sampled_from(list(Variant)))
    male, female = draw(ladders(variant))
    b_g = draw(moderate)
    model = GenAgeModel(w_g=[1.0, 0.0], b_g=b_g, w_a=[0.0, 1.0], ladder_male=ThresholdLadder(male),
                        ladder_female=ThresholdLadder(female), variant=variant)
    cuts = male + female
    near = [np.nextafter(c, s) for c in cuts for s in (-np.inf, np.inf)]
    age = st.one_of(st.sampled_from(cuts + near + [-1e300, 1e300]) if cuts else moderate, moderate)
    gender = st.one_of(st.sampled_from([-b_g, np.nextafter(-b_g, -np.inf), np.nextafter(-b_g, np.inf)]),
                       moderate)
    rows = draw(st.lists(st.tuples(gender, age), min_size=1, max_size=12))
    return model, np.array(rows, dtype=float)


@settings(max_examples=300, deadline=None)
@given(exact_models())
def test_predict_matches_the_batch_on_cuts_zero_and_outside_the_ladder(case):
    model, X = case
    assert_rows_agree(predict, predict_batch, model, X)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 6), st.data())
def test_predict_matches_the_batch_on_random_weights(dim, data):
    vector = st.lists(moderate, min_size=dim, max_size=dim)
    variant = data.draw(st.sampled_from(list(Variant)))
    male, female = data.draw(ladders(variant))
    model = GenAgeModel(w_g=data.draw(vector), b_g=data.draw(moderate), w_a=data.draw(vector),
                        ladder_male=ThresholdLadder(male), ladder_female=ThresholdLadder(female),
                        variant=variant)
    X = np.array(data.draw(st.lists(vector, min_size=1, max_size=8)), dtype=float)
    assert_rows_agree(predict, predict_batch, model, X)


def identity_pls(num_ranks):
    """A PLS model whose two outputs are its two inputs."""
    return PlsModel(n_components=2, x_weights=np.eye(2), x_loadings=np.eye(2), y_loadings=np.eye(2),
                    coefficients=np.eye(2), x_mean=np.zeros(2), y_mean=np.zeros(2),
                    num_ranks=num_ranks)


@settings(max_examples=300, deadline=None)
@given(st.integers(2, 8), st.data())
def test_predict_pls_matches_the_batch_on_halves_and_outside_the_ranks(num_ranks, data):
    halves = [k + 0.5 for k in range(-1, num_ranks + 2)]
    near = [np.nextafter(h, s) for h in halves for s in (-np.inf, np.inf)]
    rank = st.one_of(st.sampled_from(halves + near + [-1e300, 1e300, 0.0, float(num_ranks)]), moderate)
    gender = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, -5e-324]), moderate)
    X = np.array(data.draw(st.lists(st.tuples(gender, rank), min_size=1, max_size=12)), dtype=float)
    assert_rows_agree(predict_pls, predict_pls_batch, identity_pls(num_ranks), X)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_predict_pls_matches_the_batch_on_a_fitted_model(seed):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(40, 3))
    Y = np.column_stack([np.where(X[:, 0] >= 0.0, 1.0, -1.0), np.clip(np.round(2 * X[:, 1] + 3), 1, 5)])
    model = fit_pls(X, Y, n_components=2, num_ranks=5)
    assert_rows_agree(predict_pls, predict_pls_batch, model, rng.normal(scale=3.0, size=(30, 3)))


# ------------------------------------------------------------------ non-finite rows

def hand_model():
    return GenAgeModel(w_g=[1.0, 0.0], b_g=0.0, w_a=[0.0, 1.0], ladder_male=ThresholdLadder([0.0]),
                       ladder_female=ThresholdLadder([2.0]), variant=Variant.TT)


@pytest.mark.parametrize("single, batch, model", [
    (predict, predict_batch, hand_model()),
    (predict_pls, predict_pls_batch, identity_pls(5)),
], ids=["genage", "pls"])
@pytest.mark.parametrize("bad", [[np.nan, 1.0], [1.0, np.nan], [np.inf, 1.0], [0.0, -np.inf]])
def test_every_entry_point_raises_on_a_non_finite_row(single, batch, model, bad):
    # in both models an infinite feature meets a zero weight, which numpy
    # reports as an invalid value before the score check sees the NaN
    X = np.array([[0.5, 0.5], [0.5, 0.5], bad])
    with pytest.raises(NonFiniteFeature) as err:
        single(model, X[2])
    assert err.value.index == 0 and str(err.value).startswith("x has a non-finite")
    with pytest.raises(NonFiniteFeature) as err:
        batch(model, X)
    assert err.value.index == 2 and str(err.value).startswith("sample 2 has a non-finite")


def test_a_score_that_overflows_raises():
    model = GenAgeModel(w_g=[1e300], b_g=0.0, w_a=[1.0], ladder_male=ThresholdLadder([0.0]),
                        ladder_female=ThresholdLadder([0.0]), variant=Variant.TT)
    with pytest.raises(NonFiniteFeature):
        predict(model, np.array([1e10]))
    with pytest.raises(NonFiniteFeature) as err:
        predict_batch(model, np.array([[1.0], [1e10]]))
    assert err.value.index == 1

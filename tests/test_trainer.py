import numpy as np
import pytest

from genage import (
    Dataset,
    GenAgeModel,
    HyperParams,
    SynthConfig,
    ThresholdLadder,
    TrainConfig,
    Variant,
    angle_deg,
    fit,
    fit_many,
    generate,
    model_objective,
    objective_value,
    predict,
    predict_batch,
    solve_svm,
)
from genage.errors import DegenerateGender, DimensionMismatch


def hyper(lam3=1000.0, variant=Variant.TT, **kw):
    return HyperParams(lambda1=10.0, lambda2=10.0, lambda3=lam3, t_max=2,
                       variant=variant, **kw)


def small_synth(**overrides):
    base = dict(dim=6, samples_per_cell=12, noise_sigma=0.4, seed=7)
    base.update(overrides)
    return generate(SynthConfig(**base))


def test_uncoupled_tt_reproduces_standalone_svm():
    ds = small_synth()
    model = fit(ds, TrainConfig(hyper=hyper(lam3=0.0)))
    standalone = solve_svm(ds, 10.0)
    assert model.w_g == pytest.approx(standalone.w, abs=1e-5)
    assert model.b_g == pytest.approx(standalone.b, abs=1e-5)


def test_objective_trace_never_increases():
    ds = generate(SynthConfig(seed=42))
    model = fit(ds, TrainConfig(hyper=hyper()))
    trace = np.array(model.objective_trace)
    assert trace.size == 5  # init + two half-steps per iteration
    assert np.all(np.diff(trace) <= 1e-9 * np.maximum(1.0, np.abs(trace[:-1])))


def test_identical_gender_blocks_make_tt_equal_st():
    # the female samples are exact copies of the male samples, so the split
    # and shared fits must coincide
    rng = np.random.default_rng(12)
    X_half = rng.normal(size=(16, 3))
    ranks_half = np.r_[np.ones(8, int), np.full(8, 2)]
    X = np.vstack([X_half, X_half])
    genders = np.r_[-np.ones(16, int), np.ones(16, int)]
    ranks = np.r_[ranks_half, ranks_half]
    ds = Dataset(X, genders, ranks, num_ranks=2)
    tt = fit(ds, TrainConfig(hyper=hyper(variant=Variant.TT)))
    st = fit(ds, TrainConfig(hyper=hyper(variant=Variant.ST)))
    assert tt.ladder_male.cuts == pytest.approx(tt.ladder_female.cuts, abs=1e-6)
    assert tt.w_a == pytest.approx(st.w_a, abs=1e-4)
    assert tt.ladder_male.cuts == pytest.approx(st.ladder_male.cuts, abs=1e-4)


def test_direct_equals_st_without_coupling():
    ds = small_synth()
    direct = fit(ds, TrainConfig(hyper=hyper(lam3=0.0, variant=Variant.DIRECT)))
    st = fit(ds, TrainConfig(hyper=hyper(lam3=0.0, variant=Variant.ST)))
    assert direct.w_g == pytest.approx(st.w_g, abs=1e-5)
    assert direct.w_a == pytest.approx(st.w_a, abs=1e-5)
    assert direct.ladder_male.cuts == pytest.approx(st.ladder_male.cuts, abs=1e-5)


def test_two_step_gender_model_is_the_standalone_svm():
    ds = small_synth()
    model = fit(ds, TrainConfig(hyper=hyper(variant=Variant.TWO_STEP)))
    standalone = solve_svm(ds, 10.0)
    assert model.w_g == pytest.approx(standalone.w, abs=1e-5)


def test_coupling_pushes_directions_toward_orthogonality():
    ds = generate(SynthConfig(seed=42))
    deviations = []
    for lam3 in (0.0, 10.0, 1000.0):
        model = fit(ds, TrainConfig(hyper=hyper(lam3=lam3)))
        deviations.append(abs(angle_deg(model.w_g, model.w_a) - 90.0))
    assert deviations[0] >= deviations[1] >= deviations[2]


def test_shared_ladder_variants_share_one_object():
    ds = small_synth()
    model = fit(ds, TrainConfig(hyper=hyper(variant=Variant.ST)))
    assert model.ladder_male is model.ladder_female


def test_missing_gender_raises():
    ds = Dataset([[0.0], [1.0], [2.0]], [1, 1, 1], [1, 2, 2], num_ranks=2)
    with pytest.raises(DegenerateGender):
        fit(ds, TrainConfig(hyper=hyper()))


def test_fit_is_deterministic():
    ds = small_synth()
    a = fit(ds, TrainConfig(hyper=hyper()))
    b = fit(ds, TrainConfig(hyper=hyper()))
    assert np.array_equal(a.w_g, b.w_g)
    assert np.array_equal(a.w_a, b.w_a)
    assert a.objective_trace == b.objective_trace


def test_record_trace_flag():
    ds = small_synth()
    model = fit(ds, TrainConfig(hyper=hyper(), record_trace=False))
    assert model.objective_trace == ()


# ------------------------------------------------------------------- predict

def hand_model():
    return GenAgeModel(
        w_g=[1.0, 0.0], b_g=0.0, w_a=[0.0, 1.0],
        ladder_male=ThresholdLadder([0.0]), ladder_female=ThresholdLadder([2.0]),
        variant=Variant.TT,
    )


def test_predict_hand_built_example():
    assert predict(hand_model(), np.array([1.0, 1.0])) == (1, 2)


def test_predict_below_first_cut_is_rank_one():
    assert predict(hand_model(), np.array([1.0, -1.0])) == (1, 1)


def test_predict_routes_by_predicted_gender():
    model = hand_model()
    # negative first coordinate flips the gender, so the female ladder applies
    assert predict(model, np.array([-1.0, 1.0])) == (-1, 1)


def test_sign_zero_counts_as_male():
    gender, _ = predict(hand_model(), np.array([0.0, -5.0]))
    assert gender == 1


def test_direct_rank_is_routing_invariant():
    ds = small_synth()
    model = fit(ds, TrainConfig(hyper=hyper(lam3=0.0, variant=Variant.DIRECT)))
    X = ds.features[:10]
    _, ranks = predict_batch(model, X)
    _, flipped = predict_batch(model, X, gender_override=-predict_batch(model, X)[0])
    assert np.array_equal(ranks, flipped)


def test_predict_dimension_check():
    with pytest.raises(DimensionMismatch):
        predict(hand_model(), np.ones(3))


# ----------------------------------------------------------- objective_value

def test_objective_value_hand_sum():
    # three samples, all-zero state, ladders at zero: gender hinges are 1 each;
    # interior-rank samples pay both unit violations, edge ranks pay one
    ds = Dataset([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]], [1, -1, 1], [1, 2, 3], num_ranks=3)
    hp = HyperParams(lambda1=2.0, lambda2=3.0, lambda3=7.0)
    zeros = np.zeros(2)
    ladder = ThresholdLadder([0.0, 0.0])
    value = objective_value(ds, hp, zeros, 0.0, zeros, ladder, ladder)
    assert value == pytest.approx(2.0 * 3 + 3.0 * 4, abs=1e-12)


def test_orthogonal_directions_zero_the_coupling():
    ds = Dataset([[1.0, 0.0], [0.0, 1.0]], [1, -1], [1, 2], num_ranks=2)
    ladder = ThresholdLadder([0.0])
    base = HyperParams(lambda1=1.0, lambda2=1.0, lambda3=0.0)
    raised = HyperParams(lambda1=1.0, lambda2=1.0, lambda3=500.0)
    w_g = np.array([1.0, 0.0])
    w_a = np.array([0.0, 1.0])
    a = objective_value(ds, base, w_g, 0.0, w_a, ladder, ladder)
    b = objective_value(ds, raised, w_g, 0.0, w_a, ladder, ladder)
    assert a == pytest.approx(b, abs=1e-12)


def test_coupling_term_scales_linearly_in_lambda3():
    ds = Dataset([[1.0, 0.0], [0.0, 1.0]], [1, -1], [1, 2], num_ranks=2)
    ladder = ThresholdLadder([0.0])
    w_g = np.array([1.0, 0.5])
    w_a = np.array([0.5, 1.0])
    values = []
    for lam3 in (1.0, 2.0, 5.0):
        hp = HyperParams(lambda1=1.0, lambda2=1.0, lambda3=lam3)
        values.append(objective_value(ds, hp, w_g, 0.0, w_a, ladder, ladder))
    base = objective_value(
        ds, HyperParams(lambda1=1.0, lambda2=1.0, lambda3=0.0), w_g, 0.0, w_a, ladder, ladder
    )
    coupling = float(w_g @ w_a) ** 2
    for lam3, value in zip((1.0, 2.0, 5.0), values):
        assert value - base == pytest.approx(lam3 * coupling, rel=1e-12)


def test_model_objective_matches_trace_tail():
    ds = small_synth()
    hp = hyper(lam3=0.0, variant=Variant.DIRECT)
    model = fit(ds, TrainConfig(hyper=hp))
    # DIRECT forces the coupling weight to zero in its recorded trace
    assert model_objective(ds, hp.replace(lambda3=0.0), model) == pytest.approx(
        model.objective_trace[-1], rel=1e-9
    )


# ------------------------------------------------------- shared init solves

def test_direct_runs_one_ordinal_solve(svor_calls):
    model = fit(small_synth(), TrainConfig(hyper=hyper(variant=Variant.DIRECT)))
    assert svor_calls == [(10.0, True)]
    trace = model.objective_trace
    assert len(trace) == 3 and trace[2] == trace[1] <= trace[0]


def test_fit_many_shares_the_init_and_matches_separate_fits(svor_calls):
    ds = small_synth(discrepancy=1.5)
    configs = [TrainConfig(hyper=HyperParams(lambda1=10.0, lambda2=lam2, lambda3=lam3, t_max=2, variant=v))
               for v in Variant for lam3 in (10.0, 1000.0) for lam2 in (10.0, 30.0)]
    separate = [fit(ds, cfg) for cfg in configs]
    svor_calls.clear()
    together = fit_many(ds, configs)
    assert sorted(lam2 for lam2, init in svor_calls if init) == [10.0, 30.0]
    for a, b in zip(separate, together, strict=True):
        assert a.variant == b.variant
        assert np.array_equal(a.w_g, b.w_g) and a.b_g == b.b_g
        assert np.array_equal(a.w_a, b.w_a)
        assert np.array_equal(a.ladder_male.cuts, b.ladder_male.cuts)
        assert np.array_equal(a.ladder_female.cuts, b.ladder_female.cuts)
        assert a.objective_trace == b.objective_trace

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
    generate,
    objective_value,
    predict,
    predict_batch,
    solve_svm,
)
from genage.errors import BadConfig, BadGenderLabel, DegenerateGender, DimensionMismatch

from _oracles import alternation_oracle, loop_hinge, loop_slacks


def hyper(lam3=1000.0, variant=Variant.TT, **kw):
    return HyperParams(lambda1=10.0, lambda2=10.0, lambda3=lam3, t_max=2,
                       variant=variant, **kw)


def fresh_copy(ds):
    """The same data in a new dataset, whose store is empty."""
    return Dataset(ds.features, ds.gender, ds.age_rank, num_ranks=ds.num_ranks, rank_to_year=ds.rank_to_year)


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


@pytest.mark.parametrize("variant", ["direct", "st"])
def test_shared_ladder_variants_share_one_object(variant):
    ds = small_synth()
    model = fit(ds, TrainConfig(hyper=hyper(variant=variant)))
    assert model.ladder_male is model.ladder_female


def test_missing_gender_raises():
    ds = Dataset([[0.0], [1.0], [2.0]], [1, 1, 1], [1, 2, 2], num_ranks=2)
    with pytest.raises(DegenerateGender):
        fit(ds, TrainConfig(hyper=hyper()))


def test_fit_given_hyperparameters_instead_of_a_config_raises():
    with pytest.raises(BadConfig, match="expects a TrainConfig, got HyperParams"):
        fit(small_synth(), hyper())


def test_fit_is_deterministic():
    ds = small_synth()
    a = fit(ds, TrainConfig(hyper=hyper()))
    b = fit(ds, TrainConfig(hyper=hyper()))
    assert np.array_equal(a.w_g, b.w_g)
    assert np.array_equal(a.w_a, b.w_a)
    assert a.objective_trace == b.objective_trace


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
    for X in (np.ones((4, 3)), np.ones(2)):
        with pytest.raises(DimensionMismatch):
            predict_batch(hand_model(), X)


def test_predict_batch_rejects_an_override_of_the_wrong_length():
    X = np.array([[1.0, 0.0], [-1.0, 1.0]])
    with pytest.raises(DimensionMismatch):
        predict_batch(hand_model(), X, gender_override=[1, -1, 1])


def test_predict_batch_rejects_override_labels_other_than_plus_or_minus_one():
    X = np.array([[1.0, 0.0], [-1.0, 1.0], [0.0, 2.0]])
    with pytest.raises(BadGenderLabel) as excinfo:
        predict_batch(hand_model(), X, gender_override=[1, 7, -1])
    assert (excinfo.value.index, excinfo.value.value) == (1, 7)


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
    for w_g, w_a in ((np.zeros(3), zeros), (zeros, np.zeros(1))):
        with pytest.raises(DimensionMismatch):
            objective_value(ds, hp, w_g, 0.0, w_a, ladder, ladder)


@pytest.mark.parametrize("male, female", [(6, 6), (4, 5), (7, None), (3, 3)])
def test_objective_value_rejects_ladders_with_the_wrong_cut_count(male, female):
    # K = 5 wants 4 cuts per ladder; None stands for the male ladder shared
    ds = small_synth(num_ranks=5)
    ladder_male = ThresholdLadder(np.arange(float(male)))
    ladder_female = ladder_male if female is None else ThresholdLadder(np.arange(float(female)))
    with pytest.raises(DimensionMismatch, match="must hold 4 cuts"):
        objective_value(ds, hyper(), np.zeros(ds.dim), 0.0, np.zeros(ds.dim), ladder_male, ladder_female)


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


@pytest.mark.parametrize("seed", range(6))
def test_each_loss_matches_a_per_sample_loop(seed):
    """objective_value against loops over the samples: random states with a
    nonzero bias, different ladders per gender and a nonzero coupling, on
    data with ranks 1 and K and no female of the middle rank."""
    rng = np.random.default_rng(seed)
    num_ranks, n, d = 5, 80, 4
    genders = rng.choice([1, -1], n)
    ranks = rng.integers(1, num_ranks + 1, n)
    genders[:4], ranks[:4] = [1, 1, -1, -1], [1, num_ranks, 1, num_ranks]
    ranks[(genders == -1) & (ranks == 3)] = 2
    ds = Dataset(rng.normal(size=(n, d)), genders, ranks, num_ranks=num_ranks)
    X = ds.features
    w_g, w_a = rng.normal(size=(2, d))
    b_g = float(rng.normal())
    cuts_male, cuts_female = np.sort(rng.normal(scale=2.0, size=(2, num_ranks - 1)), axis=1)
    ladder_male, ladder_female = ThresholdLadder(cuts_male), ThresholdLadder(cuts_female)
    hp = HyperParams(lambda1=3.0, lambda2=5.0, lambda3=7.0)

    hinge = loop_hinge(X, genders, w_g, b_g)
    slacks = loop_slacks(X @ w_a, ranks, genders, cuts_male, cuts_female)
    shared_slacks = loop_slacks(X @ w_a, ranks, genders, cuts_male, cuts_male)
    assert ranks[genders == -1].tolist().count(3) == 0 and hinge > 0.0 and slacks > 0.0

    def close(got, want):
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)

    quad = 0.5 * w_g @ w_g + 0.5 * w_a @ w_a + hp.lambda3 * (w_g @ w_a) ** 2
    # each loss alone, then both, on split ladders and on one shared ladder
    close(objective_value(ds, hp.replace(lambda2=0.0), w_g, b_g, w_a, ladder_male, ladder_female),
          quad + hp.lambda1 * hinge)
    close(objective_value(ds, hp.replace(lambda1=0.0), w_g, b_g, w_a, ladder_male, ladder_female),
          quad + hp.lambda2 * slacks)
    close(objective_value(ds, hp, w_g, b_g, w_a, ladder_male, ladder_female),
          quad + hp.lambda1 * hinge + hp.lambda2 * slacks)
    close(objective_value(ds, hp, w_g, b_g, w_a, ladder_male, ladder_male),
          quad + hp.lambda1 * hinge + hp.lambda2 * shared_slacks)


def test_model_objective_matches_trace_tail():
    ds = small_synth()
    hp = hyper(lam3=0.0, variant=Variant.DIRECT)
    model = fit(ds, TrainConfig(hyper=hp))
    # DIRECT forces the coupling weight to zero in its recorded trace
    value = objective_value(ds, hp.replace(lambda3=0.0), model.w_g, model.b_g, model.w_a,
                            model.ladder_male, model.ladder_female)
    assert value == pytest.approx(model.objective_trace[-1], rel=1e-9)


# ------------------------------------------------------- shared init solves

def test_direct_runs_one_ordinal_solve(svor_calls):
    model = fit(small_synth(), TrainConfig(hyper=hyper(variant=Variant.DIRECT)))
    assert svor_calls == [(10.0, True)]
    trace = model.objective_trace
    assert len(trace) == 3 and trace[2] == trace[1] <= trace[0]


def assert_same_model(a, b):
    """Equal bit for bit, the trace included."""
    assert a.variant == b.variant
    assert np.array_equal(a.w_g, b.w_g) and a.b_g == b.b_g
    assert np.array_equal(a.w_a, b.w_a)
    assert np.array_equal(a.ladder_male.cuts, b.ladder_male.cuts)
    assert np.array_equal(a.ladder_female.cuts, b.ladder_female.cuts)
    assert a.objective_trace == b.objective_trace


def test_separate_fits_on_one_dataset_solve_each_init_once(svor_calls, svm_calls):
    """The dataset's store keeps the init per (lambda2, tol) and the first
    classifier step, so separate fits share them, and each model is the one
    a fit on a fresh copy returns.  direct and 2step pose the same lambda3 = 0
    first classifier step, and st and tt the same coupled one per lambda3."""
    ds = small_synth(discrepancy=1.5)
    configs = [TrainConfig(hyper=HyperParams(lambda2=lam2, lambda3=lam3, tol=tol, variant=v))
               for tol in (1e-6, 1e-8) for lam2 in (10.0, 30.0) for lam3 in (10.0, 1000.0) for v in Variant]
    models = [fit(ds, cfg) for cfg in configs]
    assert sorted(lam2 for lam2, init in svor_calls if init) == [10.0, 10.0, 30.0, 30.0]
    assert sorted(lam3 for lam3, first in svm_calls if first) == [0.0] * 4 + [10.0] * 4 + [1000.0] * 4
    svor_calls.clear()
    assert fit(ds, configs[-1]).objective_trace == models[-1].objective_trace
    assert not any(init for _, init in svor_calls)
    for cfg, model in zip(configs, models, strict=True):
        assert_same_model(fit(fresh_copy(ds), cfg), model)


def test_objective_value_reads_a_shared_ladder_as_the_split_terms_do():
    ds = small_synth(discrepancy=1.5)
    model = fit(ds, TrainConfig(hyper=hyper(variant=Variant.ST)))
    hp = hyper()
    ladder = model.ladder_male
    shared = objective_value(ds, hp, model.w_g, model.b_g, model.w_a, ladder, ladder)
    split = objective_value(ds, hp, model.w_g, model.b_g, model.w_a, ladder, ThresholdLadder(ladder.cuts))
    assert shared == split


def tiny_fit_problems(count, seed):
    """Seeded tiny problems (n 8-30, d 1-4, K 2-4, any variant, weights over
    three decades) in which each gender spans ranks 1 and K."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n, d, num_ranks = int(rng.integers(8, 31)), int(rng.integers(1, 5)), int(rng.integers(2, 5))
        X = rng.normal(size=(n, d)) * 10.0 ** rng.uniform(-1, 1)
        genders = rng.permutation(np.resize([1, -1], n))
        ranks = rng.integers(1, num_ranks + 1, size=n)
        for gender in (1, -1):
            ranks[np.flatnonzero(genders == gender)[:2]] = (1, num_ranks)
        variant = list(Variant)[int(rng.integers(4))]
        (lam1, lam2), lam3 = 10.0 ** rng.uniform(-1, 2, size=2), 10.0 ** rng.uniform(-1, 3)
        yield (Dataset(X, genders, ranks, num_ranks=num_ranks), rng.permutation(n),
               HyperParams(lambda1=lam1, lambda2=lam2, lambda3=lam3, variant=variant))


def test_tiny_fits_are_row_order_invariant_with_sorted_ladders_and_falling_traces():
    for ds, order, hyper in tiny_fit_problems(24, seed=3):
        cfg = TrainConfig(hyper=hyper)
        model, shuffled = fit(ds, cfg), fit(ds.subset(order), cfg)
        final = model.objective_trace[-1]
        assert abs(shuffled.objective_trace[-1] - final) <= 1e-6 * abs(final)
        for m in (model, shuffled):
            assert np.all(np.diff(m.ladder_male.cuts) >= 0.0)
            assert np.all(np.diff(m.ladder_female.cuts) >= 0.0)
            assert np.all(np.diff(m.objective_trace) <= 0.0)


@pytest.mark.parametrize("t_max", [2, 50])
def test_fit_is_the_plain_alternation_bit_for_bit(t_max):
    """fit against the alternation written out block by block, on fresh
    copies: the same models and traces, direct's untouched ordinal block
    included."""
    ds = generate(SynthConfig(discrepancy=2.0))
    problems = [(ds, hyper(variant=v).replace(t_max=t_max)) for v in Variant]
    problems += [(tiny, hp.replace(t_max=t_max)) for tiny, _, hp in tiny_fit_problems(12, seed=5)]
    for data, hp in problems:
        assert_same_model(fit(data, TrainConfig(hyper=hp)), alternation_oracle(data, hp))

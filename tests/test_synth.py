import tracemalloc
from collections import Counter

import numpy as np
import pytest

from genage import (
    SynthConfig,
    TrainConfig,
    HyperParams,
    Variant,
    effective_cuts,
    fit,
    generate,
    solve_svm,
    true_directions,
)
from genage.errors import BadConfig, NonFiniteFeature


def test_determinism_is_bit_exact():
    cfg = SynthConfig(seed=11)
    a = generate(cfg)
    b = generate(cfg)
    assert np.array_equal(a.features, b.features)
    assert np.array_equal(a.gender, b.gender)
    assert np.array_equal(a.age_rank, b.age_rank)


def test_cell_counts_are_exact():
    cfg = SynthConfig(samples_per_cell=7, num_ranks=4,
                      male_cut_centers=(-2.0, 0.0, 2.0), seed=0)
    ds = generate(cfg)
    counts = Counter(zip(ds.gender.tolist(), ds.age_rank.tolist()))
    assert counts == {(g, k): 7 for g in (1, -1) for k in range(1, 5)}


def test_directions_are_orthonormal():
    cfg = SynthConfig(dim=4, num_ranks=3, male_cut_centers=(-1.0, 1.0))
    g, a = true_directions(cfg)
    assert np.array_equal(np.stack((g, a)), np.eye(4)[:2])


def test_noiseless_projections_stay_inside_their_bins():
    cfg = SynthConfig(noise_sigma=0.0, seed=3)
    ds = generate(cfg)
    _, a = true_directions(cfg)
    cuts_m, cuts_f = effective_cuts(cfg)
    for gender, cuts in ((1, cuts_m), (-1, cuts_f)):
        lows = np.r_[cuts[0] - 2.0, cuts]
        highs = np.r_[cuts, cuts[-1] + 2.0]
        mask = ds.gender == gender
        pos = ds.features[mask] @ a
        ranks = ds.age_rank[mask]
        assert np.all(pos > lows[ranks - 1])
        assert np.all(pos < highs[ranks - 1])


def test_discrepancy_strictly_widens_the_true_cut_gap():
    gaps = []
    for disc in (0.0, 1.0, 2.5):
        cuts_m, cuts_f = effective_cuts(SynthConfig(discrepancy=disc))
        gaps.append(float(np.abs(cuts_m - cuts_f).max()))
    assert gaps[0] < gaps[1] < gaps[2]


def test_default_draw_is_gender_separable():
    ds = generate(SynthConfig())
    sol = solve_svm(ds, 10.0)
    pred = np.where(ds.features @ sol.w + sol.b >= 0, 1, -1)
    assert float(np.mean(pred == ds.gender)) >= 0.99


def test_mirrored_genders_make_tt_and_st_agree():
    # no discrepancy, no noise: the two genders are exact mirrors and the
    # shared and split fits land on the same ladders
    cfg = SynthConfig(discrepancy=0.0, noise_sigma=0.0, samples_per_cell=15, seed=5)
    ds = generate(cfg)
    hp = HyperParams(lambda1=10.0, lambda2=10.0, lambda3=1000.0, t_max=2)
    tt = fit(ds, TrainConfig(hyper=hp.replace(variant=Variant.TT)))
    st = fit(ds, TrainConfig(hyper=hp.replace(variant=Variant.ST)))
    assert tt.ladder_male.cuts == pytest.approx(tt.ladder_female.cuts, abs=1e-6)
    assert tt.ladder_male.cuts == pytest.approx(st.ladder_male.cuts, abs=1e-4)


def test_generate_builds_the_features_once():
    """The dataset takes over the arrays generate builds instead of copying
    them: the peak stays near the result's own size (a copy makes it 2.4x)."""
    tracemalloc.start()
    try:
        ds = generate(SynthConfig(samples_per_cell=10_000))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert ds.n == 100_000
    assert peak <= 1.5 * (ds.features.nbytes + ds.gender.nbytes + ds.age_rank.nbytes)


def test_bad_configs_rejected():
    # when the config is built, not first when it is generated
    with pytest.raises(BadConfig):
        SynthConfig(gender_gap=0.0)
    with pytest.raises(BadConfig):
        SynthConfig(noise_sigma=-1.0)
    with pytest.raises(BadConfig):
        SynthConfig(male_cut_centers=(1.0, 0.0, 2.0, 3.0))
    with pytest.raises(BadConfig):
        SynthConfig(male_cut_centers=(0.0, 1.0))  # wrong length for K=5
    with pytest.raises(BadConfig, match="dim"):
        SynthConfig(dim=1)
    with pytest.raises(BadConfig, match="num_ranks"):
        SynthConfig(num_ranks=1, male_cut_centers=())
    with pytest.raises(BadConfig):
        SynthConfig(samples_per_cell=0)
    with pytest.raises(BadConfig, match="dim"):
        SynthConfig().replace(dim=1)


@pytest.mark.parametrize("changes", [{"discrepancy": np.inf}, {"gender_gap": np.inf}, {"noise_sigma": np.nan},
                                     {"noise_sigma": 1e308}, {"male_cut_centers": (-np.inf, 0.0, 1.0, 2.0)}])
def test_settings_that_give_non_finite_features_raise_a_typed_error(changes):
    # a RuntimeWarning on the way, an inf - inf or an overflow, fails the test too
    with pytest.raises(NonFiniteFeature):
        generate(SynthConfig(samples_per_cell=2, **changes))


@pytest.mark.parametrize("field, value, kind", [
    ("dim", "3", "an integer"),
    ("seed", 4.0, "an integer"),
    ("samples_per_cell", True, "an integer"),
    ("gender_gap", "4", "a number"),
    ("noise_sigma", None, "a number"),
    ("discrepancy", 10**400, "a number"),
    ("male_cut_centers", 5, "a sequence of numbers"),
    ("male_cut_centers", (0.0, "1", 2.0, 3.0), "a sequence of numbers"),
    ("male_cut_centers", np.zeros((2, 2)), "a sequence of numbers"),
])
def test_a_wrongly_typed_field_is_named(field, value, kind):
    with pytest.raises(BadConfig, match=f"synth config field '{field}' must be {kind}"):
        SynthConfig(**{field: value})


def test_numpy_numbers_and_sequences_are_accepted():
    cuts = np.linspace(-3.0, 3.0, 4)
    for cfg in (SynthConfig(dim=np.int64(3), noise_sigma=np.float64(0.5), male_cut_centers=cuts),
                SynthConfig(dim=3, gender_gap=4, male_cut_centers=list(cuts))):
        assert generate(cfg).features.shape == (400, 3)


def concatenating_generate(cfg):
    """The per-cell generator that builds each cell as its own array and joins them."""
    from genage.synth import _BIN_INSET, _bins

    g_dir, a_dir = true_directions(cfg)
    lows_m, highs_m = _bins(effective_cuts(cfg)[0])
    lows_f, highs_f = _bins(effective_cuts(cfg)[1])
    rng = np.random.default_rng(cfg.seed)
    m = cfg.samples_per_cell
    male_cells, female_cells, cell_ranks = [], [], []
    for k in range(cfg.num_ranks):
        u = rng.uniform(size=m)
        noise = rng.standard_normal(size=(m, cfg.dim))
        frac = _BIN_INSET + (1.0 - 2.0 * _BIN_INSET) * u
        pos_m = lows_m[k] + (highs_m[k] - lows_m[k]) * frac
        pos_f = lows_f[k] + (highs_f[k] - lows_f[k]) * frac
        half_gap = 0.5 * cfg.gender_gap
        male_cells.append(half_gap * g_dir + np.outer(pos_m, a_dir) + cfg.noise_sigma * noise)
        female_cells.append(-half_gap * g_dir + np.outer(pos_f, a_dir) + cfg.noise_sigma * noise)
        cell_ranks.append(np.full(m, k + 1))
    half = cfg.num_ranks * m
    genders = np.concatenate((np.full(half, 1), np.full(half, -1)))
    return np.concatenate(male_cells + female_cells), genders, np.concatenate(cell_ranks + cell_ranks)


@pytest.mark.parametrize("cfg", [
    SynthConfig(),
    SynthConfig(discrepancy=2.0, seed=8),
    SynthConfig(num_ranks=40, male_cut_centers=tuple(np.linspace(-6.0, 6.0, 39)),
                samples_per_cell=5, seed=3),
    SynthConfig(noise_sigma=0.0, seed=4),
    SynthConfig(dim=3, num_ranks=2, male_cut_centers=(0.5,), samples_per_cell=1, seed=9),
])
def test_generate_matches_the_concatenating_version(cfg):
    features, genders, ranks = concatenating_generate(cfg)
    ds = generate(cfg)
    assert ds.features.tobytes() == features.tobytes()
    assert np.array_equal(ds.gender, genders) and np.array_equal(ds.age_rank, ranks)

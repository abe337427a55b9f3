from collections import Counter

import numpy as np
import pytest
from _oracles import loop_split, loop_stratified_folds
from hypothesis import given, settings
from hypothesis import strategies as st

from genage import (
    Dataset,
    HyperParams,
    SynthConfig,
    angle_deg,
    cross_validate,
    generate,
    hyper_grid,
    mae,
    fit_pls_dataset,
    predict_pls_batch,
    run_experiment,
    select_pls_components,
    split_train_test,
    stratified_folds,
)
from genage.errors import EmptyInput, InfeasibleFolds, LengthMismatch, ZeroVector


def cell_counts(ds):
    """Rows per nonempty (gender, rank) cell."""
    return Counter(zip(ds.gender.tolist(), ds.age_rank.tolist()))


def test_mae_identical_sequences():
    assert mae([2, 3, 4], [2, 3, 4]) == 0.0


def test_mae_hand_value():
    assert mae([1, 3], [2, 5]) == pytest.approx(1.5)


def test_mae_is_symmetric_and_bounded():
    rng = np.random.default_rng(0)
    K = 6
    p = rng.integers(1, K + 1, size=40)
    t = rng.integers(1, K + 1, size=40)
    assert mae(p, t) == mae(t, p)
    assert 0.0 <= mae(p, t) <= K - 1


def test_mae_errors():
    with pytest.raises(LengthMismatch):
        mae([1, 2], [1, 2, 3])
    with pytest.raises(EmptyInput):
        mae([], [])


def test_angle_reference_pairs():
    assert angle_deg([1, 0], [0, 1]) == pytest.approx(90.0)
    assert angle_deg([1, 0], [2, 0]) == pytest.approx(0.0)
    assert angle_deg([1, 0], [-1, 0]) == pytest.approx(180.0)


def test_angle_scale_invariance():
    rng = np.random.default_rng(1)
    u = rng.normal(size=5)
    v = rng.normal(size=5)
    assert angle_deg(3.7 * u, 0.2 * v) == pytest.approx(angle_deg(u, v), abs=1e-10)


def test_angle_zero_vector():
    with pytest.raises(ZeroVector):
        angle_deg([0.0, 0.0], [1.0, 0.0])


# ----------------------------------------------------------------- folds / cv

def test_folds_partition_the_dataset():
    ds = generate(SynthConfig(samples_per_cell=9, seed=2))
    folds = stratified_folds(ds, 4)
    joined = np.sort(np.concatenate(folds))
    assert np.array_equal(joined, np.arange(ds.n))
    for i in range(len(folds)):
        for j in range(i + 1, len(folds)):
            assert np.intersect1d(folds[i], folds[j]).size == 0


def test_infeasible_folds_detected():
    ds = generate(SynthConfig(samples_per_cell=1, dim=4, num_ranks=2,
                              male_cut_centers=(0.0,), seed=3))
    with pytest.raises(InfeasibleFolds):
        stratified_folds(ds, 4)
    with pytest.raises(InfeasibleFolds, match="two folds"):
        stratified_folds(ds, 1)
    eight = generate(SynthConfig(samples_per_cell=1, dim=4, num_ranks=4,
                                 male_cut_centers=(-1.0, 0.0, 1.0), seed=3))
    assert eight.n == 8
    with pytest.raises(InfeasibleFolds, match="fold 8 is empty"):
        stratified_folds(eight, 9)


def test_fold_that_trains_on_one_gender_is_detected():
    # rows in cell order: males of rank 1, 1, 2, 2, then the one female;
    # fold 0 holds rows 0, 2 and the female, so its training side is male
    ds = Dataset([[0.0], [1.0], [2.0], [3.0], [4.0]], [1, 1, 1, 1, -1], [1, 1, 2, 2, 1], num_ranks=2)
    with pytest.raises(InfeasibleFolds, match="fold 0 leaves a single gender for training"):
        stratified_folds(ds, 2)


cells = st.integers(2, 8).flatmap(lambda k: st.tuples(
    st.just(k), st.lists(st.tuples(st.sampled_from([1, -1]), st.integers(1, k)), min_size=1, max_size=40)))


def indexed_dataset(k, rows):
    """A dataset whose one feature is each row's index."""
    return Dataset(np.arange(len(rows), dtype=float)[:, None], [g for g, _ in rows], [r for _, r in rows],
                   num_ranks=k)


def is_feasible(ds, folds):
    """The conditions stratified_folds checks, on the given fold rows."""
    for val in folds:
        keep = np.setdiff1d(np.arange(ds.n), val)
        ranks = [np.unique(ds.age_rank[keep][ds.gender[keep] == g]) for g in (1, -1)]
        if val.size == 0 or min(r.size for r in ranks) < 2:
            return False
    return True


@settings(max_examples=300, deadline=None)
@given(cells, st.integers(2, 5))
def test_folds_match_the_per_cell_loop(cells, folds):
    k, rows = cells
    ds = indexed_dataset(k, rows)
    expected = loop_stratified_folds(ds.gender, ds.age_rank, k, folds)
    if is_feasible(ds, expected):
        got = stratified_folds(ds, folds)
        assert len(got) == folds and all(np.array_equal(a, b) for a, b in zip(got, expected))
    else:
        with pytest.raises(InfeasibleFolds):
            stratified_folds(ds, folds)


@settings(max_examples=300, deadline=None)
@given(cells, st.integers(1, 8), st.integers(0, 2**32 - 1))
def test_split_matches_the_per_cell_loop(cells, train_per_rank, seed):
    k, rows = cells
    ds = indexed_dataset(k, rows)
    rng, loop_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    train_idx, test_idx = loop_split(ds.gender, ds.age_rank, k, train_per_rank, loop_rng)
    if test_idx.size == 0:
        with pytest.raises(InfeasibleFolds, match="no test samples"):
            split_train_test(ds, train_per_rank, rng)
    else:
        train, test = split_train_test(ds, train_per_rank, rng)
        assert np.array_equal(train.features[:, 0], train_idx)
        assert np.array_equal(test.features[:, 0], test_idx)
    # the same permutations in the same order leave the generators level
    assert rng.bit_generator.state == loop_rng.bit_generator.state


def test_single_point_grid_returned_as_is():
    ds = generate(SynthConfig(samples_per_cell=10, dim=5, seed=4))
    only = HyperParams(lambda1=10.0, lambda2=10.0, lambda3=50.0, t_max=1)
    best, table = cross_validate(ds, [only], folds=3)
    assert best is only
    assert len(table) == 1 and len(table[0][1]) == 3


def test_empty_grid_rejected():
    with pytest.raises(EmptyInput, match="grid"):
        cross_validate(generate(SynthConfig(samples_per_cell=4, dim=3, seed=4)), [], folds=2)


def test_tie_break_prefers_larger_lambda3():
    grid = hyper_grid(lambda1s=(10.0,), lambda2s=(100.0,), lambda3s=(0.0, 100.0), t_max=1)
    # wide margins in every direction make both settings predict perfectly,
    # so the fold scores tie exactly and the tie-break decides
    rng = np.random.default_rng(5)
    rows, genders, ranks = [], [], []
    for gender in (1, -1):
        for rank, center in ((1, -6.0), (2, 6.0)):
            for _ in range(9):
                rows.append([gender * 5.0 + rng.uniform(-0.5, 0.5),
                             center + rng.uniform(-0.5, 0.5)])
                genders.append(gender)
                ranks.append(rank)
    ds = Dataset(rows, genders, ranks, num_ranks=2)
    best, table = cross_validate(ds, grid, folds=3)
    means = [float(np.mean(scores)) for _, scores in table]
    assert means[0] == means[1] == 0.0
    assert best.lambda3 == 100.0


def test_cross_validate_solves_one_init_per_fold(svor_calls):
    ds = generate(SynthConfig(samples_per_cell=10, dim=5, seed=4))
    grid = hyper_grid(lambda3s=(10.0, 100.0, 1000.0), t_max=1)
    grid += [HyperParams(variant=v, t_max=1) for v in ("direct", "2step", "st")]
    _, table = cross_validate(ds, grid, folds=3)
    assert sum(init for _, init in svor_calls) == 3
    assert [len(scores) for _, scores in table] == [3] * len(grid)


def test_coupling_wins_cv_on_discrepant_data():
    ds = generate(SynthConfig(discrepancy=2.0, seed=42))
    grid = hyper_grid(lambda1s=(10.0,), lambda2s=(10.0,), lambda3s=(0.0, 1000.0))
    best, _ = cross_validate(ds, grid, folds=5)
    assert best.lambda3 == 1000.0


# --------------------------------------------------------------- experiments

def test_split_respects_requested_budget():
    ds = generate(SynthConfig(samples_per_cell=20, seed=6))
    rng = np.random.default_rng(0)
    train, test = split_train_test(ds, 10, rng)
    assert cell_counts(train) == {(g, k): 5 for g in (1, -1) for k in range(1, ds.num_ranks + 1)}
    assert train.n + test.n == ds.n


def test_split_small_cells_fall_back_to_everything():
    ds = generate(SynthConfig(samples_per_cell=8, seed=7))
    # starve one cell below the requested budget
    drop = np.flatnonzero((ds.gender == 1) & (ds.age_rank == 1))[:5]
    ds = ds.subset(np.setdiff1d(np.arange(ds.n), drop))
    rng = np.random.default_rng(0)
    train, test = split_train_test(ds, 10, rng)
    every_cell = [(g, k) for g in (1, -1) for k in range(1, ds.num_ranks + 1)]
    # the whole starved cell went to training, and none of it to testing
    assert cell_counts(train) == {cell: 3 if cell == (1, 1) else 5 for cell in every_cell}
    assert cell_counts(test) == {cell: 3 for cell in every_cell if cell != (1, 1)}
    with pytest.raises(InfeasibleFolds):
        # taking literally everything leaves no test side at all
        split_train_test(ds, 100, np.random.default_rng(0))


def test_single_run_report_is_reproducible():
    cfg = SynthConfig(samples_per_cell=14, dim=6, seed=8)
    hp = HyperParams(lambda1=10.0, lambda2=10.0, lambda3=100.0, t_max=1)
    a = run_experiment(cfg, ["tt"], train_per_rank=14, runs=1, hyper=hp, seed=3)
    b = run_experiment(cfg, ["tt"], train_per_rank=14, runs=1, hyper=hp, seed=3)
    assert a["tt"].to_dict() == b["tt"].to_dict()


def test_split_ladders_beat_shared_on_discrepant_data():
    cfg = SynthConfig(samples_per_cell=50, discrepancy=2.0, seed=42)
    hp = HyperParams(lambda1=10.0, lambda2=10.0, lambda3=1000.0, t_max=2)
    reports = run_experiment(cfg, ["direct", "tt"], train_per_rank=50, runs=3,
                             hyper=hp, seed=42)
    assert reports["tt"].mean("mae_mixed") < reports["direct"].mean("mae_mixed")


def test_report_contains_ladders_and_diagnostics():
    cfg = SynthConfig(samples_per_cell=12, dim=6, seed=9)
    hp = HyperParams(lambda1=10.0, lambda2=10.0, lambda3=100.0, t_max=1)
    reports = run_experiment(cfg, ["st", "pls"], train_per_rank=12, runs=2,
                             hyper=hp, seed=1)
    st = reports["st"].to_dict()
    assert "ladder_spread_shared" in st  # shared-ladder runs expose one spread
    assert st["ladder_spread_male"] == st["ladder_spread_female"]
    assert "mae_oracle_routing" in st
    pls = reports["pls"].to_dict()
    assert "angle_deg" in pls and "mae_oracle_routing" not in pls
    for rec in reports["st"].records:
        assert rec.cuts_male is not None
        assert np.all(np.diff(rec.cuts_male) >= 0)


def test_experiment_solves_one_init_per_split(svor_calls):
    cfg = SynthConfig(samples_per_cell=12, dim=6, seed=9)
    hp = HyperParams(lambda1=10.0, lambda2=10.0, lambda3=100.0, t_max=1)
    reports = run_experiment(cfg, ["direct", "2step", "pls", "st", "tt"], train_per_rank=12, runs=2,
                             hyper=hp, seed=1)
    assert sum(init for _, init in svor_calls) == 2
    assert all(len(report.records) == 2 for report in reports.values())


def test_unknown_method_rejected():
    cfg = SynthConfig(samples_per_cell=8, dim=4, seed=10)
    with pytest.raises(ValueError):
        run_experiment(cfg, ["nonsense"], train_per_rank=8, runs=1)


def nested_refit_pls_selection(ds, max_components=8, folds=5):
    """Reference: refit every fold at every component count."""
    limit = min(ds.dim, ds.n - 1, max_components)
    fold_idx = stratified_folds(ds, folds)
    best, best_score = 1, np.inf
    for n in range(1, limit + 1):
        scores = []
        for val in fold_idx:
            train = ds.subset(np.setdiff1d(np.arange(ds.n), val))
            test = ds.subset(val)
            _, ranks = predict_pls_batch(fit_pls_dataset(train, n), test.features)
            scores.append(mae(ranks, test.age_rank))
        score = float(np.mean(scores))
        if score < best_score - 1e-12:
            best, best_score = n, score
    return best


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_pls_component_selection_matches_nested_refits(seed):
    ds = generate(SynthConfig(discrepancy=2.0, samples_per_cell=12, noise_sigma=1.5, seed=seed))
    assert select_pls_components(ds) == nested_refit_pls_selection(ds)

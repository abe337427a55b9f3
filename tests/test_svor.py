import numpy as np
import pytest

from genage import Dataset, predict_rank, predict_ranks, solve_svor, ThresholdLadder
from genage.errors import DimensionMismatch, InsufficientRanks

from _oracles import random_svor_holes_instance, random_svor_instance, svor_oracle

# reference optimum for the two-gender, three-rank line example below
LINE_EXAMPLE_OBJ = 0.5


def mirrored_pair_dataset():
    X = [[-2.0], [2.0], [-2.0], [2.0]]
    return Dataset(X, [1, 1, -1, -1], [1, 2, 1, 2], num_ranks=2)


def line_example_dataset():
    offsets = (-1.0, -0.5, 0.0, 0.5, 1.0)
    rows, genders, ranks = [], [], []
    for gender, centers in ((1, (-4.0, 0.0, 4.0)), (-1, (-4.0, 2.0, 8.0))):
        for rank, center in enumerate(centers, start=1):
            for off in offsets:
                rows.append([center + off])
                genders.append(gender)
                ranks.append(rank)
    return Dataset(rows, genders, ranks, num_ranks=3)


def test_mirrored_genders_share_the_midpoint_cut():
    sol = solve_svor(mirrored_pair_dataset(), 10.0)
    assert sol.w[0] > 0
    assert sol.ladder_male.cuts == pytest.approx([0.0], abs=1e-8)
    assert sol.ladder_female.cuts == pytest.approx([0.0], abs=1e-8)
    assert sol.objective == pytest.approx(0.125, abs=1e-8)


def test_line_example_matches_frozen_oracle_value():
    sol = solve_svor(line_example_dataset(), 10.0, split_thresholds=True, tol=1e-8)
    assert sol.objective == pytest.approx(LINE_EXAMPLE_OBJ, abs=1e-4)
    assert np.all(sol.ladder_female.cuts > sol.ladder_male.cuts)


def test_line_example_against_live_oracle():
    ds = line_example_dataset()
    sol = solve_svor(ds, 10.0, split_thresholds=True, tol=1e-8)
    ref = svor_oracle(ds.features, ds.age_rank, ds.gender, 3, 10.0, None, 0.0, True)
    assert abs(sol.objective - ref) <= 1e-4 * max(1.0, abs(ref))


def test_random_instances_match_qp_oracle():
    rng = np.random.default_rng(23)
    for _ in range(12):
        X, ranks, genders, num_ranks, lam2, anchor, lam3, split = random_svor_instance(rng)
        ds = Dataset(X, genders, ranks, num_ranks=num_ranks)
        sol = solve_svor(ds, lam2, anchor=anchor, lambda3=lam3,
                         split_thresholds=split, tol=1e-8)
        ref = svor_oracle(X, ranks, genders, num_ranks, lam2, anchor, lam3, split)
        assert abs(sol.objective - ref) <= 1e-4 * max(1.0, abs(ref))
        assert np.all(np.diff(sol.ladder_male.cuts) >= -1e-9)
        assert np.all(np.diff(sol.ladder_female.cuts) >= -1e-9)


def test_crossing_across_an_empty_cut_is_merged():
    """The males hold no rank-2 and no rank-3 sample, so their middle cut
    has no hinge terms, and the optima of the valued cuts on either side of
    it cross."""
    X = np.array([[-24.1, 9.0], [8.4, 7.7], [2.4, -11.4], [-4.6, -3.7], [-11.0, 18.2],
                  [4.6, 19.7], [11.8, 3.1], [-3.6, 1.3], [-6.1, -11.4]])
    genders = np.array([1, -1, -1, -1, 1, 1, -1, -1, -1])
    ranks = np.array([1, 2, 1, 2, 4, 4, 4, 3, 3])
    sol = solve_svor(Dataset(X, genders, ranks, num_ranks=4), 127.0, split_thresholds=True, tol=1e-10)
    ref = svor_oracle(X, ranks, genders, 4, 127.0, None, 0.0, True)
    assert abs(sol.objective - ref) <= 1e-9 * abs(ref)


def test_instances_with_per_gender_rank_holes_match_qp_oracle():
    rng = np.random.default_rng(31)
    for _ in range(12):
        X, ranks, genders, num_ranks, lam2, anchor, lam3 = random_svor_holes_instance(rng)
        ds = Dataset(X, genders, ranks, num_ranks=num_ranks)
        sol = solve_svor(ds, lam2, anchor=anchor, lambda3=lam3, split_thresholds=True, tol=1e-9)
        ref = svor_oracle(X, ranks, genders, num_ranks, lam2, anchor, lam3, True)
        assert abs(sol.objective - ref) <= 1e-6 * max(1.0, abs(ref))
        assert np.all(np.diff(sol.ladder_male.cuts) >= 0.0)
        assert np.all(np.diff(sol.ladder_female.cuts) >= 0.0)


def test_exact_gender_copies_get_identical_ladders():
    rng = np.random.default_rng(4)
    X_half = rng.normal(size=(12, 2))
    ranks_half = np.r_[np.ones(6, int), np.full(6, 2)]
    X = np.vstack([X_half, X_half])
    genders = np.r_[np.ones(12, int), -np.ones(12, int)]
    ranks = np.r_[ranks_half, ranks_half]
    ds = Dataset(X, genders, ranks, num_ranks=2)
    sol = solve_svor(ds, 5.0, split_thresholds=True)
    assert sol.ladder_male.cuts == pytest.approx(sol.ladder_female.cuts, abs=1e-9)


def test_shared_mode_ignores_gender_labels():
    ds = line_example_dataset()
    flipped = Dataset(ds.features, -ds.gender, ds.age_rank, num_ranks=ds.num_ranks)
    a = solve_svor(ds, 10.0, split_thresholds=False)
    b = solve_svor(flipped, 10.0, split_thresholds=False)
    assert a.objective == pytest.approx(b.objective, abs=1e-8)
    assert a.ladder_male.cuts == pytest.approx(b.ladder_male.cuts, abs=1e-6)
    assert a.ladder_male.cuts == pytest.approx(a.ladder_female.cuts, abs=0.0)


def test_separable_line_achieves_zero_rank_error():
    ds = line_example_dataset()
    sol = solve_svor(ds, 100.0, split_thresholds=True)
    for gender, ladder in ((1, sol.ladder_male), (-1, sol.ladder_female)):
        mask = ds.gender == gender
        scores = ds.features[mask] @ sol.w
        assert np.array_equal(predict_ranks(scores, ladder), ds.age_rank[mask])


def test_predict_rank_decision_rule():
    ladder = ThresholdLadder([-1.0, 3.0])
    w = np.array([1.0])
    assert predict_rank(w, ladder, np.array([-5.0])) == 1
    assert predict_rank(w, ladder, np.array([1.0])) == 2
    assert predict_rank(w, ladder, np.array([10.0])) == 3


def test_predict_rank_monotone_in_score():
    rng = np.random.default_rng(9)
    cuts = np.sort(rng.normal(size=4))
    ladder = ThresholdLadder(cuts)
    scores = np.sort(rng.normal(size=50) * 3)
    ranks = predict_ranks(scores, ladder)
    assert np.all(np.diff(ranks) >= 0)


def test_predict_rank_dimension_check():
    with pytest.raises(DimensionMismatch):
        predict_rank(np.ones(2), ThresholdLadder([0.0]), np.ones(3))


def test_insufficient_ranks_per_gender():
    ds = Dataset([[0.0], [1.0], [2.0], [3.0]], [1, 1, -1, -1], [1, 2, 1, 1], num_ranks=2)
    with pytest.raises(InsufficientRanks):
        solve_svor(ds, 1.0, split_thresholds=True)
    solve_svor(ds, 1.0, split_thresholds=False)  # merged mode is still fine


def test_sparse_middle_rank_is_handled():
    # one gender skips the middle rank entirely; its empty cut interpolates
    rows = [[-3.0], [-2.5], [0.0], [0.5], [3.0], [3.5], [-3.0], [3.0]]
    genders = [1, 1, 1, 1, 1, 1, -1, -1]
    ranks = [1, 1, 2, 2, 3, 3, 1, 3]
    ds = Dataset(rows, genders, ranks, num_ranks=3)
    sol = solve_svor(ds, 10.0, split_thresholds=True)
    assert np.all(np.diff(sol.ladder_female.cuts) >= -1e-9)
    assert np.isfinite(sol.ladder_female.cuts).all()

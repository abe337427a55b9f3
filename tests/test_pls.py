import inspect

import numpy as np
import pytest

import genage.pls

from genage import Dataset, fit_pls, fit_pls_dataset, predict_pls, predict_pls_batch
from genage.errors import BadConfig, DimensionMismatch, RankDeficient
from genage.pls import PlsModel, pls_outputs, truncate_pls


def orthonormal_centered(n, d, seed):
    """Columns orthonormal and orthogonal to the all-ones vector."""
    rng = np.random.default_rng(seed)
    raw = rng.normal(size=(n, d))
    raw -= raw.mean(axis=0)
    q, _ = np.linalg.qr(raw)
    return q[:, :d]


def test_full_rank_two_column_map_is_exact():
    # with d = 2 and two components the fit reproduces the least-squares map,
    # which is exact on noise-free linear targets
    rng = np.random.default_rng(0)
    X = rng.normal(size=(30, 2))
    Y = X.copy()
    model = fit_pls(X, Y, n_components=2, num_ranks=5)
    assert pls_outputs(model, X) == pytest.approx(Y, abs=1e-8)


def test_rank_one_map_recovered_with_one_component():
    X = orthonormal_centered(24, 5, seed=1)
    b = np.array([1.0, -2.0, 0.5, 0.0, 1.5])
    c = np.array([0.7, 2.0])
    Y = np.outer(X @ b, c)
    model = fit_pls(X, Y, n_components=1, num_ranks=5)
    assert pls_outputs(model, X) == pytest.approx(Y, abs=1e-6)


def test_weights_have_unit_norm():
    rng = np.random.default_rng(2)
    X = rng.normal(size=(40, 6))
    Y = np.column_stack([np.sign(X[:, 0]) + 0.1 * rng.normal(size=40),
                         X[:, 1] + 0.1 * rng.normal(size=40)])
    model = fit_pls(X, Y, n_components=4)
    norms = np.linalg.norm(model.x_weights, axis=0)
    assert norms == pytest.approx(np.ones(4), abs=1e-10)


def test_score_vectors_are_mutually_orthogonal():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(50, 8))
    Y = np.column_stack([X[:, 0] - X[:, 3], X[:, 1] + 0.5 * X[:, 2]])
    Y += 0.05 * rng.normal(size=Y.shape)
    n_comp = 5
    model = fit_pls(X, Y, n_components=n_comp)
    # rebuild the scores by replaying the deflation
    Xc = X - model.x_mean
    scores = []
    for a in range(n_comp):
        t = Xc @ model.x_weights[:, a]
        scores.append(t)
        Xc = Xc - np.outer(t, model.x_loadings[:, a])
    scores = np.array(scores)
    gram = scores @ scores.T
    off = gram - np.diag(np.diag(gram))
    assert np.abs(off).max() < 1e-8 * np.abs(np.diag(gram)).max()


def test_more_components_never_hurt_training_error():
    rng = np.random.default_rng(4)
    X = rng.normal(size=(40, 6))
    Y = np.column_stack([X[:, 0] + 0.3 * rng.normal(size=40),
                         X @ rng.normal(size=6)])
    errors = []
    for n in range(1, 6):
        model = fit_pls(X, Y, n_components=n)
        errors.append(float(((pls_outputs(model, X) - Y) ** 2).sum()))
    assert all(b <= a + 1e-9 for a, b in zip(errors, errors[1:]))


def test_first_weight_is_dominant_singular_direction():
    rng = np.random.default_rng(5)
    X = rng.normal(size=(60, 5))
    Y = np.column_stack([X[:, 0] + X[:, 1], X[:, 2]]) + 0.01 * rng.normal(size=(60, 2))
    model = fit_pls(X, Y, n_components=1)
    Xc = X - X.mean(axis=0)
    Yc = Y - Y.mean(axis=0)
    u, _, _ = np.linalg.svd(Xc.T @ Yc, full_matrices=False)
    lead = u[:, 0]
    w = model.x_weights[:, 0]
    assert min(np.linalg.norm(w - lead), np.linalg.norm(w + lead)) < 1e-6


def test_decoding_rules():
    model = PlsModel(
        n_components=1,
        x_weights=np.ones((2, 1)),
        x_loadings=np.ones((2, 1)),
        y_loadings=np.ones((2, 1)),
        coefficients=np.zeros((2, 2)),
        x_mean=np.zeros(2),
        y_mean=np.array([0.3, 2.4]),
        num_ranks=5,
    )
    assert predict_pls(model, np.zeros(2)) == (1, 2)
    low = PlsModel(**{**model.__dict__, "y_mean": np.array([-0.2, 0.2])})
    assert predict_pls(low, np.zeros(2)) == (-1, 1)  # clamped up to rank 1
    high = PlsModel(**{**model.__dict__, "y_mean": np.array([0.0, 9.9])})
    assert predict_pls(high, np.zeros(2)) == (1, 5)  # clamped down to K


def test_exact_fit_predicts_training_labels():
    X = orthonormal_centered(24, 5, seed=6)
    b = np.array([2.0, 0.0, -1.0, 0.5, 0.0])
    Y = np.outer(X @ b, np.array([1.5, 2.0]))
    genders = np.where(Y[:, 0] >= 0, 1, -1)
    ranks = np.clip(np.rint(Y[:, 1]), 1, 5).astype(int)
    model = fit_pls(X, Y, n_components=1, num_ranks=5)
    pg, pr = predict_pls_batch(model, X)
    assert np.array_equal(pg, genders)
    assert np.array_equal(pr, ranks)


def test_dataset_front_end():
    ds = Dataset([[0.0, 1.0], [1.0, 0.0], [2.0, 2.0], [3.0, 1.0]],
                 [1, -1, 1, -1], [1, 1, 2, 2], num_ranks=2)
    model = fit_pls_dataset(ds, 2)
    assert model.num_ranks == 2
    genders, ranks = predict_pls_batch(model, ds.features)
    assert set(np.unique(ranks)) <= {1, 2}
    assert genders.shape == (4,)


def test_rank_deficient_raises():
    X = np.zeros((10, 3))
    X[:, 0] = np.arange(10)
    Y = np.column_stack([X[:, 0], X[:, 0]])
    with pytest.raises(RankDeficient):
        fit_pls(X, Y, n_components=3)


def test_component_bounds_checked():
    rng = np.random.default_rng(7)
    X = rng.normal(size=(8, 3))
    Y = rng.normal(size=(8, 2))
    with pytest.raises(BadConfig):
        fit_pls(X, Y, n_components=4)
    with pytest.raises(BadConfig):
        fit_pls(X, Y, n_components=0)


def test_predict_dimension_check():
    rng = np.random.default_rng(8)
    X = rng.normal(size=(10, 3))
    Y = np.column_stack([X[:, 0], X[:, 1]])
    model = fit_pls(X, Y, n_components=2)
    with pytest.raises(DimensionMismatch):
        predict_pls(model, np.ones(4))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_truncated_model_equals_refit(seed):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(40, 7))
    Y = np.column_stack([np.sign(X[:, 0] + 0.3 * rng.normal(size=40)),
                         X @ rng.normal(size=7) + 0.2 * rng.normal(size=40)])
    full = fit_pls(X, Y, n_components=6, num_ranks=5)
    for n in range(1, 7):
        cut = truncate_pls(full, n)
        refit = fit_pls(X, Y, n_components=n, num_ranks=5)
        assert cut.n_components == n
        for name in ("x_weights", "x_loadings", "y_loadings", "coefficients"):
            assert np.array_equal(getattr(cut, name), getattr(refit, name)), name
    with pytest.raises(BadConfig):
        truncate_pls(full, 7)
    with pytest.raises(BadConfig):
        truncate_pls(full, 0)


def test_single_and_batch_decoding_agree_on_ties_and_zero():
    # identity coefficients make the outputs the inputs, so ties and zero
    # gender scores can be placed exactly
    model = PlsModel(
        n_components=2,
        x_weights=np.eye(2),
        x_loadings=np.eye(2),
        y_loadings=np.eye(2),
        coefficients=np.eye(2),
        x_mean=np.zeros(2),
        y_mean=np.zeros(2),
        num_ranks=5,
    )
    X = np.array([[0.0, 0.5], [-0.0, 1.5], [-1e-300, 2.5], [3.0, 3.5], [-2.0, 4.5],
                  [1.0, 5.5], [0.0, -7.0], [-1.0, 1e300], [1.0, -1e300]])
    want_genders = [1, 1, -1, 1, -1, 1, 1, -1, 1]
    want_ranks = [1, 2, 2, 4, 4, 5, 1, 5, 1]   # half to even, then into 1..5
    genders, ranks = predict_pls_batch(model, X)
    assert genders.tolist() == want_genders and ranks.tolist() == want_ranks
    assert [predict_pls(model, x) for x in X] == list(zip(want_genders, want_ranks))


def allclose_fit_pls():
    """fit_pls with its NIPALS zero checks written as np.allclose(x, 0.0),
    the form the max-abs tests replaced."""
    source = inspect.getsource(genage.pls.fit_pls)
    for name in ("u", "q"):
        check = f"np.abs({name}).max() <= 1e-8"
        assert check in source
        source = source.replace(check, f"np.allclose({name}, 0.0)")
    namespace = dict(vars(genage.pls))
    exec(source, namespace)
    return namespace["fit_pls"]


@pytest.mark.parametrize("seed", range(6))
def test_zero_checks_decide_as_allclose(seed):
    """Seeded fits, among them targets that deflate to zero before the last
    component (an exact linear map of rank 2) and a target column orthogonal
    to X, are bit-identical to the np.allclose form."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(30, 6))
    exact = X @ rng.normal(size=(6, 2))
    orthogonal = np.linalg.svd(np.column_stack([np.ones(30), X]))[0][:, -1]
    noisy = np.column_stack([np.sign(X[:, 0] + 0.3 * rng.normal(size=30)), X @ rng.normal(size=6)])
    reference = allclose_fit_pls()
    for Y in (exact, np.column_stack([orthogonal, X[:, 1]]), noisy):
        for components in (1, 3, 5):
            got, want = fit_pls(X, Y, n_components=components), reference(X, Y, n_components=components)
            for name in ("x_weights", "x_loadings", "y_loadings", "coefficients"):
                assert np.array_equal(getattr(got, name), getattr(want, name)), name

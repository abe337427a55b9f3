"""Two-block partial least squares baseline.

Gender and age rank are concatenated into a two-column regression target
and fit with NIPALS: each component extracts a unit-norm input weight
maximizing the covariance between the projected blocks, then deflates the
input matrix.  Inputs are centered but not variance-scaled.  The decoded
prediction takes the sign of the first output (gender) and the second
output rounded and clamped into 1..K (rank).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .core import FEMALE, MALE, Dataset
from .errors import BadConfig, DimensionMismatch, RankDeficient

_INNER_TOL = 1e-12
_INNER_MAX = 500


@dataclass(frozen=True)
class PlsModel:
    n_components: int
    x_weights: np.ndarray     # (d, n) unit-norm columns
    x_loadings: np.ndarray    # (d, n)
    y_loadings: np.ndarray    # (2, n)
    coefficients: np.ndarray  # (d, 2)
    x_mean: np.ndarray
    y_mean: np.ndarray
    num_ranks: int


def fit_pls(X, Y, n_components, num_ranks=None):
    """Fit the two-output PLS regression.

    Parameters
    ----------
    X : (N, d) array
    Y : (N, 2) array, columns [gender +-1, age rank]
    n_components : int, at most min(d, N-1)
    num_ranks : int or None
        Clamp bound for decoded ranks; inferred from Y when omitted.

    Raises RankDeficient when deflation exhausts X before extracting the
    requested number of components.
    """
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    if X.ndim != 2 or Y.ndim != 2 or Y.shape[1] != 2 or X.shape[0] != Y.shape[0]:
        raise DimensionMismatch("X must be (N, d) and Y (N, 2) with matching N")
    n, d = X.shape
    if n < 2:
        raise BadConfig("at least two samples are required")
    if not 1 <= n_components <= min(d, n - 1):
        raise BadConfig(f"n_components must lie in 1..{min(d, n - 1)}")
    if num_ranks is None:
        num_ranks = max(2, int(round(float(Y[:, 1].max()))))

    x_mean = X.mean(axis=0)
    y_mean = Y.mean(axis=0)
    Xc = X - x_mean
    Yc = Y - y_mean
    if np.allclose(Xc, 0.0):
        raise RankDeficient("input matrix has no variation")

    W = np.zeros((d, n_components))
    P = np.zeros((d, n_components))
    Q = np.zeros((2, n_components))
    scale = max(float(np.abs(Xc).max()), 1.0)
    for a in range(n_components):
        u = Yc[:, int(np.argmax(Yc.var(axis=0)))]
        if np.abs(u).max() <= 1e-8:  # np.allclose(u, 0.0) without its overhead; NaN is not close
            u = Yc[:, 0]
        t_old = None
        for _ in range(_INNER_MAX):
            w = Xc.T @ u
            norm = np.linalg.norm(w)
            if norm <= _INNER_TOL * scale:
                raise RankDeficient(f"deflated X vanished at component {a + 1}")
            w /= norm
            t = Xc @ w
            tt = float(t @ t)
            if tt <= (_INNER_TOL * scale) ** 2:
                raise RankDeficient(f"deflated X vanished at component {a + 1}")
            q = Yc.T @ t / tt
            if np.abs(q).max() <= 1e-8:
                break
            u = Yc @ q / float(q @ q)
            if t_old is not None and np.linalg.norm(t - t_old) <= _INNER_TOL * np.linalg.norm(t):
                break
            t_old = t
        p = Xc.T @ t / tt
        Xc = Xc - np.outer(t, p)
        W[:, a] = w
        P[:, a] = p
        Q[:, a] = q

    components = PlsModel(
        n_components=n_components,
        x_weights=W,
        x_loadings=P,
        y_loadings=Q,
        coefficients=None,
        x_mean=x_mean,
        y_mean=y_mean,
        num_ranks=int(num_ranks),
    )
    return truncate_pls(components, n_components)


def truncate_pls(model: PlsModel, n_components):
    """The model made of the first ``n_components`` components of ``model``.

    NIPALS extracts each component from the inputs deflated by the ones
    before it, so this is the model ``fit_pls`` returns for that count, and a
    search over counts can fit once at the largest.
    """
    if not 1 <= n_components <= model.n_components:
        raise BadConfig(f"n_components must lie in 1..{model.n_components}")
    W = model.x_weights[:, :n_components].copy()
    P = model.x_loadings[:, :n_components].copy()
    Q = model.y_loadings[:, :n_components].copy()
    # rotate weights so coefficients apply to the undeflated inputs
    rotations = W @ np.linalg.pinv(P.T @ W)
    return replace(model, n_components=n_components, x_weights=W, x_loadings=P, y_loadings=Q,
                   coefficients=rotations @ Q.T)


def fit_pls_dataset(ds: Dataset, n_components):
    Y = np.column_stack([ds.gender.astype(float), ds.age_rank.astype(float)])
    return fit_pls(ds.features, Y, n_components, num_ranks=ds.num_ranks)


def pls_outputs(model: PlsModel, X):
    """Continuous two-column predictions before decoding."""
    X = np.asarray(X, dtype=float)
    return (X - model.x_mean) @ model.coefficients + model.y_mean


def _decode(gender_score, rank_score, num_ranks):
    """(gender, rank) from the two outputs, as floats for one sample or arrays for many.

    The gender is the sign of its score, 0 counting as male.  The rank is
    rounded half to even into 1..K; clamping before rounding gives the same
    integers, since both bounds are integers.  Ranks stay floats, so each
    caller picks its integer conversion.
    """
    gender = FEMALE + (MALE - FEMALE) * (gender_score >= 0.0)
    rank = np.rint(np.minimum(np.maximum(rank_score, 1.0), float(num_ranks)))
    return gender, rank


def predict_pls(model: PlsModel, x):
    """Decode one sample to (gender, rank); sign(0) counts as male."""
    x = np.asarray(x, dtype=float)
    if x.shape != model.x_mean.shape:
        raise DimensionMismatch(f"x has shape {x.shape}, expected {model.x_mean.shape}")
    # numpy calls on one sample cost more than the arithmetic, so the decoding
    # runs on Python floats here
    gender, rank = _decode(*pls_outputs(model, x).tolist(), model.num_ranks)
    return gender, int(rank)


def predict_pls_batch(model: PlsModel, X):
    raw = pls_outputs(model, X)
    genders, ranks = _decode(raw[:, 0], raw[:, 1], model.num_ranks)
    return genders, ranks.astype(int)

"""Two-block partial least squares baseline.

Gender and age rank are concatenated into a two-column regression target.
Each component's unit-norm input weight maximizes the covariance between
the projected input and target blocks: it is the leading left singular
vector of the cross-covariance of the inputs, deflated by the components
before it, with the target.  This is the fixed point the NIPALS inner
iteration converges to (Hoskuldsson, J. Chemometrics 2(3), 1988), taken
from one SVD instead.  Inputs are centered but not variance-scaled.  The
decoded prediction takes the sign of the first output (gender) and the
second output rounded and clamped into 1..K (rank).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .core import FEMALE, MALE, Dataset, _is_int
from .errors import BadConfig, DimensionMismatch, NonFiniteFeature, RankDeficient


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

    Raises NonFiniteFeature naming the first row of X or Y that holds a NaN
    or infinity, and RankDeficient when deflation exhausts X before
    extracting the requested number of components.
    """
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    if X.ndim != 2 or Y.ndim != 2 or Y.shape[1] != 2 or X.shape[0] != Y.shape[0]:
        raise DimensionMismatch("X must be (N, d) and Y (N, 2) with matching N")
    finite = np.isfinite(X).all(axis=1) & np.isfinite(Y).all(axis=1)
    if not finite.all():
        i = int(np.argmin(finite))
        raise NonFiniteFeature(i, f"row {i} of X or Y is not finite")
    n, d = X.shape
    if n < 2:
        raise BadConfig("at least two samples are required")
    if not _is_int(n_components) or not 1 <= n_components <= min(d, n - 1):
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
    # below this, against the inputs' magnitude, a cross-covariance or score
    # norm is roundoff
    floor = 1e-12 * max(float(np.abs(Xc).max()), 1.0)
    # NIPALS starts from the max-variance target column and converges to the
    # singular vector on its side, so that column fixes the sign, not LAPACK
    start = int(np.argmax(Yc.var(axis=0)))
    for a in range(n_components):
        cross = Xc.T @ Yc
        left, sigma, _ = np.linalg.svd(cross, full_matrices=False)
        if sigma[0] <= floor:
            raise RankDeficient(f"cross-covariance vanished at component {a + 1}")
        w = left[:, 0] if left[:, 0] @ cross[:, start] >= 0.0 else -left[:, 0]
        t = Xc @ w
        tt = float(t @ t)
        if tt <= floor ** 2:
            raise RankDeficient(f"deflated X vanished at component {a + 1}")
        q = Yc.T @ t / tt
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

    Each component is extracted from the inputs deflated by the ones before
    it, so this is the model ``fit_pls`` returns for that count, and a
    search over counts can fit once at the largest.
    """
    if not _is_int(n_components) or not 1 <= n_components <= model.n_components:
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
    """(genders, ranks) from the two output columns of many samples.

    The gender is the sign of its score, 0 counting as male.  The rank is
    rounded half to even into 1..K; clamping before rounding gives the same
    integers, since both bounds are integers.  Ranks stay floats.
    """
    gender = FEMALE + (MALE - FEMALE) * (gender_score >= 0.0)
    rank = np.rint(np.minimum(np.maximum(rank_score, 1.0), float(num_ranks)))
    return gender, rank


def predict_pls(model: PlsModel, x):
    """Decode one sample to (gender, rank) by :func:`_decode`'s rule; a sample
    whose outputs are not finite raises :class:`NonFiniteFeature`."""
    x = np.asarray(x, dtype=float)
    if x.shape != model.x_mean.shape:
        raise DimensionMismatch(f"x has shape {x.shape}, expected {model.x_mean.shape}")
    # numpy calls on one sample cost more than the arithmetic, so the decoding
    # runs on Python floats here; round() rounds half to even, as np.rint does
    try:
        gender_score, rank_score = pls_outputs(model, x).tolist()
    except (RuntimeWarning, FloatingPointError):
        # numpy's report of an inf * 0 or an overflow, where it is made an error
        gender_score = rank_score = math.nan
    if not (math.isfinite(gender_score) and math.isfinite(rank_score)):
        raise NonFiniteFeature(0, "x has a non-finite feature or output")
    gender = MALE if gender_score >= 0.0 else FEMALE
    return gender, round(min(max(rank_score, 1.0), float(model.num_ranks)))


def predict_pls_batch(model: PlsModel, X):
    """Decode each row of ``X`` to (genders, ranks) arrays; the first row
    whose outputs are not finite raises :class:`NonFiniteFeature`."""
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite output raises below
        raw = pls_outputs(model, X)
    finite = np.isfinite(raw).all(axis=1)
    if not finite.all():
        i = int(np.argmin(finite))
        raise NonFiniteFeature(i, f"sample {i} has a non-finite feature or output")
    genders, ranks = _decode(raw[:, 0], raw[:, 1], model.num_ranks)
    return genders, ranks.astype(int)

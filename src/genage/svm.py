"""Hinge-loss linear gender classifier under a rank-one-modified metric.

Solves

    min_{w, b}  0.5 * w^T (I + 2*lam3 * a a^T) w
                + lam1 * sum_i max(0, 1 - y_i (w^T x_i + b))

by whitening the features with the closed-form inverse square root of the
metric and running the shared dual core on the resulting standard problem.
The bias is unregularized and does not enter the coupling term.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Dataset
from .errors import DimensionMismatch, SingleClassInput
from .smo import HingeProblem, rank1_shrink, solve_hinge_dual


@dataclass(frozen=True)
class SvmSolution:
    w: np.ndarray
    b: float
    objective: float
    iterations: int


def svm_objective(X, y, lambda1, anchor, lambda3, w, b):
    """The subproblem objective evaluated at (w, b) in original coordinates."""
    margins = 1.0 - y * (X @ w + b)
    quad = 0.5 * float(w @ w)
    if anchor is not None and lambda3 > 0.0:
        quad += lambda3 * float(w @ anchor) ** 2
    return quad + lambda1 * float(np.clip(margins, 0.0, None).sum())


def solve_svm(ds: Dataset, lambda1, anchor=None, lambda3=0.0, tol=1e-6):
    """Fit the gender hyperplane on ``ds`` (labels +-1 in ``ds.gender``).

    Parameters
    ----------
    ds : Dataset
        Training data; both classes must be present.
    lambda1 : float
        Hinge-loss weight (nonnegative).
    anchor : array or None
        Direction entering the metric I + 2*lambda3 * anchor anchor^T.
    lambda3 : float
        Coupling weight; zero or a zero anchor reduces to a plain SVM.
    tol : float
        Relative duality-gap target for the returned objective.

    Returns
    -------
    SvmSolution with the minimizer, its objective value and the number of
    dual steps spent.  Raises SingleClassInput when one class is missing or
    the features carry no class contrast at all, NonConvergence when the
    step budget runs out.
    """
    X = ds.features
    y = ds.gender.astype(float)
    if lambda1 < 0 or lambda3 < 0:
        raise ValueError("lambda1 and lambda3 must be nonnegative")
    if np.all(y > 0) or np.all(y < 0):
        raise SingleClassInput("both gender classes are required")
    if np.all(X == X[0]):
        raise SingleClassInput("all samples are identical; the classes cannot be separated")
    if anchor is not None:
        anchor = np.asarray(anchor, dtype=float)
        if anchor.shape != (X.shape[1],):
            raise DimensionMismatch(
                f"anchor has dimension {anchor.shape}, expected ({X.shape[1]},)"
            )
    shrink = rank1_shrink(anchor, lambda3)
    # hinge form: 1 - y(v.z + b) = 1 + tau*(v.z - c) with tau = -y, c = -b
    prob = HingeProblem(
        z=shrink(X),
        tau=-y,
        cut=np.zeros(X.shape[0], dtype=int),
        n_cuts=1,
        chains=(),
        penalty=float(lambda1),
    )
    sol = solve_hinge_dual(prob, tol=tol)
    w = shrink(sol.v)
    b = -float(sol.cuts[0])
    return SvmSolution(
        w=w,
        b=b,
        objective=svm_objective(X, y, lambda1, anchor, lambda3, w, b),
        iterations=sol.steps,
    )

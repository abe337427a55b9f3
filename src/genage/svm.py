"""Hinge-loss linear gender classifier under a rank-one-modified metric.

Solves

    min_{w, b}  0.5 * w^T (I + 2*lam3 * a a^T) w
                + lam1 * sum_i max(0, 1 - y_i (w^T x_i + b))

as the ordinal subproblem with two ranks, male above female, whose one cut
is -b, on the shared dual core (see :mod:`genage.svor`).  The bias is
unregularized and does not enter the coupling term.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Dataset
from .smo import solve_hinge_dual
from .svor import _CLASSIFIER, _pose_problem


@dataclass(frozen=True)
class SvmSolution:
    w: np.ndarray
    b: float
    objective: float  # the primal value whose duality gap the solve certified
    iterations: int


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
    SvmSolution with the minimizer, the objective value whose duality gap
    the solve certified and the number of dual steps spent.  Raises
    SingleClassInput when one class is missing or the features carry no
    class contrast at all, NonConvergence when the step budget runs out.
    """
    prob, shrink = _pose_problem(ds, _CLASSIFIER, lambda1, anchor, lambda3)
    sol = solve_hinge_dual(prob, tol=tol)
    return SvmSolution(w=shrink(sol.v), b=-float(sol.cuts[0]), objective=sol.objective,
                       iterations=sol.steps)

"""Support vector ordinal regression with gender-specific threshold ladders.

One scoring direction w is shared by everyone; each gender owns a ladder of
K-1 non-decreasing cut points.  A rank-k sample must sit below its gender's
cut k by a unit margin and above cut k-1 by a unit margin, with slack paid
per violated side (rank 1 has no lower side, rank K no upper side).  The
quadratic term uses the rank-one-modified metric I + 2*lam3 * a a^T, handled
by the same whitening as the classifier.  Ladder monotonicity is enforced
inside the solver, not by post-hoc clipping.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import FEMALE, MALE, Dataset, ThresholdLadder
from .errors import DimensionMismatch, InsufficientRanks
from .smo import HingeProblem, hinge_sum, rank1_shrink, solve_hinge_dual


@dataclass(frozen=True)
class SvorSolution:
    w: np.ndarray
    ladder_male: ThresholdLadder
    ladder_female: ThresholdLadder
    objective: float  # the primal value whose duality gap the solve certified
    iterations: int


def ordinal_slacks(scores, ranks, genders, ladder_male, ladder_female):
    """Sum of per-sample margin violations against the gender-matched ladders.

    The slack total of the ordinal subproblem at an arbitrary state: the
    hinge terms of :func:`_build_terms` for split ladders, summed by
    :func:`genage.smo.hinge_sum`.  Both ladders must have the same length.
    """
    rows, taus, cut_ids, _, _ = _build_terms(ranks, genders, ladder_male.cuts.size + 1, True)
    cuts = np.concatenate((ladder_male.cuts, ladder_female.cuts))
    return hinge_sum(np.asarray(scores, dtype=float)[rows], taus, cuts[cut_ids])


def svor_objective(X, ranks, genders, lambda2, anchor, lambda3, w, ladder_male, ladder_female):
    """The ordinal subproblem objective at the given state, original coordinates.

    With ``anchor`` set, the quadratic term carries the coupling
    ``lambda3 * (w . anchor)^2``.
    """
    quad = 0.5 * float(w @ w)
    if anchor is not None and lambda3 > 0.0:
        quad += lambda3 * float(w @ anchor) ** 2
    slacks = ordinal_slacks(X @ w, ranks, genders, ladder_male, ladder_female)
    return quad + lambda2 * slacks


def _build_terms(ranks, genders, num_ranks, split):
    """Hinge terms and cut bookkeeping for the reduced problem."""
    n_cuts_per = num_ranks - 1
    k = np.asarray(ranks, dtype=int)
    # per sample, the term below cut k then the term above cut k-1: the flat
    # indices of a row-major (sample, side) mask keep that order
    flat = np.flatnonzero(np.stack((k <= n_cuts_per, k >= 2), axis=1))
    rows, side = flat >> 1, flat & 1
    taus = 1.0 - 2.0 * side
    cuts = k[rows] - 1 - side
    if split:
        cuts += np.where(np.asarray(genders)[rows] == FEMALE, n_cuts_per, 0)
        chains = (tuple(range(n_cuts_per)), tuple(range(n_cuts_per, 2 * n_cuts_per)))
        n_cuts = 2 * n_cuts_per
    else:
        chains = (tuple(range(n_cuts_per)),)
        n_cuts = n_cuts_per
    return rows, taus, cuts, n_cuts, chains


def _pose_problem(X, ranks, genders, num_ranks, split, penalty, anchor, lambda3):
    """Check a subproblem of either kind and pose it as a whitened
    :class:`HingeProblem`; returns it and the whitening map, which also maps
    the solved direction back."""
    if penalty < 0 or lambda3 < 0:
        raise ValueError("the hinge weight and lambda3 must be nonnegative")
    if split:
        for g, name in ((MALE, "male"), (FEMALE, "female")):
            distinct = np.unique(ranks[genders == g])
            if distinct.size < 2:
                raise InsufficientRanks(
                    f"split ladders need the {name} samples to span >= 2 distinct ranks"
                )
    elif np.unique(ranks).size < 2:
        raise InsufficientRanks("samples span a single rank; nothing to order")
    if anchor is not None:
        anchor = np.asarray(anchor, dtype=float)
        if anchor.shape != (X.shape[1],):
            raise DimensionMismatch(
                f"anchor has dimension {anchor.shape}, expected ({X.shape[1]},)"
            )
    shrink = rank1_shrink(anchor, lambda3)
    rows, taus, cut_ids, n_cuts, chains = _build_terms(ranks, genders, num_ranks, split)
    prob = HingeProblem(
        z=shrink(X)[rows],
        tau=taus,
        cut=cut_ids,
        n_cuts=n_cuts,
        chains=chains,
        penalty=float(penalty),
    )
    return prob, shrink


def solve_svor(ds: Dataset, lambda2, anchor=None, lambda3=0.0, split_thresholds=True, tol=1e-6):
    """Fit the shared direction and the threshold ladder(s) on ``ds``.

    With ``split_thresholds`` each gender gets its own ladder; otherwise one
    ladder is fit on everyone and duplicated into both fields of the result.
    Raises InsufficientRanks when a fitted population does not span at least
    two distinct ranks, NonConvergence when the step budget runs out.
    """
    X = ds.features
    ranks = ds.age_rank
    genders = ds.gender
    K = ds.num_ranks
    prob, shrink = _pose_problem(X, ranks, genders, K, split_thresholds, lambda2, anchor, lambda3)
    sol = solve_hinge_dual(prob, tol=tol)
    w = shrink(sol.v)
    if split_thresholds:
        ladder_male = ThresholdLadder(sol.cuts[: K - 1])
        ladder_female = ThresholdLadder(sol.cuts[K - 1:])
    else:
        shared = ThresholdLadder(sol.cuts)
        ladder_male = ladder_female = shared
    return SvorSolution(
        w=w,
        ladder_male=ladder_male,
        ladder_female=ladder_female,
        objective=sol.objective,
        iterations=sol.steps,
    )


def predict_ranks(scores, ladder: ThresholdLadder):
    """Smallest rank k whose cut exceeds each score; K when no cut does."""
    return ladder.cuts.searchsorted(scores, side="right") + 1

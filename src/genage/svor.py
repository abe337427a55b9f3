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
from .smo import HingeProblem, rank1_shrink, solve_hinge_dual


@dataclass(frozen=True)
class SvorSolution:
    w: np.ndarray
    ladder_male: ThresholdLadder
    ladder_female: ThresholdLadder
    objective: float
    iterations: int


def ordinal_slacks(scores, ranks, genders, ladder_male, ladder_female):
    """Sum of per-sample margin violations against the gender-matched ladders.

    This is the slack total of the ordinal subproblem evaluated at an
    arbitrary state, used both for reported objectives and for the joint
    training trace.
    """
    scores = np.asarray(scores, dtype=float)
    ranks = np.asarray(ranks, dtype=int)
    total = 0.0
    for gender, ladder in ((MALE, ladder_male), (FEMALE, ladder_female)):
        cuts = ladder.cuts
        mask = np.asarray(genders) == gender
        s = scores[mask]
        k = ranks[mask]
        upper = k <= cuts.shape[0]
        total += float(np.clip(1.0 + s[upper] - cuts[k[upper] - 1], 0.0, None).sum())
        lower = k >= 2
        total += float(np.clip(1.0 - s[lower] + cuts[k[lower] - 2], 0.0, None).sum())
    return total


def svor_objective(X, ranks, genders, lambda2, anchor, lambda3, w, ladder_male, ladder_female):
    """The ordinal subproblem objective at the given state, original coordinates."""
    quad = 0.5 * float(w @ w)
    if anchor is not None and lambda3 > 0.0:
        quad += lambda3 * float(w @ anchor) ** 2
    slacks = ordinal_slacks(X @ w, ranks, genders, ladder_male, ladder_female)
    return quad + lambda2 * slacks


def _build_terms(X, ranks, genders, num_ranks, split):
    """Hinge terms and cut bookkeeping for the reduced problem."""
    n_cuts_per = num_ranks - 1
    rows, taus, cuts = [], [], []
    for i in range(X.shape[0]):
        k = int(ranks[i])
        base = 0
        if split and genders[i] == FEMALE:
            base = n_cuts_per
        if k <= n_cuts_per:                      # stay below cut k
            rows.append(i)
            taus.append(1.0)
            cuts.append(base + k - 1)
        if k >= 2:                               # stay above cut k-1
            rows.append(i)
            taus.append(-1.0)
            cuts.append(base + k - 2)
    if split:
        chains = (tuple(range(n_cuts_per)), tuple(range(n_cuts_per, 2 * n_cuts_per)))
        n_cuts = 2 * n_cuts_per
    else:
        chains = (tuple(range(n_cuts_per)),)
        n_cuts = n_cuts_per
    return np.asarray(rows, dtype=int), np.asarray(taus), np.asarray(cuts, dtype=int), n_cuts, chains


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
    if lambda2 < 0 or lambda3 < 0:
        raise ValueError("lambda2 and lambda3 must be nonnegative")
    if K < 2:
        raise InsufficientRanks("at least two ranks are required")
    if split_thresholds:
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
    Z = shrink(X)
    rows, taus, cut_ids, n_cuts, chains = _build_terms(X, ranks, genders, K, split_thresholds)
    prob = HingeProblem(
        z=Z[rows],
        tau=taus,
        cut=cut_ids,
        n_cuts=n_cuts,
        chains=chains,
        penalty=float(lambda2),
    )
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
        objective=svor_objective(
            X, ranks, genders, lambda2, anchor, lambda3, w, ladder_male, ladder_female
        ),
        iterations=sol.steps,
    )


def predict_rank(w, ladder: ThresholdLadder, x):
    """Smallest rank k whose cut exceeds the score; K when no cut does."""
    x = np.asarray(x, dtype=float)
    w = np.asarray(w, dtype=float)
    if x.shape != w.shape:
        raise DimensionMismatch(f"x has shape {x.shape}, expected {w.shape}")
    return int(predict_ranks(w @ x, ladder))


def predict_ranks(scores, ladder: ThresholdLadder):
    """Smallest rank k whose cut exceeds each score; K when no cut does."""
    return ladder.cuts.searchsorted(scores, side="right") + 1

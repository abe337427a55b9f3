"""Support vector ordinal regression with gender-specific threshold ladders.

One scoring direction w is shared by everyone; each gender owns a ladder of
K-1 non-decreasing cut points.  A rank-k sample must sit below its gender's
cut k by a unit margin and above cut k-1 by a unit margin, with slack paid
per violated side (rank 1 has no lower side, rank K no upper side).  The
quadratic term uses the rank-one-modified metric I + 2*lam3 * a a^T, handled
by the same whitening as the classifier.  Ladder monotonicity is enforced
inside the solver, not by post-hoc clipping.

Both subproblems are posed here: :func:`_build_terms` says which sample
meets which cut on which side, and a dataset stores, per ladder kind, the
sample row of each term with its :class:`~genage.smo.HingeTerms`, in cut
order.  A solve poses its :class:`~genage.smo.HingeProblem` on those once
:func:`_check` passes; the losses of :func:`genage.train.objective_value`
read them unchecked through :func:`_objective`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import FEMALE, MALE, Dataset, ThresholdLadder
from .errors import DimensionMismatch, InsufficientRanks, SingleClassInput
from .smo import HingeProblem, hinge_sum, hinge_terms, rank1_shrink, solve_hinge_dual


@dataclass(frozen=True)
class SvorSolution:
    w: np.ndarray
    ladder_male: ThresholdLadder
    ladder_female: ThresholdLadder
    objective: float  # the primal value whose duality gap the solve certified
    iterations: int


def _objective(rows, terms, X, penalty, anchor, lambda3, w, cuts):
    """The subproblem objective at (w, cuts), original coordinates: the hinge
    terms ``terms`` of the samples ``rows`` at the scores ``X @ w`` and the
    per-cut values ``cuts``, with the coupling ``lambda3 * (w . anchor)^2``
    when ``anchor`` is set."""
    quad = 0.5 * float(w @ w)
    if anchor is not None and lambda3 > 0.0:
        quad += lambda3 * float(w @ anchor) ** 2
    return quad + penalty * hinge_sum((X @ w)[rows], terms.tau, cuts[terms.cut])


def _build_terms(ranks, genders, num_ranks, split):
    """The sample row of each hinge term of the reduced problem and its
    :class:`~genage.smo.HingeTerms`, stably sorted by cut as the solver reads
    them: within a cut, in sample order."""
    n_cuts_per = num_ranks - 1
    k = np.asarray(ranks, dtype=int)
    # per sample, the term below cut k then the term above cut k-1: the flat
    # indices of a row-major (sample, side) mask keep that order
    flat = np.flatnonzero(np.stack((k <= n_cuts_per, k >= 2), axis=1))
    rows, side = flat >> 1, flat & 1
    cuts = k[rows] - 1 - side
    if split:
        cuts += np.where(np.asarray(genders)[rows] == FEMALE, n_cuts_per, 0)
        chains = (tuple(range(n_cuts_per)), tuple(range(n_cuts_per, 2 * n_cuts_per)))
        n_cuts = 2 * n_cuts_per
    else:
        chains = (tuple(range(n_cuts_per)),)
        n_cuts = n_cuts_per
    order = np.argsort(cuts, kind="stable")
    rows, side, cuts = rows[order], side[order], cuts[order]
    rows.setflags(write=False)
    return rows, hinge_terms(1.0 - 2.0 * side, cuts, n_cuts, chains)


# the ladder kinds a fit solves: the classifier (two ranks, male above
# female), one ladder shared by both genders, and one ladder per gender
_CLASSIFIER, _SHARED, _SPLIT = "classifier", "shared", "split"


def _terms(ds: Dataset, kind):
    """``ds``'s sample rows and :class:`~genage.smo.HingeTerms` of ``kind``,
    built on first use and kept in the dataset's store.  They are not
    checked: a loss needs none, and a solve calls :func:`_check` first."""
    if kind == _CLASSIFIER:
        args = np.where(ds.gender == MALE, 2, 1), ds.gender, 2, False
    else:
        args = ds.age_rank, ds.gender, ds.num_ranks, kind == _SPLIT
    return ds._derived(kind, lambda: _build_terms(*args))


def _check(ds: Dataset, kind):
    """Check that ``ds`` can pose a subproblem of ``kind``: raise
    ``SingleClassInput`` for a classifier that lacks a class or any class
    contrast, ``InsufficientRanks`` for ladders over fewer than two distinct
    ranks.  A pass is kept in the dataset's store; a failure stores nothing,
    so the next call raises again."""

    def passes():
        genders, ranks, X = ds.gender, ds.age_rank, ds.features
        if kind == _CLASSIFIER:
            if np.all(genders == MALE) or np.all(genders == FEMALE):
                raise SingleClassInput("both gender classes are required")
            if np.all(X == X[0]):
                raise SingleClassInput("all samples are identical; the classes cannot be separated")
        elif kind == _SPLIT:
            for g, name in ((MALE, "male"), (FEMALE, "female")):
                if np.unique(ranks[genders == g]).size < 2:
                    raise InsufficientRanks(f"split ladders need the {name} samples to span >= 2 distinct ranks")
        elif np.unique(ranks).size < 2:
            raise InsufficientRanks("samples span a single rank; nothing to order")
        return True

    ds._derived(("checked", kind), passes)


def _pose_problem(ds, kind, penalty, anchor, lambda3):
    """Check a subproblem of ``ds`` of ladder ``kind`` and pose it as a
    whitened :class:`HingeProblem` on the dataset's stored terms; returns it
    and the whitening map, which also maps the solved direction back."""
    if penalty < 0 or lambda3 < 0:
        raise ValueError("the hinge weight and lambda3 must be nonnegative")
    _check(ds, kind)
    rows, terms = _terms(ds, kind)
    X = ds.features
    if anchor is not None:
        anchor = np.asarray(anchor, dtype=float)
        if anchor.shape != (X.shape[1],):
            raise DimensionMismatch(
                f"anchor has dimension {anchor.shape}, expected ({X.shape[1]},)"
            )
    shrink = rank1_shrink(anchor, lambda3)
    return HingeProblem(shrink(X)[rows], terms, float(penalty)), shrink


def solve_svor(ds: Dataset, lambda2, anchor=None, lambda3=0.0, split_thresholds=True, tol=1e-6):
    """Fit the shared direction and the threshold ladder(s) on ``ds``.

    With ``split_thresholds`` each gender gets its own ladder; otherwise one
    ladder is fit on everyone and duplicated into both fields of the result.
    Raises InsufficientRanks when a fitted population does not span at least
    two distinct ranks, NonConvergence when the step budget runs out.
    """
    K = ds.num_ranks
    prob, shrink = _pose_problem(ds, _SPLIT if split_thresholds else _SHARED, lambda2, anchor, lambda3)
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

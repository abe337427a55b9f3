"""Alternating trainer for the coupled gender / age estimator.

The joint objective

    0.5 ||w_g||^2 + lam1 * gender hinge
  + 0.5 ||w_a||^2 + lam2 * ordinal slacks
  + lam3 * (w_g . w_a)^2

is bi-convex in {w_g, b_g} and {w_a, ladders}, so training alternates the
two exact convex subproblem solvers.  Four variants share the machinery:

* ``direct``: lam3 = 0, one shared ladder, single pass (nothing couples,
  so the gender-blind init is already its ordinal solution);
* ``2step``: lam3 = 0, gender-split ladders, single pass;
* ``st``:     coupled, one shared ladder;
* ``tt``:     coupled, gender-split ladders.

Each accepted half-step can only lower the joint objective, so the recorded
trace is non-increasing by construction.
"""

from __future__ import annotations

import bisect
import math
from functools import partial

import numpy as np

from .core import FEMALE, MALE, Dataset, GenAgeModel, HyperParams, TrainConfig, Variant, _check_ladders
from .errors import BadConfig, BadGenderLabel, DegenerateGender, DimensionMismatch, NonFiniteFeature
from .svm import solve_svm
from .svor import _CLASSIFIER, _SPLIT, _objective, _terms, predict_ranks, solve_svor


def objective_value(ds: Dataset, hyper: HyperParams, w_g, b_g, w_a, ladder_male, ladder_female):
    """Full joint objective at an arbitrary state.

    The classifier's subproblem objective without coupling plus the ordinal
    one coupled on ``w_g``; slack values are the margin violations of the
    given state, so the result is exact for any (w_g, b_g, w_a, ladders),
    fitted or not.  It reads the dataset's stored terms, unchecked, and the
    split terms serve a shared ladder too: each term reads the same cut value.
    """
    w_g = np.asarray(w_g, dtype=float)
    w_a = np.asarray(w_a, dtype=float)
    if w_g.shape != (ds.dim,) or w_a.shape != (ds.dim,):
        raise DimensionMismatch("state dimensions do not match the dataset")
    _check_ladders(ladder_male=ladder_male, ladder_female=ladder_female)
    if ladder_male.num_ranks != ds.num_ranks or ladder_female.num_ranks != ds.num_ranks:
        raise DimensionMismatch(f"each ladder must hold {ds.num_ranks - 1} cuts, got "
                                f"{ladder_male.num_ranks - 1} and {ladder_female.num_ranks - 1}")
    X = ds.features
    cuts = np.concatenate((ladder_male.cuts, ladder_female.cuts))
    return (_objective(*_terms(ds, _CLASSIFIER), X, hyper.lambda1, None, 0.0, w_g, np.array([-float(b_g)]))
            + _objective(*_terms(ds, _SPLIT), X, hyper.lambda2, w_g, hyper.lambda3, w_a, cuts))


def fit(ds: Dataset, cfg: TrainConfig | None = None) -> GenAgeModel:
    """Train a model on ``ds`` according to ``cfg.hyper.variant``.

    The aging state is initialized from one shared-ladder ordinal solve with
    no coupling (a gender-blind pass), which makes every run deterministic.
    Each round then solves the classifier block (w_g, b_g), then the ordinal
    block (w_a, ladders), and keeps a block's solution only if the joint
    objective does not rise.  The coupled variants run ``t_max`` rounds,
    stopping early once a round changes the objective by less than ``tol``
    relatively; the decoupled ones run one.

    The gender-blind init depends only on ``lambda2`` and ``tol``, and the
    first classifier half-step only on that init, ``lambda1`` and the
    effective ``lambda3`` (0 for the decoupled variants, so ``direct`` and
    ``2step`` pose the same problem).  Both are kept in the dataset's store,
    so fits on one dataset solve each once.  Every solve is one
    deterministic call, so a model is the same whichever fit solved them.
    """
    cfg = TrainConfig() if cfg is None else cfg
    if not isinstance(cfg, TrainConfig):
        raise BadConfig(f"fit expects a TrainConfig, got {type(cfg).__name__}")
    variant = cfg.hyper.variant
    if not (np.any(ds.gender == MALE) and np.any(ds.gender == FEMALE)):
        raise DegenerateGender(f"variant {variant.value} needs both genders in the training data")
    decoupled = variant in (Variant.DIRECT, Variant.TWO_STEP)
    hyper = cfg.hyper.replace(lambda3=0.0) if decoupled else cfg.hyper
    key = ("init", hyper.lambda2, hyper.tol)
    init = ds._derived(key, lambda: _frozen(solve_svor(ds, hyper.lambda2, anchor=None, lambda3=0.0,
                                                        split_thresholds=False, tol=hyper.tol)))

    # (w_g, b_g, w_a, male ladder, female ladder), GenAgeModel's field order
    state = (np.zeros(ds.dim), 0.0, init.w, init.ladder_male, init.ladder_female)
    trace = [objective_value(ds, hyper, *state)]
    for t in range(1, (1 if decoupled else hyper.t_max) + 1):
        for block in ("classifier", "ordinal"):
            w_g, b_g, w_a, ladder_m, ladder_f = state
            if block == "classifier":
                solve = partial(solve_svm, ds, hyper.lambda1, anchor=w_a, lambda3=hyper.lambda3, tol=hyper.tol)
                # the first step starts from the init, so the store keeps it too
                svm = solve() if t > 1 else ds._derived(key + (hyper.lambda1, hyper.lambda3),
                                                        lambda: _frozen(solve()))
                cand = (svm.w, svm.b, w_a, ladder_m, ladder_f)
            else:
                # direct's ordinal problem, with no coupling and one shared
                # ladder, is the init's, so the init is its exact solution
                svor = init if variant is Variant.DIRECT else solve_svor(
                    ds, hyper.lambda2, anchor=w_g, lambda3=hyper.lambda3,
                    split_thresholds=variant in (Variant.TT, Variant.TWO_STEP), tol=hyper.tol)
                cand = (w_g, b_g, svor.w, svor.ladder_male, svor.ladder_female)
            value = objective_value(ds, hyper, *cand)
            if value <= trace[-1]:
                state = cand
                trace.append(value)
            else:
                trace.append(trace[-1])
        if t >= 2 and abs(trace[-3] - trace[-1]) <= hyper.tol * max(1.0, abs(trace[-3])):
            break

    return GenAgeModel(*state, variant, tuple(trace))


def _frozen(sol):
    """``sol`` with its direction made read-only, as the store hands it to every fit."""
    sol.w.setflags(write=False)
    return sol


def predict(model: GenAgeModel, x):
    """Predict (gender, rank) for one sample; sign(0) counts as male.

    The rank is read off the ladder of the *predicted* gender, mirroring
    deployment where the true gender is unknown.  For shared-ladder variants
    the routing is irrelevant since both ladders coincide.  A sample whose
    scores are not finite raises :class:`NonFiniteFeature`.

    This is :func:`predict_batch`'s rule on one row, run on the model's
    precomputed Python floats: numpy calls on one sample cost more than the
    arithmetic.  ``bisect_right`` counts the cuts at or below the score, as
    ``searchsorted(side="right")`` does.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (model.dim,):
        raise DimensionMismatch(f"x has shape {x.shape}, expected ({model.dim},)")
    weights, b_g, cuts_male, cuts_female = model._rule
    try:
        gender_score, age_score = weights.dot(x).tolist()
    except (RuntimeWarning, FloatingPointError):
        # numpy's report of an inf * 0 or an overflow, where it is made an error
        gender_score = age_score = math.nan
    gender_score += b_g
    if not (math.isfinite(gender_score) and math.isfinite(age_score)):
        raise NonFiniteFeature(0, "x has a non-finite feature or score")
    if gender_score >= 0.0:
        return MALE, bisect.bisect_right(cuts_male, age_score) + 1
    return FEMALE, bisect.bisect_right(cuts_female, age_score) + 1


def predict_batch(model: GenAgeModel, X, gender_override=None):
    """Vectorized prediction; returns (genders, ranks) arrays.

    ``gender_override`` routes each sample to the ladder of the given labels
    instead of the predicted ones (the oracle-routing diagnostic); it must
    hold one +1 or -1 per row of ``X``.  The first row whose scores are not
    finite raises :class:`NonFiniteFeature`.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != model.dim:
        raise DimensionMismatch(f"X has shape {X.shape}, expected (n, {model.dim})")
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite score raises below
        gender_scores = X @ model.w_g + model.b_g
        scores = X @ model.w_a
    finite = np.isfinite(gender_scores) & np.isfinite(scores)
    if not finite.all():
        i = int(np.argmin(finite))
        raise NonFiniteFeature(i, f"sample {i} has a non-finite feature or score")
    genders = np.where(gender_scores >= 0.0, MALE, FEMALE)
    del gender_scores, finite  # freed before the rank lookup, which holds the most memory
    routing = genders
    if gender_override is not None:
        routing = np.asarray(gender_override)
        if routing.shape != genders.shape:
            raise DimensionMismatch(f"gender_override has shape {routing.shape}, expected ({X.shape[0]},)")
        known = np.isin(routing, (MALE, FEMALE))
        if not known.all():
            i = int(np.argmin(known))
            raise BadGenderLabel(i, routing[i].item())
    ranks = np.empty(X.shape[0], dtype=int)
    male = routing == MALE
    ranks[male] = predict_ranks(scores[male], model.ladder_male)
    ranks[~male] = predict_ranks(scores[~male], model.ladder_female)
    return genders, ranks

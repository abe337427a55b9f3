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

import numpy as np

from .core import FEMALE, MALE, Dataset, GenAgeModel, HyperParams, ThresholdLadder, TrainConfig, Variant
from .errors import DegenerateGender, DimensionMismatch
from .svm import solve_svm
from .svor import ordinal_slacks, predict_ranks, solve_svor


def objective_value(ds: Dataset, hyper: HyperParams, w_g, b_g, w_a, ladder_male, ladder_female):
    """Full joint objective at an arbitrary state.

    Slack values are taken as the margin violations of the given state, so
    the result is exact for any (w_g, b_g, w_a, ladders), fitted or not.
    """
    w_g = np.asarray(w_g, dtype=float)
    w_a = np.asarray(w_a, dtype=float)
    if w_g.shape != (ds.dim,) or w_a.shape != (ds.dim,):
        raise DimensionMismatch("state dimensions do not match the dataset")
    y = ds.gender.astype(float)
    hinge = np.clip(1.0 - y * (ds.features @ w_g + b_g), 0.0, None).sum()
    slacks = ordinal_slacks(ds.features @ w_a, ds.age_rank, ds.gender, ladder_male, ladder_female)
    coupling = hyper.lambda3 * float(w_g @ w_a) ** 2
    return (
        0.5 * float(w_g @ w_g)
        + hyper.lambda1 * float(hinge)
        + 0.5 * float(w_a @ w_a)
        + hyper.lambda2 * slacks
        + coupling
    )


def model_objective(ds: Dataset, hyper: HyperParams, model: GenAgeModel):
    return objective_value(
        ds, hyper, model.w_g, model.b_g, model.w_a, model.ladder_male, model.ladder_female
    )


def fit(ds: Dataset, cfg: TrainConfig | None = None) -> GenAgeModel:
    """Train a model on ``ds`` according to ``cfg.hyper.variant``.

    The aging state is initialized from one shared-ladder ordinal solve with
    no coupling (a gender-blind pass), which makes every run deterministic.
    The coupled variants then alternate classifier and ordinal solves for
    ``t_max`` iterations, stopping early once a full iteration changes the
    objective by less than ``tol`` relatively.
    """
    return fit_many(ds, [TrainConfig() if cfg is None else cfg])[0]


def fit_many(ds: Dataset, configs) -> list[GenAgeModel]:
    """Train one model per config on the same ``ds``, in order.

    The gender-blind init depends only on ``lambda2`` and ``tol``, so it is
    solved once per distinct pair and shared by every config that has it.
    The init is one deterministic solve, so each model is identical to the
    one a separate :func:`fit` returns.
    """
    configs = list(configs)
    if configs and not (np.any(ds.gender == MALE) and np.any(ds.gender == FEMALE)):
        variant = configs[0].hyper.variant
        raise DegenerateGender(f"variant {variant.value} needs both genders in the training data")
    inits = {}
    models = []
    for cfg in configs:
        key = (cfg.hyper.lambda2, cfg.hyper.tol)
        if key not in inits:
            inits[key] = solve_svor(ds, key[0], anchor=None, lambda3=0.0,
                                    split_thresholds=False, tol=key[1])
        models.append(_alternate(ds, cfg, inits[key]))
    return models


def _alternate(ds: Dataset, cfg: TrainConfig, init) -> GenAgeModel:
    """Run ``cfg``'s alternation from the gender-blind ``init`` solve."""
    hyper = cfg.hyper
    variant = hyper.variant
    decoupled = variant in (Variant.DIRECT, Variant.TWO_STEP)
    split = variant in (Variant.TT, Variant.TWO_STEP)
    eff = hyper.replace(lambda3=0.0) if decoupled else hyper
    t_max = 1 if decoupled else hyper.t_max

    w_g = np.zeros(ds.dim)
    b_g = 0.0
    w_a = init.w
    ladder_m, ladder_f = init.ladder_male, init.ladder_female

    # the hinge-term layout is identical across alternation rounds, so each
    # solve can reuse the previous round's dual state
    warm_svm, warm_svor = None, init.dual_state
    trace = [objective_value(ds, eff, w_g, b_g, w_a, ladder_m, ladder_f)]
    for t in range(1, t_max + 1):
        svm = solve_svm(ds, eff.lambda1, anchor=w_a, lambda3=eff.lambda3, tol=eff.tol,
                        warm=warm_svm)
        warm_svm = svm.dual_state
        cand = objective_value(ds, eff, svm.w, svm.b, w_a, ladder_m, ladder_f)
        if cand <= trace[-1]:
            w_g, b_g = svm.w, svm.b
            trace.append(cand)
        else:
            trace.append(trace[-1])

        if variant is Variant.DIRECT:
            # no coupling and one shared ladder: the ordinal half-step would
            # pose the init problem again, so the init is its solution
            trace.append(trace[-1])
            continue
        svor = solve_svor(ds, eff.lambda2, anchor=w_g, lambda3=eff.lambda3,
                          split_thresholds=split, tol=eff.tol, warm=warm_svor)
        warm_svor = svor.dual_state
        cand = objective_value(ds, eff, w_g, b_g, svor.w, svor.ladder_male, svor.ladder_female)
        if cand <= trace[-1]:
            w_a, ladder_m, ladder_f = svor.w, svor.ladder_male, svor.ladder_female
            trace.append(cand)
        else:
            trace.append(trace[-1])

        if t >= 2:
            prev, curr = trace[-3], trace[-1]
            if abs(prev - curr) <= hyper.tol * max(1.0, abs(prev)):
                break

    if not split:
        # one shared ladder object keeps the equality exact, not just approximate
        shared = ThresholdLadder(ladder_m.cuts)
        ladder_m = ladder_f = shared
    return GenAgeModel(
        w_g=w_g,
        b_g=b_g,
        w_a=w_a,
        ladder_male=ladder_m,
        ladder_female=ladder_f,
        variant=variant,
        objective_trace=tuple(trace) if cfg.record_trace else (),
    )


def predict(model: GenAgeModel, x):
    """Predict (gender, rank) for one sample; sign(0) counts as male.

    The rank is read off the ladder of the *predicted* gender, mirroring
    deployment where the true gender is unknown.  For shared-ladder variants
    the routing is irrelevant since both ladders coincide.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (model.dim,):
        raise DimensionMismatch(f"x has shape {x.shape}, expected ({model.dim},)")
    gender = MALE if float(model.w_g @ x + model.b_g) >= 0.0 else FEMALE
    ladder = model.ladder_male if gender == MALE else model.ladder_female
    return gender, int(predict_ranks(model.w_a @ x, ladder))


def predict_batch(model: GenAgeModel, X, gender_override=None):
    """Vectorized prediction; returns (genders, ranks) arrays.

    ``gender_override`` routes each sample to the ladder of the given labels
    instead of the predicted ones (the oracle-routing diagnostic).
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != model.dim:
        raise DimensionMismatch(f"X has shape {X.shape}, expected (n, {model.dim})")
    genders = np.where(X @ model.w_g + model.b_g >= 0.0, MALE, FEMALE)
    routing = genders if gender_override is None else np.asarray(gender_override, dtype=int)
    scores = X @ model.w_a
    ranks = np.empty(X.shape[0], dtype=int)
    male = routing == MALE
    ranks[male] = predict_ranks(scores[male], model.ladder_male)
    ranks[~male] = predict_ranks(scores[~male], model.ladder_female)
    return genders, ranks

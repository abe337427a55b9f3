"""Metrics, cross-validation and the repeated-split experiment harness.

The harness reproduces the usual protocol for this problem family: a fixed
number of training samples per rank is drawn per run (stratified by gender
and rank so every fold satisfies the solver preconditions), each requested
method is fit, and mean absolute rank error is reported for the whole test
set and per true gender, together with the gender accuracy, the angle
between the two learned directions, and the spread of the threshold
ladders.  Everything is deterministic given the seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product

import numpy as np

from .core import FEMALE, MALE, Dataset, HyperParams, TrainConfig, Variant
from .errors import BadConfig, EmptyInput, InfeasibleFolds, LengthMismatch, ZeroVector
from .pls import fit_pls_dataset, predict_pls_batch, truncate_pls
from .synth import SynthConfig, generate
from .train import fit, fit_many, predict_batch  # noqa: F401  (fit: perfbench's tracer wraps it here)

PLS_METHOD = "pls"
GENAGE_METHODS = tuple(v.value for v in Variant)
ALL_METHODS = GENAGE_METHODS + (PLS_METHOD,)
PLS_MAX_COMPONENTS = 8
PLS_FOLDS = 5


def mae(predicted, truth):
    """Mean absolute difference between two equal-length label sequences."""
    p = np.asarray(predicted, dtype=float)
    t = np.asarray(truth, dtype=float)
    if p.shape != t.shape:
        raise LengthMismatch(f"got lengths {p.shape} vs {t.shape}")
    if p.size == 0:
        raise EmptyInput("mae of an empty sequence")
    return float(np.abs(p - t).mean())


def angle_deg(u, v):
    """Angle between two nonzero vectors in degrees, in [0, 180]."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    nu, nv = np.linalg.norm(u), np.linalg.norm(v)
    if nu == 0.0 or nv == 0.0:
        raise ZeroVector("angle of a zero vector is undefined")
    cos = np.clip(float(u @ v) / (nu * nv), -1.0, 1.0)
    return float(np.degrees(np.arccos(cos)))


# --------------------------------------------------------------------- folds

def stratified_folds(ds: Dataset, folds):
    """Deterministic round-robin fold assignment within each gender/rank cell."""
    if folds < 2:
        raise InfeasibleFolds("at least two folds are required")
    assignment = np.empty(ds.n, dtype=int)
    offset = 0
    for gender in (MALE, FEMALE):
        for rank in range(1, ds.num_ranks + 1):
            idx = np.flatnonzero((ds.gender == gender) & (ds.age_rank == rank))
            assignment[idx] = (np.arange(idx.size) + offset) % folds
            offset += idx.size
    out = [np.flatnonzero(assignment == f) for f in range(folds)]
    for f, val_idx in enumerate(out):
        if val_idx.size == 0:
            raise InfeasibleFolds(f"fold {f} is empty")
        keep = assignment != f
        gender, rank = ds.gender[keep], ds.age_rank[keep]
        if not (np.any(gender == MALE) and np.any(gender == FEMALE)):
            raise InfeasibleFolds(f"fold {f} leaves a single gender for training")
        for g in (MALE, FEMALE):
            if np.unique(rank[gender == g]).size < 2:
                raise InfeasibleFolds(f"fold {f} starves a gender below two ranks")
    return out


def cross_validate(ds: Dataset, grid, folds=5):
    """Exhaustive grid search by mean validation rank MAE.

    ``grid`` is an iterable of HyperParams.  Ties are broken toward larger
    lambda3, then smaller lambda1 and lambda2.  Returns (best, table) where
    table maps each candidate to its per-fold scores.
    """
    candidates = list(grid)
    if not candidates:
        raise EmptyInput("empty hyperparameter grid")
    configs = [TrainConfig(hyper=hp) for hp in candidates]
    scores = [[] for _ in candidates]
    all_idx = np.arange(ds.n)
    # folds outside, grid inside: one subset pair per fold, and the grid's
    # fits of a fold share their gender-blind init through its store
    for val in stratified_folds(ds, folds):
        train = ds.subset(np.setdiff1d(all_idx, val))
        test = ds.subset(val)
        for row, model in zip(scores, fit_many(train, configs)):
            _, ranks = predict_batch(model, test.features)
            row.append(mae(ranks, test.age_rank))
    table = list(zip(candidates, scores))
    order = sorted(
        table,
        key=lambda item: (float(np.mean(item[1])), -item[0].lambda3, item[0].lambda1, item[0].lambda2),
    )
    return order[0][0], table


def hyper_grid(lambda1s=(10.0,), lambda2s=(10.0,), lambda3s=(10.0, 100.0, 1000.0), **common):
    """Convenience cartesian grid of HyperParams."""
    return [
        HyperParams(lambda1=l1, lambda2=l2, lambda3=l3, **common)
        for l1, l2, l3 in product(lambda1s, lambda2s, lambda3s)
    ]


# ----------------------------------------------------------------- experiment

@dataclass
class RunRecord:
    run: int
    mae_mixed: float
    mae_male: float
    mae_female: float
    gender_accuracy: float
    angle_deg: float
    mae_oracle_routing: float | None = None
    cuts_male: tuple | None = None
    cuts_female: tuple | None = None
    mae_mixed_years: float | None = None

    def to_dict(self):
        out = {k: v for k, v in self.__dict__.items() if v is not None}
        for key in ("cuts_male", "cuts_female"):
            if key in out:
                out[key] = list(out[key])
        return out


@dataclass
class EvalReport:
    """Aggregated results of one method over repeated splits."""

    method: str
    runs: int
    train_per_rank: int
    records: list = field(default_factory=list)

    def _stat(self, name):
        vals = [getattr(r, name) for r in self.records if getattr(r, name) is not None]
        if not vals:
            return None
        ddof = 1 if len(vals) > 1 else 0
        return {"mean": float(np.mean(vals)), "std": float(np.std(vals, ddof=ddof))}

    def _ladder_stats(self):
        out = {}
        for side in ("male", "female"):
            all_cuts = [getattr(r, f"cuts_{side}") for r in self.records]
            if any(c is None for c in all_cuts) or not all_cuts:
                return out
            arr = np.asarray(all_cuts, dtype=float)
            out[f"ladder_{side}_mean"] = [float(v) for v in arr.mean(axis=0)]
            spreads = arr.max(axis=1) - arr.min(axis=1)
            ddof = 1 if len(spreads) > 1 else 0
            out[f"ladder_spread_{side}"] = {
                "mean": float(spreads.mean()),
                "std": float(np.std(spreads, ddof=ddof)),
            }
        shared = all(
            r.cuts_male is not None and r.cuts_male == r.cuts_female for r in self.records
        )
        if shared and "ladder_spread_male" in out:
            out["ladder_spread_shared"] = out["ladder_spread_male"]
        return out

    def to_dict(self):
        out = {
            "method": self.method,
            "runs": self.runs,
            "train_per_rank": self.train_per_rank,
        }
        for name in (
            "mae_mixed",
            "mae_male",
            "mae_female",
            "mae_oracle_routing",
            "mae_mixed_years",
            "gender_accuracy",
            "angle_deg",
        ):
            stat = self._stat(name)
            if stat is not None:
                out[name] = stat
        out.update(self._ladder_stats())
        out["per_run"] = [r.to_dict() for r in self.records]
        return out

    def mean(self, name):
        stat = self._stat(name)
        return None if stat is None else stat["mean"]


def split_train_test(ds: Dataset, train_per_rank, rng):
    """One stratified split; splits the per-rank budget evenly across genders.

    Cells with fewer samples than requested contribute everything they have
    to the training side (the standard small-cell fallback).
    """
    want_per_cell = max(1, int(round(train_per_rank / 2)))
    train_idx, test_idx = [], []
    for gender in (MALE, FEMALE):
        for rank in range(1, ds.num_ranks + 1):
            idx = np.flatnonzero((ds.gender == gender) & (ds.age_rank == rank))
            if idx.size == 0:
                continue
            perm = rng.permutation(idx.size)
            take = min(want_per_cell, idx.size)
            train_idx.append(idx[perm[:take]])
            test_idx.append(idx[perm[take:]])
    train_idx = np.sort(np.concatenate(train_idx))
    test_idx = np.sort(np.concatenate(test_idx)) if any(t.size for t in test_idx) else np.empty(0, int)
    if test_idx.size == 0:
        raise InfeasibleFolds("the requested train size leaves no test samples")
    return ds.subset(train_idx), ds.subset(test_idx)


def _rank_years(ds: Dataset, ranks):
    years = np.asarray(ds.rank_to_year, dtype=float)
    return years[np.asarray(ranks, dtype=int) - 1]


def _evaluate_genage(model, test):
    pred_gender, pred_rank = predict_batch(model, test.features)
    _, oracle_rank = predict_batch(model, test.features, gender_override=test.gender)
    rec = _base_record(test, pred_gender, pred_rank)
    rec.mae_oracle_routing = mae(oracle_rank, test.age_rank)
    rec.angle_deg = angle_deg(model.w_g, model.w_a)
    rec.cuts_male = tuple(float(c) for c in model.ladder_male.cuts)
    rec.cuts_female = tuple(float(c) for c in model.ladder_female.cuts)
    return rec


def _evaluate_pls(train, test):
    model = fit_pls_dataset(train, select_pls_components(train))
    pred_gender, pred_rank = predict_pls_batch(model, test.features)
    rec = _base_record(test, pred_gender, pred_rank)
    rec.angle_deg = angle_deg(model.coefficients[:, 0], model.coefficients[:, 1])
    return rec


def _base_record(test, pred_gender, pred_rank):
    male = test.gender == MALE
    return RunRecord(
        run=-1,
        mae_mixed=mae(pred_rank, test.age_rank),
        mae_male=mae(pred_rank[male], test.age_rank[male]) if male.any() else float("nan"),
        mae_female=mae(pred_rank[~male], test.age_rank[~male]) if (~male).any() else float("nan"),
        gender_accuracy=float(np.mean(pred_gender == test.gender)),
        angle_deg=float("nan"),
        mae_mixed_years=(
            mae(_rank_years(test, pred_rank), _rank_years(test, test.age_rank))
            if test.rank_to_year is not None
            else None
        ),
    )


def select_pls_components(ds: Dataset):
    """Pick the component count, at most ``PLS_MAX_COMPONENTS``, by
    ``PLS_FOLDS``-fold rank MAE on the training data.

    Each fold is fit once at the largest count; smaller counts are its
    leading components (:func:`genage.pls.truncate_pls`).
    """
    limit = min(ds.dim, ds.n - 1, PLS_MAX_COMPONENTS)
    fold_idx = stratified_folds(ds, PLS_FOLDS)
    all_idx = np.arange(ds.n)
    scores = [[] for _ in range(limit)]
    for val in fold_idx:
        train = ds.subset(np.setdiff1d(all_idx, val))
        test = ds.subset(val)
        full = fit_pls_dataset(train, limit)
        for n in range(1, limit + 1):
            _, ranks = predict_pls_batch(truncate_pls(full, n), test.features)
            scores[n - 1].append(mae(ranks, test.age_rank))
    best, best_score = 1, np.inf
    for n in range(1, limit + 1):
        score = float(np.mean(scores[n - 1]))
        if score < best_score - 1e-12:
            best, best_score = n, score
    return best


def run_experiment(data, methods, train_per_rank, runs=10, hyper=None, seed=0):
    """Fit every method over ``runs`` stratified splits and aggregate.

    ``data`` is a Dataset or a SynthConfig (generated once).  Returns a dict
    method -> EvalReport.  Rank MAE is reported for the mixed test set and
    per true gender; models with a gender hyperplane additionally report the
    oracle-routing MAE diagnostic, the learned ladders and the direction
    angle.
    """
    for m in methods:
        if m not in ALL_METHODS:
            raise ValueError(f"unknown method {m!r}, expected one of {ALL_METHODS}")
        if methods.count(m) > 1:
            raise ValueError(f"method {m!r} is listed more than once")
    if runs < 1:
        raise BadConfig(f"runs must be at least 1, got {runs}")
    ds = generate(data) if isinstance(data, SynthConfig) else data
    if hyper is None:
        hyper = HyperParams()
    reports = {m: EvalReport(method=m, runs=runs, train_per_rank=train_per_rank) for m in methods}
    variants = [m for m in methods if m != PLS_METHOD]
    configs = [TrainConfig(hyper=hyper.replace(variant=Variant(m))) for m in variants]
    root = np.random.SeedSequence(seed)
    for run, child in enumerate(root.spawn(runs)):
        rng = np.random.default_rng(child)
        train, test = split_train_test(ds, train_per_rank, rng)
        models = dict(zip(variants, fit_many(train, configs)))
        for method in methods:
            if method == PLS_METHOD:
                rec = _evaluate_pls(train, test)
            else:
                rec = _evaluate_genage(models[method], test)
            rec.run = run
            reports[method].records.append(rec)
    return reports

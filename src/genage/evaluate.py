"""Metrics, cross-validation and the repeated-split experiment harness.

The harness reproduces the usual protocol for this problem family: a fixed
number of training samples per rank is drawn per run (stratified by gender
and rank so every fold satisfies the solver preconditions), each requested
method is fit, and mean absolute rank error is reported for the whole test
set and per true gender, together with the gender accuracy, the angle
between the two learned directions, and the spread of the threshold
ladders.  Everything is deterministic given the seed.

Folds and splits both walk the (gender, rank) cells in one stable sort of
the rows, males first and ranks ascending (:func:`_cell_order`); both
cross-validation routines walk the folds through :func:`_fold_pairs`.  A
metric that one run leaves undefined (the MAE of a gender its test side
lacks, the angle of a zero direction) is left out of that run's record and
of the report's mean and std, so every report is strict JSON.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from itertools import product

import numpy as np

from .core import FEMALE, MALE, Dataset, HyperParams, TrainConfig, Variant
from .errors import BadConfig, EmptyInput, InfeasibleFolds, LengthMismatch, ZeroVector
from .pls import fit_pls_dataset, predict_pls_batch, truncate_pls
from .synth import SynthConfig, generate
from .train import fit, predict_batch

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

def _cell_order(ds: Dataset):
    """Row indices sorted stably by cell: males before females, ranks ascending."""
    return np.lexsort((ds.age_rank, -ds.gender))


def stratified_folds(ds: Dataset, folds):
    """Deterministic round-robin fold assignment: the p-th row in cell order
    goes to fold ``p % folds``, so every cell is spread over the folds."""
    if folds < 2:
        raise InfeasibleFolds("at least two folds are required")
    assignment = np.empty(ds.n, dtype=int)
    assignment[_cell_order(ds)] = np.arange(ds.n) % folds
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


def _fold_pairs(ds: Dataset, folds):
    """Each fold's (train, test) subsets, one pair at a time."""
    all_idx = np.arange(ds.n)
    for val in stratified_folds(ds, folds):
        yield ds.subset(np.setdiff1d(all_idx, val)), ds.subset(val)


def cross_validate(ds: Dataset, grid, folds=5):
    """Exhaustive grid search by mean validation rank MAE.

    ``grid`` is an iterable of HyperParams.  Ties are broken toward larger
    lambda3, then smaller lambda1 and lambda2.  Returns (best, table) where
    table maps each candidate to its per-fold scores.
    """
    candidates = list(grid)
    if not candidates:
        raise EmptyInput("empty hyperparameter grid")
    scores = [[] for _ in candidates]
    # folds outside, grid inside: the grid's fits of a fold share their
    # gender-blind init through its training subset's store
    for train, test in _fold_pairs(ds, folds):
        for row, hp in zip(scores, candidates):
            _, ranks = predict_batch(fit(train, TrainConfig(hyper=hp)), test.features)
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
    """One method on one run; a metric the run leaves undefined is None."""

    run: int
    mae_mixed: float
    mae_male: float | None
    mae_female: float | None
    gender_accuracy: float
    angle_deg: float | None
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


# every RunRecord field but the run number and the two ladders is a metric
_METRICS = tuple(f.name for f in fields(RunRecord) if f.name not in ("run", "cuts_male", "cuts_female"))


def _mean_std(values):
    ddof = 1 if len(values) > 1 else 0
    return {"mean": float(np.mean(values)), "std": float(np.std(values, ddof=ddof))}


@dataclass
class EvalReport:
    """Aggregated results of one method over repeated splits."""

    method: str
    runs: int
    train_per_rank: int
    records: list = field(default_factory=list)

    def _stat(self, name):
        vals = [getattr(r, name) for r in self.records if getattr(r, name) is not None]
        return _mean_std(vals) if vals else None

    def _ladder_stats(self):
        out = {}
        for side in ("male", "female"):
            all_cuts = [getattr(r, f"cuts_{side}") for r in self.records]
            if any(c is None for c in all_cuts) or not all_cuts:
                return out
            arr = np.asarray(all_cuts, dtype=float)
            out[f"ladder_{side}_mean"] = [float(v) for v in arr.mean(axis=0)]
            out[f"ladder_spread_{side}"] = _mean_std(arr.max(axis=1) - arr.min(axis=1))
        if all(r.cuts_male == r.cuts_female for r in self.records):
            out["ladder_spread_shared"] = out["ladder_spread_male"]
        return out

    def to_dict(self):
        out = {
            "method": self.method,
            "runs": self.runs,
            "train_per_rank": self.train_per_rank,
        }
        for name in _METRICS:
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

    Each cell, in cell order, draws one ``rng.permutation`` of its rows and
    trains on the first ones.  Cells with fewer samples than requested
    contribute everything they have to the training side (the standard
    small-cell fallback).
    """
    want_per_cell = max(1, int(round(train_per_rank / 2)))
    order = _cell_order(ds)
    gender, rank = ds.gender[order], ds.age_rank[order]
    starts = np.flatnonzero((gender[1:] != gender[:-1]) | (rank[1:] != rank[:-1])) + 1
    train = np.zeros(ds.n, dtype=bool)
    for cell in np.split(order, starts):
        train[cell[rng.permutation(cell.size)[:want_per_cell]]] = True
    if train.all():
        raise InfeasibleFolds("the requested train size leaves no test samples")
    return ds.subset(np.flatnonzero(train)), ds.subset(np.flatnonzero(~train))


def _record(run, test, genders, ranks, angle, **diagnostics):
    """The whole record of one method's predictions on one run's test side.

    ``angle`` holds the method's two directions.  The MAE of a gender the
    test side lacks and the angle of a zero direction are None.
    """
    male = test.gender == MALE
    mae_male, mae_female = (mae(ranks[side], test.age_rank[side]) if side.any() else None for side in (male, ~male))
    try:
        degrees = angle_deg(*angle)
    except ZeroVector:
        degrees = None
    years = None if test.rank_to_year is None else np.asarray(test.rank_to_year, dtype=float)
    return RunRecord(
        run=run,
        mae_mixed=mae(ranks, test.age_rank),
        mae_male=mae_male,
        mae_female=mae_female,
        gender_accuracy=float(np.mean(genders == test.gender)),
        angle_deg=degrees,
        mae_mixed_years=None if years is None else mae(years[ranks - 1], years[test.age_rank - 1]),
        **diagnostics,
    )


def select_pls_components(ds: Dataset):
    """Pick the component count, at most ``PLS_MAX_COMPONENTS``, by
    ``PLS_FOLDS``-fold rank MAE on the training data.

    Each fold is fit once at the largest count; smaller counts are its
    leading components (:func:`genage.pls.truncate_pls`).
    """
    limit = min(ds.dim, ds.n - 1, PLS_MAX_COMPONENTS)
    scores = [[] for _ in range(limit)]
    for train, test in _fold_pairs(ds, PLS_FOLDS):
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
    if not methods:
        raise ValueError(f"no method given, expected one or more of {ALL_METHODS}")
    for m in methods:
        if m not in ALL_METHODS:
            raise ValueError(f"unknown method {m!r}, expected one of {ALL_METHODS}")
        if methods.count(m) > 1:
            raise ValueError(f"method {m!r} is listed more than once")
    for name, value in (("runs", runs), ("train_per_rank", train_per_rank)):
        if value < 1:
            raise BadConfig(f"{name} must be at least 1, got {value}")
    ds = generate(data) if isinstance(data, SynthConfig) else data
    if hyper is None:
        hyper = HyperParams()
    reports = {m: EvalReport(method=m, runs=runs, train_per_rank=train_per_rank) for m in methods}
    variants = [m for m in methods if m != PLS_METHOD]
    configs = [TrainConfig(hyper=hyper.replace(variant=Variant(m))) for m in variants]
    for run, child in enumerate(np.random.SeedSequence(seed).spawn(runs)):
        train, test = split_train_test(ds, train_per_rank, np.random.default_rng(child))
        models = {v: fit(train, cfg) for v, cfg in zip(variants, configs)}
        for method in methods:
            if method == PLS_METHOD:
                model = fit_pls_dataset(train, select_pls_components(train))
                genders, ranks = predict_pls_batch(model, test.features)
                rec = _record(run, test, genders, ranks, model.coefficients.T)
            else:
                model = models[method]
                genders, ranks = predict_batch(model, test.features)
                _, oracle = predict_batch(model, test.features, gender_override=test.gender)
                rec = _record(run, test, genders, ranks, (model.w_g, model.w_a),
                              mae_oracle_routing=mae(oracle, test.age_rank),
                              cuts_male=tuple(model.ladder_male.cuts.tolist()),
                              cuts_female=tuple(model.ladder_female.cuts.tolist()))
            reports[method].records.append(rec)
    return reports

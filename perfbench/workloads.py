"""The two benchmark workloads: inputs, timed rounds and their checks.

A workload builds its inputs from the seed in ``setup``; ``run_round`` runs
one round of operations and times each call into the program; ``check_round``
and ``finish`` check the outputs afterwards, outside every timed span.
``solvers`` is made of two parts, the synthetic protocol at small K and the
years CLI at large K, and each of its rounds runs both.  Every round
attempts the same operations, so the share of failed operations is the same
in every run.  The benchmark calls the program through module attributes
(``train.fit``, ``cli.main``), so the tracer's wrappers see them.
"""

from __future__ import annotations

import json
import math
import os
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

from genage import cli, evaluate, pls, svm, svor, synth, train
from genage.core import Dataset, HyperParams, TrainConfig

import checks
from checks import require

HYPER = HyperParams()  # the defaults, which are also the CLI's defaults
QP_GAP = 1e-9  # duality-gap target of the solves checked against scipy
VARIANTS = ("direct", "2step", "st", "tt")


def sub_seed(seed, index):
    """A distinct, reproducible seed for item ``index`` of a run seeded ``seed``."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def angle_deg(u, v):
    cos = float(np.dot(u, v) / (np.linalg.norm(u) * np.linalg.norm(v)))
    return math.degrees(math.acos(max(-1.0, min(1.0, cos))))


@dataclass
class Round:
    """Timings and outcomes of one round; ``outputs`` feed the checks and are dropped after them."""

    times: dict = field(default_factory=dict)      # operation -> seconds
    latencies: dict = field(default_factory=dict)  # operation -> per-call seconds
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)
    outputs: dict = field(default_factory=dict)
    kept: dict = field(default_factory=dict)       # what the checks keep for ``finish``

    def call(self, name, fn, *args, **kwargs):
        """Time one operation; its seconds add to ``times[name]``."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.times[name] = self.times.get(name, 0.0) + time.perf_counter() - start

    def calls(self, name, fn, rows, *args):
        """``fn(*args, row)`` for every row, timing each call; returns the results."""
        out, lat = [], []
        for row in rows:
            start = time.perf_counter()
            out.append(fn(*args, row))
            lat.append(time.perf_counter() - start)
        self.attempted += len(lat)
        self.times[name] = float(np.sum(lat))
        self.latencies[name] = lat
        return out

    @property
    def seconds(self):
        return sum(self.times.values())


def _cli(args):
    code = cli.main(args)
    require(code == 0, f"genage {' '.join(args)} exited with {code}")


# ------------------------------------------------------------------ solvers

class SynthProtocol:
    """The paper's protocol at small K: fits, a repeated-split experiment and CV."""

    pool = 12            # rounds before the inputs repeat
    experiment_runs = 1
    cv_folds = 3
    lambda3_grid = (10.0, 100.0, 1000.0)

    def setup(self, seed, workdir):
        # each round fits, runs the experiment and cross-validates on three
        # different datasets, so one hard dataset does not slow a whole round
        datasets = [synth.generate(synth.SynthConfig(discrepancy=2.0, seed=sub_seed(seed, i)))
                    for i in range(3 * self.pool)]
        return {"seed": seed, "datasets": datasets}

    def run_round(self, state, i, r):
        ds, exp_ds, cv_ds = state["datasets"][3 * (i % self.pool):][:3]
        models = {}
        for variant in VARIANTS:
            cfg = TrainConfig(hyper=HYPER.replace(variant=variant))
            models[variant] = r.call(f"fit_{variant}_s", train.fit, ds, cfg)
        reports = r.call("experiment_s", evaluate.run_experiment, exp_ds,
                         list(evaluate.ALL_METHODS), train_per_rank=50,
                         runs=self.experiment_runs, hyper=HYPER, seed=sub_seed(state["seed"], 1000 + i))
        grid = evaluate.hyper_grid(lambda3s=self.lambda3_grid)
        best, table = r.call("cv_s", evaluate.cross_validate, cv_ds, grid, folds=self.cv_folds)
        r.outputs.update(ds=ds, exp_ds=exp_ds, models=models, reports=reports, best=best, table=table)

    def check_round(self, state, i, r):
        ds, models = r.outputs["ds"], r.outputs["models"]
        X, g, k = ds.features, ds.gender, ds.age_rank
        for variant, model in models.items():
            checks.check_fit(f"round {i} fit {variant}", cli.model_to_dict(model), X, g, k, HYPER)
        tt = models["tt"]
        reports, table, exp_ds = r.outputs["reports"], r.outputs["table"], r.outputs["exp_ds"]
        require(set(reports) == set(evaluate.ALL_METHODS), f"round {i}: experiment lost a method")
        for method, report in reports.items():
            require(len(report.records) == self.experiment_runs,
                    f"round {i}: {method} has {len(report.records)} runs")
            for rec in report.records:
                require(0.0 <= rec.mae_mixed <= exp_ds.num_ranks - 1 and 0.0 <= rec.gender_accuracy <= 1.0,
                        f"round {i}: {method} reports MAE {rec.mae_mixed} accuracy {rec.gender_accuracy}")
        require(len(table) == len(self.lambda3_grid)
                and all(len(scores) == self.cv_folds for _, scores in table),
                f"round {i}: CV table has the wrong shape")
        means = {hp.lambda3: float(np.mean(scores)) for hp, scores in table}
        require(means[r.outputs["best"].lambda3] == min(means.values()),
                f"round {i}: CV picked lambda3={r.outputs['best'].lambda3} over a lower mean MAE")

        # properties the method shows on most datasets but not on all: counted
        # and reported, not gated
        axis = np.zeros(ds.dim)
        axis[1] = 1.0  # the generator's default aging direction
        gap = float(np.abs(np.asarray(tt.ladder_male.cuts) - tt.ladder_female.cuts).max())
        mae = {m: float(np.mean([rec.mae_mixed for rec in rep.records])) for m, rep in reports.items()}
        r.kept = {
            "tt": tt,
            "angle_ok": 88.0 <= angle_deg(tt.w_g, tt.w_a) <= 92.0,
            "gap_ok": gap >= 0.5 * 2.0 * abs(float(tt.w_a @ axis)),
            "order_ok": mae["tt"] < mae["direct"] and mae["tt"] < mae["pls"],
        }

    def finish(self, state, rounds):
        ds = state["datasets"][0]
        X, g, k = ds.features, ds.gender, ds.age_rank
        Y = np.column_stack([g.astype(float), k.astype(float)])
        checks.check_pls_is_ols(pls.fit_pls(X, Y, ds.dim).coefficients, X, Y)

        # each subproblem against a dense QP solved by scipy, on two instances
        # drawn from the run's data: 4 rows per cell stays at or below 96 hinge
        # terms, where smo.solve_hinge_dual starts from zero and can fall back
        # to tie enumeration; 10 rows per cell (100 and 160 terms) takes the
        # smoothed-Newton warm start and candidate selection that the timed
        # fits run.  The gap target is tighter than the default 1e-6, which
        # the warm start alone meets on these instances
        rng = np.random.default_rng(sub_seed(state["seed"], 2000))
        tt = rounds[0].kept["tt"]
        lam3 = HYPER.lambda3
        for per_cell in (4, 10):
            rows = np.sort(np.concatenate([
                rng.choice(np.flatnonzero((g == sex) & (k == rank)), per_cell, replace=False)
                for sex in (1, -1) for rank in range(1, ds.num_ranks + 1)]))
            small = ds.subset(rows)
            Xs, gs, ks = small.features, small.gender, small.age_rank
            w_a, w_g = np.asarray(tt.w_a), np.asarray(tt.w_g)
            sol = svm.solve_svm(small, HYPER.lambda1, anchor=tt.w_a, lambda3=lam3, tol=QP_GAP)
            checks.check_optimal(
                f"solve_svm vs QP, {small.n} rows", sol.objective,
                checks.svm_value(Xs, gs, HYPER.lambda1, w_a, lam3, np.asarray(sol.w), sol.b),
                checks.svm_qp(Xs, gs, HYPER.lambda1, w_a, lam3), QP_GAP)
            sol = svor.solve_svor(small, HYPER.lambda2, anchor=tt.w_g, lambda3=lam3,
                                  split_thresholds=True, tol=QP_GAP)
            checks.check_optimal(
                f"solve_svor vs QP, {small.n} rows", sol.objective,
                checks.svor_value(Xs, gs, ks, HYPER.lambda2, w_g, lam3, np.asarray(sol.w),
                                  np.asarray(sol.ladder_male.cuts), np.asarray(sol.ladder_female.cuts)),
                checks.svor_qp(Xs, gs, ks, ds.num_ranks, HYPER.lambda2, w_g, lam3), QP_GAP)

        held = {p: sum(r.kept[p] for r in rounds) for p in ("angle_ok", "gap_ok", "order_ok")}
        summary = {f"fit_{v}_s": ("s", statistics.median([r.times[f"fit_{v}_s"] for r in rounds]))
                   for v in VARIANTS}
        summary["experiment_s"] = ("s", statistics.median([r.times["experiment_s"] for r in rounds]))
        summary["cv_s"] = ("s", statistics.median([r.times["cv_s"] for r in rounds]))
        notes = [
            f"tt angle within 88..92 deg on {held['angle_ok']}/{len(rounds)} datasets",
            f"tt ladder gap >= half the planted shift on {held['gap_ok']}/{len(rounds)} datasets",
            f"tt mixed MAE below direct and pls on {held['order_ok']}/{len(rounds)} experiments",
        ]
        return summary, notes


class YearsCli:
    """Ages in years 20..59 through the CLI: K=59 ranks, 19 of them empty."""

    pool = 24            # two CSVs a round: 12 rounds before the inputs repeat
    first_year, last_year = 20, 59
    samples_per_cell = 4
    dim = 10

    def setup(self, seed, workdir):
        n_ages = self.last_year - self.first_year + 1
        cuts = tuple(np.linspace(-20.0, 20.0, n_ages - 1))
        data = []
        for i in range(self.pool):
            cfg = synth.SynthConfig(dim=self.dim, num_ranks=n_ages, samples_per_cell=self.samples_per_cell,
                                    male_cut_centers=cuts, discrepancy=1.0,
                                    seed=sub_seed(seed, 3000 + i))
            ds = synth.generate(cfg)
            years = ds.age_rank + self.first_year - 1
            path = os.path.join(workdir, f"years-{i}.csv")
            cli.export_csv(Dataset(ds.features, ds.gender, years), path)
            data.append((path, ds.features, ds.gender, years))
        return {"data": data, "workdir": workdir}

    def _inputs(self, state, i, variant):
        # tt and direct train on different datasets, so one hard dataset
        # does not slow a whole round
        return state["data"][(2 * i + (variant == "direct")) % self.pool]

    def run_round(self, state, i, r):
        wd = state["workdir"]
        for variant in ("tt", "direct"):
            r.call(f"years_fit_{variant}_s", _cli, ["fit", "--data", self._inputs(state, i, variant)[0],
                                                    "--variant", variant,
                                                    "--out", os.path.join(wd, f"model-{variant}.json")])
        for variant in ("tt", "direct"):
            r.call(f"years_predict_{variant}_s", _cli,
                   ["predict", "--model", os.path.join(wd, f"model-{variant}.json"),
                    "--data", self._inputs(state, i, variant)[0],
                    "--out", os.path.join(wd, f"pred-{variant}.csv")])

    def check_round(self, state, i, r):
        wd = state["workdir"]
        for variant in ("tt", "direct"):
            _, X, g, years = self._inputs(state, i, variant)
            with open(os.path.join(wd, f"model-{variant}.json"), encoding="utf-8") as handle:
                model = json.load(handle)
            require(len(model["ladder_male"]) == self.last_year - 1,
                    f"round {i}: {variant} ladder has {len(model['ladder_male'])} cuts, expected "
                    f"{self.last_year - 1} (ages up to 100 are ranks)")
            checks.check_fit(f"round {i} cli fit {variant}", model, X, g, years, HYPER)
            got = checks.read_prediction_csv(os.path.join(wd, f"pred-{variant}.csv"))
            checks.check_predictions(f"round {i} cli predict {variant}", *got, *checks.decide(model, X))

    def finish(self, state, rounds):
        summary = {f"years_fit_{v}_s": ("s", statistics.median([r.times[f"years_fit_{v}_s"] for r in rounds]))
                   for v in ("tt", "direct")}
        return summary, []


class Solvers:
    """Training at small and large K, where the SMO solver does the work.

    Each round runs the synthetic protocol's operations (K=5) and then the
    years CLI's (K=59) on their own inputs.  One workload rather than two
    lets each run measure longer within the same total time, which the
    host's drift of tens of seconds needs.
    """

    name = "solvers"
    parts = (SynthProtocol(), YearsCli())
    trace_rounds = 3
    setup_repeats = 16

    def setup(self, seed, workdir):
        return [part.setup(seed, workdir) for part in self.parts]

    def run_round(self, state, i):
        r = Round()
        for part, part_state in zip(self.parts, state):
            part.run_round(part_state, i, r)
        return r

    def check_round(self, state, i, r):
        for part, part_state in zip(self.parts, state):
            part.check_round(part_state, i, r)

    def finish(self, state, rounds):
        summary, notes = {}, []
        for part, part_state in zip(self.parts, state):
            more, more_notes = part.finish(part_state, rounds)
            summary.update(more)
            notes += more_notes
        return summary, notes


# ------------------------------------------------------------------ predict-bulk

class PredictBulk:
    """Deployment: batch, single-row and CLI prediction with models fitted in set-up."""

    name = "predict-bulk"
    batch_rows = 1_000_000
    single_rows = 20_000
    csv_rows = 100_000
    trace_rounds = 4
    setup_repeats = 3
    # the failing case uses fixed inputs: calendar years 1981..1985 to train,
    # only 1981 and 1985 to predict
    year_seed = 20160912
    years = (1981, 1982, 1983, 1984, 1985)
    predict_years = (1981, 1985)

    def setup(self, seed, workdir):
        base = synth.generate(synth.SynthConfig(discrepancy=2.0, seed=sub_seed(seed, 0)))
        tt = train.fit(base, TrainConfig(hyper=HYPER))
        pls_model = pls.fit_pls_dataset(base, evaluate.select_pls_components(base))
        per_cell = self.batch_rows // (2 * base.num_ranks)
        bulk = synth.generate(synth.SynthConfig(discrepancy=2.0, samples_per_cell=per_cell,
                                                seed=sub_seed(seed, 1)))
        order = np.random.default_rng(sub_seed(seed, 2)).permutation(bulk.n)
        X = bulk.features[order]
        csv_rows = np.sort(order[: self.csv_rows])
        csv_path = os.path.join(workdir, "bulk.csv")
        cli.export_csv(bulk.subset(csv_rows), csv_path)
        model_path = os.path.join(workdir, "model-tt.json")
        with open(model_path, "w", encoding="utf-8") as handle:
            json.dump(cli.model_to_dict(tt), handle)

        yds = synth.generate(synth.SynthConfig(discrepancy=2.0, samples_per_cell=20, seed=self.year_seed))
        year_of = np.asarray(self.years)[yds.age_rank - 1]
        year_train = os.path.join(workdir, "years-train.csv")
        cli.export_csv(Dataset(yds.features, yds.gender, year_of), year_train)
        year_model = os.path.join(workdir, "model-years.json")
        _cli(["fit", "--data", year_train, "--variant", "tt", "--out", year_model])
        keep = np.isin(year_of, self.predict_years)
        year_test = os.path.join(workdir, "years-test.csv")
        cli.export_csv(Dataset(yds.features[keep], yds.gender[keep], year_of[keep]), year_test)
        return {
            "tt": tt, "tt_dict": cli.model_to_dict(tt), "pls": pls_model, "X": X,
            "csv": csv_path, "csv_X": bulk.features[csv_rows], "model_path": model_path,
            "year_model": year_model, "year_test": year_test, "year_X": yds.features[keep],
            "workdir": workdir,
        }

    def run_round(self, state, i):
        X, wd = state["X"], state["workdir"]
        single = X[: self.single_rows]
        r = Round()
        r.outputs["batch"] = r.call("predict_batch_s", train.predict_batch, state["tt"], X)
        r.outputs["one"] = r.calls("predict_one_s", train.predict, single, state["tt"])
        r.outputs["pls_one"] = r.calls("pls_predict_one_s", pls.predict_pls, single, state["pls"])
        r.call("cli_predict_s", _cli, ["predict", "--model", state["model_path"], "--data", state["csv"],
                                       "--out", os.path.join(wd, "pred-bulk.csv")])
        # genage predict with a model fitted on calendar years; fails today
        year_out = os.path.join(wd, "pred-years.csv")
        try:
            code = r.call("year_map_predict_s", cli.main, ["predict", "--model", state["year_model"],
                                                          "--data", state["year_test"], "--out", year_out])
            failure = None if code == 0 else f"genage predict exited with {code}"
        except IndexError as exc:  # the fault: ranks index past the prediction file's year map
            failure = f"IndexError: {exc}"
        if failure is None:
            r.outputs["year_out"] = year_out
        else:
            r.failed += 1
            r.failures.append(f"year-map predict: {failure}")
        return r

    def check_round(self, state, i, r):
        model, X = state["tt_dict"], state["X"]
        checks.check_predictions(f"round {i} predict_batch", *r.outputs["batch"], *checks.decide(model, X))
        single = X[: self.single_rows]
        want = checks.decide(model, single)
        got = np.asarray(r.outputs["one"]).T
        checks.check_predictions(f"round {i} predict", got[0], got[1], *want)
        got = np.asarray(r.outputs["pls_one"]).T
        checks.check_predictions(f"round {i} predict_pls", got[0], got[1], *checks.decide_pls(state["pls"], single))
        got = checks.read_prediction_csv(os.path.join(state["workdir"], "pred-bulk.csv"))
        checks.check_predictions(f"round {i} cli predict", *got, *checks.decide(model, state["csv_X"]))
        if "year_out" in r.outputs:
            with open(state["year_model"], encoding="utf-8") as handle:
                year_model = json.load(handle)
            genders, ranks = checks.decide(year_model, state["year_X"])
            got_g, got_years = checks.read_prediction_csv(r.outputs["year_out"])
            checks.check_predictions(f"round {i} year-map predict", got_g, got_years,
                                     genders, np.asarray(self.years)[ranks - 1])

    def finish(self, state, rounds):
        batch = statistics.median([r.times["predict_batch_s"] for r in rounds])
        cli_s = statistics.median([r.times["cli_predict_s"] for r in rounds])
        one = np.concatenate([r.latencies["predict_one_s"] for r in rounds])
        pls_one = np.concatenate([r.latencies["pls_predict_one_s"] for r in rounds])
        summary = {
            "predict_rows_per_s": ("rows/s", self.batch_rows / batch),
            "predict_one_p50_us": ("us", float(np.median(one)) * 1e6),
            "pls_predict_one_p50_us": ("us", float(np.median(pls_one)) * 1e6),
            "cli_predict_rows_per_s": ("rows/s", self.csv_rows / cli_s),
        }
        return summary, []


WORKLOADS = {w.name: w for w in (Solvers(), PredictBulk())}

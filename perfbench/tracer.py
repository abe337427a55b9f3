"""Call tracing for the traced run: wraps the names each calling module bound.

``genage.train`` binds ``solve_svm`` at import time, so wrapping
``genage.svm.solve_svm`` alone would miss every call the trainer makes.
Each layer function is therefore wrapped at every module that binds it (and
where the benchmark itself calls it).  A wrapper records one span: calls,
inclusive time, and self time, which is the span minus the part covered by
the spans it directly encloses.  Work counts (solver steps, hinge terms,
rows) are read from the arguments and results at the same boundary.

Nothing is wrapped unless :meth:`Tracer.install` is called, and
:meth:`Tracer.remove` restores every original binding.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict

import genage.cli
import genage.core
import genage.evaluate
import genage.pls
import genage.svm
import genage.svor
import genage.synth
import genage.train


def _hinge_work(args, kwargs, result):
    prob = args[0] if args else kwargs["prob"]
    return (("smo.steps", result.steps), ("smo.terms", prob.z.shape[0]))


def _batch_rows(args, kwargs, result):
    X = args[1] if len(args) > 1 else kwargs["X"]
    return (("train.predict_batch.rows", len(X)),)


def _ingest_rows(args, kwargs, result):
    return (("cli.ingest_csv.rows", result.n),)


COUNTS = ("smo.steps", "smo.terms", "train.predict_batch.rows", "cli.ingest_csv.rows")


# span name -> (every (owner, attribute) binding to wrap, work counter or None)
TARGETS = {
    "smo.solve_hinge_dual": ([(genage.svm, "solve_hinge_dual"),
                              (genage.svor, "solve_hinge_dual")], _hinge_work),
    "svm.solve_svm": ([(genage.train, "solve_svm")], None),
    "svor.solve_svor": ([(genage.train, "solve_svor")], None),
    "train.fit": ([(genage.train, "fit"), (genage.evaluate, "fit"), (genage.cli, "fit")], None),
    "train.objective_value": ([(genage.train, "objective_value")], None),
    "train.predict_batch": ([(genage.train, "predict_batch"), (genage.evaluate, "predict_batch"),
                             (genage.cli, "predict_batch")], _batch_rows),
    "train.predict": ([(genage.train, "predict")], None),
    "pls.fit_pls": ([(genage.pls, "fit_pls")], None),
    "pls.predict_pls": ([(genage.pls, "predict_pls")], None),
    "pls.predict_pls_batch": ([(genage.pls, "predict_pls_batch"),
                               (genage.evaluate, "predict_pls_batch")], None),
    "evaluate.run_experiment": ([(genage.evaluate, "run_experiment"),
                                 (genage.cli, "run_experiment")], None),
    "evaluate.cross_validate": ([(genage.evaluate, "cross_validate"),
                                 (genage.cli, "cross_validate")], None),
    "evaluate.select_pls_components": ([(genage.evaluate, "select_pls_components")], None),
    "evaluate.stratified_folds": ([(genage.evaluate, "stratified_folds")], None),
    "core.Dataset.subset": ([(genage.core.Dataset, "subset")], None),
    "core.validate_dataset": ([(genage.core, "validate_dataset"), (genage.synth, "validate_dataset"),
                               (genage.cli, "validate_dataset")], None),
    "synth.generate": ([(genage.synth, "generate"), (genage.evaluate, "generate"),
                        (genage.cli, "generate")], None),
    "cli.ingest_csv": ([(genage.cli, "ingest_csv")], _ingest_rows),
    "cli.main": ([(genage.cli, "main")], None),
    "cli.export_csv": ([(genage.cli, "export_csv")], None),
}


class Tracer:
    """Span and work-count recorder; spans are aggregated per name in memory."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self._stack = []      # child time accumulated by each open span
        self._saved = []

    def _wrap(self, name, fn, work):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._stack.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span = time.perf_counter() - start
                children = self._stack.pop()
                if self._stack:
                    self._stack[-1] += span
                self.calls[name] += 1
                self.total_s[name] += span
                self.self_s[name] += span - children
            if work is not None:
                for key, value in work(args, kwargs, result):
                    self.counts[key] += int(value)
            return result

        return traced

    def install(self):
        for name, (bindings, work) in TARGETS.items():
            for owner, attr in bindings:
                original = getattr(owner, attr)
                self._saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(name, original, work))

    def remove(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def metrics(self):
        """Every per-layer figure by its BENCHMARK.json name; unexercised layers read 0."""
        out = {}
        for name in TARGETS:
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.s"] = self.total_s[name]
            out[f"{name}.self_s"] = self.self_s[name]
        out.update({key: self.counts[key] for key in COUNTS})
        fits = self.calls["train.fit"]
        out["train.rounds"] = self.calls["svm.solve_svm"] / fits if fits else 0.0
        return out

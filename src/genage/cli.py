"""Command-line entry point: generate / fit / predict / evaluate / cv.

File formats
------------
Dataset CSV: header ``f1,...,fd,gender,age``; gender in {M, F, +1, -1};
age an integer rank (values in 1..100 are used verbatim) or a raw year
(anything else is compacted to ranks 1..K with the rank -> year map carried
into reports and, by ``fit``, into the model file, through which ``predict``
turns ranks back into years).  UTF-8, comma separators, '.' decimals.

Cell grammar: each cell is stripped of surrounding whitespace; feature cells
are then whatever Python's ``float()`` accepts and age cells whatever
``int()`` accepts, and gender cells match the tokens above ignoring case.
Blank lines are skipped, and line ends may be LF, CRLF or CR.  The reader
streams the file in blocks of lines and parses each block a column at a
time; a malformed line raises ``ParseError`` naming the first bad line.
The writer formats a block of rows at a time.  On Linux, an input of more
than one block, on a host where this process may use more than one CPU, has
its blocks parsed or formatted by a process pool with a worker per block, up
to one per such CPU, and put back in order, so the bytes written, the arrays
read and the errors raised are those of the serial path.

Model JSON and report JSON are versioned with a ``schema_version`` field
and written with sorted keys, so identical invocations produce
byte-identical files.  All outputs are written to a temporary file first
and renamed into place, so a failing command never leaves a partial file.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import functools
import itertools
import json
import os
import sys
import tempfile

import numpy as np

from .core import (
    FEMALE,
    MALE,
    Dataset,
    GenAgeModel,
    HyperParams,
    ThresholdLadder,
    TrainConfig,
    Variant,
    _is_real,
    _year_map,
    validate_dataset,
)
from .errors import BadConfig, GenAgeError, ParseError
from .evaluate import cross_validate, hyper_grid, run_experiment
from .synth import SynthConfig, generate
from .train import fit, predict_batch

SCHEMA_VERSION = 1
_GENDER_TOKENS = {"M": MALE, "F": FEMALE, "+1": MALE, "1": MALE, "-1": FEMALE}
_MAX_LITERAL_RANK = 100  # age values above this are calendar years
_BLOCK_LINES = 4096  # CSV lines parsed or formatted at a time


# ------------------------------------------------------------------- file io

def _atomic_write(path, text):
    """Write ``text``, one string or an iterable of string chunks, then rename into place."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".genage-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.writelines((text,) if isinstance(text, str) else text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _usable_cpus():
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not on this platform
        return os.cpu_count() or 1


def _in_order(pool, window, fn, jobs):
    """``fn(*job)`` for each job, run in ``pool`` with at most ``window`` pending, in job order."""
    pending = collections.deque()
    for job in jobs:
        if len(pending) == window:
            yield pending.popleft().result()
        pending.append(pool.submit(fn, *job))
    while pending:
        yield pending.popleft().result()


@contextlib.contextmanager
def _block_runner(blocks):
    """A ``starmap`` for a job of at least ``blocks`` blocks: the built-in one
    for a single block or CPU or off Linux, else one over a pool with a
    worker per block, up to the usable CPUs.

    The pool keeps at most two blocks per worker in flight, and is shut down,
    its workers joined and its unstarted blocks dropped, when the ``with``
    block ends, however it ends.
    """
    # only Linux forks the workers, whose code is string and numpy built-ins
    # that take no lock another thread of this process could hold across the
    # fork.  Elsewhere they would be spawned: each re-imports numpy, this
    # package and the caller's main module, which re-runs an unguarded script.
    workers = min(_usable_cpus(), blocks) if sys.platform == "linux" else 1
    if workers < 2:
        yield itertools.starmap
        return
    # imported here: the modules hold about 1-2 MB that a serial call never needs
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"))
    try:
        yield functools.partial(_in_order, pool, 2 * workers)
    finally:
        pool.shutdown(wait=True, cancel_futures=True)


def _json_text(payload):
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _parse_row(line, number, dim):
    """One data line by the per-row rules: (features, gender, age), or ParseError."""
    cells = [c.strip() for c in line.rstrip("\n").split(",")]
    if len(cells) != dim + 2:
        raise ParseError(number, f"expected {dim + 2} columns, got {len(cells)}")
    try:
        features = [float(c) for c in cells[:dim]]
    except ValueError as exc:
        raise ParseError(number, f"bad feature value: {exc}") from None
    token = cells[dim].upper()
    if token not in _GENDER_TOKENS:
        raise ParseError(number, f"bad gender {cells[dim]!r}, expected M, F, +1 or -1")
    try:
        age = int(cells[dim + 1])
    except ValueError:
        raise ParseError(number, f"bad age {cells[dim + 1]!r}, expected an integer") from None
    return features, _GENDER_TOKENS[token], age


def _parse_block(lines, number, dim):
    """Parse a block of data lines, the first being line ``number``: (features, genders, ages).

    The cells are read a column at a time: the rows are joined and split
    once, and each column slice goes through ``float``, ``int`` or the gender
    table.  ``float`` and ``int`` skip the whitespace around a cell (and the
    line end the last cell keeps), as ``str.strip`` would.  If any check
    fails, the block is read again line by line by the per-row rules, so the
    error names the first bad line.
    """
    width = dim + 2
    rows = list(itertools.filterfalse(str.isspace, lines))
    # a count of cells per block would let a short row and a long row cancel
    if list(map(str.count, rows, itertools.repeat(","))).count(width - 1) == len(rows):
        cells = ",".join(rows).split(",")
        features = np.empty((len(rows), dim))
        try:
            for j in range(dim):
                features[:, j] = np.fromiter(map(float, cells[j::width]), float, len(rows))
            tokens = cells[dim::width]
            lookup = {t: _GENDER_TOKENS[t.strip().upper()] for t in set(tokens)}
            genders = list(map(lookup.__getitem__, tokens))
            return features, genders, list(map(int, cells[dim + 1::width]))
        except (ValueError, KeyError):
            pass
    parsed = [_parse_row(line, number + i, dim) for i, line in enumerate(lines) if not line.isspace()]
    features, genders, ages = zip(*parsed)
    return np.array(features, dtype=float), list(genders), list(ages)


def _blocks(handle, size, dim):
    """``_parse_block`` arguments for each block of ``size`` lines left in ``handle``."""
    number = 2
    while lines := list(itertools.islice(handle, size)):
        yield lines, number, dim
        number += len(lines)


def _read_csv(path):
    """Parse a dataset CSV: its features, gender labels and ages, one per data row."""
    with open(path, "r", encoding="utf-8") as handle:
        first = next(handle, "")
        if not first.strip():
            raise ParseError(1, "missing header row")
        header = [h.strip() for h in first.rstrip("\n").split(",")]
        dim = len(header) - 2
        expected = [f"f{i + 1}" for i in range(dim)] + ["gender", "age"]
        if dim < 1 or header != expected:
            raise ParseError(1, f"header must be f1..fd,gender,age; got {','.join(header)}")
        jobs = _blocks(handle, _BLOCK_LINES, dim)
        # as many blocks as the pool could take are read ahead and counted
        head = list(itertools.islice(jobs, _usable_cpus()))
        blocks, genders, ages = [], [], []
        with _block_runner(len(head)) as starmap:
            for features, block_genders, block_ages in starmap(
                _parse_block, itertools.chain(head, jobs)
            ):
                blocks.append(features)
                genders += block_genders
                ages += block_ages
    if not genders:
        raise ParseError(2, "no data rows")
    return np.concatenate(blocks), genders, np.asarray(ages)


def ingest_csv(path) -> Dataset:
    """Parse a dataset CSV and run the full validation pass."""
    features, genders, ages = _read_csv(path)
    unique = np.unique(ages)
    if unique[0] >= 1 and unique[-1] <= _MAX_LITERAL_RANK:
        # small positive integers are taken as ranks verbatim (sparse ranks
        # are fine); anything else is a raw year and gets compacted
        ranks, year_map = ages, None
    else:
        ranks = np.searchsorted(unique, ages) + 1
        year_map = unique
    return validate_dataset(Dataset._adopt(features, genders, ranks, rank_to_year=year_map))


def _age_column(ranks, year_map):
    """The age each rank is written as: the rank itself, or its year."""
    if year_map is None:
        return ranks
    return np.asarray(year_map)[ranks - 1]


def _format_block(features, genders, ages):
    """The CSV lines of a block of rows, each ending in a line feed."""
    columns = [map(repr, features[:, j].tolist()) for j in range(features.shape[1])]
    columns.append(np.where(genders == MALE, "M", "F").tolist())
    columns.append(map(str, ages.tolist()))
    return "\n".join(map(",".join, zip(*columns))) + "\n"


def export_csv(ds: Dataset, path):
    """Write a dataset in the ingest format; floats keep full precision."""
    header = ",".join([f"f{i + 1}" for i in range(ds.dim)] + ["gender", "age"])
    ages = _age_column(ds.age_rank, ds.rank_to_year)
    size = _BLOCK_LINES
    jobs = ((ds.features[s:s + size], ds.gender[s:s + size], ages[s:s + size])
            for s in range(0, ds.n, size))
    with _block_runner(-(-ds.n // size)) as starmap:
        _atomic_write(path, itertools.chain((header + "\n",), starmap(_format_block, jobs)))


def model_to_dict(model: GenAgeModel):
    return {
        "schema_version": SCHEMA_VERSION,
        "variant": model.variant.value,
        "w_g": [float(v) for v in model.w_g],
        "b_g": model.b_g,
        "w_a": [float(v) for v in model.w_a],
        "ladder_male": [float(v) for v in model.ladder_male.cuts],
        "ladder_female": [float(v) for v in model.ladder_female.cuts],
        "objective_trace": list(model.objective_trace),
    }


# the JSON types each model field type takes (a bool is no number here), and its name
_JSON_TYPES = {float: ((int, float), "a number"), str: ((str,), "a string"),
               tuple: ((list,), "a list of numbers")}


def _json_fields(payload, kinds):
    """The model fields named in ``kinds`` (name -> float, str or tuple) that
    ``payload`` holds, lists made tuples; a ``GenAgeError`` names the first of
    the wrong type."""
    if not isinstance(payload, dict):
        raise GenAgeError("model must be a JSON object")
    fields = {}
    for key in (k for k in kinds if k in payload):
        value, (types, name) = payload[key], _JSON_TYPES[kinds[key]]
        numbers = {float: (value,), tuple: value}.get(kinds[key], ())
        if type(value) not in types or not all(map(_is_real, numbers)):
            raise GenAgeError(f"model field {key!r} must be {name}, got {value!r}")
        fields[key] = tuple(value) if kinds[key] is tuple else value
    return fields


_MODEL_FIELDS = {"w_g": tuple, "b_g": float, "w_a": tuple, "ladder_male": tuple,
                 "ladder_female": tuple, "variant": str, "objective_trace": tuple}


def model_from_dict(payload) -> GenAgeModel:
    if isinstance(payload, dict) and payload.get("schema_version") != SCHEMA_VERSION:
        raise GenAgeError(f"unsupported model schema {payload.get('schema_version')!r}")
    fields = _json_fields(payload, _MODEL_FIELDS)
    missing = _MODEL_FIELDS.keys() - fields.keys() - {"objective_trace"}
    if missing:
        raise GenAgeError(f"model lacks the fields {sorted(missing)}")
    return GenAgeModel(
        w_g=fields["w_g"],
        b_g=fields["b_g"],
        w_a=fields["w_a"],
        ladder_male=ThresholdLadder(fields["ladder_male"]),
        ladder_female=ThresholdLadder(fields["ladder_female"]),
        variant=Variant.parse(fields["variant"]),
        objective_trace=fields.get("objective_trace", ()),
    )


def _load_synth_config(path):
    with open(path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    if not isinstance(payload, dict):
        raise BadConfig("synth config must be a JSON object")
    unknown = payload.keys() - SynthConfig.__dataclass_fields__.keys()
    if unknown:
        raise GenAgeError(f"unknown synth config keys: {sorted(unknown)}")
    # SynthConfig names a field of the wrong type or value
    return SynthConfig(**{key: tuple(v) if type(v) is list else v for key, v in payload.items()})


def _resolve_seed(args, default=0):
    if args.seed is not None:
        return args.seed
    env = os.environ.get("GENAGE_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise GenAgeError(f"GENAGE_SEED must be an integer, got {env!r}") from None
    return default


def _hyper_from_args(args, variant=None):
    return HyperParams(
        lambda1=args.lambda1,
        lambda2=args.lambda2,
        lambda3=args.lambda3,
        t_max=args.tmax,
        variant=variant or Variant.TT,
        tol=args.tol,
    )


# ------------------------------------------------------------------ commands

def _cmd_generate(args):
    cfg = _load_synth_config(args.config) if args.config else SynthConfig()
    export_csv(generate(cfg.replace(seed=_resolve_seed(args, default=cfg.seed))), args.out)
    return 0


def _cmd_fit(args):
    ds = ingest_csv(args.data)
    hyper = _hyper_from_args(args, Variant.parse(args.variant))
    if args.cv:
        # the coupling weight is the parameter worth searching hard; large
        # values are favoured by default
        grid = hyper_grid(
            lambda1s=(hyper.lambda1,),
            lambda2s=(hyper.lambda2,),
            lambda3s=(10.0, 100.0, 1000.0),
            t_max=hyper.t_max,
            tol=hyper.tol,
            variant=hyper.variant,
        )
        hyper, _ = cross_validate(ds, grid, folds=5)
    model = fit(ds, TrainConfig(hyper=hyper))
    payload = model_to_dict(model)
    if ds.rank_to_year is not None:
        # predicted ranks mean training years; the CSV given to predict may
        # hold other years, so its own map cannot translate them back
        payload["rank_to_year"] = list(ds.rank_to_year)
    _atomic_write(args.out, _json_text(payload))
    return 0


def _cmd_predict(args):
    with open(args.model, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    model = model_from_dict(payload)
    fields = _json_fields(payload, {"rank_to_year": tuple})
    year_map = fields.get("rank_to_year")
    if year_map is not None:
        year_map = _year_map(year_map, model.num_ranks, "model field 'rank_to_year'")
    # the ages are not read, so a file of one age needs no second rank
    features, _, _ = _read_csv(args.data)
    genders, ranks = predict_batch(model, features)
    # the 2K lines a row can be, female ranks first: row i is line
    # (gender is male) * K + rank - 1
    K = model.num_ranks
    lines = [f"{sex},{age}\n" for sex in "FM" for age in (year_map or range(1, K + 1))]
    index = np.where(genders == MALE, K - 1, -1) + ranks
    _atomic_write(args.out, ("gender,age\n", "".join(map(lines.__getitem__, index.tolist()))))
    return 0


def _cmd_evaluate(args):
    if bool(args.data) == bool(args.config):
        raise GenAgeError("evaluate needs exactly one of --data or --config")
    seed = _resolve_seed(args)
    data = ingest_csv(args.data) if args.data else _load_synth_config(args.config)
    methods = [m.strip().lower() for m in args.variants.split(",") if m.strip()]
    hyper = _hyper_from_args(args)
    reports = run_experiment(
        data,
        methods,
        train_per_rank=args.train_per_rank,
        runs=args.runs,
        hyper=hyper,
        seed=seed,
    )
    payload = {
        "schema_version": SCHEMA_VERSION,
        "protocol": {
            "runs": args.runs,
            "train_per_rank": args.train_per_rank,
            "seed": seed,
            "methods": methods,
            "hyper": {
                "lambda1": hyper.lambda1,
                "lambda2": hyper.lambda2,
                "lambda3": hyper.lambda3,
                "t_max": hyper.t_max,
                "tol": hyper.tol,
            },
        },
        "methods": {m: reports[m].to_dict() for m in methods},
    }
    if args.format == "json":
        _atomic_write(args.out, _json_text(payload))
    else:
        _atomic_write(args.out, _report_csv(reports, methods))
    if args.thresholds_csv:
        _atomic_write(args.thresholds_csv, _thresholds_csv(reports, methods))
    return 0


def _report_csv(reports, methods):
    rows = ["method,metric,mean,std"]
    for m in methods:
        payload = reports[m].to_dict()
        for metric in sorted(payload):
            value = payload[metric]
            if isinstance(value, dict) and "mean" in value:
                rows.append(f"{m},{metric},{value['mean']!r},{value['std']!r}")
    return "\n".join(rows) + "\n"


def _thresholds_csv(reports, methods):
    rows = ["method,run,gender,cut_index,value"]
    for m in methods:
        for rec in reports[m].records:
            for side in ("male", "female"):
                cuts = getattr(rec, f"cuts_{side}")
                if cuts is None:
                    continue
                for j, value in enumerate(cuts):
                    rows.append(f"{m},{rec.run},{side},{j + 1},{value!r}")
    return "\n".join(rows) + "\n"


def _cmd_cv(args):
    ds = ingest_csv(args.data)
    grid = hyper_grid(
        lambda1s=[float(v) for v in args.lambda1_grid.split(",")],
        lambda2s=[float(v) for v in args.lambda2_grid.split(",")],
        lambda3s=[float(v) for v in args.lambda3_grid.split(",")],
        t_max=args.tmax,
        tol=args.tol,
        variant=Variant.parse(args.variant),
    )
    best, table = cross_validate(ds, grid, folds=args.folds)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "folds": args.folds,
        "best": {
            "lambda1": best.lambda1,
            "lambda2": best.lambda2,
            "lambda3": best.lambda3,
        },
        "table": [
            {
                "lambda1": hp.lambda1,
                "lambda2": hp.lambda2,
                "lambda3": hp.lambda3,
                "fold_mae": scores,
                "mean_mae": float(np.mean(scores)),
            }
            for hp, scores in table
        ],
    }
    _atomic_write(args.out, _json_text(payload))
    return 0


# -------------------------------------------------------------------- parser

def _add_hyper_flags(parser):
    parser.add_argument("--lambda1", type=float, default=10.0)
    parser.add_argument("--lambda2", type=float, default=10.0)
    parser.add_argument("--lambda3", type=float, default=1000.0)
    parser.add_argument("--tmax", type=int, default=2)
    parser.add_argument("--tol", type=float, default=1e-6)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="genage",
        description="Joint gender classification and gender-specific ordinal age estimation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="draw a synthetic dataset and write it as CSV")
    p.add_argument("--config", help="synth config JSON (defaults apply when omitted)")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int)
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("fit", help="train one model and write it as JSON")
    p.add_argument("--data", required=True)
    p.add_argument("--variant", default="tt", choices=[v.value for v in Variant])
    p.add_argument("--cv", action="store_true",
                   help="pick the coupling weight by 5-fold cross-validation")
    p.add_argument("--out", required=True)
    _add_hyper_flags(p)
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("predict", help="apply a fitted model to a dataset CSV")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_predict)

    p = sub.add_parser("evaluate", help="repeated-split comparison of several methods")
    p.add_argument("--data")
    p.add_argument("--config", help="synth config JSON instead of a dataset CSV")
    p.add_argument("--variants", default="direct,2step,st,tt,pls")
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--train-per-rank", type=int, default=50, dest="train_per_rank")
    p.add_argument("--out", required=True)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--thresholds-csv", dest="thresholds_csv")
    p.add_argument("--seed", type=int)
    _add_hyper_flags(p)
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("cv", help="grid search hyperparameters by k-fold rank MAE")
    p.add_argument("--data", required=True)
    p.add_argument("--variant", default="tt", choices=[v.value for v in Variant])
    p.add_argument("--folds", type=int, default=5)
    p.add_argument("--lambda1-grid", default="10", dest="lambda1_grid")
    p.add_argument("--lambda2-grid", default="10", dest="lambda2_grid")
    p.add_argument("--lambda3-grid", default="10,100,1000", dest="lambda3_grid")
    p.add_argument("--tmax", type=int, default=2)
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_cv)
    return parser


@functools.cache
def _parser():
    """The parser, built once per process: parsing leaves it unchanged."""
    return build_parser()


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (GenAgeError, OSError, json.JSONDecodeError, ValueError) as exc:
        print(f"genage: error: {exc}", file=sys.stderr)
        return 1


def entry():
    raise SystemExit(main())


if __name__ == "__main__":
    entry()

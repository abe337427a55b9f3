"""The block-wise CSV reader and the writers against the row-at-a-time versions they replace.

``reference_ingest``, ``reference_export_text`` and ``reference_predict_text``
are the per-row implementations kept as references: datasets must compare
equal with bit-identical features, output files byte-identical, and every
``ParseError`` must carry the same line and message.
"""

import concurrent.futures
import errno
import json
import multiprocessing
import os
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from genage import Dataset, SynthConfig, generate
from genage import cli
from genage.cli import _GENDER_TOKENS, _MAX_LITERAL_RANK, export_csv, ingest_csv, main
from genage.core import MALE, validate_dataset
from genage.errors import GenAgeError, ParseError
from genage.train import predict_batch

BLOCK = cli._BLOCK_LINES


def reference_ingest(path):
    with open(path, "r", encoding="utf-8") as handle:
        lines = [line.rstrip("\n") for line in handle]
    if not lines or not lines[0].strip():
        raise ParseError(1, "missing header row")
    header = [h.strip() for h in lines[0].split(",")]
    dim = len(header) - 2
    expected = [f"f{i + 1}" for i in range(dim)] + ["gender", "age"]
    if dim < 1 or header != expected:
        raise ParseError(1, f"header must be f1..fd,gender,age; got {','.join(header)}")
    features, genders, ages = [], [], []
    for number, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        cells = [c.strip() for c in line.split(",")]
        if len(cells) != dim + 2:
            raise ParseError(number, f"expected {dim + 2} columns, got {len(cells)}")
        try:
            features.append([float(c) for c in cells[:dim]])
        except ValueError as exc:
            raise ParseError(number, f"bad feature value: {exc}") from None
        token = cells[dim].upper()
        if token not in _GENDER_TOKENS:
            raise ParseError(number, f"bad gender {cells[dim]!r}, expected M, F, +1 or -1")
        genders.append(_GENDER_TOKENS[token])
        try:
            age = int(cells[dim + 1])
        except ValueError:
            raise ParseError(number, f"bad age {cells[dim + 1]!r}, expected an integer") from None
        ages.append(age)
    if not features:
        raise ParseError(2, "no data rows")
    ages = np.asarray(ages)
    unique = np.unique(ages)
    if unique[0] >= 1 and unique[-1] <= _MAX_LITERAL_RANK:
        ranks, year_map = ages, None
    else:
        ranks = np.searchsorted(unique, ages) + 1
        year_map = tuple(int(v) for v in unique)
    return validate_dataset(
        Dataset(np.asarray(features), genders, ranks, rank_to_year=year_map)
    )


def reference_export_text(ds):
    header = ",".join([f"f{i + 1}" for i in range(ds.dim)] + ["gender", "age"])
    rows = [header]
    for i in range(ds.n):
        cells = [repr(float(v)) for v in ds.features[i]]
        cells.append("M" if ds.gender[i] == MALE else "F")
        age = ds.age_rank[i] if ds.rank_to_year is None else ds.rank_to_year[ds.age_rank[i] - 1]
        cells.append(str(int(age)))
        rows.append(",".join(cells))
    return "\n".join(rows) + "\n"


def reference_predict_text(genders, ranks, year_map):
    rows = ["gender,age"]
    for g, r in zip(genders, ranks):
        age = r if year_map is None else year_map[r - 1]
        rows.append(f"{'M' if g == MALE else 'F'},{int(age)}")
    return "\n".join(rows) + "\n"


def outcome(read, path):
    """``("ok", dataset)``, or ``("error", line, message)`` for a ``ParseError``,
    or ``("invalid", type, message)`` for a dataset the validation pass rejects."""
    try:
        return ("ok", read(path))
    except ParseError as exc:
        return ("error", exc.line, str(exc))
    except GenAgeError as exc:
        return ("invalid", type(exc).__name__, str(exc))


def assert_same_reading(path):
    got, want = outcome(ingest_csv, path), outcome(reference_ingest, path)
    if want[0] != "ok" or got[0] != "ok":
        assert got == want
        return
    assert got[1] == want[1]
    assert got[1].features.tobytes() == want[1].features.tobytes()
    return got[1]


def write_bytes(path, text):
    path.write_bytes(text.encode("utf-8"))
    return str(path)


# ------------------------------------------------------------------ reader

SPECIAL_FLOATS = [-0.0, 0.0, 5e-324, 2.2250738585072014e-308 / 3, 1e308, -1e308,
                  1.7976931348623157e308, 0.1 + 0.2]

floats = st.one_of(
    st.sampled_from(SPECIAL_FLOATS),
    st.floats(allow_nan=False, allow_infinity=False),
)
float_text = st.one_of(
    floats.map(repr),
    floats.map(lambda v: f"{v:.17g}"),
    st.floats(-1e300, 1e300).map(lambda v: f"{v:.3e}"),  # rounding up to inf is not the point
    st.integers(-10**6, 10**6).map(str),
)
spaces = st.sampled_from(["", " ", "  ", "\t"])
gender_text = st.sampled_from(["M", "F", "m", "f", "+1", "1", "-1"])
rank_ages = st.integers(1, _MAX_LITERAL_RANK)
year_ages = st.integers(1890, 2030)
blank_lines = st.sampled_from(["", " ", "\t ", "   "])
line_ends = st.sampled_from(["\n", "\r\n"])
# each corruption turns a good row into one the per-row rules reject
CORRUPTIONS = [
    lambda cells: cells + ["1"],                         # one column too many
    lambda cells: cells[:-1],                            # one column too few
    lambda cells: ["1.2.3"] + cells[1:],                 # bad feature
    lambda cells: cells[:-2] + ["X", cells[-1]],         # bad gender
    lambda cells: cells[:-1] + ["1.5"],                  # bad age
    lambda cells: cells[:-2] + [cells[-1], cells[-2]],   # gender and age swapped
]


@st.composite
def csv_files(draw):
    dim = draw(st.integers(1, 3))
    n = draw(st.integers(0, 30))
    ages = draw(st.sampled_from([rank_ages, year_ages, st.one_of(rank_ages, year_ages)]))
    rows = []
    for _ in range(n):
        cells = [draw(spaces) + draw(float_text) + draw(spaces) for _ in range(dim)]
        cells.append(draw(spaces) + draw(gender_text) + draw(spaces))
        cells.append(draw(spaces) + str(draw(ages)) + draw(spaces))
        rows.append(cells)
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2])) if rows else 0):
        i = draw(st.integers(0, len(rows) - 1))
        rows[i] = draw(st.sampled_from(CORRUPTIONS))(rows[i])
    lines = [",".join(cells) for cells in rows]
    for _ in range(draw(st.integers(0, 6))):
        lines.insert(draw(st.integers(0, len(lines))), draw(blank_lines))
    header = ",".join([f"f{i + 1}" for i in range(dim)] + ["gender", "age"])
    text = "".join(line + draw(line_ends) for line in [header] + lines)
    if draw(st.booleans()):
        text = text.rstrip("\r\n")  # no line end after the last line
    return text


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=csv_files(), block=st.integers(1, 7))
def test_reader_matches_the_row_parser(tmp_path, text, block):
    # small blocks put block edges among the drawn rows and blank lines
    path = write_bytes(tmp_path / "d.csv", text)
    with mock.patch.object(cli, "_BLOCK_LINES", block):
        assert_same_reading(path)


def test_reader_matches_the_row_parser_over_many_blocks(tmp_path):
    rng = np.random.default_rng(12)
    n = 3 * BLOCK + 17
    X = rng.standard_normal((n, 3)) * 10.0 ** rng.integers(-300, 300, size=(n, 3))
    lines = ["f1,f2,f3,gender,age"]
    for i, row in enumerate(X.tolist()):
        lines.append(",".join(map(repr, row)) + f", {'MF'[i % 2]} ,{1900 + i % 97}")
    # blank lines on both sides of every block edge of the file
    for edge in (3 * BLOCK, 2 * BLOCK, BLOCK):
        lines[edge - 1:edge + 1] = [lines[edge - 1], "", "  ", lines[edge]]
    path = write_bytes(tmp_path / "d.csv", "\r\n".join(lines) + "\r\n")
    ds = assert_same_reading(path)
    assert ds.n == n and len(ds.rank_to_year) == 97


def test_cancelling_column_counts_are_rejected(tmp_path):
    # one row too long and one too short hold the right number of cells between them
    path = write_bytes(tmp_path / "d.csv", "f1,gender,age\n1,1,1,1\n1,-1\n")
    with pytest.raises(ParseError) as err:
        ingest_csv(path)
    assert err.value.line == 2
    assert "expected 3 columns, got 4" in str(err.value)


GOOD = "0.5,-1.25,M,3"
BAD_ROWS = {
    "column count": "0.5,-1.25,M",
    "feature": "0.5,oops,M,3",
    "gender": "0.5,-1.25,X,3",
    "age": "0.5,-1.25,M,young",
}


@pytest.mark.parametrize("kind", sorted(BAD_ROWS))
@pytest.mark.parametrize("position", [1, 3 * BLOCK // 2])
def test_row_errors_match_the_row_parser(tmp_path, kind, position):
    lines = ["f1,f2,gender,age"] + [GOOD] * (2 * BLOCK)
    lines[position] = BAD_ROWS[kind]
    lines[position + 5] = BAD_ROWS["feature"]  # a later error must not be the one reported
    path = write_bytes(tmp_path / "d.csv", "\n".join(lines) + "\n")
    got = outcome(ingest_csv, path)
    assert got == outcome(reference_ingest, path)
    assert got[1] == position + 1


@pytest.mark.parametrize("text", [
    "",
    "\n0.5,M,1\n",
    "f1,f2,gender\n0.5,M,1\n",
    "x1,gender,age\n0.5,M,1\n",
    "f1,gender,age\n",
    "f1,gender,age\n" + "\n  \n" * BLOCK,
])
def test_file_errors_match_the_row_parser(tmp_path, text):
    path = write_bytes(tmp_path / "d.csv", text)
    got = outcome(ingest_csv, path)
    assert got[0] == "error"
    assert got == outcome(reference_ingest, path)


# ------------------------------------------------------------------ writers

def dataset_cases():
    ds = generate(SynthConfig(samples_per_cell=6, dim=4, seed=1))
    big = generate(SynthConfig(samples_per_cell=BLOCK // 4, dim=3, seed=2))
    years = Dataset(ds.features, ds.gender, ds.age_rank,
                    rank_to_year=(1961, 1975, 1990, 2004, 2011))
    tiny = ds.subset(np.arange(10))
    signed = Dataset([[-0.0, 5e-324], [1e308, -1.7976931348623157e308]], [1, -1], [2, 1])
    return {"synth": ds, "over a block": big, "years": years, "ten rows": tiny, "extremes": signed}


@pytest.mark.parametrize("name", sorted(dataset_cases()))
def test_export_matches_the_row_writer(tmp_path, name):
    ds = dataset_cases()[name]
    path = tmp_path / "out.csv"
    export_csv(ds, str(path))
    assert path.read_bytes() == reference_export_text(ds).encode("utf-8")
    again = ingest_csv(str(path))
    assert again.features.tobytes() == ds.features.tobytes()
    export_csv(again, str(tmp_path / "again.csv"))
    assert (tmp_path / "again.csv").read_bytes() == reference_export_text(again).encode("utf-8")


def test_predict_output_matches_the_row_writer(tmp_path):
    data = tmp_path / "data.csv"
    big = generate(SynthConfig(samples_per_cell=BLOCK // 8, dim=4, seed=3, discrepancy=2.0))
    export_csv(big, str(data))
    train = generate(SynthConfig(samples_per_cell=8, dim=4, seed=4, discrepancy=2.0))
    train_path = tmp_path / "train.csv"
    export_csv(train, str(train_path))
    model_path = tmp_path / "model.json"
    assert main(["fit", "--data", str(train_path), "--tmax", "1", "--out", str(model_path)]) == 0
    payload = json.loads(model_path.read_text())
    for year_map in (None, [1950, 1962, 1979, 1991, 2008]):
        if year_map is not None:
            payload["rank_to_year"] = year_map
            model_path.write_text(json.dumps(payload), encoding="utf-8")
        out = tmp_path / "pred.csv"
        assert main(["predict", "--model", str(model_path), "--data", str(data),
                     "--out", str(out)]) == 0
        genders, ranks = predict_batch(cli.model_from_dict(payload), big.features)
        assert out.read_bytes() == reference_predict_text(genders, ranks, year_map).encode("utf-8")


# ------------------------------------------------------------------ the pool

@pytest.fixture
def pools(monkeypatch):
    """Claim three usable CPUs, so inputs of more than one block go to a pool
    even on a one-CPU host, and record the worker count of each pool made."""
    if sys.platform != "linux":
        pytest.skip("the CSV pool runs on Linux only")
    made = []

    class Recording(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, workers, **kwargs):
            made.append(workers)
            super().__init__(workers, **kwargs)

    monkeypatch.setattr(cli, "_usable_cpus", lambda: 3)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recording)
    return made


def assert_no_worker_or_file_left(directory, *kept):
    assert multiprocessing.active_children() == []
    assert sorted(p.name for p in directory.iterdir()) == sorted(kept)


def block_dataset(n, years):
    rng = np.random.default_rng(n)
    X = rng.standard_normal((n, 3)) * 10.0 ** rng.integers(-300, 300, size=(n, 3))
    X[:, 0] = -X[:, 0]
    ranks = np.arange(n) % 5 + 1
    return Dataset(X, np.where(np.arange(n) % 3 == 0, 1, -1), ranks, num_ranks=5,
                   rank_to_year=(1961, 1975, 1990, 2004, 2011) if years else None)


@pytest.mark.parametrize("years", [False, True], ids=["ranks", "years"])
@pytest.mark.parametrize("n", [1, BLOCK, BLOCK + 1, 3 * BLOCK + 17])
def test_pooled_export_matches_the_row_writer(tmp_path, pools, n, years):
    ds = block_dataset(n, years)
    path = tmp_path / "out.csv"
    export_csv(ds, str(path))
    assert path.read_bytes() == reference_export_text(ds).encode("utf-8")
    assert pools == ([min(3, -(-n // BLOCK))] if n > BLOCK else [])
    assert_no_worker_or_file_left(tmp_path, "out.csv")


def padded_lines(pad, n):
    return "\n".join(["f1,f2,gender,age"] + [pad + GOOD.replace(",", f"{pad},{pad}") + pad] * n) + "\n"


# files of two blocks whose size in bytes overstates their block count: cells
# padded with multibyte whitespace, which stripping removes, and a second
# block of lines longer than the first block's
TWO_BLOCK_FILES = {
    "U+00A0 padding": padded_lines("\u00a0" * 4, 5000),
    "U+3000 padding": padded_lines("\u3000" * 8, 5096),
    "longer later lines": padded_lines("", BLOCK) + padded_lines(" " * 60, 904).split("\n", 1)[1],
}


def test_pool_has_no_more_workers_than_blocks(tmp_path, pools, monkeypatch):
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 8)
    ds = block_dataset(BLOCK + 1, years=False)
    export_csv(ds, str(tmp_path / "d.csv"))
    assert assert_same_reading(str(tmp_path / "d.csv")) == ds
    assert pools == [2, 2]
    for name, text in TWO_BLOCK_FILES.items():
        assert assert_same_reading(write_bytes(tmp_path / "d.csv", text)).n == len(text.splitlines()) - 1
        assert pools[-1] == 2, name
    assert_no_worker_or_file_left(tmp_path, "d.csv")


def bad_block_text(kind, position):
    lines = ["f1,f2,gender,age"] + [GOOD] * (3 * BLOCK + 17)
    lines[position] = BAD_ROWS[kind]
    lines[position + 5] = BAD_ROWS["feature"]  # a later error must not be the one reported
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("kind", sorted(BAD_ROWS))
@pytest.mark.parametrize("position", [BLOCK + 1, 2 * BLOCK + 9])
def test_pooled_reader_names_the_first_bad_line_of_a_later_block(tmp_path, pools, kind, position):
    path = write_bytes(tmp_path / "d.csv", bad_block_text(kind, position))
    got = outcome(ingest_csv, path)
    assert got == outcome(reference_ingest, path)
    assert got[1] == position + 1
    assert pools == [3]
    assert_no_worker_or_file_left(tmp_path, "d.csv")


def test_pooled_reader_matches_the_row_parser(tmp_path, pools):
    export_csv(block_dataset(3 * BLOCK + 17, years=True), str(tmp_path / "d.csv"))
    assert pools == [3]
    ds = assert_same_reading(str(tmp_path / "d.csv"))
    assert ds.n == 3 * BLOCK + 17 and pools == [3, 3]
    assert_no_worker_or_file_left(tmp_path, "d.csv")


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=csv_files(), block=st.integers(1, 7))
def test_pooled_small_blocks_match_the_row_parser(tmp_path, pools, text, block):
    path = write_bytes(tmp_path / "d.csv", text)
    with mock.patch.object(cli, "_BLOCK_LINES", block):
        assert_same_reading(path)
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("platform", ["darwin", "win32"])
def test_other_platforms_read_and_write_serially(tmp_path, monkeypatch, platform):
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 3)
    monkeypatch.setattr(sys, "platform", platform)
    with mock.patch("concurrent.futures.ProcessPoolExecutor") as pool:
        ds = block_dataset(3 * BLOCK + 17, years=False)
        path = tmp_path / "d.csv"
        export_csv(ds, str(path))
        assert path.read_bytes() == reference_export_text(ds).encode("utf-8")
        assert assert_same_reading(str(path)) == ds
    pool.assert_not_called()


def failing_format(features, genders, ages, format_block=cli._format_block):
    if len(features) < BLOCK:  # the last block
        raise RuntimeError("format failed")
    return format_block(features, genders, ages)


def test_failed_pooled_export_leaves_no_worker_and_no_file(tmp_path, pools, monkeypatch):
    ds = block_dataset(3 * BLOCK + 17, years=False)
    target = tmp_path / "out.csv"
    with mock.patch.object(cli, "_format_block", failing_format):
        with pytest.raises(RuntimeError, match="format failed"):
            export_csv(ds, str(target))
    assert_no_worker_or_file_left(tmp_path)

    real_fdopen = os.fdopen

    class FullDisk:
        """A file whose disk fills after two chunks."""

        def __init__(self, handle):
            self.handle = handle

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.handle.close()

        def writelines(self, chunks):
            for i, chunk in enumerate(chunks):
                if i == 2:
                    raise OSError(errno.ENOSPC, "No space left on device")
                self.handle.write(chunk)

    monkeypatch.setattr(os, "fdopen", lambda *args, **kwargs: FullDisk(real_fdopen(*args, **kwargs)))
    with pytest.raises(OSError, match="No space left"):
        export_csv(ds, str(target))
    assert pools == [3, 3]
    assert_no_worker_or_file_left(tmp_path)

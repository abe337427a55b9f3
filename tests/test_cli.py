import json
import os

import numpy as np
import pytest

from genage import SynthConfig, generate
from genage.cli import export_csv, ingest_csv, main, model_from_dict
from genage.errors import ParseError
from genage.train import predict_batch


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_ingest_basic_row(tmp_path):
    path = write(tmp_path / "d.csv", "f1,f2,gender,age\n0.5,-1.2,M,3\n")
    ds = ingest_csv(path)
    assert ds.n == 1 and ds.dim == 2
    assert ds.gender[0] == 1 and ds.age_rank[0] == 3
    assert ds.features[0] == pytest.approx([0.5, -1.2])


def test_ingest_accepts_signed_numeric_gender(tmp_path):
    path = write(tmp_path / "d.csv", "f1,gender,age\n1.0,+1,1\n2.0,-1,2\n")
    ds = ingest_csv(path)
    assert list(ds.gender) == [1, -1]


def test_ingest_bad_gender_names_line(tmp_path):
    path = write(tmp_path / "d.csv", "f1,gender,age\n1.0,M,1\n2.0,X,2\n")
    with pytest.raises(ParseError) as err:
        ingest_csv(path)
    assert err.value.line == 3


def test_ingest_bad_header(tmp_path):
    path = write(tmp_path / "d.csv", "x1,x2,gender,age\n1,2,M,1\n")
    with pytest.raises(ParseError) as err:
        ingest_csv(path)
    assert err.value.line == 1


def test_ingest_bad_feature_and_age(tmp_path):
    path = write(tmp_path / "d.csv", "f1,gender,age\noops,M,1\n")
    with pytest.raises(ParseError):
        ingest_csv(path)
    path = write(tmp_path / "d2.csv", "f1,gender,age\n1.0,M,young\n")
    with pytest.raises(ParseError):
        ingest_csv(path)


def test_round_trip_is_lossless(tmp_path):
    ds = generate(SynthConfig(samples_per_cell=6, dim=4, seed=1))
    path = tmp_path / "round.csv"
    export_csv(ds, str(path))
    again = ingest_csv(str(path))
    assert again == ds


def test_raw_years_are_compacted_with_a_map(tmp_path):
    rows = ["f1,gender,age"]
    for year, gender in ((1995, "M"), (2002, "F"), (1995, "F"), (2010, "M")):
        rows.append(f"0.0,{gender},{year}")
    path = write(tmp_path / "years.csv", "\n".join(rows) + "\n")
    ds = ingest_csv(path)
    assert ds.rank_to_year == (1995, 2002, 2010)
    assert list(ds.age_rank) == [1, 2, 1, 3]
    out = tmp_path / "back.csv"
    export_csv(ds, str(out))
    assert ingest_csv(str(out)) == ds


def test_small_integer_ages_are_ranks_even_with_holes(tmp_path):
    path = write(tmp_path / "d.csv", "f1,gender,age\n0,M,1\n0,F,2\n0,M,4\n0,F,5\n")
    ds = ingest_csv(path)
    assert ds.num_ranks == 5
    assert ds.rank_to_year is None
    assert list(ds.age_rank) == [1, 2, 4, 5]


# ------------------------------------------------------------------ commands

def synth_json(tmp_path, **overrides):
    payload = {"samples_per_cell": 8, "dim": 5, "seed": 5}
    payload.update(overrides)
    path = tmp_path / "synth.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def test_generate_then_fit_then_predict(tmp_path):
    data = tmp_path / "data.csv"
    assert main(["generate", "--config", synth_json(tmp_path), "--out", str(data)]) == 0
    model_path = tmp_path / "model.json"
    code = main([
        "fit", "--data", str(data), "--variant", "tt", "--lambda3", "1000",
        "--out", str(model_path),
    ])
    assert code == 0
    payload = json.loads(model_path.read_text())
    assert payload["schema_version"] == 1
    assert payload["variant"] == "tt"
    trace = payload["objective_trace"]
    assert len(trace) >= 3 and all(b <= a + 1e-9 for a, b in zip(trace, trace[1:]))
    model = model_from_dict(payload)
    assert model.dim == 5

    pred_path = tmp_path / "pred.csv"
    assert main(["predict", "--model", str(model_path), "--data", str(data),
                 "--out", str(pred_path)]) == 0
    lines = pred_path.read_text().strip().splitlines()
    assert lines[0] == "gender,age"
    assert len(lines) == 1 + 8 * 5 * 2


def years_csv(path, years, rng):
    """Two genders apart on f1, age along f2, ten rows per (year, gender)."""
    rows = ["f1,f2,gender,age"]
    for year in years:
        for gender, offset in (("M", 1.5), ("F", -1.5)):
            for _ in range(10):
                rows.append(f"{offset + rng.normal() * 0.2},{year - 1983 + rng.normal() * 0.2},"
                            f"{gender},{year}")
    return write(path, "\n".join(rows) + "\n")


def test_predict_maps_ranks_through_the_training_years(tmp_path):
    rng = np.random.default_rng(4)
    train = years_csv(tmp_path / "train.csv", (1981, 1982, 1983, 1984, 1985), rng)
    test = years_csv(tmp_path / "test.csv", (1981, 1985), rng)
    model_path = tmp_path / "model.json"
    assert main(["fit", "--data", train, "--lambda3", "100", "--out", str(model_path)]) == 0
    payload = json.loads(model_path.read_text())
    assert payload["rank_to_year"] == [1981, 1982, 1983, 1984, 1985]
    pred_path = tmp_path / "pred.csv"
    assert main(["predict", "--model", str(model_path), "--data", test,
                 "--out", str(pred_path)]) == 0
    _, *rows = pred_path.read_text().strip().splitlines()
    genders, ranks = predict_batch(model_from_dict(payload), ingest_csv(test).features)
    assert rows == [f"{'M' if g == 1 else 'F'},{1980 + r}" for g, r in zip(genders, ranks)]
    assert {row.split(",")[1] for row in rows} >= {"1981", "1985"}

    payload["rank_to_year"] = payload["rank_to_year"][:3]
    model_path.write_text(json.dumps(payload), encoding="utf-8")
    assert main(["predict", "--model", str(model_path), "--data", test,
                 "--out", str(tmp_path / "bad.csv")]) == 1
    assert not (tmp_path / "bad.csv").exists()


def test_rank_labelled_model_carries_no_year_map(tmp_path):
    data = tmp_path / "data.csv"
    assert main(["generate", "--config", synth_json(tmp_path), "--out", str(data)]) == 0
    model_path = tmp_path / "model.json"
    assert main(["fit", "--data", str(data), "--out", str(model_path)]) == 0
    assert "rank_to_year" not in json.loads(model_path.read_text())


def test_evaluate_emits_all_methods(tmp_path):
    report = tmp_path / "report.json"
    thresholds = tmp_path / "cuts.csv"
    code = main([
        "evaluate", "--config", synth_json(tmp_path, samples_per_cell=10),
        "--variants", "direct,2step,st,tt,pls", "--runs", "2",
        "--train-per-rank", "10", "--seed", "0",
        "--out", str(report), "--thresholds-csv", str(thresholds),
    ])
    assert code == 0
    payload = json.loads(report.read_text())
    assert sorted(payload["methods"]) == ["2step", "direct", "pls", "st", "tt"]
    for method in ("direct", "2step", "st", "tt", "pls"):
        entry = payload["methods"][method]
        assert "mean" in entry["mae_mixed"] and "std" in entry["mae_mixed"]
    header, *rows = thresholds.read_text().strip().splitlines()
    assert header == "method,run,gender,cut_index,value"
    assert any(row.startswith("tt,0,male,1,") for row in rows)


def test_evaluate_is_byte_deterministic(tmp_path):
    args = [
        "evaluate", "--config", synth_json(tmp_path), "--variants", "direct,tt",
        "--runs", "2", "--train-per-rank", "8", "--seed", "9",
    ]
    out_a = tmp_path / "a.json"
    out_b = tmp_path / "b.json"
    assert main(args + ["--out", str(out_a)]) == 0
    assert main(args + ["--out", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()


def test_fit_with_cv_flag_searches_the_coupling_weight(tmp_path):
    data = tmp_path / "data.csv"
    assert main(["generate", "--config", synth_json(tmp_path, samples_per_cell=10,
                                                    dim=4, discrepancy=2.0),
                 "--out", str(data)]) == 0
    out = tmp_path / "model.json"
    code = main(["fit", "--data", str(data), "--cv", "--tmax", "1", "--out", str(out)])
    assert code == 0
    assert json.loads(out.read_text())["variant"] == "tt"


def test_evaluate_on_year_labelled_csv_reports_year_mae(tmp_path):
    rng = np.random.default_rng(3)
    rows = ["f1,f2,gender,age"]
    for year, center in ((1980, -2.0), (1995, 0.0), (2010, 2.0)):
        for gender, offset in (("M", 1.5), ("F", -1.5)):
            for _ in range(6):
                rows.append(
                    f"{offset + rng.normal() * 0.2},{center + rng.normal() * 0.2},{gender},{year}"
                )
    data = write(tmp_path / "years.csv", "\n".join(rows) + "\n")
    out = tmp_path / "report.json"
    code = main([
        "evaluate", "--data", data, "--variants", "tt", "--runs", "2",
        "--train-per-rank", "6", "--seed", "1", "--lambda3", "100",
        "--out", str(out),
    ])
    assert code == 0
    payload = json.loads(out.read_text())
    entry = payload["methods"]["tt"]
    assert "mae_mixed_years" in entry
    assert entry["mae_mixed_years"]["mean"] >= entry["mae_mixed"]["mean"]


def test_cv_command_reports_grid(tmp_path):
    data = tmp_path / "data.csv"
    assert main(["generate", "--config", synth_json(tmp_path, samples_per_cell=10,
                                                    discrepancy=2.0),
                 "--out", str(data)]) == 0
    out = tmp_path / "cv.json"
    code = main([
        "cv", "--data", str(data), "--variant", "tt", "--folds", "3",
        "--lambda3-grid", "10,1000", "--tmax", "1", "--out", str(out),
    ])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["best"]["lambda3"] in (10.0, 1000.0)
    assert len(payload["table"]) == 2
    assert all(len(row["fold_mae"]) == 3 for row in payload["table"])


def test_seed_env_fallback(tmp_path, monkeypatch):
    data_a = tmp_path / "a.csv"
    data_b = tmp_path / "b.csv"
    monkeypatch.setenv("GENAGE_SEED", "123")
    assert main(["generate", "--out", str(data_a)]) == 0
    assert main(["generate", "--out", str(data_b)]) == 0
    assert data_a.read_bytes() == data_b.read_bytes()
    monkeypatch.setenv("GENAGE_SEED", "not-a-number")
    assert main(["generate", "--out", str(tmp_path / "c.csv")]) == 1


def test_errors_exit_nonzero_without_partial_output(tmp_path, capsys):
    out = tmp_path / "never.json"
    code = main(["fit", "--data", str(tmp_path / "missing.csv"), "--out", str(out)])
    assert code == 1
    assert not out.exists()
    assert "error" in capsys.readouterr().err


def test_evaluate_requires_exactly_one_source(tmp_path):
    code = main(["evaluate", "--variants", "tt", "--out", str(tmp_path / "r.json")])
    assert code == 1


def test_bad_synth_config_key_is_reported(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"not_a_field": 1}), encoding="utf-8")
    code = main(["generate", "--config", str(bad), "--out", str(tmp_path / "x.csv")])
    assert code == 1
    assert not (tmp_path / "x.csv").exists()

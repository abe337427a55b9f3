import json
import os

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from genage import GenAgeModel, SynthConfig, ThresholdLadder, Variant, generate, run_experiment
from genage.cli import _atomic_write, _load_synth_config, export_csv, ingest_csv, main, model_from_dict, model_to_dict
from genage.errors import BadConfig, ParseError
from genage.train import predict_batch


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


def strict_json(text):
    """Parse JSON, failing on the NaN and infinities that strict JSON lacks."""
    def reject(constant):
        raise ValueError(f"not strict JSON: {constant}")
    return json.loads(text, parse_constant=reject)


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


@pytest.mark.parametrize("age", ["1", "1981", "2000"])
def test_predict_reads_no_ages_so_one_age_is_enough(tmp_path, capsys, age):
    """A file of one age has a single rank, which predict never reads: each
    row gets the line it gets in a file of mixed ages, while fit refuses."""
    rng = np.random.default_rng(4)
    train = years_csv(tmp_path / "train.csv", (1981, 1982, 1983, 1984, 1985), rng)
    mixed = years_csv(tmp_path / "mixed.csv", (1981, 1985), rng)
    model_path = str(tmp_path / "model.json")
    assert main(["fit", "--data", train, "--out", model_path]) == 0
    header, *rows = (tmp_path / "mixed.csv").read_text(encoding="utf-8").splitlines()
    single = write(tmp_path / "single.csv",
                   "\n".join([header] + [row.rsplit(",", 1)[0] + "," + age for row in rows]) + "\n")
    outputs = []
    for data in (mixed, single):
        out = tmp_path / f"pred-{len(outputs)}.csv"
        assert main(["predict", "--model", model_path, "--data", data, "--out", str(out)]) == 0
        outputs.append(out.read_text(encoding="utf-8"))
    assert outputs[0] == outputs[1] and outputs[0].count("\n") == 1 + len(rows)
    capsys.readouterr()
    assert main(["fit", "--data", single, "--out", str(tmp_path / "m.json")]) == 1
    assert capsys.readouterr().err.startswith("genage: error: ")
    assert not (tmp_path / "m.json").exists()


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


def test_evaluate_csv_has_one_mean_std_row_per_method_and_metric(tmp_path):
    args = [
        "evaluate", "--config", synth_json(tmp_path), "--variants", "2step,tt,pls",
        "--runs", "2", "--train-per-rank", "8", "--seed", "3",
    ]
    report = tmp_path / "report.json"
    csv_a = tmp_path / "a.csv"
    csv_b = tmp_path / "b.csv"
    assert main(args + ["--out", str(report)]) == 0
    assert main(args + ["--format", "csv", "--out", str(csv_a)]) == 0
    assert main(args + ["--format", "csv", "--out", str(csv_b)]) == 0
    assert csv_a.read_bytes() == csv_b.read_bytes()

    header, *rows = csv_a.read_text().splitlines()
    assert header == "method,metric,mean,std"
    payload = json.loads(report.read_text())["methods"]
    expected = [
        (method, metric, value["mean"], value["std"])
        for method in ("2step", "tt", "pls")
        for metric, value in sorted(payload[method].items())
        if isinstance(value, dict) and "mean" in value
    ]
    parsed = [(m, metric, float(mean), float(std))
              for m, metric, mean, std in (row.split(",") for row in rows)]
    assert parsed == expected
    assert ("tt", "mae_mixed") in {(m, metric) for m, metric, *_ in parsed}


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
    # the seed is --seed, then GENAGE_SEED, then the config's (or the default)
    config = tmp_path / "synth.json"
    config.write_text(json.dumps({"samples_per_cell": 3, "seed": 5}), encoding="utf-8")

    def generate_bytes(*flags):
        out = tmp_path / "out.csv"
        assert main(["generate", *flags, "--out", str(out)]) == 0, flags
        return out.read_bytes()

    for extra in ([], ["--config", str(config)]):
        monkeypatch.delenv("GENAGE_SEED", raising=False)
        unset = generate_bytes(*extra)
        flag = generate_bytes(*extra, "--seed", "123")
        monkeypatch.setenv("GENAGE_SEED", "123")
        env = generate_bytes(*extra)
        assert env == generate_bytes(*extra), extra
        assert env == flag, extra
        assert env != unset, extra
        assert generate_bytes(*extra, "--seed", "7") != env, extra
        monkeypatch.setenv("GENAGE_SEED", "not-a-number")
        assert main(["generate", *extra, "--out", str(tmp_path / "c.csv")]) == 1, extra


def test_errors_exit_nonzero_without_partial_output(tmp_path, capsys):
    out = tmp_path / "never.json"
    code = main(["fit", "--data", str(tmp_path / "missing.csv"), "--out", str(out)])
    assert code == 1
    assert not out.exists()
    assert "error" in capsys.readouterr().err


def test_evaluate_requires_exactly_one_source(tmp_path):
    code = main(["evaluate", "--variants", "tt", "--out", str(tmp_path / "r.json")])
    assert code == 1


def test_bad_synth_config_key_is_reported(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    for key, value in (("not_a_field", 1), ("gender_direction", [1.0, 0.0]),
                       ("aging_direction", [0.0, 1.0]), ("female_cut_centers", [0.0])):
        bad.write_text(json.dumps({key: value}), encoding="utf-8")
        code = main(["generate", "--config", str(bad), "--out", str(tmp_path / "x.csv")])
        assert code == 1
        assert "unknown synth config keys" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()


def test_listed_cut_centers_generate_the_same_bytes(tmp_path, monkeypatch):
    monkeypatch.delenv("GENAGE_SEED", raising=False)
    cuts = (-2.0, 0.0, 1.0, 2.5)
    out = tmp_path / "listed.csv"
    config = synth_json(tmp_path, samples_per_cell=3, male_cut_centers=list(cuts))
    assert main(["generate", "--config", config, "--out", str(out)]) == 0
    export_csv(generate(SynthConfig(samples_per_cell=3, dim=5, seed=5, male_cut_centers=cuts)),
               str(tmp_path / "tuple.csv"))
    assert out.read_bytes() == (tmp_path / "tuple.csv").read_bytes()


def test_evaluate_rejects_an_unknown_method(tmp_path, capsys):
    out = tmp_path / "r.json"
    # a method listed twice would be fitted and counted twice
    for variants, named in (("tt,foo", "'foo'"), ("direct,tt,direct", "'direct' is listed more than once"),
                            (",", "no method given")):
        code = main(["evaluate", "--config", synth_json(tmp_path), "--variants", variants,
                     "--runs", "1", "--train-per-rank", "8", "--out", str(out)])
        assert code == 1
        assert named in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("name, value", [("runs", 0), ("runs", -1), ("train_per_rank", 0), ("train_per_rank", -5)],
                         ids=["0", "-1", "train_per_rank=0", "train_per_rank=-5"])
def test_evaluate_rejects_fewer_than_one_run(tmp_path, capsys, name, value):
    values = {"runs": 1, "train_per_rank": 8, name: value}
    message = f"{name} must be at least 1, got {value}"
    with pytest.raises(BadConfig, match=message):
        run_experiment(SynthConfig(samples_per_cell=8, dim=4), ["tt"], **values)
    out = tmp_path / "r.json"
    code = main(["evaluate", "--config", synth_json(tmp_path), "--variants", "tt", f"--runs={values['runs']}",
                 f"--train-per-rank={values['train_per_rank']}", "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 1 and err == f"genage: error: {message}\n"
    assert not out.exists()


def test_evaluate_report_leaves_out_a_gender_missing_from_every_test_side(tmp_path):
    ds = generate(SynthConfig(samples_per_cell=8, dim=4, seed=2))
    # three males per cell, all of which a budget of 6 per rank trains on
    males = [np.flatnonzero((ds.gender == 1) & (ds.age_rank == k))[:3] for k in range(1, ds.num_ranks + 1)]
    data = tmp_path / "d.csv"
    export_csv(ds.subset(np.concatenate(males + [np.flatnonzero(ds.gender == -1)])), str(data))
    args = ["evaluate", "--data", str(data), "--variants", "tt,pls", "--train-per-rank", "6", "--runs", "2"]
    assert main([*args, "--out", str(tmp_path / "r.json")]) == 0
    assert main([*args, "--format", "csv", "--out", str(tmp_path / "r.csv")]) == 0
    for report in strict_json((tmp_path / "r.json").read_text(encoding="utf-8"))["methods"].values():
        assert "mae_male" not in report and "mae_female" in report
        assert all("mae_male" not in run for run in report["per_run"])
    text = (tmp_path / "r.csv").read_text(encoding="utf-8")
    assert "nan" not in text and ",mae_male," not in text and ",mae_female," in text


def test_evaluate_report_leaves_out_the_angle_of_a_zero_direction(tmp_path):
    config = synth_json(tmp_path, dim=3, num_ranks=3, samples_per_cell=6, male_cut_centers=[-1.0, 1.0],
                        discrepancy=1.0, seed=5)
    out = tmp_path / "r.json"
    # without a classifier loss the gender direction is zero
    assert main(["evaluate", "--config", config, "--variants", "tt", "--runs", "1", "--train-per-rank", "4",
                 "--lambda1=0", "--out", str(out)]) == 0
    report = strict_json(out.read_text(encoding="utf-8"))["methods"]["tt"]
    assert "angle_deg" not in report and "angle_deg" not in report["per_run"][0]
    assert "mae_mixed" in report


@pytest.mark.parametrize("text", ["[1.0, 2.0]", "3", '"tt"', "null"])
def test_predict_rejects_a_model_that_is_not_a_json_object(tmp_path, capsys, text):
    model_path = write(tmp_path / "model.json", text)
    data = write(tmp_path / "d.csv", "f1,gender,age\n0.5,M,1\n")
    out = tmp_path / "pred.csv"
    assert main(["predict", "--model", model_path, "--data", data, "--out", str(out)]) == 1
    assert capsys.readouterr().err == "genage: error: model must be a JSON object\n"
    assert not out.exists()


def test_predict_rejects_another_model_schema(tmp_path, capsys):
    ladder = ThresholdLadder([0.0])
    payload = model_to_dict(GenAgeModel(w_g=[1.0], b_g=0.0, w_a=[1.0], ladder_male=ladder,
                                        ladder_female=ladder, variant=Variant.TT))
    payload["schema_version"] = 2
    model_path = write(tmp_path / "model.json", json.dumps(payload))
    data = write(tmp_path / "d.csv", "f1,gender,age\n0.5,M,1\n")
    out = tmp_path / "pred.csv"
    assert main(["predict", "--model", model_path, "--data", data, "--out", str(out)]) == 1
    assert "unsupported model schema 2" in capsys.readouterr().err
    assert not out.exists()


def test_failing_chunks_leave_no_file(tmp_path):
    def chunks():
        yield "gender,age\n"
        raise RuntimeError("chunk failed")

    target = tmp_path / "out.csv"
    with pytest.raises(RuntimeError, match="chunk failed"):
        _atomic_write(str(target), chunks())
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("payload, key", [
    ({"male_cut_centers": 5}, "male_cut_centers"),
    ({"dim": "x"}, "dim"),
    ({"dim": 2.5}, "dim"),
    ({"discrepancy": None}, "discrepancy"),
])
def test_mistyped_synth_config_value_is_reported(tmp_path, capsys, payload, key):
    bad = write(tmp_path / "bad.json", json.dumps(payload))
    code = main(["generate", "--config", bad, "--out", str(tmp_path / "x.csv")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("genage: error: synth config field") and repr(key) in err
    assert not (tmp_path / "x.csv").exists()


def test_synth_config_with_a_bad_value_fails_at_load(tmp_path):
    bad = write(tmp_path / "bad.json", json.dumps({"dim": 1}))
    with pytest.raises(BadConfig, match="dim must be at least 2"):
        _load_synth_config(bad)


@pytest.mark.parametrize("edit, message", [
    (lambda payload: payload.pop("ladder_male"), "model lacks the fields ['ladder_male']"),
    (lambda payload: payload.update(w_g=None),
     "model field 'w_g' must be a list of numbers, got None"),
    (lambda payload: payload.update(rank_to_year=5),
     "model field 'rank_to_year' must be a list of numbers, got 5"),
    (lambda payload: payload.update(w_g=[float("nan")]), "model field 'w_g' must be finite"),
    (lambda payload: payload.update(b_g=float("inf")), "model field 'b_g' must be finite"),
    (lambda payload: payload.update(w_a=[-float("inf")]), "model field 'w_a' must be finite"),
    *[(lambda payload, years=years: payload.update(rank_to_year=years),
       "model field 'rank_to_year' must be a list of increasing integers")
      for years in ([1981.5, 1990], [1990.0, 1991.0], [1990, 1981], [1981, 1981])],
    (lambda payload: payload.update(w_g=[10**400]), "model field 'w_g' must be a list of numbers"),
    (lambda payload: payload.update(b_g=-10**400), "model field 'b_g' must be a number"),
    (lambda payload: payload.update(ladder_male=[10**400]),
     "model field 'ladder_male' must be a list of numbers"),
])
def test_predict_names_a_missing_or_malformed_model_field(tmp_path, capsys, edit, message):
    ladder = ThresholdLadder([0.0])
    payload = model_to_dict(GenAgeModel(w_g=[1.0], b_g=0.0, w_a=[1.0], ladder_male=ladder,
                                        ladder_female=ladder, variant=Variant.TT))
    edit(payload)
    model_path = write(tmp_path / "model.json", json.dumps(payload))
    data = write(tmp_path / "d.csv", "f1,gender,age\n0.5,M,1\n")
    out = tmp_path / "pred.csv"
    assert main(["predict", "--model", model_path, "--data", data, "--out", str(out)]) == 1
    assert f"genage: error: {message}" in capsys.readouterr().err
    assert not out.exists()


json_scalars = st.one_of(
    st.floats(), st.integers(-3, 3), st.integers(-10**400, 10**400), st.none(), st.booleans(),
    st.sampled_from(["tt", "st", "direct", "2step", "TT ", "x", ""]),
)
json_values = st.recursive(
    json_scalars,
    lambda inner: st.one_of(st.lists(inner, max_size=5),
                            st.dictionaries(st.text(max_size=3), inner, max_size=2)),
    max_leaves=6,
)
good_rows = st.tuples(st.floats(-1e3, 1e3), st.floats(-1e3, 1e3), st.sampled_from(["M", "F", "+1", "-1"]),
                      st.integers(1, 5)).map(lambda row: ",".join(map(str, row)))
bad_rows = st.lists(st.one_of(st.sampled_from(["0.5", "1e308", "-1e308", "nan", "inf", "M", "F", "3",
                                               "1990", "", " ", "x", "1.5"]),
                              st.text(alphabet="0123456789.,-+eEMF \t", max_size=6)),
                    min_size=2, max_size=5).map(",".join)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.data())
def test_predict_exits_zero_or_with_an_error_line_on_mutated_inputs(tmp_path, capsys, data):
    payload = {"schema_version": 1, "variant": "tt", "w_g": [1.0, -0.5], "b_g": 0.25, "w_a": [0.25, 1.0],
               "ladder_male": [-1.0, 0.0, 1.0], "ladder_female": [-0.5, 0.5, 2.0],
               "objective_trace": [3.0, 2.0], "rank_to_year": [1970, 1980, 1990, 2000]}
    for _ in range(data.draw(st.integers(0, 2))):
        key = data.draw(st.sampled_from(sorted(payload)))
        how = data.draw(st.sampled_from(["drop", "replace", "item"]))
        if how == "drop":
            payload.pop(key, None)
        elif how == "item" and isinstance(payload.get(key), list) and payload[key]:
            payload[key][data.draw(st.integers(0, len(payload[key]) - 1))] = data.draw(json_scalars)
        else:
            payload[key] = data.draw(json_values)
    rows = data.draw(st.lists(good_rows, min_size=1, max_size=6))
    for _ in range(data.draw(st.integers(0, 1))):
        rows[data.draw(st.integers(0, len(rows) - 1))] = data.draw(bad_rows)
    model_path = write(tmp_path / "model.json", json.dumps(payload))
    data_path = write(tmp_path / "d.csv", "\n".join(["f1,f2,gender,age"] + rows) + "\n")
    out = tmp_path / "pred.csv"
    out.unlink(missing_ok=True)
    code = main(["predict", "--model", model_path, "--data", data_path, "--out", str(out)])
    err = capsys.readouterr().err
    if code == 0:
        assert err == "" and out.read_text(encoding="utf-8").count("\n") == 1 + len(rows)
    else:
        assert code == 1 and err.startswith("genage: error: ") and err.count("\n") == 1
        assert not out.exists()


@pytest.mark.parametrize("flag", ["--lambda1", "--lambda2", "--lambda3", "--tol"])
def test_fit_rejects_non_finite_weights_before_any_solve(tmp_path, capsys, monkeypatch, flag):
    import genage.cli

    def no_fit(*args, **kwargs):
        raise AssertionError("fit was called")

    monkeypatch.setattr(genage.cli, "fit", no_fit)
    data = tmp_path / "data.csv"
    assert main(["generate", "--config", synth_json(tmp_path, samples_per_cell=2),
                 "--out", str(data)]) == 0
    out = tmp_path / "model.json"
    for value in ("nan", "inf"):
        assert main(["fit", "--data", str(data), flag, value, "--out", str(out)]) == 1
        assert "must be finite" in capsys.readouterr().err
    assert not out.exists()


flag_values = {"--lambda1": ["0", "1e-3", "10", "1e4", "-1", "nan", "inf", "1e400"],
               "--lambda2": ["0", "1e-3", "10", "1e4", "-1", "nan", "inf"],
               "--lambda3": ["0", "10", "1e6", "-5", "nan"],
               "--tmax": ["1", "3", "0", "-2"],
               "--tol": ["1e-6", "1e-2", "0", "-1e-6", "nan", "1e300"]}
# flag=value, since argparse takes a bare "-1e-6" for an option
hyper_flags = st.dictionaries(st.sampled_from(sorted(flag_values)), st.just(None), max_size=3).flatmap(
    lambda chosen: st.tuples(*[st.sampled_from(flag_values[flag]).map(f"{flag}={{}}".format) for flag in chosen]))


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.data())
def test_fit_exits_zero_or_with_an_error_line_on_mutated_inputs(tmp_path, capsys, data):
    rows = data.draw(st.lists(good_rows, min_size=6, max_size=24))
    for _ in range(data.draw(st.sampled_from([0, 0, 0, 1, 2]))):  # most files parse
        rows[data.draw(st.integers(0, len(rows) - 1))] = data.draw(bad_rows)
    data_path = write(tmp_path / "d.csv", "\n".join(["f1,f2,gender,age"] + rows) + "\n")
    flags = list(data.draw(hyper_flags))
    variant = data.draw(st.sampled_from([v.value for v in Variant]))
    out = tmp_path / "model.json"
    out.unlink(missing_ok=True)
    code = main(["fit", "--data", data_path, "--variant", variant, *flags, "--out", str(out)])
    err = capsys.readouterr().err
    if code == 0:
        assert err == "" and model_from_dict(json.loads(out.read_text(encoding="utf-8"))).dim == 2
    else:
        assert code == 1 and err.startswith("genage: error: ") and err.count("\n") == 1
        assert not out.exists()


def assert_one_error_line_and_no_file(code, err, out):
    assert code == 1 and err.startswith("genage: error: ") and err.count("\n") == 1
    assert not out.exists()


# small sizes, and mistyped values that the type check turns away before any allocation
sizes = st.one_of(st.integers(-1, 4), st.sampled_from([2.5, "3", None, True, [3]]))
mistyped = st.one_of(st.none(), st.booleans(), st.text(max_size=3), st.integers(-10**400, 10**400),
                     st.lists(st.floats(-3, 3), max_size=2))


def draw_synth_payload(data, numbers):
    """A synth config of at most 2 * 4 * 20 samples in at most 8 dimensions
    with up to two keys dropped, replaced or added, or now and then another
    JSON value; ``numbers`` draws the float fields and the cut centres."""
    values = {"dim": st.one_of(sizes, st.just(8)), "num_ranks": sizes,
              "samples_per_cell": st.one_of(sizes, st.just(20)),
              "gender_gap": st.one_of(numbers, mistyped), "discrepancy": st.one_of(numbers, mistyped),
              "noise_sigma": st.one_of(numbers, mistyped),
              "male_cut_centers": st.one_of(st.lists(numbers, max_size=4), mistyped),
              "seed": st.one_of(st.integers(-2, 2**70), mistyped), "not_a_field": st.just(1)}
    payload = {"dim": 3, "num_ranks": 3, "samples_per_cell": 6, "male_cut_centers": [-1.0, 1.0],
               "discrepancy": 1.0, "seed": 5}
    for _ in range(data.draw(st.integers(0, 2))):
        key = data.draw(st.sampled_from(sorted(values)))
        if data.draw(st.booleans()):
            payload[key] = data.draw(values[key])
        else:
            payload.pop(key, None)
    return payload if data.draw(st.integers(0, 9)) else data.draw(json_scalars)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.data())
def test_generate_exits_zero_or_with_an_error_line_on_mutated_configs(tmp_path, capsys, data):
    payload = draw_synth_payload(data, st.one_of(st.floats(), st.floats(-5, 5)))
    seed = data.draw(st.sampled_from([[], ["--seed=-1"], ["--seed=7"], [f"--seed={2**70}"]]))
    config = write(tmp_path / "synth.json", json.dumps(payload))
    out = tmp_path / "d.csv"
    out.unlink(missing_ok=True)
    code = main(["generate", "--config", config, *seed, "--out", str(out)])
    err = capsys.readouterr().err
    if code == 0:
        cfg = SynthConfig(**{key: tuple(v) if type(v) is list else v for key, v in payload.items()})
        assert err == "" and ingest_csv(str(out)).n == 2 * cfg.num_ranks * cfg.samples_per_cell
    else:
        assert_one_error_line_and_no_file(code, err, out)


def draw_data_csv(data, tmp_path):
    """A synthetic CSV of two features and three ranks, 12 to 48 rows, with
    up to two rows replaced by a drawn one."""
    path = tmp_path / "d.csv"
    cfg = SynthConfig(dim=2, num_ranks=3, male_cut_centers=(-1.0, 1.0), discrepancy=1.0,
                      samples_per_cell=data.draw(st.integers(2, 8)), seed=data.draw(st.integers(0, 3)))
    export_csv(generate(cfg), str(path))
    lines = path.read_text(encoding="utf-8").splitlines()
    for _ in range(data.draw(st.sampled_from([0, 0, 1, 2]))):
        lines[data.draw(st.integers(1, len(lines) - 1))] = data.draw(st.one_of(good_rows, bad_rows))
    return write(path, "\n".join(lines) + "\n")


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.data())
def test_evaluate_exits_zero_or_with_an_error_line_on_mutated_inputs(tmp_path, capsys, data):
    if data.draw(st.booleans()):
        payload = draw_synth_payload(data, st.one_of(st.floats(-5, 5), st.sampled_from([np.nan, np.inf])))
        source = ["--config", write(tmp_path / "synth.json", json.dumps(payload))]
    else:
        source = ["--data", draw_data_csv(data, tmp_path)]
    variants = ",".join(data.draw(st.lists(st.sampled_from(["tt", "direct", "2step", "st", "pls", " TT", "", "foo"]),
                                           min_size=1, max_size=3)))
    runs = data.draw(st.sampled_from([1, 2, 3, 0, -1]))
    train_per_rank = data.draw(st.sampled_from([4, 8, 2, 0, -1]))
    flags = list(data.draw(hyper_flags))
    out = tmp_path / "r.json"
    out.unlink(missing_ok=True)
    code = main(["evaluate", *source, f"--variants={variants}", f"--runs={runs}",
                 f"--train-per-rank={train_per_rank}", *flags, "--out", str(out)])
    err = capsys.readouterr().err
    if code == 0:
        payload = strict_json(out.read_text(encoding="utf-8"))
        assert err == "" and payload["protocol"]["runs"] == runs
        assert all(len(report["per_run"]) == runs for report in payload["methods"].values())
    else:
        assert_one_error_line_and_no_file(code, err, out)


grid_values = st.one_of(st.lists(st.sampled_from(["10", "1e-3", "0", "1e3"]), min_size=1, max_size=2),
                        st.lists(st.sampled_from(["10", "-1", "nan", "inf", "1e400", "x", ""]), min_size=1,
                                 max_size=2)).map(",".join)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.data())
def test_cv_exits_zero_or_with_an_error_line_on_mutated_inputs(tmp_path, capsys, data):
    data_path = draw_data_csv(data, tmp_path)
    grids = [f"--lambda{i}-grid={values}"
             for i, values in data.draw(st.dictionaries(st.integers(1, 3), grid_values, max_size=2)).items()]
    folds = data.draw(st.sampled_from([3, 2, 4, 1, 0, -1]))
    flags = [flag for flag in data.draw(hyper_flags) if flag.startswith(("--tmax", "--tol"))]
    variant = data.draw(st.sampled_from([v.value for v in Variant]))
    out = tmp_path / "cv.json"
    out.unlink(missing_ok=True)
    code = main(["cv", "--data", data_path, "--variant", variant, f"--folds={folds}", *grids, *flags,
                 "--out", str(out)])
    err = capsys.readouterr().err
    if code == 0:
        payload = json.loads(out.read_text(encoding="utf-8"))
        assert err == "" and all(len(row["fold_mae"]) == folds for row in payload["table"])
    else:
        assert_one_error_line_and_no_file(code, err, out)

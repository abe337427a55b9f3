"""Reproduction rates of acceptance criteria 3-5 over fixed seed ranges.

The acceptance module checks each criterion on one seed; these tests track
how often the property holds over 24 or 40 seeds with default
``HyperParams``, so a change to the fitted models shows up as a changed rate.  Each bound is the
rate measured when the test was written; tighten it when a rate improves.
Properties, seeds and thresholds are those of the acceptance criteria.
"""

import numpy as np

from genage import (HyperParams, SynthConfig, TrainConfig, angle_deg, fit, generate, run_experiment,
                    true_directions)

SEEDS = range(5000, 5040)


def test_criterion_3_angle_fails_on_no_seed():
    failing = []
    for seed in SEEDS:
        ds = generate(SynthConfig(seed=seed))
        coupled = fit(ds, TrainConfig(hyper=HyperParams()))
        plain = fit(ds, TrainConfig(hyper=HyperParams(lambda3=0.0)))
        angle_coupled = angle_deg(coupled.w_g, coupled.w_a)
        angle_plain = angle_deg(plain.w_g, plain.w_a)
        if not (88.0 <= angle_coupled <= 92.0
                and abs(angle_plain - 90.0) > abs(angle_coupled - 90.0)):
            failing.append(seed)
    assert not failing, f"criterion 3 fails on seeds {failing}"


def test_criterion_4_method_ordering_fails_on_at_most_5_of_24_seeds():
    # failing at the time of writing: 2003, 2004, 2008, 2012 and 2018
    failing = []
    for seed in range(2000, 2024):
        cfg = SynthConfig(samples_per_cell=40, discrepancy=2.0, seed=seed)
        reports = run_experiment(cfg, ["direct", "tt", "pls"], train_per_rank=50, runs=10,
                                 hyper=HyperParams(), seed=42)
        maes = {m: reports[m].mean("mae_mixed") for m in reports}
        if not (maes["tt"] < maes["direct"] and maes["tt"] < maes["pls"]):
            failing.append(seed)
    assert len(failing) <= 5, f"criterion 4 fails on {len(failing)} of 24 seeds: {failing}"


def test_criterion_5_ladder_gap_fails_on_at_most_9_of_40_seeds():
    # failing at the time of writing: 5001, 5004, 5005, 5013, 5022, 5024,
    # 5027, 5036 and 5037
    failing = []
    for seed in SEEDS:
        cfg = SynthConfig(discrepancy=2.0, seed=seed)
        model = fit(generate(cfg), TrainConfig(hyper=HyperParams()))
        _, aging_dir = true_directions(cfg)
        gap = float(np.abs(model.ladder_male.cuts - model.ladder_female.cuts).max())
        if gap < 0.5 * cfg.discrepancy * abs(float(model.w_a @ aging_dir)):
            failing.append(seed)
    assert len(failing) <= 9, f"criterion 5 fails on {len(failing)} of 40 seeds: {failing}"

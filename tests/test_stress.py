"""Stress corpus: hard but legitimate inputs for the coupled fits.

Every subproblem solve of each fit must certify its duality gap, the joint
objective trace must not increase, and the fit must finish within
``WALL_BOUND_S``.  The bound is about six times the slowest case's time on a
2-vCPU host with BLAS on one thread (split ladders across missing middle
ages, ``tt``: about 1.6 s; pure noise, ``tt``: about 0.3 s); without the
periodic polish inside the SMO loop the features scaled by 1e4 take 25-50 s
per fit.
"""

import time

import numpy as np
import pytest

import genage.svm
import genage.svor
from genage import Dataset, HyperParams, SynthConfig, TrainConfig, fit, generate

WALL_BOUND_S = 10.0


def duplicated_rows():
    base = generate(SynthConfig(discrepancy=2.0, samples_per_cell=8, seed=7))
    return Dataset(np.tile(base.features, (5, 1)), np.tile(base.gender, 5), np.tile(base.age_rank, 5))


def pure_noise():
    rng = np.random.default_rng(11)
    n = 400
    return Dataset(rng.standard_normal((n, 10)), np.repeat([1, -1], n // 2),
                   rng.integers(1, 6, n), num_ranks=5)


def many_ranks():
    return generate(SynthConfig(num_ranks=30, male_cut_centers=tuple(np.linspace(-7.25, 7.25, 29)),
                                samples_per_cell=10, discrepancy=2.0, seed=3))


def scaled(factor):
    def make():
        base = generate(SynthConfig(discrepancy=2.0, seed=5))
        return Dataset(base.features * factor, base.gender, base.age_rank)
    return make


def ages_in_years():
    """Ages 16-77 used verbatim as ranks, as the CLI reads small integer
    ages: K=77 with ranks 1-15 empty, n=992, d=20."""
    base = generate(SynthConfig(dim=20, num_ranks=62, male_cut_centers=tuple(np.linspace(-15.25, 15.25, 61)),
                                samples_per_cell=8, discrepancy=1.0, seed=9))
    return Dataset(base.features, base.gender, base.age_rank + 15, num_ranks=77)


def years_missing_male_middle_ages():
    """ages_in_years without the males aged 45 and 46: the male ladder's cut
    between those ages has no hinge terms, and the optima of the valued cuts
    on either side of it cross."""
    base = ages_in_years()
    keep = ~((base.gender == 1) & np.isin(base.age_rank, (45, 46)))
    return Dataset(base.features[keep], base.gender[keep], base.age_rank[keep], num_ranks=77)


def wide():
    """d=300 with n=100."""
    return generate(SynthConfig(dim=300, samples_per_cell=10, discrepancy=2.0, seed=13))


def constant_but_gender():
    """Every feature constant except one column that holds the gender."""
    rng = np.random.default_rng(17)
    n = 200
    gender = np.repeat([1, -1], n // 2)
    return Dataset(np.column_stack([gender, np.full((n, 4), 3.0)]), gender,
                   rng.integers(1, 6, n), num_ranks=5)


CASES = {
    "duplicated-x5": duplicated_rows,
    "pure-noise": pure_noise,
    "K30": many_ranks,
    "scaled-1e4": scaled(1e4),
    "scaled-1e-4": scaled(1e-4),
    "years-K77": ages_in_years,
    "d300-n100": wide,
    "extreme-lambdas": lambda: generate(SynthConfig(discrepancy=2.0, seed=19)),
    "constant-but-gender": constant_but_gender,
}
# trade-off weights other than the defaults, per case
LAMBDAS = {"extreme-lambdas": dict(lambda1=1e4, lambda2=1e4, lambda3=1e7)}


@pytest.mark.parametrize("variant", ["tt", "st"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_stress_fit_is_certified_monotone_and_bounded(case, variant, monkeypatch):
    ds = CASES[case]()
    hyper = HyperParams(variant=variant, **LAMBDAS.get(case, {}))
    solutions = []
    for module in (genage.svm, genage.svor):
        solve = module.solve_hinge_dual

        def capture(prob, _solve=solve, **kw):
            sol = _solve(prob, **kw)
            solutions.append(sol)
            return sol

        monkeypatch.setattr(module, "solve_hinge_dual", capture)

    start = time.perf_counter()
    model = fit(ds, TrainConfig(hyper=hyper))
    elapsed = time.perf_counter() - start

    assert len(solutions) == 1 + 2 * hyper.t_max  # initial pass, then svm + svor per round
    for sol in solutions:
        assert sol.gap <= hyper.tol * (1.0 + abs(sol.objective))
    assert np.all(np.diff(model.objective_trace) <= 0.0)
    assert elapsed <= WALL_BOUND_S, f"{case} {variant} took {elapsed:.1f} s"


@pytest.mark.parametrize("variant", ["tt", "2step"])
def test_split_ladders_across_missing_middle_ages_are_certified_and_bounded(variant, monkeypatch):
    ds = years_missing_male_middle_ages()
    solutions = []
    for module in (genage.svm, genage.svor):
        solve = module.solve_hinge_dual

        def capture(prob, _solve=solve, **kw):
            sol = _solve(prob, **kw)
            solutions.append(sol)
            return sol

        monkeypatch.setattr(module, "solve_hinge_dual", capture)

    start = time.perf_counter()
    model = fit(ds, TrainConfig(hyper=HyperParams(variant=variant)))
    elapsed = time.perf_counter() - start

    assert len(solutions) == (3 if variant == "2step" else 5)
    for sol in solutions:
        assert sol.gap <= 1e-6 * (1.0 + abs(sol.objective))
    assert np.all(np.diff(model.objective_trace) <= 0.0)
    assert elapsed <= WALL_BOUND_S, f"{variant} took {elapsed:.1f} s"

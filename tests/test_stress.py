"""Stress corpus: hard but legitimate inputs for the coupled fits.

Every subproblem solve of each fit must certify its duality gap, the joint
objective trace must not increase, and the fit must finish within
``WALL_BOUND_S``.  On a 2-vCPU host with BLAS on one thread the slowest fits
take under half a second (lambda1 = lambda2 = 1e8, ``st``: about 0.45 s; the
K=60 tied ladder: about 0.35 s; pure noise, ``tt``: about 0.25 s; split
ladders across missing middle ages, ``tt``: about 0.17 s).  The missing-ages
and K=60 fits are also held to about three times the solver steps they take,
a count that, unlike a time, does not depend on the host.  With a polish
only every 64 SMO sweeps they took 12 050 (``tt``), 9 704 (``2step``) and
26 988 steps; with no polish between sweeps the missing-ages fits take
about 36 s (``tt``) and 71 s (``2step``), and pure noise ``tt`` 1.9 s.
"""

import time

import numpy as np
import pytest

import genage.svm
import genage.svor
import genage.train
from genage import Dataset, HyperParams, SynthConfig, TrainConfig, fit, generate

from _oracles import loop_svm_objective, loop_svor_objective

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


def tied_large_k_ladder():
    """The case that hurts: K=60 with the cuts spaced below the noise, n=1200, d=20."""
    return generate(SynthConfig(dim=20, num_ranks=60, samples_per_cell=10,
                                male_cut_centers=tuple(np.linspace(-6, 6, 59)), noise_sigma=0.5,
                                discrepancy=0.5, seed=1))


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


def fit_capturing(ds, hyper, monkeypatch):
    """Fit ``ds``; return the model, every subproblem's solution and the wall time."""
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
    return model, solutions, time.perf_counter() - start


@pytest.mark.parametrize("variant", ["tt", "st"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_stress_fit_is_certified_monotone_and_bounded(case, variant, monkeypatch):
    hyper = HyperParams(variant=variant, **LAMBDAS.get(case, {}))
    model, solutions, elapsed = fit_capturing(CASES[case](), hyper, monkeypatch)

    assert len(solutions) == 1 + 2 * hyper.t_max  # initial pass, then svm + svor per round
    for sol in solutions:
        assert sol.gap <= hyper.tol * (1.0 + abs(sol.objective))
    assert np.all(np.diff(model.objective_trace) <= 0.0)
    assert elapsed <= WALL_BOUND_S, f"{case} {variant} took {elapsed:.1f} s"


@pytest.mark.parametrize("variant", ["tt", "2step"])
def test_split_ladders_across_missing_middle_ages_are_certified_and_bounded(variant, monkeypatch):
    model, solutions, elapsed = fit_capturing(years_missing_male_middle_ages(),
                                              HyperParams(variant=variant), monkeypatch)

    assert len(solutions) == (3 if variant == "2step" else 5)
    for sol in solutions:
        assert sol.gap <= 1e-6 * (1.0 + abs(sol.objective))
    assert np.all(np.diff(model.objective_trace) <= 0.0)
    assert elapsed <= WALL_BOUND_S, f"{variant} took {elapsed:.1f} s"
    # about three times the 603 (tt) and 271 (2step) steps these fits take
    assert sum(sol.steps for sol in solutions) <= {"tt": 1_800, "2step": 800}[variant]


def test_tied_large_k_ladder_is_certified_and_bounded(monkeypatch):
    model, solutions, elapsed = fit_capturing(tied_large_k_ladder(), HyperParams(variant="tt"), monkeypatch)

    assert len(solutions) == 5
    for sol in solutions:
        assert sol.gap <= 1e-6 * (1.0 + abs(sol.objective))
    assert np.all(np.diff(model.objective_trace) <= 0.0)
    assert elapsed <= WALL_BOUND_S, f"took {elapsed:.1f} s"
    # about three times the 1 633 steps this fit takes
    assert sum(sol.steps for sol in solutions) <= 5_000


def test_huge_hinge_weights_certify_through_the_zero_dual_restart(monkeypatch):
    """lambda1 = lambda2 = 1e8 at unit scale, ``st``: after the balance
    repair, the warm starts of both coupled ordinal solves have a dual below
    zero's, and only the restart from the zero dual certifies them (the fit
    takes about 0.45 s).  ``tt`` raises NonConvergence(eps-floor) on these
    weights and is left out."""
    hyper = HyperParams(variant="st", lambda1=1e8, lambda2=1e8)
    model, solutions, elapsed = fit_capturing(scaled(1.0)(), hyper, monkeypatch)

    assert len(solutions) == 1 + 2 * hyper.t_max
    for sol in solutions:
        assert sol.gap <= hyper.tol * (1.0 + abs(sol.objective))
    assert np.all(np.diff(model.objective_trace) <= 0.0)
    assert elapsed <= WALL_BOUND_S, f"took {elapsed:.1f} s"


def fit_recomputing_objectives(ds, hyper, monkeypatch):
    """Fit ``ds``; return (reported, recomputed) per subproblem solve, where
    the second is the objective evaluated at the solution's point by a loop
    over the samples."""
    pairs = []
    solve_svm, solve_svor = genage.train.solve_svm, genage.train.solve_svor

    def svm(ds, lambda1, anchor=None, lambda3=0.0, **kw):
        sol = solve_svm(ds, lambda1, anchor=anchor, lambda3=lambda3, **kw)
        pairs.append((sol.objective,
                      loop_svm_objective(ds.features, ds.gender, lambda1, anchor, lambda3, sol.w, sol.b)))
        return sol

    def svor(ds, lambda2, anchor=None, lambda3=0.0, **kw):
        sol = solve_svor(ds, lambda2, anchor=anchor, lambda3=lambda3, **kw)
        pairs.append((sol.objective,
                      loop_svor_objective(ds.features, ds.age_rank, ds.gender, lambda2, anchor, lambda3,
                                          sol.w, sol.ladder_male.cuts, sol.ladder_female.cuts)))
        return sol

    monkeypatch.setattr(genage.train, "solve_svm", svm)
    monkeypatch.setattr(genage.train, "solve_svor", svor)
    fit(ds, TrainConfig(hyper=hyper))
    return pairs


@pytest.mark.parametrize("name, make, hyper, bound", [
    # the agreement the benchmark's optimality check requires
    ("default", scaled(1.0), HyperParams(), 1e-9),
    # the solve's tol (the default 1e-6): its gap is certified only to that here
    ("extreme-lambdas", CASES["extreme-lambdas"], HyperParams(**LAMBDAS["extreme-lambdas"]), 1e-6),
    ("1e8-st", scaled(1.0), HyperParams(variant="st", lambda1=1e8, lambda2=1e8), 1e-6),
])
def test_reported_objectives_match_the_objective_at_the_returned_point(name, make, hyper, bound, monkeypatch):
    pairs = fit_recomputing_objectives(make(), hyper, monkeypatch)
    assert len(pairs) == 1 + 2 * hyper.t_max
    for reported, recomputed in pairs:
        assert abs(reported - recomputed) <= bound * (1.0 + abs(recomputed)), name

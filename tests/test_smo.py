import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from genage import SynthConfig, generate, smo, solve_svm, solve_svor
from genage.errors import NonConvergence
from genage.smo import _line_minimum, _shrink_coefficient

from _oracles import svm_oracle, svor_oracle


# --------------------------------------------------- exact line minimiser

def smoothed_hinge(x, mu):
    return np.where(x >= mu, x - 0.5 * mu, 0.5 * np.clip(x, 0.0, None) ** 2 / mu)


def phi(t, r, q, mu, lam, a, b):
    return a * t + 0.5 * b * t * t + lam * smoothed_hinge(r + t * q, mu).sum()


def dphi(t, r, q, mu, lam, a, b):
    return a + b * t + lam * (q * np.clip((r + t * q) / mu, 0.0, 1.0)).sum()


@st.composite
def line_problems(draw):
    mu = draw(st.floats(1e-3, 1.0))
    size = draw(st.integers(1, 24))
    # residuals sitting exactly on a zone edge are the tie cases
    r = np.array(draw(st.lists(
        st.one_of(st.floats(-3.0, 3.0), st.just(0.0), st.just(mu)), min_size=size, max_size=size)))
    q = np.array(draw(st.lists(
        st.one_of(st.floats(-3.0, 3.0), st.just(0.0)), min_size=size, max_size=size)))
    lam = draw(st.floats(0.1, 100.0))
    a = draw(st.floats(-50.0, 50.0))
    b = draw(st.floats(1e-3, 10.0))
    return r, q, mu, lam, a, b


@settings(deadline=None)
@given(line_problems())
# a tiny q puts its breakpoints near the float maximum, past the minimiser
@example((np.array([3.0, 0.5]), np.array([-2e-308, 1.0]), 1.0, 1.0, -5.0, 10.0))
def test_line_minimum_is_the_exact_minimiser(problem):
    r, q, mu, lam, a, b = problem
    t = _line_minimum(r, q, mu, lam, a, b)
    assert np.isfinite(t) and t >= 0.0
    eps = 1e-6 * max(1.0, t)
    if t > 0.0:
        assert dphi(t - eps, *problem) <= 0.0
    assert dphi(t + eps, *problem) >= 0.0
    with np.errstate(all="ignore"):
        kinks = np.concatenate([-r / q, (mu - r) / q])
    grid = np.concatenate([np.linspace(0.0, 2.0 * t + 1.0, 2001), kinks[(kinks > 0) & (kinks < 1e100)]])
    best = min(phi(s, *problem) for s in grid)
    value = phi(t, *problem)
    assert value <= best + 1e-12 * max(1.0, abs(best))



def test_line_minimum_breaks_ties_at_the_start_of_the_path():
    """At theta = 0 and mu = 1 every residual equals mu.  The terms whose q
    is negative enter the quadratic zone: phi'(t) = -30 + 15 + 13.5 t until
    the q = -1 term reaches 0 at t = 1, then -1.5 + 3.5 (t - 1)."""
    t = _line_minimum(np.ones(4), np.array([1.0, -1.0, 2.0, -0.5]), 1.0, 10.0, -30.0, 1.0)
    assert t == pytest.approx(1.0 + 1.5 / 3.5, rel=1e-12)


# --------------------------------------------------- rank-one whitening

@pytest.mark.parametrize("aa, lam3", [(1.0, 5e-13), (0.25, 2e-11), (3.0, 1e-4), (2.0, 1e3)])
def test_shrink_coefficient_matches_extended_precision(aa, lam3):
    ld_aa = np.longdouble(aa)
    root = np.sqrt(1 + 2 * np.longdouble(lam3) * ld_aa)
    want = (1 / root - 1) / ld_aa
    assert abs(np.longdouble(_shrink_coefficient(aa, lam3)) - want) <= 1e-6 * abs(want)


# --------------------------------------------------- warm-started path vs QP

def test_warm_started_solves_match_the_qp_oracles(monkeypatch):
    """100 samples give 100 and 160 hinge terms, above the 96 where the
    smoothed-Newton warm start and candidate selection take over."""
    ds = generate(SynthConfig(samples_per_cell=10, gender_gap=1.0, seed=8))
    X, genders, ranks = ds.features, ds.gender, ds.age_rank
    rng = np.random.default_rng(8)
    w_a = np.eye(ds.dim)[1] + 0.1 * rng.normal(size=ds.dim)
    w_g = np.eye(ds.dim)[0] + 0.1 * rng.normal(size=ds.dim)
    sizes = []
    warm_start = smo._huber_warm_start
    monkeypatch.setattr(smo, "_huber_warm_start",
                        lambda prob: sizes.append(prob.z.shape[0]) or warm_start(prob))

    sol = solve_svm(ds, 10.0, anchor=w_a, lambda3=10.0, tol=1e-9)
    ref = svm_oracle(X, genders, 10.0, w_a, 10.0)
    assert abs(sol.objective - ref) <= 1e-9 * (1.0 + abs(ref))

    sol = solve_svor(ds, 10.0, anchor=w_g, lambda3=10.0, split_thresholds=True, tol=1e-9)
    ref = svor_oracle(X, ranks, genders, ds.num_ranks, 10.0, w_g, 10.0, True)
    assert abs(sol.objective - ref) <= 1e-9 * (1.0 + abs(ref))
    assert sizes == [100, 160]


@pytest.mark.parametrize("split", [False, True])
def test_warm_start_hands_over_a_near_optimal_dual_at_large_k(monkeypatch, split):
    """40 ranks as in ages-in-years data: 39 or 78 cuts, most of them with
    no term in the smoothing zone at some Newton step."""
    cuts = tuple(np.linspace(-20.0, 20.0, 39))
    ds = generate(SynthConfig(num_ranks=40, samples_per_cell=4, male_cut_centers=cuts,
                              discrepancy=1.0, seed=3))
    handed = []
    warm_start = smo._huber_warm_start
    monkeypatch.setattr(smo, "_huber_warm_start",
                        lambda prob: handed.append((prob, warm_start(prob))) or handed[-1][1])
    solve_svor(ds, 10.0, split_thresholds=split)
    prob, beta = handed[0]
    best = smo.solve_hinge_dual(prob, tol=1e-10).objective
    assert best - smo._DualSolver(prob, warm=beta)._dual() <= 1e-6 * best


# --------------------------------------------------- step budget

def test_exhausted_step_budget_raises_non_convergence(monkeypatch):
    """A small ordinal instance (64 terms, four-cut chain) with no steps
    allowed: the typed error reaches the caller with the open gap."""
    ds = generate(SynthConfig(dim=4, samples_per_cell=4, noise_sigma=1.0, seed=0))
    monkeypatch.setattr(smo, "default_budget", lambda shape: 0)
    with pytest.raises(NonConvergence) as raised:
        solve_svor(ds, 10.0)
    assert raised.value.gap > 0.0

import numpy as np
import pytest

from genage import SynthConfig, generate, smo, solve_svm, solve_svor
from genage.errors import NonConvergence
from genage.smo import _face_step, _ipm_warm_start, _shrink_coefficient

from _oracles import svm_oracle, svor_oracle


# --------------------------------------------------- interior-point warm start

def random_hinge_problem(seed):
    """Seeded chain-free problems: 1-5 cuts, 6-79 terms, d from 1 to more
    than the terms, features scaled by 1e-4, 1 or 1e4, lambda from 1e-2 to
    1e4; some with one one-sided cut, some with every cut one-sided."""
    rng = np.random.default_rng(seed)
    n_cuts = int(rng.integers(1, 6))
    size = int(rng.integers(6, 80))
    d = int(rng.choice([1, 3, 8, 120]))
    z = rng.normal(size=(size, d)) * 10.0 ** rng.choice([-4.0, 0.0, 0.0, 4.0])
    cut = rng.integers(0, n_cuts, size)
    tau = rng.choice([-1.0, 1.0], size)
    shape = rng.integers(0, 4)
    if shape == 1:
        tau[cut == 0] = 1.0
    elif shape == 2:
        tau = np.where(cut % 2 == 0, 1.0, -1.0)
    return smo.HingeProblem(z, tau, cut, n_cuts, (), float(10.0 ** rng.uniform(-2.0, 4.0)))


@pytest.mark.parametrize("seed", range(40))
def test_interior_point_hands_over_a_near_optimal_feasible_dual(seed):
    prob = random_hinge_problem(seed)
    beta, iterations = _ipm_warm_start(prob, smo.default_budget(prob.z.shape))
    assert np.all(beta >= 0.0) and np.all(beta <= prob.penalty)
    both = np.bincount(prob.cut, prob.tau > 0, prob.n_cuts) * np.bincount(prob.cut, prob.tau < 0, prob.n_cuts)
    one_sided = both == 0
    assert np.all(beta[one_sided[prob.cut]] == 0.0)
    solver = smo._DualSolver(prob, warm=beta)
    solver._sync_original()
    balance = np.bincount(prob.cut, prob.tau * solver._beta_orig, prob.n_cuts)
    assert np.abs(balance).max() <= 1e-12 * prob.penalty * prob.z.shape[0]
    best = smo.solve_hinge_dual(prob, tol=1e-7).objective
    assert best - solver._dual() <= 1e-6 * (1.0 + abs(best))
    if one_sided.all():
        assert iterations == 0 and not beta.any()


def test_duals_within_the_bound_slack_are_put_on_their_bound():
    """The classifier at lambda = 1e4 from its certified optimum, with 5e-9 to
    5e-7 put on each zero dual (the slack is 1e-6) and the balance restored:
    the sweeps and the polish count those duals as on the bound, so unless
    the layout puts them there nothing moves them and the gap stays open."""
    ds = generate(SynthConfig(discrepancy=2.0, seed=19))
    prob = smo.HingeProblem(ds.features, -ds.gender.astype(float), np.zeros(ds.features.shape[0], dtype=int),
                            1, (), 1e4)
    solver = smo._DualSolver(prob)
    solver.solve(1e-9)
    solver._sync_original()
    optimum = solver._beta_orig
    zero = optimum == 0.0
    assert zero.sum() == 392
    rng = np.random.default_rng(0)
    for _ in range(3):
        warm = optimum.copy()
        warm[zero] = rng.uniform(5e-9, 5e-7, zero.sum())
        heavy = (prob.tau * np.sign(prob.tau @ warm) > 0) & ~zero & (warm < prob.penalty)
        warm[heavy] -= (prob.tau @ warm) / prob.tau[heavy].sum()
        sol = smo._DualSolver(prob, warm=warm).solve(1e-6)
        assert sol.gap <= 1e-6 * (1.0 + abs(sol.objective))


# --------------------------------------------------- rank-one whitening

@pytest.mark.parametrize("aa, lam3", [(1.0, 5e-13), (0.25, 2e-11), (3.0, 1e-4), (2.0, 1e3)])
def test_shrink_coefficient_matches_extended_precision(aa, lam3):
    ld_aa = np.longdouble(aa)
    root = np.sqrt(1 + 2 * np.longdouble(lam3) * ld_aa)
    want = (1 / root - 1) / ld_aa
    assert abs(np.longdouble(_shrink_coefficient(aa, lam3)) - want) <= 1e-6 * abs(want)


# --------------------------------------------------- polish face step

def dense_face_step(z, tau, block, grad):
    """The polish step written with an explicit null-space basis: a full SVD
    of the balance matrix and a least-squares solve of the reduced system."""
    blocks = np.unique(block)
    c_mat = np.zeros((blocks.size, tau.size))
    for row, b in enumerate(blocks):
        c_mat[row, block == b] = tau[block == b]
    _, sv, vt = np.linalg.svd(c_mat, full_matrices=True)
    nb = vt[int(np.sum(sv > 1e-12 * sv[0])):].T
    gn = nb.T @ grad
    gn_mat = (tau[:, None] * z).T @ nb
    h = gn_mat.T @ gn_mat
    y = np.linalg.lstsq(h, gn, rcond=None)[0]
    ray = gn - h @ y
    if np.linalg.norm(ray) > 1e-9 * max(1.0, float(np.linalg.norm(gn))):
        return nb @ ray, True
    return nb @ y, False


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("f, d, n_blocks", [(8, 6, 3), (40, 5, 4), (30, 40, 6)])
def test_face_step_matches_the_dense_null_space_formula(seed, f, d, n_blocks):
    """Working sets whose face is bounded (f - blocks <= d: Newton step) and
    unbounded (f - blocks > d: ascent ray), and one with more features than
    duals."""
    rng = np.random.default_rng(seed)
    z = rng.normal(size=(f, d))
    tau = rng.choice([-1.0, 1.0], f)
    block = np.sort(np.concatenate([np.arange(n_blocks), rng.integers(0, n_blocks, f - n_blocks)])) * 3
    grad = rng.normal(size=f)
    step, unbounded = _face_step(z, tau, block, grad)
    want, want_unbounded = dense_face_step(z, tau, block, grad)
    assert unbounded == want_unbounded == (f - n_blocks > d)
    assert np.abs(step - want).max() <= 1e-10 * max(1.0, np.abs(want).max())


def test_face_step_without_freedom_is_none():
    """One dual per block: the balances fix every one of them."""
    step, _ = _face_step(np.ones((3, 2)), np.ones(3), np.array([0, 4, 7]), np.ones(3))
    assert step is None


# --------------------------------------------------- warm-started path vs QP

def test_warm_started_solves_match_the_qp_oracles(monkeypatch):
    """100 samples give 100 and 160 hinge terms; both solves start from the
    interior-point warm start."""
    ds = generate(SynthConfig(samples_per_cell=10, gender_gap=1.0, seed=8))
    X, genders, ranks = ds.features, ds.gender, ds.age_rank
    rng = np.random.default_rng(8)
    w_a = np.eye(ds.dim)[1] + 0.1 * rng.normal(size=ds.dim)
    w_g = np.eye(ds.dim)[0] + 0.1 * rng.normal(size=ds.dim)
    sizes = []
    warm_start = smo._ipm_warm_start
    monkeypatch.setattr(smo, "_ipm_warm_start",
                        lambda prob, budget: sizes.append(prob.z.shape[0]) or warm_start(prob, budget))

    sol = solve_svm(ds, 10.0, anchor=w_a, lambda3=10.0, tol=1e-9)
    ref = svm_oracle(X, genders, 10.0, w_a, 10.0)
    assert abs(sol.objective - ref) <= 1e-9 * (1.0 + abs(ref))

    sol = solve_svor(ds, 10.0, anchor=w_g, lambda3=10.0, split_thresholds=True, tol=1e-9)
    ref = svor_oracle(X, ranks, genders, ds.num_ranks, 10.0, w_g, 10.0, True)
    assert abs(sol.objective - ref) <= 1e-9 * (1.0 + abs(ref))
    assert sizes == [100, 160]


@pytest.mark.parametrize("split", [False, True])
def test_warm_start_hands_over_a_near_optimal_dual_at_large_k(monkeypatch, split):
    """40 ranks as in ages-in-years data: 39 or 78 cuts."""
    cuts = tuple(np.linspace(-20.0, 20.0, 39))
    ds = generate(SynthConfig(num_ranks=40, samples_per_cell=4, male_cut_centers=cuts,
                              discrepancy=1.0, seed=3))
    handed = []
    warm_start = smo._ipm_warm_start
    monkeypatch.setattr(smo, "_ipm_warm_start",
                        lambda prob, budget: handed.append((prob, warm_start(prob, budget))) or handed[-1][1])
    solve_svor(ds, 10.0, split_thresholds=split)
    prob, (beta, _) = handed[0]
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


def test_interior_point_iterations_count_as_steps(monkeypatch):
    """The dual finish starts its step count, and so the budget it spends,
    at the warm start's iterations."""
    ds = generate(SynthConfig(dim=4, samples_per_cell=4, noise_sigma=1.0, seed=0))
    counted, started = [], []
    warm_start, finish = smo._ipm_warm_start, smo._DualSolver.solve

    def recording(prob, budget):
        beta, iterations = warm_start(prob, budget)
        counted.append(iterations)
        return beta, iterations

    monkeypatch.setattr(smo, "_ipm_warm_start", recording)
    monkeypatch.setattr(smo._DualSolver, "solve", lambda self, tol: started.append(self.steps) or finish(self, tol))
    sol = solve_svor(ds, 10.0)
    assert counted[0] > 0 and started == counted
    assert sol.iterations >= counted[0]


def _no_steps(monkeypatch):
    monkeypatch.setattr(smo, "default_budget", lambda shape: 0)


def _primal_never_meets_the_dual(monkeypatch):
    primal = smo._DualSolver._primal
    monkeypatch.setattr(smo._DualSolver, "_primal", lambda self, cuts: primal(self, cuts) + 1e3)


def _ties_always_change(monkeypatch):
    monkeypatch.setattr(smo._DualSolver, "_adjust_ties", lambda self, mtol, stol: True)


@pytest.mark.parametrize("reason, patch", [("budget", _no_steps),
                                           ("eps-floor", _primal_never_meets_the_dual),
                                           ("outer-cap", _ties_always_change)])
def test_non_convergence_names_its_exit(monkeypatch, reason, patch):
    ds = generate(SynthConfig(dim=4, samples_per_cell=4, noise_sigma=1.0, seed=0))
    patch(monkeypatch)
    with pytest.raises(NonConvergence) as raised:
        solve_svor(ds, 10.0)
    assert raised.value.reason == reason
    assert reason in str(raised.value)

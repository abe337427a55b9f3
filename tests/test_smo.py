import dataclasses
import warnings

import numpy as np
import pytest

from genage import Dataset, HyperParams, SynthConfig, TrainConfig, fit, generate, smo, solve_svm, solve_svor, svor
from genage.errors import NonConvergence
from genage.smo import _BOUND_SLACK, _face_step, _ipm_warm_start, _shrink_coefficient

from _oracles import loop_recover_cuts, svm_oracle, svor_oracle


# --------------------------------------------------- interior-point warm start

def sorted_problem(z, tau, cut, n_cuts, chains, lam):
    """The problem of the given terms, stably sorted by cut as the solver reads them."""
    order = np.argsort(cut, kind="stable")
    return smo.HingeProblem(z[order], smo.hinge_terms(tau[order], cut[order], n_cuts, chains), lam)


def random_hinge_problem(seed):
    """Seeded problems: 1-5 cuts with terms, 6-79 terms, d from 1 to more
    than the terms, features scaled by 1e-4, 1 or 1e4, lambda from 1e-2 to
    1e4; some with one one-sided cut, some with every cut one-sided.  Half
    are chained: up to two cuts with no terms go before and after each cut
    with terms, and the cuts are cut into runs, each one chain.  The terms
    are drawn in random cut order, then sorted."""
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
    lam = float(10.0 ** rng.uniform(-2.0, 4.0))
    chains = ()
    if rng.integers(2):
        gaps = rng.integers(0, 3, n_cuts + 1)
        new_id = np.cumsum(gaps[:-1] + 1) - 1
        cut, n_cuts = new_id[cut], int(new_id[-1] + 1 + gaps[-1])
        runs = np.split(np.arange(n_cuts), np.flatnonzero(rng.random(n_cuts - 1) < 0.3) + 1)
        chains = tuple(tuple(int(j) for j in run) for run in runs)
    return sorted_problem(z, tau, cut, n_cuts, chains, lam)


def solve_keeping_duals(prob, monkeypatch, tol=1e-6):
    """solve_hinge_dual's solution and its duals."""
    finish, finished = smo._DualSolver.solve, []
    monkeypatch.setattr(smo._DualSolver, "solve", lambda self, tol: finished.append(self) or finish(self, tol))
    return smo.solve_hinge_dual(prob, tol=tol), finished[-1].beta


def assert_certified_chained_optimum(prob, sol, beta, tol=1e-6):
    """Checks the certificate from the problem alone: the duals are feasible
    (in the box, every order multiplier, the running sum of the cut balances
    along a chain, >= 0, each chain and each unchained cut balanced), the
    cuts are sorted along every chain, and the primal value at the returned
    (v, cuts) exceeds the dual value of the duals by at most tol."""
    lam, slack, terms = prob.penalty, _BOUND_SLACK * prob.penalty, prob.terms
    assert np.all(beta >= 0.0) and np.all(beta <= lam)
    balances = np.bincount(terms.cut, terms.tau * beta, terms.n_cuts)
    unchained = np.ones(terms.n_cuts, dtype=bool)
    for chain in terms.chains:
        sums = np.cumsum(balances[chain])
        assert sums.min() >= -slack
        assert abs(sums[-1]) <= slack
        assert np.all(np.diff(sol.cuts[chain]) >= 0.0)
        unchained[chain] = False
    assert np.abs(balances[unchained]).max(initial=0.0) <= slack
    margins = 1.0 + terms.tau * (prob.z @ sol.v - sol.cuts[terms.cut])
    primal = 0.5 * sol.v @ sol.v + lam * np.clip(margins, 0.0, None).sum()
    assert abs(primal - sol.objective) <= 1e-9 * (1.0 + abs(primal))
    v = prob.z.T @ (terms.tau * beta)
    assert primal - (beta.sum() - 0.5 * v @ v) <= tol * (1.0 + abs(primal))


@pytest.mark.parametrize("seed", range(40))
def test_interior_point_hands_over_a_near_optimal_feasible_dual(seed):
    prob = random_hinge_problem(seed)
    terms = prob.terms
    beta, iterations = _ipm_warm_start(prob)
    assert np.all(beta >= 0.0) and np.all(beta <= prob.penalty)
    both = np.bincount(terms.cut, terms.tau > 0, terms.n_cuts) * np.bincount(terms.cut, terms.tau < 0, terms.n_cuts)
    one_sided = both == 0
    assert np.all(beta[one_sided[terms.cut]] == 0.0)
    solver = smo._DualSolver(prob, warm=beta)
    balance = np.bincount(terms.cut, terms.tau * solver.beta, terms.n_cuts)
    assert np.abs(balance).max() <= 1e-12 * prob.penalty * prob.z.shape[0]
    # the warm start solves the dual without the chains
    unchained = dataclasses.replace(prob, terms=smo.hinge_terms(terms.tau, terms.cut, terms.n_cuts, ()))
    best = smo.solve_hinge_dual(unchained, tol=1e-7).objective
    assert best - solver._dual() <= 1e-6 * (1.0 + abs(best))
    if one_sided.all():
        assert iterations == 0 and not beta.any()


def record_warm_starts(monkeypatch):
    """Patches the warm start to append (problem, duals, iterations) per call."""
    handed, warm_start = [], smo._ipm_warm_start

    def recording(prob):
        beta, iterations = warm_start(prob)
        handed.append((prob, beta, iterations))
        return beta, iterations

    monkeypatch.setattr(smo, "_ipm_warm_start", recording)
    return handed


@pytest.mark.parametrize("variant", ["tt", "st"])
@pytest.mark.parametrize("seed", range(4))
def test_warm_start_iterations_on_the_default_protocol(seed, variant, monkeypatch):
    """Every subproblem of a default fit on the K=5 protocol data: the
    classifier, the shared ladder and, under tt, the split ladders.  From
    the centred start each warm start takes at most 16 iterations; the
    balanced-ray start took 27-31 on the shared ladders."""
    handed = record_warm_starts(monkeypatch)
    fit(generate(SynthConfig(discrepancy=2.0, seed=seed)), TrainConfig(hyper=HyperParams(variant=variant)))
    assert {prob.terms.n_cuts for prob, _, _ in handed} == ({1, 4, 8} if variant == "tt" else {1, 4})
    assert max(iterations for _, _, iterations in handed) <= 16


@pytest.mark.parametrize("variant", ["tt", "st"])
def test_dual_finish_after_the_warm_start_on_extreme_lambdas(variant, monkeypatch):
    """lambda1 = lambda2 = 1e4, lambda3 = 1e7: the warm start's Newton steps
    break on roundoff before its gap closes.  The finish from the iterate it
    hands over stays within 1.1 times the 272 steps it took per shared
    ladder from the balanced-ray start."""
    handed = record_warm_starts(monkeypatch)
    finish, finished = smo._DualSolver.solve, []
    monkeypatch.setattr(smo._DualSolver, "solve",
                        lambda self, tol: finished.append(self) or finish(self, tol))
    hyper = HyperParams(lambda1=1e4, lambda2=1e4, lambda3=1e7, variant=variant)
    fit(generate(SynthConfig(discrepancy=2.0, seed=19)), TrainConfig(hyper=hyper))
    assert len(finished) == len(handed) == 5
    for solver, (_, _, iterations) in zip(finished, handed):
        assert solver.steps - iterations <= 1.1 * 272


@pytest.mark.parametrize("features", ["zero", "constant", "tiny"])
def test_warm_start_from_degenerate_features_raises_no_warning(features):
    """All-zero features give a median curvature of 0, one constant column
    centred features of 0, and features scaled by 1e-6 a median curvature
    below 1e-10: the start and the solve stay free of every warning, and the
    gap is certified."""
    rng = np.random.default_rng(3)
    z = {"zero": np.zeros((60, 4)), "constant": np.full((60, 1), 2.5),
         "tiny": 1e-6 * rng.normal(size=(60, 4))}[features]
    tau = rng.choice([-1.0, 1.0], 60)
    prob = sorted_problem(z, tau, rng.integers(0, 3, 60), 3, ((0, 1, 2),), 10.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        beta, iterations = _ipm_warm_start(prob)
        sol = smo.solve_hinge_dual(prob)
    assert iterations > 0 and np.all(np.isfinite(beta))
    assert sol.gap <= 1e-6 * (1.0 + abs(sol.objective))


def test_features_near_the_smallest_normal_float_fit_without_warning():
    """Three samples at 7.5e-289 beside 0 and 1: the polish's step length to
    the box divides by every dual's step, also by the steps below 1e-300
    whose quotients it discards, and those overflowed."""
    tiny = 7.497207146473134e-289
    ds = Dataset([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]] + [[tiny, 0.0]] * 3, [1, -1, 1, 1, 1, 1], [2, 2, 3, 1, 1, 1])
    fit(ds, TrainConfig(hyper=HyperParams(variant="direct")))


@pytest.mark.parametrize("seed", range(40))
def test_solves_certify_their_gap_from_feasible_chained_duals(seed, monkeypatch):
    prob = random_hinge_problem(seed)
    sol, beta = solve_keeping_duals(prob, monkeypatch)
    assert_certified_chained_optimum(prob, sol, beta)


@pytest.mark.parametrize("chains", [((0, 2),), ((1, 0),), ((0, 1), (1, 2)), ((2, 3),), ((),), ((-1, 0),)])
def test_malformed_chains_are_rejected(chains):
    with pytest.raises(ValueError, match="not a run of consecutive ascending cut ids"):
        smo.hinge_terms(np.array([1.0, -1.0]), np.array([0, 2]), 3, chains)


def test_terms_not_sorted_by_cut_are_rejected():
    """The solver reads each cut's terms as one slice: unsorted terms would
    solve to a wrong answer without an error."""
    with pytest.raises(ValueError, match="sorted by cut"):
        smo.hinge_terms(np.array([1.0, -1.0, 1.0]), np.array([0, 2, 1]), 3, ((0, 1, 2),))
    smo.hinge_terms(np.array([1.0, -1.0, 1.0]), np.array([0, 1, 2]), 3, ((0, 1, 2),))


def test_duals_within_the_bound_slack_are_put_on_their_bound():
    """The classifier at lambda = 1e4 from its certified optimum, with 5e-9 to
    5e-7 put on each zero dual (the slack is 1e-6) and the balance restored:
    the sweeps and the polish count those duals as on the bound, so unless
    the solver puts them there nothing moves them and the gap stays open."""
    ds = generate(SynthConfig(discrepancy=2.0, seed=19))
    tau = -ds.gender.astype(float)
    prob = smo.HingeProblem(ds.features, smo.hinge_terms(tau, np.zeros(tau.size, dtype=int), 1, ()), 1e4)
    solver = smo._DualSolver(prob)
    solver.solve(1e-9)
    optimum = solver.beta
    zero = optimum == 0.0
    assert zero.sum() == 392
    rng = np.random.default_rng(0)
    for _ in range(3):
        warm = optimum.copy()
        warm[zero] = rng.uniform(5e-9, 5e-7, zero.sum())
        heavy = (tau * np.sign(tau @ warm) > 0) & ~zero & (warm < prob.penalty)
        warm[heavy] -= (tau @ warm) / tau[heavy].sum()
        sol = smo._DualSolver(prob, warm=warm).solve(1e-6)
        assert sol.gap <= 1e-6 * (1.0 + abs(sol.objective))


# --------------------------------------------------- chains across empty cuts

def random_hole_problem(rng):
    """A split-ladder subproblem, n 60-299, d 1-9, K 4-11, features x 10^U(-2, 2),
    lambda 10^U(-2, 3), in which the males of a middle run of at least two
    ranks are moved to rank 1 or K: the male ladder gets a cut with no
    terms, and the valued cuts on either side of it tend to cross."""
    n, d, num_ranks = int(rng.integers(60, 300)), int(rng.integers(1, 10)), int(rng.integers(4, 12))
    genders = rng.choice([-1, 1], n)
    ranks = rng.integers(1, num_ranks + 1, n)
    X = rng.normal(size=(n, d))
    X[:, 0] += 0.5 * ranks
    X *= 10.0 ** rng.uniform(-2.0, 2.0)
    first = int(rng.integers(2, num_ranks - 1))
    last = int(rng.integers(first + 1, num_ranks))
    hole = (genders == 1) & (ranks >= first) & (ranks <= last)
    ranks[hole] = rng.choice([1, num_ranks], int(hole.sum()))
    rows, terms = svor._build_terms(ranks, genders, num_ranks, True)
    return smo.HingeProblem(X[rows], terms, float(10.0 ** rng.uniform(-2.0, 3.0)))


def test_split_ladders_with_empty_cuts_solve_to_certified_sorted_ladders(monkeypatch):
    rng = np.random.default_rng(5)
    for _ in range(20):
        prob = random_hole_problem(rng)
        sol, beta = solve_keeping_duals(prob, monkeypatch)
        assert_certified_chained_optimum(prob, sol, beta)


def test_a_tie_opens_and_closes_again_within_one_solve(monkeypatch):
    """Ties are read off the duals: a pair step that moves balance to an
    earlier cut joins the cuts between, and one that moves it back parts
    them where a running sum reaches 0.  This solve does both on one cut."""
    prob = random_hole_problem(np.random.default_rng(14))
    segments, joined = smo._DualSolver._segments, []

    def recording(self):
        out = segments(self)
        joined.append(out[2].copy())
        return out

    monkeypatch.setattr(smo._DualSolver, "_segments", recording)
    sol, beta = solve_keeping_duals(prob, monkeypatch)
    assert_certified_chained_optimum(prob, sol, beta)
    joined = np.array(joined)
    assert not joined[0].any()  # the warm start balances every cut on its own
    opened = joined.argmax(axis=0)
    assert any(joined[:, k].any() and not joined[opened[k]:, k].all() for k in range(prob.terms.n_cuts))


# --------------------------------------------------- cut-value recovery

def tied_solver(prob, rng):
    """A dual solver at feasible random duals with ties: box duals put back
    on the per-cut balances, then pair moves that each take balance from a
    cut to an earlier cut of its chain, which raises the running sums
    between them and so joins those cuts."""
    lam, tau, cut = prob.penalty, prob.terms.tau, prob.terms.cut
    solver = smo._DualSolver(prob, warm=rng.uniform(0.0, lam, tau.size))
    beta = solver.beta
    chain_of = np.full(prob.terms.n_cuts, -1)
    for k, ch in enumerate(prob.terms.chains):
        chain_of[ch] = k
    for i, j in rng.integers(0, tau.size, (2 * tau.size, 2)):
        if cut[i] < cut[j] and chain_of[cut[i]] == chain_of[cut[j]] >= 0:
            room = min(lam - beta[i] if tau[i] > 0 else beta[i], beta[j] if tau[j] > 0 else lam - beta[j])
            h = rng.uniform(0.0, room)
            beta[i] += tau[i] * h
            beta[j] -= tau[j] * h
    solver._refresh()
    return solver


def test_one_pass_cut_recovery_matches_the_per_segment_loop():
    """On 200 random problems at tied feasible duals, which hold segments of
    one orientation, joined segments, chained cuts without terms and cuts
    outside every chain, the recovered cuts equal the per-segment loop's."""
    rng = np.random.default_rng(0)
    seen = dict.fromkeys(["one orientation", "joined", "chained without terms", "unchained"], 0)
    for seed in range(200):
        solver = tied_solver(random_hinge_problem(seed), rng)
        assert np.array_equal(solver._recover_cuts(), loop_recover_cuts(solver))
        segments, _, joined, segment = solver._segments()
        terms = solver.prob.terms
        up = np.bincount(segment[terms.cut], terms.tau > 0, len(segments))
        down = np.bincount(segment[terms.cut], terms.tau < 0, len(segments))
        empty = np.bincount(terms.cut, minlength=terms.n_cuts) == 0
        chained = np.zeros(terms.n_cuts, dtype=bool)
        for ch in terms.chains:
            chained[ch] = True
        seen["one orientation"] += bool(np.any((up == 0) != (down == 0)))
        seen["joined"] += bool(joined.any())
        seen["chained without terms"] += bool(np.any(empty & chained))
        seen["unchained"] += bool(not chained.all())
    assert min(seen.values()) >= 20, seen


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
    """40 ranks as in ages-in-years data: 39 or 78 cuts."""
    cuts = tuple(np.linspace(-20.0, 20.0, 39))
    ds = generate(SynthConfig(num_ranks=40, samples_per_cell=4, male_cut_centers=cuts,
                              discrepancy=1.0, seed=3))
    handed = []
    warm_start = smo._ipm_warm_start
    monkeypatch.setattr(smo, "_ipm_warm_start",
                        lambda prob: handed.append((prob, warm_start(prob))) or handed[-1][1])
    solve_svor(ds, 10.0, split_thresholds=split)
    prob, (beta, _) = handed[0]
    best = smo.solve_hinge_dual(prob, tol=1e-10).objective
    assert best - smo._DualSolver(prob, warm=beta)._dual() <= 1e-6 * best


# --------------------------------------------------- step budget

def test_exhausted_step_budget_raises_non_convergence(monkeypatch):
    """A small ordinal instance (64 terms, four-cut chain) with no steps
    allowed: the typed error reaches the caller with the open gap.  The warm
    start is capped at no iterations too, as it alone certifies this
    instance."""
    ds = generate(SynthConfig(dim=4, samples_per_cell=4, noise_sigma=1.0, seed=0))
    _no_steps(monkeypatch)
    with pytest.raises(NonConvergence) as raised:
        solve_svor(ds, 10.0)
    assert raised.value.gap > 0.0


def test_interior_point_iterations_count_as_steps(monkeypatch):
    """The dual finish starts its step count, and so the budget it spends,
    at the warm start's iterations."""
    ds = generate(SynthConfig(dim=4, samples_per_cell=4, noise_sigma=1.0, seed=0))
    counted, started = [], []
    warm_start, finish = smo._ipm_warm_start, smo._DualSolver.solve

    def recording(prob):
        beta, iterations = warm_start(prob)
        counted.append(iterations)
        return beta, iterations

    monkeypatch.setattr(smo, "_ipm_warm_start", recording)
    monkeypatch.setattr(smo._DualSolver, "solve", lambda self, tol: started.append(self.steps) or finish(self, tol))
    sol = solve_svor(ds, 10.0)
    assert counted[0] > 0 and started == counted
    assert sol.iterations >= counted[0]


def _no_steps(monkeypatch):
    # the warm start's iterations are capped apart from the budget
    monkeypatch.setattr(smo, "default_budget", lambda shape: 0)
    monkeypatch.setattr(smo, "_IPM_CAP", 0)


def _primal_never_meets_the_dual(monkeypatch):
    primal = smo._DualSolver._primal
    monkeypatch.setattr(smo._DualSolver, "_primal", lambda self, cuts: primal(self, cuts) + 1e3)


@pytest.mark.parametrize("reason, patch", [("budget", _no_steps),
                                           ("eps-floor", _primal_never_meets_the_dual)])
def test_non_convergence_names_its_exit(monkeypatch, reason, patch):
    ds = generate(SynthConfig(dim=4, samples_per_cell=4, noise_sigma=1.0, seed=0))
    patch(monkeypatch)
    with pytest.raises(NonConvergence) as raised:
        solve_svor(ds, 10.0)
    assert raised.value.reason == reason
    assert reason in str(raised.value)

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from genage import SynthConfig, generate, smo, solve_svm, solve_svor
from genage.errors import NonConvergence
from genage.smo import _face_step, _line_minimum, _recentre, _shrink_coefficient

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


# --------------------------------------------------- starved-cut re-centring

def cut_value(x, j, r, c, tau, cut, mu, lam, ridge):
    """The smoothed objective's part in cut j with its value moved to x."""
    mine = cut == j
    return lam * smoothed_hinge(r[mine] - tau[mine] * (x - c[j]), mu).sum() + 0.5 * ridge * x * x


def cut_slope(x, j, r, c, tau, cut, mu, lam, ridge):
    mine = cut == j
    return ridge * x - lam * (tau[mine] * np.clip((r[mine] - tau[mine] * (x - c[j])) / mu, 0.0, 1.0)).sum()


@st.composite
def recentre_problems(draw):
    mu = draw(st.floats(1e-3, 1.0))
    n_cuts = draw(st.integers(1, 5))
    size = draw(st.integers(1, 20))
    r = np.array(draw(st.lists(
        st.one_of(st.floats(-3.0, 3.0), st.just(0.0), st.just(mu)), min_size=size, max_size=size)))
    tau = np.array(draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=size, max_size=size)))
    cut = np.array(draw(st.lists(st.integers(0, n_cuts - 1), min_size=size, max_size=size)))
    c = np.array(draw(st.lists(st.floats(-3.0, 3.0), min_size=n_cuts, max_size=n_cuts)))
    chosen = np.array(draw(st.lists(st.booleans(), min_size=n_cuts, max_size=n_cuts)))
    lam = draw(st.floats(0.1, 100.0))
    ridge = draw(st.sampled_from([1e-8, 1e-3, 1.0]))
    return r, c, tau, cut, chosen, mu, lam, ridge


@settings(deadline=None)
@given(recentre_problems())
# cut 0 has every term in the zero zone: only the ridge pulls on it until a
# term reaches the quadratic zone; cut 1 has one term on each zone edge
@example((np.array([-1.0, -2.0, 0.0, 0.5]), np.array([5.0, -1.0]), np.array([1.0, 1.0, -1.0, 1.0]),
          np.array([0, 0, 1, 1]), np.array([True, True]), 0.5, 1.0, 0.1))
def test_recentre_minimises_each_chosen_cut_exactly(problem):
    r, c, tau, cut, chosen, mu, lam, ridge = problem
    new_r, new_c = _recentre(r, c, tau, cut, chosen, mu, lam, ridge)
    args = (r, c, tau, cut, mu, lam, ridge)
    for j in range(c.size):
        mine = cut == j
        if not chosen[j]:
            assert new_c[j] == c[j] and np.array_equal(new_r[mine], r[mine])
            continue
        x = new_c[j]
        assert np.allclose(new_r[mine], r[mine] - tau[mine] * (x - c[j]), rtol=0.0, atol=1e-12 * max(1.0, abs(x)))
        # one-sided derivatives bracket 0
        eps = 1e-7 * max(1.0, abs(x))
        scale = 1e-9 * (lam * max(1, mine.sum()) / mu + ridge * abs(x))
        assert cut_slope(x - eps, j, *args) <= scale
        assert cut_slope(x + eps, j, *args) >= -scale
        # and the value is a grid minimum that includes every breakpoint
        edges = np.concatenate([c[j] + r[mine] / tau[mine], c[j] + (r[mine] - mu) / tau[mine]])
        grid = np.concatenate([np.linspace(c[j] - 2.0 * abs(x - c[j]) - 1.0,
                                           c[j] + 2.0 * abs(x - c[j]) + 1.0, 2001), edges, [0.0]])
        best = min(cut_value(g, j, *args) for g in grid)
        value = cut_value(x, j, *args)
        assert value <= best + 1e-12 * max(1.0, abs(best))
    # the smoothed value cannot rise
    before = lam * smoothed_hinge(r, mu).sum() + 0.5 * ridge * (c @ c)
    after = lam * smoothed_hinge(new_r, mu).sum() + 0.5 * ridge * (new_c @ new_c)
    assert after <= before + 1e-12 * max(1.0, abs(before))


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
    smoothed-Newton warm start."""
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

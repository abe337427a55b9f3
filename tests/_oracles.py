"""Independent reference solvers used to verify the production solvers.

Both subproblems are posed as dense convex QPs over (w, cuts, slacks) and
handed to generic scipy minimizers; nothing here shares code with the
package's own dual-ascent path.  Returned objectives are evaluated through
the slack-free hinge form, so any feasible iterate yields a valid value.
"""

import numpy as np
from scipy.optimize import LinearConstraint, minimize


def hinge_qp_oracle(X, anchor, lam3, penalty, terms, n_cuts, chains):
    """Minimize 0.5 w'Mw + penalty * slacks over the slack formulation.

    ``terms`` is a list of (row_index, tau, cut_id); M = I + 2*lam3*a a'.
    """
    n, d = X.shape
    t_count = len(terms)
    nv = d + n_cuts + t_count

    metric = np.eye(d)
    if anchor is not None and lam3 > 0:
        metric = metric + 2.0 * lam3 * np.outer(anchor, anchor)

    def obj(theta):
        w = theta[:d]
        return 0.5 * w @ metric @ w + penalty * theta[d + n_cuts:].sum()

    def jac(theta):
        g = np.zeros(nv)
        g[:d] = metric @ theta[:d]
        g[d + n_cuts:] = penalty
        return g

    rows, lower = [], []
    for t, (i, tau, cut) in enumerate(terms):
        # tau*(w.x - c) + 1 <= xi   ->   -tau*w.x + tau*c + xi >= 1
        row = np.zeros(nv)
        row[:d] = -tau * X[i]
        row[d + cut] = tau
        row[d + n_cuts + t] = 1.0
        rows.append(row)
        lower.append(1.0)
        row = np.zeros(nv)
        row[d + n_cuts + t] = 1.0
        rows.append(row)
        lower.append(0.0)
    for chain in chains:
        for a, b in zip(chain, chain[1:]):
            row = np.zeros(nv)
            row[d + b] = 1.0
            row[d + a] = -1.0
            rows.append(row)
            lower.append(0.0)
    a_mat = np.array(rows)
    lb = np.array(lower)

    def hinge_form(theta):
        w = theta[:d]
        c = theta[d:d + n_cuts]
        total = 0.5 * w @ metric @ w
        for (i, tau, cut) in terms:
            total += penalty * max(0.0, 1.0 + tau * (X[i] @ w - c[cut]))
        return total

    constraints = [{
        "type": "ineq",
        "fun": lambda th: a_mat @ th - lb,
        "jac": lambda th: a_mat,
    }]
    best = np.inf
    res = minimize(obj, np.zeros(nv), jac=jac, constraints=constraints,
                   method="SLSQP", options={"maxiter": 1000, "ftol": 1e-14})
    best = min(best, hinge_form(res.x))
    res = minimize(obj, np.zeros(nv), jac=jac, method="trust-constr",
                   constraints=[LinearConstraint(a_mat, lb, np.inf)],
                   options={"maxiter": 3000, "gtol": 1e-12, "xtol": 1e-14})
    return min(best, hinge_form(res.x))


def svm_oracle(X, y, lam1, anchor, lam3):
    terms = [(i, -float(y[i]), 0) for i in range(X.shape[0])]
    return hinge_qp_oracle(X, anchor, lam3, lam1, terms, 1, ())


def svor_oracle(X, ranks, genders, num_ranks, lam2, anchor, lam3, split):
    per = num_ranks - 1
    terms = []
    for i in range(X.shape[0]):
        k = int(ranks[i])
        base = per if (split and genders[i] == -1) else 0
        if k <= per:
            terms.append((i, 1.0, base + k - 1))
        if k >= 2:
            terms.append((i, -1.0, base + k - 2))
    if split:
        chains = (tuple(range(per)), tuple(range(per, 2 * per)))
        n_cuts = 2 * per
    else:
        chains = (tuple(range(per)),)
        n_cuts = per
    return hinge_qp_oracle(X, anchor, lam3, lam2, terms, n_cuts, chains)


def subgradient_svm_oracle(X, y, lam1, anchor, lam3, iters=200000):
    """Plain subgradient descent on the same convex objective, best iterate."""
    d = X.shape[1]
    metric = np.eye(d)
    if anchor is not None and lam3 > 0:
        metric = metric + 2.0 * lam3 * np.outer(anchor, anchor)
    w = np.zeros(d)
    b = 0.0
    best = np.inf
    for t in range(1, iters + 1):
        active = 1.0 - y * (X @ w + b) > 0
        gw = metric @ w - lam1 * (y[active, None] * X[active]).sum(axis=0)
        gb = -lam1 * y[active].sum()
        norm = np.sqrt(gw @ gw + gb * gb)
        if norm > 0:
            step = 0.5 / np.sqrt(t)
            w = w - step * gw / norm
            b = b - step * gb / norm
        value = 0.5 * w @ metric @ w + lam1 * np.clip(1.0 - y * (X @ w + b), 0.0, None).sum()
        best = min(best, value)
    return best


def random_svm_instance(rng):
    n = int(rng.integers(4, 13))
    d = int(rng.integers(1, 3))
    X = rng.normal(size=(n, d)) * 3.0
    y = rng.choice([-1, 1], size=n)
    while np.all(y == y[0]):
        y = rng.choice([-1, 1], size=n)
    lam1 = float(10.0 ** rng.uniform(-1, 1))
    lam3 = float(rng.choice([0.0, 10.0 ** rng.uniform(-1, 1.5)]))
    anchor = rng.normal(size=d)
    return X, y, lam1, anchor, lam3


def random_svor_instance(rng):
    n = int(rng.integers(6, 13))
    d = int(rng.integers(1, 3))
    num_ranks = int(rng.integers(2, 4))
    X = rng.normal(size=(n, d)) * 3.0
    genders = rng.choice([-1, 1], size=n)
    ranks = rng.integers(1, num_ranks + 1, size=n)
    for _ in range(500):
        if all(np.unique(ranks[genders == s]).size >= 2 for s in (-1, 1)):
            break
        genders = rng.choice([-1, 1], size=n)
        ranks = rng.integers(1, num_ranks + 1, size=n)
    else:
        genders[:4] = (1, 1, -1, -1)
        ranks[:4] = (1, 2, 1, 2)
    lam2 = float(10.0 ** rng.uniform(-1, 1))
    lam3 = float(rng.choice([0.0, 10.0 ** rng.uniform(-1, 1.5)]))
    anchor = rng.normal(size=d)
    split = bool(rng.integers(0, 2))
    return X, ranks, genders, num_ranks, lam2, anchor, lam3, split


def random_svor_holes_instance(rng):
    """A split-ladder instance in which each gender misses a run of two or
    three ranks, at the start, in the middle or at the end of 1..K (K <= 6).

    Two missing ranks in a row leave a cut with no hinge terms in that
    gender's ladder; the ranks present still number at least two per gender.
    """
    num_ranks = int(rng.integers(4, 7))
    d = int(rng.integers(1, 3))
    ranks, genders = [], []
    for gender in (1, -1):
        width = int(rng.integers(2, min(3, num_ranks - 2) + 1))
        start = (1, int(rng.integers(2, num_ranks - width + 1)), num_ranks - width + 1)[int(rng.integers(3))]
        present = np.setdiff1d(np.arange(1, num_ranks + 1), np.arange(start, start + width))
        count = int(rng.integers(4, 11))
        drawn = rng.choice(present, size=count)
        drawn[:2] = present[0], present[-1]
        ranks.append(drawn)
        genders.append(np.full(count, gender))
    ranks, genders = np.concatenate(ranks), np.concatenate(genders)
    X = rng.normal(size=(ranks.size, d)) * 3.0
    lam2 = float(10.0 ** rng.uniform(-1, 2))
    lam3 = float(rng.choice([0.0, 10.0 ** rng.uniform(-1, 1.5)]))
    anchor = rng.normal(size=d)
    return X, ranks, genders, num_ranks, lam2, anchor, lam3

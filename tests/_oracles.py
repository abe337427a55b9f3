"""Independent references used to verify the production solvers and losses.

Both subproblems are posed as dense convex QPs over (w, cuts, slacks) and
handed to generic scipy minimizers; nothing here shares code with the
package's own dual-ascent path.  Returned objectives are evaluated through
the slack-free hinge form, so any feasible iterate yields a valid value.
The subproblem losses are also written as loops over the samples, which
share no code with the package's hinge-term builder, and the evaluation
harness's folds and splits as loops over the (gender, rank) cells, which
share no code with its single sort of the rows.  The trainer's alternation
is written out plainly on the package's own solvers and objective, to pin
the control flow of ``fit``, not its solvers.
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

    # the objective is quadratic in w and linear in the cuts and slacks
    hessian = np.zeros((nv, nv))
    hessian[:d, :d] = metric

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
    res = minimize(obj, np.zeros(nv), jac=jac, hess=lambda theta: hessian, method="trust-constr",
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


def loop_hinge(X, y, w, b):
    """The classifier hinge total, written sample by sample."""
    return sum(max(0.0, 1.0 - label * (x @ w + b)) for x, label in zip(X, y))


def loop_slacks(scores, ranks, genders, cuts_male, cuts_female):
    """The ordinal slack total, written sample by sample."""
    total = 0.0
    for score, k, g in zip(scores, ranks, genders):
        cuts = cuts_male if g == 1 else cuts_female
        if k <= len(cuts):
            total += max(0.0, 1.0 + score - cuts[k - 1])
        if k >= 2:
            total += max(0.0, 1.0 - score + cuts[k - 2])
    return total


def loop_quadratic(w, anchor, lam3):
    """0.5 |w|^2 plus the coupling lam3 * (w . anchor)^2, none without an anchor."""
    return 0.5 * w @ w + (0.0 if anchor is None else lam3 * (w @ anchor) ** 2)


def loop_svm_objective(X, y, lam1, anchor, lam3, w, b):
    """The classifier subproblem objective at (w, b) through :func:`loop_hinge`."""
    return loop_quadratic(w, anchor, lam3) + lam1 * loop_hinge(X, y, w, b)


def loop_svor_objective(X, ranks, genders, lam2, anchor, lam3, w, cuts_male, cuts_female):
    """The ordinal subproblem objective at (w, ladders) through :func:`loop_slacks`."""
    return loop_quadratic(w, anchor, lam3) + lam2 * loop_slacks(X @ w, ranks, genders, cuts_male, cuts_female)


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


def loop_stratified_folds(gender, age_rank, num_ranks, folds):
    """Fold of each row: round robin within each cell, males then females,
    ranks ascending, with the running count of rows as the offset."""
    assignment = np.empty(len(gender), dtype=int)
    offset = 0
    for g in (1, -1):
        for rank in range(1, num_ranks + 1):
            idx = np.flatnonzero((gender == g) & (age_rank == rank))
            assignment[idx] = (np.arange(idx.size) + offset) % folds
            offset += idx.size
    return [np.flatnonzero(assignment == f) for f in range(folds)]


def loop_split(gender, age_rank, num_ranks, train_per_rank, rng):
    """Sorted (train, test) row indices: each nonempty cell, in the fold
    order, draws one permutation and trains on its first rows."""
    want = max(1, int(round(train_per_rank / 2)))
    train, test = [], []
    for g in (1, -1):
        for rank in range(1, num_ranks + 1):
            idx = np.flatnonzero((gender == g) & (age_rank == rank))
            if idx.size:
                perm = rng.permutation(idx.size)
                train.extend(idx[perm[:want]])
                test.extend(idx[perm[want:]])
    return np.sort(np.array(train, dtype=int)), np.sort(np.array(test, dtype=int))


def alternation_oracle(ds, hyper):
    """The alternating trainer, one block after the other, on a fresh copy
    of ``ds``: the gender-blind init, then per round the classifier block
    and (except for ``direct``, whose init already solves it) the ordinal
    block, each kept only if the joint objective does not rise, and the
    stop test on the change over a round.  Returns a GenAgeModel."""
    from genage import Dataset, GenAgeModel, Variant, objective_value, solve_svm, solve_svor

    ds = Dataset(ds.features, ds.gender, ds.age_rank, num_ranks=ds.num_ranks)
    variant = hyper.variant
    decoupled = variant in (Variant.DIRECT, Variant.TWO_STEP)
    if decoupled:
        hyper = hyper.replace(lambda3=0.0)
    init = solve_svor(ds, hyper.lambda2, anchor=None, lambda3=0.0, split_thresholds=False, tol=hyper.tol)
    w_g, b_g, w_a, ladder_m, ladder_f = np.zeros(ds.dim), 0.0, init.w, init.ladder_male, init.ladder_female
    trace = [objective_value(ds, hyper, w_g, b_g, w_a, ladder_m, ladder_f)]
    for t in range(1, (1 if decoupled else hyper.t_max) + 1):
        svm = solve_svm(ds, hyper.lambda1, anchor=w_a, lambda3=hyper.lambda3, tol=hyper.tol)
        value = objective_value(ds, hyper, svm.w, svm.b, w_a, ladder_m, ladder_f)
        if value <= trace[-1]:
            w_g, b_g = svm.w, svm.b
            trace.append(value)
        else:
            trace.append(trace[-1])

        if variant is Variant.DIRECT:
            trace.append(trace[-1])
            continue
        svor = solve_svor(ds, hyper.lambda2, anchor=w_g, lambda3=hyper.lambda3,
                          split_thresholds=variant in (Variant.TT, Variant.TWO_STEP), tol=hyper.tol)
        value = objective_value(ds, hyper, w_g, b_g, svor.w, svor.ladder_male, svor.ladder_female)
        if value <= trace[-1]:
            w_a, ladder_m, ladder_f = svor.w, svor.ladder_male, svor.ladder_female
            trace.append(value)
        else:
            trace.append(trace[-1])

        if t >= 2 and abs(trace[-3] - trace[-1]) <= hyper.tol * max(1.0, abs(trace[-3])):
            break
    return GenAgeModel(w_g=w_g, b_g=b_g, w_a=w_a, ladder_male=ladder_m, ladder_female=ladder_f,
                       variant=variant, objective_trace=tuple(trace))

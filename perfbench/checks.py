"""Correctness checks computed apart from the program.

Each check raises :class:`CheckFailed` with a message naming what broke.
The objective, the decision rules and the quadratic programs are written
here from the method's definition in plain numpy/scipy; none of them calls
into ``genage``.  The checks run outside every timed span.
"""

from __future__ import annotations

import numpy as np

MALE, FEMALE = 1, -1


class CheckFailed(AssertionError):
    pass


def require(condition, message):
    if not condition:
        raise CheckFailed(message)


def _slacks(scores, ranks, genders, cuts_male, cuts_female):
    """Ordinal margin violations: below cut k and above cut k-1, unit margin."""
    total = 0.0
    for gender, cuts in ((MALE, np.asarray(cuts_male)), (FEMALE, np.asarray(cuts_female))):
        mask = genders == gender
        s, k = scores[mask], ranks[mask]
        upper = k <= cuts.size
        lower = k >= 2
        total += np.maximum(0.0, 1.0 + s[upper] - cuts[k[upper] - 1]).sum()
        total += np.maximum(0.0, 1.0 - s[lower] + cuts[k[lower] - 2]).sum()
    return float(total)


def joint_objective(X, genders, ranks, model, lambda1, lambda2, lambda3):
    """0.5|w_g|^2 + l1*hinge + 0.5|w_a|^2 + l2*slacks + l3*(w_g.w_a)^2."""
    w_g, w_a = np.asarray(model["w_g"]), np.asarray(model["w_a"])
    hinge = np.maximum(0.0, 1.0 - genders * (X @ w_g + model["b_g"])).sum()
    slacks = _slacks(X @ w_a, ranks, genders, model["ladder_male"], model["ladder_female"])
    return (0.5 * float(w_g @ w_g) + lambda1 * float(hinge) + 0.5 * float(w_a @ w_a)
            + lambda2 * slacks + lambda3 * float(w_g @ w_a) ** 2)


def check_fit(label, model, X, genders, ranks, hyper):
    """Descent, the recomputed objective, and the ladder properties of one fit.

    ``model`` is the model JSON layout (``genage.cli.model_to_dict``).  The
    decoupled variants are trained, and traced, with the coupling switched off.
    """
    variant = model["variant"]
    trace = np.asarray(model["objective_trace"])
    require(trace.size >= 2, f"{label}: objective trace has {trace.size} entries")
    require(np.all(np.diff(trace) <= 0.0), f"{label}: objective trace increases: {trace.tolist()}")
    lambda3 = 0.0 if variant in ("direct", "2step") else hyper.lambda3
    value = joint_objective(X, genders, ranks, model, hyper.lambda1, hyper.lambda2, lambda3)
    require(abs(value - trace[-1]) <= 1e-9 * abs(value),
            f"{label}: recomputed objective {value!r} != last trace entry {trace[-1]!r}")
    for side in ("ladder_male", "ladder_female"):
        require(np.all(np.diff(model[side]) >= 0.0), f"{label}: {side} decreases")
    if variant in ("direct", "st"):
        require(model["ladder_male"] == model["ladder_female"],
                f"{label}: shared-ladder variant has two different ladders")


def decide(model, X):
    """sign(X.w_g + b_g), then 1 + #{cuts <= X.w_a} on the predicted gender's ladder."""
    genders = np.where(X @ np.asarray(model["w_g"]) + model["b_g"] >= 0.0, MALE, FEMALE)
    scores = X @ np.asarray(model["w_a"])
    ranks = np.empty(len(X), dtype=np.int64)
    for gender, side in ((MALE, "ladder_male"), (FEMALE, "ladder_female")):
        mask = genders == gender
        cuts = np.asarray(model[side])
        ranks[mask] = 1 + (scores[mask, None] >= cuts[None, :]).sum(axis=1)
    return genders, ranks


def decide_pls(pls, X):
    """Gender from the sign of the first output, rank from the rounded, clamped second."""
    raw = (X - pls.x_mean) @ pls.coefficients + pls.y_mean
    genders = np.where(raw[:, 0] >= 0.0, MALE, FEMALE)
    ranks = np.clip(np.rint(raw[:, 1]), 1, pls.num_ranks).astype(np.int64)
    return genders, ranks


def check_predictions(label, got_genders, got_ranks, want_genders, want_ranks):
    got_genders, got_ranks = np.asarray(got_genders), np.asarray(got_ranks)
    require(got_genders.shape == want_genders.shape, f"{label}: {got_genders.shape[0]} rows, "
            f"expected {want_genders.shape[0]}")
    bad = np.flatnonzero((got_genders != want_genders) | (got_ranks != want_ranks))
    require(bad.size == 0, f"{label}: {bad.size} predictions differ from the decision rule, "
            f"first at row {bad[:1].tolist()}")


def read_prediction_csv(path):
    """The ``gender,age`` file written by ``genage predict``."""
    with open(path, encoding="utf-8") as handle:
        header = handle.readline().strip()
        require(header == "gender,age", f"{path}: header {header!r}")
        rows = [line.rstrip("\n").split(",") for line in handle if line.strip()]
    genders = np.array([MALE if g == "M" else FEMALE for g, _ in rows], dtype=np.int64)
    ages = np.array([int(a) for _, a in rows], dtype=np.int64)
    return genders, ages


def check_pls_is_ols(coefficients, X, Y):
    """PLS with every component spans the whole input space, so it is least squares."""
    Xc, Yc = X - X.mean(axis=0), Y - Y.mean(axis=0)
    ols = np.linalg.lstsq(Xc, Yc, rcond=None)[0]
    err = float(np.abs(coefficients - ols).max() / np.abs(ols).max())
    require(err <= 1e-8, f"PLS with n_components=d differs from OLS by {err:.3e} relative")


def hinge_qp(X, metric, penalty, terms, n_cuts, chains):
    """min 0.5 w'Mw + penalty*sum(xi)  s.t.  xi_t >= 1 + tau_t (w.x_t - c_cut_t), xi >= 0,
    and c non-decreasing along each chain; solved as a dense QP by SLSQP.

    ``terms`` holds (row, tau, cut) triples.  The QP is posed in v = L^T w for
    the Cholesky factor M = L L^T, which makes the quadratic term 0.5|v|^2;
    with a large coupling M is too ill-conditioned for SLSQP to reach 1e-5.
    Returns the objective evaluated in hinge form at the solution, in the
    original coordinates and with the cuts put back in order, so the value
    is a valid upper bound.
    """
    from scipy.optimize import minimize

    back = np.linalg.inv(np.linalg.cholesky(metric)).T   # w = back @ v
    X_orig, X = X, X @ back
    d = X.shape[1]
    rows = np.array([t[0] for t in terms])
    tau = np.array([t[1] for t in terms], dtype=float)
    cut = np.array([t[2] for t in terms])
    n_terms = len(terms)
    nv = d + n_cuts + n_terms
    A = np.zeros((2 * n_terms, nv))
    lb = np.zeros(2 * n_terms)
    idx = np.arange(n_terms)
    A[idx, :d] = -tau[:, None] * X[rows]
    A[idx, d + cut] = tau
    A[idx, d + n_cuts + idx] = 1.0
    lb[:n_terms] = 1.0
    A[n_terms + idx, d + n_cuts + idx] = 1.0
    order = []
    for chain in chains:
        for a, b in zip(chain, chain[1:]):
            row = np.zeros(nv)
            row[d + b], row[d + a] = 1.0, -1.0
            order.append(row)
    if order:
        A = np.vstack([A, order])
        lb = np.concatenate([lb, np.zeros(len(order))])

    def objective(theta):
        v = theta[:d]
        return 0.5 * v @ v + penalty * theta[d + n_cuts:].sum()

    def gradient(theta):
        g = np.zeros(nv)
        g[:d] = theta[:d]
        g[d + n_cuts:] = penalty
        return g

    res = minimize(objective, np.zeros(nv), jac=gradient, method="SLSQP",
                   constraints=[{"type": "ineq", "fun": lambda th: A @ th - lb, "jac": lambda th: A}],
                   options={"maxiter": 2000, "ftol": 1e-15})
    w, c = back @ res.x[:d], res.x[d:d + n_cuts].copy()
    for chain in chains:  # SLSQP may leave the order violated by rounding
        c[list(chain)] = np.maximum.accumulate(c[list(chain)])
    hinge = np.maximum(0.0, 1.0 + tau * (X_orig[rows] @ w - c[cut])).sum()
    return 0.5 * float(w @ metric @ w) + penalty * float(hinge)


def svm_qp(X, genders, lambda1, anchor, lambda3):
    metric = np.eye(X.shape[1]) + 2.0 * lambda3 * np.outer(anchor, anchor)
    terms = [(i, -float(genders[i]), 0) for i in range(len(X))]
    return hinge_qp(X, metric, lambda1, terms, 1, ())


def svor_qp(X, genders, ranks, num_ranks, lambda2, anchor, lambda3):
    """The split-ladder ordinal subproblem: female cuts follow the male ones."""
    metric = np.eye(X.shape[1]) + 2.0 * lambda3 * np.outer(anchor, anchor)
    per = num_ranks - 1
    terms = []
    for i in range(len(X)):
        base = per if genders[i] == FEMALE else 0
        if ranks[i] <= per:
            terms.append((i, 1.0, base + ranks[i] - 1))
        if ranks[i] >= 2:
            terms.append((i, -1.0, base + ranks[i] - 2))
    chains = (tuple(range(per)), tuple(range(per, 2 * per)))
    return hinge_qp(X, metric, lambda2, terms, 2 * per, chains)


def svm_value(X, genders, lambda1, anchor, lambda3, w, b):
    """The SVM subproblem objective at (w, b)."""
    metric = np.eye(X.shape[1]) + 2.0 * lambda3 * np.outer(anchor, anchor)
    hinge = np.maximum(0.0, 1.0 - genders * (X @ w + b)).sum()
    return 0.5 * float(w @ metric @ w) + lambda1 * float(hinge)


def svor_value(X, genders, ranks, lambda2, anchor, lambda3, w, cuts_male, cuts_female):
    """The split-ladder ordinal subproblem objective at (w, cuts); the cuts must be in order."""
    for cuts in (cuts_male, cuts_female):
        require(np.all(np.diff(cuts) >= 0.0), f"subproblem ladder is not non-decreasing: {list(cuts)}")
    metric = np.eye(X.shape[1]) + 2.0 * lambda3 * np.outer(anchor, anchor)
    return 0.5 * float(w @ metric @ w) + lambda2 * _slacks(X @ w, ranks, genders, cuts_male, cuts_female)


def check_optimal(label, got, value, reference, gap_tol):
    """``got`` is the program's optimum at duality-gap target ``gap_tol``,
    ``value`` the objective recomputed here at the program's point, and
    ``reference`` the objective at the QP's solution.

    ``got`` must be the objective of the point returned, so it bounds the
    optimum from above.  ``reference`` is the objective at a feasible point,
    so it bounds the optimum from above too, and a solver that meets its
    relative gap target cannot exceed it by more than ``gap_tol * (1 +
    |got|)``: a point short of the optimum fails here.  ``got`` may lie below
    ``reference`` by any amount: SLSQP can stop short of the optimum on a
    failed line search, and the program's point is then the better one.
    """
    require(abs(got - value) <= 1e-9 * (1.0 + abs(value)),
            f"{label}: reported objective {got!r} != {value!r} recomputed at the returned point")
    excess = (got - reference) / abs(reference)
    require(got - reference <= gap_tol * (1.0 + abs(got)),
            f"{label}: {got!r} vs QP reference {reference!r} ({excess:+.2e} relative)")

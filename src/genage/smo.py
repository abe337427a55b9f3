"""Shared dual-ascent core for the two margin subproblems.

After the rank-one metric substitution both subproblems take the form

    min_{v, c}   0.5 ||v||^2 + penalty * sum_t max(0, 1 + tau_t * (v.z_t - c[cut_t]))
    subject to   c[j] <= c[j+1] along each declared chain of cuts,

where each hinge term t carries a feature row ``z_t``, an orientation
``tau_t`` (+1 pushes the score below its cut by the unit margin, -1 pushes
it above) and the index of the cut it references.  The gender classifier is
the special case of a single cut (the negated bias) and no chain.

The box-constrained dual is ascended with pairwise SMO steps that preserve
the per-cut balance constraints ``sum_{t in cut} tau_t beta_t = 0``; each
sweep applies one second-order-selected pair per tie block.  Order
constraints between cuts are handled by an active-set loop over tie
patterns: neighbouring cuts whose unconstrained optima cross are merged
into one block, together with any cuts between them that hold no terms,
and blocks whose internal multipliers turn negative are split again.  Cut
values are recovered from the exact one-dimensional piecewise-linear
minimization given the current v, which keeps the reported primal value a
true upper bound for the duality-gap stopping test.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonConvergence

_BOUND_SLACK = 1e-10


def rank1_shrink(anchor, lam3):
    """Return f(X) = M^{-1/2} X for M = I + 2*lam3*anchor*anchor^T.

    The map is symmetric, so it both whitens features (z = f(x)) and maps the
    whitened weight back (w = f(v)).  With a zero anchor or lam3 = 0 it is the
    identity.
    """
    if anchor is None or lam3 == 0.0:
        return lambda X: np.asarray(X, dtype=float)
    anchor = np.asarray(anchor, dtype=float)
    aa = float(anchor @ anchor)
    if aa == 0.0:
        return lambda X: np.asarray(X, dtype=float)
    q = _shrink_coefficient(aa, lam3)

    def apply(X):
        X = np.asarray(X, dtype=float)
        proj = X @ anchor
        return X + np.multiply.outer(proj, q * anchor) if X.ndim > 1 else X + (q * proj) * anchor

    return apply


def _shrink_coefficient(aa, lam3):
    """q with M^{-1/2} = I + q*a*a^T, i.e. (1/sqrt(1 + x) - 1) / |a|^2 for x = 2*lam3*|a|^2.

    Written without the subtraction, which cancels to nothing for small x.
    """
    root = np.sqrt(1.0 + 2.0 * lam3 * aa)
    return -2.0 * lam3 / (root * (1.0 + root))


@dataclass
class HingeProblem:
    """One instance of the reduced subproblem (features already whitened)."""

    z: np.ndarray          # (T, d) feature rows
    tau: np.ndarray        # (T,) orientations, +-1
    cut: np.ndarray        # (T,) cut index per term
    n_cuts: int
    chains: tuple          # ordered tuples of cut ids that must stay sorted
    penalty: float


@dataclass
class HingeSolution:
    v: np.ndarray
    cuts: np.ndarray
    objective: float       # primal value in the whitened coordinates
    gap: float
    steps: int


_MU_FLOOR = 1e-3  # smallest smoothing width of the warm start's path
_NEWTON_CAP = 200  # Newton steps per smoothing level; the benchmark's fits need at most 83
_POLISH_ROUNDS = 60  # Newton face steps per polish
_POLISH_CAP = 600  # largest working set the polish factorizes
_POLISH_RECRUIT = 48  # bound-sitting KKT violators added to the first working set


def _kinks(r, q, mu, t_hi):
    """Where the residuals r + t*q enter and leave the quadratic zone (0, mu).

    Returns the mask of terms inside the zone just after t = 0 (a residual
    on a zone edge goes the way q points; at theta = 0 and mu = 1 every
    residual equals mu exactly), and the unsorted crossings in (0, t_hi):
    their times, the crossing terms and the sign of the change in phi''s
    slope, +1 for a residual entering the zone and -1 for one leaving it.
    ``t_hi`` is a scalar or one bound per term.  The tests are made on
    distances along q, so no time outside the window is ever formed and a q
    of 0 (no crossing) or near 0 (a time near the float maximum) needs no
    special case.
    """
    sign = np.sign(q)
    aq = sign * q
    dist = np.subtract.outer((0.0, mu), r)
    dist *= sign  # distances along q to the edges 0 and mu, times |q|
    # a residual is in the zone when it has passed the nearer edge but not the farther
    inside = (dist.min(axis=0) <= 0.0) & (dist.max(axis=0) > 0.0)
    ahead = np.flatnonzero((dist > 0.0) & (dist < t_hi * aq))
    term = ahead % r.size
    # the nearer edge is 0 for a rising residual and mu for a falling one
    entering = (ahead < r.size) == (sign[term] > 0.0)
    return inside, dist.ravel()[ahead] / aq[term], term, np.where(entering, 1.0, -1.0)


def _line_minimum(r, q, mu, lam, a, b):
    """Exact minimiser over t >= 0 of the convex piecewise quadratic

        phi(t) = a*t + 0.5*b*t**2 + lam * sum_i H(r_i + t*q_i),

    where H is the hinge smoothed over width mu (0 below 0, x**2/(2*mu) up
    to mu, x - mu/2 beyond) and b > 0.  phi' is continuous and piecewise
    linear, with breakpoints where a residual crosses 0 or mu.  Sorting them
    and accumulating the slope changes (+-q**2 as a residual enters or
    leaves the quadratic zone) gives phi' at every breakpoint in one pass;
    the segment holding its first sign change is then rebuilt from r and q
    directly, so the accumulated roundoff never enters the answer.
    """
    k = lam / mu
    intercept = a + k * (q @ np.minimum(np.maximum(r, 0.0), mu))  # phi'(0)
    if intercept >= 0.0:
        return 0.0
    # each smoothed-hinge slope lies in [0, 1], so phi' >= a + b*t + lam*sum(min(q, 0))
    # and the minimiser lies below t_hi; later breakpoints cannot matter
    t_hi = -(lam * np.minimum(q, 0.0).sum() + a) / b
    inside, times, term, sign = _kinks(r, q, mu, t_hi)
    kq2 = k * q * q
    slope = b + kq2 @ inside
    t = -intercept / slope
    if not times.size or t <= times.min():
        return float(min(t, t_hi))  # the first segment's line is exact
    order = np.argsort(times)
    times, change = times[order], (kq2[term] * sign)[order]
    # phi' is continuous, so a slope change at time s moves the intercept by
    # minus its product with s
    dphi = intercept - np.cumsum(change * times) + (slope + np.cumsum(change)) * times
    j = int(np.argmax(dphi >= 0.0))
    if dphi[j] >= 0.0:
        lo, hi = (times[j - 1] if j else 0.0), times[j]
    else:
        lo, hi = times[-1], t_hi
    mid = 0.5 * (lo + hi)
    x = r + mid * q
    deriv = a + b * mid + k * (q @ np.minimum(np.maximum(x, 0.0), mu))
    slope = b + kq2 @ ((x > 0.0) & (x < mu))
    return float(min(max(mid - deriv / slope, lo), hi))


def _segment_minima(r, q, seg, mu, lam, a, b):
    """Exact minimisers over t >= 0 of ``len(a)`` independent problems of
    :func:`_line_minimum`'s form, problem s holding the terms with seg == s:

        phi_s(t) = a[s]*t + 0.5*b[s]*t**2 + lam * sum_{seg_i = s} H(r_i + t*q_i).

    All breakpoints are sorted once by (problem, time), and running sums
    restarted at each problem's first breakpoint give every phi_s' at its
    breakpoints in one pass; each problem's segment holding its first sign
    change is then rebuilt from r and q as in :func:`_line_minimum`.
    """
    n = a.size
    k = lam / mu
    intercept = a + k * np.bincount(seg, q * np.minimum(np.maximum(r, 0.0), mu), n)
    t_hi = -(lam * np.bincount(seg, np.minimum(q, 0.0), n) + a) / b
    inside, times, term, sign = _kinks(r, q, mu, t_hi[seg])
    kq2 = k * q * q
    slope = b + np.bincount(seg, kq2 * inside, n)
    owner = seg[term]
    order = np.lexsort((times, owner))
    times, owner, change = times[order], owner[order], (kq2[term] * sign)[order]
    bounds = np.searchsorted(owner, np.arange(n + 1))
    start, stop = bounds[:-1], bounds[1:]

    def running(x):
        """Cumulative sums restarted at each problem's first breakpoint."""
        total = np.cumsum(x)
        return total - (total - x)[start[owner]]

    dphi = intercept[owner] - running(change * times) + (slope[owner] + running(change)) * times
    # phi_s' rises with t, so its breakpoints with phi_s' < 0 come first
    first = start + np.bincount(owner[dphi < 0.0], minlength=n)
    padded = np.concatenate(([0.0], times, [0.0]))
    lo = np.where(first > start, padded[first], 0.0)
    hi = np.where(first < stop, padded[first + 1], t_hi)
    mid = 0.5 * (lo + hi)
    x = r + mid[seg] * q
    deriv = a + b * mid + k * np.bincount(seg, q * np.minimum(np.maximum(x, 0.0), mu), n)
    slope = b + np.bincount(seg, kq2 * ((x > 0.0) & (x < mu)), n)
    return np.where(intercept >= 0.0, 0.0, np.minimum(np.maximum(mid - deriv / slope, lo), hi))


def _recentre(r, c, tau, cut, chosen, mu, lam, ridge):
    """Move each chosen cut to the exact minimum of the smoothed objective
    over its own value, with v and every other cut fixed.

    The objective's part in cut j is lam * sum_{cut_t = j} H(r_t - tau_t*dc)
    + 0.5*ridge*(c_j + dc)**2, and no two cuts share a term, so the cuts are
    independent problems of :func:`_segment_minima`, each searched in its
    descent direction.  Returns the new residuals and cut values.
    """
    n = int(np.count_nonzero(chosen))
    terms = chosen[cut]
    seg = (np.cumsum(chosen) - 1)[cut[terms]]
    r_s, tau_s, c_s = r[terms], tau[terms], c[chosen]
    deriv = ridge * c_s - (lam / mu) * np.bincount(seg, tau_s * np.minimum(np.maximum(r_s, 0.0), mu), n)
    toward = -np.sign(deriv)
    q = -tau_s * toward[seg]
    t = _segment_minima(r_s, q, seg, mu, lam, ridge * c_s * toward, np.full(n, ridge))
    r, c = r.copy(), c.copy()
    r[terms] = r_s + t[seg] * q
    c[chosen] = c_s + t * toward
    return r, c


def _huber_warm_start(prob):
    """Near-optimal dual point from a smoothed-Newton solve of the primal.

    The primal lives in only dim + n_cuts variables, so Newton steps on a
    Huber-smoothed hinge (path-following the smoothing width mu from 1 down
    to ``_MU_FLOOR``) reach the optimum basin in a few dozen cheap
    iterations.  Each step goes to the exact minimiser along the Newton
    direction (:func:`_line_minimum`).  A cut with no term in the quadratic
    zone has only the tiny ridge as curvature, so the Newton step would move
    it by orders of magnitude too far and the line search would stop as soon
    as one of its terms reached the zone; such starved cuts are first moved
    to the exact minimum over their own values with v fixed
    (:func:`_recentre`), an exact block-coordinate step.  The Huber
    gradient weights are box- and balance-feasible duals, which hands the
    exact dual ascent a starting point with an already tiny gap.  Duals are
    extracted at the deepest smoothing level whose gradient actually
    converged, since conditioning eventually defeats the Newton solves; a
    level also ends, unconverged, when a step raises the value by more than
    roundoff.  Residuals are updated along each step and recomputed from
    (v, c) at every level's end.
    """
    z = np.asarray(prob.z, dtype=float)
    tau = np.asarray(prob.tau, dtype=float)
    cut = np.asarray(prob.cut, dtype=int)
    lam = float(prob.penalty)
    T, d = z.shape
    n_cuts = prob.n_cuts
    ridge = 1e-8  # keeps one-sided cuts finite; duals are refined afterwards
    gtol = 1e-8 * max(1.0, lam * np.sqrt(T))
    eye = np.eye(d)
    v, c = np.zeros(d), np.zeros(n_cuts)
    r = np.ones(T)
    best_beta = np.zeros(T)
    cross_index = (cut[:, None] * d + np.arange(d)).ravel()

    def smoothed(r, v, c):
        """Residuals clipped to [0, mu] and the smoothed value."""
        p = np.minimum(np.maximum(r, 0.0), mu)
        return p, 0.5 * (v @ v) + (lam / mu) * (p @ (r - 0.5 * p)) + 0.5 * ridge * (c @ c)

    def gradient(p, v, c):
        tw = tau * p
        return v + (lam / mu) * (z.T @ tw), ridge * c - (lam / mu) * np.bincount(cut, tw, n_cuts)

    def quadratic_zone(r):
        """Terms with 0 < r < mu and their count per cut."""
        inside = (r > 0.0) & (r < mu)
        return inside, np.bincount(cut[inside], minlength=n_cuts)

    mu = 1.0
    while mu >= _MU_FLOOR * 0.99:
        converged = False
        p, value = smoothed(r, v, c)
        for _ in range(_NEWTON_CAP):
            g_v, g_c = gradient(p, v, c)
            if np.sqrt(g_v @ g_v + g_c @ g_c) <= gtol:
                converged = True
                break
            quad_zone, counts = quadratic_zone(r)
            starved = (counts == 0) & (g_c != 0.0)
            if starved.any():
                r, c = _recentre(r, c, tau, cut, starved, mu, lam, ridge)
                p, value = smoothed(r, v, c)
                g_v, g_c = gradient(p, v, c)
                quad_zone, counts = quadratic_zone(r)
            # Hessian of the quadratic-zone terms, tau_t^2 = 1:
            # [z z^T, -z e_cut^T; -e_cut z^T, e_cut e_cut^T] per term.  Its cut
            # block is diagonal, so the cuts are eliminated and only the d x d
            # Schur complement is factorized.  Written as centred within-cut
            # scatter plus a ridge-weighted scatter of the cut means, it is a
            # sum of Gram matrices and so stays >= I in floating point too.
            coef = lam / mu
            zq, cq = z[quad_zone], cut[quad_zone]
            sums = np.bincount(cross_index[np.repeat(quad_zone, d)], zq.ravel(),
                               n_cuts * d).reshape(n_cuts, d)
            diag = coef * counts + ridge
            means = sums / np.maximum(counts, 1)[:, None]
            zc = zq - means[cq]
            schur = eye + coef * (zc.T @ zc) + (means.T * (ridge * coef * counts / diag)) @ means
            dv = np.linalg.solve(schur, -g_v - coef * (sums.T @ (g_c / diag)))
            dc = (coef * (sums @ dv) - g_c) / diag
            if g_v @ dv + g_c @ dc > 0:
                dv, dc = -g_v, -g_c
            q = tau * (z @ dv - dc[cut])
            t = _line_minimum(r, q, mu, lam, v @ dv + ridge * (c @ dc), dv @ dv + ridge * (dc @ dc))
            v_t, c_t, r_t = v + t * dv, c + t * dc, r + t * q
            p_t, value_t = smoothed(r_t, v_t, c_t)
            # a step that only carries a residual across a zone edge may lower
            # the value by less than roundoff, yet it changes the next Hessian
            if value_t > value + 1e-14 * max(1.0, abs(value)):
                break
            v, c, r, p, value = v_t, c_t, r_t, p_t, value_t
        if not converged:
            break
        r = 1.0 + tau * (z @ v - c[cut])
        best_beta = (lam / mu) * np.minimum(np.maximum(r, 0.0), mu)
        mu *= 0.1
    return best_beta


def _face_step(z, tau, block, grad):
    """Newton step of the dual on the face of the working set, or its ascent ray.

    The dual's Hessian over the working set is -G^T G with G = (tau_t z_t)
    as columns, and the block balances sum_{t in b} tau_t beta_t = 0 confine
    the step to the range of P = I - sum_b t_b t_b^T / |t_b|^2, where t_b is
    tau on block b.  The blocks have disjoint supports, so P centres each
    block: the columns of G P are tau_t (z_t - mean of z over t's block).
    A thin SVD G P = U S V^T (d x f, rank at most d) gives the minimum-norm
    Newton step V S^-2 V^T grad and the ray (P - V V^T) grad, along which
    the dual rises linearly; it is taken of (G P)^T, which is tall when the
    working set outnumbers the features.  Returns (step, True) for a ray
    that is not negligible, (step, False) for the Newton step, and
    (None, False) when the balances leave no freedom.
    """
    f = tau.size
    _, block = np.unique(block, return_inverse=True)
    sizes = np.bincount(block)
    if sizes.size == f:
        return None, False  # one dual per block: the balances fix them all
    means = np.zeros((sizes.size, z.shape[1]))
    np.add.at(means, block, z)
    gp = (z - means[block] / sizes[block, None]) * tau[:, None]  # (G P)^T
    pgrad = grad - tau * (np.bincount(block, tau * grad) / sizes)[block]
    basis, sv, _ = np.linalg.svd(gp, full_matrices=False)  # V of G P, as columns
    # the rank cut of a least-squares solve of the reduced (f - blocks)^2 system
    sv = sv[sv ** 2 > np.finfo(float).eps * (f - sizes.size) * sv[0] ** 2]
    basis = basis[:, : sv.size]
    along = grad @ basis
    ray = pgrad - basis @ along
    if np.linalg.norm(ray) > 1e-9 * max(1.0, float(np.linalg.norm(pgrad))):
        return ray, True
    return basis @ (along / sv ** 2), False


class _DualSolver:
    def __init__(self, prob: HingeProblem, warm=None):
        self.prob = prob
        self.lam = float(prob.penalty)
        self.T = prob.z.shape[0]
        self.blocks = [[j] for j in range(prob.n_cuts)]
        self._beta_orig = np.zeros(self.T) if warm is None else np.array(warm, dtype=float)
        self.steps = 0
        self._layout()

    # ------------------------------------------------------------------ setup

    def _layout(self):
        """Physically sort the terms so every tie block is one contiguous slice."""
        block_of_cut = np.empty(self.prob.n_cuts, dtype=int)
        for bi, blk in enumerate(self.blocks):
            for j in blk:
                block_of_cut[j] = bi
        cut = np.asarray(self.prob.cut, dtype=int)
        self.perm = np.argsort(block_of_cut[cut], kind="stable") if self.T else np.empty(0, int)
        self.z = np.ascontiguousarray(np.asarray(self.prob.z, dtype=float)[self.perm])
        self.tau = np.asarray(self.prob.tau, dtype=float)[self.perm]
        self.cut = cut[self.perm]
        self.beta = self._beta_orig[self.perm].copy()
        np.clip(self.beta, 0.0, self.lam, out=self.beta)
        self.znorm = np.einsum("ij,ij->i", self.z, self.z)
        counts = np.bincount(block_of_cut[self.cut], minlength=len(self.blocks))
        ends = np.cumsum(counts)
        self.slices = [slice(int(e - c), int(e)) for c, e in zip(counts, ends)]
        self.block_id = np.empty(self.T, dtype=int)
        for bi, sl in enumerate(self.slices):
            self.block_id[sl] = bi
        self._restore_balance()
        self._refresh()

    def _restore_balance(self):
        """Project the warm-start duals back onto the balance constraints."""
        for sl in self.slices:
            t = self.tau[sl]
            b = self.beta[sl]
            resid = float(t @ b)
            if resid == 0.0:
                continue
            side = t * np.sign(resid) > 0
            mass = b[side].sum()
            if mass >= abs(resid) and mass > 0:
                b[side] -= b[side] * (abs(resid) / mass)
            else:
                b[:] = 0.0
            self.beta[sl] = b

    def _refresh(self):
        self.v = -(self.z.T @ (self.tau * self.beta))
        self.s = self.z @ self.v

    def _sync_original(self):
        self._beta_orig[self.perm] = self.beta

    # -------------------------------------------------------------- SMO sweeps

    def _sweep(self, eps):
        """One pass over the blocks, applying up to one pair update each.

        Returns the largest KKT violation seen across the blocks.
        """
        lam, tau, beta, z = self.lam, self.tau, self.beta, self.z
        tiny = _BOUND_SLACK * max(1.0, lam)
        worst = 0.0
        for sl in self.slices:
            if sl.stop == sl.start:
                continue
            tb = tau[sl]
            bb = beta[sl]
            m = tb + self.s[sl]
            up = np.where(tb > 0, bb < lam - tiny, bb > tiny)
            lo = np.where(tb > 0, bb > tiny, bb < lam - tiny)
            if not up.any() or not lo.any():
                continue
            i_loc = int(np.argmax(np.where(up, m, -np.inf)))
            m_i = m[i_loc]
            m_lo = np.where(lo, m, np.inf)
            viol = m_i - float(m_lo.min())
            worst = max(worst, viol)
            if viol <= eps:
                continue
            i = sl.start + i_loc
            zi = z[i]
            quad_all = np.maximum(self.znorm[sl] + self.znorm[i] - 2.0 * (z[sl] @ zi), 1e-12)
            gain = np.where(lo & (m < m_i), (m_i - m) ** 2 / quad_all, -np.inf)
            j_loc = int(np.argmax(gain))
            j = sl.start + j_loc
            diff = m_i - m[j_loc]
            h_i = (lam - beta[i]) if tau[i] > 0 else beta[i]
            h_j = beta[j] if tau[j] > 0 else (lam - beta[j])
            h = min(h_i, h_j)
            quad = quad_all[j_loc]
            if quad > 1e-12:
                h = min(h, diff / quad)
            if h <= 0.0:
                continue
            beta[i] = min(max(beta[i] + tau[i] * h, 0.0), lam)
            beta[j] = min(max(beta[j] - tau[j] * h, 0.0), lam)
            dv = -h * (z[i] - z[j])
            self.v += dv
            self.s += z @ dv
            self.steps += 1
        return worst

    def _smo(self, eps, budget):
        sweeps = 0
        while self.steps < budget:
            if self._sweep(eps) <= eps:
                return
            sweeps += 1
            if sweeps % 64 == 0:
                self._polish()
            if sweeps % 512 == 0:
                self._refresh()  # guard against drift in the running sums

    # ----------------------------------------------------- Newton face polish

    def _working_set(self, tiny, recruit):
        """Free duals plus the worst bound-sitting KKT violators.

        Pairwise sweeps move bound duals only two at a time, which crawls
        when many blocks couple through v; recruiting the violators into the
        face solve lets one Newton step restructure the bounds jointly.
        """
        free_mask = (self.beta > tiny) & (self.beta < self.lam - tiny)
        idx = [np.flatnonzero(free_mask)]
        if recruit > 0:
            m = self.tau + self.s
            scores = np.full(self.T, -np.inf)
            for sl in self.slices:
                fm = free_mask[sl]
                if not fm.any():
                    continue
                mb = m[sl]
                nu = 0.5 * (mb[fm].max() + mb[fm].min())
                at_zero = ~fm & (self.beta[sl] <= tiny)
                at_lam = ~fm & (self.beta[sl] >= self.lam - tiny)
                sc = np.where(at_zero, mb - nu, np.where(at_lam, nu - mb, -np.inf))
                scores[sl] = sc
            order = np.argsort(scores)[::-1][:recruit]
            idx.append(order[scores[order] > 1e-12])
        out = np.unique(np.concatenate(idx))
        return out

    def _polish(self):
        """Maximize the dual over the working set with a null-space Newton.

        SMO identifies the active box structure; the working set (free duals
        plus KKT-violating bound duals) is optimized jointly subject to the
        block balances.  The reduced Hessian has rank at most the feature
        dimension, so the face can be unbounded: the consistent part of the
        Newton system is solved by least squares and any leftover linear
        ascent ray is ridden to the box.  Variables blocking a step are
        ejected from the working set instead of killing the step.
        """
        lam = self.lam
        tiny = _BOUND_SLACK * max(1.0, lam)
        banned = np.zeros(self.T, dtype=bool)
        for round_no in range(_POLISH_ROUNDS):
            work = self._working_set(tiny, _POLISH_RECRUIT if round_no == 0 else 0)
            work = work[~banned[work]]
            f = work.size
            if f == 0 or f > _POLISH_CAP:
                return
            tau_w = self.tau[work]
            grad = 1.0 + tau_w * self.s[work]  # dD/dbeta over the working set
            step, unbounded = _face_step(self.z[work], tau_w, self.block_id[work], grad)
            if step is None:
                return
            size = float(np.abs(step).max(initial=0.0))
            if size <= 1e-13 * max(1.0, lam):
                return
            with np.errstate(divide="ignore", invalid="ignore"):
                room = np.where(step > 1e-300, (lam - self.beta[work]) / step,
                                np.where(step < -1e-300, -self.beta[work] / step, np.inf))
            blocked = room <= 1e-12
            if blocked.any():
                banned[work[blocked]] = True  # pinned against the box; retry without them
                continue
            alpha_max = float(np.min(room, initial=np.inf))
            if unbounded:
                if not np.isfinite(alpha_max):
                    return  # genuinely unbounded; cannot happen with a bounded box
                alpha = alpha_max
            else:
                alpha = min(1.0, alpha_max)
            before = self._dual()
            saved = self.beta[work].copy()
            self.beta[work] = np.clip(self.beta[work] + alpha * step, 0.0, lam)
            self._refresh()
            self.steps += 1
            if self._dual() < before - 1e-9 * max(1.0, abs(before)):
                self.beta[work] = saved
                self._refresh()
                return
            if not unbounded and alpha >= 1.0:
                return

    # ------------------------------------------------------- cut-value recovery

    def _block_interval(self, sl):
        """Flat optimal interval of one block's cut value given the current v."""
        if sl.stop == sl.start:
            return None
        t = self.tau[sl]
        sc = self.s[sl]
        bps = np.sort(np.where(t > 0, 1.0 + sc, sc - 1.0))
        n_up = int(np.sum(t > 0))
        if n_up == 0:
            return (-np.inf, bps[0])
        if n_up == bps.size:
            return (bps[-1], np.inf)
        return (bps[n_up - 1], bps[n_up])

    @staticmethod
    def _pick(interval):
        lo, hi = interval
        if np.isinf(lo) and np.isinf(hi):
            return 0.0
        if np.isinf(lo):
            return float(hi)
        if np.isinf(hi):
            return float(lo)
        return 0.5 * (lo + hi)

    def _recover_cuts(self):
        values = np.full(self.prob.n_cuts, np.nan)
        for blk, sl in zip(self.blocks, self.slices):
            interval = self._block_interval(sl)
            if interval is None:
                continue
            val = self._pick(interval)
            for j in blk:
                values[j] = val
        # cuts with no terms at all: interpolate along their chain
        for chain in self.prob.chains:
            vals = values[list(chain)]
            if np.isnan(vals).all():
                vals[:] = 0.0
            else:
                known = np.flatnonzero(~np.isnan(vals))
                missing = np.flatnonzero(np.isnan(vals))
                if missing.size:
                    vals[missing] = np.interp(missing, known, vals[known])
            values[list(chain)] = vals
        values[np.isnan(values)] = 0.0
        # final hygiene clamp; the tie loop keeps real violations out of here
        for chain in self.prob.chains:
            run = values[list(chain)]
            values[list(chain)] = np.maximum.accumulate(run)
        return values

    def _primal(self, cuts):
        margins = 1.0 + self.tau * (self.s - cuts[self.cut])
        return 0.5 * float(self.v @ self.v) + self.lam * float(np.clip(margins, 0.0, None).sum())

    def _dual(self):
        return float(self.beta.sum()) - 0.5 * float(self.v @ self.v)

    # --------------------------------------------------------- tie adjustments

    def _adjust_ties(self, mtol, stol):
        """One merge-or-split round; returns True when the structure changed."""
        if not self.prob.chains:
            return False
        block_of = {}
        for bi, blk in enumerate(self.blocks):
            for j in blk:
                block_of[j] = bi
        values = {
            bi: (None if (iv := self._block_interval(sl)) is None else self._pick(iv))
            for bi, sl in enumerate(self.slices)
        }
        merged = False
        new_blocks = {bi: list(blk) for bi, blk in enumerate(self.blocks)}
        for chain in self.prob.chains:
            seq = []
            for j in chain:
                bi = block_of[j]
                if not seq or seq[-1] != bi:
                    seq.append(bi)
            # a block with no terms (None) leaves its cut free, so the order
            # binds the valued blocks on either side of it: each valued block
            # is compared with the previous valued block of its chain
            prev, empty = None, []
            for b in seq:
                if values[b] is None:
                    empty.append(b)
                    continue
                if prev is not None and values[prev] > values[b] + mtol:
                    for e in empty + [b]:
                        new_blocks[prev] += new_blocks.pop(e)
                    merged = True
                    prev = None  # merged blocks get re-solved before reuse
                else:
                    prev = b
                empty = []
        if merged:
            self._sync_original()
            self.blocks = [sorted(blk) for blk in new_blocks.values()]
            self._layout()
            return True
        # split blocks whose internal order multipliers went negative
        signed = self.tau * self.beta
        r = np.zeros(self.prob.n_cuts)
        np.add.at(r, self.cut, signed)
        for bi, blk in enumerate(self.blocks):
            if len(blk) < 2:
                continue
            partial = np.cumsum(r[blk[:-1]])
            worst = int(np.argmin(partial))
            if partial[worst] < -stol:
                left, right = blk[: worst + 1], blk[worst + 1:]
                # duals of a split block are no longer balance-feasible
                self.beta[self.slices[bi]] = 0.0
                self._sync_original()
                self.blocks[bi] = left
                self.blocks.append(right)
                self._layout()
                return True
        return False

    # ---------------------------------------------------------------- driver

    def solve(self, tol):
        if self.lam <= 0.0 or self.T == 0:
            # no hinge weight or no terms: the duals are clipped to zero
            cuts = self._recover_cuts()
            return HingeSolution(self.v, cuts, self._primal(cuts), 0.0, 0)
        eps = 1e-3
        mtol = 1e-8
        stol = 1e-7 * max(1.0, self.lam)
        budget = default_budget(self.prob.z.shape)
        for _ in range(64 * max(1, self.prob.n_cuts)):
            self._smo(eps, budget)
            if self.steps < budget:
                self._polish()
            if self._adjust_ties(mtol, stol):
                continue
            self._refresh()
            cuts = self._recover_cuts()
            primal = self._primal(cuts)
            gap = primal - self._dual()
            if gap <= tol * (1.0 + abs(primal)):
                return HingeSolution(self.v, cuts, primal, gap, self.steps)
            if self.steps >= budget:
                raise NonConvergence(self.steps, "budget", gap=gap)
            if eps <= 1e-12:
                raise NonConvergence(self.steps, "eps-floor", gap=gap)
            eps *= 1e-2
        raise NonConvergence(self.steps, "outer-cap")


def solve_hinge_dual(prob, tol=1e-6):
    """Minimize the reduced subproblem; returns a :class:`HingeSolution`.

    Every solve starts from the smoothed-Newton warm start, or from the zero
    dual when that start's dual value is below zero's.  Raises
    :class:`NonConvergence` when the duality gap cannot be closed: the step
    budget of :func:`default_budget` ran out (``budget``), the SMO tolerance
    reached its floor (``eps-floor``), or the tie loop kept changing the
    block structure (``outer-cap``).
    """
    solver = _DualSolver(prob, warm=_huber_warm_start(prob))
    if solver._dual() < 0.0:
        solver = _DualSolver(prob)
    return solver.solve(tol)


def default_budget(shape):
    """SMO steps a solve of a (terms, dim) problem may take before NonConvergence."""
    return max(200_000, 50 * shape[0] * max(shape[1], 1))

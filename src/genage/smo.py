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
into one block, and blocks whose internal multipliers turn negative are
split again.  Cut values are recovered from the exact one-dimensional
piecewise-linear minimization given the current v, which keeps the reported
primal value a true upper bound for the duality-gap stopping test.
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
    beta: np.ndarray       # dual state in the original term order, for warm starts


_MU_FLOOR = 1e-3  # smallest smoothing width of the warm start's path
_NEWTON_CAP = 200  # Newton steps per smoothing level; the benchmark's fits need at most 83
_POLISH_ROUNDS = 60  # Newton face steps per polish
_POLISH_CAP = 600  # largest working set the polish factorizes
_POLISH_RECRUIT = 48  # bound-sitting KKT violators added to the first working set


def _line_minimum(r, q, mu, lam, a, b):
    """Exact minimiser over t >= 0 of the convex piecewise quadratic

        phi(t) = a*t + 0.5*b*t**2 + lam * sum_i H(r_i + t*q_i),

    where H is the hinge smoothed over width mu (0 below 0, x**2/(2*mu) up
    to mu, x - mu/2 beyond) and b > 0.  phi' is continuous and piecewise
    linear, with breakpoints where a residual crosses 0 or mu.  Sorting them
    and accumulating the slope changes gives phi' at every breakpoint in one
    pass; the segment holding its first sign change is then rebuilt from r
    and q directly, so the accumulated roundoff never enters the answer.
    """
    moving = q != 0.0
    r, q = r[moving], q[moving]
    k = lam / mu

    def line(quad, upper):
        """Intercept and slope of phi' with the given terms in each zone."""
        return (a + lam * q[upper].sum() + k * (q[quad] @ r[quad]),
                b + k * (q[quad] @ q[quad]))

    # zones just after t = 0: a residual on a zone edge goes the way q points
    # (at theta = 0 and mu = 1 every residual equals mu exactly)
    rising = q > 0.0
    above_zero = (r > 0.0) | ((r == 0.0) & rising)
    upper = (r > mu) | ((r == mu) & rising)
    intercept, slope = line(above_zero & ~upper, upper)
    if intercept >= 0.0:
        return 0.0
    # a residual crossing 0 or mu changes the slope of phi' by +-k*q**2; phi'
    # is continuous, so its intercept changes by minus that times the crossing
    with np.errstate(over="ignore"):
        times = np.concatenate([-r / q, (mu - r) / q])
    kq2 = k * q * q
    d_slope = np.concatenate([np.where(rising, kq2, -kq2), np.where(rising, -kq2, kq2)])
    # each smoothed-hinge slope lies in [0, 1], so phi' >= a + b*t + lam*sum(min(q, 0))
    # and the minimiser lies below t_hi; later breakpoints (a tiny q puts them
    # near the float maximum, where phi' would overflow) cannot matter
    t_hi = (lam * np.clip(-q, 0.0, None).sum() - a) / b
    ahead = (times > 0.0) & (times < t_hi)
    times, d_slope = times[ahead], d_slope[ahead]
    order = np.argsort(times)
    times, d_slope = times[order], d_slope[order]
    dphi = intercept - np.cumsum(d_slope * times) + (slope + np.cumsum(d_slope)) * times
    crossed = dphi >= 0.0
    if crossed.any():
        j = int(np.argmax(crossed))
        lo, hi = (times[j - 1] if j else 0.0), times[j]
    else:
        lo, hi = (times[-1] if times.size else 0.0), t_hi
    mid = 0.5 * (lo + hi)
    x = r + mid * q
    upper = x >= mu
    intercept, slope = line((x > 0.0) & ~upper, upper)
    return float(np.clip(-intercept / slope, lo, hi))


def _huber_warm_start(prob):
    """Near-optimal dual point from a smoothed-Newton solve of the primal.

    The primal lives in only dim + n_cuts variables, so Newton steps on a
    Huber-smoothed hinge (path-following the smoothing width mu from 1 down
    to ``_MU_FLOOR``) reach the optimum basin in a few dozen cheap
    iterations.  Each step goes to the exact minimiser along the Newton
    direction (:func:`_line_minimum`): a cut with no term in the quadratic
    zone has only the tiny ridge as curvature, so the full Newton step can
    overshoot by orders of magnitude.  The Huber gradient weights are box-
    and balance-feasible duals, which hands the exact dual ascent a starting
    point with an already tiny gap.  Duals are extracted at the deepest
    smoothing level whose gradient actually converged, since conditioning
    eventually defeats the Newton solves; a level also ends, unconverged,
    when a step raises the value by more than roundoff.
    """
    z = np.asarray(prob.z, dtype=float)
    tau = np.asarray(prob.tau, dtype=float)
    cut = np.asarray(prob.cut, dtype=int)
    lam = float(prob.penalty)
    T, d = z.shape
    n_cuts = prob.n_cuts
    ridge = 1e-8  # keeps one-sided cuts finite; duals are refined afterwards
    theta = np.zeros(d + n_cuts)
    best_beta = np.zeros(T)
    cross_index = (cut[:, None] * d + np.arange(d)).ravel()

    def pieces(th):
        v, c = th[:d], th[d:]
        r = 1.0 + tau * (z @ v - c[cut])
        loss = np.where(r >= mu, r - 0.5 * mu, 0.5 * np.clip(r, 0.0, None) ** 2 / mu)
        return r, 0.5 * v @ v + lam * loss.sum() + 0.5 * ridge * c @ c

    mu = 1.0
    while mu >= _MU_FLOOR * 0.99:
        converged = False
        r, value = pieces(theta)
        for _ in range(_NEWTON_CAP):
            v, c = theta[:d], theta[d:]
            tw = tau * np.clip(r / mu, 0.0, 1.0)
            grad = np.concatenate([v + lam * (z.T @ tw), -lam * np.bincount(cut, tw, n_cuts) + ridge * c])
            if np.linalg.norm(grad) <= 1e-8 * max(1.0, lam * np.sqrt(T)):
                converged = True
                break
            # Hessian of the quadratic-zone terms, tau_t^2 = 1:
            # [z z^T, -z e_cut^T; -e_cut z^T, e_cut e_cut^T] per term.  Its cut
            # block is diagonal, so the cuts are eliminated and only the d x d
            # Schur complement is factorized.  Written as centred within-cut
            # scatter plus a ridge-weighted scatter of the cut means, it is a
            # sum of Gram matrices and so stays >= I in floating point too.
            quad_zone = (r > 0.0) & (r < mu)
            coef = lam / mu
            zq, cq = z[quad_zone], cut[quad_zone]
            counts = np.bincount(cq, minlength=n_cuts)
            sums = np.bincount(cross_index[np.repeat(quad_zone, d)], zq.ravel(),
                               n_cuts * d).reshape(n_cuts, d)
            diag = coef * counts + ridge
            means = sums / np.maximum(counts, 1)[:, None]
            zc = zq - means[cq]
            schur = np.eye(d) + coef * (zc.T @ zc) + (means.T * (ridge * coef * counts / diag)) @ means
            g_v, g_c = grad[:d], grad[d:]
            dv = np.linalg.solve(schur, -g_v - coef * (sums.T @ (g_c / diag)))
            dc = (coef * (sums @ dv) - g_c) / diag
            if g_v @ dv + g_c @ dc > 0:
                dv, dc = -g_v, -g_c
            step = np.concatenate([dv, dc])
            q = tau * (z @ dv - dc[cut])
            t = _line_minimum(r, q, mu, lam, v @ dv + ridge * (c @ dc), dv @ dv + ridge * (dc @ dc))
            trial = theta + t * step
            r_trial, trial_value = pieces(trial)
            # a step that only carries a residual across a zone edge may lower
            # the value by less than roundoff, yet it changes the next Hessian
            if trial_value > value + 1e-14 * max(1.0, abs(value)):
                break
            theta, r, value = trial, r_trial, trial_value
        if not converged:
            break
        best_beta = lam * np.clip(r / mu, 0.0, 1.0)
        mu *= 0.1
    return best_beta


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
            blocks_here = np.unique(self.block_id[work])
            c_mat = np.zeros((blocks_here.size, f))
            for row, bi in enumerate(blocks_here):
                c_mat[row, self.block_id[work] == bi] = tau_w[self.block_id[work] == bi]
            # orthonormal basis of the balance null space
            _, sv, vt = np.linalg.svd(c_mat, full_matrices=True)
            rank = int(np.sum(sv > 1e-12 * max(1.0, sv[0] if sv.size else 1.0)))
            nb = vt[rank:].T
            if nb.shape[1] == 0:
                return
            gn = nb.T @ grad
            g_rows = tau_w[:, None] * self.z[work]
            gn_mat = g_rows.T @ nb            # d x (f - rank)
            h = gn_mat.T @ gn_mat
            y = np.linalg.lstsq(h, gn, rcond=None)[0]
            ray = gn - h @ y
            ray_norm = float(np.linalg.norm(ray))
            if ray_norm > 1e-9 * max(1.0, float(np.linalg.norm(gn))):
                step = nb @ ray               # linear ascent direction, curvature ~ 0
                unbounded = True
            else:
                step = nb @ y                 # Newton displacement on the face
                unbounded = False
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
            for a, b in zip(seq, seq[1:]):
                if a not in new_blocks or b not in new_blocks:
                    continue
                va, vb = values.get(a), values.get(b)
                if va is None or vb is None:
                    continue
                if va > vb + mtol:
                    new_blocks[a] = new_blocks[a] + new_blocks[b]
                    values[a] = None  # merged blocks get re-solved before reuse
                    del new_blocks[b]
                    merged = True
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
            self.beta[:] = 0.0
            self._refresh()
            cuts = self._recover_cuts()
            self._sync_original()
            return HingeSolution(self.v, cuts, self._primal(cuts), 0.0, 0, self._beta_orig)
        eps = 1e-3
        mtol = 1e-8
        stol = 1e-7 * max(1.0, self.lam)
        budget = default_budget(self.prob.z.shape)
        for _ in range(64 * max(1, self.prob.n_cuts)):
            self._smo(eps, budget)
            self._polish()
            if self._adjust_ties(mtol, stol):
                continue
            self._refresh()
            cuts = self._recover_cuts()
            primal = self._primal(cuts)
            gap = primal - self._dual()
            if gap <= tol * (1.0 + abs(primal)):
                self._sync_original()
                return HingeSolution(self.v, cuts, primal, gap, self.steps, self._beta_orig)
            if self.steps >= budget or eps <= 1e-12:
                raise NonConvergence(self.steps, gap=gap)
            eps *= 1e-2
        raise NonConvergence(self.steps)


def solve_hinge_dual(prob, tol=1e-6, warm=None):
    """Minimize the reduced subproblem; returns a :class:`HingeSolution`.

    ``warm`` seeds the dual variables from a previous solve on the same term
    layout.  Raises :class:`NonConvergence` when the duality gap cannot be
    closed within :func:`default_budget` SMO steps.
    """
    if prob.z.shape[0] > 96 and prob.penalty > 0.0:
        # a caller-provided warm start can be arbitrarily stale after the
        # anchor moved; keep whichever dual point certifies the highest value,
        # with the zero vector (dual exactly 0) as the floor.  Ties keep the
        # earlier of the Huber start, zero and the caller's start
        solver = _DualSolver(prob, warm=_huber_warm_start(prob))
        if warm is not None:
            other = _DualSolver(prob, warm=warm)
            if other._dual() > max(solver._dual(), 0.0):
                solver = other
        if solver._dual() < 0.0:
            solver = _DualSolver(prob)
    else:
        solver = _DualSolver(prob, warm=warm)
    return solver.solve(tol)


def default_budget(shape):
    """SMO steps a solve of a (terms, dim) problem may take before NonConvergence."""
    return max(200_000, 50 * shape[0] * max(shape[1], 1))

"""Shared dual-ascent core for the two margin subproblems.

After the rank-one metric substitution both subproblems take the form

    min_{v, c}   0.5 ||v||^2 + penalty * sum_t max(0, 1 + tau_t * (v.z_t - c[cut_t]))
    subject to   c[j] <= c[j+1] along each declared chain of cuts,

where each hinge term t carries a feature row ``z_t``, an orientation
``tau_t`` (+1 pushes the score below its cut by the unit margin, -1 pushes
it above) and the index of the cut it references.  A chain is a run of
consecutive cut ids.  The gender classifier is the special case of a single
cut (the negated bias) and no chain.

In the dual with explicit order constraints (Chu & Keerthi, "New approaches
to support vector ordinal regression", ICML 2005) the multiplier of
c[j] <= c[j+1] is the running sum along the chain of the cut balances
``sum_{t in cut} tau_t beta_t`` up to cut j.  Each must stay >= 0, a whole
chain sums to 0 and a cut outside every chain balances on its own.

Every solve starts from the duals of a Mehrotra predictor-corrector
interior-point solve of the box-constrained dual without the chains
(:func:`_ipm_warm_start`), where every running sum is 0.  From there the
dual is ascended with pairwise SMO steps, one per tie segment and sweep: a
segment is a maximal run of a chain's cuts joined by positive running
sums.  A pair that moves balance to an earlier cut raises the running sums
between the two cuts and so ties them; one that moves it to a later cut
lowers them and stops where one reaches 0, which unties them.  No tie
pattern is searched.  A Newton polish on the face of the free duals, with
the segments as its balance blocks, finishes what the sweeps identify.  Cut
values are recovered from the exact one-dimensional piecewise-linear
minimization of each segment given the current v, which keeps the reported
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
    chains: tuple          # runs of consecutive ascending cut ids that must stay sorted
    penalty: float

    def __post_init__(self):
        seen = np.zeros(self.n_cuts, dtype=bool)
        for chain in self.chains:
            ids = np.asarray(chain)
            if (ids.ndim != 1 or ids.size == 0 or ids[0] < 0 or ids[-1] >= self.n_cuts
                    or np.any(ids != ids[0] + np.arange(ids.size)) or seen[ids].any()):
                raise ValueError(f"chain {chain!r} is not a run of consecutive ascending cut ids "
                                 f"below {self.n_cuts} disjoint from the other chains")
            seen[ids] = True


@dataclass
class HingeSolution:
    v: np.ndarray
    cuts: np.ndarray
    objective: float       # primal value in the whitened coordinates
    gap: float
    steps: int


_IPM_CAP = 60  # interior-point iterations per warm start
_IPM_GAP = 1e-8  # relative complementarity gap at which the warm start hands over
_POLISH_ROUNDS = 60  # Newton face steps per polish
_POLISH_CAP = 600  # largest working set the polish factorizes


def _ipm_warm_start(prob, budget):
    """Near-optimal duals from a Mehrotra predictor-corrector interior-point solve.

    In box units b = beta / lam the dual without the chains is the QP

        min 0.5 b^T A A^T b - sum(b)   s.t.  E^T b = 0,  0 <= b <= 1,

    with rows A_t = sqrt(lam) * tau_t * z_t and one balance column per cut,
    E_{t,j} = tau_t when term t references cut j.  A cut whose terms share
    one orientation forces their duals to 0, so those terms are dropped, and
    a cut left with no terms with them.  With more features than terms, the
    features are replaced by as many coordinates as there are terms with the
    same Gram matrix, which is all the dual sees of them.

    Each iteration eliminates the bound multipliers z_l, z_u, leaving
    (A A^T + D) db - E dy = h with D = z_l / b + z_u / (1 - b), then the cut
    values: with D^-1-weighted cut means of the features, what remains is
    the d x d system I plus the D^-1-weighted scatter of the centred
    features, a Gram matrix >= I that no subtraction can spoil.  Its inverse
    serves both the predictor and the corrector solve.

    The start is balanced, scaled to the best dual value along its ray, and
    its bound multipliers take the whole gradient, so the stationarity
    residual starts at 0 and only roundoff moves it.  The loop hands over at
    a relative complementarity gap of ``_IPM_GAP``, or at the last iterate
    before roundoff broke the Newton steps: the stationarity residual grew
    past a million times the roundoff of A A^T b, whose terms sum to at most
    n * max |a_t|^2.

    Duals heading to a bound are put on it by a test with no scale.  When
    the last step cut the complementarity gap by a factor rho <= 0.1, a dual
    goes to a bound if its distance to it shrank by less than sqrt(rho)
    times the factor of that bound's multiplier and is at most 1e-6 of the
    box.  The distance of a dual converging to a bound shrinks like rho
    while its multiplier holds, a free dual holds while its multiplier
    shrinks, and a degenerate one shrinks like sqrt(rho) alongside its
    multiplier and is left in place.  Returns the duals and the number of
    iterations, each of which is one step of the solve's budget.
    """
    z = np.asarray(prob.z, dtype=float)
    tau = np.asarray(prob.tau, dtype=float)
    cut = np.asarray(prob.cut, dtype=int)
    lam = float(prob.penalty)
    beta = np.zeros(tau.size)
    plus = np.bincount(cut, tau > 0, prob.n_cuts)
    minus = np.bincount(cut, tau < 0, prob.n_cuts)
    keep = np.flatnonzero(((plus > 0) & (minus > 0))[cut])
    if lam <= 0.0 or keep.size == 0 or budget <= 0:
        return beta, 0
    keep = keep[np.argsort(cut[keep], kind="stable")]
    used, ck = np.unique(cut[keep], return_inverse=True)
    n, m = keep.size, used.size
    starts = np.searchsorted(ck, np.arange(m))
    t = tau[keep]
    zk = z[keep]
    if zk.shape[1] > n:
        zk = np.linalg.qr(zk.T, mode="r").T  # z^T = Q R: R^T has z's Gram matrix
    d = zk.shape[1]
    zt = np.sqrt(lam) * zk.T  # (d, n)
    at = zt * t  # A^T
    eye = np.eye(d)
    roundoff = 1e6 * np.finfo(float).eps * n * (1.0 + (at * at).sum(axis=0).max())

    def newton(h, rp):
        """db, dy with (A A^T + D) db - E dy = h and E^T db = -rp."""
        th = t * dinv * h
        u = inverse @ (centred @ th - means @ rp)
        g = (-rp - np.add.reduceat(th, starts)) / weight
        return dinv * (h + t * (g[ck] - u @ centred)), g + u @ means

    def direction(r):
        """Newton step that moves the complementarity products by -r."""
        q = r / x[:2]
        db, dy = newton(q[1] - q[0] - rd, rp)
        ds = sign * db
        return np.concatenate((ds, -q - ratio * ds)), dy

    # each cut's minority side at 1 and its majority side scaled to balance
    # it, then shrunk to the best dual value along that ray
    fewer = np.minimum(plus, minus)[used][ck]
    b = fewer / np.where(t > 0, plus[used][ck], minus[used][ck])
    ab = at @ b
    b *= min(0.5, max(0.01, b.sum() / max(ab @ ab, 2.0 * b.sum())))
    grad = (at @ b) @ at - 1.0
    y = np.add.reduceat(t * grad, starts) / (plus + minus)[used]
    rest = grad - t * y[ck]
    # rows b, 1 - b, z_l, z_u
    x = np.stack((b, 1.0 - b, np.maximum(rest, 0.0) + 1.0, np.maximum(-rest, 0.0) + 1.0))
    sign = np.array([[1.0], [-1.0]])
    prev = older = None
    iterations = 0
    while iterations < min(budget, _IPM_CAP):
        b = x[0]
        ab = at @ b
        rd = ab @ at - 1.0 - t * y[ck] - x[2] + x[3]
        if prev is not None and not np.abs(rd).max() <= roundoff:
            x, prev = prev, older
            break
        rp = np.add.reduceat(t * b, starts)
        products = x[:2] * x[2:]
        comp = products.sum()
        if comp <= _IPM_GAP * (b.sum() - 0.5 * (ab @ ab)):
            break
        ratio = x[2:] / x[:2]
        dinv = 1.0 / ratio.sum(axis=0)
        weight = np.add.reduceat(dinv, starts)
        means = np.add.reduceat(zt * dinv, starts, axis=1) / weight
        centred = zt - means[:, ck]
        inverse = np.linalg.inv(eye + (centred * dinv) @ centred.T)
        step, dy = direction(products)
        affine = x + _max_step(x, step) * step
        sigma = ((affine[:2] * affine[2:]).sum() / comp) ** 3
        step, dy = direction(products + step[:2] * step[2:] - sigma * comp / (2 * n))
        alpha = 0.99 * _max_step(x, step)
        older, prev = prev, x
        x = x + alpha * step
        y = y + alpha * dy
        iterations += 1
    b = x[0]
    rho = (x[:2] * x[2:]).sum() / (prev[:2] * prev[2:]).sum() if prev is not None else 1.0
    if rho <= 0.1:
        heading = x[:2] * prev[2:] < np.sqrt(rho) * prev[:2] * x[2:]
        heading &= x[:2] <= 1e-6
        b = np.where(heading[0], 0.0, np.where(heading[1], 1.0, b))
    beta[keep] = lam * b
    return beta, iterations


def _max_step(x, step):
    """Largest step in [0, 1] along ``step`` that keeps the positive x nonnegative."""
    return 1.0 / max(1.0, float((-step / x).max()))


def _face_step(z, tau, block, grad):
    """Newton step of the dual on the face of the working set, or its ascent ray.

    The dual's Hessian over the working set is -G^T G with G = (tau_t z_t)
    as columns, and the block balances sum_{t in b} tau_t beta_t = 0 confine
    the step to the range of P = I - sum_b t_b t_b^T / |t_b|^2, where t_b is
    tau on block b.  The blocks have disjoint supports, so P centres each
    block: the columns of G P are tau_t (z_t - mean of z over t's block).
    A thin SVD G P = U S V^T (d x f, rank at most d) gives the minimum-norm
    Newton step V S^-2 V^T grad and the ray (P - V V^T) grad, along which
    the dual rises linearly.  It is taken of (G P)^T, which is tall when the
    working set outnumbers the features; otherwise of the f x f factor R^T
    from a QR G P = Q R, which has the same left singular vectors and values
    and costs O(f^2 d) to form.  Returns (step, True) for a ray
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
    if f < gp.shape[1]:
        gp = np.linalg.qr(gp.T, mode="r").T
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
        # sorted by cut once: each run of cuts, and so each tie segment, is one slice
        cut = np.asarray(prob.cut, dtype=int)
        self.perm = np.argsort(cut, kind="stable")
        self.z = np.ascontiguousarray(np.asarray(prob.z, dtype=float)[self.perm])
        self.tau = np.asarray(prob.tau, dtype=float)[self.perm]
        self.cut = cut[self.perm]
        self.beta = np.zeros(self.T) if warm is None else np.asarray(warm, dtype=float)[self.perm]
        # the sweeps and the working set count a dual within the slack of a
        # bound as on it, and nothing else would ever move it there
        tiny = _BOUND_SLACK * max(1.0, self.lam)
        self.beta[self.beta <= tiny] = 0.0
        self.beta[self.beta >= self.lam - tiny] = self.lam
        self.znorm = np.einsum("ij,ij->i", self.z, self.z)
        self.bounds = np.searchsorted(self.cut, np.arange(prob.n_cuts + 1)).tolist()
        self.chains = [slice(chain[0], chain[-1] + 1) for chain in prob.chains]
        # no running sum joins the last cut of a chain, or a cut in no chain, to the next cut
        self.tail = np.ones(prob.n_cuts, dtype=bool)
        for ch in self.chains:
            self.tail[ch.start: ch.stop - 1] = False
        self.steps = 0
        self._restore_balance()
        self._refresh()

    # ------------------------------------------------------------------ setup

    def _restore_balance(self):
        """Project the warm-start duals back onto the per-cut balances.

        Each cut's excess comes off the free duals on its heavy side, or
        else goes onto the free duals on its light side, when they can take
        it, so duals on a bound stay there; failing both it comes off the
        whole heavy side.
        """
        for a, b in zip(self.bounds[:-1], self.bounds[1:]):
            t = self.tau[a:b]
            beta = self.beta[a:b]
            resid = float(t @ beta)
            if resid == 0.0:
                continue
            heavy = t * np.sign(resid) > 0
            free = (beta > 0.0) & (beta < self.lam)
            # lowering a heavy dual or raising a light one cuts the excess
            toward = np.where(heavy, 1.0, -1.0)
            for share in (beta * (free & heavy), (self.lam - beta) * (free & ~heavy), beta * heavy):
                total = share.sum()
                if total >= abs(resid) and total > 0:
                    beta -= toward * share * (abs(resid) / total)
                    break
            else:
                beta[:] = 0.0

    def _refresh(self):
        self.v = -(self.z.T @ (self.tau * self.beta))
        self.s = self.z @ self.v

    def duals(self):
        """The duals in the problem's term order."""
        beta = np.empty(self.T)
        beta[self.perm] = self.beta
        return beta

    def _running_sums(self, per_cut):
        """Running sums of a per-cut array along each chain; 0 off the chains."""
        sums = np.zeros(self.prob.n_cuts)
        for ch in self.chains:
            sums[ch] = np.cumsum(per_cut[ch])
        return sums

    def _segments(self):
        """The tie segments of the current duals and the order multipliers.

        The multiplier of c[k] <= c[k+1] is the running sum along the chain
        of the cut balances sum_{t in cut} tau_t beta_t.  Cut k joins cut k+1
        in one segment while it exceeds the slack.  Returns the segments as
        (first cut, end cut) pairs, the running sums and the joined mask.
        """
        balances = np.bincount(self.cut, self.tau * self.beta, self.prob.n_cuts)
        sums = self._running_sums(balances)
        joined = ~self.tail & (sums > _BOUND_SLACK * max(1.0, self.lam))
        ends = (np.flatnonzero(~joined) + 1).tolist()
        return list(zip([0] + ends[:-1], ends)), sums, joined

    # -------------------------------------------------------------- SMO sweeps

    def _sweep(self, eps):
        """One pass over the tie segments, applying up to one pair update each.

        A pair raises tau_i beta_i and lowers tau_j beta_j by the same h, so
        it moves h of balance from cut[j] to cut[i].  j comes from the
        segment, i from it or from an earlier segment of its chain: an
        earlier cut[i] raises the running sums between the cuts, which never
        breaks their sign; a later one lowers them, so h stops where the
        smallest of them reaches 0.  Returns the largest KKT violation seen.
        """
        lam, tau, beta, z, s = self.lam, self.tau, self.beta, self.z, self.s
        tiny = _BOUND_SLACK * max(1.0, lam)
        segments, sums, _ = self._segments()
        worst = 0.0
        carry = -1  # the best raisable term of the chain's earlier segments
        for first, end in segments:
            if first == 0 or self.tail[first - 1]:
                carry = -1
            sl = slice(self.bounds[first], self.bounds[end])
            if sl.stop == sl.start:
                continue
            tb = tau[sl]
            bb = beta[sl]
            m = tb + s[sl]
            up = np.where(tb > 0, bb < lam - tiny, bb > tiny)
            lo = np.where(tb > 0, bb > tiny, bb < lam - tiny)
            i, m_i = -1, -np.inf
            if carry >= 0 and (beta[carry] < lam - tiny if tau[carry] > 0 else beta[carry] > tiny):
                i, m_i = carry, tau[carry] + s[carry]
            if up.any():
                i_loc = int(np.argmax(np.where(up, m, -np.inf)))
                if m[i_loc] >= m_i:
                    i, m_i = sl.start + i_loc, m[i_loc]
            carry = i
            if i < 0 or not lo.any():
                continue
            viol = m_i - float(np.where(lo, m, np.inf).min())
            worst = max(worst, viol)
            if viol <= eps:
                continue
            quad_all = np.maximum(self.znorm[sl] + self.znorm[i] - 2.0 * (z[sl] @ z[i]), 1e-12)
            gain = np.where(lo & (m < m_i), (m_i - m) ** 2 / quad_all, -np.inf)
            j_loc = int(np.argmax(gain))
            j = sl.start + j_loc
            h_i = (lam - beta[i]) if tau[i] > 0 else beta[i]
            h_j = beta[j] if tau[j] > 0 else (lam - beta[j])
            h = min(h_i, h_j)
            quad = quad_all[j_loc]
            if quad > 1e-12:
                h = min(h, (m_i - m[j_loc]) / quad)
            cut_i, cut_j = self.cut[i], self.cut[j]
            if cut_i > cut_j:
                h = min(h, float(sums[cut_j:cut_i].min()))
            if h <= 0.0:
                continue
            beta[i] = min(max(beta[i] + tau[i] * h, 0.0), lam)
            beta[j] = min(max(beta[j] - tau[j] * h, 0.0), lam)
            if cut_i < cut_j:
                sums[cut_i:cut_j] += h
            else:
                sums[cut_j:cut_i] -= h
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
                self._refresh()  # guard against drift in the updated v and scores

    # ----------------------------------------------------- Newton face polish

    def _polish(self):
        """Maximize the dual over the free duals with a null-space Newton.

        SMO identifies the active box structure; the free duals are
        optimized jointly subject to the balance of each tie segment.  The
        reduced Hessian has rank at most the feature dimension, so the face
        can be unbounded: the consistent part of the Newton system is solved
        by least squares and any leftover linear ascent ray is ridden to the
        box.  Variables blocking a step are ejected from the working set
        instead of killing the step, and a step is cut short where a
        positive running sum would turn negative.
        """
        lam = self.lam
        tiny = _BOUND_SLACK * max(1.0, lam)
        banned = np.zeros(self.T, dtype=bool)
        for _ in range(_POLISH_ROUNDS):
            work = np.flatnonzero((self.beta > tiny) & (self.beta < lam - tiny) & ~banned)
            f = work.size
            if f == 0 or f > _POLISH_CAP:
                return
            _, sums, joined = self._segments()
            segment_of_cut = np.cumsum(np.concatenate(([True], ~joined[:-1])))
            tau_w = self.tau[work]
            cut_w = self.cut[work]
            grad = 1.0 + tau_w * self.s[work]  # dD/dbeta over the working set
            step, unbounded = _face_step(self.z[work], tau_w, segment_of_cut[cut_w], grad)
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
            rate = self._running_sums(np.bincount(cut_w, tau_w * step, self.prob.n_cuts))
            falling = joined & (rate < 0.0)
            if falling.any():
                alpha_max = min(alpha_max, float((sums[falling] / -rate[falling]).min()))
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

    def _segment_interval(self, sl):
        """Flat optimal interval of one segment's cut value given the current v."""
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
    def _pick(lo, hi):
        # a segment with terms has at least one finite end, and narrowing keeps it
        if np.isinf(lo):
            return float(hi)
        if np.isinf(hi):
            return float(lo)
        return 0.5 * (lo + hi)

    def _recover_cuts(self):
        n_cuts = self.prob.n_cuts
        segments, _, _ = self._segments()
        lo, hi = np.full(n_cuts, -np.inf), np.full(n_cuts, np.inf)
        valued = np.zeros(n_cuts, dtype=bool)
        for first, end in segments:
            interval = self._segment_interval(slice(self.bounds[first], self.bounds[end]))
            if interval is not None:
                lo[first:end], hi[first:end] = interval
                valued[first:end] = True
        # a cut can sit no lower than an earlier cut's interval allows, nor
        # higher than a later one's: narrowed so, the picks come out sorted
        for ch in self.chains:
            lo[ch] = np.maximum.accumulate(lo[ch])
            hi[ch] = np.minimum.accumulate(hi[ch][::-1])[::-1]
        values = np.full(n_cuts, np.nan)
        for first, end in segments:
            if valued[first]:
                values[first:end] = self._pick(lo[first], hi[first])
        # cuts with no terms at all are interpolated along their chain; a
        # half-open interval is picked at its finite end, which can pass a
        # later pick, and the running max moves it up inside the later intervals
        for ch in self.chains:
            run, known = values[ch], valued[ch]
            if known.any():
                run[~known] = np.interp(np.flatnonzero(~known), np.flatnonzero(known), run[known])
                values[ch] = np.maximum.accumulate(run)
        values[np.isnan(values)] = 0.0
        return values

    def _primal(self, cuts):
        margins = 1.0 + self.tau * (self.s - cuts[self.cut])
        return 0.5 * float(self.v @ self.v) + self.lam * float(np.clip(margins, 0.0, None).sum())

    def _dual(self):
        return float(self.beta.sum()) - 0.5 * float(self.v @ self.v)

    # ---------------------------------------------------------------- driver

    def solve(self, tol):
        if self.lam <= 0.0 or self.T == 0:
            # no hinge weight or no terms: the duals are clipped to zero
            cuts = self._recover_cuts()
            return HingeSolution(self.v, cuts, self._primal(cuts), 0.0, 0)
        eps = 1e-3
        budget = default_budget(self.prob.z.shape)
        while True:
            self._smo(eps, budget)
            if self.steps < budget:
                self._polish()
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


def solve_hinge_dual(prob, tol=1e-6):
    """Minimize the reduced subproblem; returns a :class:`HingeSolution`.

    Every solve starts from the interior-point warm start, or from the zero
    dual when that start's dual value is below zero's; each interior-point
    iteration counts as one step of the budget and of ``steps``.  The chains
    enter only as limits on the steps of the dual finish: no step lets an
    order multiplier, a running sum of cut balances, fall below 0.  Raises
    :class:`NonConvergence` when the duality gap cannot be closed: the step
    budget of :func:`default_budget` ran out (``budget``), or the SMO
    tolerance reached its floor (``eps-floor``).
    """
    beta, iterations = _ipm_warm_start(prob, default_budget(prob.z.shape))
    solver = _DualSolver(prob, warm=beta)
    if solver._dual() < 0.0:
        solver = _DualSolver(prob)
    solver.steps = iterations
    return solver.solve(tol)


def default_budget(shape):
    """Steps a solve of a (terms, dim) problem may take before NonConvergence.

    Interior-point iterations, SMO pair steps and polish face steps each
    count as one.
    """
    return max(200_000, 50 * shape[0] * max(shape[1], 1))

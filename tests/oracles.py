"""Reference computations and parameter builders shared by the test modules.

Nothing here is collected as a test. The test modules import it as
`oracles`: pytest puts this directory on sys.path, as it does to load
conftest.py.
"""

import math

import numpy as np

from fdp_accountant import accountant as acc
from fdp_accountant import conversions as cv
from fdp_accountant import normal
from fdp_accountant import tradeoff as tc
from fdp_accountant.errors import DomainError
import schedule as sch

ORDER_TOL = 1e-9     # curve_geq: slack on top of one mesh width
MU_BRACKET = 100.0   # gdp_mu_from_delta: largest mu searched


class VerificationError(RuntimeError):
    """A numerical reference could not be computed (a solver failed)."""


def phi(x):
    """Standard normal CDF via math.erfc, independent of fdp_accountant.normal."""
    return math.erfc(-x / math.sqrt(2.0)) / 2.0


def gd(c, t, leff=0.1):
    """Full-batch run with contraction c and effective sensitivity leff."""
    return acc.AlgoParams(kind="gd", eta=1.0 - c, sigma=1.0, n=1, L=leff,
                          steps=t, m=1.0, M=1.0)


def cgd(c, l, E, lbs=0.2):
    """Cyclic run of l batches of size 1 over E epochs, L/(b sigma) = lbs."""
    return acc.AlgoParams(kind="cgd", eta=1.0 - c, sigma=1.0, n=l, b=1,
                          L=lbs, epochs=E, m=1.0, M=1.0)


# -- theorems recomputed as schedule + meta bound -----------------------------


def gd_sc_mu_via_schedule(p):
    """bound_gd_sc recomputed as schedule + meta bound (equal to 1e-12 rel)."""
    c = p.require_strongly_convex()
    sched, _ = sch.optimal_sc_schedule(c, p.eta * p.L / p.n, p.t)
    return sch.meta_mu(sched, p.eta * p.sigma)


def gd_proj_mu_via_schedule(p):
    """Plateau constrained bound recomputed as schedule + meta bound; equals
    bound_gd_proj exactly when D n / (eta L) is an integer."""
    p.require_constrained()
    s = p.eta * p.L / p.n
    w = acc.ceil_snap(p.D * p.n / (p.eta * p.L))
    sched, _, _ = sch.optimal_proj_schedule(s, p.D, w, 0)
    return sch.meta_mu(sched, p.eta * p.sigma)


# -- optimal shift schedules ---------------------------------------------------


def optimal_schedule_qp(c: float, s_seq, z_tau: float = 0.0):
    """Minimum of sum a_k^2 over shifts closing the recursion from z_tau.

    With z_k = c z_{k-1} + s_k - a_k, the constraints a_k >= 0, z_k >= 0
    (k < n) and z_n = 0 are exactly lambda_k in [0, 1] with lambda_n = 1. As
    z = c^k z_tau + M (s - a) with M_kj = c^{k-j} (j <= k), this is a strictly
    convex QP, so one SLSQP solve from the feasible greedy start
    (a = s, a_1 += c z_tau) finds its unique optimum. Independent numerical
    check of the closed-form schedules; returns (sum_sq, a).
    """
    s_arr = np.asarray(s_seq, dtype=float).ravel()
    if s_arr.size == 0:
        raise DomainError("need at least one step")
    if c < 0 or z_tau < 0 or np.any(s_arr < 0):
        raise DomainError("need c >= 0, z_tau >= 0 and sensitivities >= 0")
    from scipy import optimize

    k = np.arange(s_arr.size)
    powers = float(c) ** np.arange(s_arr.size + 1)
    M = np.tril(powers[np.abs(k[:, None] - k[None, :])])
    z0 = powers[1:] * z_tau + M @ s_arr  # z with every a_k = 0
    a0 = s_arr.copy()
    a0[0] += c * z_tau
    res = optimize.minimize(
        lambda a: a @ a, a0, jac=lambda a: 2.0 * a, method="SLSQP",
        bounds=[(0.0, None)] * s_arr.size,
        constraints=[
            {"type": "ineq", "fun": lambda a: z0[:-1] - M[:-1] @ a,
             "jac": lambda a: -M[:-1]},
            {"type": "eq", "fun": lambda a: z0[-1:] - M[-1:] @ a,
             "jac": lambda a: -M[-1:]},
        ],
        options={"ftol": 1e-15, "maxiter": 1000})
    if not res.success:
        raise VerificationError(f"schedule QP did not converge: {res.message}")
    return float(res.x @ res.x), res.x


# -- tradeoff curves ----------------------------------------------------------


def mesh(f):
    """Largest alpha spacing of a curve's grid."""
    return float(np.max(np.diff(f.alphas)))


def curve_at(f, alpha):
    """The piecewise-linear interpolant of a curve's nodes at alpha."""
    return np.interp(alpha, f.alphas, f.values)


def curve_geq(f, g, tol=None):
    """Pointwise f >= g - tol on the common grid; returns (holds, max violation).

    The default tolerance is ORDER_TOL plus one mesh width of interpolation
    slack.
    """
    assert np.array_equal(f.alphas, g.alphas), "curves must share the alpha grid"
    if tol is None:
        tol = ORDER_TOL + mesh(f)
    violation = float(np.max(g.values - f.values))
    return violation <= tol, violation


def scalar_lower_hull(x, y):
    """Monotone-chain lower convex hull of points with increasing x, one point
    at a time: a stack point is popped unless it lies strictly below the
    segment from the point under it to the new point."""
    hx, hy = [], []
    for px, py in zip(np.asarray(x).tolist(), np.asarray(y).tolist()):
        while len(hx) >= 2:
            cross = (hx[-1] - hx[-2]) * (py - hy[-2]) - (hy[-1] - hy[-2]) * (px - hx[-2])
            if cross <= 0.0:
                hx.pop()
                hy.pop()
            else:
                break
        hx.append(px)
        hy.append(py)
    return np.asarray(hx), np.asarray(hy)


def convexify(points):
    """Greatest convex non-increasing minorant of a point cloud covering [0, 1],
    clipped to [0, 1 - alpha], on the cloud's distinct alphas: the reference
    hull for the subsampling operator."""
    pts = np.asarray(points, dtype=float)
    if pts.size == 0:
        raise DomainError("convexify needs a nonempty point cloud")
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise DomainError("points must be (alpha, value) pairs")
    order = np.lexsort((pts[:, 1], pts[:, 0]))
    x, y = pts[order, 0], pts[order, 1]
    if x[0] != 0.0 or x[-1] != 1.0:
        raise DomainError("point cloud must cover alpha in [0, 1]")
    # Ties on alpha keep the lower value: first occurrence after the lexsort.
    ux, starts = np.unique(x, return_index=True)
    vals = np.interp(ux, *scalar_lower_hull(ux, y[starts]))
    vals = np.minimum.accumulate(vals)
    np.clip(vals, 0.0, 1.0 - ux, out=vals)
    return tc.TradeoffCurve(ux, vals)


def subsample_points(f, p):
    """The points (alpha, min(f_p, f_p^{-1})), f_p = p*f + (1-p)*Id, whose
    greatest convex minorant is the subsampled curve C_p(f)."""
    fp = p * f.values + (1.0 - p) * (1.0 - f.alphas)
    fp_inv = tc.invert_curve(tc.TradeoffCurve(f.alphas, fp)).values
    return np.column_stack([f.alphas, np.minimum(fp, fp_inv)])


def subsampled_gdp_tradeoff(mu, p, alphas):
    """Exact C_p(G(mu)) at the given alphas (Dong-Roth-Su, Gaussian
    Differential Privacy, section 4), from SciPy's normal functions.

    f_p = p*G(mu) + (1-p)*Id has slope -1 at a* = Phi(-mu/2). C_p(G(mu)) is
    f_p on [0, a*], then the line a* + f_p(a*) - alpha, then f_p^{-1}. With
    the test threshold z, f_p is (Phibar(z), p*Phi(z - mu) + (1-p)*Phi(z)), so
    f_p^{-1}(alpha) = Phibar(z) where p*Phi(z - mu) + (1-p)*Phi(z) = alpha,
    a z >= mu/2 found by bisection.
    """
    from scipy.special import ndtr, ndtri

    a = np.asarray(alphas, dtype=float)
    star = ndtr(-mu / 2.0)
    f_star = p * ndtr(-mu / 2.0) + (1.0 - p) * ndtr(mu / 2.0)
    with np.errstate(divide="ignore"):
        left = p * ndtr(-ndtri(a) - mu) + (1.0 - p) * (1.0 - a)
    out = np.where(a <= star, left, star + f_star - a)
    right = a > f_star
    lo = np.full(np.count_nonzero(right), mu / 2.0)
    hi = lo + 40.0
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        below = p * ndtr(mid - mu) + (1.0 - p) * ndtr(mid) < a[right]
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    out[right] = ndtr(-0.5 * (lo + hi))
    return np.where(a == 1.0, 0.0, out)


def gaussian_profile(mu, x):
    """delta_G(x) = Phi(-x/mu + mu/2) - e^x Phi(-x/mu - mu/2), for every real
    x, from SciPy's log Phi: for x >= 0 as Phi(a) (1 - e^{x + log Phi(a - mu)
    - log Phi(a)}), and for x < 0 by delta_G(x) = 1 - e^x + e^x delta_G(-x)."""
    from scipy.special import log_ndtr

    if x < 0.0:
        return -math.expm1(x) + math.exp(x) * gaussian_profile(mu, -x)
    a = -x / mu + mu / 2.0
    return math.exp(log_ndtr(a)) * -math.expm1(
        x + log_ndtr(a - mu) - log_ndtr(a))


def subsampled_composite_delta(mu0, mu, p, eps):
    """delta(eps) of G(mu0) x C_p(G(mu)), mu0 > 0, by quadrature over the
    continuous law of the subsampled PRV Y (the prv module docstring's CDF),
    never over a lattice: delta(eps) = E[delta_G(eps - Y)], with
    T_p(e) = log(1 - p + p e^e) and e > 0 in every branch,
    - an atom (1 - p)(Phi(mu/2) - Phi(-mu/2)) at Y = 0;
    - Y = T_p(e), e drawn from p N(mu^2/2, mu^2) + (1 - p) N(-mu^2/2, mu^2);
    - Y = -T_p(e), e drawn from N(-mu^2/2, mu^2).
    The integrals run over e in (0, mu^2/2 + 40 mu], split where
    eps - T_p(e) = 0, near which a narrow G(mu0) bends."""
    from scipy import integrate
    from scipy.special import ndtr

    def tp(e):
        return e + math.log(p + (1.0 - p) * math.exp(-e))

    def density(e, mean):
        return math.exp(-0.5 * ((e - mean) / mu) ** 2) / (
            mu * math.sqrt(2.0 * math.pi))

    half, top = 0.5 * mu * mu, 0.5 * mu * mu + 40.0 * mu
    kink = math.log1p(math.expm1(eps) / p) if eps > 0.0 else top
    integrals = [integrate.quad(
        f, 0.0, top, points=[kink] if kink < top else None, limit=200,
        epsabs=1e-17, epsrel=1e-12)[0] for f in [
        lambda e: (p * density(e, half) + (1.0 - p) * density(e, -half))
        * gaussian_profile(mu0, eps - tp(e)),
        lambda e: density(e, -half) * gaussian_profile(mu0, eps + tp(e))]]
    atom = (1.0 - p) * (ndtr(mu / 2.0) - ndtr(-mu / 2.0))
    return atom * gaussian_profile(mu0, eps) + sum(integrals)


def mixture_gaussian_tradeoff(p, mu):
    """Exact curve of N(0,1) versus the mixture p*N(mu,1) + (1-p)*N(0,1).

    The likelihood ratio of the mixture against N(0,1) is increasing in the
    observation, so optimal tests reject above a threshold z. Scanning z with
    type-I error alpha(z) = 1 - Phi(z) gives type-II error
    (1-p)*Phi(z) + p*Phi(z - mu); the grid parametrizes z = Phi^{-1}(1-alpha).
    """
    alphas = tc.alpha_grid()
    if p == 0.0 or mu == 0.0:
        return tc.identity_curve(alphas)
    z = normal.inv_upper(alphas)
    with np.errstate(invalid="ignore"):
        vals = (1.0 - p) * (1.0 - alphas) + p * normal.cdf(z - mu)
    vals = np.where(alphas == 0.0, 1.0, np.where(alphas == 1.0, 0.0, vals))
    return tc.TradeoffCurve(alphas, vals)


# -- conversions --------------------------------------------------------------


def gdp_mu_from_delta(eps, delta):
    """mu with gdp_to_delta(mu, eps) = delta (the GDP level matching a given
    privacy-curve point), by bisection; delta is increasing in mu."""
    assert eps >= 0 and 0.0 < delta < 1.0
    assert cv.gdp_to_delta(MU_BRACKET, eps) >= delta, "delta beyond the mu bracket"
    lo, hi = 0.0, MU_BRACKET
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if cv.gdp_to_delta(mid, eps) < delta:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# -- tau sweeps ---------------------------------------------------------------


def tau_window_grid(t, count=64):
    """Log-spaced window lengths t - tau in [1, t], at most `count` of them:
    the fixed grid a window search must do no worse than."""
    ws = np.unique(np.round(np.geomspace(1, t, count)).astype(int))
    return [int(w) for w in ws]


# -- CLT approximations of the sgd bounds ---------------------------------------
#
# The bounds with the window t - tau optimized in closed form for the CLT
# limit of their subsampled factors. accountant._window_start forms the same
# windows, clamped and rounded, to start sweep_tau's search.


def clamp_window(w, t):
    """A CLT window clamped into [1, t]. An overflowed CLT term gives
    w = -inf (sc) or 0 (proj), and inf / inf gives nan: each reads as
    w = 1, the window's limit as the term grows."""
    return min(w, float(t)) if w >= 1 else 1.0


def clt_sgd_sc_window(p):
    """clt_sgd_sc's window t - tau, unrounded: -inf where the CLT term
    overflows."""
    c = p.require_strongly_convex()
    if c == 0:
        raise DomainError("CLT window is degenerate for contraction c = 0")
    ratio = p.L / (p.b * p.sigma)
    K = acc._clt_inner(2.0 * ratio)
    if K <= 0:
        raise DomainError("degenerate sensitivity: CLT term vanishes")
    log_inv_c = math.log(1.0 / c)
    arg = (p.b ** 2 * p.sigma * (1.0 - c) * math.sqrt(K)
           / (2.0 * math.sqrt(2.0) * p.n * p.L * math.sqrt(log_inv_c)))
    return -math.log(arg) / log_inv_c - 1.0


def clt_sgd_sc_mu(p, w):
    """CLT mu of the strongly convex SGD bound at window w."""
    c = p.contraction()
    ratio = p.L / (p.b * p.sigma)
    K = acc._clt_inner(2.0 * ratio)
    if K == math.inf:
        return math.inf
    head = ratio * c ** (w + 1.0) / (1.0 - c)
    return math.sqrt(8.0 * head * head + 2.0 * (p.b / p.n) ** 2 * w * K)


def clt_sgd_sc(p):
    """CLT-approximate strongly convex SGD bound with the window length
    optimized in closed form, clamped into [1, t]. Returns (t_minus_tau, mu),
    mu = +inf where the CLT term overflows."""
    w = clamp_window(clt_sgd_sc_window(p), p.t)
    return w, clt_sgd_sc_mu(p, w)


def clt_sgd_proj_window(p):
    """clt_sgd_proj's window t - tau, unrounded, and its CLT term K: w = 0
    where K overflows."""
    p.require_constrained()
    if p.D == 0:
        raise DomainError("CLT window is degenerate for D = 0")
    K = acc._clt_inner(2.0 * math.sqrt(2.0) * p.L / (p.b * p.sigma))
    if K <= 0:
        raise DomainError("degenerate sensitivity: CLT term vanishes")
    return p.D * p.n / (p.b * p.eta * p.sigma * math.sqrt(K)), K


def clt_sgd_proj_mu(p, w, K):
    """sqrt(2 D^2 / (eta^2 sigma^2 w) + 2 (b/n)^2 w K), as a hypot: no
    square is formed, so a large D does not overflow."""
    if K == math.inf:
        return math.inf
    return math.hypot(math.sqrt(2.0 / w) * p.D / (p.eta * p.sigma),
                      p.b / p.n * math.sqrt(2.0 * w * K))


def clt_sgd_proj(p):
    """CLT-approximate constrained convex SGD bound with the window length
    optimized in closed form, clamped into [1, t]. Returns (t_minus_tau, mu),
    mu = +inf where the CLT term overflows."""
    w, K = clt_sgd_proj_window(p)
    w = clamp_window(w, p.t)
    return w, clt_sgd_proj_mu(p, w, K)

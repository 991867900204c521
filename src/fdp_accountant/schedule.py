"""Shift schedules for the interpolated-process analysis.

A schedule tracks, for steps k in (tau, t], a shift fraction lambda_k, a
Gaussian cost increment a_k and a residual coupling distance z_k obeying

    a_k = lambda_k (c z_{k-1} + s_k),    z_k = (1 - lambda_k) (c z_{k-1} + s_k),

so that z_k + a_k = c z_{k-1} + s_k. A schedule that ends at z_t = 0 certifies
the Gaussian privacy parameter mu = sqrt(sum a_k^2) / sigma. The closed-form
optimal schedules below minimize sum a_k^2 for the contractive (0 < c < 1),
projected (c = 1, z_tau = D) and cyclic-batch variants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

FEASIBILITY_TOL = -1e-10  # allowed round-off on z_k >= 0
TERMINAL_TOL = 1e-9       # |z_t| considered zero, relative to s-scale
REPLAY_RTOL = 1e-12


@dataclass(frozen=True, eq=False)
class ShiftSchedule:
    """Sequences (lambda_k, a_k, z_k) for k in (tau, t], plus z_tau."""

    tau: int
    t: int
    c: float
    s_seq: np.ndarray   # per-step sensitivities, length t - tau
    lambdas: np.ndarray
    a: np.ndarray
    z: np.ndarray       # residual distances z_tau..z_t, length t - tau + 1

    def __post_init__(self):
        for name in ("s_seq", "lambdas", "a", "z"):
            arr = np.asarray(getattr(self, name), dtype=float)
            object.__setattr__(self, name, arr)
            arr.flags.writeable = False
        self.validate()

    @property
    def steps(self) -> int:
        return self.t - self.tau

    @property
    def sum_sq(self) -> float:
        return float(np.dot(self.a, self.a))

    @property
    def z_final(self) -> float:
        return float(self.z[-1])

    def validate(self) -> None:
        n = self.steps
        if n < 0 or self.tau < 0:
            raise DomainError("schedule needs 0 <= tau <= t")
        for name in ("s_seq", "lambdas", "a"):
            if getattr(self, name).shape != (n,):
                raise DomainError(f"{name} must have length t - tau = {n}")
        if self.z.shape != (n + 1,):
            raise DomainError("z must have length t - tau + 1")
        if self.c < 0:
            raise DomainError("contraction factor must be >= 0")
        if np.any(self.s_seq < 0) or np.any(self.a < FEASIBILITY_TOL):
            raise DomainError("sensitivities and shifts must be >= 0")
        if np.any(self.z < FEASIBILITY_TOL):
            raise DomainError("residual distances must be >= 0")
        if np.any(self.lambdas < -1e-12) or np.any(self.lambdas > 1.0 + 1e-12):
            raise DomainError("lambda values must lie in [0, 1]")
        # Recursion consistency: z_k + a_k = c z_{k-1} + s_k.
        lhs = self.z[1:] + self.a
        rhs = self.c * self.z[:-1] + self.s_seq
        scale = np.maximum(1e-300, np.abs(rhs))
        if np.any(np.abs(lhs - rhs) > 1e-9 * np.maximum(1.0, scale)):
            raise DomainError("schedule does not satisfy the shift recursion")

    def is_terminal(self) -> bool:
        """True when the schedule fully interpolates (z_t = 0)."""
        scale = max(1.0, float(np.max(self.s_seq, initial=0.0)), float(self.z[0]))
        return abs(self.z_final) <= TERMINAL_TOL * scale

    def replay(self) -> "ShiftSchedule":
        """Re-run the recursion from (c, s_seq, lambdas, z_tau)."""
        return recurse_schedule(self.c, self.s_seq, self.lambdas,
                                z_tau=float(self.z[0]), tau=self.tau)


def _lambda_from(a: np.ndarray, denom: np.ndarray) -> np.ndarray:
    """Recover lambda_k = a_k / (c z_{k-1} + s_k), with 0/0 defined as 0."""
    lam = np.zeros_like(a)
    nz = denom > 0
    lam[nz] = a[nz] / denom[nz]
    return np.clip(lam, 0.0, 1.0)


def recurse_schedule(c: float, s_seq, lambdas, z_tau: float = 0.0,
                     tau: int = 0) -> ShiftSchedule:
    """Apply the shift recursion for given lambdas and report the schedule.

    Terminal interpolation (lambda_t = 1, hence z_t = 0) is not forced here;
    meta_mu refuses schedules that do not end at z_t = 0.
    """
    lambdas = np.asarray(lambdas, dtype=float)
    n = lambdas.size
    s_seq = np.broadcast_to(np.asarray(s_seq, dtype=float), (n,)).copy()
    if c < 0 or z_tau < 0:
        raise DomainError("c and z_tau must be >= 0")
    if np.any(lambdas < 0) or np.any(lambdas > 1):
        raise DomainError("lambda values must lie in [0, 1]")
    if np.any(s_seq < 0):
        raise DomainError("sensitivities must be >= 0")
    z = np.empty(n + 1)
    a = np.empty(n)
    z[0] = z_tau
    for k in range(n):
        base = c * z[k] + s_seq[k]
        a[k] = lambdas[k] * base
        z[k + 1] = (1.0 - lambdas[k]) * base
    return ShiftSchedule(tau=tau, t=tau + n, c=c, s_seq=s_seq,
                         lambdas=lambdas, a=a, z=z)


def meta_mu(schedule: ShiftSchedule, sigma: float) -> float:
    """Privacy parameter mu = sqrt(sum a_k^2) / sigma of a terminal schedule."""
    if sigma <= 0:
        raise DomainError(f"sigma must be > 0, got {sigma}")
    if not schedule.is_terminal():
        raise DomainError("schedule must end at z_t = 0 to certify a bound")
    return math.sqrt(schedule.sum_sq) / sigma


# -- closed-form optimal schedules -------------------------------------------


def optimal_sc_schedule(c: float, s: float, t: int):
    """Optimal schedule for constant sensitivity under contraction 0 < c < 1.

    Closed forms: a_k = c^{t-k} (1+c) s / (1+c^t) and
    z_k = (1-c^k)(1-c^{t-k}) s / ((1+c^t)(1-c)); the optimal value is
    sum a_k^2 = (1-c^t)/(1+c^t) * (1+c)/(1-c) * s^2.

    Returns (schedule, sum_sq).
    """
    if not 0.0 < c < 1.0:
        raise DomainError(
            f"contraction factor must lie in (0, 1), got {c}; "
            "use optimal_proj_schedule for the c = 1 (constrained) setting")
    if s <= 0:
        raise DomainError(f"sensitivity must be > 0, got {s}")
    if t < 1:
        raise DomainError(f"t must be >= 1, got {t}")
    k = np.arange(1, t + 1, dtype=float)
    ct = c ** t
    a = c ** (t - k) * (1.0 + c) * s / (1.0 + ct)
    kz = np.arange(0, t + 1, dtype=float)
    z = (1.0 - c ** kz) * (1.0 - c ** (t - kz)) * s / ((1.0 + ct) * (1.0 - c))
    lam = _lambda_from(a, c * z[:-1] + s)
    sched = ShiftSchedule(tau=0, t=t, c=c, s_seq=np.full(t, float(s)),
                          lambdas=lam, a=a, z=z)
    sum_sq = (1.0 - ct) / (1.0 + ct) * (1.0 + c) / (1.0 - c) * s * s
    return sched, sum_sq


def optimal_proj_schedule(s: float, D: float, t: int, tau: int):
    """Optimal schedule for the projected (c = 1) setting with z_tau = D.

    Constant shifts a_k = s + D/(t - tau) give
    sum a_k^2 = (s + D/(t-tau))^2 (t-tau); over real window lengths this is
    minimized at t - tau = D/s.

    Returns (schedule, sum_sq, continuous_minimizer).
    """
    if s <= 0:
        raise DomainError(f"sensitivity must be > 0, got {s}")
    if D < 0:
        raise DomainError(f"diameter must be >= 0, got {D}")
    if not 0 <= tau < t:
        raise DomainError(f"need 0 <= tau < t, got tau={tau}, t={t}")
    w = t - tau
    r = D / w
    k = np.arange(tau + 1, t + 1, dtype=float)
    a = np.full(w, s + r)
    z = r * (t - np.arange(tau, t + 1, dtype=float))
    lam = (s + r) / (s + r * (t - k + 1.0))
    sched = ShiftSchedule(tau=tau, t=t, c=1.0, s_seq=np.full(w, float(s)),
                          lambdas=lam, a=a, z=z)
    return sched, (s + r) ** 2 * w, D / s


def _cyclic_s_seq(s: float, l: int, j_star: int, k_lo: int, k_hi: int) -> np.ndarray:
    """Sensitivity s at steps hitting the perturbed batch, 0 elsewhere."""
    k = np.arange(k_lo, k_hi + 1)
    return np.where((k - 1) % l + 1 == j_star, float(s), 0.0)


def cgd_sc_schedule(c: float, s: float, l: int, E: int, j_star: int):
    """Optimal cyclic-batch schedule under contraction, horizon t* = lE + j* - l - 1.

    Shifts are zero before step j* and a_k = c^{lE - k + j* - 2} (1-c^2) s /
    ((1-c^l)(1 + c^{l(E-1)})) afterwards; feasibility (z_k >= 0, z_{t*} = 0)
    is validated by replaying the recursion.

    Returns (schedule, sum_sq). E = 1 yields an empty schedule (sum_sq = 0).
    """
    if not 0.0 < c < 1.0:
        raise DomainError(f"contraction factor must lie in (0, 1), got {c}")
    if s <= 0:
        raise DomainError(f"sensitivity must be > 0, got {s}")
    if l < 1 or E < 1 or not 1 <= j_star <= l:
        raise DomainError("need l >= 1, E >= 1 and 1 <= j_star <= l")
    t = l * E
    t_star = t + j_star - l - 1
    n = t_star
    k = np.arange(1, n + 1, dtype=float)
    denom = (1.0 - c ** l) * (1.0 + c ** (t - l))
    a = np.where(k >= j_star, c ** (t - k + j_star - 2) * (1.0 - c * c) * s / denom, 0.0)
    s_seq = _cyclic_s_seq(s, l, j_star, 1, n)
    z = np.empty(n + 1)
    z[0] = 0.0
    for i in range(n):
        z[i + 1] = c * z[i] + s_seq[i] - a[i]
    if np.any(z < FEASIBILITY_TOL * max(1.0, s)):
        raise DomainError("infeasible cyclic schedule: negative residual distance")
    if abs(z[-1]) > TERMINAL_TOL * max(1.0, s):
        raise DomainError("infeasible cyclic schedule: nonzero terminal residual")
    z[-1] = 0.0
    lam = _lambda_from(a, c * z[:-1] + s_seq)
    sched = ShiftSchedule(tau=0, t=n, c=c, s_seq=s_seq, lambdas=lam, a=a, z=z)
    return sched, sched.sum_sq


def cgd_proj_schedule(s: float, D: float, l: int, E: int, tau: int, j_star: int):
    """Constant-shift cyclic schedule for the projected setting.

    Shifts a_k = (D + s(E - tau)) / (l(E - tau)) over steps tau* + 1 .. t*,
    where tau* = j* + l(tau - 1) - 1 and t* = lE + j* - l - 1, so that each
    batch cycle in the window starts with the step that touches the perturbed
    batch. The window then contains l(E - tau) steps with E - tau sensitive
    ones, which is exactly the budget the constant shift closes (z_{t*} = 0);
    feasibility is validated by replaying the c = 1 recursion from
    z_{tau*} = D.

    Returns (schedule, sum_sq); sum_sq = (D + s(E - tau))^2 / (l(E - tau)).
    """
    if s <= 0:
        raise DomainError(f"sensitivity must be > 0, got {s}")
    if D < 0:
        raise DomainError(f"diameter must be >= 0, got {D}")
    if l < 1 or not 1 <= j_star <= l:
        raise DomainError("need l >= 1 and 1 <= j_star <= l")
    if not 1 <= tau <= E - 1:
        raise DomainError(f"need 1 <= tau <= E - 1, got tau={tau}, E={E}")
    t = l * E
    t_star = t + j_star - l - 1
    tau_star = j_star + l * (tau - 1) - 1
    n = t_star - tau_star  # = l (E - tau)
    a_val = (D + s * (E - tau)) / (l * (E - tau))
    a = np.full(n, a_val)
    s_seq = _cyclic_s_seq(s, l, j_star, tau_star + 1, t_star)
    z = np.empty(n + 1)
    z[0] = float(D)
    for i in range(n):
        z[i + 1] = z[i] + s_seq[i] - a[i]
    if np.any(z < FEASIBILITY_TOL * max(1.0, s, D)):
        raise DomainError("infeasible cyclic schedule: negative residual distance")
    if abs(z[-1]) > TERMINAL_TOL * max(1.0, s, D):
        raise DomainError("infeasible cyclic schedule: nonzero terminal residual")
    z[-1] = 0.0
    lam = _lambda_from(a, z[:-1] + s_seq)
    sched = ShiftSchedule(tau=tau_star, t=t_star, c=1.0, s_seq=s_seq,
                          lambdas=lam, a=a, z=z)
    return sched, sched.sum_sq

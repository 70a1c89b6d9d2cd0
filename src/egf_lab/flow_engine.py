"""Time evolution of curvature data along one arclength-parameterized normal curve.

The state lives on a uniform 1-D grid: either a scalar normal-curvature
profile lam(s) with its warping factor phi(s), or the full vector of power
sums tau_1..tau_n per node.  Spatial differentiation along the normal curve
is plain d/ds; the parameterization never changes because the flow leaves the
normal component of the metric untouched.

Two explicit schemes are provided.  ``upwind`` discretizes the quasilinear
form with one-sided differences chosen by the local characteristic speed;
``lax_friedrichs`` uses the conservative flux with neighbor averaging.  Time
stepping is forward Euler under a CFL bound (two-stage Heun available for
convergence studies on the upwind operator).  Shocks are not captured: the
integrators detect non-finite values and runaway total variation and stop
with a blow-up report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .sym_curvature import (
    FlowFunctional,
    power_sums_with_tau0,
    psi_of_lambda,
    psi_prime,
    umbilical_tau,
)

BOUNDARIES = ("periodic", "transmissive")
SCHEMES = ("upwind", "lax_friedrichs")
INTEGRATORS = ("euler", "heun")

# Runaway-oscillation threshold: stop when total variation exceeds ten times
# its initial value (plus an absolute floor so smooth roundoff noise on
# near-constant data never trips it).
TV_GROWTH_LIMIT = 10.0
TV_FLOOR = 1e-9


class FlowBlowUpError(RuntimeError):
    """Non-finite values or runaway oscillation; t_last is the last valid time."""

    def __init__(self, message: str, t_last: float):
        super().__init__(f"{message} (last valid t = {t_last:.6g})")
        self.t_last = t_last


class BoundedProgressError(RuntimeError):
    """The step budget ran out before t_end was reached."""


class ShockError(RuntimeError):
    """Characteristics crossed; the transported solution is no longer single-valued."""


def _uniform_spacing(s: np.ndarray) -> float:
    ds = np.diff(s)
    if ds.size == 0 or np.any(ds <= 0):
        raise ValueError("grid must be strictly increasing")
    if np.max(ds) - np.min(ds) > 1e-9 * np.max(ds):
        raise ValueError("grid spacing must be uniform")
    return float(np.mean(ds))


@dataclass
class UmbilicalProfile:
    """Sampled normal-curvature profile lam(s) with warping factor phi(s).

    Periodic grids omit the duplicate endpoint: s = s0 + L*arange(G)/G.
    Transmissive grids span the closed interval with G nodes.
    """

    s: np.ndarray
    lam: np.ndarray
    phi: np.ndarray
    boundary: str = "periodic"
    t: float = 0.0

    def __post_init__(self):
        self.s = np.asarray(self.s, dtype=float)
        self.lam = np.asarray(self.lam, dtype=float)
        self.phi = np.asarray(self.phi, dtype=float)
        if self.boundary not in BOUNDARIES:
            raise ValueError(f"boundary must be one of {BOUNDARIES}")
        if self.s.size < 8:
            raise ValueError("need at least 8 grid nodes")
        if self.lam.shape != self.s.shape or self.phi.shape != self.s.shape:
            raise ValueError("lam and phi must match the grid")
        if not (np.all(np.isfinite(self.lam)) and np.all(np.isfinite(self.phi))):
            raise ValueError("profile values must be finite")
        if np.any(self.phi <= 0):
            raise ValueError("warping factor must be positive")
        _uniform_spacing(self.s)

    @property
    def periodic(self) -> bool:
        return self.boundary == "periodic"

    @property
    def ds(self) -> float:
        return float(self.s[1] - self.s[0])

    @property
    def length(self) -> float:
        span = float(self.s[-1] - self.s[0])
        return span + self.ds if self.periodic else span

    def copy(self) -> "UmbilicalProfile":
        return UmbilicalProfile(
            self.s.copy(), self.lam.copy(), self.phi.copy(), self.boundary, self.t
        )

    @classmethod
    def from_function(
        cls,
        lam0: Callable[[np.ndarray], np.ndarray],
        grid: int,
        length: float,
        boundary: str = "periodic",
        s0: float = 0.0,
        phi0: Callable[[np.ndarray], np.ndarray] | float = 1.0,
    ) -> "UmbilicalProfile":
        if boundary == "periodic":
            s = s0 + length * np.arange(grid) / grid
        else:
            s = np.linspace(s0, s0 + length, grid)
        lam = np.asarray(lam0(s), dtype=float) * np.ones_like(s)
        phi = (phi0(s) if callable(phi0) else np.full_like(s, float(phi0)))
        return cls(s, lam, np.asarray(phi, dtype=float), boundary)


@dataclass
class TauField:
    """Node values of the power sums tau_1..tau_n along the normal curve."""

    s: np.ndarray
    tau: np.ndarray  # shape (G, n)
    boundary: str = "periodic"
    t: float = 0.0

    def __post_init__(self):
        self.s = np.asarray(self.s, dtype=float)
        self.tau = np.asarray(self.tau, dtype=float)
        if self.boundary not in BOUNDARIES:
            raise ValueError(f"boundary must be one of {BOUNDARIES}")
        if self.s.size < 8:
            raise ValueError("need at least 8 grid nodes")
        if self.tau.ndim != 2 or self.tau.shape[0] != self.s.size:
            raise ValueError("tau must have shape (grid, n)")
        if self.tau.shape[1] < 1:
            raise ValueError("need n >= 1")
        if not np.all(np.isfinite(self.tau)):
            raise ValueError("tau values must be finite")
        _uniform_spacing(self.s)

    @property
    def n(self) -> int:
        return self.tau.shape[1]

    @property
    def periodic(self) -> bool:
        return self.boundary == "periodic"

    @property
    def ds(self) -> float:
        return float(self.s[1] - self.s[0])

    @classmethod
    def from_umbilical(
        cls,
        lam0: Callable[[np.ndarray], np.ndarray],
        n: int,
        grid: int,
        length: float,
        boundary: str = "periodic",
        s0: float = 0.0,
    ) -> "TauField":
        if boundary == "periodic":
            s = s0 + length * np.arange(grid) / grid
        else:
            s = np.linspace(s0, s0 + length, grid)
        lam = np.asarray(lam0(s), dtype=float) * np.ones_like(s)
        return cls(s, umbilical_tau(n, lam), boundary)


@dataclass
class StepControl:
    """Explicit time-stepping policy."""

    t_end: float
    cfl: float = 0.9
    scheme: str = "upwind"
    max_steps: int = 200_000
    integrator: str = "euler"

    def __post_init__(self):
        if not 0.0 < self.cfl <= 1.0:
            raise ValueError("cfl must lie in (0, 1]")
        if self.scheme not in SCHEMES:
            raise ValueError(f"scheme must be one of {SCHEMES}")
        if self.integrator not in INTEGRATORS:
            raise ValueError(f"integrator must be one of {INTEGRATORS}")
        if self.max_steps < 1:
            raise ValueError("max_steps must be >= 1")
        if not (math.isfinite(self.t_end) and self.t_end >= 0):
            raise ValueError(f"t_end must be finite and >= 0, got {self.t_end!r}")
        if self.integrator == "heun" and self.scheme != "upwind":
            raise ValueError("integrator heun is only wired to the upwind operator")


@dataclass
class FlowHistory:
    """Recorded (t, lam) snapshots of one run, first and last always included."""

    times: list = field(default_factory=list)
    lam: list = field(default_factory=list)

    def append(self, t: float, lam: np.ndarray):
        self.times.append(float(t))
        self.lam.append(np.array(lam, copy=True))


def _neighbors(u: np.ndarray, periodic: bool, ghost_left=None, ghost_right=None):
    """Left/right neighbor arrays; transmissive edges use constant extrapolation
    unless explicit ghost values are supplied."""
    if periodic:
        return np.roll(u, 1), np.roll(u, -1)
    gl = u[0] if ghost_left is None else ghost_left
    gr = u[-1] if ghost_right is None else ghost_right
    left = np.concatenate(([gl], u[:-1]))
    right = np.concatenate((u[1:], [gr]))
    return left, right


def _upwind_derivative(u, ds, speed, periodic, ghost_left=None, ghost_right=None):
    left, right = _neighbors(u, periodic, ghost_left, ghost_right)
    backward = (u - left) / ds
    forward = (right - u) / ds
    return np.where(speed >= 0, backward, forward)


def _central_derivative(u, ds, periodic):
    left, right = _neighbors(u, periodic)
    d = (right - left) / (2.0 * ds)
    if not periodic:
        # second-order one-sided stencils at the edges
        d[0] = (-3.0 * u[0] + 4.0 * u[1] - u[2]) / (2.0 * ds)
        d[-1] = (3.0 * u[-1] - 4.0 * u[-2] + u[-3]) / (2.0 * ds)
    return d


def total_variation(u: np.ndarray, periodic: bool) -> float:
    tv = float(np.sum(np.abs(np.diff(u))))
    if periodic:
        tv += abs(float(u[0] - u[-1]))
    return tv


def _pick_dt(max_speed: float, ds: float, cfl: float, remaining: float) -> float:
    if max_speed > 0:
        dt = min(cfl * ds / max_speed, remaining)
    else:
        dt = remaining
    if dt <= 1e-15 * max(1.0, remaining):
        raise BoundedProgressError(
            f"time step collapsed to {dt:.3e}; cannot make progress"
        )
    return dt


def _lambda_increment(lam, F, scheme, ds, periodic):
    """Spatial operator L(lam) with d lam/dt = L(lam), plus the local speeds."""
    speed = 0.5 * np.asarray(psi_prime(F, lam))
    if scheme == "upwind":
        return -speed * _upwind_derivative(lam, ds, speed, periodic), speed
    flux = 0.5 * np.asarray(psi_of_lambda(F, lam))
    fl, fr = _neighbors(flux, periodic)
    return -(fr - fl) / (2.0 * ds), speed


def step_umbilical(
    p: UmbilicalProfile,
    F: FlowFunctional,
    ctl: StepControl,
    inflow_left: Callable[[float], float] | None = None,
    inflow_right: Callable[[float], float] | None = None,
) -> UmbilicalProfile:
    """Advance lam (and phi) by one explicit step of d lam/dt + d/ds(psi(lam)/2) = 0.

    The step size satisfies (max|psi'|/2) dt / ds <= cfl and never overshoots
    t_end.  Inflow callables impose Dirichlet data at the corresponding
    transmissive edge; without them the edges use constant extrapolation.
    """
    lam = p.lam
    ds = p.ds
    remaining = ctl.t_end - p.t
    if remaining <= 0:
        raise ValueError("profile is already at or beyond t_end")

    # non-finite intermediates are converted into structured blow-up errors
    with np.errstate(all="ignore"):
        psi_old = np.asarray(psi_of_lambda(F, lam))
        speed0 = 0.5 * np.asarray(psi_prime(F, lam))
        dt = _pick_dt(float(np.max(np.abs(speed0))), ds, ctl.cfl, remaining)

        if ctl.scheme == "upwind":
            if ctl.integrator == "heun":
                k1, _ = _lambda_increment(lam, F, "upwind", ds, p.periodic)
                k2, _ = _lambda_increment(lam + dt * k1, F, "upwind", ds, p.periodic)
                lam_new = lam + 0.5 * dt * (k1 + k2)
            else:
                lam_new = lam - dt * speed0 * _upwind_derivative(
                    lam, ds, speed0, p.periodic
                )
        else:
            flux = 0.5 * psi_old
            ll, lr = _neighbors(lam, p.periodic)
            fl, fr = _neighbors(flux, p.periodic)
            lam_new = 0.5 * (ll + lr) - dt / (2.0 * ds) * (fr - fl)

        t_new = p.t + dt
        if not p.periodic:
            if inflow_left is not None:
                lam_new[0] = inflow_left(t_new)
            if inflow_right is not None:
                lam_new[-1] = inflow_right(t_new)

        if not np.all(np.isfinite(lam_new)):
            raise FlowBlowUpError("non-finite normal curvature", p.t)

        # trapezoid-in-time update of the warping integral phi = phi0 exp(int psi/2)
        psi_new = np.asarray(psi_of_lambda(F, lam_new))
        phi_new = p.phi * np.exp(0.25 * dt * (psi_old + psi_new))
    if not np.all(np.isfinite(phi_new)):
        raise FlowBlowUpError("non-finite warping factor", p.t)

    return UmbilicalProfile(p.s, lam_new, phi_new, p.boundary, t_new)


def evolve_umbilical(
    p: UmbilicalProfile,
    F: FlowFunctional,
    ctl: StepControl,
    record_every: int = 1,
    on_snapshot: Callable[[UmbilicalProfile], None] | None = None,
    inflow_left: Callable[[float], float] | None = None,
    inflow_right: Callable[[float], float] | None = None,
) -> tuple[UmbilicalProfile, FlowHistory]:
    """March the profile to ctl.t_end, recording history every record_every steps."""
    history = FlowHistory()
    history.append(p.t, p.lam)
    if on_snapshot is not None:
        on_snapshot(p)
    tv0 = total_variation(p.lam, p.periodic)
    steps = 0
    eps = 1e-12 * max(1.0, abs(ctl.t_end))
    while p.t < ctl.t_end - eps:
        if steps >= ctl.max_steps:
            raise BoundedProgressError(
                f"t = {p.t:.6g} after {steps} steps; t_end = {ctl.t_end:.6g} unreached"
            )
        p = step_umbilical(p, F, ctl, inflow_left, inflow_right)
        steps += 1
        tv = total_variation(p.lam, p.periodic)
        if tv > TV_GROWTH_LIMIT * max(tv0, TV_FLOOR):
            raise FlowBlowUpError(
                f"total variation grew to {tv:.3e} from {tv0:.3e}", p.t
            )
        done = p.t >= ctl.t_end - eps
        if steps % record_every == 0 or done:
            history.append(p.t, p.lam)
            if on_snapshot is not None:
                on_snapshot(p)
    return p, history


def evolve_warping(
    history: FlowHistory, p0: UmbilicalProfile, F: FlowFunctional
) -> np.ndarray:
    """phi at the final recorded time: phi0 * exp(trapz(psi(lam), t) / 2)."""
    if not history.times:
        raise ValueError("empty history")
    times = np.asarray(history.times)
    if np.any(np.diff(times) < 0):
        raise ValueError("history times must be non-decreasing")
    for snap in history.lam:
        if np.shape(snap) != p0.lam.shape:
            raise ValueError("history snapshots do not match the profile grid")
    integral = np.zeros_like(p0.lam)
    psi_prev = np.asarray(psi_of_lambda(F, history.lam[0]))
    for idx in range(1, len(times)):
        psi_next = np.asarray(psi_of_lambda(F, history.lam[idx]))
        integral += 0.5 * (psi_prev + psi_next) * (times[idx] - times[idx - 1])
        psi_prev = psi_next
    return p0.phi * np.exp(0.5 * integral)


def characteristics_oracle(
    lam0: Callable[[np.ndarray], np.ndarray],
    F: FlowFunctional,
    t: float,
    s_out: np.ndarray,
    periodic_length: float | None = None,
    refine: int = 16,
) -> np.ndarray:
    """Transport lam0 along characteristics s(t) = s0 + psi'(lam0(s0)) t / 2.

    Exact (up to interpolation) while characteristics stay single-valued; a
    crossing raises ShockError.  When psi' is constant over the sampled range
    the solution is a pure translation and is evaluated directly through the
    lam0 callable with no interpolation error.
    """
    s_out = np.asarray(s_out, dtype=float)
    if t == 0:
        return np.asarray(lam0(s_out), dtype=float) * np.ones_like(s_out)

    lam_probe = np.asarray(lam0(s_out), dtype=float) * np.ones_like(s_out)
    slopes = np.asarray(psi_prime(F, lam_probe))
    scale = max(1.0, float(np.max(np.abs(slopes))))
    if float(np.ptp(slopes)) <= 1e-9 * scale:
        a = 0.5 * float(np.mean(slopes))
        arg = s_out - a * t
        if periodic_length is not None:
            arg = s_out[0] + np.mod(arg - s_out[0], periodic_length)
        return np.asarray(lam0(arg), dtype=float) * np.ones_like(arg)

    n_fine = refine * s_out.size
    if periodic_length is not None:
        base = s_out[0] + periodic_length * np.arange(n_fine) / n_fine
    else:
        pad = 0.5 * float(np.max(np.abs(slopes))) * abs(t)
        base = np.linspace(s_out[0] - pad, s_out[-1] + pad, n_fine)
    lam_base = np.asarray(lam0(base), dtype=float) * np.ones_like(base)
    positions = base + 0.5 * np.asarray(psi_prime(F, lam_base)) * t
    if np.any(np.diff(positions) <= 0):
        raise ShockError(
            f"characteristics crossed before t = {t:.6g}; no classical solution"
        )
    if periodic_length is not None:
        knots = np.concatenate(
            [positions - periodic_length, positions, positions + periodic_length]
        )
        values = np.tile(lam_base, 3)
        return np.interp(s_out, knots, values)
    if s_out[0] < positions[0] or s_out[-1] > positions[-1]:
        raise ValueError("output grid leaves the domain of the characteristic map")
    return np.interp(s_out, positions, lam_base)


def _tau_coefficient_bound(fvals: np.ndarray, n: int) -> float:
    """max over equations/nodes of sum_j |i j f_j / (2(i+j-1))|, the CFL speed."""
    worst = 0.0
    for i in range(1, n + 1):
        acc = np.zeros(fvals.shape[0])
        for j in range(1, n):
            acc += np.abs(i * j * fvals[:, j] / (2.0 * (i + j - 1)))
        worst = max(worst, float(np.max(acc)) if acc.size else 0.0)
    return worst


def step_tau_system(fld: TauField, F: FlowFunctional, ctl: StepControl) -> TauField:
    """One explicit step of the quasilinear transport system for tau_1..tau_n.

    d tau_i/dt = -(i/2) [ tau_{i-1} d_s f_0
                          + sum_j ( j f_j / (i+j-1) d_s tau_{i+j-1}
                                    + tau_{i+j-1} d_s f_j ) ]
    Power sums above index n come from the Newton extension of the node
    values; tau_0 = n stays constant.  Derivatives of the coefficient
    functions are finite differences of their node-wise evaluations.
    """
    if F.n != fld.n:
        raise ValueError(f"functional is for n={F.n}, field has n={fld.n}")
    n = fld.n
    tau = fld.tau
    ds = fld.ds
    remaining = ctl.t_end - fld.t
    if remaining <= 0:
        raise ValueError("field is already at or beyond t_end")

    m_top = max(n, 2 * n - 2)
    taux = power_sums_with_tau0(tau, n, m_top)  # (G, m_top+1), index j <-> tau_j
    fvals = F.evaluate(tau)  # (G, n)

    speed_bound = _tau_coefficient_bound(fvals, n)
    dt = _pick_dt(speed_bound, ds, ctl.cfl, remaining)

    # aggregate advection coefficient per equation, used for the upwind bias
    signs = np.zeros((n, tau.shape[0]))
    for i in range(1, n + 1):
        for j in range(1, n):
            signs[i - 1] += i * j * fvals[:, j] / (2.0 * (i + j - 1))

    def deriv(u: np.ndarray, eq: int) -> np.ndarray:
        if ctl.scheme == "upwind":
            return _upwind_derivative(u, ds, signs[eq - 1], fld.periodic)
        return _central_derivative(u, ds, fld.periodic)

    rhs = np.zeros_like(tau)
    for i in range(1, n + 1):
        bracket = taux[:, i - 1] * deriv(fvals[:, 0], i)
        for j in range(1, n):
            bracket += (j * fvals[:, j] / (i + j - 1)) * deriv(taux[:, i + j - 1], i)
            bracket += taux[:, i + j - 1] * deriv(fvals[:, j], i)
        rhs[:, i - 1] = -(i / 2.0) * bracket

    if ctl.scheme == "upwind":
        tau_new = tau + dt * rhs
    else:
        avg = np.empty_like(tau)
        for col in range(n):
            left, right = _neighbors(tau[:, col], fld.periodic)
            avg[:, col] = 0.5 * (left + right)
        tau_new = avg + dt * rhs

    if not np.all(np.isfinite(tau_new)):
        raise FlowBlowUpError("non-finite power sums", fld.t)
    return TauField(fld.s, tau_new, fld.boundary, fld.t + dt)


def evolve_tau(
    fld: TauField, F: FlowFunctional, ctl: StepControl
) -> TauField:
    """March the tau field to ctl.t_end."""
    steps = 0
    eps = 1e-12 * max(1.0, abs(ctl.t_end))
    tv0 = total_variation(fld.tau[:, 0], fld.periodic)
    while fld.t < ctl.t_end - eps:
        if steps >= ctl.max_steps:
            raise BoundedProgressError(
                f"t = {fld.t:.6g} after {steps} steps; t_end = {ctl.t_end:.6g} unreached"
            )
        fld = step_tau_system(fld, F, ctl)
        steps += 1
        tv = total_variation(fld.tau[:, 0], fld.periodic)
        if tv > TV_GROWTH_LIMIT * max(tv0, TV_FLOOR):
            raise FlowBlowUpError(
                f"total variation grew to {tv:.3e} from {tv0:.3e}", fld.t
            )
    return fld


# Deformation coefficients of the extrinsic Ricci flow on 2-dimensional
# leaves: h(b) = -2 sigma_2 g, i.e. psi(lam) = -2 lam^2 in the umbilical model.
RICCI_N2 = FlowFunctional(
    2,
    (lambda tau: tau[..., 1] - tau[..., 0] ** 2,
     lambda tau: np.zeros(tau.shape[:-1])),
    ("f0 = tau2 - tau1^2", "f1 = 0"),
)


@dataclass
class NormalizedStepDiagnostics:
    t: float
    rho: float
    normalization_integral: float


def normalized_ricci_step(
    p: UmbilicalProfile,
    ctl: StepControl,
    negate_normalization: bool = False,
) -> tuple[UmbilicalProfile, NormalizedStepDiagnostics]:
    """One step of the volume-normalized extrinsic Ricci flow (n = 2, umbilical).

    lam is transported with psi(lam) = -2 lam^2 (the spatially constant
    normalization term has zero gradient), then the conformal factor follows
    d/dt log phi^2 = -2 lam^2 + rho/2 with rho twice the phi^2-weighted mean
    of the extrinsic scalar curvature 2 lam^2.  With the default sign, data
    with constant lam is a fixed point of the conformal factor;
    negate_normalization flips rho to the convention under which it is not.
    """
    lam_step = step_umbilical(p, RICCI_N2, ctl)
    lam_new, dt = lam_step.lam, lam_step.t - p.t

    weights = p.phi ** 2 * p.ds
    mean_scal = float(np.sum(2.0 * lam_new ** 2 * weights) / np.sum(weights))
    rho = (-2.0 if negate_normalization else 2.0) * mean_scal
    rate = -2.0 * lam_new ** 2 + 0.5 * rho
    norm_integral = float(np.sum(rate * weights))

    phi_new = p.phi * np.exp(0.5 * dt * rate)
    if not np.all(np.isfinite(phi_new)):
        raise FlowBlowUpError("non-finite warping factor", p.t)
    out = UmbilicalProfile(p.s, lam_new, phi_new, p.boundary, lam_step.t)
    return out, NormalizedStepDiagnostics(out.t, rho, norm_integral)


def evolve_normalized_ricci(
    p: UmbilicalProfile,
    ctl: StepControl,
    negate_normalization: bool = False,
) -> tuple[UmbilicalProfile, list[NormalizedStepDiagnostics]]:
    """March the normalized extrinsic Ricci flow to ctl.t_end."""
    diagnostics: list[NormalizedStepDiagnostics] = []
    steps = 0
    eps = 1e-12 * max(1.0, abs(ctl.t_end))
    while p.t < ctl.t_end - eps:
        if steps >= ctl.max_steps:
            raise BoundedProgressError(
                f"t = {p.t:.6g} after {steps} steps; t_end = {ctl.t_end:.6g} unreached"
            )
        p, diag = normalized_ricci_step(p, ctl, negate_normalization)
        diagnostics.append(diag)
        steps += 1
    return p, diagnostics

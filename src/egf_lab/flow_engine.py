"""Time evolution of curvature data along one arclength-parameterized normal curve.

The state lives on a uniform 1-D grid: either a scalar normal-curvature
profile lam(s) with its warping factor phi(s), or the power sums tau_1..tau_n
as n rows over the grid.  Spatial differentiation along the normal curve is
plain d/ds; the parameterization never changes because the flow leaves the
normal component of the metric untouched.

One explicit scheme, forward Euler under a CFL bound with the local
Rusanov dissipation (LeVeque 2002, sections 4.6 and 12.9), over one array
padded by ``_fill_ghosts``.  The scalar step differences one conservative
face flux; the power-sum step adds that dissipation to the central
difference of its quasilinear bracket, so it holds only before
characteristics cross, and a ``tau-flow`` run whose t_end reaches the
``crossing_time`` of its initial data exits 4 before it marches.
Non-finite values stop a step with a blow-up report.

The scalar flow and the power-sum system are marched by one driver,
``_march``, which owns the step budget, the end-time tolerance and the
runaway total-variation guard.

The volume-normalized extrinsic Ricci flow needs no step of its own.  Its
warping law d log phi^2/dt = psi(lam) - <psi(lam)>_{phi^2}, with
psi(lam) = -2 lam^2 (``make_functional("ext_ricci", 2)``), differs from the
unnormalized one by a term constant in space that lam never reads.  So its
lam is the ``evolve_umbilical`` lam, and its phi is the ``evolve_umbilical``
phi rescaled by sqrt(V0/V), V = integral of phi^2 ds: the rescaling that links
Hamilton's normalized and unnormalized Ricci flows.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .sym_curvature import (
    FlowFunctional,
    _horner,
    power_sums_with_tau0,
    psi_of_lambda,
    psi_prime,
    umbilical_tau,
)

BOUNDARIES = ("periodic", "transmissive")

# Runaway-oscillation threshold: stop when total variation exceeds ten times
# its initial value (plus an absolute floor so smooth roundoff noise on
# near-constant data never trips it).
TV_GROWTH_LIMIT = 10.0
TV_FLOOR = 1e-9

# Characteristic feet per output node when the oracle has to interpolate.
ORACLE_REFINE = 16


class FlowBlowUpError(RuntimeError):
    """Non-finite values, a warping factor that overflows or underflows to
    zero, or runaway oscillation; t_last is the last valid time."""

    def __init__(self, message: str, t_last: float):
        super().__init__(f"{message} (last valid t = {t_last:.6g})")
        self.t_last = t_last


class BoundedProgressError(RuntimeError):
    """The step budget ran out before t_end was reached."""


class ShockError(RuntimeError):
    """Characteristics crossed at t* <= t; the transported solution is no
    longer single-valued."""

    def __init__(self, t_star: float, t: float):
        super().__init__(f"characteristics crossed at t* = {t_star:.6g} <= t = {t:.6g}")


def _grid_steps(s: np.ndarray) -> np.ndarray:
    """The steps s[1:] - s[:-1] of a finite, strictly increasing, uniform grid;
    any other grid raises ValueError.  Finite ends and positive steps leave no
    room for a non-finite node, and a NaN node makes a NaN step, which fails
    ``lo > 0``: the check costs two reductions beyond the steps."""
    if s.size > 1 and math.isfinite(s[0]) and math.isfinite(s[-1]):
        ds = s[1:] - s[:-1]
        lo = ds.min()
        if lo > 0:
            hi = ds.max()
            if hi - lo > 1e-9 * hi:
                raise ValueError("grid spacing must be uniform")
            return ds
    if not np.isfinite(s).all():
        raise ValueError("grid nodes must be finite")
    raise ValueError("grid must be strictly increasing")


def _uniform_nodes(grid: int, length: float, periodic: bool, s0: float) -> np.ndarray:
    """G nodes from s0 over length L: periodic grids omit the duplicate
    endpoint, s = s0 + L*arange(G)/G; others span the closed interval."""
    if periodic:
        return s0 + length * np.arange(grid) / grid
    return np.linspace(s0, s0 + length, grid)


class _NormalCurveGrid:
    """Uniform grid ``s`` along the normal curve and its ``boundary`` kind."""

    def _check_grid(self):
        self.s = np.asarray(self.s, dtype=float)
        if self.boundary not in BOUNDARIES:
            raise ValueError(f"boundary must be one of {BOUNDARIES}")
        if self.s.size < 8:
            raise ValueError("need at least 8 grid nodes")
        _grid_steps(self.s)

    @property
    def periodic(self) -> bool:
        return self.boundary == "periodic"

    @property
    def ds(self) -> float:
        return float(self.s[1] - self.s[0])


@dataclass
class UmbilicalProfile(_NormalCurveGrid):
    """Sampled normal-curvature profile lam(s) with warping factor phi(s)."""

    s: np.ndarray
    lam: np.ndarray
    phi: np.ndarray
    boundary: str = "periodic"
    t: float = 0.0

    def __post_init__(self):
        self._check_grid()
        self.lam = np.asarray(self.lam, dtype=float)
        self.phi = np.asarray(self.phi, dtype=float)
        if self.lam.shape != self.s.shape or self.phi.shape != self.s.shape:
            raise ValueError("lam and phi must match the grid")
        # one min/max pass over phi: NaN fails both tests, -inf the first and
        # +inf the second
        if not (self.phi.min() > 0 and self.phi.max() < np.inf
                and np.isfinite(self.lam).all()):
            if not (np.isfinite(self.lam).all() and np.isfinite(self.phi).all()):
                raise ValueError("profile values must be finite")
            raise ValueError("warping factor must be positive")

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
        s = _uniform_nodes(grid, length, boundary == "periodic", s0)
        lam = np.asarray(lam0(s), dtype=float) * np.ones_like(s)
        phi = (phi0(s) if callable(phi0) else np.full_like(s, float(phi0)))
        return cls(s, lam, np.asarray(phi, dtype=float), boundary)


@dataclass
class TauField(_NormalCurveGrid):
    """Node values of the power sums along the normal curve: row k - 1 of
    ``tau`` holds tau_k at the G nodes, the layout a step computes in."""

    s: np.ndarray
    tau: np.ndarray  # shape (n, G)
    boundary: str = "periodic"
    t: float = 0.0

    def __post_init__(self):
        self._check_grid()
        self.tau = np.asarray(self.tau, dtype=float)
        if self.tau.ndim != 2 or self.tau.shape[1] != self.s.size:
            raise ValueError("tau must have shape (n, grid)")
        if self.tau.shape[0] < 1:
            raise ValueError("need n >= 1")
        if not np.isfinite(self.tau).all():
            raise ValueError("tau values must be finite")

    @property
    def n(self) -> int:
        return self.tau.shape[0]

    @classmethod
    def from_umbilical(
        cls,
        lam0: Callable[[np.ndarray], np.ndarray],
        n: int,
        grid: int,
        length: float,
        boundary: str = "periodic",
    ) -> "TauField":
        s = _uniform_nodes(grid, length, boundary == "periodic", 0.0)
        with np.errstate(over="ignore"):  # __post_init__ refuses an overflowed power
            lam = np.asarray(lam0(s), dtype=float) * np.ones_like(s)
            tau = umbilical_tau(n, lam)
        return cls(s, tau, boundary)


@dataclass
class StepControl:
    """Explicit time-stepping policy; a refusal names its field first."""

    t_end: float
    cfl: float = 0.9
    max_steps: int = 200_000

    def __post_init__(self):
        if not 0.0 < self.cfl <= 1.0:
            raise ValueError("cfl: must lie in (0, 1]")
        if self.max_steps < 1:
            raise ValueError("max_steps: must be >= 1")
        if not (math.isfinite(self.t_end) and self.t_end >= 0):
            raise ValueError(f"t_end: must be finite and >= 0, got {self.t_end!r}")


def _fill_ghosts(padded: np.ndarray, periodic: bool) -> np.ndarray:
    """The one ghost rule, in place: the node at each end of padded's last axis
    copies the wrapped interior node when periodic, the edge node otherwise."""
    padded[..., 0] = padded[..., -2 if periodic else 1]
    padded[..., -1] = padded[..., 1 if periodic else -2]
    return padded


def _padded(u: np.ndarray, periodic: bool) -> np.ndarray:
    """u with one ghost node at each end of its last axis, in a new array."""
    padded = np.empty(u.shape[:-1] + (u.shape[-1] + 2,))
    padded[..., 1:-1] = u
    return _fill_ghosts(padded, periodic)


def _axis_derivative(arr: np.ndarray, spacing: float, periodic: bool):
    """Central difference along axis 0; second-order one-sided at the edges
    of a non-periodic axis."""
    if periodic:
        padded = _padded(arr.swapaxes(0, -1), True)
        return ((padded[..., 2:] - padded[..., :-2]) / (2.0 * spacing)).swapaxes(0, -1)
    return np.gradient(arr, spacing, axis=0, edge_order=2)


def total_variation(u: np.ndarray, periodic: bool) -> float:
    """Sum of |u[k+1] - u[k]|, with the wrap-around jump when periodic; an
    overflow reads inf, which the march's guard and steps handle."""
    with np.errstate(over="ignore"):
        return _variation(u, periodic)


def _variation(u: np.ndarray, periodic: bool) -> float:
    """total_variation, for a caller that ignores overflow itself."""
    jump = u[1:] - u[:-1]
    tv = float(np.abs(jump, out=jump).sum())
    if periodic:
        tv += abs(float(u[0] - u[-1]))
    return tv


def _pick_dt(max_speed: float, ds: float, ctl: StepControl, remaining: float) -> float:
    """ctl.cfl ds / max_speed, at most remaining.  A dt of at most 1e-15
    t_end has collapsed: the floor is relative to t_end, as ``reached`` is,
    so a tiny t_end still steps."""
    if max_speed > 0:
        dt = min(ctl.cfl * ds / max_speed, remaining)
    else:
        dt = remaining
    if dt <= 1e-15 * ctl.t_end:
        raise BoundedProgressError(
            f"time step collapsed to {dt:.3e}; cannot make progress"
        )
    return dt


def step_umbilical(
    p: UmbilicalProfile,
    F: FlowFunctional,
    ctl: StepControl,
    inflow_left: Callable[[float], float] | None = None,
) -> UmbilicalProfile:
    """Advance lam (and phi) by one explicit step of d lam/dt + d/ds(psi(lam)/2) = 0.

    lam moves by the differences of 4F = psi_- + psi_+ - d (lam_+ - lam_-) over
    the G + 1 faces of ``_padded``, with the Rusanov dissipation
    d = max(|psi'_-|, |psi'_+|), the larger |psi'| of each face's two nodes.
    (max|psi'|/2) dt / ds <= cfl, and dt never overshoots t_end.
    ``inflow_left`` imposes Dirichlet data at the left transmissive edge;
    otherwise the edges use constant extrapolation.
    """
    lam = p.lam
    ds = p.ds
    remaining = ctl.t_end - p.t
    if remaining <= 0:
        raise ValueError("profile is already at or beyond t_end")

    # non-finite intermediates are converted into structured blow-up errors
    with np.errstate(all="ignore"):
        # psi and |psi'| (twice the local speed) over the padded nodes: a
        # ghost node's values are those of the node it copies.  Each
        # temporary is updated in place, its operands swapped where the
        # product or sum commutes, so every value keeps the bits of the
        # one-expression form
        lam_p = _padded(lam, p.periodic)
        psi_p = psi_of_lambda(F, lam_p)
        rate = psi_prime(F, lam_p)
        np.abs(rate, out=rate)
        dt = _pick_dt(0.5 * float(rate.max()), ds, ctl, remaining)
        t_new = p.t + dt
        jump = lam_p[1:] - lam_p[:-1]
        jump *= np.maximum(rate[:-1], rate[1:])  # d (lam_+ - lam_-)
        flux = psi_p[:-1] + psi_p[1:]
        flux -= jump
        diff = flux[1:] - flux[:-1]
        diff *= dt / (4.0 * ds)
        lam_new = np.subtract(lam, diff, out=diff)
        if inflow_left is not None and not p.periodic:
            lam_new[0] = inflow_left(t_new)

        # trapezoid-in-time update of the warping integral phi = phi0 exp(int psi/2)
        e = psi_of_lambda(F, lam_new)
        e += psi_p[1:-1]
        e *= 0.25 * dt
        np.exp(e, out=e)
        phi_new = np.multiply(p.phi, e, out=e)
    try:  # the profile checks that lam is finite and phi finite and positive
        return UmbilicalProfile(p.s, lam_new, phi_new, p.boundary, t_new)
    except ValueError:
        message = ("non-finite normal curvature" if not np.isfinite(lam_new).all()
                   else "non-finite or zero warping factor")
        raise FlowBlowUpError(message, p.t) from None


def reached(t: float, t_end: float) -> bool:
    """t is t_end to within the end-time tolerance, 1e-12 t_end: relative,
    so a positive t_end however small takes a step, and a last step of dt =
    t_end - t, which lands within an ulp, leaves no sliver step after it."""
    return t >= t_end - 1e-12 * t_end


def _march(state, advance, ctl: StepControl, tv_of, on_step=None):
    """Advance ``state`` with ``advance(state) -> state`` until it has
    ``reached`` ctl.t_end.

    The one time-march loop: it stops with BoundedProgressError when the step
    budget runs out and with FlowBlowUpError when the total variation of
    ``tv_of(state)`` exceeds TV_GROWTH_LIMIT times its initial value.
    ``on_step(state, steps, done)`` sees every accepted step.  The loop
    runs in one errstate that ignores overflow, the guard's (see
    total_variation), so on_step does too.
    """
    tv0 = total_variation(tv_of(state), state.periodic)
    steps = 0
    with np.errstate(over="ignore"):
        while not reached(state.t, ctl.t_end):
            if steps >= ctl.max_steps:
                raise BoundedProgressError(
                    f"t = {state.t:.6g} after {steps} steps; t_end = {ctl.t_end:.6g} unreached"
                )
            state = advance(state)
            steps += 1
            tv = _variation(tv_of(state), state.periodic)
            if tv > TV_GROWTH_LIMIT * max(tv0, TV_FLOOR):
                raise FlowBlowUpError(
                    f"total variation grew to {tv:.3e} from {tv0:.3e}", state.t
                )
            if on_step is not None:
                on_step(state, steps, reached(state.t, ctl.t_end))
    return state


def evolve_umbilical(
    p: UmbilicalProfile,
    F: FlowFunctional,
    ctl: StepControl,
    record_every: int = 1,
    on_snapshot: Callable[[UmbilicalProfile], None] | None = None,
    inflow_left: Callable[[float], float] | None = None,
) -> UmbilicalProfile:
    """March the profile to ctl.t_end and return the final profile.

    on_snapshot sees the initial profile, every record_every-th step and the
    final one.
    """

    def advance(q):  # step_umbilical is looked up per call, so it can be rebound
        return step_umbilical(q, F, ctl, inflow_left)

    if on_snapshot is None:
        return _march(p, advance, ctl, lambda q: q.lam)

    def on_step(q, steps, done):
        if steps % record_every == 0 or done:
            on_snapshot(q)

    on_snapshot(p)
    return _march(p, advance, ctl, lambda q: q.lam, on_step)


def characteristics_oracle(
    lam0: Callable[[np.ndarray], np.ndarray],
    F: FlowFunctional,
    t: float,
    s_out: np.ndarray,
    periodic_length: float,
) -> np.ndarray:
    """Transport lam0 along characteristics s(t) = s0 + psi'(lam0(s0)) t / 2
    on the periodic domain [s_out[0], s_out[0] + periodic_length).

    A psi of degree <= 1 translates lam0 at exactly psi_coeffs[1] / 2, read
    through the lam0 callable.  Otherwise the solution is interpolated between
    the characteristics of ORACLE_REFINE x len(s_out) nodes, exact up to that
    while they stay single-valued; from their crossing time t* on, ShockError.
    """
    s_out = np.asarray(s_out, dtype=float)
    if t == 0:
        return np.asarray(lam0(s_out), dtype=float) * np.ones_like(s_out)
    if not any(F.psi_coeffs[2:]):
        arg = s_out[0] + np.mod(s_out - F.psi_coeffs[1] / 2 * t - s_out[0], periodic_length)
        return np.asarray(lam0(arg), dtype=float) * np.ones_like(arg)

    base = _oracle_nodes(s_out, periodic_length)
    lam_base, speed, t_star = _characteristics(lam0, F, base)
    if t >= t_star:
        raise ShockError(t_star, t)
    positions = base + speed * t
    knots = np.concatenate(
        [positions - periodic_length, positions, positions + periodic_length]
    )
    return np.interp(s_out, knots, np.tile(lam_base, 3))


def _characteristics(lam0, F: FlowFunctional, nodes: np.ndarray):
    """lam0 and the characteristic speed psi'(lam0)/2 at the nodes, and
    t* = -1 / min d_s speed over them, when characteristics first cross
    (inf if they never do)."""
    lam = np.asarray(lam0(nodes), dtype=float) * np.ones_like(nodes)
    speed = 0.5 * np.asarray(psi_prime(F, lam))
    steepest = float(np.min(np.diff(speed) / np.diff(nodes)))
    return lam, speed, -1.0 / steepest if steepest < 0 else math.inf


def _oracle_nodes(s_out: np.ndarray, periodic_length: float | None) -> np.ndarray:
    """ORACLE_REFINE x len(s_out) nodes: wrapped over [s_out[0], s_out[0] +
    periodic_length) on a periodic domain, across s_out's span otherwise."""
    n_fine = ORACLE_REFINE * s_out.size
    if periodic_length is None:
        return np.linspace(s_out[0], s_out[-1], n_fine)
    return _uniform_nodes(n_fine, periodic_length, True, s_out[0])


def crossing_time(
    lam0, F: FlowFunctional, s_out: np.ndarray, periodic_length: float | None = None
) -> float:
    """``_characteristics``' t* over ``_oracle_nodes``, so on a periodic domain
    the t* at which ``characteristics_oracle`` refuses; inf for a psi of
    degree <= 1, whose psi' is exactly constant."""
    if not any(F.psi_coeffs[2:]):
        return math.inf
    return _characteristics(lam0, F, _oracle_nodes(s_out, periodic_length))[2]


def step_tau_system(fld: TauField, F: FlowFunctional, ctl: StepControl) -> TauField:
    """One explicit step of the transport system for tau_1..tau_n.

    d tau_i/dt = -(i/2) [ tau_{i-1} d_s f_0
                          + sum_j ( j f_j / (i+j-1) d_s tau_{i+j-1}
                                    + tau_{i+j-1} d_s f_j ) ]
    Every d_s is the central difference (d_- + d_+) / (2 ds) of one
    subtraction d over one ghost-padded buffer, filled in place: tau_0 = n
    and tau_1..tau_m_top by ``power_sums_with_tau0`` (Newton's extension
    above n, as far as the live f_j read), the varying f_j, then the ghost
    nodes by ``_fill_ghosts``.  The update is
        tau_new = tau - dt (i/2) bracket + dt/(2 ds) alpha_i (d_+ - d_-),
    with, at each node, the speed
        alpha_i = max(sum_j |i j f_j / (2(i+j-1))|, |psi'(tau_1/n)| / 2),
    whose maximum sets dt (Rusanov; LeVeque 2002, sections 4.6 and 12.9).
    The second term, psi' exact by Horner over F.psi_prime_coeffs, is the
    spectral radius of the system's Jacobian on the umbilical manifold
    (every k_i = tau_1/n) for every catalog functional, and an O(defect)
    approximation near it, where every field from ``TauField.from_umbilical``
    stays; the sum alone falls below it (0 when only f_0 is live).
    Only the bracket terms that F.live and F.varying leave nonzero are
    formed, each as one (n, G) array over all n equations, the layout of
    fld.tau, and subtracted in this order from the dissipation term, their
    factor dt (i/2) / (2 ds) folded in.  A constant f_j is one node's value
    and is never differenced: ghost copies difference it to 0 at any edge.
    What F alone fixes (``F.tau_step``: m_top, the constant f_j, the index
    factors, the term order, the constant speed terms and, when psi' is
    constant, the umbilical speed) is computed once per functional, so a
    step evaluates only the terms that depend on tau.  Temporaries are
    updated in place, each value with the operations, in the order, of its
    one-expression form.
    The new field shares fld's grid, checked once with the march's first field.
    """
    if F.n != fld.n:
        raise ValueError(f"functional is for n={F.n}, field has n={fld.n}")
    n = fld.n
    tau = fld.tau
    ds = fld.ds
    remaining = ctl.t_end - fld.t
    if remaining <= 0:
        raise ValueError("field is already at or beyond t_end")

    k = F.tau_step  # what F alone fixes, computed once per functional
    m_top = k.m_top
    # non-finite intermediates are converted into structured blow-up errors
    with np.errstate(all="ignore"):
        # the docstring's buffer; tx[j] is tau_j at the nodes
        padded = np.empty((m_top + 1 + len(F.varying), tau.shape[1] + 2))
        tx = power_sums_with_tau0(tau, n, m_top, out=padded[:m_top + 1, 1:-1])
        f = {}  # the varying f_j at the nodes
        for row, j in enumerate(F.varying, start=m_top + 1):
            f[j] = padded[row, 1:-1] = F.coefficient(j, tau)
        # d[:, :-1] is d_- and d[:, 1:] d_+ of tau_1..tau_m_top and the varying f_j
        _fill_ghosts(padded, fld.periodic)
        d = padded[1:, 1:] - padded[1:, :-1]
        central = d[:, :-1] + d[:, 1:]  # 2 ds times the central difference

        # the advection speed of equation i (row i - 1): the sum of the
        # moduli of its coefficients i j f_j / (2(i+j-1)), or the umbilical
        # speed |psi'(tau_1/n)| / 2 of the node where that is larger
        speeds = np.zeros((n, 1))
        for j, num, den, term in k.speed_terms:
            if term is None:  # a varying f_j
                term = num * f[j]
                term /= den
                np.abs(term, out=term)
            speeds = speeds + term
        umbilical = k.umbilical
        if umbilical is None:  # psi' varies
            umbilical = _horner(F.psi_prime_coeffs, tau[0] / n)
            np.abs(umbilical, out=umbilical)
            umbilical *= 0.5
        speeds = np.maximum(speeds, umbilical)
        dt = _pick_dt(float(speeds.max()), ds, ctl, remaining)

        # tau_new - tau: the dissipation, then each bracket term times
        # w = dt (i/2) / (2 ds); equation i reads tau_{i+j-1}, row i+j-2, for f_j
        h = dt / (2.0 * ds)
        w = (0.5 * h) * k.eq
        tau_new = d[:n, 1:] - d[:n, :-1]
        tau_new *= h * speeds
        for j, row, jf, den in k.terms:
            if row is None:  # j f_j / (i+j-1) d_s tau_{i+j-1}
                tau_new -= ((j * f[j] if jf is None else jf) * (w / den)
                            * central[j - 1:j - 1 + n])
            else:  # tau_{i+j-1} d_s f_j
                term = w * tx[j:j + n]
                term *= central[row]
                tau_new -= term
        tau_new += tau

    if not np.isfinite(tau_new).all():
        raise FlowBlowUpError("non-finite power sums", fld.t)
    out = copy.copy(fld)
    out.tau, out.t = tau_new, fld.t + dt
    return out


def evolve_tau(fld: TauField, F: FlowFunctional, ctl: StepControl) -> TauField:
    """March the tau field to ctl.t_end; the guard watches tau_1, row 0."""
    return _march(fld, lambda f: step_tau_system(f, F, ctl), ctl, lambda f: f.tau[0])

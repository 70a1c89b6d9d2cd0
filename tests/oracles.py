"""Independent brute-force oracles shared by the test modules.

Everything in here is deliberately naive: direct summation, polynomial
expansion, exhaustive enumeration.  The oracles never call the code paths
they are used to check.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import permutations

import numpy as np
import sympy as sp
from scipy.interpolate import CubicSpline

from egf_lab.flow_engine import (
    FlowBlowUpError,
    StepControl,
    TauField,
    UmbilicalProfile,
    _fill_ghosts,
    _padded,
    _pick_dt,
)
from egf_lab.revolution_geometry import RevolutionProfile
from egf_lab.sym_curvature import _horner, power_sums_with_tau0, psi_of_lambda, psi_prime


def direct_power_sums(k, m):
    """tau_j = sum_i k_i**j by direct summation, j = 1..m."""
    return [sum(ki ** j for ki in k) for j in range(1, m + 1)]


def sigma_by_expansion(k):
    """Elementary symmetric functions via coefficients of prod (x - k_i)."""
    coeffs = np.poly(np.asarray(k, dtype=float))  # x^n - s1 x^{n-1} + s2 ...
    return [(-1) ** j * coeffs[j] for j in range(1, len(k) + 1)]


def power_sums_with_tau0_reference(tau, n, m):
    """(tau_0, tau_1, ..., tau_m) with tau_0 = n, one strided column at a time:
    sigma by the low-range Newton recurrence, then each of tau_{n+1}..tau_m
    by the high-range one, summed from +0.0.  The reference the library's
    one-pass sym_curvature.power_sums_with_tau0 must match bit for bit."""
    tau = np.asarray(tau, dtype=float)
    if m > n:
        sigma = np.zeros(tau.shape[:-1] + (n,))
        for j in range(1, n + 1):
            acc = tau[..., j - 1].copy()
            for i in range(1, j):
                acc += (-1) ** i * tau[..., j - i - 1] * sigma[..., i - 1]
            sigma[..., j - 1] = (-1) ** (j + 1) * acc / j
        full = np.zeros(tau.shape[:-1] + (m,))
        full[..., :n] = tau[..., :n]
        for j in range(n + 1, m + 1):
            acc = np.zeros(full.shape[:-1])
            for i in range(1, n + 1):
                acc += (-1) ** (i + 1) * sigma[..., i - 1] * full[..., j - i - 1]
            full[..., j - 1] = acc
        body = full
    else:
        body = tau[..., :m]
    t0 = np.full(body.shape[:-1] + (1,), float(n))
    return np.concatenate([t0, body], axis=-1)


def psi_rational(F, lam: Fraction) -> Fraction:
    """psi(lam) = sum_j f_j(n lam, ..., n lam^n) lam^j in exact rationals, each
    f_j summed term by term from F's monomial table."""
    tau = [F.n * lam ** k for k in range(1, F.n + 1)]
    return sum((Fraction(coef) * math.prod(t ** e for t, e in zip(tau, exps)) * lam ** j
                for j, terms in enumerate(F.table) for exps, coef in terms), Fraction(0))


def mu_rational(F, lam: float) -> Fraction:
    """-(n/2) (psi(lam) - psi(0)) / lam in exact rationals.  At lam = 0 the
    quotient is taken at lam = 1e-30, which moves it by far less than an ulp
    for coefficients of moderate size."""
    x = Fraction(lam) or Fraction(1, 10 ** 30)
    return -Fraction(F.n, 2) * (psi_rational(F, x) - psi_rational(F, Fraction(0))) / x


def enumerate_ricci_soliton_spectra(n, tau1, r, tol=1e-8):
    """All constant spectra with every k a root of k^2 - tau1 k - r and sum tau1.

    Enumerates how many of the n curvatures sit on each root of the quadratic
    and keeps the assignments whose total matches tau1.  Returns a set of
    canonical tuples (roots ascending, multiplicities) for comparison with the
    closed-form classifier.
    """
    disc = tau1 ** 2 + 4.0 * r
    if disc < 0:
        return set()
    root_hi = (tau1 + math.sqrt(disc)) / 2.0
    root_lo = (tau1 - math.sqrt(disc)) / 2.0
    found = set()
    for n_hi in range(n + 1):
        n_lo = n - n_hi
        total = n_hi * root_hi + n_lo * root_lo
        if abs(total - tau1) > tol * max(1.0, abs(tau1)):
            continue
        spectrum = sorted([root_hi] * n_hi + [root_lo] * n_lo)
        groups = []
        for val in spectrum:
            if groups and abs(val - groups[-1][0]) <= 1e-12:
                groups[-1][1] += 1
            else:
                groups.append([val, 1])
        key = tuple((round(v, 9), m) for v, m in groups)
        found.add(key)
    return found


def canonical_spectrum_key(roots, multiplicities):
    """Same canonical form as the enumerator, for classifier outputs."""
    pairs = sorted(zip(roots, multiplicities))
    merged = []
    for val, mult in pairs:
        if merged and abs(val - merged[-1][0]) <= 1e-12:
            merged[-1][1] += mult
        else:
            merged.append([val, mult])
    return tuple((round(v, 9), m) for v, m in merged)


def is_extrinsic_ricci_flat(k) -> bool:
    """Whether every extrinsic Ricci eigenvalue k_i (tau_1 - k_i) of the
    spectrum k is at most 1e-8 in modulus."""
    tau1 = sum(k)
    return all(abs(ki * (tau1 - ki)) <= 1e-8 for ki in k)


def enumerate_flat_spectra(n, values):
    """All spectra over a value grid whose extrinsic Ricci eigenvalues vanish."""
    flat = set()
    seen = set()
    for combo in np.ndindex(*([len(values)] * n)):
        k = tuple(values[i] for i in combo)
        key = tuple(sorted(k))
        if key in seen:
            continue
        seen.add(key)
        if is_extrinsic_ricci_flat(k):
            flat.add(key)
    return flat


def all_permutations(k):
    return [tuple(p) for p in permutations(k)]


def _fmt_reference(value) -> str:
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".17g")


def write_csv_reference(path, header, rows, sep=","):
    """The per-value table writer: floats as format(v, ".17g"), integers as
    str(int), LF endings.  ``header=None`` writes no header line (the gnuplot
    profile.dat).  The library's chunked writer must match it byte for byte.
    """
    with open(path, "w", newline="") as fh:
        if header is not None:
            fh.write(sep.join(header) + "\n")
        for row in rows:
            fh.write(sep.join(_fmt_reference(v) for v in row) + "\n")


def _jsonable_reference(obj):
    """obj as JSON values by one recursive walk: numpy scalars and arrays
    become Python values and lists, dict keys become str(key), and a
    non-finite float becomes its repr ("nan", "inf", "-inf")."""
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        v = float(obj)
        return v if math.isfinite(v) else repr(v)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return [_jsonable_reference(v) for v in obj.tolist()]
    if isinstance(obj, dict):
        return {str(k): _jsonable_reference(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable_reference(v) for v in obj]
    return obj


def write_json_reference(path, obj):
    """The walk-then-dump report writer: the whole of obj through one Python
    walk, then one line of sorted-key JSON.  The library's writer must match
    it byte for byte."""
    with open(path, "w", newline="") as fh:
        fh.write(json.dumps(_jsonable_reference(obj), sort_keys=True) + "\n")


@dataclass
class FlowHistory:
    """Recorded (t, lam) snapshots of one run, first and last always included."""

    times: list = field(default_factory=list)
    lam: list = field(default_factory=list)

    def append(self, t: float, lam: np.ndarray):
        self.times.append(float(t))
        self.lam.append(np.array(lam, copy=True))


def evolve_warping(history: FlowHistory, p0, F) -> np.ndarray:
    """phi at the final recorded time: phi0 * exp(trapz(psi(lam), t) / 2),
    integrated from the recorded snapshots alone."""
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


def volume(p) -> float:
    """The warped volume V = sum phi^2 ds of a profile."""
    return float(np.sum(p.phi ** 2) * p.ds)


def volume_normalized(p, v0: float) -> UmbilicalProfile:
    """The volume-normalized flow's profile from the unnormalized one p: the
    term -<psi>_{phi^2} of d log phi^2/dt = psi(lam) - <psi>_{phi^2} is
    constant in space, so it leaves lam alone and rescales phi to volume v0."""
    phi = p.phi * math.sqrt(v0 / volume(p))
    return UmbilicalProfile(p.s, p.lam, phi, p.boundary, p.t)


# ------------------------------------------- torus cohomology, dict reference


def _neg(u):
    return tuple(-c for c in u)


@dataclass
class DictCohomologyProblem:
    """The mode table as a dict of mode tuples: the reference for the dense
    ``TorusCohomologyProblem`` (same checks, same messages, same order)."""

    v: tuple
    coeffs: dict
    K: int
    s: float = 1.0

    def __post_init__(self):
        self.v = tuple(float(c) for c in self.v)
        table = {}
        for u, c in self.coeffs.items():
            mode = tuple(int(m) for m in u)
            if len(mode) != self.dim:
                raise ValueError(f"mode {mode} does not match dimension {self.dim}")
            if max(abs(m) for m in mode) > self.K:
                raise ValueError(f"mode {mode} lies outside |u|_inf <= {self.K}")
            table[mode] = complex(c)
        scale = max([abs(c) for c in table.values()], default=0.0)
        for u, c in list(table.items()):
            nu = _neg(u)
            if nu in table:
                if abs(table[nu] - c.conjugate()) > 1e-10 * max(1.0, scale):
                    raise ValueError(
                        f"conjugate symmetry violated between modes {u} and {nu}"
                    )
            else:
                table[nu] = c.conjugate()
        self.coeffs = table

    @property
    def dim(self):
        return len(self.v)

    @classmethod
    def from_grid(cls, v, grid, K, s=1.0):
        """Direct-summation DFT of a real grid, one dict entry per nonzero mode."""
        grid = np.asarray(grid, dtype=float)
        mats = []
        for M in grid.shape:
            j = np.arange(M)
            mats.append(np.exp(-2j * np.pi * np.outer(np.arange(-K, K + 1), j / M)) / M)
        if grid.ndim == 2:
            cube = np.einsum("jk,aj,bk->ab", grid, mats[0], mats[1], optimize=True)
        else:
            cube = np.einsum("jkl,aj,bk,cl->abc", grid, *mats, optimize=True)
        coeffs = {}
        for idx in np.ndindex(*cube.shape):
            c = complex(cube[idx])
            if abs(c) > 0.0:
                coeffs[tuple(int(i) - K for i in idx)] = c
        return cls(tuple(v), coeffs, K, s)


def mode_rows(table: dict) -> list:
    """A dict u -> h_u as the solver's rows [u1, ..., ud, re, im], in dict order."""
    return [[*u, complex(c).real, complex(c).imag] for u, c in table.items()]


def mode_dict(table) -> dict:
    """The modes and values of a ModeTable's arrays() as a dict u -> complex,
    in their ascending order."""
    modes, values = table.arrays()
    return dict(zip(map(tuple, modes.tolist()), values.tolist()))


def dict_inner(u, v) -> float:
    """<u, v> as the dict solver computes it (np.dot, possibly fused)."""
    return float(np.dot(u, np.asarray(v, dtype=float)))


def dict_diophantine_margin(v, K, s):
    v = np.asarray(v, dtype=float)
    axes = [np.arange(-K, K + 1)] * v.size
    mesh = np.meshgrid(*axes, indexing="ij")
    lattice = np.stack([m.ravel() for m in mesh], axis=-1).astype(float)
    norms = np.linalg.norm(lattice, axis=-1)
    nonzero = norms > 0
    inner = np.abs(lattice[nonzero] @ v)
    return float(np.min(inner * norms[nonzero] ** s))


def dict_solve_linear_flow(p: DictCohomologyProblem, divisor_floor=1e-12):
    """Mode-by-mode solve over the dict; returns (f_coeffs dict, eps, margin).

    Raises the library's ResonanceError naming the worst energized mode (the
    first in dict order on a tie)."""
    from egf_lab.cohomology_solver import ENERGY_FLOOR_REL, ResonanceError

    scale = max([abs(c) for c in p.coeffs.values()], default=0.0)
    energy_floor = ENERGY_FLOOR_REL * max(1.0, scale)
    eps = float(p.coeffs.get((0,) * p.dim, 0.0 + 0.0j).real)
    f_coeffs = {(0,) * p.dim: 0.0 + 0.0j}
    worst_mode = None
    worst_margin = math.inf
    for u, c in p.coeffs.items():
        if all(m == 0 for m in u) or abs(c) <= energy_floor:
            continue
        inner = dict_inner(u, p.v)
        mode_margin = abs(inner) * float(np.linalg.norm(u)) ** p.s
        if mode_margin < divisor_floor:
            if mode_margin < worst_margin:
                worst_margin = mode_margin
                worst_mode = u
            continue
        f_coeffs[u] = c / (2j * np.pi * inner)
    if worst_mode is not None:
        raise ResonanceError(f"mode u = {worst_mode} is resonant", worst_mode)
    return f_coeffs, eps, dict_diophantine_margin(p.v, p.K, p.s)


def dict_amplification_report(p: DictCohomologyProblem, f_coeffs, margin):
    """Per-shell rows (shell, n_modes, min_divisor, max_amplification,
    margin_bound), built mode by mode."""
    shells = {}
    for u, fc in f_coeffs.items():
        if all(m == 0 for m in u):
            continue
        hc = p.coeffs.get(u, 0.0)
        if abs(hc) == 0.0:
            continue
        shell = max(abs(m) for m in u)
        row = shells.setdefault(
            shell, {"n": 0, "min_div": math.inf, "max_amp": 0.0, "bound": 0.0}
        )
        row["n"] += 1
        row["min_div"] = min(row["min_div"], abs(dict_inner(u, p.v)))
        row["max_amp"] = max(row["max_amp"], abs(fc) / abs(hc))
        if margin > 0:
            bound = float(np.linalg.norm(u)) ** p.s / (2 * np.pi * margin)
        else:
            bound = math.inf
        row["bound"] = max(row["bound"], bound)
    return [
        (shell, row["n"], row["min_div"], row["max_amp"], row["bound"])
        for shell, row in sorted(shells.items())
    ]


def whole_grid_verification(p, f: np.ndarray) -> tuple[float, float]:
    """(residual, max_imag) of a solution cube f of the dense problem p, each
    field held whole on the (M,)^d grid, M = max(4K, 8): T(f 2 pi i <u,v>),
    T(h off the zero mode) and T(f), one einsum each along the path that
    optimize=True picks, then their difference."""
    M = max(4 * p.K, 8)
    u, j = np.arange(-p.K, p.K + 1), np.arange(M)

    def on_grid(cube):
        dim = cube.ndim
        operands = [cube, list(range(dim))]
        for i in range(dim):
            operands += [np.exp(2j * np.pi * np.outer(u, j / M)), [i, dim + i]]
        return np.einsum(*operands, list(range(dim, 2 * dim)), optimize=True)

    h_off_zero = np.where(p.shell > 0, p.cube, 0.0)
    diff = on_grid(f * 2j * np.pi * p.inner) - on_grid(h_off_zero)
    residual = max(float(np.max(np.abs(diff.real))), float(np.max(np.abs(diff.imag))))
    return residual, float(np.max(np.abs(on_grid(f).imag)))


def reparameterize_arclength(p: RevolutionProfile) -> RevolutionProfile:
    """Resample so the parameter is arclength from the first sample (g00 = 1),
    through cubic splines of the speed and of both coordinates."""
    speed = np.sqrt(p.dx0 ** 2 + p.dx1 ** 2)
    s = CubicSpline(p.param, speed).antiderivative()(p.param)
    s -= s[0]
    s_new = np.linspace(0.0, s[-1], p.param.size)
    spl_x0 = CubicSpline(s, p.x0)
    spl_x1 = CubicSpline(s, p.x1)
    return RevolutionProfile(
        s_new,
        spl_x0(s_new),
        spl_x1(s_new),
        spl_x0(s_new, 1),
        spl_x1(s_new, 1),
        p.provenance,
    )


def neighbors_reference(u, periodic, axis=0):
    """Left/right neighbors along ``axis`` through np.roll; transmissive edges
    repeat the edge node, gathered by np.take."""
    if periodic:
        return np.roll(u, 1, axis=axis), np.roll(u, -1, axis=axis)
    g = u.shape[axis]
    return (np.take(u, [0, *range(g - 1)], axis=axis),
            np.take(u, [*range(1, g), g - 1], axis=axis))


def central_difference_reference(u, spacing, axis):
    """Periodic central difference along ``axis`` through two np.roll calls."""
    return (np.roll(u, -1, axis=axis) - np.roll(u, 1, axis=axis)) / (2.0 * spacing)


def total_variation_reference(u, periodic):
    """sum |u[k+1] - u[k]| through np.diff and np.sum, plus the wrap-around
    jump when periodic; an overflow reads inf."""
    with np.errstate(over="ignore"):
        tv = float(np.sum(np.abs(np.diff(u))))
        return tv + abs(float(u[0] - u[-1])) if periodic else tv


def _upwind_derivative(u, ds, speed, periodic):
    left, right = neighbors_reference(u, periodic)
    return np.where(speed >= 0, (u - left) / ds, (right - u) / ds)


def step_umbilical_reference(p: UmbilicalProfile, F, ctl: StepControl) -> UmbilicalProfile:
    """flow_engine.step_umbilical in its old quasilinear form, through the
    roll-form neighbors: lam moves by speed * d lam on the upwind side.  It
    is right where psi is linear (there Rusanov's dissipation is |psi'| and
    the flux form is upwind in exact arithmetic): the reference the face-flux
    step must match to rounding in those cases.  Quasilinear upwind loses the
    integral of lam past a shock, so it stays here, in tests/ (the layout guard
    refuses a library definition that only tests reach).
    """
    lam = p.lam
    ds = p.ds
    remaining = ctl.t_end - p.t
    if remaining <= 0:
        raise ValueError("profile is already at or beyond t_end")

    with np.errstate(all="ignore"):
        psi_old = np.asarray(psi_of_lambda(F, lam))
        speed0 = 0.5 * np.asarray(psi_prime(F, lam))
        dt = _pick_dt(float(np.abs(speed0).max()), ds, ctl, remaining)
        t_new = p.t + dt
        lam_new = lam - dt * speed0 * _upwind_derivative(lam, ds, speed0, p.periodic)
        if not np.all(np.isfinite(lam_new)):
            raise FlowBlowUpError("non-finite normal curvature", p.t)
        psi_new = np.asarray(psi_of_lambda(F, lam_new))
        phi_new = p.phi * np.exp(0.25 * dt * (psi_old + psi_new))
    return UmbilicalProfile(p.s, lam_new, phi_new, p.boundary, t_new)


def hopf_lax_burgers(U0, s, t, y, chunk=32):
    """The entropy solution of u_t + (u^2/2)_s = 0 (the umbilical law with
    psi = lam^2) at time t > 0 by the Hopf-Lax formula (Evans, Partial
    Differential Equations, section 3.4): u(s) = (s - y*)/t, with y* the
    minimizer of U0(y) + (s - y)^2/(2t) over every node of y, U0 an
    antiderivative of the initial data.  Brute force, ``chunk`` values of s
    at a time; where the minimizer is unique its node is off by at most the
    node spacing h, so u is off by at most h/t.
    """
    s = np.asarray(s, dtype=float)
    u0 = U0(y)
    out = np.empty(s.shape)
    for k in range(0, s.size, chunk):
        part = s[k:k + chunk]
        best = np.argmin(u0 + (part[:, None] - y) ** 2 / (2.0 * t), axis=1)
        out[k:k + chunk] = (part - y[best]) / t
    return out


def step_tau_system_reference(fld: TauField, F, ctl: StepControl) -> TauField:
    """flow_engine.step_tau_system in its old quasilinear form, one
    `_upwind_derivative` call (two rolls) per differenced term, on the side of
    each equation's signed speed.  The one-update step must match it to
    rounding where it was right: for b1, whose speed is constant.

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
    tau = fld.tau.T  # (G, n): the field's (n, G) rows as columns
    ds = fld.ds
    remaining = ctl.t_end - fld.t
    if remaining <= 0:
        raise ValueError("field is already at or beyond t_end")

    m_top = max(n, 2 * n - 2)
    taux = power_sums_with_tau0_reference(tau, n, m_top)  # (G, m_top+1), tau_j at j
    fvals = np.stack([F.coefficient(j, fld.tau) for j in range(n)], axis=-1)  # (G, n)

    # advection coefficients i j f_j / (2(i+j-1)) of equation i: their sum
    # sets the upwind bias, the sum of their moduli the CFL speed
    signs = np.zeros((n, tau.shape[0]))
    speeds = np.zeros((n, tau.shape[0]))
    for i in range(1, n + 1):
        for j in range(1, n):
            coef = i * j * fvals[:, j] / (2.0 * (i + j - 1))
            signs[i - 1] += coef
            speeds[i - 1] += np.abs(coef)
    dt = _pick_dt(float(np.max(speeds)), ds, ctl, remaining)

    def deriv(u: np.ndarray, eq: int) -> np.ndarray:
        return _upwind_derivative(u, ds, signs[eq - 1], fld.periodic)

    rhs = np.zeros_like(tau)
    for i in range(1, n + 1):
        bracket = taux[:, i - 1] * deriv(fvals[:, 0], i)
        for j in range(1, n):
            bracket += (j * fvals[:, j] / (i + j - 1)) * deriv(taux[:, i + j - 1], i)
            bracket += taux[:, i + j - 1] * deriv(fvals[:, j], i)
        rhs[:, i - 1] = -(i / 2.0) * bracket

    tau_new = tau + dt * rhs
    if not np.all(np.isfinite(tau_new)):
        raise FlowBlowUpError("non-finite power sums", fld.t)
    return TauField(fld.s, tau_new.T, fld.boundary, fld.t + dt)


def step_tau_system_update_reference(fld: TauField, F, ctl: StepControl) -> TauField:
    """flow_engine.step_tau_system's one update, formed term by term for each
    equation i through the roll-form neighbours (ghost copies of the edge
    node on a transmissive grid), every term of the bracket included:

        tau_i_new = tau_i - dt (i/2) bracket_i
                    + dt alpha_i (right_i - 2 tau_i + left_i) / (2 ds),

    each d_s in the bracket the central difference (right - left) / (2 ds)
    of node values, the f_j evaluated at every node.  alpha_i is equation i's
    advection speed sum_j |i j f_j / (2(i+j-1))| or, where larger, the
    umbilical speed |psi'(tau_1/n)| / 2 of the node (psi' by numpy's
    polynomial derivative), and its maximum sets dt.  It is right for every
    functional, so the step must match it to rounding in every case.
    """
    if F.n != fld.n:
        raise ValueError(f"functional is for n={F.n}, field has n={fld.n}")
    n = fld.n
    tau = fld.tau.T  # (G, n): the field's (n, G) rows as columns
    ds = fld.ds
    remaining = ctl.t_end - fld.t
    if remaining <= 0:
        raise ValueError("field is already at or beyond t_end")

    taux = power_sums_with_tau0_reference(tau, n, max(n, 2 * n - 2))
    fvals = np.stack([F.coefficient(j, fld.tau) for j in range(n)], axis=-1)

    speeds = np.zeros_like(tau)
    for i in range(1, n + 1):
        for j in range(1, n):
            speeds[:, i - 1] += np.abs(i * j * fvals[:, j] / (2.0 * (i + j - 1)))
    psi_prime = np.polyval(np.polyder(F.psi_coeffs[::-1]), tau[:, 0] / n)
    speeds = np.maximum(speeds, 0.5 * np.abs(psi_prime)[:, None])
    dt = _pick_dt(float(np.max(speeds)), ds, ctl, remaining)

    def central(u):
        left, right = neighbors_reference(u, fld.periodic)
        return (right - left) / (2.0 * ds)

    left, right = neighbors_reference(tau, fld.periodic)
    tau_new = np.empty_like(tau)
    for i in range(1, n + 1):
        bracket = taux[:, i - 1] * central(fvals[:, 0])
        for j in range(1, n):
            bracket += (j * fvals[:, j] / (i + j - 1)) * central(taux[:, i + j - 1])
            bracket += taux[:, i + j - 1] * central(fvals[:, j])
        u = tau[:, i - 1]
        dissipation = speeds[:, i - 1] * (right[:, i - 1] - 2.0 * u + left[:, i - 1])
        tau_new[:, i - 1] = u - dt * (i / 2.0) * bracket + dt * dissipation / (2.0 * ds)

    if not np.all(np.isfinite(tau_new)):
        raise FlowBlowUpError("non-finite power sums", fld.t)
    return TauField(fld.s, np.ascontiguousarray(tau_new.T), fld.boundary, fld.t + dt)


# ------------------------------------- the kernels in their one-expression form
# The step kernels update their temporaries in place and read the constants
# of a tau step from FlowFunctional.tau_step.  These are the same kernels with
# every value formed by one expression and every constant rebuilt per step:
# the kernels must keep their bits.


def psi_prime_one_expression(F, lam):
    """d psi / d lam by central difference with step 1e-6 * max(1, |lam|)."""
    lam = np.asarray(lam, dtype=float)
    h = 1e-6 * np.maximum(1.0, np.abs(lam))
    out = (psi_of_lambda(F, lam + h) - psi_of_lambda(F, lam - h)) / (2.0 * h)
    return out if np.ndim(out) else float(out)


def total_variation_one_expression(u, periodic):
    """Sum of |u[k+1] - u[k]|, with the wrap-around jump when periodic."""
    with np.errstate(over="ignore"):
        tv = float(np.abs(u[1:] - u[:-1]).sum())
        if periodic:
            tv += abs(float(u[0] - u[-1]))
    return tv


def step_umbilical_one_expression(p: UmbilicalProfile, F, ctl: StepControl,
                                  inflow_left=None) -> UmbilicalProfile:
    """flow_engine.step_umbilical with one expression per value: the face
    fluxes 4F = psi_- + psi_+ - d (lam_+ - lam_-) with the Rusanov
    dissipation d = max(|psi'_-|, |psi'_+|), then the trapezoid warping."""
    lam = p.lam
    ds = p.ds
    remaining = ctl.t_end - p.t
    if remaining <= 0:
        raise ValueError("profile is already at or beyond t_end")
    with np.errstate(all="ignore"):
        lam_p = _padded(lam, p.periodic)
        psi_p = np.asarray(psi_of_lambda(F, lam_p))
        rate = np.abs(np.asarray(psi_prime_one_expression(F, lam_p)))
        dt = _pick_dt(0.5 * float(rate.max()), ds, ctl, remaining)
        t_new = p.t + dt
        d = np.maximum(rate[:-1], rate[1:])
        flux = psi_p[:-1] + psi_p[1:] - d * (lam_p[1:] - lam_p[:-1])
        lam_new = lam - dt / (4.0 * ds) * (flux[1:] - flux[:-1])
        if inflow_left is not None and not p.periodic:
            lam_new[0] = inflow_left(t_new)
        if not np.isfinite(lam_new).all():
            raise FlowBlowUpError("non-finite normal curvature", p.t)
        psi_new = np.asarray(psi_of_lambda(F, lam_new))
        phi_new = p.phi * np.exp(0.25 * dt * (psi_p[1:-1] + psi_new))
    if not (phi_new.min() > 0 and phi_new.max() < np.inf):
        raise FlowBlowUpError("non-finite or zero warping factor", p.t)
    return UmbilicalProfile(p.s, lam_new, phi_new, p.boundary, t_new)


def tau_speeds_one_expression(F, tau):
    """The tau step's speed column: per equation i (row i - 1) the sum of
    |i j f_j / (2(i+j-1))| over the live f_j, from 0, or where larger the
    umbilical speed |psi'(tau_1/n)| / 2; a constant f_j or psi' is one
    node's value."""
    eq = np.arange(1, F.n + 1)[:, None]
    speeds = np.zeros((F.n, 1))
    for j in F.live:
        f_j = F.coefficient(j, tau if j in F.varying else tau[:, :1])
        speeds = speeds + np.abs(eq * j * f_j / (2.0 * (eq + j - 1)))
    lam = tau[0] if len(F.psi_prime_coeffs) > 1 else tau[0, :1]
    return np.maximum(speeds, 0.5 * np.abs(_horner(F.psi_prime_coeffs, lam / F.n)))


def step_tau_system_one_expression(fld: TauField, F, ctl: StepControl) -> TauField:
    """flow_engine.step_tau_system with every constant of F rebuilt per step
    (m_top, the equation column, each constant f_j at one node, the term
    order) and one expression per bracket term."""
    if F.n != fld.n:
        raise ValueError(f"functional is for n={F.n}, field has n={fld.n}")
    n = fld.n
    tau = fld.tau
    ds = fld.ds
    remaining = ctl.t_end - fld.t
    if remaining <= 0:
        raise ValueError("field is already at or beyond t_end")
    live, varying = F.live, F.varying
    m_top = n + max(live) - 1 if live else n
    with np.errstate(all="ignore"):
        padded = np.empty((m_top + 1 + len(varying), tau.shape[1] + 2))
        tx = power_sums_with_tau0(tau, n, m_top, out=padded[:m_top + 1, 1:-1])
        f = {j: F.coefficient(j, tau if j in varying else tau[:, :1])
             for j in {*live, *varying}}
        for row, j in enumerate(varying, start=m_top + 1):
            padded[row, 1:-1] = f[j]
        _fill_ghosts(padded, fld.periodic)
        d = padded[1:, 1:] - padded[1:, :-1]
        central = d[:, :-1] + d[:, 1:]
        eq = np.arange(1, n + 1)[:, None]
        speeds = tau_speeds_one_expression(F, tau)
        dt = _pick_dt(float(speeds.max()), ds, ctl, remaining)
        h = dt / (2.0 * ds)
        w = (0.5 * h) * eq
        tau_new = (h * speeds) * (d[:n, 1:] - d[:n, :-1])
        for j in sorted({*live, *varying}):
            if j in live:
                tau_new -= (j * f[j]) * (w / (eq + j - 1)) * central[j - 1:j - 1 + n]
            if j in varying:
                tau_new -= w * tx[j:j + n] * central[m_top + varying.index(j)]
        tau_new += tau
    if not np.isfinite(tau_new).all():
        raise FlowBlowUpError("non-finite power sums", fld.t)
    return TauField(fld.s, tau_new, fld.boundary, fld.t + dt)


# ------------------------------------------- the tau system's Jacobian, exactly


@functools.lru_cache(maxsize=None)
def tau_jacobian(F):
    """(A, tau) with A(tau) the exact Jacobian of the tau system
    tau_t + A(tau) tau_s = 0 in sympy, over the symbols tau = (tau_1..tau_n):

        A_ik = (i/2) [ tau_{i-1} d f_0 / d tau_k
                       + sum_j ( j f_j / (i+j-1) d tau_{i+j-1} / d tau_k
                                 + tau_{i+j-1} d f_j / d tau_k ) ],

    tau_0 = n, each f_j summed from F's monomial table with its coefficients
    as exact rationals, sigma_1..sigma_n from the low-range Newton identities
    and tau_m, m > n, from the high-range ones."""
    n = F.n
    tau = sp.symbols(f"tau1:{n + 1}")
    f = [sp.Add(*(sp.Rational(coef) * sp.Mul(*(t ** e for t, e in zip(tau, exps)))
                  for exps, coef in F.table[j])) for j in range(n)]
    sigma = []
    for j in range(1, n + 1):
        acc = tau[j - 1] + sum((-1) ** i * tau[j - i - 1] * sigma[i - 1] for i in range(1, j))
        sigma.append(sp.expand(sp.Rational((-1) ** (j + 1), j) * acc))
    live = [j for j in range(1, n) if f[j] != 0]
    power = [sp.Integer(n), *tau]  # power[m] is tau_m
    for m in range(n + 1, n + max(live, default=1)):
        power.append(sp.expand(sum((-1) ** (i + 1) * sigma[i - 1] * power[m - i]
                                   for i in range(1, n + 1))))
    A = sp.zeros(n, n)
    for i in range(1, n + 1):
        for k, t in enumerate(tau):
            entry = power[i - 1] * sp.diff(f[0], t)
            for j in live:
                entry += (sp.Rational(j, i + j - 1) * f[j] * sp.diff(power[i + j - 1], t)
                          + power[i + j - 1] * sp.diff(f[j], t))
            A[i - 1, k] = sp.expand(sp.Rational(i, 2) * entry)
    return A, tau


def umbilical_jacobian(F, lam):
    """A at the umbilical spectrum tau_k = n lam^k, lam a number or a symbol."""
    A, tau = tau_jacobian(F)
    return A.subs({t: F.n * lam ** k for k, t in enumerate(tau, start=1)})

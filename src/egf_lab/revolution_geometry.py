"""Profile-curve geometry for hypersurfaces of revolution.

A profile is a sampled plane curve (x0(t), x1(t)) with x1 > 0, revolved about
the x0-axis; the induced metric is g00 dx0^2 + x1^2 sum dx_i^2 with
g00 = x0'(t)^2 + x1'(t)^2 in the sampling parameter.  Graph profiles use
t = x0 so that g00 = 1 + f'^2.

The constant-normal-curvature generatrix is available twice over: as a
closed-form expression and as a fourth-order integration of its defining
ODE dx0/dx1 = sqrt(4 + x1^2)/x1; the two are cross-checked in tests, as are
the printed sectional curvature -1/(x1^2+2)^2 and the finite-difference
curvature of the integrated samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .catalog import make_functional
from .flow_engine import StepControl, UmbilicalProfile, evolve_umbilical


@dataclass
class RevolutionProfile:
    """Sampled generatrix of a hypersurface of revolution.

    ``param`` is the sampling parameter (x0 itself for graphs, x1 for curves
    integrated in the radius, arclength after reparameterization); ``dx0``
    and ``dx1`` are the derivatives of the coordinates in that parameter.
    """

    param: np.ndarray
    x0: np.ndarray
    x1: np.ndarray
    dx0: np.ndarray
    dx1: np.ndarray
    provenance: str = "user"

    def __post_init__(self):
        for name in ("param", "x0", "x1", "dx0", "dx1"):
            setattr(self, name, np.asarray(getattr(self, name), dtype=float))
        if self.param.size < 8:
            raise ValueError("need at least 8 profile samples")
        shapes = {getattr(self, n).shape for n in ("param", "x0", "x1", "dx0", "dx1")}
        if len(shapes) != 1:
            raise ValueError("all sample arrays must share one shape")
        if np.any(np.diff(self.param) <= 0):
            raise ValueError("parameter samples must be strictly increasing")
        if np.any(np.diff(self.x0) <= 0):
            raise ValueError("x0 must be strictly increasing along the profile")
        if np.any(self.x1 <= 0):
            raise ValueError("the radius x1 = f(x0) must stay positive")

    @classmethod
    def cone(cls, beta: float, x0_range: tuple[float, float], grid: int = 256):
        """Generatrix x1 = tan(beta) x0 of a cone, x0 > 0."""
        a, b = x0_range
        if not 0 < beta < np.pi / 2:
            raise ValueError("beta: opening angle must lie in (0, pi/2)")
        if a <= 0:
            raise ValueError("x0_min: the cone profile must stay away from the apex")
        x0 = np.linspace(a, b, grid)
        slope = math.tan(beta)
        return cls(x0, x0, slope * x0, np.ones_like(x0), np.full_like(x0, slope),
                   f"cone(beta={beta:g})")


def profile_metric(p: RevolutionProfile) -> tuple[np.ndarray, np.ndarray]:
    """(g00, g11) of the revolved metric in the profile's own parameter."""
    return p.dx0 ** 2 + p.dx1 ** 2, p.x1 ** 2


def closed_form_gamma(x1, C: float = 0.0):
    """Axial coordinate of the constant-curvature generatrix at radius x1.

    x0 = log((u - 2)/(u + 2)) + u + C with u = sqrt(4 + x1^2), written in the
    cancellation-free form 2 log x1 - 2 log(u + 2) + u + C.
    """
    x1 = np.asarray(x1, dtype=float)
    if np.any(x1 <= 0):
        raise ValueError("the closed form is defined for x1 > 0 only")
    u = np.sqrt(4.0 + x1 ** 2)
    out = 2.0 * np.log(x1) - 2.0 * np.log(u + 2.0) + u + C
    return out if out.ndim else float(out)


def integrate_constant_lambda(
    x1_start: float, x1_end: float, step: float, C: float = 0.0
) -> RevolutionProfile:
    """Fourth-order integration of dx0/dx1 = sqrt(4 + x1^2)/x1 in the radius.

    The anchor x0(x1_start) is taken from the closed form with the same C, so
    the two descriptions are directly comparable sample by sample.
    """
    if not 0 < x1_start < x1_end:
        raise ValueError("need 0 < x1_start < x1_end (the ODE is singular at 0)")
    if step <= 0:
        raise ValueError("step must be positive")
    n_steps = max(8, int(math.ceil((x1_end - x1_start) / step)))
    h = (x1_end - x1_start) / n_steps

    def rhs(x1):
        return np.sqrt(4.0 + x1 * x1) / x1

    x1_vals = x1_start + h * np.arange(n_steps + 1)
    x = x1_vals[:-1]
    k1, k2, k4 = rhs(x), rhs(x + 0.5 * h), rhs(x + h)  # k3 == k2: rhs is x1-only
    steps = h * (k1 + 2.0 * k2 + 2.0 * k2 + k4) / 6.0
    # cumsum adds in sequence, as the step-by-step sum x0 += step does
    x0_vals = np.cumsum(np.concatenate(([closed_form_gamma(x1_start, C)], steps)))

    return RevolutionProfile(
        x1_vals,
        x0_vals,
        x1_vals,
        rhs(x1_vals),
        np.ones_like(x1_vals),
        provenance=f"constant_lambda(C={C:g})",
    )


def sectional_curvature_formula(x1):
    """Closed-form plane-section curvature -1/(x1^2 + 2)^2 of that surface."""
    x1 = np.asarray(x1, dtype=float)
    out = -1.0 / (x1 ** 2 + 2.0) ** 2
    return out if out.ndim else float(out)


@dataclass
class CurvatureComparison:
    formula: np.ndarray
    oracle: np.ndarray
    max_abs_diff: float


def sectional_curvature_profile(
    p: RevolutionProfile, formula: Callable[[np.ndarray], np.ndarray]
) -> CurvatureComparison:
    """The curve's closed-form curvature ``formula(x1)`` against
    -f''/(f (1+f'^2)^2) from the samples.

    The oracle differentiates the raw samples twice, so it is independent of
    any stored derivative data.  The two nodes at each end are excluded from
    the discrepancy norm (one-sided stencils lose an order there).
    """
    t = p.param
    x0p = np.gradient(p.x0, t, edge_order=2)
    x0pp = np.gradient(x0p, t, edge_order=2)
    x1p = np.gradient(p.x1, t, edge_order=2)
    x1pp = np.gradient(x1p, t, edge_order=2)
    fp = x1p / x0p
    fpp = (x1pp * x0p - x1p * x0pp) / x0p ** 3
    oracle = -fpp / (p.x1 * (1.0 + fp ** 2) ** 2)
    closed = np.asarray(formula(p.x1), dtype=float)
    diff = float(np.max(np.abs(closed[2:-2] - oracle[2:-2])))
    return CurvatureComparison(closed, oracle, diff)


# psi(lam) = lam on 2-dimensional leaves, the flow driving the cone example
_CONE_FLOW = make_functional("b1", 2)


def cone_flow_check(
    beta: float,
    ctl: StepControl,
    grid: int,
    domain: tuple[float, float] = (2.0, 6.0),
) -> tuple[dict, dict]:
    """Evolve the cone data lam0 = -2/x0 under psi(lam) = lam to ctl.t_end
    and compare; returns the measured deviations and the final profile's
    columns beside their closed-form targets, keyed by ``cone_final.csv``'s
    header.

    The transported curvature is checked against -2/(x0 - t/2).  The warping
    factor is compared both with the translated-cone radius (x0 - t/2) sin(beta)
    and with the exact exponential integral of the transported curvature,
    sin(beta) (x0 - t/2)^2 / x0; the two differ because the curvature
    normalization of the cone data does not match the radius convention, so
    only the second is a consistency target for the integrator.  Error
    messages start with the cone-check key at fault: beta or domain_min.
    """
    a, b = domain
    t_end = ctl.t_end
    if not 0 < beta < np.pi / 2:
        raise ValueError("beta: opening angle must lie in (0, pi/2)")
    if a <= t_end / 2.0:
        raise ValueError(
            "domain_min: the apex reaches the domain: need domain_min > t_end / 2"
        )

    sin_b = math.sin(beta)
    p = UmbilicalProfile.from_function(
        lambda s: -2.0 / s,
        grid,
        b - a,
        boundary="transmissive",
        s0=a,
        phi0=lambda s: s * sin_b,
    )
    if t_end > 0:
        p = evolve_umbilical(
            p, _CONE_FLOW, ctl, inflow_left=lambda t: -2.0 / (a - t / 2.0)
        )

    s, x = p.s, p.s - t_end / 2.0
    lam_exact, phi_translated, phi_integral = -2.0 / x, x * sin_b, sin_b * x ** 2 / s
    columns = {"s": s, "lambda_num": p.lam, "lambda_exact": lam_exact,
               "phi_num": p.phi, "phi_translated": phi_translated,
               "phi_integral": phi_integral}
    return {
        "beta": beta,
        "t_end": t_end,
        "grid": grid,
        "sup_err_lambda": float(np.max(np.abs(p.lam - lam_exact))),
        "sup_err_phi_translated": float(np.max(np.abs(p.phi - phi_translated))),
        "sup_err_phi_integral": float(np.max(np.abs(p.phi - phi_integral))),
        "notes": [
            "phi vs translated cone is reported, not asserted: the cone "
            "curvature data and the radius convention disagree by a factor "
            "of the leaf dimension"
        ],
    }, columns

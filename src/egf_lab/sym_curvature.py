"""Symmetric-function algebra of principal curvatures.

Everything here is exact up to floating tolerance: power sums and elementary
symmetric functions of a curvature spectrum, the Newton recurrences linking
them, the deformation tensor h(b) in the principal frame, conformal shifts of
the Weingarten spectrum, and the extrinsic Ricci quantities built from it.

Conventions used throughout:
  * tau_j = sum_i k_i**j for j >= 1; tau_0 = n (trace of the identity on the
    leaf) wherever a recurrence reaches index zero.
  * sigma_j are the elementary symmetric functions, sigma_0 = 1 implicit.
  * Newton recurrence, low range (1 <= j <= n):
        tau_j - tau_{j-1} sigma_1 + ... + (-1)^j j sigma_j = 0
  * Newton recurrence, high range (j > n):
        tau_j - tau_{j-1} sigma_1 + ... + (-1)^n tau_{j-n} sigma_n = 0
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

# Identity assertions use relative 1e-10 with an absolute floor of 1e-12:
# double precision leaves ample headroom at desk-scale condition numbers.
REL_TOL = 1e-10
ABS_TOL = 1e-12

# tau-vectors used to probe that a functional is not identically zero.
_PROBE_TAUS = (0.0, 1.0, -1.0, 0.5, 2.0, -3.0, 7.5)


def _tols(scale: float) -> float:
    return max(ABS_TOL, REL_TOL * abs(scale))


@dataclass(frozen=True)
class PrincipalCurvatureSpectrum:
    """Eigenvalues of the Weingarten operator at a point of a leaf.

    ``k`` holds the n principal curvatures with respect to the unit normal.
    Every symmetric-function operation is insensitive to their order.
    """

    k: tuple[float, ...]

    def __post_init__(self):
        k = tuple(float(v) for v in self.k)
        if len(k) < 1:
            raise ValueError("spectrum needs at least one principal curvature")
        if not all(np.isfinite(k)):
            raise ValueError("principal curvatures must be finite")
        object.__setattr__(self, "k", k)

    @property
    def n(self) -> int:
        return len(self.k)

    def as_array(self) -> np.ndarray:
        return np.asarray(self.k, dtype=float)


@dataclass(frozen=True)
class FlowFunctional:
    """Coefficient functions f_0..f_{n-1} of the leafwise deformation tensor.

    Each callback receives the tau-vector as an ndarray whose final axis has
    length n (tau[..., j] is tau_{j+1}) and must evaluate elementwise over any
    leading axes.  ``table`` holds f_j as its (exponents (e_1..e_n), coef)
    pairs, f_j = sum of coef * prod_k tau_k**e_k, when every f_j is a
    polynomial (the catalog functionals); psi_coeffs, live and varying come
    from it.  Without a table there are no psi_coeffs and live and varying
    hold every index.
    """

    n: int
    f: tuple[Callable[[np.ndarray], np.ndarray], ...]
    table: tuple[tuple[tuple[tuple[int, ...], float], ...], ...] | None = None

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("leaf dimension must be >= 1")
        if len(self.f) != self.n:
            raise ValueError(f"need exactly n={self.n} coefficient functions")
        if not self._nonzero_somewhere():
            raise ValueError("all coefficient functions vanish on the probe set")

    def _nonzero_somewhere(self) -> bool:
        for fj in self.f:
            for t in _PROBE_TAUS:
                tau = np.full(self.n, t)
                if abs(float(fj(tau))) > 0.0:
                    return True
        return False

    @cached_property
    def psi_coeffs(self) -> tuple[float, ...] | None:
        """psi's coefficients in lam, lowest power first, for Horner.  On an
        umbilical spectrum tau_k = n lam^k, so coef * prod tau_k^e_k * lam^j
        of f_j becomes coef n^(sum e_k) lam^(j + sum k e_k)."""
        if self.table is None:
            return None
        psi: dict[int, float] = {}
        for j, terms in enumerate(self.table):
            for exps, coef in terms:
                power = j + sum(k * e for k, e in enumerate(exps, start=1))
                psi[power] = psi.get(power, 0.0) + coef * self.n ** sum(exps)
        return tuple(psi.get(p, 0.0) for p in range(max(psi, default=0) + 1))

    @cached_property
    def live(self) -> tuple[int, ...]:
        """The j >= 1 whose f_j the table does not prove identically zero."""
        return tuple(j for j in range(1, self.n) if self.table is None or self.table[j])

    @cached_property
    def varying(self) -> tuple[int, ...]:
        """The j whose f_j the table does not prove constant."""
        return tuple(j for j in range(self.n) if self.table is None
                     or any(any(exps) for exps, _ in self.table[j]))

    def coefficient(self, j: int, tau: np.ndarray) -> np.ndarray:
        """f_j(tau) over the leading axes of tau, which has shape (..., n)."""
        return np.broadcast_to(np.asarray(self.f[j](tau), dtype=float),
                               tau.shape[:-1])

    def evaluate(self, tau: np.ndarray) -> np.ndarray:
        """Stack f_j(tau) along a new final axis; tau has shape (..., n)."""
        tau = np.asarray(tau, dtype=float)
        return np.stack([self.coefficient(j, tau) for j in range(self.n)], axis=-1)


def power_sums(spec: PrincipalCurvatureSpectrum, m: int) -> np.ndarray:
    """tau_1..tau_m of the spectrum; tau_0 = n is implied, not returned."""
    if m < 1:
        raise ValueError("m must be >= 1")
    k = spec.as_array()
    return np.array([np.sum(k ** j) for j in range(1, m + 1)])


def elementary_from_power(tau, n: int) -> np.ndarray:
    """sigma_1..sigma_n from tau_1..tau_n via the low-range Newton recurrence.

    ``tau`` may carry leading batch axes; the recurrence runs on the last one.
    """
    tau = np.asarray(tau, dtype=float)
    if tau.shape[-1] < n:
        raise ValueError(f"need at least {n} power sums, got {tau.shape[-1]}")
    sigma = np.zeros(tau.shape[:-1] + (n,))
    for j in range(1, n + 1):
        acc = tau[..., j - 1].copy()
        for i in range(1, j):
            acc += (-1) ** i * tau[..., j - i - 1] * sigma[..., i - 1]
        sigma[..., j - 1] = (-1) ** (j + 1) * acc / j
    return sigma


def power_sums_with_tau0(tau, n: int, m: int) -> np.ndarray:
    """(tau_0, tau_1, ..., tau_m) with tau_0 = n; tau_{n+1}..tau_m come from
    the high-range Newton recurrence.

    ``tau`` holds tau_1..tau_n with arbitrary leading axes.  The pass fills one
    array of contiguous rows, row j holding tau_j, and returns it with the
    index on the last axis.
    """
    tau = np.asarray(tau, dtype=float)
    given = min(n, m)
    lead = tuple(range(tau.ndim - 1))  # transpose views: np.moveaxis costs more
    rows = np.zeros((m + 1,) + tau.shape[:-1])
    rows[0] = n
    rows[1:given + 1] = tau[..., :given].transpose(-1, *lead)
    if m > n:
        # (-1)^(i+1) sigma_i as row i - 1
        signed = elementary_from_power(tau, n).transpose(-1, *lead).copy()
        signed[1::2] *= -1.0
        for j in range(n + 1, m + 1):
            # row j sums from its +0.0, so a sum of -0.0 terms reads +0.0
            for i in range(1, n + 1):
                rows[j] += signed[i - 1] * rows[j - i]
    return rows.transpose(*range(1, rows.ndim), 0)


def umbilical_tau(n: int, lam) -> np.ndarray:
    """tau-vector (n*lam, n*lam^2, ..., n*lam^n) of an umbilical spectrum."""
    lam = np.asarray(lam, dtype=float)
    powers = np.stack([lam ** j for j in range(1, n + 1)], axis=-1)
    return n * powers


def psi_of_lambda(F: FlowFunctional, lam):
    """Scalar flow speed of the umbilical reduction.

    psi(lam) = sum_j f_j(n lam, n lam^2, ..., n lam^n) lam^j.  Vectorized over
    ``lam`` of any shape.  A functional with a table is evaluated by Horner
    over its ``psi_coeffs``; one given only by callbacks through the sum above.
    """
    lam = np.asarray(lam, dtype=float)
    if F.psi_coeffs is not None:
        out = np.empty(lam.shape)  # empty + fill: np.full is a Python wrapper
        out.fill(F.psi_coeffs[-1])
        for c in F.psi_coeffs[-2::-1]:
            out *= lam
            out += c
    else:
        tau = umbilical_tau(F.n, lam)
        coeffs = F.evaluate(tau)
        lam_pows = np.stack([lam ** j for j in range(F.n)], axis=-1)
        out = np.sum(coeffs * lam_pows, axis=-1)
    return out if out.ndim else float(out)


def psi_prime(F: FlowFunctional, lam):
    """d psi / d lam by central difference with step 1e-6 * max(1, |lam|)."""
    lam = np.asarray(lam, dtype=float)
    h = 1e-6 * np.maximum(1.0, np.abs(lam))
    out = (psi_of_lambda(F, lam + h) - psi_of_lambda(F, lam - h)) / (2.0 * h)
    return out if np.ndim(out) else float(out)


def assemble_h_eigen(spec: PrincipalCurvatureSpectrum, F: FlowFunctional) -> np.ndarray:
    """Eigenvalues of the deformation tensor in the principal frame.

    h_i = sum_j f_j(tau) k_i**j with tau = power_sums(spec, n).
    """
    if F.n != spec.n:
        raise ValueError(f"functional is for n={F.n}, spectrum has n={spec.n}")
    k = spec.as_array()
    tau = power_sums(spec, spec.n)
    coeffs = F.evaluate(tau)
    return sum(coeffs[j] * k ** j for j in range(spec.n))


def conformal_shift(spec: PrincipalCurvatureSpectrum, c: float) -> PrincipalCurvatureSpectrum:
    """Spectrum after a leafwise conformal change whose normal log-derivative is c."""
    return PrincipalCurvatureSpectrum(tuple(ki - c for ki in spec.k))


def extrinsic_ricci_eigen(spec: PrincipalCurvatureSpectrum) -> np.ndarray:
    """Eigenvalues tau_1 k_i - k_i^2 of the extrinsic Ricci tensor."""
    k = spec.as_array()
    return float(np.sum(k)) * k - k ** 2


def extrinsic_scalar(spec: PrincipalCurvatureSpectrum) -> float:
    """Extrinsic scalar curvature tau_1^2 - tau_2 (equals 2 sigma_2)."""
    tau = power_sums(spec, max(2, spec.n))
    value = tau[0] ** 2 - tau[1]
    if spec.n >= 2:
        sigma = elementary_from_power(tau[:spec.n], spec.n)
        if abs(value - 2.0 * sigma[1]) > _tols(max(abs(value), abs(2 * sigma[1]))) * 10:
            raise AssertionError(
                f"tau_1^2 - tau_2 = {value!r} disagrees with 2 sigma_2 = {2 * sigma[1]!r}"
            )
    return float(value)


@dataclass(frozen=True)
class RicciFlatVerdict:
    """Outcome of the extrinsic-Ricci-flat test at a point.

    ``totally_geodesic`` is reported separately from ``flat``: vanishing of
    the extrinsic Ricci eigenvalues forces k = 0 except for the rank-one
    spectra (c, 0, ..., 0), so the implication flat => totally geodesic is
    checked, never assumed.
    """

    flat: bool
    totally_geodesic: bool | None
    max_ricci_eigen: float
    max_curvature: float

    @property
    def verdict(self) -> str:
        if not self.flat:
            return "not_flat"
        return "flat+totally_geodesic" if self.totally_geodesic else "flat"


def classify_extrinsic_ricci_flat(
    spec: PrincipalCurvatureSpectrum, tol: float
) -> RicciFlatVerdict:
    """Decide whether the extrinsic Ricci tensor vanishes at this spectrum."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    ric = extrinsic_ricci_eigen(spec)
    max_ric = float(np.max(np.abs(ric)))
    max_k = float(np.max(np.abs(spec.as_array())))
    flat = max_ric <= tol
    return RicciFlatVerdict(
        flat=flat,
        totally_geodesic=(max_k <= tol) if flat else None,
        max_ricci_eigen=max_ric,
        max_curvature=max_k,
    )

"""Symmetric-function algebra of principal curvatures.

Everything here is exact up to floating tolerance: power sums and elementary
symmetric functions of a curvature spectrum, the Newton recurrences linking
them, and the flow functionals f_j(tau) of the deformation tensor with the
scalar speed psi of their umbilical reduction.

Conventions used throughout:
  * tau_j = sum_i k_i**j for j >= 1; tau_0 = n (trace of the identity on the
    leaf) wherever a recurrence reaches index zero.
  * sigma_j are the elementary symmetric functions, sigma_0 = 1 implicit.
  * An array of them is indexed first: row k - 1 holds tau_k (or sigma_k)
    over any trailing axes, so a grid of G nodes is an (n, G) array.
  * Newton recurrence, low range (1 <= j <= n):
        tau_j - tau_{j-1} sigma_1 + ... + (-1)^j j sigma_j = 0
  * Newton recurrence, high range (j > n):
        tau_j - tau_{j-1} sigma_1 + ... + (-1)^n tau_{j-n} sigma_n = 0
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np


class TauStep(NamedTuple):
    """What one step of the tau system (``flow_engine.step_tau_system``) reads
    of F alone, each value formed by the operations a step would use."""

    m_top: int  # the highest power sum the live f_j read
    eq: np.ndarray  # the equation indices i, an (n, 1) column
    # (j, i j, 2(i+j-1), term) of each live f_j in order; term is the (n, 1)
    # speed term |i j f_j / (2(i+j-1))| of a constant f_j, None for a varying one
    speed_terms: tuple
    umbilical: np.ndarray | None  # |psi'| / 2 when psi' is constant, else None
    # the bracket terms in the step's order, ascending j, f_j's own term
    # first: (j, None, j f_j of a constant f_j or None, i+j-1) for the term
    # of a live f_j, (j, row of d_s f_j, None, None) for that of a varying f_j
    terms: tuple


@dataclass(frozen=True)
class FlowFunctional:
    """Coefficient functions f_0..f_{n-1} of the leafwise deformation tensor,
    as their monomial table: ``table[j]`` holds f_j's (exponents
    (e_1..e_n), coef) pairs, f_j = sum of coef * prod_k tau_k**e_k (no
    pairs: f_j = 0).  psi_coeffs, live and varying are read off the table.
    """

    n: int
    table: tuple[tuple[tuple[tuple[int, ...], float], ...], ...]

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("leaf dimension must be >= 1")
        if len(self.table) != self.n:
            raise ValueError(f"need one table row per f_j, n={self.n} rows")
        if not any(coef for terms in self.table for _, coef in terms):
            raise ValueError("all coefficient functions vanish: every "
                             "coefficient of the table is zero")

    @cached_property
    def psi_coeffs(self) -> tuple[float, ...]:
        """psi's coefficients in lam, lowest power first, for Horner.  On an
        umbilical spectrum tau_k = n lam^k, so coef * prod tau_k^e_k * lam^j
        of f_j becomes coef n^(sum e_k) lam^(j + sum k e_k)."""
        psi: dict[int, float] = {}
        for j, terms in enumerate(self.table):
            for exps, coef in terms:
                power = j + sum(k * e for k, e in enumerate(exps, start=1))
                psi[power] = psi.get(power, 0.0) + coef * self.n ** sum(exps)
        return tuple(psi.get(p, 0.0) for p in range(max(psi, default=0) + 1))

    @cached_property
    def psi_prime_coeffs(self) -> tuple[float, ...]:
        """The coefficients k c_k of psi', lowest power first, for Horner:
        psi' exactly, with no difference step."""
        return tuple(k * c for k, c in enumerate(self.psi_coeffs))[1:] or (0.0,)

    @cached_property
    def live(self) -> tuple[int, ...]:
        """The j >= 1 whose f_j the table does not prove identically zero."""
        return tuple(j for j in range(1, self.n) if self.table[j])

    @cached_property
    def varying(self) -> tuple[int, ...]:
        """The j whose f_j the table does not prove constant."""
        return tuple(j for j in range(self.n)
                     if any(any(exps) for exps, _ in self.table[j]))

    @cached_property
    def tau_step(self) -> TauStep:
        """The constants of a tau-system step, computed once: a constant f_j
        reads no tau, so it is its value at any one node."""
        n, live, varying = self.n, self.live, self.varying
        eq = np.arange(1, n + 1)[:, None]
        fixed = {j: self.coefficient(j, np.zeros((n, 1))) for j in live
                 if j not in varying}
        speed_terms = tuple(
            (j, eq * j, 2.0 * (eq + j - 1),
             np.abs(eq * j * fixed[j] / (2.0 * (eq + j - 1))) if j in fixed else None)
            for j in live)
        umbilical = None
        if len(self.psi_prime_coeffs) == 1:
            umbilical = 0.5 * np.abs(_horner(self.psi_prime_coeffs, np.zeros(1)))
        m_top = n + max(live) - 1 if live else n
        terms = []
        for j in sorted({*live, *varying}):
            if j in live:
                terms.append((j, None, j * fixed[j] if j in fixed else None, eq + j - 1))
            if j in varying:
                terms.append((j, m_top + varying.index(j), None, None))
        return TauStep(m_top, eq, speed_terms, umbilical, tuple(terms))

    def coefficient(self, j: int, tau: np.ndarray) -> np.ndarray:
        """f_j(tau) over the trailing axes of tau, of shape (n, ...): the
        terms of table[j] summed in table order (no terms: zeros)."""
        out = np.zeros(tau.shape[1:])
        for i, (exps, coef) in enumerate(self.table[j]):
            term = np.empty(tau.shape[1:])  # empty + fill: np.full is a Python wrapper
            term.fill(coef)
            for k, e in enumerate(exps):
                if e:
                    term = term * tau[k] ** e
            out = term if i == 0 else out + term  # not 0 + term: keeps -0.0
        return out


def elementary_from_power(tau, n: int) -> np.ndarray:
    """sigma_1..sigma_n from tau_1..tau_n via the low-range Newton recurrence,
    over any trailing axes of ``tau``."""
    tau = np.asarray(tau, dtype=float)
    if tau.shape[0] < n:
        raise ValueError(f"need at least {n} power sums, got {tau.shape[0]}")
    sigma = np.zeros((n,) + tau.shape[1:])
    for j in range(1, n + 1):
        acc = tau[j - 1].copy()
        for i in range(1, j):
            acc += (-1) ** i * tau[j - i - 1] * sigma[i - 1]
        sigma[j - 1] = (-1) ** (j + 1) * acc / j
    return sigma


def power_sums_with_tau0(tau, n: int, m: int, out=None) -> np.ndarray:
    """(tau_0, tau_1, ..., tau_m) as the rows of ``out`` or of a new C-contiguous
    array, tau_0 = n; tau_{n+1}..tau_m come from the high-range Newton recurrence."""
    tau = np.asarray(tau, dtype=float)
    given = min(n, m)
    rows = np.empty((m + 1,) + tau.shape[1:]) if out is None else out
    rows[0] = n
    rows[1:given + 1] = tau[:given]
    if m > n:
        signed = elementary_from_power(tau, n)  # (-1)^(i+1) sigma_i as row i - 1
        signed[1::2] *= -1.0
        for j in range(n + 1, m + 1):
            rows[j] = 0.0  # summed from +0.0, so a sum of -0.0 terms reads +0.0
            for i in range(1, n + 1):
                rows[j] += signed[i - 1] * rows[j - i]
    return rows


def umbilical_tau(n: int, lam) -> np.ndarray:
    """Rows (n*lam, n*lam^2, ..., n*lam^n) of an umbilical spectrum."""
    lam = np.asarray(lam, dtype=float)
    return n * np.stack([lam ** j for j in range(1, n + 1)])


def _horner(coeffs: tuple[float, ...], lam: np.ndarray) -> np.ndarray:
    """sum_k coeffs[k] lam^k by Horner, highest power first, into a new array."""
    out = np.empty(lam.shape)  # empty + fill: np.full is a Python wrapper
    out.fill(coeffs[-1])
    for c in coeffs[-2::-1]:
        out *= lam
        out += c
    return out


def psi_of_lambda(F: FlowFunctional, lam):
    """Scalar flow speed of the umbilical reduction.

    psi(lam) = sum_j f_j(n lam, n lam^2, ..., n lam^n) lam^j, evaluated by
    Horner over ``F.psi_coeffs``.  Vectorized over ``lam`` of any shape.
    """
    out = _horner(F.psi_coeffs, np.asarray(lam, dtype=float))
    return out if out.ndim else float(out)


def psi_prime(F: FlowFunctional, lam):
    """d psi / d lam by central difference with step 1e-6 * max(1, |lam|)."""
    lam = np.asarray(lam, dtype=float)
    h = np.maximum(1.0, np.abs(lam))
    h *= 1e-6
    out = psi_of_lambda(F, lam + h)
    out -= psi_of_lambda(F, lam - h)
    h *= 2.0
    out /= h  # in place: the bits of (psi(lam + h) - psi(lam - h)) / (2 h)
    return out if np.ndim(out) else float(out)

"""Independent brute-force oracles shared by the test modules.

Everything in here is deliberately naive: direct summation, polynomial
expansion, exhaustive enumeration.  The oracles never call the code paths
they are used to check.
"""

from __future__ import annotations

import math
from itertools import permutations

import numpy as np


def direct_power_sums(k, m):
    """tau_j = sum_i k_i**j by direct summation, j = 1..m."""
    return [sum(ki ** j for ki in k) for j in range(1, m + 1)]


def sigma_by_expansion(k):
    """Elementary symmetric functions via coefficients of prod (x - k_i)."""
    coeffs = np.poly(np.asarray(k, dtype=float))  # x^n - s1 x^{n-1} + s2 ...
    return [(-1) ** j * coeffs[j] for j in range(1, len(k) + 1)]


def shifted_power_sums(k, c, m):
    """Power sums of (k_i - c) by binomial expansion of each term."""
    out = []
    for j in range(1, m + 1):
        total = 0.0
        for ki in k:
            total += sum(
                math.comb(j, i) * ki ** i * (-c) ** (j - i) for i in range(j + 1)
            )
        out.append(total)
    return out


def trapezoid_mean(values, weights):
    """Weighted mean used as quadrature oracle for leaf averages."""
    values = np.asarray(values, dtype=float)
    weights = np.asarray(weights, dtype=float)
    return float(np.sum(values * weights) / np.sum(weights))


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
        tau1 = sum(k)
        if all(abs(ki * (tau1 - ki)) <= 1e-12 for ki in k):
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

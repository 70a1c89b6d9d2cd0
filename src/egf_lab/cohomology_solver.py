"""Cohomological equation of a linear torus flow, solved by small divisors.

For a constant direction field v on the 2- or 3-torus, the equation
v . grad f = h - mean(h) is solved mode by mode: each Fourier coefficient of
h is divided by 2 pi i <u, v>.  The solver is truncation-based: it works on
the finite mode table it is given (|u|_inf <= K), held as a dense (2K+1)^d
cube indexed by u + K, and reports the residual of the reconstructed
identity on the (4K)^d verification grid, so nothing about convergence of
infinite series is assumed silently.  The grid is checked a slab of rows at a
time, never whole: a dense 3-D solve at the cap K = 64 traces a 201 MB peak.

Direction vectors with rational resonances leave some divisors at zero; the
solver refuses exactly when the data carries energy on such a mode, naming
the offending lattice vector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

DIVISOR_MARGIN_FLOOR = 1e-12
ENERGY_FLOOR_REL = 1e-13
MAX_GRID_POINTS = 2 ** 24  # the (4K)^d verification grid: K <= 64 in 3-D
SLAB_POINTS = 2 ** 16  # verification points evaluated per slab of grid rows,
SLAB_MIN_ROWS = 8  # but at least this many rows: each slab re-reads the mode cube


class ResonanceError(RuntimeError):
    """The data has energy on a mode whose divisor is below the floor."""

    def __init__(self, message: str, worst_mode: tuple[int, ...]):
        super().__init__(message)
        self.worst_mode = worst_mode


def _lattice(v: tuple[float, ...], K: int):
    """<u, v>, ||u||_2 and |u|_inf on |u|_inf <= K as cubes indexed by u + K.

    <u, v> is summed as u1 v1 + u2 v2 (+ u3 v3), with no BLAS kernel.
    """
    axes = np.broadcast_arrays(*np.ogrid[(slice(-K, K + 1),) * len(v)])
    inner = axes[0] * v[0]
    for a, c in zip(axes[1:], v[1:]):
        inner = inner + a * c
    return inner, np.sqrt(sum(a * a for a in axes)), np.max(np.abs(axes), axis=0)


class ModeTable:
    """The modes u of a cube indexed by u + K that ``mask`` marks, and their
    values; ``len`` counts them."""

    def __init__(self, cube: np.ndarray, mask: np.ndarray, K: int):
        self.cube, self.mask, self.K = cube, mask, K

    def __len__(self) -> int:
        return int(np.count_nonzero(self.mask))

    def arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """The modes as an (N, d) int array in ascending order, and their values."""
        return np.argwhere(self.mask) - self.K, self.cube[self.mask]


def _mode_rows(rows, dim: int, K: int) -> tuple[np.ndarray, np.ndarray]:
    """Modes (N, dim) and values (N,) of rows [u..., re, im] in input order
    (no rows: no modes); the first mode of a wrong dimension or outside K is
    named."""
    rows = np.asarray(rows, dtype=float)
    if not len(rows):
        rows = np.empty((0, dim + 2))
    u = rows[:, :-2]
    if u.shape[1] != dim:
        raise ValueError(
            f"mode {tuple(map(int, u[0]))} does not match dimension {dim}"
        )
    outside = np.max(np.abs(u), axis=1) > K
    if outside.any():
        raise ValueError(
            f"mode {tuple(map(int, u[np.argmax(outside)]))} lies outside |u|_inf <= {K}"
        )
    values = np.empty(len(rows), dtype=complex)  # parts set apart: keeps -0.0
    values.real, values.imag = rows[:, -2], rows[:, -1]
    return u.astype(np.int64), values


@dataclass
class TorusCohomologyProblem:
    """Right-hand side h (finite Fourier table) and flow direction v.

    ``coeffs`` holds rows [u1, ..., ud, re, im]: integer modes u (|u|_inf <= K)
    and the complex coefficients of exp(2 pi i <u, x>) (a repeated mode keeps
    its last value).  Conjugate symmetry (h real) is completed when one
    of a +-u pair is missing and validated when both are present.  ``coeffs``
    stays the rows given; ``cube`` holds h at u + K over the ``mask`` of given
    and completed modes, ``given`` the flat index of each input mode in input
    order, and ``inner``, ``norm`` and ``shell`` hold <u, v>, ||u||_2 and
    |u|_inf.  ``s`` is the Diophantine exponent of the margin diagnostics;
    the leaf dimension of the soliton reading is dim - 1.
    """

    v: tuple[float, ...]
    coeffs: np.ndarray
    K: int
    s: float = 1.0

    def __post_init__(self):
        self.v = tuple(float(c) for c in self.v)
        if len(self.v) not in (2, 3):
            raise ValueError("only 2- and 3-dimensional torus flows are supported")
        if self.K < 1:
            raise ValueError("K: truncation radius must be >= 1")
        if (4 * self.K) ** self.dim > MAX_GRID_POINTS:
            raise ValueError(f"K: truncation radius {self.K} needs more than "
                             f"{MAX_GRID_POINTS} verification points")
        if not (math.isfinite(self.s) and self.s > 0):
            raise ValueError(
                f"s: Diophantine exponent must be finite and positive, got {self.s!r}"
            )
        if not math.isfinite(2 * math.pi * self.K * sum(abs(c) for c in self.v)):
            raise ValueError(f"v: the divisors 2 pi <u, v> of |u|_inf <= K = {self.K} "
                             f"overflow for v = {self.v}")
        modes, values = _mode_rows(self.coeffs, self.dim, self.K)
        shape = (2 * self.K + 1,) * self.dim
        self.given = np.ravel_multi_index(tuple((modes + self.K).T), shape)
        slots, last = np.unique(self.given[::-1], return_index=True)
        cube = np.zeros(shape, dtype=complex)
        cube.flat[slots] = values[::-1][last]
        present = np.zeros(shape, dtype=bool)
        present.flat[slots] = True

        mirror = np.conj(np.flip(cube))
        tol = 1e-10 * max(1.0, float(np.max(np.abs(cube))))
        bad = present & np.flip(present) & (np.abs(mirror - cube) > tol)
        if bad.any():
            u = self.mode(self.given[np.argmax(bad.flat[self.given])])
            raise ValueError(
                f"conjugate symmetry violated between modes {u} and "
                f"{tuple(-c for c in u)}"
            )
        missing = np.flip(present) & ~present
        cube[missing] = mirror[missing]
        self.cube, self.mask = cube, present | missing
        self.inner, self.norm, self.shell = _lattice(self.v, self.K)

    @property
    def dim(self) -> int:
        return len(self.v)

    @property
    def leaf_dim(self) -> int:
        return self.dim - 1

    def mode(self, flat: int) -> tuple[int, ...]:
        """The mode u at a flat cube index."""
        idx = np.unravel_index(flat, (2 * self.K + 1,) * self.dim)
        return tuple(int(i) - self.K for i in idx)

    @classmethod
    def from_modes(cls, v, modes, K: int, s: float = 1.0):
        """From rows [u1, ..., ud, re, im]."""
        return cls(tuple(v), modes, K, s)

    @classmethod
    def from_grid(cls, v, grid: np.ndarray, K: int, s: float = 1.0):
        """Build the coefficient table from real samples on a uniform grid.

        The transform is a direct summation over the grid: coefficient of
        exp(2 pi i <u, x>) with x_j = index/M per axis; exact zeros are left
        out of the table.
        """
        grid = np.asarray(grid, dtype=float)
        if grid.ndim != len(tuple(v)):
            raise ValueError("grid dimension must match the direction vector")
        if min(grid.shape) < 2 * K + 1:
            raise ValueError(
                f"grid of shape {grid.shape} cannot resolve modes up to K={K}"
            )
        mats = [(_exp_matrix(K, M, -2j) / M).T for M in grid.shape]
        cube = np.einsum(*_separable(grid, mats), optimize=True)
        keep = np.abs(cube) > 0.0
        rows = (np.argwhere(keep) - K, cube[keep].real, cube[keep].imag)
        return cls(tuple(v), np.column_stack(rows), K, s)


def _exp_matrix(K: int, M: int, sign: complex) -> np.ndarray:
    """exp(sign pi u j / M) for the modes u = -K..K (rows) and j = 0..M-1."""
    return np.exp(sign * np.pi * np.outer(np.arange(-K, K + 1), np.arange(M) / M))


def _separable(data: np.ndarray, mats) -> list:
    """np.einsum operands of a separable direct Fourier sum: axis i of data
    contracted with axis 0 of mats[i] (a DFT matrix or some of its columns)."""
    dim = data.ndim
    operands = [data, list(range(dim))]
    for i, mat in enumerate(mats):
        operands += [mat, [i, dim + i]]
    return operands + [list(range(dim, 2 * dim))]


def _margins(inner: np.ndarray, norm: np.ndarray, s: float) -> np.ndarray:
    """|<u, v>| ||u||^s per mode.  A power past the float range counts as the
    largest float, so <u, v> = 0 still gives 0 and never 0 * inf = nan."""
    with np.errstate(over="ignore"):
        return np.abs(inner) * np.minimum(norm ** s, np.finfo(float).max)


def diophantine_margin(margins: np.ndarray) -> float:
    """min over 0 < |u|_inf <= K of |<u, v>| * ||u||_2^s, read off ``margins``,
    the cube of those values (u + K), whose zero mode it sets to inf."""
    margins.flat[margins.size // 2] = math.inf
    return float(np.min(margins))


@dataclass
class CohomologySolution:
    """Mode table of f with the absorbed mean and verification diagnostics.

    ``eps`` is the zero mode of h (the constant the equation cannot produce).
    For the soliton structure reading on leaves of dimension n = dim - 1, the
    solved field must be scaled by ``soliton_field_scale`` = n/2, since the
    structure equation carries the factor 2/n in front of the derivative.
    """

    f_coeffs: ModeTable
    eps: float
    margin: float
    residual: float
    max_imag: float
    soliton_field_scale: float
    problem: TorusCohomologyProblem = field(repr=False)


def solve_linear_flow(p: TorusCohomologyProblem) -> CohomologySolution:
    """Solve v . grad f = h - mean(h) mode by mode within the truncation.

    f_u = h_u / (2 pi i <u, v>) on every mode carrying energy; the zero mode
    of h is absorbed into eps.  Modes with |h_u| below the relative energy
    floor are dropped.  If an energized mode has |<u,v>| ||u||^s below the
    divisor floor, the problem is unsolvable within this truncation and the
    worst lattice vector is named (on a tie, the one given first).
    """
    h = p.cube
    floor = ENERGY_FLOOR_REL * max(1.0, float(np.max(np.abs(h))))
    energized = p.mask & (p.shell > 0) & (np.abs(h) > floor)
    margin = _margins(p.inner, p.norm, p.s)
    resonant = energized & (margin < DIVISOR_MARGIN_FLOOR)
    if resonant.any():
        candidates = p.given[resonant.flat[p.given]]
        worst = candidates[np.argmin(margin.flat[candidates])]
        raise ResonanceError(
            f"mode u = {p.mode(worst)} is resonant for v = {p.v}: "
            f"|<u,v>| ||u||^s = {margin.flat[worst]:.3e} below floor "
            f"{DIVISOR_MARGIN_FLOOR:.1e}",
            p.mode(worst),
        )

    # CPython's complex division h / (2 pi i <u,v>), signs of zero included
    d = 2 * np.pi * p.inner[energized]
    f = np.zeros_like(h)
    f.real[energized] = (h.real[energized] * 0.0 + h.imag[energized]) / d
    f.imag[energized] = (h.imag[energized] * 0.0 - h.real[energized]) / d

    # T(f 2 pi i <u,v>) - T(h) and T(f) on the (M,)^d grid by slabs of rows, each
    # along the whole grid's einsum path (one row would round as matrix x vector)
    M = max(4 * p.K, 8)
    mat = _exp_matrix(p.K, M, 2j)
    cubes = (f * 2j * np.pi * p.inner, np.where(p.shell > 0, h, 0.0), f)
    path = np.einsum_path(*_separable(f, [mat] * p.dim), optimize=True)[0]
    width = max(SLAB_MIN_ROWS, SLAB_POINTS // M ** (p.dim - 1))
    peaks = np.zeros(3)  # max |Re| and max |Im| of the difference, max |Im T(f)|
    for j in range(0, M - 1, width):  # a lone last row joins the slab before it
        mats = [mat[:, j:j + width if j + width + 1 < M else M]] + [mat] * (p.dim - 1)
        df, hf, ff = (np.einsum(*_separable(c, mats), optimize=path) for c in cubes)
        df -= hf
        np.maximum(peaks, [np.max(np.abs(df.real)), np.max(np.abs(df.imag)),
                           np.max(np.abs(ff.imag))], out=peaks)

    return CohomologySolution(
        f_coeffs=ModeTable(f, energized | (p.shell == 0), p.K),
        eps=float(h[(p.K,) * p.dim].real),
        margin=diophantine_margin(margin),
        residual=max(float(peaks[0]), float(peaks[1])),
        max_imag=float(peaks[2]),
        soliton_field_scale=p.leaf_dim / 2.0,
        problem=p,
    )


def amplification_report(sol: CohomologySolution) -> dict:
    """Per-shell worst-case |f_u| / |h_u| against the Diophantine bound.

    One entry per shell |u|_inf = k that holds a solved mode, in ascending k,
    in the columns ``shell``, ``n_modes`` (integer arrays), ``min_divisor``
    (min |<u, v>|), ``max_amplification`` and ``margin_bound``.  The bound
    per mode is ||u||_2^s / (2 pi margin); a solution obtained through the
    solver always sits below it.
    """
    p = sol.problem
    h = np.abs(p.cube)
    solved = sol.f_coeffs.mask & (h != 0.0) & (p.shell > 0)
    shell = p.shell[solved]
    bound = np.full(shell.size, math.inf)
    if sol.margin > 0:
        with np.errstate(over="ignore"):  # a bound past the float range is inf
            bound = p.norm[solved] ** p.s / (2 * np.pi * sol.margin)

    n_modes = np.bincount(shell, minlength=p.K + 1)
    min_div = np.full(p.K + 1, math.inf)
    np.minimum.at(min_div, shell, np.abs(p.inner[solved]))
    max_amp = np.zeros(p.K + 1)
    np.maximum.at(max_amp, shell, np.abs(sol.f_coeffs.cube[solved]) / h[solved])
    max_bound = np.zeros(p.K + 1)
    np.maximum.at(max_bound, shell, bound)
    held = np.flatnonzero(n_modes)
    return {"shell": held, "n_modes": n_modes[held], "min_divisor": min_div[held],
            "max_amplification": max_amp[held], "margin_bound": max_bound[held]}

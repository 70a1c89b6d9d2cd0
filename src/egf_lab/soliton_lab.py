"""Static verification of soliton structures for leafwise geometric flows.

A candidate consists of geometry (an umbilical profile along the normal
curve, or a biregular surface grid) together with a constant eps and a field:
the normal field mu(lam) N, whose scale is a polynomial read off psi's
coefficients, or, on a surface, X = 0.  The checkers evaluate the structure
equations pointwise and report per-equation residual norms; nothing here
evolves in time.

The closed-form spectrum classifier for extrinsic Ricci solitons with
conformally Killing fields lives here as well: every principal curvature must
solve k^2 - tau1 k - r = 0, which pins the admissible (roots, multiplicities)
pairs down to integer arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .flow_engine import (
    UmbilicalProfile,
    _axis_derivative,
    _grid_steps,
    _uniform_nodes,
)
from .sym_curvature import FlowFunctional, _horner, psi_of_lambda, psi_prime

# Units of rounding of the largest term that the soliton verdicts forgive: a
# true soliton of the catalog, at lengths 1e-6 to 1e6 and grids 8 to 256, left
# at most 4.0, so 256 leaves a factor of 64.
ROUNDING_ULPS = 256

# Distance of a multiplicity difference or a root sum from an integer, or from
# tau1, that the Ricci spectrum classifier still accepts.
INTEGER_TOL = 1e-9


def rounding_floor(*terms) -> float:
    """ROUNDING_ULPS units of 2^-53 of the largest |term|: the rounding error a
    sum or difference of the terms may carry (Higham 2002, sections 3.1-3.3)."""
    return ROUNDING_ULPS * 2.0 ** -53 * max(float(np.max(np.abs(t))) for t in terms)


@dataclass
class SolitonReport:
    """Per-equation residual norms and the resulting verdict; the normal check
    also keeps mu and its structure residual pointwise, the surface check lam."""

    residual_linf: dict
    residual_l2: dict
    eps_used: float
    n_lambda_norm: float | None  # sup |d lam/ds| of the normal check; None on a surface
    verdict: str  # soliton | not_soliton | degenerate
    tol: float  # the rounding floor of the residuals; nan when they are not finite
    notes: list = field(default_factory=list)
    mu: np.ndarray | None = None
    structure: np.ndarray | None = None
    lam: np.ndarray | None = None

    def __post_init__(self):
        for name, value in list(self.residual_linf.items()) + list(
            self.residual_l2.items()
        ):
            if value < 0 or not np.isfinite(value):
                raise ValueError(f"residual norm {name} must be finite and >= 0")


def _norms(residuals: dict) -> tuple[dict, dict]:
    """Sup and root-mean-square norms of each named residual; the mean square
    is taken of v / sup, so a finite residual never overflows to an infinite norm."""
    linf = {k: float(np.max(np.abs(v))) for k, v in residuals.items()}
    l2 = {k: linf[k] * float(np.sqrt(np.mean((v / linf[k]) ** 2))) if linf[k] else 0.0
          for k, v in residuals.items()}
    return linf, l2


def mu_of_lambda(F: FlowFunctional, lam):
    """Normal-field scale making a constant-curvature profile a soliton.

    mu = -(n/2) (psi(lam) - psi(0)) / lam = -(n/2) sum_{k>=1} c_k lam^(k-1)
    over psi's coefficients c_k, evaluated by Horner over
    ``F.psi_coeffs[1:]``: a polynomial, so it needs no division and is the
    same expression at lam = 0, where it is -(n/2) c_1.  Vectorized over lam.
    """
    coeffs = F.psi_coeffs[1:] or (0.0,)  # psi = c_0: mu = 0
    out = _horner(coeffs, np.asarray(lam, dtype=float))
    out *= -(F.n / 2.0)
    return out if out.ndim else float(out)


def check_normal_soliton(
    p: UmbilicalProfile,
    F: FlowFunctional,
    eps: float | str = "auto",
) -> SolitonReport:
    """Test whether (profile, mu N) solves the soliton structure equations.

    "auto" chooses eps = psi(0), the value for which the mu(lam) ansatz
    absorbs the structure equation identically, leaving constancy of lam
    along the normal curve as the only real condition.  Two normalizations
    of the field equation are evaluated (they differ by the leaf dimension
    factor on the mu-term); the verdict follows the (2/n)-form, with the
    traced form and the X = 0 reading reported alongside.
    The residuals are judged against tol, the rounding floor of psi, eps and
    mu lam; lam is constant when its spread is within the floor of lam.
    """
    eps_val = float(psi_of_lambda(F, 0.0)) if eps == "auto" else float(eps)

    lam = p.lam
    psi_vals = np.asarray(psi_of_lambda(F, lam))
    mu = np.asarray(mu_of_lambda(F, lam))
    structure = psi_vals - eps_val + (2.0 / F.n) * mu * lam
    if not (np.all(np.isfinite(psi_vals)) and np.all(np.isfinite(mu))):
        return SolitonReport(
            {}, {}, eps_val, math.inf, "degenerate", math.nan,
            ["non-finite values in psi or mu"], mu, structure,
        )

    tol = rounding_floor(psi_vals, eps_val, 2.0 * mu * lam)
    residuals = {
        "structure": structure,
        "structure_traced": psi_vals - eps_val + 2.0 * mu * lam,
        "structure_x_zero": psi_vals - eps_val,
    }
    n_lambda = float(np.max(np.abs(_axis_derivative(lam, p.ds, p.periodic))))
    # not n_lambda: a finer grid shrinks a difference quotient, not a spread
    spread, spread_tol = float(lam.max()) - float(lam.min()), rounding_floor(lam)
    constant = spread <= spread_tol

    linf, l2 = _norms(residuals)

    notes = [f"lam spread {spread:.3e} {'<=' if constant else '>'} "
             f"its rounding floor {spread_tol:.3e}"]
    satisfied = [k for k in ("structure", "structure_traced", "structure_x_zero")
                 if linf[k] <= tol]
    if satisfied:
        notes.append(f"satisfied normalizations: {', '.join(satisfied)}")
    is_soliton = constant and (
        linf["structure"] <= tol or linf["structure_x_zero"] <= tol
    )
    if constant:
        lam_bar = float(np.mean(lam))
        notes.append(
            "constant profile: X = 0 with eps = psi(lam) = "
            f"{float(psi_of_lambda(F, lam_bar)):.12g} is an alternative structure"
        )
    lam_span = np.linspace(float(np.min(lam)), float(np.max(lam)), 16)
    if float(np.min(np.abs(psi_prime(F, lam_span)))) <= tol:
        notes.append("psi' vanishes on the sampled range; the constancy "
                     "equivalence is not guaranteed here")

    return SolitonReport(
        linf, l2, eps_val, n_lambda,
        "soliton" if is_soliton else "not_soliton",
        tol, notes, mu, structure,
    )


@dataclass
class BiregularGrid:
    """Diagonal surface metric sampled in coordinates (x0 across, x1 along
    leaves).  The leaves are closed: the x1 axis is periodic, and the x0 axis
    is periodic when periodic0 is set."""

    x0: np.ndarray
    x1: np.ndarray
    g00: np.ndarray
    g11: np.ndarray
    periodic0: bool = False

    def __post_init__(self):
        self.x0 = np.asarray(self.x0, dtype=float)
        self.x1 = np.asarray(self.x1, dtype=float)
        self.g00 = np.asarray(self.g00, dtype=float)
        self.g11 = np.asarray(self.g11, dtype=float)
        if self.x0.size < 8 or self.x1.size < 8:
            raise ValueError("grid must be at least 8 x 8")
        shape = (self.x0.size, self.x1.size)
        if self.g00.shape != shape or self.g11.shape != shape:
            raise ValueError("metric arrays must have shape (len(x0), len(x1))")
        if np.any(self.g00 <= 0) or np.any(self.g11 <= 0):
            raise ValueError("metric must be positive")

    @property
    def d0(self) -> float:
        return float(_grid_steps(self.x0).mean())

    @classmethod
    def from_functions(
        cls,
        g00: Callable,
        g11: Callable,
        shape: tuple[int, int] = (64, 64),
        lengths: tuple[float, float] = (1.0, 1.0),
        periodic0: bool = False,
    ) -> "BiregularGrid":
        G0, G1 = shape
        L0, L1 = lengths
        x0 = _uniform_nodes(G0, L0, periodic0, 0.0)
        x1 = _uniform_nodes(G1, L1, True, 0.0)
        U, V = np.meshgrid(x0, x1, indexing="ij")
        ones = np.ones_like(U)
        return cls(
            x0, x1,
            np.asarray(g00(U, V), dtype=float) * ones,
            np.asarray(g11(U, V), dtype=float) * ones,
            periodic0,
        )


def biregular_normal_curvature(g: BiregularGrid) -> np.ndarray:
    """Geodesic curvature of the leaves: -(log g11)_{,0} / (2 sqrt(g00))."""
    dlog = _axis_derivative(np.log(g.g11), g.d0, g.periodic0)
    return -0.5 * dlog / np.sqrt(g.g00)


def check_biregular_surface(
    g: BiregularGrid,
    F: FlowFunctional,
    eps: float | str = "auto",
) -> SolitonReport:
    """Residuals of the surface soliton system in biregular coordinates.

    The field is X = 0.  The structure equation psi(lam) - eps = 2 (X^1)_{,1}
    g11 + X^0 g11_{,0} + X^1 g11_{,1} then reads R1 = psi(lam) - eps = 0, and
    the constraints that X preserve the foliation and the unit normal,
    (X^0)_{,1} = 0, (X^1)_{,0} = 0 and (X^0)_{,0} = -X(log g00)/2, hold
    identically.
    R1 is judged against the rounding floor of psi(lam), eps and psi' lam,
    plus that of log g11 carried through psi' (lam differences log g11); the
    verdict is degenerate when the latter exceeds 1/ROUNDING_ULPS of the terms.
    """
    lam = biregular_normal_curvature(g)

    psi_vals = np.asarray(psi_of_lambda(F, lam))
    if eps == "auto":
        weights = np.sqrt(g.g11)
        eps_val = float(np.sum(psi_vals * weights) / np.sum(weights))
    else:
        eps_val = float(eps)

    r1 = psi_vals - eps_val
    if not np.all(np.isfinite(r1)):
        return SolitonReport(
            {}, {}, eps_val, None, "degenerate", math.nan, ["non-finite residuals"],
            lam=lam,
        )
    # lam differences log g11, which carries a unit of the data's rounding
    # wherever it changes (lam != 0); psi' carries that over 2 d0 into R1
    slope = np.abs(psi_prime(F, lam))
    terms = max(float(np.max(np.abs(t))) for t in (psi_vals, eps_val, slope * lam))
    blur = (float(np.max(slope))
            * rounding_floor(np.where(lam == 0.0, 0.0, 1.0 + np.abs(np.log(g.g11))))
            / (2.0 * g.d0 * math.sqrt(np.min(g.g00))))
    tol = rounding_floor(terms) + blur
    linf, l2 = _norms({"R1_structure": r1})
    verdict = "soliton" if linf["R1_structure"] <= tol else "not_soliton"
    notes = [f"eps policy: {'leaf average of psi(lam)' if eps == 'auto' else 'given'}"]
    if blur * ROUNDING_ULPS > terms:  # a floor this near the terms decides nothing
        verdict = "degenerate"
        notes.append(f"lam is not resolved at spacing d0 = {g.d0:.3g}: its rounding "
                     f"moves psi by up to {blur:.3g}, against terms of {terms:.3g}")
    return SolitonReport(linf, l2, eps_val, None, verdict, tol, notes, lam=lam)


@dataclass(frozen=True)
class AdmissibleSpectrum:
    """One constant-curvature spectrum compatible with the soliton algebra."""

    roots: tuple[float, ...]
    multiplicities: tuple[int, ...]
    kind: str  # two_root | umbilical | single_root


@dataclass(frozen=True)
class SpectrumClassification:
    n: int
    tau1: float
    r: float
    discriminant: float
    spectra: tuple[AdmissibleSpectrum, ...]

    @property
    def cpc(self) -> bool:
        """Admissible spectra force constant principal curvatures."""
        return bool(self.spectra)


def classify_ricci_soliton(n: int, tau1: float, r: float) -> SpectrumClassification:
    """Admissible principal-curvature spectra of an extrinsic Ricci soliton.

    Every curvature solves k(k - tau1) = r.  With a negative discriminant
    tau1^2 + 4r there is no real spectrum.  Otherwise the candidates are the
    umbilical one (all curvatures equal, possible only when n tau1/n sums
    back to tau1, i.e. tau1/n is itself a root) and genuine two-root splits,
    whose multiplicity difference n2 - n1 = (n-2) tau1 / sqrt(disc) must be
    an integer of the right parity.
    """
    if n < 3:
        raise ValueError("n: classification requires leaf dimension n >= 3")
    tau1 = float(tau1)
    r = float(r)
    try:
        disc = tau1 ** 2 + 4.0 * r
    except OverflowError:  # float ** raises where float * gives inf
        disc = math.inf
    if not math.isfinite(disc):
        name = "tau1" if math.isfinite(4.0 * r) else "r"
        raise ValueError(f"{name}: the discriminant tau1^2 + 4r = {disc} is not finite")
    spectra: list[AdmissibleSpectrum] = []
    scale = max(1.0, abs(tau1))

    if disc < 0:
        pass
    elif disc == 0.0:
        root = tau1 / 2.0
        if abs(n * root - tau1) <= INTEGER_TOL * scale:
            spectra.append(AdmissibleSpectrum((root,), (n,), "single_root"))
    else:
        sq = math.sqrt(disc)
        root_hi = (tau1 + sq) / 2.0
        root_lo = (tau1 - sq) / 2.0
        d = (n - 2) * tau1 / sq
        d_round = round(d)
        if abs(d - d_round) <= INTEGER_TOL and (n + d_round) % 2 == 0:
            n2 = (n + d_round) // 2
            n1 = n - n2
            if 1 <= n2 <= n - 1:
                spectra.append(
                    AdmissibleSpectrum((root_hi, root_lo), (n1, n2), "two_root")
                )
        for root in (root_hi, root_lo):
            if abs(n * root - tau1) <= INTEGER_TOL * scale:
                spectra.append(AdmissibleSpectrum((root,), (n,), "umbilical"))

    for sp in spectra:
        total = sum(m * v for v, m in zip(sp.roots, sp.multiplicities))
        check_scale = max(1.0, abs(tau1), math.sqrt(abs(disc)))
        if abs(total - tau1) > 1e-10 * check_scale * 10:
            raise AssertionError(
                f"classified spectrum fails sum rule: {total} vs {tau1}"
            )
        for root in sp.roots:
            if abs(root * (root - tau1) - r) > 1e-10 * max(1.0, abs(r), root ** 2) * 10:
                raise AssertionError("classified root fails the quadratic relation")

    return SpectrumClassification(n, tau1, r, disc, tuple(spectra))

"""Named functionals and initial-data families exposed through the CLI.

The catalog is deliberately closed: each entry is a hand-written builder, not
an expression parser.  Adding a flow functional means adding a builder here.
A flow functional's builder returns its monomial table, the one definition
from which both its f_j callbacks and psi's coefficients in lam are derived.

The parameters of every named entry sit in one table (PARAMS: key -> cast,
default), which is also the CLI's config table for the `functional` and
`initial` blocks.  Values are read through the strict casts defined here,
which the CLI uses for every config value as well: no cast may be lossy or
accept a value of the wrong JSON type.
"""

from __future__ import annotations

import math
import numbers
from typing import Callable

import numpy as np

from .sym_curvature import FlowFunctional


def is_number(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def as_int(value) -> int:
    """An integral JSON number as int; bools and fractional values are refused."""
    if is_number(value) and (isinstance(value, int) or float(value).is_integer()):
        return int(value)
    raise ValueError(value)


def as_float(value) -> float:
    """A JSON number as float; bools, strings and null are refused."""
    if is_number(value):
        return float(value)
    raise ValueError(value)


def as_finite(value) -> float:
    """finite number"""
    v = as_float(value)
    if not math.isfinite(v):
        raise ValueError(value)
    return v


def as_bool(value) -> bool:
    """A JSON true/false; strings and numbers are refused."""
    if isinstance(value, bool):
        return value
    raise ValueError(value)


def as_str(value) -> str:
    """A JSON string; numbers, null and the rest are refused."""
    if isinstance(value, str):
        return value
    raise ValueError(value)


# casts that must not be lossy: int(64.9) truncates, float(True) is 1.0,
# bool("false") is True and str(5) is "5"
STRICT_CASTS = {int: as_int, float: as_float, bool: as_bool, str: as_str}


def expects(cast) -> str:
    """What a cast accepts, for error messages: a builtin's name, else the
    custom cast's docstring."""
    return cast.__name__ if cast in STRICT_CASTS else cast.__doc__


def strict_cast(key: str, value, cast):
    """value through its strict cast (other casts as given); errors name key."""
    try:
        return STRICT_CASTS.get(cast, cast)(value)
    except (TypeError, ValueError, OverflowError):  # an int beyond float range
        raise ValueError(f"{key}: expected {expects(cast)}, got {value!r}") from None


def read_params(table: dict, spec: dict) -> dict:
    """spec's value for each key -> (cast, default) of table, strictly cast;
    an absent or null key takes its default."""
    return {key: default if spec.get(key) is None else strict_cast(key, spec[key], cast)
            for key, (cast, default) in table.items()}


# parameters of each named functional and initial-data kind, by config block:
# key -> (cast, default)
PARAMS = {
    "functional": {
        "b1": {}, "tau1_minus_c": {"c": (as_finite, 0.0)}, "ext_ricci": {},
        "umbilical_square": {},
        "affine": {"a": (as_finite, 1.0), "b": (as_finite, 0.0)},
    },
    "initial": {
        "constant": {"value": (as_finite, 0.0)},
        "sine": {"amplitude": (as_finite, 1.0), "mean": (as_finite, 0.0),
                 "periods": (int, 1)},
        "random_fourier": {"amplitude": (as_finite, 1.0), "modes": (int, 3),
                           "seed": (int, 0)},
    },
}


def _mono(n: int, *ks: int) -> tuple[int, ...]:
    """Exponents (e_1..e_n) of the monomial tau_k1 tau_k2 ... (none: 1)."""
    e = [0] * n
    for k in ks:
        e[k - 1] += 1
    return tuple(e)


def _polynomial(terms: dict) -> Callable[[np.ndarray], np.ndarray]:
    """f(tau) = sum of coef * prod_k tau_k**e_k over terms {(e_1..e_n): coef},
    summed in table order; no terms: f = 0."""
    monomials = [(float(coef), [(k, e) for k, e in enumerate(exps) if e])
                 for exps, coef in terms.items()]

    def f(tau):
        out = np.zeros(tau.shape[:-1])
        for i, (coef, factors) in enumerate(monomials):
            term = np.full(tau.shape[:-1], coef)
            for k, e in factors:
                term = term * tau[..., k] ** e
            out = term if i == 0 else out + term  # not 0 + term: keeps -0.0
        return out

    return f


def _psi_coeffs(n: int, table: dict) -> tuple[float, ...]:
    """psi's coefficients in lam, lowest power first.  On an umbilical
    spectrum tau_k = n lam^k, so coef * prod tau_k^e_k * lam^j of f_j becomes
    coef n^(sum e_k) lam^(j + sum k e_k)."""
    psi: dict[int, float] = {}
    for j, terms in table.items():
        for exps, coef in terms.items():
            power = j + sum(k * e for k, e in enumerate(exps, start=1))
            psi[power] = psi.get(power, 0.0) + coef * n ** sum(exps)
    return tuple(psi.get(p, 0.0) for p in range(max(psi, default=0) + 1))


# Each catalog functional as its monomial table {j: {(e_1..e_n): coef}}:
# f_j = sum of coef * prod_k tau_k**e_k over table[j], absent j: f_j = 0.
def _build_b1(n: int) -> dict:
    return {0: {_mono(1, 1): 1}} if n == 1 else {1: {_mono(n): 1}}


def _build_tau1_minus_c(n: int, c: float) -> dict:
    return {0: {_mono(n, 1): 1, _mono(n): -c}}


def _build_ext_ricci(n: int) -> dict:
    if n < 2:
        raise ValueError("ext_ricci needs leaf dimension n >= 2")
    if n == 2:
        return {0: {_mono(2, 2): 1, _mono(2, 1, 1): -1}}  # tau_2 - tau_1^2
    return {1: {_mono(n, 1): -2}, 2: {_mono(n): 2}}


def _build_umbilical_square(n: int) -> dict:
    if n == 1:
        return {0: {_mono(1, 1, 1): 1}}
    return {0: {_mono(n, 2): 1.0 / n}}


def _build_affine(n: int, a: float, b: float) -> dict:
    if a == 0.0 and b == 0.0:
        raise ValueError("affine functional needs a != 0 or b != 0")
    return {0: {_mono(n, 1): a / n, _mono(n): b}}


FUNCTIONALS: dict[str, Callable[..., dict]] = {
    "b1": _build_b1,                        # psi(lam) = lam
    "tau1_minus_c": _build_tau1_minus_c,    # psi(lam) = n lam - c
    "ext_ricci": _build_ext_ricci,          # psi(lam) = (2 - 2n) lam^2
    "umbilical_square": _build_umbilical_square,  # psi(lam) = lam^2
    "affine": _build_affine,                # psi(lam) = a lam + b
}


def make_functional(name: str, n: int, params: dict | None = None) -> FlowFunctional:
    if name not in FUNCTIONALS:
        raise ValueError(
            f"unknown functional {name!r}; choose from {sorted(FUNCTIONALS)}"
        )
    if n < 1:
        raise ValueError("leaf dimension n must be >= 1")
    table = FUNCTIONALS[name](n, **read_params(PARAMS["functional"][name], params or {}))
    f = tuple(_polynomial(table.get(j, {})) for j in range(n))
    return FlowFunctional(n, f, _psi_coeffs(n, table))


def make_initial(spec: dict, length: float) -> Callable[[np.ndarray], np.ndarray]:
    """Initial normal-curvature profile lam0(s) from its named description."""
    kind = spec.get("kind")
    if kind not in PARAMS["initial"]:
        raise ValueError(
            f"unknown initial-data kind {kind!r}; choose from {list(PARAMS['initial'])}"
        )
    p = read_params(PARAMS["initial"][kind], spec)
    if kind == "constant":
        return lambda s: p["value"] + 0.0 * np.asarray(s)
    if kind == "sine":
        return lambda s: p["mean"] + p["amplitude"] * np.sin(
            2.0 * np.pi * p["periods"] * np.asarray(s) / length
        )
    amplitude, modes = p["amplitude"], p["modes"]
    rng = np.random.default_rng(p["seed"])
    a = rng.normal(size=modes)
    b = rng.normal(size=modes)
    norm = np.sqrt(np.sum(a ** 2 + b ** 2)) or 1.0

    def lam0(s):
        s = np.asarray(s)
        out = np.zeros_like(s, dtype=float)
        for m in range(modes):
            phase = 2.0 * np.pi * (m + 1) * s / length
            out += a[m] * np.cos(phase) + b[m] * np.sin(phase)
        return amplitude * out / norm

    return lam0


# name -> (g00, g11, periodic0) of the named surface metrics
BIREGULAR_METRICS = {
    "flat": (lambda u, v: 1.0 + 0 * u, lambda u, v: 1.0 + 0 * u, True),
    "exp_x0": (lambda u, v: 1.0 + 0 * u, lambda u, v: np.exp(-2.0 * u), False),
}

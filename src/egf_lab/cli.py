"""Scenario runner: JSON config in, CSV tables and a JSON report out.

Every scenario is driven by one JSON document, parsed once through the
scenario's table of accepted keys (TABLES) before anything is built.
Validation failures (unknown keys and oversize counts too) exit with code 2
and name the offending key path; numerical blow-up exits with 3; resonance or
characteristic crossing exits with 4; any other exception is an internal
error, exits with 5 and keeps its traceback in the report, which is written
in every case.  CSV output is deterministic for a fixed config (17
significant digits, LF endings): two runs of one config are byte-identical.
"""

from __future__ import annotations

import argparse
import difflib
import json
import math
import os
import sys
import time
from dataclasses import asdict
from pathlib import Path
from typing import Callable, Container, NamedTuple

import numpy as np

from . import __version__
from .catalog import (
    BIREGULAR_METRICS,
    PARAMS,
    STRICT_CASTS,
    as_finite,
    as_float,
    expects,
    make_functional,
    make_initial,
)
from .cohomology_solver import (
    MAX_GRID_POINTS,
    ResonanceError,
    TorusCohomologyProblem,
    amplification_report,
    solve_linear_flow,
)
from .flow_engine import (
    BOUNDARIES,
    INTEGRATORS,
    SCHEMES,
    BoundedProgressError,
    FlowBlowUpError,
    ShockError,
    StepControl,
    TauField,
    UmbilicalProfile,
    characteristics_oracle,
    evolve_tau,
    evolve_umbilical,
)
from .revolution_geometry import (
    RevolutionProfile,
    closed_form_gamma,
    cone_flow_check,
    integrate_constant_lambda,
    profile_metric,
    sectional_curvature_formula,
    sectional_curvature_profile,
)
from .soliton_lab import (
    BiregularGrid,
    biregular_normal_curvature,
    check_biregular_surface,
    check_normal_soliton,
    classify_ricci_soliton,
    mu_of_lambda,
)
from .sym_curvature import psi_of_lambda

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_BLOWUP = 3
EXIT_UNSOLVABLE = 4
EXIT_INTERNAL = 5

# report key used as the refinement-error metric by `sweep --axis ds`
SWEEP_ERROR_KEY = {
    "umbilical-flow": "oracle_sup_error",
    "tau-flow": "umbilicity_defect",
    "cone-check": "sup_err_lambda",
}


class ConfigError(ValueError):
    """Validation failure; the message starts with the offending key path."""


# rows formatted by one `%` per chunk; bounds the size of the formatted string
_CHUNK_ROWS = 4096


def _lines(columns, sep: str) -> str:
    """One line per row of equal-length 1-D columns (see _write_rows)."""
    formats = ["%s" if c.dtype == object
               else "%d" if np.issubdtype(c.dtype, np.integer) else "%.17g"
               for c in columns]
    rows, width = len(columns[0]), len(columns)
    values = [None] * (rows * width)  # the columns interleaved row by row
    for j, c in enumerate(columns):
        values[j::width] = c.tolist()
    return (sep.join(formats) + "\n") * rows % tuple(values)


def _split(lines: str) -> np.ndarray:
    """A text column (object array of str) with one row per line of lines."""
    return np.array(lines.split("\n")[:-1], dtype=object)


def _text(values) -> np.ndarray:
    """A text column of each value's ``%.17g`` string.

    A key repeated over many rows is formatted once here and written as text.
    """
    return _split(_lines([np.asarray(values, dtype=float).ravel()], ""))


def _write_rows(fh, columns, sep: str, tee=None) -> None:
    """Write a sequence of 1-D columns (``table.T`` of a 2-D array), one line
    per row, in chunks of _CHUNK_ROWS rows.

    Floats are written as ``%.17g`` (the same bytes as ``format(v, ".17g")``,
    non-finite values included); integer-typed columns as ``%d``; text columns
    (object arrays of str, see _text) verbatim.
    With ``tee`` a file, the first two columns also go there, space-separated;
    each chunk of those lines, with ``sep`` for the space, is then one text
    column of ``fh``, so those values are formatted once for both files.
    """
    columns = [np.asarray(c) for c in columns]
    for start in range(0, len(columns[0]), _CHUNK_ROWS):
        chunk = [c[start:start + _CHUNK_ROWS] for c in columns]
        if tee is not None:
            lines = _lines(chunk[:2], " ")
            tee.write(lines)
            chunk[:2] = [_split(lines.replace(" ", sep))]
        fh.write(_lines(chunk, sep))


def write_csv(path: Path, header: list[str], columns, tee: Path | None = None) -> None:
    """Header line plus one CSV line per row of ``columns`` (see _write_rows);
    with ``tee`` a path, the first two columns also go there, space-separated
    and without a header (gnuplot's data format)."""
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        if tee is None:
            _write_rows(fh, columns, ",")
            return
        with open(tee, "w", newline="") as tee_fh:
            _write_rows(fh, columns, ",", tee_fh)


def _jsonable(obj):
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        v = float(obj)
        return v if math.isfinite(v) else repr(v)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


def _write_json(path: Path, obj) -> None:
    """obj as one line of sorted-key JSON (without indent, the C encoder)."""
    with open(path, "w", newline="") as fh:
        fh.write(json.dumps(_jsonable(obj), sort_keys=True) + "\n")


# ------------------------------------------------------------ config table

MISSING = object()  # an absent key; as a default: a required key
CAP = MAX_GRID_POINTS  # one cap for every count that sizes an allocation


class Key(NamedTuple):
    """One accepted config key: strict cast (a custom cast's docstring says
    what it expects), default, and allowed values: choices, a range, or for a
    tag a dict from each value to the keys it adds.  `label` names it in errors."""

    cast: Callable
    default: object = MISSING
    allowed: Container | None = None
    label: str = ""


def number_or_auto(value):
    """number or 'auto'"""
    return value if value == "auto" else as_float(value)


def direction(value) -> list[float]:
    """2 or 3 finite numbers"""
    v = [as_finite(c) for c in value] if isinstance(value, list) else []
    if len(v) not in (2, 3):
        raise ValueError(value)
    return v


def positive(value) -> float:
    """positive finite number"""
    v = as_finite(value)
    if not v > 0:
        raise ValueError(value)
    return v


def _mode_table(rows: list):
    """rows as one float array if each is a list [u..., re, im] of one width
    >= 3 of finite JSON numbers with integral |u| < 2**53; else None."""
    if all(type(row) is list for row in rows) and (
        {type(x) for row in rows for x in row} <= {int, float}
    ):
        try:
            table = np.array(rows, dtype=float)
            u = table[:, :-2]
            if (u.shape[1] and np.isfinite(table).all() and (u == np.rint(u)).all()
                    and (np.abs(u) < 2.0 ** 53).all()):
                return table
        except (ValueError, OverflowError):  # ragged, or ints beyond float range
            pass
    return None


def _modes_from_cfg(rows) -> np.ndarray:
    """h.modes rows [u1, ..., ud, re, im], checked all at once into one float
    array (no rows: h = 0); else the first bad row is named."""
    if not isinstance(rows, list):
        raise ConfigError(f"h.modes: expected a list of rows, got {rows!r}")
    table = _mode_table(rows) if rows else np.empty((0, 0))
    if table is None:
        idx = next(i for i, row in enumerate(rows)
                   if _mode_table([row]) is None or len(row) != len(rows[0]))
        raise ConfigError(
            f"h.modes[{idx}]: expected a list [u1, ..., re, im] as wide as the first "
            f"row, of finite numbers with integer |u| < 2**53; got {rows[idx]!r}"
        )
    return table


def _tag(block: str) -> dict:
    """A catalog block's variants, its keys named in errors as the catalog does."""
    return {name: {f"{block}.{k}": Key(cast, default, label=f"{block}: {k}")
                   for k, (cast, default) in params.items()}
            for name, params in PARAMS[block].items()}


def _size(default=MISSING, lo=8) -> Key:
    return Key(int, default, range(lo, CAP + 1))


FUNCTIONAL = {"functional.name": Key(str, allowed=_tag("functional"))}
PROFILE = {  # the sampled initial profile of the flow and soliton scenarios
    **FUNCTIONAL, "initial.kind": Key(str, allowed=_tag("initial")),
    "numerics.length": Key(positive, 1.0),
}
STEPPING = {  # StepControl's fields after t_end, with its defaults
    "numerics.cfl": Key(float, StepControl.cfl),
    "numerics.scheme": Key(str, StepControl.scheme, SCHEMES),
    "numerics.max_steps": _size(StepControl.max_steps, lo=1),
    "numerics.integrator": Key(str, StepControl.integrator, INTEGRATORS),
}
FLOW = {**PROFILE, "numerics.grid": _size(), "numerics.t_end": Key(float), **STEPPING,
        "numerics.boundary": Key(str, "periodic", BOUNDARIES)}
EPS = Key(number_or_auto, "auto")
CURVES = {
    "cone": {"curve.beta": Key(float), "curve.x0_min": Key(float, 1.0),
             "curve.x0_max": Key(float, 5.0), "numerics.grid": _size(256)},
    "constant_lambda": {"curve.x1_min": Key(float, 0.5),
                        "curve.x1_max": Key(float, 10.0),
                        "curve.step": Key(float, 1e-3), "curve.C": Key(float, 0.0)},
}

# scenario -> every key path it accepts
TABLES = {
    "umbilical-flow": {"n": _size(2, lo=1), **FLOW,
                       "output.snapshot_stride": Key(int, 10)},
    "tau-flow": {"n": _size(lo=1), **FLOW},
    "soliton-check": {"n": _size(2, lo=1), **PROFILE, "numerics.grid": _size(256),
                      "eps": EPS},
    "biregular-check": {
        "n": _size(1, lo=1), **FUNCTIONAL,
        "metric.name": Key(str, allowed=tuple(BIREGULAR_METRICS)),
        "numerics.grid0": _size(64), "numerics.grid1": _size(64),
        "numerics.length0": Key(positive, 1.0), "numerics.length1": Key(positive, 1.0),
        "eps": EPS,
    },
    "ricci-classify": {"n": Key(int), "tau1": Key(float), "r": Key(float)},
    "cohomology": {"v": Key(direction), "K": Key(int), "s": Key(float, 1.0),
                   "h.modes": Key(_modes_from_cfg, None), "h.grid_csv": Key(str, None)},
    "revolution": {"curve.kind": Key(str, allowed=CURVES),
                   "output.gnuplot": Key(bool, False)},
    "cone-check": {"beta": Key(float, math.pi / 6), "numerics.t_end": Key(float, 1.0),
                   **STEPPING, "numerics.grid": _size(800),
                   "domain_min": Key(float, 2.0), "domain_max": Key(float, 6.0)},
}
SCENARIO = Key(str, allowed=tuple(TABLES))
# (lower, upper) key pairs that bound one interval: upper must exceed lower
INTERVALS = (("domain_min", "domain_max"), ("curve.x0_min", "curve.x0_max"),
             ("curve.x1_min", "curve.x1_max"))
# most members one `sweep` command runs (one scenario run each)
MAX_SWEEP_POINTS = 64
# bytes of (t, lam, phi) snapshots an umbilical flow may buffer for
# timeseries.csv, counted as 16 per node plus SNAPSHOT_OVERHEAD per snapshot
SNAPSHOT_BUDGET = 2 ** 28
# bytes a snapshot holds beside its lam and phi data: its tuple, t, the two
# array headers and its list slot (a stride-1 march grows by 380-394 bytes
# per snapshot beyond the data, measured with tracemalloc on CPython 3.11)
SNAPSHOT_OVERHEAD = 400


def parse_config(config) -> dict:
    """{key path: value} for every key the config's scenario accepts, with
    defaults filled in.  A malformed or unknown key, an empty interval, or a
    count beyond the size cap, raises ConfigError; nothing is read from disk
    or built."""
    if not isinstance(config, dict):
        raise ConfigError("config: expected a JSON object")
    table = accepted_keys(config)
    _check_unknown(config, "", table)
    values = {path: _read(config, path, key) for path, key in table.items()}
    for lo, hi in INTERVALS:
        if lo in values and not values[hi] > values[lo]:
            raise ConfigError(f"{hi}: must exceed {lo} ({values[lo]!r}), "
                              f"got {values[hi]!r}")
    _check_sizes(values)
    return values


def accepted_keys(config: dict) -> dict:
    """{path: Key} of the config's scenario, with the keys its tags select."""
    table = {"scenario": SCENARIO, **TABLES[_read(config, "scenario", SCENARIO)]}
    for path, key in list(table.items()):
        if isinstance(key.allowed, dict):  # a tag: its value's keys join the table
            table.update(key.allowed[_read(config, path, key)])
    return table


def _read(config: dict, path: str, key: Key):
    node = config
    for part in path.split("."):
        node = node.get(part, MISSING) if isinstance(node, dict) else MISSING
    label = key.label or path
    if node is MISSING:
        if key.default is MISSING:
            raise ConfigError(f"{label}: required")
        return key.default
    try:
        value = STRICT_CASTS.get(key.cast, key.cast)(node)
    except ConfigError:  # names its own row
        raise
    except (TypeError, ValueError, OverflowError):  # an int beyond float range
        raise ConfigError(f"{label}: expected {expects(key.cast)}, "
                          f"got {node!r}") from None
    if key.allowed is not None and value not in key.allowed:
        if isinstance(key.allowed, range):
            raise ConfigError(f"{label}: must lie in [{key.allowed.start}, "
                              f"{key.allowed[-1]}], got {value!r}")
        raise ConfigError(f"{label}: must be one of {sorted(key.allowed)}")
    return value


def _check_unknown(node: dict, prefix: str, table: dict) -> None:
    """Each key of the config is a table path or a block holding some."""
    for name, value in node.items():
        path = f"{prefix}{name}"
        if "." not in str(name):
            if path in table:
                continue
            if any(p.startswith(path + ".") for p in table):
                if not isinstance(value, dict):
                    raise ConfigError(f"{path}: expected an object, got {value!r}")
                _check_unknown(value, path + ".", table)
                continue
        siblings = {p[len(prefix):].split(".")[0]
                    for p in table if p.startswith(prefix)}
        near = {s.lower(): s for s in siblings}
        match = difflib.get_close_matches(str(name).lower(), near, n=1)
        hint = (f"did you mean {prefix}{near[match[0]]}?" if match
                else f"expected one of {sorted(siblings)}")
        raise ConfigError(f"{path}: unknown key; {hint}")


def _check_sizes(cfg: dict) -> None:
    """Counts that size an allocation or a loop: (grid, n) power sums, 2-D
    grids, Fourier modes, revolution steps; each at most the cap."""
    n = ("n",) if "functional.name" in cfg else ()
    counts = {" × ".join(k): math.prod(cfg[p] for p in k) for k in (
        ("numerics.grid", *n), ("numerics.grid0", "numerics.grid1", *n),
        ("initial.modes",)) if k[0] in cfg}
    if cfg.get("curve.kind") == "constant_lambda" and not cfg["curve.step"] <= 0:
        counts["curve.step: (x1_max - x1_min) / step"] = (
            cfg["curve.x1_max"] - cfg["curve.x1_min"]) / cfg["curve.step"]
    for label, count in counts.items():
        if not count <= CAP:
            raise ConfigError(f"{label} = {count:g} exceeds the size cap {CAP}")


def _build(prefix: str, factory, *args, **kwargs):
    """factory(...), a ValueError becoming a ConfigError under prefix."""
    try:
        return factory(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"{prefix}{exc}") from None


def _block(cfg: dict, block: str) -> dict:
    return {k[len(block) + 1:]: v for k, v in cfg.items() if k.startswith(block + ".")}


def _functional(cfg: dict):
    return _build("functional: ", make_functional, cfg["functional.name"], cfg["n"],
                  _block(cfg, "functional"))


def _initial(cfg: dict):
    return _build("initial: ", make_initial, _block(cfg, "initial"),
                  cfg["numerics.length"])


def _control(cfg: dict) -> StepControl:  # its messages start with the field
    return _build("numerics.", StepControl, cfg["numerics.t_end"],
                  **{k.split(".")[1]: cfg[k] for k in STEPPING})


# --------------------------------------------------------------- scenarios


def run_umbilical_flow(cfg: dict, outdir: Path):
    F, ctl, lam0 = _functional(cfg), _control(cfg), _initial(cfg)
    length, boundary = cfg["numerics.length"], cfg["numerics.boundary"]
    p0 = UmbilicalProfile.from_function(lam0, cfg["numerics.grid"], length, boundary)
    snaps: list[tuple[float, np.ndarray, np.ndarray]] = []  # (t, lam, phi)
    snap_bytes = 16 * p0.s.size + SNAPSHOT_OVERHEAD

    def on_snapshot(prof: UmbilicalProfile):
        if (len(snaps) + 1) * snap_bytes > SNAPSHOT_BUDGET:
            raise ConfigError(
                f"output.snapshot_stride: snapshot {len(snaps) + 1} (t = {prof.t:.6g}) "
                f"would exceed the {SNAPSHOT_BUDGET}-byte buffer of {snap_bytes} "
                f"bytes each; raise the stride")
        snaps.append((prof.t, prof.lam, prof.phi))  # a step never writes into them

    stride = max(1, cfg["output.snapshot_stride"])
    final = evolve_umbilical(p0, F, ctl, record_every=stride, on_snapshot=on_snapshot)

    results = {"final_time": final.t, "steps_recorded": len(snaps),
               "lambda_min": float(np.min(final.lam)),
               "lambda_max": float(np.max(final.lam)), "oracle_sup_error": None}
    if boundary == "periodic":
        try:
            exact = characteristics_oracle(lam0, F, final.t, final.s, length)
            results["oracle_sup_error"] = float(np.max(np.abs(final.lam - exact)))
        except ShockError as exc:
            results["oracle_note"] = str(exc)
    files = [outdir / "timeseries.csv"]
    t, lam, phi = zip(*snaps)
    write_csv(files[0], ["t", "s", "lambda", "phi"],
              (np.repeat(_text(t), p0.s.size), np.tile(_text(p0.s), len(t)),
               np.concatenate(lam), np.concatenate(phi)))
    return results, files


def run_tau_flow(cfg: dict, outdir: Path):
    n = cfg["n"]
    F, ctl, lam0 = _functional(cfg), _control(cfg), _initial(cfg)
    grid, length = cfg["numerics.grid"], cfg["numerics.length"]
    boundary = cfg["numerics.boundary"]

    fld = TauField.from_umbilical(lam0, n, grid, length, boundary)
    out = evolve_tau(fld, F, ctl)

    scalar = evolve_umbilical(
        UmbilicalProfile.from_function(lam0, grid, length, boundary), F, ctl
    )
    results = {
        "final_time": out.t,
        "umbilicity_defect": float(
            np.max(np.abs(out.tau[:, 1] - out.tau[:, 0] ** 2 / n))
        ) if n >= 2 else 0.0,
        "scalar_match": float(np.max(np.abs(out.tau[:, 0] / n - scalar.lam))),
    }
    header = ["s"] + [f"tau{j}" for j in range(1, n + 1)]
    files = [outdir / "tau_final.csv"]
    write_csv(files[0], header, (out.s, *out.tau.T))
    return results, files


def run_soliton_check(cfg: dict, outdir: Path):
    F, lam0 = _functional(cfg), _initial(cfg)
    p = UmbilicalProfile.from_function(lam0, cfg["numerics.grid"],
                                       cfg["numerics.length"])
    rep = check_normal_soliton(p, F, cfg["eps"])

    mu = np.asarray(mu_of_lambda(F, p.lam))
    psi_vals = np.asarray(psi_of_lambda(F, p.lam))
    structure = psi_vals - rep.eps_used + (2.0 / F.n) * mu * p.lam
    files = [outdir / "residuals.csv"]
    write_csv(files[0], ["s", "lambda", "mu", "structure_residual"],
              (p.s, p.lam, mu, structure))
    return asdict(rep), files


def run_biregular_check(cfg: dict, outdir: Path):
    F = _functional(cfg)
    g00, g11, periodic0 = BIREGULAR_METRICS[cfg["metric.name"]]
    grid = BiregularGrid.from_functions(
        g00, g11, shape=(cfg["numerics.grid0"], cfg["numerics.grid1"]),
        lengths=(cfg["numerics.length0"], cfg["numerics.length1"]), periodic0=periodic0,
    )
    rep = check_biregular_surface(grid, F, cfg["eps"])

    lam = biregular_normal_curvature(grid)
    files = [outdir / "curvature.csv"]
    write_csv(files[0], ["x0", "x1", "lambda"],
              (np.repeat(_text(grid.x0), grid.x1.size),
               np.tile(_text(grid.x1), grid.x0.size), lam.ravel()))
    return {k: v for k, v in asdict(rep).items() if k != "n_lambda_norm"}, files


def run_ricci_classify(cfg: dict, outdir: Path):
    cls = _build("n: ", classify_ricci_soliton, cfg["n"], cfg["tau1"], cfg["r"])
    return {**asdict(cls), "cpc": cls.cpc}, []


def _grid_csv_modes(path: Path) -> np.ndarray:
    if not path.exists():
        raise ConfigError(f"h.grid_csv: file not found: {path}")
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    if data.ndim != 2 or data.shape[1] != 3:
        raise ConfigError("h.grid_csv: expected columns x, y, value")
    xs, xi = np.unique(data[:, 0], return_inverse=True)
    ys, yi = np.unique(data[:, 1], return_inverse=True)
    if xs.size * ys.size != data.shape[0]:
        raise ConfigError("h.grid_csv: grid is not complete/uniform")
    grid = np.full((xs.size, ys.size), np.nan)
    grid[xi, yi] = data[:, 2]
    if np.any(np.isnan(grid)):
        raise ConfigError("h.grid_csv: missing grid entries")
    return grid


def run_cohomology(cfg: dict, outdir: Path):
    modes, grid_csv = cfg["h.modes"], cfg["h.grid_csv"]
    if (modes is None) == (grid_csv is None):
        raise ConfigError("h: provide exactly one of h.modes or h.grid_csv")
    if modes is not None:
        build, h = TorusCohomologyProblem.from_modes, modes
    else:
        build, h = TorusCohomologyProblem.from_grid, _grid_csv_modes(Path(grid_csv))
    try:
        problem = build(cfg["v"], h, cfg["K"], cfg["s"])
    except ValueError as exc:  # errors about K and s name their key already
        named = str(exc).startswith(("K:", "s:"))
        raise ConfigError(str(exc) if named else f"h: {exc}") from None

    sol = solve_linear_flow(problem)
    shells = amplification_report(sol)

    files = [outdir / "solution_coeffs.csv", outdir / "amplification.csv"]
    header = [f"u{i + 1}" for i in range(problem.dim)] + ["re", "im"]
    modes, coeffs = sol.f_coeffs.arrays()
    write_csv(files[0], header, (*modes.T, coeffs.real, coeffs.imag))
    shell_fields = ["shell", "n_modes", "min_divisor", "max_amplification",
                    "margin_bound"]
    write_csv(files[1], shell_fields,
              [np.array([getattr(row, f) for row in shells]) for f in shell_fields])
    return {"eps": sol.eps, "margin": sol.margin, "residual": sol.residual,
            "max_imag": sol.max_imag, "soliton_field_scale": sol.soliton_field_scale,
            "modes_solved": len(sol.f_coeffs) - 1}, files


def run_revolution(cfg: dict, outdir: Path):
    kind = cfg["curve.kind"]
    if kind == "cone":
        x0_range = (cfg["curve.x0_min"], cfg["curve.x0_max"])
        profile = _build("curve: ", RevolutionProfile.cone, cfg["curve.beta"],
                         x0_range, cfg["numerics.grid"])
        K_formula = np.zeros_like  # a straight generatrix: flat plane sections
    else:
        C = cfg["curve.C"]
        profile = _build("curve: ", integrate_constant_lambda, cfg["curve.x1_min"],
                         cfg["curve.x1_max"], cfg["curve.step"], C)
        K_formula = sectional_curvature_formula

    g00, g11 = profile_metric(profile)
    cmp = sectional_curvature_profile(profile, K_formula)
    # normal curvature of the parallels under the sin(angle)/radius convention
    fp = profile.dx1 / profile.dx0
    lam = fp / (profile.x1 * np.sqrt(1.0 + fp ** 2))

    files = [outdir / "profile.csv"]
    gp = outdir / "profile.dat" if cfg["output.gnuplot"] else None
    write_csv(files[0], ["x0", "x1", "g00", "g11", "lambda", "K_formula", "K_oracle"],
              (profile.x0, profile.x1, g00, g11, lam, cmp.formula, cmp.oracle), tee=gp)
    files += [gp] if gp else []
    results = {
        "provenance": profile.provenance,
        "curvature_max_abs_diff": cmp.max_abs_diff,
        "lambda_range": [float(np.min(lam)), float(np.max(lam))],
        "notes": [
            "lambda uses the slope/radius convention; the constant-curvature "
            "generatrix normalizes it differently, see report fields"
        ],
    }
    if kind == "constant_lambda":
        results["closed_form_sup_error"] = float(
            np.max(np.abs(profile.x0 - closed_form_gamma(profile.x1, C)))
        )
    return results, files


def run_cone_check(cfg: dict, outdir: Path):
    rep = cone_flow_check(cfg["beta"], _control(cfg), cfg["numerics.grid"],
                          (cfg["domain_min"], cfg["domain_max"]))

    p = rep.final_profile
    files = [outdir / "cone_final.csv"]
    write_csv(files[0], ["s", "lambda_num", "lambda_exact", "phi_num", "phi_translated",
                         "phi_integral"],
              (p.s, p.lam, rep.lam_exact, p.phi, rep.phi_translated, rep.phi_integral))
    return rep.as_dict(), files


HANDLERS = {
    "umbilical-flow": run_umbilical_flow,
    "tau-flow": run_tau_flow,
    "soliton-check": run_soliton_check,
    "biregular-check": run_biregular_check,
    "ricci-classify": run_ricci_classify,
    "cohomology": run_cohomology,
    "revolution": run_revolution,
    "cone-check": run_cone_check,
}


# ------------------------------------------------------------------ driver


def run(config: dict, outdir: Path, quiet: bool = False) -> tuple[dict, int]:
    """Execute one scenario and write its report; returns (report, exit code)."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    started = time.perf_counter()
    versions = {"egf_lab": __version__, "numpy": np.__version__}
    report = {"config": config, "versions": versions}
    code = EXIT_OK
    scenario = "?"
    try:
        cfg = parse_config(config)
        scenario = cfg["scenario"]
        results, files = HANDLERS[scenario](cfg, outdir)
        report["results"] = _jsonable(results)
        report["outputs"] = [str(f) for f in files]
    except (FlowBlowUpError, BoundedProgressError) as exc:
        report["error"] = str(exc)
        code = EXIT_BLOWUP
    except (ResonanceError, ShockError) as exc:
        report["error"] = str(exc)
        code = EXIT_UNSOLVABLE
    except ValueError as exc:  # ConfigError and deep input validation
        report["error"] = str(exc)
        code = EXIT_CONFIG
    except Exception as exc:  # a defect: reported, not raised
        import traceback  # the error path only
        report["error"] = f"internal error: {type(exc).__name__}: {exc}"
        report["traceback"] = traceback.format_exc()
        code = EXIT_INTERNAL
    report["wall_time_s"] = time.perf_counter() - started
    report["exit_status"] = code

    report_path = outdir / "report.json"
    _write_json(report_path, report)
    if not quiet:
        target = report.get("error") or f"results in {report_path}"
        print(f"[egf-lab] {scenario}: {target}")
    return report, code


def _check_sweep(cfg: dict, axis: str) -> None:
    ds = axis == "ds"
    if not (cfg["scenario"] in SWEEP_ERROR_KEY if ds else "numerics.cfl" in cfg):
        lacks = "refinement error metric" if ds else "numerics.cfl"
        raise ConfigError(f"sweep: scenario {cfg['scenario']} has no {lacks}")


def sweep_configs(configs: list[dict], outdir: Path, axis: str) -> tuple[dict, int]:
    """Run several configs that differ only in numerics; aggregate the errors.

    For the ds axis the refinement errors are fitted with a log-log least
    squares line, giving the measured convergence order.  For the cfl axis
    the aggregate records which runs stayed stable and the largest stable
    value.  Every config is parsed before the first one runs.
    """
    if not configs:
        raise ConfigError("sweep: no configs to run")
    parsed = [parse_config(c) for c in configs]
    scenario = parsed[0]["scenario"]
    _check_sweep(parsed[0], axis)
    outside = [{k: v for k, v in cfg.items()
                if not k.startswith(("numerics.", "output."))} for cfg in parsed]
    for idx, other in enumerate(outside[1:], start=1):
        if other != outside[0]:
            raise ConfigError(f"sweep: config {idx} differs outside the numerics block")
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)

    rows = []
    reports = []
    for idx, (c, cfg) in enumerate(zip(configs, parsed)):
        report, code = run(c, outdir / f"run_{idx:03d}", quiet=True)
        reports.append(report)
        if axis == "ds":
            grid = cfg["numerics.grid"]
            length = (cfg["numerics.length"] if "numerics.length" in cfg
                      else cfg["domain_max"] - cfg["domain_min"])
            err = (report["results"].get(SWEEP_ERROR_KEY[scenario])
                   if code == EXIT_OK else None)
            rows.append((length / grid, grid, err, code))
        else:
            rows.append((cfg["numerics.cfl"], code))

    aggregate: dict = {"scenario": scenario, "axis": axis, "runs": len(configs)}
    if axis == "ds":
        ok = [(ds, err) for ds, _, err, code in rows
              if code == EXIT_OK and err is not None and err > 0]
        if len(ok) >= 2:  # log-log least squares: (log ds, log err) columns
            aggregate["fitted_order"] = float(np.polyfit(*np.log(ok).T, 1)[0])
        header = ["ds", "grid", "error", "exit_status"]
    else:
        stable = [cfl for cfl, code in rows if code == EXIT_OK]
        aggregate["largest_stable_cfl"] = max(stable) if stable else None
        header = ["cfl", "exit_status"]
    # dtype=float turns a missing error (None) into nan
    write_csv(outdir / "sweep.csv", header, [
        np.array(column, dtype=float if name == "error" else None)
        for name, column in zip(header, zip(*rows))])

    aggregate["reports"] = [
        {"exit_status": r["exit_status"], "error": r.get("error")} for r in reports
    ]
    _write_json(outdir / "sweep_report.json", aggregate)
    return aggregate, EXIT_OK


# --------------------------------------------------------------------- CLI


def _load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config: file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config: invalid JSON: {exc}") from None


def _outdir(args) -> Path:
    return Path(args.out or os.environ.get("EGF_LAB_OUT") or "egf-lab-out")


def _cmd_run(args) -> int:
    config = _load_config(args.config)
    if args.scenario and isinstance(config, dict) and (  # `cohomology` command
            config.setdefault("scenario", args.scenario) != args.scenario):
        raise ConfigError(f"scenario: must be {args.scenario}")
    _, code = run(config, _outdir(args), quiet=args.quiet)
    return code


def _cmd_sweep(args) -> int:
    base = _load_config(args.config)
    cfg = parse_config(base)
    _check_sweep(cfg, args.axis)
    if not 1 <= args.points <= MAX_SWEEP_POINTS:
        raise ConfigError(f"--points: must be in [1, {MAX_SWEEP_POINTS}], "
                          f"got {args.points}")
    if args.axis == "ds":
        grid = cfg["numerics.grid"]
        key, values = "grid", [grid * 2 ** i for i in range(args.points)]
    elif args.values:
        try:
            key, values = "cfl", [float(v) for v in args.values.split(",")]
        except ValueError:
            raise ConfigError(f"--values: expected comma-separated numbers, "
                              f"got {args.values!r}") from None
        if len(values) > MAX_SWEEP_POINTS:
            raise ConfigError(f"--values: at most {MAX_SWEEP_POINTS} values, "
                              f"got {len(values)}")
    else:
        key, values = "cfl", list(np.linspace(0.2, 1.0, args.points))
    variants = [json.loads(json.dumps(base)) for _ in values]
    for c, value in zip(variants, values):
        c.setdefault("numerics", {})[key] = value
    aggregate, code = sweep_configs(variants, _outdir(args), args.axis)
    if not args.quiet:
        print(json.dumps(_jsonable(aggregate), indent=2, sort_keys=True))
    return code


def _cmd_classify(args) -> int:
    config = {"scenario": "ricci-classify", "n": args.n, "tau1": args.tau1, "r": args.r}
    report, code = run(config, _outdir(args), quiet=True)
    if not args.quiet:
        print(json.dumps(report.get("results", report.get("error")), indent=2,
                         sort_keys=True))
    return code


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="egf-lab", description=(
        "numerical laboratory for leafwise extrinsic geometric flows"))
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute one scenario config")
    p_run.add_argument("config")
    p_run.set_defaults(func=_cmd_run, scenario=None)

    p_sweep = sub.add_parser("sweep", help="refinement or stability sweep")
    p_sweep.add_argument("config")
    p_sweep.add_argument("--axis", choices=("ds", "cfl"), default="ds")
    p_sweep.add_argument("--points", type=int, default=4)
    p_sweep.add_argument("--values", help="comma-separated cfl values")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_cls = sub.add_parser("classify", help="extrinsic Ricci soliton spectra")
    p_cls.add_argument("--n", type=int, required=True)
    p_cls.add_argument("--tau1", type=float, required=True)
    p_cls.add_argument("--r", type=float, required=True)
    p_cls.set_defaults(func=_cmd_classify)

    p_coh = sub.add_parser("cohomology", help="solve a torus cohomological equation")
    p_coh.add_argument("config")
    p_coh.set_defaults(func=_cmd_run, scenario="cohomology")

    for command in (p_run, p_sweep, p_cls, p_coh):
        command.add_argument("--out", help="output directory (or $EGF_LAB_OUT)")
        command.add_argument("--quiet", action="store_true")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())

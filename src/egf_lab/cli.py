"""Scenario runner: JSON config in, CSV tables and a JSON report out.

Every scenario is driven by one JSON document.  Validation failures exit
with code 2 and name the offending key path; numerical blow-up exits with 3;
resonance or characteristic crossing exits with 4; any other exception is an
internal error, exits with 5 and keeps its traceback in the report, which is
written in every case.  CSV output is fully
deterministic for a fixed config (17 significant digits, LF endings), so two
runs of the same config are byte-identical.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .catalog import (
    as_float,
    as_int,
    is_number,
    make_biregular_metric,
    make_functional,
    make_initial,
    strict_cast,
)
from .cohomology_solver import (
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

SCENARIOS = (
    "umbilical-flow",
    "tau-flow",
    "soliton-check",
    "biregular-check",
    "ricci-classify",
    "cohomology",
    "revolution",
    "cone-check",
)

# report key used as the refinement-error metric by `sweep --axis ds`
SWEEP_ERROR_KEY = {
    "umbilical-flow": "oracle_sup_error",
    "tau-flow": "umbilicity_defect",
    "cone-check": "sup_err_lambda",
}


class ConfigError(ValueError):
    """Validation failure; the message starts with the offending key path."""


_MISSING = object()


def cfg_get(cfg: dict, path: str, default=_MISSING, cast=None, choices=None):
    node = cfg
    for part in path.split("."):
        if not isinstance(node, dict) or part not in node:
            if default is _MISSING:
                raise ConfigError(f"{path}: required")
            return default
        node = node[part]
    if cast is not None:
        try:
            node = strict_cast(path, node, cast)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
    if choices is not None and node not in choices:
        raise ConfigError(f"{path}: must be one of {sorted(choices)}")
    return node


# rows formatted by one `%` per chunk; bounds the size of the formatted string
_CHUNK_ROWS = 4096


def _write_rows(fh, table, sep: str) -> None:
    """Write a 2-D float array, or a sequence of 1-D columns, one line per row.

    Floats are written as ``%.17g`` (the same bytes as ``format(v, ".17g")``,
    non-finite values included); integer-typed columns as ``%d``, exact for
    |n| < 2**53.
    """
    if isinstance(table, np.ndarray):
        table = table.T  # iterate a 2-D array by columns
    columns = [np.asarray(c) for c in table]
    formats = [
        "%d" if np.issubdtype(c.dtype, np.integer) else "%.17g" for c in columns
    ]
    block = np.column_stack(columns).astype(float, copy=False)
    line = sep.join(formats) + "\n"
    for start in range(0, block.shape[0], _CHUNK_ROWS):
        chunk = block[start:start + _CHUNK_ROWS]
        fh.write((line * chunk.shape[0]) % tuple(chunk.ravel().tolist()))


def write_csv(path: Path, header: list[str], table) -> None:
    """Header line plus one CSV line per row of ``table`` (see _write_rows)."""
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        _write_rows(fh, table, ",")


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


def _step_control(cfg: dict, t_end=_MISSING) -> StepControl:
    fields = {
        "t_end": cfg_get(cfg, "numerics.t_end", t_end, float),
        "cfl": cfg_get(cfg, "numerics.cfl", 0.9, float),
        "scheme": cfg_get(cfg, "numerics.scheme", "upwind", choices=set(SCHEMES)),
        "max_steps": cfg_get(cfg, "numerics.max_steps", 200_000, int),
        "integrator": cfg_get(
            cfg, "numerics.integrator", "euler", choices=set(INTEGRATORS)
        ),
    }
    try:
        return StepControl(**fields)
    except ValueError as exc:  # StepControl's messages start with the field name
        raise ConfigError(f"numerics.{exc}") from None


def _functional_from_cfg(cfg: dict, n: int):
    name = cfg_get(cfg, "functional.name", cast=str)
    params = {
        k: v for k, v in cfg_get(cfg, "functional", {}, dict).items() if k != "name"
    }
    try:
        return make_functional(name, n, params)
    except ValueError as exc:
        raise ConfigError(f"functional: {exc}") from None


def _eps_from_cfg(cfg: dict):
    """eps as "auto" or a JSON number."""
    eps = cfg_get(cfg, "eps", "auto")
    if eps == "auto":
        return eps
    if not is_number(eps):
        raise ConfigError(f"eps: expected number or 'auto', got {eps!r}")
    return float(eps)


# --------------------------------------------------------------- scenarios


def run_umbilical_flow(cfg: dict, outdir: Path):
    n = cfg_get(cfg, "n", 2, int)
    F = _functional_from_cfg(cfg, n)
    grid = cfg_get(cfg, "numerics.grid", cast=int)
    length = cfg_get(cfg, "numerics.length", 1.0, float)
    boundary = cfg_get(cfg, "numerics.boundary", "periodic", choices=set(BOUNDARIES))
    stride = cfg_get(cfg, "output.snapshot_stride", 10, int)
    ctl = _step_control(cfg)
    lam0 = _initial_from_cfg(cfg, length)

    p0 = UmbilicalProfile.from_function(lam0, grid, length, boundary)
    blocks: list[np.ndarray] = []

    def on_snapshot(prof: UmbilicalProfile):
        blocks.append(
            np.column_stack((np.full(prof.s.shape, prof.t), prof.s, prof.lam, prof.phi))
        )

    final = evolve_umbilical(
        p0, F, ctl, record_every=max(1, stride), on_snapshot=on_snapshot
    )

    results = {
        "final_time": final.t,
        "steps_recorded": len(blocks),
        "lambda_min": float(np.min(final.lam)),
        "lambda_max": float(np.max(final.lam)),
        "oracle_sup_error": None,
    }
    if boundary == "periodic":
        try:
            exact = characteristics_oracle(
                lam0, F, final.t, final.s, periodic_length=length
            )
            results["oracle_sup_error"] = float(np.max(np.abs(final.lam - exact)))
        except ShockError as exc:
            results["oracle_note"] = str(exc)
    files = [outdir / "timeseries.csv"]
    write_csv(files[0], ["t", "s", "lambda", "phi"], np.concatenate(blocks))
    return results, files


def _initial_from_cfg(cfg: dict, length: float):
    # cast=dict copies, so the seed default stays out of the config echo
    spec = cfg_get(cfg, "initial", cast=dict)
    spec.setdefault("seed", cfg_get(cfg, "numerics.seed", 0, int))
    try:
        return make_initial(spec, length)
    except ValueError as exc:
        raise ConfigError(f"initial: {exc}") from None


def run_tau_flow(cfg: dict, outdir: Path):
    n = cfg_get(cfg, "n", cast=int)
    F = _functional_from_cfg(cfg, n)
    grid = cfg_get(cfg, "numerics.grid", cast=int)
    length = cfg_get(cfg, "numerics.length", 1.0, float)
    boundary = cfg_get(cfg, "numerics.boundary", "periodic", choices=set(BOUNDARIES))
    ctl = _step_control(cfg)
    lam0 = _initial_from_cfg(cfg, length)

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
    write_csv(files[0], header, np.column_stack((out.s, out.tau)))
    return results, files


def run_soliton_check(cfg: dict, outdir: Path):
    n = cfg_get(cfg, "n", 2, int)
    F = _functional_from_cfg(cfg, n)
    grid = cfg_get(cfg, "numerics.grid", 256, int)
    length = cfg_get(cfg, "numerics.length", 1.0, float)
    eps = _eps_from_cfg(cfg)
    lam0 = _initial_from_cfg(cfg, length)
    p = UmbilicalProfile.from_function(lam0, grid, length)
    rep = check_normal_soliton(p, F, eps)

    mu = np.asarray(mu_of_lambda(F, p.lam))
    psi_vals = np.asarray(psi_of_lambda(F, p.lam))
    structure = psi_vals - rep.eps_used + (2.0 / F.n) * mu * p.lam
    files = [outdir / "residuals.csv"]
    write_csv(
        files[0],
        ["s", "lambda", "mu", "structure_residual"],
        (p.s, p.lam, mu, structure),
    )
    results = {
        "verdict": rep.verdict,
        "eps_used": rep.eps_used,
        "n_lambda_norm": rep.n_lambda_norm,
        "tol": rep.tol,
        "residual_linf": rep.residual_linf,
        "residual_l2": rep.residual_l2,
        "notes": rep.notes,
    }
    return results, files


def run_biregular_check(cfg: dict, outdir: Path):
    F = _functional_from_cfg(cfg, cfg_get(cfg, "n", 1, int))
    name = cfg_get(cfg, "metric.name", cast=str)
    try:
        g00, g11, periodic0 = make_biregular_metric(name)
    except ValueError as exc:
        raise ConfigError(f"metric.name: {exc}") from None
    shape = (
        cfg_get(cfg, "numerics.grid0", 64, int),
        cfg_get(cfg, "numerics.grid1", 64, int),
    )
    lengths = (
        cfg_get(cfg, "numerics.length0", 1.0, float),
        cfg_get(cfg, "numerics.length1", 1.0, float),
    )
    field_name = cfg_get(cfg, "field.name", "zero", choices={"zero"})
    eps = _eps_from_cfg(cfg)

    grid = BiregularGrid.from_functions(
        g00, g11, shape=shape, lengths=lengths, periodic0=periodic0
    )
    rep = check_biregular_surface(grid, F, eps)

    lam = biregular_normal_curvature(grid)
    x0, x1 = np.meshgrid(grid.x0, grid.x1, indexing="ij")
    files = [outdir / "curvature.csv"]
    write_csv(files[0], ["x0", "x1", "lambda"], (x0.ravel(), x1.ravel(), lam.ravel()))
    results = {
        "verdict": rep.verdict,
        "eps_used": rep.eps_used,
        "tol": rep.tol,
        "residual_linf": rep.residual_linf,
        "residual_l2": rep.residual_l2,
        "field": field_name,
        "notes": rep.notes,
    }
    return results, files


def run_ricci_classify(cfg: dict, outdir: Path):
    n = cfg_get(cfg, "n", cast=int)
    tau1 = cfg_get(cfg, "tau1", cast=float)
    r = cfg_get(cfg, "r", cast=float)
    try:
        cls = classify_ricci_soliton(n, tau1, r)
    except ValueError as exc:
        raise ConfigError(f"n: {exc}") from None
    results = {
        "n": n,
        "tau1": tau1,
        "r": r,
        "discriminant": cls.discriminant,
        "cpc": cls.cpc,
        "spectra": [
            {
                "kind": sp.kind,
                "roots": list(sp.roots),
                "multiplicities": list(sp.multiplicities),
            }
            for sp in cls.spectra
        ],
    }
    return results, []


def _modes_from_cfg(rows):
    """h.modes rows [u1, ..., ud, re, im], checked all at once into one float
    array; else a dict built row by row, naming the first bad row."""
    if not isinstance(rows, list):
        raise ConfigError(f"h.modes: expected a list of rows, got {rows!r}")
    if all(type(row) is list for row in rows) and (
        {type(x) for row in rows for x in row} <= {int, float}
    ):
        try:
            table = np.array(rows, dtype=float)
            u = table[:, :-2]
            if (u.shape[1] and np.isfinite(table).all() and (u == np.rint(u)).all()
                    and (np.abs(u) < 2.0 ** 53).all()):
                return table
        except (ValueError, OverflowError, IndexError):  # ragged, or huge ints
            pass
    table = {}
    for idx, entry in enumerate(rows):
        try:
            *u, re_c, im_c = entry
            if not u or not np.isfinite([as_float(c) for c in entry]).all():
                raise ValueError(entry)
            table[tuple(as_int(c) for c in u)] = complex(re_c, im_c)
        except (TypeError, ValueError, OverflowError):  # OverflowError: huge ints
            raise ConfigError(
                f"h.modes[{idx}]: expected [u1, ..., re, im] with integer u "
                f"and numeric re, im; got {entry!r}"
            ) from None
    return table


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
    v = [strict_cast("v", c, float) for c in cfg_get(cfg, "v", cast=list)]
    if len(v) not in (2, 3) or not np.isfinite(v).all():
        raise ConfigError(f"v: expected 2 or 3 finite numbers, got {v!r}")
    K = cfg_get(cfg, "K", cast=int)
    s = cfg_get(cfg, "s", 1.0, float)
    modes_cfg = cfg_get(cfg, "h.modes", None)
    grid_csv = cfg_get(cfg, "h.grid_csv", None)
    if (modes_cfg is None) == (grid_csv is None):
        raise ConfigError("h: provide exactly one of h.modes or h.grid_csv")
    if modes_cfg is not None:
        build, h = TorusCohomologyProblem.from_modes, _modes_from_cfg(modes_cfg)
    elif isinstance(grid_csv, str):
        build, h = TorusCohomologyProblem.from_grid, _grid_csv_modes(Path(grid_csv))
    else:
        raise ConfigError(f"h.grid_csv: expected a path, got {grid_csv!r}")
    try:
        problem = build(v, h, K, s)
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
    write_csv(
        files[1],
        shell_fields,
        [np.array([getattr(row, f) for row in shells]) for f in shell_fields],
    )
    results = {
        "eps": sol.eps,
        "margin": sol.margin,
        "residual": sol.residual,
        "max_imag": sol.max_imag,
        "soliton_field_scale": sol.soliton_field_scale,
        "modes_solved": len(sol.f_coeffs) - 1,
    }
    return results, files


def run_revolution(cfg: dict, outdir: Path):
    kind = cfg_get(cfg, "curve.kind", cast=str, choices={"cone", "constant_lambda"})
    if kind == "cone":
        beta = cfg_get(cfg, "curve.beta", cast=float)
        a = cfg_get(cfg, "curve.x0_min", 1.0, float)
        b = cfg_get(cfg, "curve.x0_max", 5.0, float)
        grid = cfg_get(cfg, "numerics.grid", 256, int)
        try:
            profile = RevolutionProfile.cone(beta, (a, b), grid)
        except ValueError as exc:
            raise ConfigError(f"curve: {exc}") from None
        K_formula = np.zeros_like  # a straight generatrix: flat plane sections
    else:
        x1_min = cfg_get(cfg, "curve.x1_min", 0.5, float)
        x1_max = cfg_get(cfg, "curve.x1_max", 10.0, float)
        step = cfg_get(cfg, "curve.step", 1e-3, float)
        C = cfg_get(cfg, "curve.C", 0.0, float)
        try:
            profile = integrate_constant_lambda(x1_min, x1_max, step, C)
        except ValueError as exc:
            raise ConfigError(f"curve: {exc}") from None
        K_formula = sectional_curvature_formula

    g00, g11 = profile_metric(profile)
    cmp = sectional_curvature_profile(profile, K_formula)
    # normal curvature of the parallels under the sin(angle)/radius convention
    fp = profile.dx1 / profile.dx0
    lam = fp / (profile.x1 * np.sqrt(1.0 + fp ** 2))

    files = [outdir / "profile.csv"]
    write_csv(
        files[0],
        ["x0", "x1", "g00", "g11", "lambda", "K_formula", "K_oracle"],
        (profile.x0, profile.x1, g00, g11, lam, cmp.formula, cmp.oracle),
    )
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
    if cfg_get(cfg, "output.gnuplot", False, bool):
        gp = outdir / "profile.dat"
        with open(gp, "w", newline="") as fh:
            _write_rows(fh, (profile.x0, profile.x1), " ")
        files.append(gp)
    return results, files


def run_cone_check(cfg: dict, outdir: Path):
    beta = cfg_get(cfg, "beta", np.pi / 6, float)
    ctl = _step_control(cfg, t_end=1.0)
    t_end = ctl.t_end
    grid = cfg_get(cfg, "numerics.grid", 800, int)
    a = cfg_get(cfg, "domain_min", 2.0, float)
    b = cfg_get(cfg, "domain_max", 6.0, float)
    rep = cone_flow_check(beta, ctl, grid, (a, b))

    p = rep.final_profile
    lam_exact = -2.0 / (p.s - t_end / 2.0)
    phi_translated = (p.s - t_end / 2.0) * math.sin(beta)
    phi_integral = math.sin(beta) * (p.s - t_end / 2.0) ** 2 / p.s
    files = [outdir / "cone_final.csv"]
    write_csv(
        files[0],
        ["s", "lambda_num", "lambda_exact", "phi_num", "phi_translated",
         "phi_integral"],
        (p.s, p.lam, lam_exact, p.phi, phi_translated, phi_integral),
    )
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
    report = {
        "config": config,
        "versions": {"egf_lab": __version__, "numpy": np.__version__},
    }
    code = EXIT_OK
    try:
        scenario = cfg_get(config, "scenario", cast=str, choices=set(SCENARIOS))
        results, files = HANDLERS[scenario](config, outdir)
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
    with open(report_path, "w", newline="") as fh:
        json.dump(_jsonable(report), fh, indent=2, sort_keys=True)
        fh.write("\n")
    if not quiet:
        target = report.get("error") or f"results in {report_path}"
        print(f"[egf-lab] {config.get('scenario', '?')}: {target}")
    return report, code


def sweep_configs(configs: list[dict], outdir: Path, axis: str) -> tuple[dict, int]:
    """Run several configs that differ only in numerics; aggregate the errors.

    For the ds axis the refinement errors are fitted with a log-log least
    squares line, giving the measured convergence order.  For the cfl axis
    the aggregate records which runs stayed stable and the largest stable
    value.
    """
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)

    def stripped(c):
        return {k: v for k, v in c.items() if k not in ("numerics", "output")}

    base = stripped(configs[0])
    for idx, c in enumerate(configs[1:], start=1):
        if stripped(c) != base:
            raise ConfigError(
                f"sweep: config {idx} differs outside the numerics block"
            )
    scenario = cfg_get(configs[0], "scenario", cast=str, choices=set(SCENARIOS))

    rows = []
    reports = []
    for idx, c in enumerate(configs):
        subdir = outdir / f"run_{idx:03d}"
        report, code = run(c, subdir, quiet=True)
        reports.append(report)
        if axis == "ds":
            if scenario not in SWEEP_ERROR_KEY:
                raise ConfigError(
                    f"sweep: scenario {scenario} has no refinement error metric"
                )
            grid = cfg_get(c, "numerics.grid", cast=int)
            length = cfg_get(c, "numerics.length", 1.0, float)
            err = None
            if code == EXIT_OK:
                err = report["results"].get(SWEEP_ERROR_KEY[scenario])
            rows.append((length / grid, grid, err, code))
        else:
            rows.append((cfg_get(c, "numerics.cfl", 0.9, float), code))

    aggregate: dict = {"scenario": scenario, "axis": axis, "runs": len(configs)}
    if axis == "ds":
        ok = [
            (ds, err)
            for ds, _, err, code in rows
            if code == EXIT_OK and err is not None and err > 0
        ]
        if len(ok) >= 2:
            logds = np.log([p[0] for p in ok])
            logerr = np.log([p[1] for p in ok])
            slope = float(np.polyfit(logds, logerr, 1)[0])
            aggregate["fitted_order"] = slope
        ds, grids, errors, codes = zip(*rows)
        write_csv(
            outdir / "sweep.csv",
            ["ds", "grid", "error", "exit_status"],
            # dtype=float turns a missing error (None) into nan
            (np.array(ds), np.array(grids), np.array(errors, dtype=float),
             np.array(codes)),
        )
    else:
        stable = [cfl for cfl, code in rows if code == EXIT_OK]
        aggregate["largest_stable_cfl"] = max(stable) if stable else None
        write_csv(
            outdir / "sweep.csv",
            ["cfl", "exit_status"],
            [np.array(column) for column in zip(*rows)],
        )

    aggregate["reports"] = [
        {"exit_status": r["exit_status"], "error": r.get("error")} for r in reports
    ]
    with open(outdir / "sweep_report.json", "w", newline="") as fh:
        json.dump(_jsonable(aggregate), fh, indent=2, sort_keys=True)
        fh.write("\n")
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
    if getattr(args, "out", None):
        return Path(args.out)
    env = os.environ.get("EGF_LAB_OUT")
    if env:
        return Path(env)
    return Path("egf-lab-out")


def _cmd_run(args) -> int:
    config = _load_config(args.config)
    _, code = run(config, _outdir(args), quiet=args.quiet)
    return code


def _cmd_sweep(args) -> int:
    base = _load_config(args.config)
    if args.axis == "ds":
        grid0 = cfg_get(base, "numerics.grid", cast=int)
        key, values = "grid", [grid0 * 2 ** i for i in range(args.points)]
    elif args.values:
        key, values = "cfl", [float(v) for v in args.values.split(",")]
    else:
        key, values = "cfl", list(np.linspace(0.2, 1.0, args.points))
    variants = []
    for value in values:
        c = json.loads(json.dumps(base))
        c.setdefault("numerics", {})[key] = value
        variants.append(c)
    aggregate, code = sweep_configs(variants, _outdir(args), args.axis)
    if not args.quiet:
        print(json.dumps(_jsonable(aggregate), indent=2, sort_keys=True))
    return code


def _cmd_classify(args) -> int:
    config = {
        "scenario": "ricci-classify",
        "n": args.n,
        "tau1": args.tau1,
        "r": args.r,
    }
    report, code = run(config, _outdir(args), quiet=True)
    if not args.quiet:
        print(json.dumps(report.get("results", report.get("error")), indent=2,
                         sort_keys=True))
    return code


def _cmd_cohomology(args) -> int:
    config = _load_config(args.config)
    config.setdefault("scenario", "cohomology")
    if config["scenario"] != "cohomology":
        print("scenario: must be cohomology", file=sys.stderr)
        return EXIT_CONFIG
    _, code = run(config, _outdir(args), quiet=args.quiet)
    return code


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="egf-lab",
        description="numerical laboratory for leafwise extrinsic geometric flows",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute one scenario config")
    p_run.add_argument("config")
    p_run.add_argument("--out", help="output directory (or $EGF_LAB_OUT)")
    p_run.add_argument("--quiet", action="store_true")
    p_run.set_defaults(func=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="refinement or stability sweep")
    p_sweep.add_argument("config")
    p_sweep.add_argument("--axis", choices=("ds", "cfl"), default="ds")
    p_sweep.add_argument("--points", type=int, default=4)
    p_sweep.add_argument("--values", help="comma-separated cfl values")
    p_sweep.add_argument("--out", help="output directory (or $EGF_LAB_OUT)")
    p_sweep.add_argument("--quiet", action="store_true")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_cls = sub.add_parser("classify", help="extrinsic Ricci soliton spectra")
    p_cls.add_argument("--n", type=int, required=True)
    p_cls.add_argument("--tau1", type=float, required=True)
    p_cls.add_argument("--r", type=float, required=True)
    p_cls.add_argument("--out", help="output directory (or $EGF_LAB_OUT)")
    p_cls.add_argument("--quiet", action="store_true")
    p_cls.set_defaults(func=_cmd_classify)

    p_coh = sub.add_parser("cohomology", help="solve a torus cohomological equation")
    p_coh.add_argument("config")
    p_coh.add_argument("--out", help="output directory (or $EGF_LAB_OUT)")
    p_coh.add_argument("--quiet", action="store_true")
    p_coh.set_defaults(func=_cmd_cohomology)

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

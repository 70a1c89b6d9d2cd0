from __future__ import annotations

import contextlib
import dataclasses
import itertools
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import time
import warnings
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from egf_lab import cli, flow_engine, soliton_lab
from egf_lab.catalog import BIREGULAR_METRICS, make_functional
from egf_lab.cli import (
    EXIT_BLOWUP,
    EXIT_CONFIG,
    EXIT_INTERNAL,
    EXIT_OK,
    EXIT_UNSOLVABLE,
    ConfigError,
    main,
    parse_config,
    run,
    sweep_configs,
    write_csv,
)
from egf_lab.cohomology_solver import (
    ResonanceError,
    TorusCohomologyProblem,
    solve_linear_flow,
)
from egf_lab.flow_engine import (
    FlowBlowUpError,
    StepControl,
    TauField,
    UmbilicalProfile,
    evolve_tau,
    evolve_umbilical,
    reached,
)
from egf_lab.revolution_geometry import (
    integrate_constant_lambda,
    profile_metric,
    sectional_curvature_formula,
    sectional_curvature_profile,
)
from egf_lab.soliton_lab import BiregularGrid, biregular_normal_curvature
from egf_lab.sym_curvature import psi_of_lambda

from oracles import write_csv_reference, write_json_reference


def umbilical_config(grid=128, t_end=0.5, **numerics):
    cfg = {
        "scenario": "umbilical-flow",
        "n": 2,
        "functional": {"name": "b1"},
        "initial": {"kind": "sine", "amplitude": 1.0, "mean": 0.0, "periods": 1},
        "numerics": {"grid": grid, "t_end": t_end, "cfl": 0.9, "length": 1.0},
        "output": {"snapshot_stride": 50},
    }
    cfg["numerics"].update(numerics)
    return cfg


REVOLUTION = {"scenario": "revolution", "curve": {"kind": "cone", "beta": 0.5}}


def dense_cohomology_config(K: int, imag: float = 0.0) -> dict:
    """3-D cohomology with one h.modes row per mode of the half lattice
    |u|_inf <= K (the zero mode and those whose first nonzero entry is
    positive; the solver completes the conjugates), v rationally independent.
    Each nonzero mode's coefficient is w + i imag w, w = (1 + |u|^2)^-1.5."""
    rows = [[*u, w, imag * w if any(u) else 0.0]
            for u in itertools.product(range(-K, K + 1), repeat=3) if u >= (0, 0, 0)
            for w in [(1.0 + sum(c * c for c in u)) ** -1.5]]
    return {"scenario": "cohomology", "v": [1.0, 2 ** 0.5, 3 ** 0.5], "K": K,
            "h": {"modes": rows}}


class TestConfigAccess:
    """The parse step alone: strict casts, required keys and choices."""

    def test_missing_path_names_key(self):
        cfg = umbilical_config()
        del cfg["numerics"]["grid"]
        with pytest.raises(ConfigError, match="numerics.grid: required"):
            parse_config(cfg)

    def test_bad_cast(self):
        with pytest.raises(ConfigError, match="numerics.grid"):
            parse_config(umbilical_config(grid="many"))

    def test_choices(self):
        with pytest.raises(ConfigError, match="scenario"):
            parse_config({**umbilical_config(), "scenario": "nope"})

    @pytest.mark.parametrize("value", [64.9, True, "64", None])
    def test_int_cast_refuses_lossy_values(self, value):
        with pytest.raises(ConfigError, match="numerics.grid"):
            parse_config(umbilical_config(grid=value))

    def test_strict_casts_accept_valid_values(self):
        assert parse_config(umbilical_config(grid=64.0))["numerics.grid"] == 64
        periods = _set(umbilical_config(), "initial.periods", -3)
        assert parse_config(periods)["initial.periods"] == -3
        flag = _set(json.loads(json.dumps(REVOLUTION)), "output.gnuplot", False)
        assert parse_config(flag)["output.gnuplot"] is False
        value = parse_config(umbilical_config(cfl=1))["numerics.cfl"]
        assert value == 1.0 and type(value) is float
        assert parse_config(umbilical_config(cfl=1e-1))["numerics.cfl"] == 0.1

    @pytest.mark.parametrize("value", ["false", "true", 0, 1, None])
    def test_bool_cast_accepts_only_json_booleans(self, value):
        cfg = _set(json.loads(json.dumps(REVOLUTION)), "output.gnuplot", value)
        with pytest.raises(ConfigError, match="output.gnuplot"):
            parse_config(cfg)

    @pytest.mark.parametrize("value", [True, "1e-1", "inf", None, [1], math.nan,
                                       -math.inf])
    def test_float_cast_accepts_only_json_numbers(self, value):
        with pytest.raises(ConfigError, match="numerics.cfl"):
            parse_config(umbilical_config(cfl=value))

    def test_fractional_grid_exits_2(self, tmp_path):
        report, code = run(umbilical_config(grid=64.9), tmp_path, quiet=True)
        assert code == EXIT_CONFIG
        assert report["error"].startswith("numerics.grid")
        assert not (tmp_path / "timeseries.csv").exists()

    def test_string_gnuplot_flag_exits_2(self, tmp_path):
        cfg = {
            "scenario": "revolution",
            "curve": {"kind": "cone", "beta": 0.5},
            "output": {"gnuplot": "false"},
        }
        report, code = run(cfg, tmp_path, quiet=True)
        assert code == EXIT_CONFIG
        assert report["error"].startswith("output.gnuplot")
        assert not (tmp_path / "profile.dat").exists()

    @pytest.mark.parametrize("t_end", ["inf", "nan", "-inf"])
    def test_non_finite_t_end_exits_2(self, tmp_path, t_end):
        report, code = run(umbilical_config(t_end=t_end), tmp_path, quiet=True)
        assert code == EXIT_CONFIG
        assert report["error"].startswith("numerics.t_end")
        assert (tmp_path / "report.json").exists()

    @pytest.mark.parametrize("modes", [
        5, "rows", [5], [[1, 2]], [[1, 0, "1.0", 0.0]], [[1.5, 0, 1.0, 0.0]],
        [[True, 0, 1.0, 0.0]], [[1, 0, math.nan, 0.0]], [[1, 0, 0.0, -math.inf]],
        [[1, 0, 10 ** 400, 0.0]], [[10 ** 400, 0, 1.0, 0.0]],
    ])
    def test_malformed_h_modes_exit_2_with_report(self, tmp_path, modes):
        cfg = {"scenario": "cohomology", "v": [1.0, 1.5], "K": 3,
               "h": {"modes": modes}}
        report, code = run(cfg, tmp_path, quiet=True)
        assert code == EXIT_CONFIG
        assert report["error"].startswith("h.modes")
        written = json.loads((tmp_path / "report.json").read_text())
        assert written["exit_status"] == EXIT_CONFIG

    def test_non_string_grid_csv_exits_2_with_report(self, tmp_path):
        cfg = {"scenario": "cohomology", "v": [1.0, 1.5], "K": 3,
               "h": {"grid_csv": 5}}
        report, code = run(cfg, tmp_path, quiet=True)
        assert code == EXIT_CONFIG
        assert report["error"].startswith("h.grid_csv")
        assert (tmp_path / "report.json").exists()


def _set(cfg: dict, path: str, value) -> dict:
    node = cfg
    *parents, last = path.split(".")
    for part in parents:
        node = node.setdefault(part, {})
    node[last] = value
    return cfg


SOLITON = {"scenario": "soliton-check", "n": 2, "functional": {"name": "b1"},
           "initial": {"kind": "constant", "value": 1.3}, "numerics": {"grid": 64}}
BIREGULAR = {"scenario": "biregular-check", "functional": {"name": "b1"},
             "metric": {"name": "exp_x0"}, "numerics": {"grid0": 16, "grid1": 16}}
COHOMOLOGY = {"scenario": "cohomology", "v": [1.0, 1.5], "K": 3,
              "h": {"modes": [[0, 0, 1.0, 0.0]]}}
# refused as resonant (exit 4) unless a bad s or K is caught first
RESONANT = {"scenario": "cohomology", "v": [1, 0.5], "K": 3,
            "h": {"modes": [[1, -2, 1, 0]]}}
CONE = {"scenario": "cone-check", "numerics": {"grid": 64}}
AFFINE_FLOW = _set(umbilical_config(), "functional", {"name": "affine"})
SHIFTED_FLOW = _set(umbilical_config(), "functional", {"name": "tau1_minus_c"})
FOURIER_FLOW = _set(umbilical_config(), "initial", {"kind": "random_fourier"})
RICCI = {"scenario": "ricci-classify", "n": 4, "tau1": 0.0, "r": 1.0}
TAU_FLOW = {"scenario": "tau-flow", "n": 2, "functional": {"name": "b1"},
            "initial": {"kind": "sine", "amplitude": 0.25, "mean": 0.5},
            "numerics": {"grid": 64, "t_end": 0.05}}
CONSTANT_LAMBDA = {"scenario": "revolution", "curve": {"kind": "constant_lambda"}}


def _sine_soliton(length, grid):
    return {"scenario": "soliton-check", "n": 2, "functional": {"name": "b1"},
            "initial": {"kind": "sine", "amplitude": 0.5, "mean": 1.0, "periods": 1},
            "numerics": {"grid": grid, "length": length}}


# (config, verdict) of the soliton checks at long, short and coarse spacings:
# a tolerance of 10 × spacing² overflows at the first four lengths, and it
# passes as solitons the sine data at length 10, grid 8 and length 100, grid
# 64, and exp_x0 with eps 0 (it needs psi(1) = 1) at grids 16 and 32.  At the
# shortest lengths the rounding of exp_x0's log g11 over 2 d0 swamps psi, so
# no verdict is given; the flat metric's g11 = 1 has no rounding to carry.
SPACING_VERDICTS = [
    (_set(_set(json.loads(json.dumps(SOLITON)), "numerics.grid", 8), "numerics.length",
          1e160), "soliton"),
    (_set(_set(json.loads(json.dumps(SOLITON)), "initial", {"kind": "sine"}),
          "numerics.length", 8e154 * 8), "not_soliton"),
    (_set(_set(json.loads(json.dumps(BIREGULAR)), "metric.name", "flat"), "numerics",
          {"grid0": 8, "grid1": 8, "length0": 1e160}), "soliton"),
    (_set(json.loads(json.dumps(BIREGULAR)), "numerics.length1", 1e155), "soliton"),
    *[(_sine_soliton(length, grid), "not_soliton")
      for length, grid in ((10, 8), (100, 64), (1, 8), (10, 64))],
    *[(_set(_set(json.loads(json.dumps(BIREGULAR)), "eps", 0.0), "numerics",
            {"grid0": grid, "grid1": grid, "length0": 10, "length1": 10}), "not_soliton")
      for grid in (16, 32, 64)],
    *[(_set(_set(_set(json.loads(json.dumps(BIREGULAR)), "metric.name", metric), "eps",
                 eps), "numerics", {"length0": length0}), verdict)
      for metric, eps, length0, verdict in (
          ("flat", 0.5, 1e-12, "not_soliton"), ("flat", 0.5, 1e-15, "not_soliton"),
          ("flat", 0.0, 1e-15, "soliton"), ("exp_x0", 0.0, 1e-13, "degenerate"),
          ("exp_x0", 0.5, 1e-12, "degenerate"), ("exp_x0", "auto", 1e-10, "degenerate"),
          ("exp_x0", 0.0, 1e-15, "degenerate"))],
]

# (valid base config, key path, malformed value, start of the error message)
MALFORMED = [
    (umbilical_config(), "numerics.cfl", True, "numerics.cfl"),
    (umbilical_config(), "numerics.t_end", "1e-1", "numerics.t_end"),
    (SOLITON, "eps", "0.1", "eps"),
    (BIREGULAR, "eps", "0.1", "eps"),
    (AFFINE_FLOW, "functional.a", [1], "functional.a: expected finite number"),
    (AFFINE_FLOW, "functional.b", "1", "functional.b"),
    (umbilical_config(), "initial.amplitude", None, "initial.amplitude"),
    (umbilical_config(), "initial.periods", 1.7, "initial.periods: expected int"),
    (SOLITON, "initial.value", "1.3", "initial.value"),
    # every number is finite: NaN and infinities name their key
    (SHIFTED_FLOW, "functional.c", math.nan,
     "functional.c: expected finite number, got nan"),
    (AFFINE_FLOW, "functional.a", math.inf, "functional.a"),
    (AFFINE_FLOW, "functional.a", math.nan, "functional.a"),
    (AFFINE_FLOW, "functional.b", -math.inf, "functional.b"),
    (SOLITON, "initial.value", math.nan, "initial.value"),
    (SOLITON, "initial.value", math.inf, "initial.value"),
    (umbilical_config(), "initial.amplitude", math.inf, "initial.amplitude"),
    (umbilical_config(), "initial.mean", math.nan, "initial.mean"),
    (umbilical_config(), "initial.mean", -math.inf, "initial.mean"),
    (FOURIER_FLOW, "initial.amplitude", math.nan, "initial.amplitude"),
    (RICCI, "r", math.inf, "r: expected finite number, got inf"),
    (RICCI, "r", math.nan, "r"),
    (RICCI, "tau1", math.nan, "tau1: expected finite number, got nan"),
    (RICCI, "tau1", -math.inf, "tau1"),
    (CONSTANT_LAMBDA, "curve.C", math.nan, "curve.C"),
    (CONSTANT_LAMBDA, "curve.step", math.inf, "curve.step"),
    (REVOLUTION, "curve.x0_max", math.inf, "curve.x0_max"),
    (REVOLUTION, "curve.beta", math.nan, "curve.beta"),
    (SOLITON, "eps", math.nan, "eps: expected finite number or 'auto', got nan"),
    (BIREGULAR, "eps", math.nan, "eps"),
    (BIREGULAR, "eps", -math.inf, "eps"),
    # the bound of an interval is finite before the interval is checked
    (CONE, "domain_max", math.nan, "domain_max: expected finite number, got nan"),
    (REVOLUTION, "curve.x0_max", math.nan, "curve.x0_max: expected finite number"),
    (_set(json.loads(json.dumps(CONSTANT_LAMBDA)), "curve.x1_min", 1.5), "curve.x1_max",
     math.nan, "curve.x1_max: expected finite number"),
    # finite numbers the classifier cannot square: its discriminant overflows
    (RICCI, "r", 1e308, "r: the discriminant"),
    (RICCI, "r", -1e308, "r: the discriminant"),
    (RICCI, "tau1", 1e200, "tau1: the discriminant"),
    # every int key carries a range
    (umbilical_config(), "output.snapshot_stride", 0,
     "output.snapshot_stride: must lie in [1, "),
    (umbilical_config(), "output.snapshot_stride", -3, "output.snapshot_stride"),
    (umbilical_config(), "initial.periods", 10 ** 400, "initial.periods: must lie in"),
    (FOURIER_FLOW, "initial.modes", -1, "initial.modes: must lie in [0, "),
    (FOURIER_FLOW, "initial.seed", -1, "initial.seed: must lie in [0, "),
    (FOURIER_FLOW, "initial.seed", 2 ** 64, "initial.seed"),
    (RICCI, "n", 10 ** 400, "n: must lie in [3, 1048576]"),
    (RICCI, "n", 2 ** 20 + 1, "n: must lie in"),
    (RICCI, "n", 2, "n: must lie in"),
    # a tau-flow step does O(n^2) column work: grid * n^2 is capped
    (TAU_FLOW, "n", 2 ** 10, "numerics.grid × n × n = 6.71089e+07 exceeds"),
    (_set(json.loads(json.dumps(TAU_FLOW)), "numerics.grid", 8), "n", 1449,
     "numerics.grid × n × n = "),
    (COHOMOLOGY, "v", [1, None], "v"),
    (COHOMOLOGY, "v", [1, "a"], "v"),
    (COHOMOLOGY, "v", [1.0], "v"),
    (COHOMOLOGY, "v", [1.0, math.nan], "v"),
    (COHOMOLOGY, "v", [1.0, 10 ** 400], "v"),
    # finite directions whose divisors 2 pi <u, v> overflow within the truncation
    (_set(_set(json.loads(json.dumps(COHOMOLOGY)), "K", 2), "h.modes",
          [[1, 1, 1.0, 0.0]]), "v", [1.0, 1e308], "v: the divisors"),
    (_set(json.loads(json.dumps(COHOMOLOGY)), "K", 8), "v", [1.0, 1e307], "v: "),
    (CONE, "numerics.cfl", 1.5, "numerics.cfl"),
    (CONE, "numerics.t_end", -1, "numerics.t_end"),
    (CONE, "numerics.max_steps", 0, "numerics.max_steps"),
    (TAU_FLOW, "numerics.max_steps", 2.5, "numerics.max_steps"),
    (CONE, "beta", 2.0, "beta"),
    (RESONANT, "s", math.nan, "s"),
    (RESONANT, "s", math.inf, "s"),
    (RESONANT, "s", -1, "s"),
    (RESONANT, "K", 0, "K"),
    (COHOMOLOGY, "K", 1025, "K"),  # (4K)^2 verification points exceed the cap
    (COHOMOLOGY, "K", 10 ** 400, "K: must lie in [1, 1024]"),
    (umbilical_config(), "numerics.length", 0, "numerics.length"),
    (umbilical_config(), "numerics.length", -1, "numerics.length"),
    (SOLITON, "numerics.length", math.inf, "numerics.length"),
    (BIREGULAR, "numerics.length0", 0, "numerics.length0"),
    (BIREGULAR, "numerics.length1", -0.5, "numerics.length1"),
    (CONE, "domain_max", 1.0, "domain_max: must exceed domain_min (2.0), got 1.0"),
    (REVOLUTION, "curve.x0_max", 1.0, "curve.x0_max: must exceed curve.x0_min"),
    # a length whose nodes overflow or whose spacing underflows names the pair
    (TAU_FLOW, "numerics.length", 1e308,
     "numerics.length: 1e+308 over numerics.grid = 64 nodes leaves the double range"),
    (umbilical_config(grid=32), "numerics.length", 1e308, "numerics.length: "),
    # the oracle samples 16 x grid nodes: 1.28e309 here, and a NaN error at exit 0
    (_set(umbilical_config(grid=8), "functional.name", "umbilical_square"),
     "numerics.length", 1e307, "numerics.length: 1e+307 over numerics.grid = 8 nodes"),
    (SOLITON, "numerics.length", 1e-320, "numerics.length: 1e-320 over numerics.grid"),
    (BIREGULAR, "numerics.length1", 1e308, "numerics.length1: 1e+308 over numerics.grid1"),
    # exp_x0 sampled as g11 = 1 at every node would be judged flat: soliton at eps 0
    (_set(json.loads(json.dumps(BIREGULAR)), "eps", 0.0), "numerics.length0", 1e-17,
     "numerics.length0: 1e-17 is too short to resolve metric exp_x0: every g11 "
     "sample rounds to 1.0"),
    # random Fourier and sine data alias from the Nyquist mode grid / 2 on
    (FOURIER_FLOW, "initial.modes", 64,
     "initial.modes: must stay below numerics.grid / 2 (64) in magnitude, got 64"),
    (FOURIER_FLOW, "initial.modes", 100, "initial.modes: must stay below"),
    (umbilical_config(), "initial.periods", 64, "initial.periods: must stay below"),
    (SOLITON | {"initial": {"kind": "sine"}}, "initial.periods", -32,
     "initial.periods: must stay below numerics.grid / 2 (32) in magnitude, got -32"),
    # a profile whose metric or curvature overflows: NaN, not a number, at exit 0
    (_set(_set(json.loads(json.dumps(CONSTANT_LAMBDA)), "curve.x1_min", 1e-300),
          "curve.step", 1e-300), "curve.x1_max", 1e-299,
     "curve.x1_min, curve.x1_max: the profile's metric or curvature leaves"),
    (_set(_set(json.loads(json.dumps(CONSTANT_LAMBDA)), "curve.x1_min", 1e199),
          "curve.step", 1e195), "curve.x1_max", 1e200, "curve.x1_min, curve.x1_max: "),
    (REVOLUTION, "curve.x0_max", 1e200, "curve.x0_min, curve.x0_max: "),
    # a refusal from past the parse step names its key in full too
    (CONSTANT_LAMBDA, "curve.step", 0, "curve.step: expected positive finite number"),
    (CONSTANT_LAMBDA, "curve.step", -1e-3, "curve.step: expected positive"),
    (CONSTANT_LAMBDA, "curve.x1_min", 0, "curve.x1_min: expected positive"),
    (CONSTANT_LAMBDA, "curve.x1_min", -1, "curve.x1_min: expected positive"),
    (REVOLUTION, "curve.x0_min", 0, "curve.x0_min: expected positive finite number"),
    (REVOLUTION, "curve.x0_min", -1, "curve.x0_min: expected positive"),
    (REVOLUTION, "curve.beta", 2.0, "curve.beta: opening angle must lie in (0, pi/2)"),
    (REVOLUTION, "curve.beta", 0, "curve.beta: opening angle"),
    (CONE, "domain_min", 0.5, "domain_min: the apex reaches the domain"),
    (CONE, "numerics.t_end", -0.5, "numerics.t_end: must be finite and >= 0, got -0.5"),
    (umbilical_config(), "numerics.t_end", -1, "numerics.t_end: must be finite"),
    (umbilical_config(), "numerics.cfl", 0, "numerics.cfl: must lie in (0, 1]"),
]


class TestMalformedValues:
    """Every malformed value exits 2 with a report whose error names its key."""

    @pytest.mark.parametrize(
        "base,path,value,key", MALFORMED,
        ids=[f"{c[0]['scenario']}:{c[1]}={c[2]!r}" for c in MALFORMED],
    )
    def test_exit_2_naming_key(self, tmp_path, base, path, value, key):
        cfg = _set(json.loads(json.dumps(base)), path, value)
        report, code = run(cfg, tmp_path, quiet=True)
        assert code == EXIT_CONFIG, report.get("error")
        assert report["error"].startswith(key), report["error"]
        written = json.loads((tmp_path / "report.json").read_text())
        assert written["exit_status"] == EXIT_CONFIG

    def test_cone_check_t_end_defaults_to_one(self, tmp_path):
        report, code = run(CONE, tmp_path, quiet=True)
        assert code == EXIT_OK
        assert report["results"]["t_end"] == 1.0

    def test_cone_check_honours_max_steps(self, tmp_path):
        capped = _set(json.loads(json.dumps(CONE)), "numerics.max_steps", 1)
        report, code = run(capped, tmp_path, quiet=True)
        assert code == EXIT_BLOWUP
        assert "after 1 steps" in report["error"]


CAP = cli.MAX_GRID_POINTS


class TestConfigTable:
    """Unknown keys and oversize counts are refused by the parse step."""

    @pytest.mark.parametrize("base,path,value,message", [
        (umbilical_config(), "numerics.cfll", 0.01,
         "numerics.cfll: unknown key; did you mean numerics.cfl?"),
        (umbilical_config(), "numerics.max_step", 100,
         "numerics.max_step: unknown key; did you mean numerics.max_steps?"),
        (umbilical_config(), "outptu", {"snapshot_stride": 1},
         "outptu: unknown key; did you mean output?"),
        (AFFINE_FLOW, "functional.A", 5,
         "functional.A: unknown key; did you mean functional.a?"),
        (umbilical_config(), "functional.a", 5,  # a parameter of affine, not b1
         "functional.a: unknown key; expected one of ['name']"),
        (BIREGULAR, "field.name", "zero", "field: unknown key"),
        (REVOLUTION, "curve.x1_max", 5.0, "curve.x1_max: unknown key"),
        ({"scenario": "revolution", "curve": {"kind": "constant_lambda"}},
         "numerics.grid", 64, "numerics: unknown key"),
        (COHOMOLOGY, "numerics.cfl", 0.5, "numerics: unknown key"),
        (umbilical_config(), "numerics.seed", 7, "numerics.seed: unknown key"),
        (umbilical_config(), "numerics.integrator", "euler",
         "numerics.integrator: unknown key"),
        (CONE, "numerics.integrator", "heun", "numerics.integrator: unknown key"),
        (TAU_FLOW, "numerics.integrator", "euler", "numerics.integrator: unknown key"),
        # Rusanov's is the one dissipation: there is no scheme to select
        (umbilical_config(), "numerics.scheme", "upwind", "numerics.scheme: unknown key"),
        (CONE, "numerics.scheme", "lax_friedrichs", "numerics.scheme: unknown key"),
        (TAU_FLOW, "numerics.scheme", "upwind", "numerics.scheme: unknown key"),
    ])
    def test_unknown_key_exits_2_naming_it(self, tmp_path, base, path, value, message):
        cfg = _set(json.loads(json.dumps(base)), path, value)
        report, code = run(cfg, tmp_path, quiet=True)
        assert code == EXIT_CONFIG
        assert report["error"].startswith(message), report["error"]
        assert json.loads((tmp_path / "report.json").read_text())["error"] == (
            report["error"])
        assert not list(tmp_path.glob("*.csv"))

    def test_stepping_keys_mirror_step_control_fields(self):
        # _control passes each STEPPING key to the StepControl field of its name
        t_end, *fields = dataclasses.fields(StepControl)
        assert t_end.name == "t_end"
        assert [f"numerics.{f.name}" for f in fields] == list(cli.STEPPING)
        assert [f.default for f in fields] == [k.default for k in cli.STEPPING.values()]

    def test_dotted_key_names_are_unknown(self):
        cfg = {**umbilical_config(), "numerics.cfl": 0.5}
        with pytest.raises(ConfigError, match=r"^numerics\.cfl: unknown key"):
            parse_config(cfg)

    def test_block_must_be_an_object(self):
        with pytest.raises(ConfigError, match="^numerics: expected an object"):
            parse_config({**umbilical_config(), "numerics": 5})

    def test_defaults_fill_every_accepted_key(self):
        parsed = parse_config({"scenario": "cone-check"})
        assert parsed["numerics.t_end"] == 1.0
        assert parsed["numerics.cfl"] == 0.9
        assert parsed["numerics.grid"] == 800
        assert parsed["beta"] == math.pi / 6

    @pytest.mark.parametrize("base,path,value,key", [
        (umbilical_config(), "numerics.grid", CAP + 1, "numerics.grid: must lie in"),
        (umbilical_config(), "numerics.grid", 7, "numerics.grid: must lie in"),
        (_set(umbilical_config(grid=2 ** 13), "n", 2 ** 12), None,
         None, "numerics.grid × n = "),
        (BIREGULAR, "numerics", {"grid0": 2 ** 12, "grid1": 2 ** 13},
         "numerics.grid0 × numerics.grid1 × n = "),
        (CONE, "numerics.max_steps", CAP + 1, "numerics.max_steps: must lie in"),
        (_set(umbilical_config(), "initial",
              {"kind": "random_fourier", "modes": CAP + 1}), None, None,
         "initial.modes: must lie in"),
        ({"scenario": "revolution", "curve": {"kind": "constant_lambda",
                                              "x1_max": 100.0, "step": 1e-6}},
         None, None, "curve.step: (x1_max - x1_min) / step = "),
    ])
    def test_oversize_counts_refused_before_allocating(self, base, path, value, key):
        # the parse step alone: nothing of the requested size is built
        cfg = json.loads(json.dumps(base))
        if path is not None:
            _set(cfg, path, value)
        with pytest.raises(ConfigError) as err:
            parse_config(cfg)
        assert str(err.value).startswith(key), str(err.value)

    @pytest.mark.parametrize("base,lo,hi", [
        (CONE, "domain_min", "domain_max"),
        (REVOLUTION, "curve.x0_min", "curve.x0_max"),
        (CONSTANT_LAMBDA, "curve.x1_min", "curve.x1_max"),
    ])
    @pytest.mark.parametrize("upper", [1.0, 1.5])
    def test_empty_interval_names_both_keys(self, base, lo, hi, upper):
        cfg = _set(_set(json.loads(json.dumps(base)), lo, 1.5), hi, upper)
        with pytest.raises(ConfigError) as err:
            parse_config(cfg)
        assert str(err.value) == f"{hi}: must exceed {lo} (1.5), got {upper!r}"

    def test_every_int_key_carries_a_range(self):
        keys = [item for table in cli.TABLES.values() for item in table.items()]
        for _, key in keys:  # a tag's variants join the walk
            if isinstance(key.allowed, dict):
                keys += [item for variant in key.allowed.values()
                         for item in variant.items()]
        assert {"initial.seed", "curve.C"} <= {path for path, _ in keys}
        assert [path for path, key in keys
                if key.cast is int and not isinstance(key.allowed, range)] == []

    def test_sizes_at_the_cap_pass(self):
        parsed = parse_config(_set(umbilical_config(grid=2 ** 12), "n", 2 ** 12))
        assert parsed["numerics.grid"] * parsed["n"] == CAP
        tau = parse_config(_set(_set(json.loads(json.dumps(TAU_FLOW)),
                                     "numerics.grid", 2 ** 12), "n", 2 ** 6))
        assert tau["numerics.grid"] * tau["n"] ** 2 == CAP


class TestCsvWriter:
    EDGE_FLOATS = [math.nan, -math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324,
                   0.1, 1e16 + 2, -1.5e-300, 2.2250738585072014e-308, 1 / 3]

    def test_edge_values_match_per_value_reference(self, tmp_path):
        floats = np.array(self.EDGE_FLOATS)
        count = len(floats)
        ints = np.arange(count, dtype=np.int64) * -(2 ** 49) - 1
        codes = np.resize(np.array([0, 2, 3, 4]), count)
        header = ["x", "n", "exit_status"]
        write_csv(tmp_path / "chunked.csv", header, (floats, ints, codes))
        write_csv_reference(
            tmp_path / "reference.csv", header,
            zip(floats.tolist(), ints.tolist(), codes.tolist()),
        )
        chunked = (tmp_path / "chunked.csv").read_bytes()
        assert chunked == (tmp_path / "reference.csv").read_bytes()
        assert b"\r" not in chunked
        assert b"\n-0,-" in chunked and b"\nnan,-1,0\n" in chunked

    def test_array_spanning_chunks_matches_reference(self, tmp_path):
        rng = np.random.default_rng(5)
        rows = 3 * 4096 + 7
        exponents = rng.integers(-320, 300, (rows, 4))
        table = rng.standard_normal((rows, 4)) * 10.0 ** exponents
        table[5:5 + len(self.EDGE_FLOATS), 2] = self.EDGE_FLOATS
        write_csv(tmp_path / "chunked.csv", ["a", "b", "c", "d"], table.T)
        write_csv_reference(tmp_path / "reference.csv", ["a", "b", "c", "d"],
                            table.tolist())
        assert (tmp_path / "chunked.csv").read_bytes() == (
            tmp_path / "reference.csv"
        ).read_bytes()

    def test_empty_table_writes_header_only(self, tmp_path):
        write_csv(tmp_path / "empty.csv", ["a", "b"], (np.array([]), np.array([])))
        assert (tmp_path / "empty.csv").read_bytes() == b"a,b\n"

    def _assert_drawn_table_matches_reference(self, data, rows, kinds, tee):
        """Writes a drawn table of the kinds' columns, EDGE_FLOATS and large
        ints, and compares it, and its tee, with the per-value reference."""
        values = [np.array(data.draw(st.lists(
            st.sampled_from(self.EDGE_FLOATS) if kind != "int"
            else st.integers(-(2 ** 53) + 1, 2 ** 53 - 1),
            min_size=rows, max_size=rows)), dtype=int if kind == "int" else float)
            for kind in kinds]
        columns = [cli._text(v) if kind == "text" else v
                   for kind, v in zip(kinds, values)]
        tee = tee and len(kinds) >= 2
        header = [f"c{j}" for j in range(len(kinds))]
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            write_csv(tmp / "chunked.csv", header, columns,
                      tee=tmp / "chunked.dat" if tee else None)
            assert sorted(p.name for p in tmp.iterdir()) == (
                ["chunked.csv", "chunked.dat"] if tee else ["chunked.csv"])
            listed = [v.tolist() for v in values]
            write_csv_reference(tmp / "reference.csv", header, zip(*listed))
            assert (tmp / "chunked.csv").read_bytes() == (
                tmp / "reference.csv").read_bytes()
            if tee:
                write_csv_reference(tmp / "reference.dat", None, zip(*listed[:2]),
                                    sep=" ")
                assert (tmp / "chunked.dat").read_bytes() == (
                    tmp / "reference.dat").read_bytes()

    @settings(derandomize=True, database=None, deadline=None, max_examples=80)
    @given(data=st.data(), rows=st.integers(0, 23),
           kinds=st.lists(st.sampled_from(["text", "float", "int"]),
                          min_size=1, max_size=5),
           tee=st.booleans())
    def test_text_columns_match_reference(self, data, rows, kinds, tee):
        # chunks of 4 rows: up to six chunks, the last one partial
        with mock.patch.object(cli, "_CHUNK_ROWS", 4):
            self._assert_drawn_table_matches_reference(data, rows, kinds, tee)

    @settings(derandomize=True, database=None, deadline=None, max_examples=60)
    @given(data=st.data(), rows=st.sampled_from([7, 8, 9, 17]),
           kinds=st.lists(st.sampled_from(["text", "float", "int"]),
                          min_size=1, max_size=5),
           tee=st.booleans())
    def test_forked_tables_match_reference(self, data, rows, kinds, tee):
        # chunks of 4 rows: any float column forks, the child writing from
        # row 4 (8 for 17 rows); a table of text and ints is written alone
        with _fork_counter(_FORK_CELLS=1, _CHUNK_ROWS=4) as forks:
            self._assert_drawn_table_matches_reference(data, rows, kinds, tee)
        assert len(forks) == ("float" in kinds)

    @pytest.mark.parametrize("half", ["child", "parent"])
    def test_failing_half_leaves_no_part_and_no_child(self, tmp_path, half):
        """A failing child leaves its rows to this process, which writes the
        bytes of one process; a failing parent half kills and reaps the
        child, and run() reports it as an internal error."""
        parent, write_rows = os.getpid(), cli._write_rows

        def failing(fh, columns, sep, tee=None):
            if (os.getpid() != parent if half == "child"
                    else not fh.name.endswith(".part")):
                raise OSError("no space left on the device")
            write_rows(fh, columns, sep, tee)

        table = np.arange(40.0).reshape(2, 20)
        with _fork_counter(_FORK_CELLS=1, _CHUNK_ROWS=4, _write_rows=failing) as forks:
            if half == "child":
                write_csv(tmp_path / "t.csv", ["a", "b"], table, tee=tmp_path / "t.dat")
            else:
                with pytest.raises(OSError, match="no space left"):
                    write_csv(tmp_path / "t.csv", ["a", "b"], table,
                              tee=tmp_path / "t.dat")
            report, code = run(umbilical_config(grid=16, t_end=0.1), tmp_path / "run",
                               quiet=True)
        assert len(forks) == 2
        if half == "child":
            assert code == EXIT_OK, report.get("error")
            write_csv_reference(tmp_path / "reference.csv", ["a", "b"], table.T.tolist())
            write_csv_reference(tmp_path / "reference.dat", None, table.T.tolist(),
                                sep=" ")
            for name in ("t.csv", "t.dat"):
                assert (tmp_path / name).read_bytes() == (
                    tmp_path / name.replace("t.", "reference.")).read_bytes(), name
        else:
            assert code == EXIT_INTERNAL, report.get("error")
        assert json.loads((tmp_path / "run" / "report.json").read_text())[
            "exit_status"] == code
        assert not list(tmp_path.rglob("*.part"))
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("host", ["no fork", "one cpu"])
    def test_single_process_off_linux_or_on_one_cpu(self, tmp_path, monkeypatch, host):
        if host == "no fork":  # as on macOS: no sched_getaffinity either
            monkeypatch.setattr(sys, "platform", "darwin")
            monkeypatch.delattr(os, "fork")
            monkeypatch.delattr(os, "sched_getaffinity")
        else:
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
            monkeypatch.setattr(os, "fork", mock.Mock(side_effect=AssertionError))
        monkeypatch.setattr(cli, "_FORK_CELLS", 1)
        monkeypatch.setattr(cli, "_CHUNK_ROWS", 4)
        table = np.array(self.EDGE_FLOATS * 3).reshape(2, -1)
        write_csv(tmp_path / "t.csv", ["a", "b"], table)
        write_csv_reference(tmp_path / "reference.csv", ["a", "b"], table.T.tolist())
        assert (tmp_path / "t.csv").read_bytes() == (
            tmp_path / "reference.csv").read_bytes()

    def test_forks_per_run(self, tmp_path):
        """One fork for the stride-1 flow's 36,864 rows of two float columns,
        none for its sparse twin.  3-D cohomology's solution rows hold int
        columns and one complex column, which is text, so its tables never
        fork: at K = 16 the one fork is the echo's, for the 89,845 numbers of
        its 17,969 h.modes rows, and at K = 12 (39,065 numbers) none.  A
        tau-flow forks its umbilical companion, a cfl sweep of two or more
        members its members from the cost split on, a one-member sweep
        nothing, and a ds sweep
        of sparse flows nothing: its members run here, one after another."""
        dense = umbilical_config(grid=256, t_end=1.0)
        dense["output"]["snapshot_stride"] = 1
        sweep = [umbilical_config(grid=64, cfl=c) for c in (0.5, 0.7, 0.9)]
        reports = {}
        for cfg, expected, axis in (
                (dense, 1, None), (umbilical_config(grid=256, t_end=1.0), 0, None),
                (dense_cohomology_config(16), 1, None),
                (dense_cohomology_config(12), 0, None), (TAU_FLOW, 1, None),
                (sweep, 1, "cfl"), (sweep[:1], 0, "cfl"),
                ([umbilical_config(grid=g) for g in (32, 64, 128)], 0, "ds")):
            name = f"{axis}{len(cfg)}" if axis else cfg["scenario"]
            with _fork_counter() as forks:
                if axis:
                    report, code = sweep_configs(cfg, tmp_path / name, axis)
                else:
                    report, code = run(cfg, tmp_path / name, quiet=True)
            assert code == EXIT_OK, report.get("error")
            assert len(forks) == expected, name
            reports[name] = report
        assert reports["cohomology"]["results"]["modes_solved"] == 25 ** 3 - 1  # K = 12

    def test_scenario_tables_match_reference_rendering(self, tmp_path):
        """The text-keyed tables, each against its per-value rendering from
        data recomputed through the library."""
        flow = umbilical_config(grid=64, t_end=0.5, boundary="transmissive")
        flow["output"]["snapshot_stride"] = 1
        bireg = json.loads(json.dumps(BIREGULAR))
        revol = {"scenario": "revolution", "output": {"gnuplot": True}, "curve": {
            "kind": "constant_lambda", "x1_max": 2.0, "step": 2.5e-4}}
        for name, cfg in (("flow", flow), ("bireg", bireg), ("revol", revol)):
            assert run(cfg, tmp_path / name, quiet=True)[1] == EXIT_OK

        cfg = parse_config(flow)
        rows = []
        evolve_umbilical(
            UmbilicalProfile.from_function(cli._initial(cfg), 64, 1.0, "transmissive"),
            cli._functional(cfg), cli._control(cfg), record_every=1,
            on_snapshot=lambda q: rows.extend(
                (q.t, s, lam, phi) for s, lam, phi in zip(q.s, q.lam, q.phi)))
        assert len(rows) > 64 * 10  # ten snapshots or more
        tables = {"flow/timeseries.csv": (["t", "s", "lambda", "phi"], rows)}

        g00, g11, periodic0 = BIREGULAR_METRICS["exp_x0"]
        grid = BiregularGrid.from_functions(g00, g11, shape=(16, 16),
                                            lengths=(1.0, 1.0), periodic0=periodic0)
        lam = biregular_normal_curvature(grid)
        tables["bireg/curvature.csv"] = (["x0", "x1", "lambda"], [
            (a, b, lam[i, j]) for i, a in enumerate(grid.x0)
            for j, b in enumerate(grid.x1)])

        prof = integrate_constant_lambda(0.5, 2.0, 2.5e-4, 0.0)
        cmp = sectional_curvature_profile(prof, sectional_curvature_formula)
        fp = prof.dx1 / prof.dx0
        lam = fp / (prof.x1 * np.sqrt(1.0 + fp ** 2))
        assert prof.x0.size > 4096  # spans two chunks
        tables["revol/profile.csv"] = (
            ["x0", "x1", "g00", "g11", "lambda", "K_formula", "K_oracle"],
            zip(prof.x0, prof.x1, *profile_metric(prof), lam, cmp.formula, cmp.oracle))
        tables["revol/profile.dat"] = (None, zip(prof.x0, prof.x1))

        for name, (header, table) in tables.items():
            write_csv_reference(tmp_path / "reference", header, table,
                                sep=" " if name.endswith(".dat") else ",")
            assert (tmp_path / name).read_bytes() == (
                tmp_path / "reference").read_bytes(), name

    @pytest.mark.parametrize("grid", [8, 64])
    def test_snapshot_buffer_bounded(self, tmp_path, monkeypatch, grid):
        cfg = umbilical_config(grid=grid, t_end=0.1)
        cfg["output"]["snapshot_stride"] = 1
        report, code = run(cfg, tmp_path / "free", quiet=True)
        assert code == EXIT_OK
        snapshot = 16 * grid + cli.SNAPSHOT_OVERHEAD  # lam and phi per node
        snapshots = report["results"]["steps_recorded"]
        monkeypatch.setattr(cli, "SNAPSHOT_BUDGET", snapshots * snapshot)
        assert run(cfg, tmp_path / "at_budget", quiet=True)[1] == EXIT_OK
        monkeypatch.setattr(cli, "SNAPSHOT_BUDGET", snapshots * snapshot - 1)
        report, code = run(cfg, tmp_path / "over", quiet=True)
        assert code == EXIT_CONFIG
        assert report["error"].startswith(
            f"output.snapshot_stride: snapshot {snapshots} "), report["error"]
        assert not (tmp_path / "over" / "timeseries.csv").exists()


@contextlib.contextmanager
def _fork_counter(**cli_attrs):
    """Sets the given egf_lab.cli attributes and two usable CPUs; yields the
    list of the pids that cli._beside forks."""
    fork, forks = os.fork, []

    def counting():
        pid = fork()
        if pid:
            forks.append(pid)
        return pid

    with contextlib.ExitStack() as stack:
        for name, value in cli_attrs.items():
            stack.enter_context(mock.patch.object(cli, name, value))
        stack.enter_context(mock.patch.object(os, "sched_getaffinity",
                                              lambda pid: {0, 1}))
        stack.enter_context(mock.patch.object(os, "fork", counting))
        yield forks


def _half_lattice(dim: int, K: int) -> list[tuple[int, ...]]:
    """The modes 0 < u, |u|_inf <= K, in lexicographic order: one of each
    conjugate pair."""
    return [u for u in itertools.product(range(-K, K + 1), repeat=dim) if u > (0,) * dim]


@st.composite
def conjugate_tables(draw):
    """A cohomology config whose solution table holds every kind of row the
    CSV writer tells apart: pairs completed by the solver (exact mirrors),
    pairs given on both sides with the sign of a zero part flipped or off by
    a relative 2^-40 (within the solver's tolerance, not exact), a pair with
    one side below the energy floor (that side dropped: an even row count),
    signed zeros, and tables of the zero mode alone."""
    dim = draw(st.sampled_from([2, 3]))
    K = draw(st.integers(1, 3 if dim == 2 else 2))
    half = _half_lattice(dim, K)
    modes = half if draw(st.booleans()) else draw(  # a dense or a sparse mask
        st.lists(st.sampled_from(half), unique=True, max_size=6))
    lone = draw(st.sampled_from([None, *modes])) if draw(st.booleans()) else None
    part = st.sampled_from([0.0, -0.0, 1.0, -0.5, 1 / 3, 1e-300, -2.5e7])
    zero = [[0] * dim + [draw(part), 0.0]] if draw(st.booleans()) else []
    rows = []
    for u in modes:
        if u == lone:
            continue
        re, im, given = draw(part), draw(part), draw(st.sampled_from(
            ["one side", "both sides", "near"]))
        mirror = [-c for c in u]
        rows.append([*u, re, im])
        if given == "both sides":
            rows.append([*mirror, re, -im])  # -0.0 for 0.0: a signed zero
        elif given == "near":
            rows.append([*mirror, re * (1 + 2 ** -40), -im])
    if lone is not None:  # one side above the solver's floor 1e-13 scale
        scale = max([1.0] + [abs(x) for row in zero + rows for x in row[-2:]])
        rows += [[*lone, 1.5e-13 * scale, 0.0],
                 [*(-c for c in lone), 0.5e-13 * scale, 0.0]]
    v = [1.0, 2 ** 0.5, 3 ** 0.5][:dim]
    return {"scenario": "cohomology", "v": v, "K": K, "h": {"modes": zero + rows}}


def _count_formatted(monkeypatch) -> list[int]:
    """Wraps cli._lines: the list receives the number of float-typed values
    each call formats (text and integer columns are not counted)."""
    lines, counts = cli._lines, []

    def counting(columns, sep):
        counts.append(sum(len(c) for c in columns if c.dtype.kind == "f"))
        return lines(columns, sep)

    monkeypatch.setattr(cli, "_lines", counting)
    return counts


class TestFormattedOnce:
    """The CSV writer formats each conjugate pair of a solution table once and
    writes it twice; the bytes are those of the per-value reference."""

    @settings(derandomize=True, database=None, deadline=None, max_examples=100)
    @given(cfg=conjugate_tables())
    def test_solution_coeffs_match_reference(self, cfg):
        problem = TorusCohomologyProblem.from_modes(cfg["v"], cfg["h"]["modes"], cfg["K"])
        modes, coeffs = solve_linear_flow(problem).f_coeffs.arrays()
        header = [f"u{i + 1}" for i in range(len(cfg["v"]))] + ["re", "im"]
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            report, code = run(cfg, tmp / "out", quiet=True)
            assert code == EXIT_OK, report.get("error")
            write_csv_reference(tmp / "reference.csv", header, [
                (*u, c.real, c.imag) for u, c in zip(modes.tolist(), coeffs.tolist())])
            assert (tmp / "out" / "solution_coeffs.csv").read_bytes() == (
                tmp / "reference.csv").read_bytes()

    @settings(derandomize=True, database=None, deadline=None, max_examples=120)
    @given(data=st.data(), n=st.integers(0, 13))
    def test_conjugate_text_matches_reference(self, data, n):
        # the parts are edge floats, NaNs of both signs among them, and each
        # row past the middle is its twin's exact mirror or drawn on its own
        floats = st.lists(st.sampled_from(TestCsvWriter.EDGE_FLOATS),
                          min_size=n, max_size=n)
        values = np.empty(n, dtype=complex)
        values.real, values.imag = data.draw(floats), data.draw(floats)
        for k, twin in zip(range((n + 1) // 2, n), reversed(range(n // 2))):
            if data.draw(st.booleans()):
                values.real[k], values.imag[k] = values.real[twin], -values.imag[twin]
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            write_csv(tmp / "once.csv", ["re", "im"], [values])
            write_csv_reference(tmp / "reference.csv", ["re", "im"],
                                zip(values.real.tolist(), values.imag.tolist()))
            assert (tmp / "once.csv").read_bytes() == (tmp / "reference.csv").read_bytes()

    def test_conjugate_pairs_are_formatted_once(self, tmp_path, monkeypatch):
        counts = _count_formatted(monkeypatch)
        report, code = run(dense_cohomology_config(4, imag=0.5), tmp_path, quiet=True)
        assert code == EXIT_OK, report.get("error")
        # re and im of the 365 rows up to the zero mode of 9^3 = 729, and the
        # three float columns of amplification.csv, one row per shell 1..4
        assert sum(counts) == 2 * 365 + 3 * 4, counts


class TestRunScenarios:
    def test_umbilical_flow(self, tmp_path):
        report, code = run(umbilical_config(t_end=2.0, grid=256), tmp_path, quiet=True)
        assert code == EXIT_OK
        assert report["results"]["oracle_sup_error"] < 0.05
        csv = (tmp_path / "timeseries.csv").read_text()
        assert csv.startswith("t,s,lambda,phi\n")
        assert (tmp_path / "report.json").exists()

    def test_missing_grid_exits_2(self, tmp_path):
        cfg = umbilical_config()
        del cfg["numerics"]["grid"]
        report, code = run(cfg, tmp_path, quiet=True)
        assert code == EXIT_CONFIG
        assert "numerics.grid" in report["error"]

    def test_tau_flow(self, tmp_path):
        cfg = {
            "scenario": "tau-flow",
            "n": 3,
            "functional": {"name": "b1"},
            "initial": {"kind": "sine", "amplitude": 0.25, "mean": 0.5},
            "numerics": {"grid": 128, "t_end": 0.5},
        }
        report, code = run(cfg, tmp_path, quiet=True)
        assert code == EXIT_OK
        assert report["results"]["umbilicity_defect"] < 0.05
        assert report["results"]["scalar_match"] < 1e-6
        assert report["results"]["oracle_sup_error"] < 1e-2
        assert (tmp_path / "tau_final.csv").exists()
        report, code = run(_set(cfg, "numerics.boundary", "transmissive"),
                           tmp_path / "edge", quiet=True)
        assert code == EXIT_OK and report["results"]["oracle_sup_error"] is None

    def test_soliton_check(self, tmp_path):
        cfg = {
            "scenario": "soliton-check",
            "n": 2,
            "functional": {"name": "affine", "a": -2.0, "b": 0.5},
            "initial": {"kind": "constant", "value": 1.2},
            "numerics": {"grid": 64},
        }
        report, code = run(cfg, tmp_path, quiet=True)
        assert code == EXIT_OK
        assert report["results"]["verdict"] == "soliton"
        # psi = 3 lam - 0.3 at n = 3: mu is -(3/2) 3 exactly, at lam = 0 too
        cfg.update(n=3, functional={"name": "tau1_minus_c", "c": 0.3},
                   initial={"kind": "constant", "value": 0.0})
        report, code = run(cfg, tmp_path / "zero", quiet=True)
        assert code == EXIT_OK
        rows = (tmp_path / "zero" / "residuals.csv").read_text().splitlines()
        column = rows[0].split(",").index("mu")
        assert {row.split(",")[column] for row in rows[1:]} == {"-4.5"}

    def test_biregular_check(self, tmp_path):
        cfg = {
            "scenario": "biregular-check",
            "functional": {"name": "b1"},
            "metric": {"name": "exp_x0"},
            "eps": "auto",
            "numerics": {"grid0": 32, "grid1": 32},
        }
        # curvature.csv is written from the check's lam: one derivative pass
        derivative = mock.Mock(wraps=soliton_lab._axis_derivative)
        with mock.patch.object(soliton_lab, "_axis_derivative", derivative):
            report, code = run(cfg, tmp_path, quiet=True)
        assert code == EXIT_OK and derivative.call_count == 1
        assert report["results"]["verdict"] == "soliton"
        assert report["results"]["eps_used"] == pytest.approx(1.0, abs=1e-8)
        assert list(report["results"]["residual_linf"]) == ["R1_structure"]

    def test_ricci_classify(self, tmp_path):
        cfg = {"scenario": "ricci-classify", "n": 4, "tau1": 0.0, "r": 1.0}
        report, code = run(cfg, tmp_path, quiet=True)
        assert code == EXIT_OK
        spectra = report["results"]["spectra"]
        assert any(
            sp["roots"] == [1.0, -1.0] and sp["multiplicities"] == [2, 2]
            for sp in spectra
        )

    def test_cohomology_inline_modes(self, tmp_path):
        phi = (1 + np.sqrt(5)) / 2
        cfg = {
            "scenario": "cohomology",
            "v": [1.0, phi],
            "K": 4,
            "s": 1.0,
            "h": {"modes": [[0, 0, 3.0, 0.0], [1, -1, 0.5, 0.0], [-1, 1, 0.5, 0.0]]},
        }
        report, code = run(cfg, tmp_path, quiet=True)
        assert code == EXIT_OK
        assert report["results"]["eps"] == pytest.approx(3.0)
        assert report["results"]["residual"] <= 1e-10
        coeffs = (tmp_path / "solution_coeffs.csv").read_text().splitlines()
        assert coeffs[0] == "u1,u2,re,im"

    def test_cohomology_resonance_exits_4(self, tmp_path):
        cfg = {
            "scenario": "cohomology",
            "v": [1.0, 0.5],
            "K": 3,
            "h": {"modes": [[1, -2, 1.0, 0.0], [-1, 2, 1.0, 0.0]]},
        }
        report, code = run(cfg, tmp_path, quiet=True)
        assert code == EXIT_UNSOLVABLE
        assert "(1, -2)" in report["error"] or "(-1, 2)" in report["error"]

    def test_cohomology_grid_csv(self, tmp_path):
        M = 16
        x = np.arange(M) / M
        rows = ["x,y,value"]
        for xi in x:
            for yi in x:
                rows.append(f"{xi},{yi},{3.0 + np.cos(2 * np.pi * (xi - yi))}")
        csv_path = tmp_path / "h.csv"
        csv_path.write_text("\n".join(rows) + "\n")
        cfg = {
            "scenario": "cohomology",
            "v": [1.0, (1 + np.sqrt(5)) / 2],
            "K": 4,
            "h": {"grid_csv": str(csv_path)},
        }
        report, code = run(cfg, tmp_path / "out", quiet=True)
        assert code == EXIT_OK
        assert report["results"]["eps"] == pytest.approx(3.0, abs=1e-10)

    def test_revolution_constant_lambda(self, tmp_path):
        cfg = {
            "scenario": "revolution",
            "curve": {"kind": "constant_lambda", "x1_min": 0.5, "x1_max": 5.0,
                      "step": 1e-3},
            "output": {"gnuplot": True},
        }
        report, code = run(cfg, tmp_path, quiet=True)
        assert code == EXIT_OK
        assert report["results"]["curvature_max_abs_diff"] <= 1e-4
        assert report["results"]["closed_form_sup_error"] <= 1e-8
        assert (tmp_path / "profile.csv").exists()
        assert (tmp_path / "profile.dat").exists()

    def test_revolution_cone_compares_with_its_own_curvature(self, tmp_path):
        cfg = {"scenario": "revolution",
               "curve": {"kind": "cone", "beta": 0.5, "x0_min": 1.0, "x0_max": 5.0}}
        report, code = run(cfg, tmp_path, quiet=True)
        assert code == EXIT_OK
        assert report["results"]["curvature_max_abs_diff"] <= 1e-8
        table = np.loadtxt(tmp_path / "profile.csv", delimiter=",", skiprows=1)
        assert np.all(table[:, 5] == 0.0)  # K_formula of a cone

    def test_cone_check(self, tmp_path):
        cfg = {
            "scenario": "cone-check",
            "beta": np.pi / 6,
            "numerics": {"grid": 400, "t_end": 1.0},
        }
        report, code = run(cfg, tmp_path, quiet=True)
        assert code == EXIT_OK
        assert set(report["results"]) == {
            "beta", "t_end", "grid", "sup_err_lambda", "sup_err_phi_translated",
            "sup_err_phi_integral", "notes"}
        assert report["results"]["sup_err_lambda"] <= 1e-2
        header = (tmp_path / "cone_final.csv").read_text().splitlines()[0]
        assert header == "s,lambda_num,lambda_exact,phi_num,phi_translated,phi_integral"

    def test_blowup_exits_3(self, tmp_path):
        cfg = umbilical_config(t_end=50.0, max_steps=5)
        report, code = run(cfg, tmp_path, quiet=True)
        assert code == EXIT_BLOWUP
        assert "steps" in report["error"]


    @pytest.mark.parametrize("scenario", ["umbilical-flow", "tau-flow"])
    def test_underflowing_warping_exits_3(self, tmp_path, scenario):
        # tau-flow underflows in its scalar companion run
        cfg = {"scenario": scenario, "n": 2,
               "functional": {"name": "affine", "a": 0.0, "b": -1e4},
               "initial": {"kind": "sine", "amplitude": 0.1, "mean": 0.5},
               "numerics": {"grid": 64, "t_end": 1.0}}
        report, code = run(cfg, tmp_path, quiet=True)
        assert code == EXIT_BLOWUP
        assert report["error"].endswith("(last valid t = 0)")
        written = json.loads((tmp_path / "report.json").read_text())
        assert written["exit_status"] == EXIT_BLOWUP

    def test_overflowing_tau_step_exits_3(self, tmp_path):
        # the Newton extension to tau_4 overflows at lam ~ 1e80; over a length
        # of 1e100 the data crosses at t* ~ 4e19, so the first step runs
        cfg = {"scenario": "tau-flow", "n": 3, "functional": {"name": "ext_ricci"},
               "initial": {"kind": "sine", "amplitude": 1e79, "mean": 1e80},
               "numerics": {"grid": 32, "t_end": 0.01, "length": 1e100}}
        report, code = run(cfg, tmp_path / "long", quiet=True)
        assert code == EXIT_BLOWUP
        assert report["error"] == "non-finite power sums (last valid t = 0)"
        written = json.loads((tmp_path / "long" / "report.json").read_text())
        assert written["exit_status"] == EXIT_BLOWUP
        # over a unit length the same data crosses at t* ~ 4e-81: refused
        report, code = run(_set(cfg, "numerics.length", 1.0), tmp_path / "unit",
                           quiet=True)
        assert code == EXIT_UNSOLVABLE
        assert report["error"].startswith("characteristics crossed at t* = 3.97897e-81")

    @pytest.mark.parametrize("t_end", [5e-13, 1e-20, 1e-300])
    @pytest.mark.parametrize("cfg,collapses_from", [
        (_set(umbilical_config(grid=64), "functional", {"name": "umbilical_square"}),
         math.inf),
        (_set(umbilical_config(grid=64, boundary="transmissive"), "functional",
              {"name": "umbilical_square"}), math.inf),
        (_set(_set(json.loads(json.dumps(TAU_FLOW)), "n", 3), "functional",
              {"name": "ext_ricci"}), math.inf),
        (CONE, math.inf),
        # speed psi' / 2 ~ 1e150 over ds = 1/64: dt ~ 1.3e-152, a collapse
        # wherever that is at most 1e-15 t_end
        (_set(_set(umbilical_config(grid=64), "functional", {"name": "umbilical_square"}),
              "initial", {"kind": "sine", "amplitude": 1e149, "mean": 1e150}), 1.3e-137),
    ], ids=["umbilical", "umbilical-transmissive", "tau", "cone", "umbilical-fast"])
    def test_tiny_t_end_is_reached_or_collapses(self, tmp_path, cfg, collapses_from,
                                                t_end):
        # the march's end tolerance and its collapse floor are relative to
        # t_end, so a positive t_end however small takes a step
        cfg = _set(json.loads(json.dumps(cfg)), "numerics.t_end", t_end)
        with mock.patch.object(flow_engine, "step_umbilical",
                               wraps=flow_engine.step_umbilical) as scalar, \
                mock.patch.object(flow_engine, "step_tau_system",
                                  wraps=flow_engine.step_tau_system) as tau:
            report, code = run(cfg, tmp_path, quiet=True)
        if t_end >= collapses_from:
            assert code == EXIT_BLOWUP, report
            assert report["error"].startswith("time step collapsed to "), report["error"]
            return
        assert code == EXIT_OK, report.get("error")
        assert scalar.call_count + tau.call_count >= 1
        results = report["results"]
        # cone-check reports the t_end its oracle is evaluated at
        reached = results["final_time" if "final_time" in results else "t_end"]
        assert reached == pytest.approx(t_end, rel=1e-12, abs=0)

    def test_tiny_t_end_is_judged_at_t_end(self, tmp_path):
        # psi = 2e11 lam translates lam0 = sin 2 pi s by 1e11 t: 0.05 by
        # t_end = 5e-13, where the march used to take no step and report the
        # initial data with oracle_sup_error 0
        cfg = _set(umbilical_config(grid=256, t_end=5e-13), "functional",
                   {"name": "affine", "a": 2e11, "b": 0.0})
        report, code = run(cfg, tmp_path, quiet=True)
        assert code == EXIT_OK, report.get("error")
        assert report["results"]["final_time"] == 5e-13
        assert 0 < report["results"]["oracle_sup_error"] < 1e-3
        # umbilical_square from amplitude 1e10 about 1e11: phi = exp(int psi / 2)
        # reaches about exp(2.5e9) by t_end, so the first step overflows it
        cfg = _set(_set(umbilical_config(grid=256, t_end=5e-13), "functional",
                        {"name": "umbilical_square"}),
                   "initial", {"kind": "sine", "amplitude": 1e10, "mean": 1e11})
        report, code = run(cfg, tmp_path / "square", quiet=True)
        assert code == EXIT_BLOWUP, report
        assert report["error"] == "non-finite or zero warping factor (last valid t = 0)"

    def test_oracle_refuses_a_state_short_of_t_end(self):
        F = make_functional("b1", 2)
        lam0 = lambda s: np.sin(2 * np.pi * s)
        p = UmbilicalProfile.from_function(lam0, 64, 1.0)
        assert cli._oracle_sup_error(lam0, F, p, p.lam, 1.0, 0.0) == 0.0
        with pytest.raises(RuntimeError, match=r"stopped at t = 0\.0, short of t_end = 0\.5"):
            cli._oracle_sup_error(lam0, F, p, p.lam, 1.0, 0.5)

    @pytest.mark.parametrize("n", [2, 3, 4, 6])
    def test_tau_flow_past_crossing_exits_4(self, tmp_path, n):
        # psi = -2 (n - 1) lam^2 and lam0 = 0.5 + 0.25 sin 2 pi s: d_s(psi'(lam0)/2)
        # = -(n - 1) pi cos 2 pi s, so characteristics cross at t* = 1 / ((n - 1) pi),
        # before t = 0.5; the run is refused before either march
        cfg = {"scenario": "tau-flow", "n": n, "functional": {"name": "ext_ricci"},
               "initial": {"kind": "sine", "amplitude": 0.25, "mean": 0.5},
               "numerics": {"grid": 256, "t_end": 0.5, "cfl": 0.5}}
        with mock.patch.object(flow_engine, "step_tau_system",
                               wraps=flow_engine.step_tau_system) as step:
            report, code = run(cfg, tmp_path, quiet=True)
        assert code == EXIT_UNSOLVABLE, report
        assert report["error"].startswith("characteristics crossed at t* = "), report
        sampled = float(report["error"].split("t* = ")[1].split(" <= t = 0.5")[0])
        assert sampled == pytest.approx(1.0 / ((n - 1) * math.pi), abs=1e-5)
        assert step.call_count == 0

    @pytest.mark.parametrize("boundary", ["periodic", "transmissive"])
    def test_umbilical_flow_past_crossing_notes_t_star(self, tmp_path, boundary):
        # psi = lam^2 and lam0 = 0.5 sin 2 pi s: d_s(psi'(lam0)/2) = pi cos 2 pi s,
        # so characteristics cross at t* = 1 / pi; the conservative march goes on
        cfg = umbilical_config(grid=256, t_end=1.0, boundary=boundary)
        cfg["functional"] = {"name": "umbilical_square"}
        cfg["initial"]["amplitude"] = 0.5
        report, code = run(cfg, tmp_path, quiet=True)
        assert code == EXIT_OK, report.get("error")
        assert report["results"]["oracle_sup_error"] is None
        note = report["results"]["oracle_note"]
        assert note.startswith("characteristics crossed at t* = "), note
        sampled = float(note.split("t* = ")[1].split(" <= t = 1")[0])
        assert sampled == pytest.approx(1.0 / math.pi, rel=1e-5)

    @pytest.mark.parametrize("n", [2, 3])
    def test_transmissive_tau_flow_past_crossing_exits_4(self, tmp_path, n):
        # psi = -2 (n - 1) lam^2 and lam0 = sin 2 pi s: d_s(psi'(lam0)/2) =
        # -4 pi (n - 1) cos 2 pi s, so characteristics cross at t* = 1 / (4 pi (n - 1))
        t_star = 1.0 / (4.0 * math.pi * (n - 1))
        cfg = {"scenario": "tau-flow", "n": n, "functional": {"name": "ext_ricci"},
               "initial": {"kind": "sine"},
               "numerics": {"grid": 256, "t_end": 0.5, "cfl": 0.5,
                            "boundary": "transmissive"}}
        report, code = run(cfg, tmp_path / "past", quiet=True)
        assert code == EXIT_UNSOLVABLE, report
        assert report["error"].startswith("characteristics crossed at t* = "), report
        sampled = float(report["error"].split("t* = ")[1].split(" <= t = 0.5")[0])
        assert sampled == pytest.approx(t_star, rel=1e-5)
        report, code = run(_set(cfg, "numerics.t_end", t_star / 2), tmp_path / "before",
                           quiet=True)
        assert code == EXIT_OK, report.get("error")
        assert report["results"]["oracle_sup_error"] is None

    @pytest.mark.parametrize("name,grid,eps", [
        ("ext_ricci", 32, "auto"), ("umbilical_square", 32, "auto"), ("b1", 8, 1e308)])
    def test_finite_soliton_residuals_have_finite_norms(self, tmp_path, name, grid, eps):
        # their squares overflow; their root mean squares do not
        cfg = {"scenario": "soliton-check", "n": 2, "functional": {"name": name},
               "initial": {"kind": "sine", "amplitude": 1e79, "mean": 1e80},
               "numerics": {"grid": grid}, "eps": eps}
        report, code = run(cfg, tmp_path, quiet=True)
        assert code == EXIT_OK, report.get("error")
        assert report["results"]["verdict"] == "not_soliton"
        assert all(0 <= v < math.inf for v in report["results"]["residual_l2"].values())

    def test_overflowing_total_variation_exits_3(self, tmp_path):
        # the guard's sum overflows to inf, silently; the step reports the blow-up
        cfg = umbilical_config(grid=32, t_end=0.1)
        cfg["initial"]["amplitude"] = 1e308
        report, code = run(cfg, tmp_path, quiet=True)
        assert code == EXIT_BLOWUP, report.get("error")
        assert report["error"].startswith("non-finite"), report["error"]

    @pytest.mark.parametrize("initial", [{"kind": "random_fourier", "modes": 31},
                                         {"kind": "sine", "periods": -31}])
    def test_modes_just_below_nyquist_run(self, tmp_path, initial):
        cfg = _set(umbilical_config(grid=64, t_end=0.05), "initial", initial)
        report, code = run(cfg, tmp_path, quiet=True)
        assert code == EXIT_OK, report.get("error")

    @pytest.mark.parametrize(
        "cfg,verdict", SPACING_VERDICTS,
        ids=[f"{c['scenario']}:{c.get('metric', {}).get('name', '')}:{c['numerics']}:"
             f"{c.get('eps', 'auto')}" for c, _ in SPACING_VERDICTS])
    def test_verdict_at_any_spacing(self, tmp_path, cfg, verdict):
        report, code = run(cfg, tmp_path, quiet=True)
        assert code == EXIT_OK, report.get("error")
        assert report["results"]["verdict"] == verdict
        assert 0 <= report["results"]["tol"] < math.inf

    @pytest.mark.parametrize("mean", [1e110, 1e160])
    def test_overflowing_initial_power_sums_name_initial(self, tmp_path, mean):
        cfg = {"scenario": "tau-flow", "n": 3, "functional": {"name": "b1"},
               "initial": {"kind": "sine", "amplitude": 0.1, "mean": mean},
               "numerics": {"grid": 32, "t_end": 0.1}}
        report, code = run(cfg, tmp_path, quiet=True)
        assert code == EXIT_CONFIG
        assert report["error"].startswith("initial: "), report["error"]
        assert json.loads((tmp_path / "report.json").read_text())["exit_status"] == (
            EXIT_CONFIG)

class TestDeterminism:
    def test_identical_configs_identical_csvs(self, tmp_path):
        cfg = umbilical_config(grid=128, t_end=0.5)
        cfg["initial"] = {"kind": "random_fourier", "amplitude": 0.5, "modes": 3,
                          "seed": 7}
        run(cfg, tmp_path / "a", quiet=True)
        run(cfg, tmp_path / "b", quiet=True)
        a = (tmp_path / "a" / "timeseries.csv").read_bytes()
        b = (tmp_path / "b" / "timeseries.csv").read_bytes()
        assert a == b

    @pytest.mark.parametrize("cfg,non_finite", [
        (umbilical_config(grid=64, t_end=0.25), False),
        (dense_cohomology_config(3), False),
        (RICCI, True),  # its handler replaced by one returning NaN and infinities
    ], ids=["flow", "cohomology_3d", "non_finite_results"])
    def test_report_is_one_line_of_sorted_json(self, tmp_path, monkeypatch, cfg,
                                               non_finite):
        if non_finite:
            monkeypatch.setitem(cli.HANDLERS, "ricci-classify", lambda cfg: (
                {"a": math.nan, "b": [math.inf, -np.inf], "c": np.float32("nan")}, []))
        report, code = run(cfg, tmp_path, quiet=True)
        assert code == EXIT_OK, report.get("error")
        text = (tmp_path / "report.json").read_text()
        assert text.endswith("}\n") and text.count("\n") == 1
        written = json.loads(text, parse_constant=_not_json)  # strict: no NaN token
        assert text == json.dumps(written, sort_keys=True) + "\n"
        assert written["config"] == cfg
        if non_finite:
            assert written["results"] == {"a": "nan", "b": ["inf", "-inf"], "c": "nan"}

    def test_config_echo_reruns_identically(self, tmp_path):
        cfg = umbilical_config(grid=64, t_end=0.25)
        report, _ = run(cfg, tmp_path / "a", quiet=True)
        echoed = json.loads((tmp_path / "a" / "report.json").read_text())["config"]
        run(echoed, tmp_path / "b", quiet=True)
        a = (tmp_path / "a" / "timeseries.csv").read_bytes()
        b = (tmp_path / "b" / "timeseries.csv").read_bytes()
        assert a == b


def _not_json(token):
    raise ValueError(f"{token} is not a JSON value")


def _contains_itself(cfg: dict) -> dict:
    cfg["extra"] = cfg
    return cfg


# values json cannot hold as they stand: refused (exit 2) or read as numbers;
# repr and json refuse an int past the int-to-str digit limit, and a config
# that contains itself has no finite JSON text
PYTHON_VALUES = [
    (_set(dict(RICCI), "tau1", Fraction(1, 2)), EXIT_OK, "tau1", 0.5),
    (_set(dict(RICCI), "extra", object()), EXIT_CONFIG, "extra", "<object object"),
    (_set(dict(RICCI), "tau1", Fraction(10 ** 400)), EXIT_CONFIG, "tau1",
     "Fraction(1000"),
    (_set(dict(RICCI), "n", 10 ** 5000), EXIT_CONFIG, "n", "an int of 16610 bits"),
    (_contains_itself(dict(RICCI)), EXIT_CONFIG, "extra",
     "a container that contains itself"),
    (_set(dict(RICCI), "extra", {10 ** 5000}), EXIT_CONFIG, "extra",
     "a set holding an int too long to print"),
]
# configs whose keys json spells or sorts otherwise than str(key) does, with
# NaN and numpy values: each report must equal the walk-then-dump reference
REFERENCE_CONFIGS = {
    "bool_key": {True: 1},
    "none_key": {None: {"x": 1}},
    "int_keys": {1: "a", 10: "b", 2: "c"},
    "nested_keys": {**RICCI, "extra": [{True: 0}, {None: 1}, {1: 0, 10: 0, 2: 0}]},
    "mixed_keys": {**RICCI, 3: "x", "b": 1, None: 2},
    "nan": {**RICCI, "r": math.nan},
    "nan_unknown_key": {**RICCI, "extra": [math.nan, -math.inf, np.float64("inf")]},
    "numpy_accepted": {"scenario": "ricci-classify", "n": np.int64(4),
                       "tau1": np.float32(0.1), "r": np.float64(1.0)},
    "numpy_refused": {**RICCI, "extra": [np.bool_(True), np.arange(3),
                                         np.array([[0.5, np.nan]])]},
    "cohomology_3d": dense_cohomology_config(2),
}


class TestReportWriter:
    """report.json holds strict JSON for every input, byte for byte what the
    walk-then-dump writer in tests/oracles.py gives."""

    @pytest.mark.parametrize("cfg,code,key,echo", PYTHON_VALUES,
                             ids=["fraction", "object", "huge_fraction", "huge_int",
                                  "contains_itself", "set_of_huge_int"])
    def test_run_writes_report_for_any_python_value(self, tmp_path, cfg, code, key,
                                                    echo):
        report, got = run(cfg, tmp_path, quiet=True)
        assert got == code, report.get("error")
        written = json.loads((tmp_path / "report.json").read_text(),
                             parse_constant=_not_json)
        assert written["exit_status"] == code
        assert code == EXIT_OK or written["error"].startswith(f"{key}: "), written
        value = written["config"][key]
        assert value == echo if code == EXIT_OK else value.startswith(echo)

    def test_run_writes_report_for_a_deeply_nested_config(self, tmp_path):
        # json reads 600 levels; the walk of the echo runs out of stack
        cfg = {**RICCI, "extra": json.loads("[" * 600 + "]" * 600)}
        report, code = run(cfg, tmp_path, quiet=True)
        assert code == EXIT_CONFIG
        assert report["error"].startswith("extra: unknown key"), report["error"]
        written = json.loads((tmp_path / "report.json").read_text())
        assert written["config"] == "a config nested too deep to echo"

    @pytest.mark.parametrize("name", REFERENCE_CONFIGS)
    def test_report_matches_reference(self, tmp_path, name):
        report, code = run(REFERENCE_CONFIGS[name], tmp_path, quiet=True)
        assert code in (EXIT_OK, EXIT_CONFIG), report.get("error")
        write_json_reference(tmp_path / "reference.json", report)  # same wall_time_s
        assert (tmp_path / "report.json").read_bytes() == (
            tmp_path / "reference.json").read_bytes()

    @settings(derandomize=True, database=None, deadline=None, max_examples=300)
    @given(st.recursive(
        st.one_of(
            st.none(), st.booleans(), st.integers(), st.text(max_size=3),
            st.floats(allow_nan=True, allow_infinity=True),
            st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf]),
            st.floats(width=32).map(np.float32), st.integers(-2 ** 63, 2 ** 63 - 1).map(
                np.int64), st.booleans().map(np.bool_),
            st.lists(st.floats(), max_size=4).map(np.array),
            st.lists(st.integers(-9, 9), max_size=4).map(
                lambda v: np.array(v, dtype=np.int64).reshape(-1, 1)),
        ),
        lambda children: st.one_of(
            st.lists(children, max_size=4), st.lists(children, max_size=3).map(tuple),
            st.dictionaries(st.text(max_size=3), children, max_size=4)),
        max_leaves=20,
    ))
    def test_writer_matches_reference_bytes(self, obj):
        with tempfile.TemporaryDirectory() as tmp:
            cli._write_json(Path(tmp) / "a.json", obj)
            write_json_reference(Path(tmp) / "b.json", obj)
            assert (Path(tmp) / "a.json").read_bytes() == (
                Path(tmp) / "b.json").read_bytes()

    @pytest.mark.parametrize("name", [*REFERENCE_CONFIGS, "non_finite_results"])
    def test_report_matches_reference_with_the_echo_forked(self, tmp_path, monkeypatch,
                                                           name):
        # every accepted config forks its echo at _FORK_CELLS = 0
        if name == "non_finite_results":
            monkeypatch.setitem(cli.HANDLERS, "cohomology", lambda cfg: (
                {"a": math.nan, "b": [math.inf, -np.inf], "c": np.float32("nan")}, []))
        cfg = REFERENCE_CONFIGS.get(name, dense_cohomology_config(2))
        with _fork_counter(_FORK_CELLS=0) as forks:
            report, code = run(cfg, tmp_path, quiet=True)
        assert code in (EXIT_OK, EXIT_CONFIG), report.get("error")
        assert len(forks) == (code == EXIT_OK)
        write_json_reference(tmp_path / "reference.json", report)
        assert (tmp_path / "report.json").read_bytes() == (
            tmp_path / "reference.json").read_bytes()
        assert sorted(p.name for p in tmp_path.iterdir() if p.suffix != ".csv") == [
            "reference.json", "report.json"]

    def test_failing_echo_child_leaves_the_echo_to_run(self, tmp_path, monkeypatch):
        parent, encode = os.getpid(), cli._json_text

        def failing(obj):
            if os.getpid() != parent:
                raise MemoryError("the child ran out of memory")
            return encode(obj)

        monkeypatch.setattr(cli, "_json_text", failing)
        with _fork_counter(_FORK_CELLS=0) as forks:
            report, code = run(dense_cohomology_config(2), tmp_path, quiet=True)
        assert code == EXIT_OK and len(forks) == 1, report.get("error")
        write_json_reference(tmp_path / "reference.json", report)
        assert (tmp_path / "report.json").read_bytes() == (
            tmp_path / "reference.json").read_bytes()
        assert not list(tmp_path.glob("*.part"))

    def test_failing_tables_kill_the_echo_child(self, tmp_path, monkeypatch):
        parent, encode = os.getpid(), cli._json_text

        def slow(obj):  # the child would take a minute
            if os.getpid() != parent:
                time.sleep(60)
            return encode(obj)

        def full(path, header, columns, tee=None):
            raise OSError("no space left on the device")

        monkeypatch.setattr(cli, "_json_text", slow)
        monkeypatch.setattr(cli, "write_csv", full)
        cfg = dense_cohomology_config(2)
        started = time.monotonic()
        with _fork_counter(_FORK_CELLS=0) as forks:
            report, code = run(cfg, tmp_path, quiet=True)
        assert time.monotonic() - started < 30  # killed, not waited for
        assert code == EXIT_INTERNAL and len(forks) == 1
        assert report["error"] == "internal error: OSError: no space left on the device"
        assert json.loads((tmp_path / "report.json").read_text())["config"] == cfg
        assert [p.name for p in tmp_path.iterdir()] == ["report.json"]

    @pytest.mark.parametrize("error,code", [
        (FlowBlowUpError("non-finite power sums", 0.0), EXIT_BLOWUP),
        (ResonanceError("resonant", (1, 0, 0)), EXIT_UNSOLVABLE),
        (RuntimeError("boom"), EXIT_INTERNAL),
    ], ids=["exit_3", "exit_4", "exit_5"])
    def test_handler_errors_echo_without_a_fork(self, tmp_path, monkeypatch, error, code):
        def failing(cfg):
            raise error

        monkeypatch.setitem(cli.HANDLERS, "cohomology", failing)
        cfg = dense_cohomology_config(2)
        with _fork_counter(_FORK_CELLS=0) as forks:
            report, got = run(cfg, tmp_path, quiet=True)
        assert got == code and not forks, report.get("error")
        assert json.loads((tmp_path / "report.json").read_text())["config"] == cfg
        write_json_reference(tmp_path / "reference.json", report)
        assert (tmp_path / "report.json").read_bytes() == (
            tmp_path / "reference.json").read_bytes()

    @pytest.mark.parametrize("cfg", [
        _set(dense_cohomology_config(2), "extra", 1),  # refused by the parse
        _set(dense_cohomology_config(2), "h.grid_csv", "h.csv"),  # by the handler
    ], ids=["parse", "handler"])
    def test_refused_config_never_forks(self, tmp_path, cfg):
        with _fork_counter(_FORK_CELLS=0) as forks:
            report, code = run(cfg, tmp_path, quiet=True)
        assert code == EXIT_CONFIG and not forks, report.get("error")
        assert json.loads((tmp_path / "report.json").read_text())["config"] == cfg

    def test_no_handler_mutates_its_config(self, tmp_path):
        # a forked child encodes the config as it stands when the tables are
        # written, this process as it stands at the end
        for cfg in (umbilical_config(grid=32, t_end=0.1), TAU_FLOW, SOLITON, BIREGULAR,
                    RICCI, COHOMOLOGY, dense_cohomology_config(2), CONSTANT_LAMBDA,
                    REVOLUTION, CONE):
            before = json.dumps(cfg, sort_keys=True)
            report, code = run(cfg, tmp_path / cfg["scenario"], quiet=True)
            assert code == EXIT_OK, report.get("error")
            assert json.dumps(cfg, sort_keys=True) == before, cfg["scenario"]
        assert {cfg["scenario"] for cfg in (
            TAU_FLOW, SOLITON, BIREGULAR, RICCI, COHOMOLOGY, REVOLUTION, CONE)} | {
            "umbilical-flow"} == set(cli.HANDLERS)

    def test_config_echo_is_not_walked(self, tmp_path, monkeypatch):
        # the encoder reads an accepted config's mode table as it stands: the
        # conversions are as many at K = 4 (365 rows) as at K = 8 (2,457)
        walk, calls = cli._jsonable, []

        def counted(obj):
            calls.append(type(obj))
            return walk(obj)

        monkeypatch.setattr(cli, "_jsonable", counted)
        counts = []
        for K in (4, 8):
            calls.clear()
            report, code = run(dense_cohomology_config(K), tmp_path / str(K), quiet=True)
            assert code == EXIT_OK, report.get("error")
            counts.append(len(calls))
        assert counts[0] == counts[1], counts


class TestSweep:
    def test_ds_sweep_fits_first_order(self, tmp_path):
        configs = [umbilical_config(grid=g, t_end=1.0) for g in (64, 128, 256, 512)]
        aggregate, code = sweep_configs(configs, tmp_path, "ds")
        assert code == EXIT_OK
        assert 0.9 <= aggregate["fitted_order"] <= 1.2
        assert (tmp_path / "sweep.csv").exists()

    def test_ds_is_the_node_spacing_of_each_member(self, tmp_path):
        # a cone-check grid is transmissive: G nodes over the domain are
        # length / (G - 1) apart, not length / G
        configs = [_set(json.loads(json.dumps(CONE)), "numerics.grid", g)
                   for g in (16, 32, 64)]
        aggregate, code = sweep_configs(configs, tmp_path, "ds")
        assert code == EXIT_OK
        rows = np.loadtxt(tmp_path / "sweep.csv", delimiter=",", skiprows=1, ndmin=2)
        for idx, (ds, grid, err, status) in enumerate(rows):
            assert status == EXIT_OK
            s = np.loadtxt(tmp_path / f"run_{idx:03d}" / "cone_final.csv",
                           delimiter=",", skiprows=1, usecols=0)
            assert s.size == grid and ds == s[1] - s[0], (idx, ds, s[1] - s[0])
        assert ds == pytest.approx(4.0 / 63)
        assert aggregate["fitted_order"] == pytest.approx(
            np.polyfit(np.log(rows[:, 0]), np.log(rows[:, 2]), 1)[0])

    def test_single_config_no_fit(self, tmp_path):
        aggregate, _ = sweep_configs([umbilical_config(grid=64)], tmp_path, "ds")
        assert "fitted_order" not in aggregate
        assert aggregate["runs"] == 1

    def test_no_configs_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="sweep: no configs"):
            sweep_configs([], tmp_path, "ds")

    @pytest.mark.parametrize("axis,message", [
        ("ds", "sweep: scenario soliton-check has no refinement error metric"),
        ("cfl", "sweep: scenario soliton-check has no numerics.cfl"),
    ])
    def test_axis_the_scenario_lacks_rejected(self, tmp_path, axis, message):
        with pytest.raises(ConfigError, match=message):
            sweep_configs([SOLITON], tmp_path / "sweep", axis)
        assert not (tmp_path / "sweep").exists()

    def test_malformed_member_rejected_before_any_run(self, tmp_path):
        configs = [umbilical_config(grid=64), umbilical_config(grid=64.5)]
        with pytest.raises(ConfigError, match="numerics.grid"):
            sweep_configs(configs, tmp_path / "sweep", "ds")
        assert not (tmp_path / "sweep").exists()

    def test_inconsistent_configs_rejected(self, tmp_path):
        a = umbilical_config(grid=64)
        b = umbilical_config(grid=128)
        b["functional"] = {"name": "umbilical_square"}
        with pytest.raises(ConfigError, match="outside the numerics"):
            sweep_configs([a, b], tmp_path, "ds")

    @pytest.mark.parametrize("key,value,message", [
        ("cfl", 1.5, "numerics.cfl: must lie in (0, 1]"),
        ("cfl", 0.0, "numerics.cfl: must lie in (0, 1]"),
        ("t_end", -1.0, "numerics.t_end: must be finite and >= 0, got -1.0"),
    ])
    def test_refused_step_control_rejected_before_any_run(self, tmp_path, key, value,
                                                          message):
        # the step control is checked at the parse, so no member runs
        configs = [umbilical_config(grid=64), umbilical_config(grid=64, **{key: value})]
        with pytest.raises(ConfigError) as err:
            sweep_configs(configs, tmp_path / "sweep", "cfl")
        assert str(err.value) == message
        assert not (tmp_path / "sweep").exists()

    @pytest.mark.parametrize("cfls,split", [
        ([0.2, 0.4, 0.6, 0.8, 1.0], 1), ([0.5] * 4, 2), ([0.5], 0), ([1.0, 0.2], 1),
        ([0.5, 0.9, 0.7], 1), ([1.0, 1.0, 0.25], 2), ([0.25, 1.0, 1.0], 1)])
    def test_cost_split_balances_the_sums_of_one_over_cfl(self, cfls, split):
        # members [0, split) run here and [split, m) in the child; of the
        # five points 0.2..1.0 the first carries 5 of 11.4 cost units
        assert cli._cost_split(cfls) == split

    def test_cfl_sweep_reports_stability(self, tmp_path):
        configs = [umbilical_config(grid=64, t_end=0.5, cfl=c) for c in (0.4, 0.8, 1.0)]
        aggregate, _ = sweep_configs(configs, tmp_path, "cfl")
        assert aggregate["largest_stable_cfl"] == pytest.approx(1.0)


def _tau_config(n: int, name: str, boundary: str) -> dict:
    cfg = _set(_set(json.loads(json.dumps(TAU_FLOW)), "n", n), "functional", {"name": name})
    return _set(cfg, "numerics.boundary", boundary)


# (name, configs, axis): every tau-flow slot periodic and transmissive, a cfl
# sweep with a member past t* (exit 4), a tau-flow ds sweep whose finest
# member runs out of steps (exit 3)
SECOND_PROCESS_RUNS = [
    *((f"tau-{name}-n{n}-{boundary}", [_tau_config(n, name, boundary)], None)
      for n, name in ((3, "b1"), (4, "b1"), (3, "ext_ricci"))
      for boundary in ("periodic", "transmissive")),
    ("sweep-cfl", [_set(_tau_config(3, "ext_ricci", "periodic"), "numerics.cfl", c)
                   for c in (0.5, 0.9)]
     + [_set(_set(_tau_config(3, "ext_ricci", "periodic"), "numerics.cfl", 0.7),
             "numerics.t_end", 10.0)], "cfl"),
    ("sweep-ds", [_set(_set(_tau_config(3, "b1", "periodic"), "numerics.grid", g),
                       "numerics.max_steps", 4) for g in (64, 128, 256)], "ds"),
]


def _invoke(configs: list, axis, outdir: Path) -> list[int]:
    """Runs one config (axis None) or sweeps several; the exit statuses."""
    if axis is None:
        return [run(configs[0], outdir, quiet=True)[1]]
    aggregate, _ = sweep_configs(configs, outdir, axis)
    return [r["exit_status"] for r in aggregate["reports"]]


def _written(outdir: Path) -> dict:
    """Every file under outdir, each report.json as its results, error and
    exit status (its wall time differs from run to run)."""
    files = {}
    for path in sorted(outdir.rglob("*")):
        if path.name == "report.json":
            report = json.loads(path.read_text())
            files[str(path.relative_to(outdir))] = [
                report.get(k) for k in ("results", "error", "exit_status")]
        elif path.is_file():
            files[str(path.relative_to(outdir))] = path.read_bytes()
    return files


@contextlib.contextmanager
def _one_cpu():
    with mock.patch.object(os, "sched_getaffinity", lambda pid: {0}), \
            mock.patch.object(os, "fork", mock.Mock(side_effect=AssertionError)):
        yield


class TestSecondProcess:
    """A tau-flow's umbilical companion, the second half of a cfl sweep, a
    large echo and the second half of a large table run in a forked child,
    one child at a time; a failed child leaves its work to this process.
    The bytes are those of one process."""

    @pytest.mark.parametrize("name,configs,axis", SECOND_PROCESS_RUNS,
                             ids=[r[0] for r in SECOND_PROCESS_RUNS])
    def test_one_cpu_and_two_write_the_same(self, tmp_path, name, configs, axis):
        with _one_cpu():
            codes = _invoke(configs, axis, tmp_path / "one")
        with _fork_counter() as forks:
            assert _invoke(configs, axis, tmp_path / "two") == codes
        # a ds sweep runs its members here, and each forks its companion
        assert len(forks) == (3 if axis == "ds" else 1)
        assert codes == {"sweep-cfl": [0, 0, EXIT_UNSOLVABLE],
                         "sweep-ds": [0, 0, EXIT_BLOWUP]}.get(name, [0])
        assert _written(tmp_path / "one") == _written(tmp_path / "two")

    @pytest.mark.parametrize("axis", [None, "cfl"], ids=["companion", "sweep"])
    def test_failing_child_leaves_its_work_to_run(self, tmp_path, monkeypatch, axis):
        parent, target = os.getpid(), "evolve_umbilical" if axis is None else "run"
        work = getattr(cli, target)

        def failing(*args, **kwargs):
            if os.getpid() != parent:
                raise MemoryError("the child ran out of memory")
            return work(*args, **kwargs)

        configs = ([_tau_config(3, "ext_ricci", "periodic")] if axis is None
                   else SECOND_PROCESS_RUNS[-2][1])
        with _one_cpu():
            codes = _invoke(configs, axis, tmp_path / "one")
        monkeypatch.setattr(cli, target, failing)
        with _fork_counter() as forks:
            assert _invoke(configs, axis, tmp_path / "two") == codes
        # the sweep's second half, run here once its child is reaped, forks
        # the companion of its one member that marches
        assert len(forks) == (1 if axis is None else 2)
        assert _written(tmp_path / "one") == _written(tmp_path / "two")

    def test_cfl_sweep_child_runs_the_members_from_the_cost_split_on(
            self, tmp_path, monkeypatch):
        # five points 0.2..1.0: member 0 runs here, members 1-4 in the child
        log, real = tmp_path / "runs.log", cli.run

        def logged(config, outdir, quiet=False):
            with open(log, "a") as fh:
                fh.write(f"{os.getpid()} {Path(outdir).name}\n")
            return real(config, outdir, quiet)

        configs = [umbilical_config(grid=32, t_end=0.2, cfl=c)
                   for c in (0.2, 0.4, 0.6, 0.8, 1.0)]
        with _one_cpu():
            sweep_configs(configs, tmp_path / "one", "cfl")
        monkeypatch.setattr(cli, "run", logged)
        with _fork_counter() as forks:
            sweep_configs(configs, tmp_path / "two", "cfl")
        ran = [line.split() for line in log.read_text().splitlines()]
        assert len(forks) == 1 and sorted(name for _, name in ran) == [
            f"run_{idx:03d}" for idx in range(5)]
        assert [name for pid, name in ran if int(pid) == forks[0]] == [
            f"run_{idx:03d}" for idx in range(1, 5)]
        assert [name for pid, name in ran if int(pid) == os.getpid()] == ["run_000"]
        assert _written(tmp_path / "one") == _written(tmp_path / "two")

    def test_failed_fork_leaves_the_work_to_run(self, tmp_path):
        cfg = _tau_config(4, "b1", "transmissive")
        with _one_cpu():
            run(cfg, tmp_path / "one", quiet=True)
        with mock.patch.object(os, "sched_getaffinity", lambda pid: {0, 1}), \
                mock.patch.object(os, "fork", mock.Mock(side_effect=BlockingIOError)):
            assert run(cfg, tmp_path / "two", quiet=True)[1] == EXIT_OK
        assert _written(tmp_path / "one") == _written(tmp_path / "two")

    def test_failing_tau_march_kills_the_companion(self, tmp_path, monkeypatch):
        # the Newton extension to tau_4 overflows on the first step (see
        # test_overflowing_tau_step_exits_3); the companion would take a minute
        parent, evolve = os.getpid(), cli.evolve_umbilical

        def slow(*args, **kwargs):
            if os.getpid() != parent:
                time.sleep(60)
            return evolve(*args, **kwargs)

        monkeypatch.setattr(cli, "evolve_umbilical", slow)
        cfg = {"scenario": "tau-flow", "n": 3, "functional": {"name": "ext_ricci"},
               "initial": {"kind": "sine", "amplitude": 1e79, "mean": 1e80},
               "numerics": {"grid": 32, "t_end": 0.01, "length": 1e100}}
        started = time.monotonic()
        with _fork_counter() as forks:
            report, code = run(cfg, tmp_path, quiet=True)
        assert time.monotonic() - started < 30  # killed, not waited for
        assert code == EXIT_BLOWUP and len(forks) == 1
        assert report["error"] == "non-finite power sums (last valid t = 0)"
        assert not cli._busy

    def test_companion_blowing_up_after_a_clean_tau_march_exits_3(self, tmp_path):
        # b = -1e4 underflows the warping exp(int psi / 2) in the scalar march
        # only (see test_underflowing_warping_exits_3)
        cfg = {"scenario": "tau-flow", "n": 2,
               "functional": {"name": "affine", "a": 0.0, "b": -1e4},
               "initial": {"kind": "sine", "amplitude": 0.1, "mean": 0.5},
               "numerics": {"grid": 64, "t_end": 1.0}}
        parsed = parse_config(cfg)
        fld = TauField.from_umbilical(cli._initial(parsed), 2, 64, 1.0, "periodic")
        ctl = cli._control(parsed)
        assert reached(evolve_tau(fld, cli._functional(parsed), ctl).t, ctl.t_end)
        with _one_cpu():
            alone, code = run(cfg, tmp_path / "one", quiet=True)
        assert code == EXIT_BLOWUP
        with _fork_counter() as forks:
            report, code = run(cfg, tmp_path / "two", quiet=True)
        assert code == EXIT_BLOWUP and len(forks) == 1
        assert report["error"] == alone["error"]
        assert report["error"].endswith("(last valid t = 0)")

    @pytest.mark.parametrize("axis,expected", [("cfl", 1), ("ds", 3)])
    def test_sweep_of_large_tables_forks_once(self, tmp_path, axis, expected):
        # each member alone forks its stride-1 table; beside a cfl sweep's
        # child, and inside it, no member forks; a ds sweep does not split,
        # so each of its members forks its own table
        configs = ([umbilical_config(grid=256, t_end=1.0, cfl=c) for c in (0.5, 0.7, 0.9)]
                   if axis == "cfl" else
                   [umbilical_config(grid=g, t_end=1.0) for g in (256, 320, 384)])
        for cfg in configs:
            cfg["output"]["snapshot_stride"] = 1
        with _fork_counter() as forks:
            aggregate, _ = sweep_configs(configs, tmp_path, axis)
        assert [r["exit_status"] for r in aggregate["reports"]] == [EXIT_OK] * 3
        assert len(forks) == expected
        for idx in range(3):
            with open(tmp_path / f"run_{idx:03d}" / "timeseries.csv") as fh:
                assert 2 * (sum(1 for _ in fh) - 1) >= cli._FORK_CELLS, idx
        assert not cli._busy

    def test_large_tau_table_forks_after_the_companion_is_reaped(self, tmp_path):
        # tau_final.csv: 2^14 rows of s and tau_1..3, 2^16 float cells
        cfg = _set(_set(_tau_config(3, "b1", "periodic"), "numerics.grid", 2 ** 14),
                   "numerics.t_end", 1e-3)
        waitpid, reaps = os.waitpid, []

        def reaping(pid, options):
            done = waitpid(pid, options)
            reaps.append((pid, len(forks)))  # the child, and the forks so far
            return done

        with _fork_counter() as forks, mock.patch.object(os, "waitpid", reaping):
            report, code = run(cfg, tmp_path, quiet=True)
        assert code == EXIT_OK, report.get("error")
        assert len(forks) == 2
        assert reaps == [(forks[0], 1), (forks[1], 2)]

    def test_child_flushes_nothing(self, tmp_path):
        # the child leaves by os._exit: a line this process printed to a pipe,
        # and has not flushed yet, reaches it once (PYTHONUNBUFFERED hides it)
        code = "\n".join([
            "import json, os, sys",
            "from unittest import mock",
            "from egf_lab import cli",
            "fork, forks = os.fork, []",
            "def counting():",
            "    forks.append(fork())",
            "    return forks[-1]",
            "print('before')",
            "with mock.patch.object(os, 'sched_getaffinity', lambda pid: {0, 1}), \\",
            "        mock.patch.object(os, 'fork', counting):",
            "    report, code = cli.run(json.loads(sys.argv[1]), sys.argv[2], quiet=True)",
            "assert code == 0 and len(forks) == 1, (code, forks)",
            "print('after')"])
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
        done = subprocess.run([sys.executable, "-c", code, json.dumps(TAU_FLOW),
                               str(tmp_path)], capture_output=True, text=True, env=env,
                              timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout == "before\nafter\n"


POINTS_BOUND = "config error: --points: must be in [1, 64]"


class TestCommandLine:
    def test_import_loads_no_scipy(self):
        # scipy is a test dependency only; `import egf_lab.cli` is the start-up cost
        code = ("import sys, egf_lab.cli; "
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, env=env, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "[]"

    def test_run_command(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(umbilical_config(grid=64, t_end=0.25)))
        code = main(["run", str(cfg_path), "--out", str(tmp_path / "out"), "--quiet"])
        assert code == EXIT_OK
        assert (tmp_path / "out" / "report.json").exists()

    def test_classify_command(self, tmp_path, capsys):
        code = main([
            "classify", "--n", "4", "--tau1", "0", "--r", "1",
            "--out", str(tmp_path),
        ])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert '"cpc": true' in out

    def test_env_var_out_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("EGF_LAB_OUT", str(tmp_path / "envout"))
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(umbilical_config(grid=64, t_end=0.25)))
        code = main(["run", str(cfg_path), "--quiet"])
        assert code == EXIT_OK
        assert (tmp_path / "envout" / "report.json").exists()

    def test_missing_file_exits_2(self, capsys):
        assert main(["run", "no-such-config.json", "--quiet"]) == EXIT_CONFIG

    def test_json_nested_past_the_parser_exits_2(self, tmp_path, capsys):
        cfg_path = tmp_path / "deep.json"
        cfg_path.write_text('{"x": ' + "[" * 5000 + "]" * 5000 + "}")
        assert main(["run", str(cfg_path), "--quiet"]) == EXIT_CONFIG
        assert "config error: config: invalid JSON: " in capsys.readouterr().err

    def test_sweep_command(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(umbilical_config(grid=64, t_end=0.5)))
        code = main([
            "sweep", str(cfg_path), "--axis", "ds", "--points", "3",
            "--out", str(tmp_path / "sweep"), "--quiet",
        ])
        assert code == EXIT_OK
        assert (tmp_path / "sweep" / "sweep.csv").exists()

    @pytest.mark.parametrize("argv", [
        ["run"], ["cohomology"], ["sweep", "--axis", "cfl"], ["sweep", "--axis", "ds"],
    ])
    def test_non_object_config_exits_2(self, tmp_path, capsys, argv):
        cfg_path = tmp_path / "list.json"
        cfg_path.write_text(json.dumps([umbilical_config()]))
        command, *flags = argv
        code = main([command, str(cfg_path), *flags, "--out", str(tmp_path / "out")])
        assert code == EXIT_CONFIG
        printed = capsys.readouterr()
        assert "config: expected a JSON object" in printed.out + printed.err
        assert "Traceback" not in printed.out + printed.err
        if command != "sweep":
            report = json.loads((tmp_path / "out" / "report.json").read_text())
            assert report["error"] == "config: expected a JSON object"

    @pytest.mark.parametrize("flags,message", [
        (["--axis", "ds", "--points", "0"], POINTS_BOUND),
        (["--axis", "cfl", "--points", "0"], POINTS_BOUND),
        (["--axis", "cfl", "--values", "abc"], "config error: --values: expected "),
        (["--axis", "cfl", "--values", "0.5,x"], "config error: --values: expected "),
        (["--axis", "ds", "--points", "65"], POINTS_BOUND),
        (["--axis", "cfl", "--points", "10000000"], POINTS_BOUND),
        (["--axis", "cfl", "--values", ",".join(["0.5"] * 65)],
         "config error: --values: at most 64 values, got 65"),
        (["--axis", "ds", "--points", "2", "--values", "0.5,0.9"],
         "config error: --values: applies to --axis cfl only"),
        # every member is parsed, its step control too, before any runs
        (["--axis", "cfl", "--values", "0.5,1.5"],
         "config error: numerics.cfl: must lie in (0, 1]"),
    ])
    def test_sweep_flag_errors_exit_2(self, tmp_path, capsys, flags, message):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(umbilical_config(grid=64, t_end=0.25)))
        code = main(["sweep", str(cfg_path), *flags, "--out", str(tmp_path / "out")])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err.startswith(message)
        assert not (tmp_path / "out").exists()

    def test_cohomology_command_refuses_other_scenarios(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(umbilical_config()))
        assert main(["cohomology", str(cfg_path), "--out", str(tmp_path)]) == (
            EXIT_CONFIG)
        assert "scenario: must be cohomology" in capsys.readouterr().err

    def test_cohomology_command(self, tmp_path):
        cfg = {
            "v": [1.0, (1 + 5 ** 0.5) / 2],
            "K": 3,
            "h": {"modes": [[1, -1, 0.5, 0.0], [-1, 1, 0.5, 0.0]]},
        }
        cfg_path = tmp_path / "coh.json"
        cfg_path.write_text(json.dumps(cfg))
        code = main([
            "cohomology", str(cfg_path), "--out", str(tmp_path / "out"), "--quiet",
        ])
        assert code == EXIT_OK
        assert (tmp_path / "out" / "solution_coeffs.csv").exists()


def _grid_csv(path: Path, M: int, drop=(), duplicate=(), node=lambda j, M: j / M,
              text=None) -> Path:
    """x,y,value samples of a band-limited h on an M x M grid, taken at the
    nodes j / M of each axis and written at the coordinates node(j, M); rows
    `drop` are left out, rows `duplicate` written twice and the rows keyed in
    `text` written as its values, as 0-based row indices."""
    x = np.arange(M) / M
    X, Y = np.meshgrid(x, x, indexing="ij")
    h = 1.0 + np.cos(2 * np.pi * (X - Y))
    X, Y = np.meshgrid(node(np.arange(M), M), node(np.arange(M), M), indexing="ij")
    lines = ["x,y,value"]
    for idx, row in enumerate(zip(X.ravel().tolist(), Y.ravel().tolist(),
                                  h.ravel().tolist())):
        if idx not in drop:
            line = (text or {}).get(idx, ",".join(map(repr, row)))
            lines += [line] * (2 if idx in duplicate else 1)
    path.write_text("\n".join(lines) + "\n")
    return path


class TestCohomologyInput:
    @pytest.mark.parametrize("rows,idx", [
        ([[1, 0, 1.0, 0.0], [1, 0, 0, 1.0, 0.0]], 1),  # ragged
        ([[0, 0, 1.0, 0.0], [2 ** 60, 0, 1.0, 0.0]], 1),  # |u| >= 2**53: floats
        ([[-(2 ** 53), 0, 1.0, 0.0]], 0),  # no longer hold every integer
        ([[1, 0, 1.0, 0.0], (1, 0, 1.0, 0.0)], 1),  # not a JSON list
    ])
    def test_bad_row_is_named(self, tmp_path, rows, idx):
        cfg = {"scenario": "cohomology", "v": [1.0, 1.7], "K": 3, "h": {"modes": rows}}
        report, code = run(cfg, tmp_path, quiet=True)
        assert code == EXIT_CONFIG
        assert report["error"].startswith(f"h.modes[{idx}]: expected "), report["error"]
        assert not list(tmp_path.glob("*.csv"))

    @pytest.mark.parametrize("v,mode,expected", [
        ([1e-320, 1.0], [1, 0], EXIT_UNSOLVABLE),
        ([1.0, 1.5], [3, -2], EXIT_UNSOLVABLE),  # <u, v> = 0 beside ||u||^s = inf
        ([1.0, 2 ** 0.5], [1, 0], EXIT_OK),
    ])
    def test_margin_power_past_the_float_range(self, tmp_path, v, mode, expected):
        cfg = {"scenario": "cohomology", "v": v, "K": 3, "s": 1e300,
               "h": {"modes": [[*mode, 1.0, 0.0]]}}
        report, code = run(cfg, tmp_path, quiet=True)
        assert code == expected, report.get("error")
        if expected == EXIT_OK:
            assert report["results"]["margin"] == 1.0  # the axis mode (1, 0)
            assert report["results"]["residual"] < 1e-12

    def test_no_rows_solve_h_zero(self, tmp_path):
        cfg = {"scenario": "cohomology", "v": [1.0, 1.7], "K": 3, "h": {"modes": []}}
        report, code = run(cfg, tmp_path, quiet=True)
        assert code == EXIT_OK, report.get("error")
        assert report["results"]["eps"] == 0.0
        assert report["results"]["modes_solved"] == 0
        coeffs = (tmp_path / "solution_coeffs.csv").read_text()
        assert coeffs == "u1,u2,re,im\n0,0,0,0\n"  # the zero mode only
        assert (tmp_path / "amplification.csv").read_text().count("\n") == 1

    NOT_NODES = ("h.grid_csv: the 8 distinct x values are not the nodes j / 8, "
                 "j = 0..7, within 1e-09 of the spacing")

    @pytest.mark.parametrize("edit,message,whole", [(*case, True) for case in [
        ({"drop": (5,)}, "h.grid_csv: grid is not complete/uniform"),
        ({"drop": (5,), "duplicate": (6,)}, "h.grid_csv: missing grid entries"),
        # row 5 is the node (0, 5/8), the sixth data row
        ({"text": {5: "0,0.625,inf"}}, "h.grid_csv: entries must be finite, "
                                        "got inf as value in data row 6"),
        ({"text": {5: "0,0.625,-inf"}}, "h.grid_csv: entries must be finite, "
                                         "got -inf as value in data row 6"),
        ({"text": {5: "0,0.625,1e400"}}, "h.grid_csv: entries must be finite, "
                                          "got inf as value in data row 6"),
        ({"text": {5: "0,0.625,nan"}}, "h.grid_csv: entries must be finite, "
                                        "got nan as value in data row 6"),
        ({"text": {5: "0,nan,1"}}, "h.grid_csv: entries must be finite, "
                                    "got nan as y in data row 6"),
        # loadtxt skips comment and blank lines: the count is of data rows
        ({"text": {5: "# a comment\n\n0,0.625,inf"}},
         "h.grid_csv: entries must be finite, got inf as value in data row 6"),
        ({"node": lambda j, M: (j / M) ** 2}, NOT_NODES),  # complete, not uniform
        ({"node": lambda j, M: 2 * j / M}, NOT_NODES),  # uniform over [0, 2)
        ({"node": lambda j, M: j / M + 1e-8 / M}, NOT_NODES),  # past the tolerance
        # a header line alone: numpy's no-data warning is not printed
        ({"drop": range(64)}, "h.grid_csv: {path} holds no data rows after its "
                              "header line"),
        # one data row has the three columns: the refusal names its real fault
        ({"drop": range(1, 64)}, "h: grid of shape (1, 1) cannot resolve modes up "
                                 "to K=2"),
        ({"drop": range(1, 64), "text": {0: "0.5,0,1"}},
         "h.grid_csv: the 1 distinct x values are not the nodes j / 1, j = 0..0, "
         "within 1e-09 of the spacing"),
    ]] + [(*case, False) for case in [  # numpy words the rest of these
        ({"text": {5: "0,0.625,abc"}}, "h.grid_csv: could not convert string 'abc'"),
        ({"text": {5: "0,0.625,1,2"}},
         "h.grid_csv: the number of columns changed from 3 to 4"),
    ]])
    def test_grid_csv_errors(self, tmp_path, edit, message, whole):
        csv_path = _grid_csv(tmp_path / "h.csv", 8, **edit)
        cfg = {"scenario": "cohomology", "v": [1.0, 1.7], "K": 2,
               "h": {"grid_csv": str(csv_path)}}
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a refusal prints no numpy warning
            report, code = run(cfg, tmp_path / "out", quiet=True)
        assert code == EXIT_CONFIG
        if whole:
            assert report["error"] == message.format(path=csv_path)
        else:
            assert report["error"].startswith(message), report["error"]
        assert not list((tmp_path / "out").glob("*.csv"))

    def test_grid_csv_nodes_within_the_rounding_tolerance(self, tmp_path):
        # coordinates printed to 12 digits sit within 1e-9 spacings of j / 7;
        # the samples are read as taken at the nodes, so nothing else changes
        edit = {"node": lambda j, M: np.array([float(f"{x:.12g}") for x in j / M])}
        reports = []
        for name, csv_path in (("exact", _grid_csv(tmp_path / "a.csv", 7)),
                               ("rounded", _grid_csv(tmp_path / "b.csv", 7, **edit))):
            report, code = run({"scenario": "cohomology", "v": [1.0, 1.7], "K": 2,
                                "h": {"grid_csv": str(csv_path)}},
                               tmp_path / name, quiet=True)
            assert code == EXIT_OK, report.get("error")
            reports.append(report["results"])
        assert reports[0] == reports[1]
        assert (tmp_path / "exact" / "solution_coeffs.csv").read_bytes() == (
            tmp_path / "rounded" / "solution_coeffs.csv").read_bytes()

    def test_internal_error_writes_report_without_traceback(
        self, tmp_path, monkeypatch, capsys
    ):
        def broken(cfg):
            raise RuntimeError("boom")

        monkeypatch.setitem(cli.HANDLERS, "ricci-classify", broken)
        cfg = {"scenario": "ricci-classify", "n": 4, "tau1": 0.0, "r": 1.0}
        report, code = run(cfg, tmp_path, quiet=False)
        assert code == EXIT_INTERNAL
        assert report["error"] == "internal error: RuntimeError: boom"
        written = json.loads((tmp_path / "report.json").read_text())
        assert written["exit_status"] == EXIT_INTERNAL
        assert "RuntimeError: boom" in written["traceback"]
        printed = capsys.readouterr()
        assert "Traceback" not in printed.out + printed.err


# values that are wrong wherever they stand in a config: bools, null,
# strings, nested lists, huge ints, non-finite and fractional floats
JUNK = st.one_of(
    st.booleans(), st.none(), st.text(max_size=2),
    st.lists(st.integers(-2, 2), max_size=2),
    st.sampled_from([2 ** 53 + 1, 10 ** 30, -(10 ** 400), 10 ** 400, math.nan,
                     math.inf, -math.inf, 0.5]),
)


def mostly(valid, junk, odds=4):
    """Draws from `valid` `odds` times as often as from `junk`."""
    return st.sampled_from([valid] * odds + [junk]).flatmap(lambda s: s)


def mode_row(width: int):
    """[u1, ..., re, im] of `width` entries, indices up to 5 (outside K <= 4
    at times), an entry replaced by junk now and then."""
    index = mostly(st.integers(-5, 5), JUNK, 20)
    value = mostly(st.floats(-2.0, 2.0), JUNK, 20)
    return st.tuples(*[index] * (width - 2), value, value).map(list)


@st.composite
def cohomology_config(draw):
    v = draw(mostly(
        st.sampled_from([[1.0, 1.5], [1.0, 0.5], [1.0, 1.5, 2.5], [1.0, 0.5, 0.25]]),
        st.lists(st.one_of(st.floats(-2.0, 2.0), JUNK), max_size=4),
    ))
    width = draw(mostly(st.just(len(v) + 2), st.integers(2, 6)))  # wrong dim
    row = mostly(mode_row(width), st.one_of(
        JUNK, st.integers(2, 6).flatmap(mode_row)), 10)  # ragged rows
    return {
        "scenario": "cohomology",
        "v": v,
        "K": draw(mostly(st.integers(1, 4), st.one_of(st.integers(-1, 0), JUNK))),
        "h": {"modes": draw(mostly(st.lists(row, max_size=8), JUNK, 10))},
    }


def _assert_reported(cfg, outdir: Path):
    report, code = run(cfg, outdir, quiet=True)
    assert code in (EXIT_OK, EXIT_CONFIG, EXIT_BLOWUP, EXIT_UNSOLVABLE), report
    written = json.loads((outdir / "report.json").read_text())
    assert written["exit_status"] == code


class TestMalformedCohomologyProperty:
    """Any malformed cohomology config yields report.json and exit 0/2/3/4."""

    @settings(derandomize=True, database=None, deadline=None, max_examples=200)
    @given(cfg=cohomology_config())
    def test_inline_modes(self, cfg):
        with tempfile.TemporaryDirectory() as tmp:
            _assert_reported(cfg, Path(tmp))

    @settings(derandomize=True, database=None, deadline=None, max_examples=40)
    @given(
        M=st.integers(3, 9),
        K=st.integers(1, 3),
        drop=st.sets(st.integers(0, 80), max_size=3),
        duplicate=st.sets(st.integers(0, 80), max_size=3),
    )
    def test_grid_csv(self, M, K, drop, duplicate):
        with tempfile.TemporaryDirectory() as tmp:
            csv_path = _grid_csv(Path(tmp) / "h.csv", M, drop, duplicate)
            cfg = {"scenario": "cohomology", "v": [1.0, 1.5], "K": K,
                   "h": {"grid_csv": str(csv_path)}}
            _assert_reported(cfg, Path(tmp) / "out")


# one small valid config per scenario; each runs to exit 0 in milliseconds
SMALL = {
    "umbilical-flow": umbilical_config(grid=16, t_end=0.05),
    "tau-flow": {"scenario": "tau-flow", "n": 2, "functional": {"name": "b1"},
                 "initial": {"kind": "sine", "amplitude": 0.25, "mean": 0.5},
                 "numerics": {"grid": 16, "t_end": 0.05}},
    "soliton-check": _set(json.loads(json.dumps(SOLITON)), "numerics.grid", 16),
    "biregular-check": BIREGULAR,
    "ricci-classify": {"scenario": "ricci-classify", "n": 4, "tau1": 0.0, "r": 1.0},
    "cohomology": COHOMOLOGY,
    "revolution": {"scenario": "revolution", "curve": {
        "kind": "constant_lambda", "x1_max": 2.0, "step": 0.01}},
    "cone-check": {"scenario": "cone-check", "numerics": {"grid": 16, "t_end": 0.1}},
}
# a JSON value of each type; "wrong type" draws those a key's cast refuses
JSON_VALUES = [None, True, 7, 0.5, "x", [1.0], {"k": 1}]
# numbers no key accepts: NaN, the infinities and ints beyond the float range
NEVER = [math.nan, math.inf, -math.inf, 10 ** 400, -(10 ** 400)]
FLOATS = [-1.0, 0.0, 0.125, 0.5, 1.0, 2.0]  # coarse, so no run crawls
IN_RANGE = {  # valid values of the casts that are not plain JSON types
    cli.number_or_auto: st.sampled_from(["auto", 0.5, 1.0]),
    cli.direction: st.sampled_from([[1.0, 1.5], [1.0, 0.5], [1.0, 1.5, 2.5]]),
    cli._modes_from_cfg: st.sampled_from([[], [[0, 0, 1.0, 0.0]],
                                          [[1, -1, 0.5, 0.0], [-1, 1, 0.5, 0.0]]]),
    cli.positive: st.sampled_from([0.5, 1.0, 2.0]),
    str: st.just("no-such-file.csv"),
    bool: st.booleans(),
    float: st.sampled_from(FLOATS),
    int: st.integers(-3, 12),
}


def refused(key, value) -> bool:
    try:
        cli._read({"k": value}, "k", key._replace(allowed=None))
    except ConfigError:
        return True
    return False


def in_range(key):
    if isinstance(key.allowed, range):  # the low end: sizes stay small
        return st.integers(key.allowed.start, key.allowed.start + 8)
    if key.allowed is not None:
        return st.sampled_from(sorted(key.allowed))
    return IN_RANGE[key.cast]


def out_of_range(key):
    if isinstance(key.allowed, range):
        return st.sampled_from([key.allowed.start - 1, key.allowed.stop])
    return st.just("not-a-choice")


@st.composite
def mutated_config(draw):
    """(config, mutation, path, key): a small valid config with one key given
    a wrong JSON type, a value out of bound, a number no key accepts (NEVER),
    an unknown sibling, or an in-range value."""
    cfg = json.loads(json.dumps(SMALL[draw(st.sampled_from(sorted(SMALL)))]))
    table = cli.accepted_keys(cfg)
    path = draw(st.sampled_from(sorted(table)))
    key = table[path]
    mutations = ["type", "never", "unknown", "value"] + ["bound"] * (
        key.allowed is not None)
    mutation = draw(st.sampled_from(mutations))
    if mutation == "type":
        _set(cfg, path, draw(st.sampled_from(JSON_VALUES).filter(
            lambda v: refused(key, v))))
    elif mutation == "never":
        _set(cfg, path, draw(st.sampled_from(NEVER)))
    elif mutation == "bound":
        _set(cfg, path, draw(out_of_range(key)))
    elif mutation == "unknown":
        path = path + draw(st.sampled_from(["x", "_", "2"]))
        _set(cfg, path, draw(st.sampled_from(JSON_VALUES)))
    else:
        _set(cfg, path, draw(in_range(key)))
    return cfg, mutation, path, key


class TestMalformedConfigProperty:
    """Every scenario, one key mutated along its table entry: report.json is
    written and the exit code is 0, 2, 3 or 4; a refused value names its key."""

    @settings(derandomize=True, database=None, deadline=None, max_examples=400)
    @given(case=mutated_config())
    def test_one_key_mutated(self, case):
        cfg, mutation, path, key = case
        with tempfile.TemporaryDirectory() as tmp:
            report, code = run(cfg, Path(tmp), quiet=True)
            assert code in (EXIT_OK, EXIT_CONFIG, EXIT_BLOWUP, EXIT_UNSOLVABLE), report
            assert json.loads((Path(tmp) / "report.json").read_text())[
                "exit_status"] == code
        if mutation != "value":
            assert code == EXIT_CONFIG, report
            assert report["error"].startswith(path), (report["error"], path)


# (name, n, parameters) of catalog functionals at leaf dimensions they accept
CATALOG = [("b1", 1, {}), ("b1", 2, {}), ("tau1_minus_c", 2, {"c": 0.3}),
           ("ext_ricci", 2, {}), ("ext_ricci", 3, {}), ("umbilical_square", 2, {}),
           ("affine", 2, {"a": 1.5, "b": 0.2})]


@st.composite
def soliton_case(draw):
    """(config, expected verdict): a soliton-check of constant (a soliton) or
    sine data (not one), or a biregular-check whose eps is auto or psi(lam)
    (a soliton) or another number (not one); every length is set."""
    name, n, params = draw(st.sampled_from(CATALOG))
    functional = {"name": name, **params}
    grid = draw(st.sampled_from([8, 16, 64]))
    base = draw(st.sampled_from([0.3, 1.0, 2.5]))
    if draw(st.booleans()):
        kind = draw(st.sampled_from(["constant", "sine"]))
        initial = ({"kind": "constant", "value": draw(st.sampled_from([-1.3, 0.0, 0.7]))}
                   if kind == "constant" else
                   {"kind": "sine", "amplitude": draw(st.sampled_from([0.5, 1e-6])),
                    "mean": draw(st.sampled_from([1.0, 0.0]))})
        cfg = {"scenario": "soliton-check", "n": n, "functional": functional,
               "initial": initial, "numerics": {"grid": grid, "length": base}}
        verdict = "soliton" if kind == "constant" else "not_soliton"
    else:
        metric = draw(st.sampled_from(sorted(BIREGULAR_METRICS)))
        eps = draw(st.sampled_from(["auto", 0.0, 0.5]))
        psi = psi_of_lambda(make_functional(name, n, params), 0.0 if metric == "flat"
                            else 1.0)  # the curvature of the leaves of each metric
        cfg = {"scenario": "biregular-check", "n": n, "functional": functional,
               "metric": {"name": metric}, "eps": eps,
               "numerics": {"grid0": grid, "grid1": grid, "length0": base,
                            "length1": base}}
        verdict = "soliton" if eps in ("auto", psi) else "not_soliton"
    return cfg, verdict


class TestSolitonScaleProperty:
    """A soliton verdict is free of the length: scaling numerics.length (or
    length0 and length1) by 10^k, k = -6..6, leaves it unchanged and right.
    Down to 10^-15 it is right or degenerate, where exp_x0's g11 no longer
    resolves its curvature, and never the wrong one."""

    @settings(derandomize=True, database=None, deadline=None, max_examples=60)
    @given(case=soliton_case())
    def test_verdict_is_free_of_length(self, case):
        cfg, verdict = case
        verdicts = set()
        for k in range(-15, 7):
            scaled = json.loads(json.dumps(cfg))
            for key in scaled["numerics"]:
                if key.startswith("length"):
                    scaled["numerics"][key] *= 10.0 ** k
            with tempfile.TemporaryDirectory() as tmp:
                report, code = run(scaled, Path(tmp), quiet=True)
            if report.get("error") == "metric must be positive":
                continue  # exp_x0's g11 = exp(-2 x0) underflows over the length
            assert code == EXIT_OK, report.get("error")
            got = report["results"]["verdict"]
            assert got == verdict or (k < -6 and got == "degenerate"), (k, got)
            verdicts.add(got)
        assert verdict in verdicts


def test_readme_json_configs_parse():
    # every config README shows is one the parser accepts
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = readme.split("```json\n")[1:]
    assert blocks
    for block in blocks:
        parse_config(json.loads(block.split("```", 1)[0]))


def test_readme_cli_examples_parse():
    # every command line of README's CLI block, its [optional] groups
    # dropped, is one the parser accepts
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [line for line in block.splitlines() if line.startswith("egf-lab ")]
    assert lines
    parser = cli.build_parser()
    for line in lines:
        words = re.sub(r"\[[^\]]*\]", "", line).split()
        parser.parse_args(words[1:])

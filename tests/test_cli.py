from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from egf_lab import cli
from egf_lab.catalog import BIREGULAR_METRICS, as_finite
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
from egf_lab.flow_engine import UmbilicalProfile, evolve_umbilical
from egf_lab.revolution_geometry import (
    integrate_constant_lambda,
    profile_metric,
    sectional_curvature_formula,
    sectional_curvature_profile,
)
from egf_lab.soliton_lab import BiregularGrid, biregular_normal_curvature

from oracles import write_csv_reference


def umbilical_config(grid=128, t_end=0.5, **numerics):
    cfg = {
        "scenario": "umbilical-flow",
        "n": 2,
        "functional": {"name": "b1"},
        "initial": {"kind": "sine", "amplitude": 1.0, "mean": 0.0, "periods": 1},
        "numerics": {"grid": grid, "t_end": t_end, "cfl": 0.9,
                     "scheme": "upwind", "length": 1.0},
        "output": {"snapshot_stride": 50},
    }
    cfg["numerics"].update(numerics)
    return cfg


REVOLUTION = {"scenario": "revolution", "curve": {"kind": "cone", "beta": 0.5}}


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

    @pytest.mark.parametrize("value", [True, "1e-1", "inf", None, [1]])
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

# (valid base config, key path, malformed value, start of the error message)
MALFORMED = [
    (umbilical_config(), "numerics.cfl", True, "numerics.cfl"),
    (umbilical_config(), "numerics.t_end", "1e-1", "numerics.t_end"),
    (SOLITON, "eps", "0.1", "eps"),
    (BIREGULAR, "eps", "0.1", "eps"),
    (AFFINE_FLOW, "functional.a", [1], "functional: a"),
    (AFFINE_FLOW, "functional.b", "1", "functional: b"),
    (umbilical_config(), "initial.amplitude", None, "initial: amplitude"),
    (umbilical_config(), "initial.periods", 1.7, "initial: periods"),
    (SOLITON, "initial.value", "1.3", "initial: value"),
    # catalog parameters are finite: NaN and infinities name their key
    (SHIFTED_FLOW, "functional.c", math.nan, "functional: c"),
    (AFFINE_FLOW, "functional.a", math.inf, "functional: a"),
    (AFFINE_FLOW, "functional.a", math.nan, "functional: a"),
    (AFFINE_FLOW, "functional.b", -math.inf, "functional: b"),
    (SOLITON, "initial.value", math.nan, "initial: value"),
    (SOLITON, "initial.value", math.inf, "initial: value"),
    (umbilical_config(), "initial.amplitude", math.inf, "initial: amplitude"),
    (umbilical_config(), "initial.mean", math.nan, "initial: mean"),
    (umbilical_config(), "initial.mean", -math.inf, "initial: mean"),
    (FOURIER_FLOW, "initial.amplitude", math.nan, "initial: amplitude"),
    (COHOMOLOGY, "v", [1, None], "v"),
    (COHOMOLOGY, "v", [1, "a"], "v"),
    (COHOMOLOGY, "v", [1.0], "v"),
    (COHOMOLOGY, "v", [1.0, math.nan], "v"),
    (COHOMOLOGY, "v", [1.0, 10 ** 400], "v"),
    (CONE, "numerics.cfl", 1.5, "numerics.cfl"),
    (CONE, "numerics.t_end", -1, "numerics.t_end"),
    (CONE, "numerics.scheme", "magic", "numerics.scheme"),
    (CONE, "beta", 2.0, "beta"),
    (RESONANT, "s", math.nan, "s"),
    (RESONANT, "s", math.inf, "s"),
    (RESONANT, "s", -1, "s"),
    (RESONANT, "K", 0, "K"),
    (COHOMOLOGY, "K", 1025, "K"),  # (4K)^2 verification points exceed the cap
    (umbilical_config(), "numerics.length", 0, "numerics.length"),
    (umbilical_config(), "numerics.length", -1, "numerics.length"),
    (SOLITON, "numerics.length", math.inf, "numerics.length"),
    (BIREGULAR, "numerics.length0", 0, "numerics.length0"),
    (BIREGULAR, "numerics.length1", -0.5, "numerics.length1"),
    (CONE, "domain_max", 1.0, "domain_max: must exceed domain_min (2.0), got 1.0"),
    (REVOLUTION, "curve.x0_max", 1.0, "curve.x0_max: must exceed curve.x0_min"),
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

    def test_cone_check_honours_integrator_and_max_steps(self, tmp_path):
        euler, _ = run(CONE, tmp_path / "euler", quiet=True)
        heun_cfg = _set(json.loads(json.dumps(CONE)), "numerics.integrator", "heun")
        heun, code = run(heun_cfg, tmp_path / "heun", quiet=True)
        assert code == EXIT_OK
        assert heun["results"]["sup_err_lambda"] != euler["results"]["sup_err_lambda"]
        capped = _set(json.loads(json.dumps(CONE)), "numerics.max_steps", 1)
        report, code = run(capped, tmp_path / "capped", quiet=True)
        assert code == EXIT_BLOWUP
        assert "after 1 steps" in report["error"]


CAP = cli.MAX_GRID_POINTS


class TestConfigTable:
    """Unknown keys and oversize counts are refused by the parse step."""

    @pytest.mark.parametrize("base,path,value,message", [
        (umbilical_config(), "numerics.cfll", 0.01,
         "numerics.cfll: unknown key; did you mean numerics.cfl?"),
        (umbilical_config(), "numerics.schem", "lax_friedrichs",
         "numerics.schem: unknown key; did you mean numerics.scheme?"),
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
    ])
    def test_unknown_key_exits_2_naming_it(self, tmp_path, base, path, value, message):
        cfg = _set(json.loads(json.dumps(base)), path, value)
        report, code = run(cfg, tmp_path, quiet=True)
        assert code == EXIT_CONFIG
        assert report["error"].startswith(message), report["error"]
        assert json.loads((tmp_path / "report.json").read_text())["error"] == (
            report["error"])
        assert not list(tmp_path.glob("*.csv"))

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
         "initial.modes = "),
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
        ({"scenario": "revolution", "curve": {"kind": "constant_lambda"}},
         "curve.x1_min", "curve.x1_max"),
    ])
    @pytest.mark.parametrize("upper", [1.0, 1.5, math.nan])
    def test_empty_interval_names_both_keys(self, base, lo, hi, upper):
        cfg = _set(_set(json.loads(json.dumps(base)), lo, 1.5), hi, upper)
        with pytest.raises(ConfigError) as err:
            parse_config(cfg)
        assert str(err.value) == f"{hi}: must exceed {lo} (1.5), got {upper!r}"

    def test_sizes_at_the_cap_pass(self):
        parsed = parse_config(_set(umbilical_config(grid=2 ** 12), "n", 2 ** 12))
        assert parsed["numerics.grid"] * parsed["n"] == CAP


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

    @settings(derandomize=True, database=None, deadline=None, max_examples=80)
    @given(data=st.data(), rows=st.integers(0, 23),
           kinds=st.lists(st.sampled_from(["text", "float", "int"]),
                          min_size=1, max_size=5),
           tee=st.booleans())
    def test_text_columns_match_reference(self, data, rows, kinds, tee):
        # chunks of 4 rows: up to six chunks, the last one partial
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
            with mock.patch.object(cli, "_CHUNK_ROWS", 4):
                write_csv(tmp / "chunked.csv", header, columns,
                          tee=tmp / "chunked.dat" if tee else None)
            listed = [v.tolist() for v in values]
            write_csv_reference(tmp / "reference.csv", header, zip(*listed))
            assert (tmp / "chunked.csv").read_bytes() == (
                tmp / "reference.csv").read_bytes()
            if tee:
                write_csv_reference(tmp / "reference.dat", None, zip(*listed[:2]),
                                    sep=" ")
                assert (tmp / "chunked.dat").read_bytes() == (
                    tmp / "reference.dat").read_bytes()

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
        assert (tmp_path / "tau_final.csv").exists()

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

    def test_biregular_check(self, tmp_path):
        cfg = {
            "scenario": "biregular-check",
            "functional": {"name": "b1"},
            "metric": {"name": "exp_x0"},
            "eps": "auto",
            "numerics": {"grid0": 32, "grid1": 32},
        }
        report, code = run(cfg, tmp_path, quiet=True)
        assert code == EXIT_OK
        assert report["results"]["verdict"] == "soliton"
        assert report["results"]["eps_used"] == pytest.approx(1.0, abs=1e-8)

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
        assert report["results"]["sup_err_lambda"] <= 1e-2
        header = (tmp_path / "cone_final.csv").read_text().splitlines()[0]
        assert header == "s,lambda_num,lambda_exact,phi_num,phi_translated,phi_integral"

    def test_blowup_exits_3(self, tmp_path):
        cfg = umbilical_config(t_end=50.0, max_steps=5)
        report, code = run(cfg, tmp_path, quiet=True)
        assert code == EXIT_BLOWUP
        assert "steps" in report["error"]


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

    def test_report_is_one_line_of_sorted_json(self, tmp_path):
        report, _ = run(umbilical_config(grid=64, t_end=0.25), tmp_path, quiet=True)
        text = (tmp_path / "report.json").read_text()
        assert text.endswith("}\n") and text.count("\n") == 1
        assert text == json.dumps(json.loads(text), sort_keys=True) + "\n"
        assert json.loads(text)["config"] == umbilical_config(grid=64, t_end=0.25)

    def test_config_echo_reruns_identically(self, tmp_path):
        cfg = umbilical_config(grid=64, t_end=0.25)
        report, _ = run(cfg, tmp_path / "a", quiet=True)
        echoed = json.loads((tmp_path / "a" / "report.json").read_text())["config"]
        run(echoed, tmp_path / "b", quiet=True)
        a = (tmp_path / "a" / "timeseries.csv").read_bytes()
        b = (tmp_path / "b" / "timeseries.csv").read_bytes()
        assert a == b


class TestSweep:
    def test_ds_sweep_fits_first_order(self, tmp_path):
        configs = [umbilical_config(grid=g, t_end=1.0) for g in (64, 128, 256, 512)]
        aggregate, code = sweep_configs(configs, tmp_path, "ds")
        assert code == EXIT_OK
        assert 0.9 <= aggregate["fitted_order"] <= 1.2
        assert (tmp_path / "sweep.csv").exists()

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

    def test_cfl_sweep_reports_stability(self, tmp_path):
        configs = [umbilical_config(grid=64, t_end=0.5, cfl=c) for c in (0.4, 0.8, 1.0)]
        aggregate, _ = sweep_configs(configs, tmp_path, "cfl")
        assert aggregate["largest_stable_cfl"] == pytest.approx(1.0)


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


def _grid_csv(path: Path, M: int, drop=(), duplicate=()) -> Path:
    """x,y,value samples of a band-limited h on an M x M grid; rows `drop`
    are left out and rows `duplicate` written twice, as 0-based row indices."""
    x = np.arange(M) / M
    X, Y = np.meshgrid(x, x, indexing="ij")
    h = 1.0 + np.cos(2 * np.pi * (X - Y))
    lines = ["x,y,value"]
    for idx, row in enumerate(zip(X.ravel().tolist(), Y.ravel().tolist(),
                                  h.ravel().tolist())):
        if idx not in drop:
            lines += [",".join(map(repr, row))] * (2 if idx in duplicate else 1)
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

    def test_no_rows_solve_h_zero(self, tmp_path):
        cfg = {"scenario": "cohomology", "v": [1.0, 1.7], "K": 3, "h": {"modes": []}}
        report, code = run(cfg, tmp_path, quiet=True)
        assert code == EXIT_OK, report.get("error")
        assert report["results"]["eps"] == 0.0
        assert report["results"]["modes_solved"] == 0
        coeffs = (tmp_path / "solution_coeffs.csv").read_text()
        assert coeffs == "u1,u2,re,im\n0,0,0,0\n"  # the zero mode only
        assert (tmp_path / "amplification.csv").read_text().count("\n") == 1

    @pytest.mark.parametrize("drop,duplicate,message", [
        ((5,), (), "h.grid_csv: grid is not complete/uniform"),
        ((5,), (6,), "h.grid_csv: missing grid entries"),
    ])
    def test_grid_csv_errors(self, tmp_path, drop, duplicate, message):
        csv_path = _grid_csv(tmp_path / "h.csv", 8, drop, duplicate)
        cfg = {"scenario": "cohomology", "v": [1.0, 1.7], "K": 2,
               "h": {"grid_csv": str(csv_path)}}
        report, code = run(cfg, tmp_path / "out", quiet=True)
        assert code == EXIT_CONFIG
        assert report["error"] == message

    def test_internal_error_writes_report_without_traceback(
        self, tmp_path, monkeypatch, capsys
    ):
        def broken(cfg, outdir):
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
FLOATS = [-1.0, 0.0, 0.125, 0.5, 1.0, 2.0]  # coarse, so no run crawls
IN_RANGE = {  # valid values of the casts that are not plain JSON types
    cli.number_or_auto: st.sampled_from(["auto", 0.5, 1.0]),
    cli.direction: st.sampled_from([[1.0, 1.5], [1.0, 0.5], [1.0, 1.5, 2.5]]),
    cli._modes_from_cfg: st.sampled_from([[], [[0, 0, 1.0, 0.0]],
                                          [[1, -1, 0.5, 0.0], [-1, 1, 0.5, 0.0]]]),
    cli.positive: st.sampled_from([0.5, 1.0, 2.0]),
    as_finite: st.sampled_from(FLOATS),
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
    a wrong JSON type, a value out of bound, an unknown sibling, or an
    in-range value."""
    cfg = json.loads(json.dumps(SMALL[draw(st.sampled_from(sorted(SMALL)))]))
    table = cli.accepted_keys(cfg)
    path = draw(st.sampled_from(sorted(table)))
    key = table[path]
    mutations = ["type", "unknown", "value"] + ["bound"] * (key.allowed is not None)
    mutation = draw(st.sampled_from(mutations))
    if mutation == "type":
        _set(cfg, path, draw(st.sampled_from(JSON_VALUES).filter(
            lambda v: refused(key, v))))
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
            name = path if mutation == "unknown" else key.label or path
            assert report["error"].startswith(name), (report["error"], name)

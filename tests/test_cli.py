from __future__ import annotations

import json
import math

import numpy as np
import pytest

from egf_lab.cli import (
    EXIT_BLOWUP,
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_UNSOLVABLE,
    ConfigError,
    cfg_get,
    main,
    run,
    sweep_configs,
    write_csv,
)

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


class TestConfigAccess:
    def test_missing_path_names_key(self):
        with pytest.raises(ConfigError, match="numerics.grid: required"):
            cfg_get({"numerics": {}}, "numerics.grid")

    def test_bad_cast(self):
        with pytest.raises(ConfigError, match="numerics.grid"):
            cfg_get({"numerics": {"grid": "many"}}, "numerics.grid", cast=int)

    def test_choices(self):
        with pytest.raises(ConfigError, match="scenario"):
            cfg_get({"scenario": "nope"}, "scenario", choices={"umbilical-flow"})

    @pytest.mark.parametrize("value", [64.9, True, "64", None])
    def test_int_cast_refuses_lossy_values(self, value):
        with pytest.raises(ConfigError, match="numerics.grid"):
            cfg_get({"numerics": {"grid": value}}, "numerics.grid", cast=int)

    def test_strict_casts_accept_valid_values(self):
        assert cfg_get({"g": 64.0}, "g", cast=int) == 64
        assert cfg_get({"g": -3}, "g", cast=int) == -3
        assert cfg_get({"f": False}, "f", cast=bool) is False

    @pytest.mark.parametrize("value", ["false", "true", 0, 1, None])
    def test_bool_cast_accepts_only_json_booleans(self, value):
        with pytest.raises(ConfigError, match="output.gnuplot"):
            cfg_get({"output": {"gnuplot": value}}, "output.gnuplot", cast=bool)

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
        [[True, 0, 1.0, 0.0]],
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
        write_csv(tmp_path / "chunked.csv", ["a", "b", "c", "d"], table)
        write_csv_reference(tmp_path / "reference.csv", ["a", "b", "c", "d"],
                            table.tolist())
        assert (tmp_path / "chunked.csv").read_bytes() == (
            tmp_path / "reference.csv"
        ).read_bytes()

    def test_empty_table_writes_header_only(self, tmp_path):
        write_csv(tmp_path / "empty.csv", ["a", "b"], (np.array([]), np.array([])))
        assert (tmp_path / "empty.csv").read_bytes() == b"a,b\n"


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
        cfg["initial"] = {"kind": "random_fourier", "amplitude": 0.5, "modes": 3}
        cfg["numerics"]["seed"] = 7
        run(cfg, tmp_path / "a", quiet=True)
        run(cfg, tmp_path / "b", quiet=True)
        a = (tmp_path / "a" / "timeseries.csv").read_bytes()
        b = (tmp_path / "b" / "timeseries.csv").read_bytes()
        assert a == b

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


class TestCommandLine:
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

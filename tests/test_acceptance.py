"""Acceptance suite: one test per release criterion, one printed line each.

Every tolerance is fixed here, not calibrated at runtime.  Oracles are the
independent constructions from oracles.py (direct summation, polynomial
expansion, exhaustive enumeration) or closed forms checked by hand.
"""

from __future__ import annotations

import hashlib
import json
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from egf_lab.catalog import make_functional
from egf_lab.cli import EXIT_OK, run, sweep_configs
from egf_lab.cohomology_solver import (
    ResonanceError,
    TorusCohomologyProblem,
    solve_linear_flow,
)
from egf_lab.flow_engine import (
    StepControl,
    TauField,
    UmbilicalProfile,
    evolve_tau,
    evolve_umbilical,
)
from egf_lab.revolution_geometry import (
    closed_form_gamma,
    cone_flow_check,
    integrate_constant_lambda,
    sectional_curvature_formula,
    sectional_curvature_profile,
)
from egf_lab.soliton_lab import (
    BiregularGrid,
    check_biregular_surface,
    check_normal_soliton,
    classify_ricci_soliton,
    mu_of_lambda,
)
from egf_lab.sym_curvature import elementary_from_power, psi_of_lambda

from oracles import (
    canonical_spectrum_key,
    direct_power_sums,
    enumerate_ricci_soliton_spectra,
    is_extrinsic_ricci_flat,
    mode_rows,
    sigma_by_expansion,
    volume,
    volume_normalized,
    write_csv_reference,
)

GOLDEN = (1.0, (1.0 + np.sqrt(5.0)) / 2.0)

# sha256 of every table the criterion-14 batch writes, recorded once
GOLDEN_DIGESTS = Path(__file__).with_name("golden_digests.json")


@contextmanager
def criterion(num: int, label: str):
    info: dict = {}
    try:
        yield info
    except AssertionError:
        print(f"[acceptance] criterion {num:2d} FAIL  {label}")
        raise
    detail = ", ".join(f"{k}={v}" for k, v in info.items())
    print(f"[acceptance] criterion {num:2d} PASS  {label}" + (f"  ({detail})" if detail else ""))


def fitted_order(spacings, errors) -> float:
    return float(np.polyfit(np.log(spacings), np.log(errors), 1)[0])


def test_criterion_01_newton_roundtrip():
    with criterion(1, "Newton roundtrip on 1000 random spectra") as info:
        rng = np.random.default_rng(101)
        started = time.perf_counter()
        for _ in range(1000):
            n = int(rng.integers(1, 7))
            k = rng.uniform(-10.0, 10.0, n)
            tau = np.array(direct_power_sums(k, n))
            sigma = elementary_from_power(tau, n)

            # invert the low-range recurrence: tau from sigma alone
            tau_back = np.zeros(n)
            for j in range(1, n + 1):
                acc = (-1.0) ** (j + 1) * j * sigma[j - 1]
                for i in range(1, j):
                    acc -= (-1.0) ** i * tau_back[j - i - 1] * sigma[i - 1]
                tau_back[j - 1] = acc
            scale = np.maximum(1.0, np.abs(tau))
            assert np.max(np.abs(tau_back - tau) / scale) <= 1e-10

            expansion = sigma_by_expansion(k)
            scale_s = np.maximum(1.0, np.abs(expansion))
            assert np.max(np.abs(sigma - expansion) / scale_s) <= 1e-10
        elapsed = time.perf_counter() - started
        assert elapsed < 1.0
        info["time_s"] = f"{elapsed:.2f}"


def test_criterion_02_traveling_wave():
    with criterion(2, "traveling wave: sup error and first-order convergence") as info:
        started = time.perf_counter()
        F = make_functional("b1", 2)
        errors = []
        grids = (128, 256, 512)
        for G in grids:
            p = UmbilicalProfile.from_function(
                lambda s: np.sin(2 * np.pi * s), G, 1.0, "periodic"
            )
            out = evolve_umbilical(p, F, StepControl(t_end=2.0, cfl=0.9))
            exact = np.sin(2 * np.pi * (p.s - 1.0))
            errors.append(float(np.max(np.abs(out.lam - exact))))
        assert errors[-1] <= 0.05
        order = fitted_order([1.0 / g for g in grids], errors)
        assert order >= 0.9
        elapsed = time.perf_counter() - started
        assert elapsed < 10.0
        info["err_512"] = f"{errors[-1]:.2e}"
        info["order"] = f"{order:.2f}"
        info["time_s"] = f"{elapsed:.2f}"


def test_criterion_03_cone_example():
    with criterion(3, "cone data transported to the translated cone") as info:
        started = time.perf_counter()
        grids = (200, 400, 800)
        ctl = StepControl(t_end=1.0)
        errors = [
            cone_flow_check(np.pi / 6, ctl, g, (2.0, 6.0))[0]["sup_err_lambda"]
            for g in grids
        ]
        assert errors[-1] <= 5e-3
        rates = np.log2(np.array(errors[:-1]) / np.array(errors[1:]))
        assert np.all(rates >= 0.9)
        elapsed = time.perf_counter() - started
        assert elapsed < 10.0
        info["err_800"] = f"{errors[-1]:.2e}"
        info["rates"] = "/".join(f"{r:.2f}" for r in rates)
        info["time_s"] = f"{elapsed:.2f}"


def test_criterion_04_warping_law():
    with criterion(4, "warping factor matches phi0 exp(t psi(C)/2)") as info:
        worst = 0.0
        cases = [
            (make_functional("b1", 2), 0.8, 1.7),
            (make_functional("umbilical_square", 2), -0.6, 1.2),
            (make_functional("affine", 3, {"a": 1.5, "b": -0.5}), 0.4, 2.1),
        ]
        for F, C, t_end in cases:
            p = UmbilicalProfile.from_function(lambda s: C + 0 * s, 64, 1.0)
            out = evolve_umbilical(p, F, StepControl(t_end=t_end))
            target = np.exp(0.5 * t_end * psi_of_lambda(F, C))
            rel = float(np.max(np.abs(out.phi - target) / abs(target)))
            worst = max(worst, rel)
        assert worst <= 1e-10
        info["worst_rel_err"] = f"{worst:.2e}"


def test_criterion_05_tau_system_vs_scalar():
    with criterion(5, "power-sum system tracks the scalar reduction") as info:
        n = 3
        F = make_functional("b1", n)
        lam0 = lambda s: 0.5 + 0.25 * np.sin(2 * np.pi * s)

        defects = []
        grids = (128, 256, 512)
        for G in grids:
            fld = TauField.from_umbilical(lam0, n, G, 1.0)
            out = evolve_tau(fld, F, StepControl(t_end=1.0))
            defects.append(
                float(np.max(np.abs(out.tau[1] - out.tau[0] ** 2 / n)))
            )
        order = fitted_order([1.0 / g for g in grids], defects)
        assert order >= 0.9

        G = 1024
        fld = TauField.from_umbilical(lam0, n, G, 1.0)
        out = evolve_tau(fld, F, StepControl(t_end=1.0))
        p = UmbilicalProfile.from_function(lam0, G, 1.0)
        scalar = evolve_umbilical(p, F, StepControl(t_end=1.0))
        match = float(np.max(np.abs(out.tau[0] / n - scalar.lam)))
        assert match <= 1e-3
        info["defect_order"] = f"{order:.2f}"
        info["scalar_match"] = f"{match:.2e}"


def test_criterion_06_soliton_equivalence_corpus():
    with criterion(6, "soliton verdict == constancy over 50 profiles") as info:
        rng = np.random.default_rng(606)
        functionals = [
            make_functional("b1", 2),
            make_functional("b1", 3),
            make_functional("tau1_minus_c", 2, {"c": 1.0}),
            make_functional("affine", 1, {"a": -2.0, "b": 0.5}),
            make_functional("affine", 3, {"a": 0.7, "b": -0.2}),
        ]
        misclassified = 0
        for i in range(50):
            F = functionals[i % len(functionals)]
            if i % 2 == 0:
                value = float(rng.uniform(-2.0, 2.0))
                p = UmbilicalProfile.from_function(lambda s: value + 0 * s, 64, 1.0)
                constant = True
            else:
                amp = float(rng.uniform(0.1, 1.0))
                mean = float(rng.uniform(-1.0, 1.0))
                p = UmbilicalProfile.from_function(
                    lambda s: mean + amp * np.sin(2 * np.pi * s), 64, 1.0
                )
                constant = False
            rep = check_normal_soliton(p, F)
            expected = "soliton" if constant else "not_soliton"
            if rep.verdict != expected:
                misclassified += 1
            if (rep.n_lambda_norm <= rep.tol) != constant:
                misclassified += 1
        assert misclassified == 0
        info["misclassified"] = misclassified


def test_criterion_07_mu_continuity_and_exactness():
    with criterion(7, "mu(lam) continuity and exactness at lam = 0") as info:
        worst_gap = worst_mu0 = 0.0
        for F in (
            make_functional("b1", 2),
            make_functional("umbilical_square", 2),
            make_functional("affine", 1, {"a": -2.0, "b": 0.9}),
        ):
            mu0 = mu_of_lambda(F, 0.0)
            gap = max(
                abs(mu_of_lambda(F, 1e-8) - mu0),
                abs(mu_of_lambda(F, -1e-8) - mu0),
            )
            worst_gap = max(worst_gap, gap)
            # mu(0) = -(n/2) c_1 exactly: the gap above is mu's slope over
            # +-1e-8, not a discontinuity
            worst_mu0 = max(worst_mu0, abs(mu0 + (F.n / 2.0) * F.psi_coeffs[1]))
        assert worst_gap <= 1e-4

        # psi = -2 lam + c on curve leaves: mu is the constant 1.  mu is read
        # off psi's coefficient c_1 = -2 by Horner, with no difference quotient
        # to cancel, so it is 1.0 bitwise for every c, at lam = 0 and near it;
        # the bounds below for c != 0 are looser than that.
        cut = np.array([-1e-8, 0.0, 1e-8])
        body = np.linspace(-5, 5, 41)
        mu = np.asarray(mu_of_lambda(
            make_functional("affine", 1, {"a": -2.0}),
            np.concatenate([body, cut]),
        ))
        assert np.all(mu == 1.0)
        for c in (1.0, -3.0, 0.7):
            F = make_functional("affine", 1, {"a": -2.0, "b": c})
            mu_body = np.asarray(mu_of_lambda(F, body[body != 0.0]))
            assert np.max(np.abs(mu_body - 1.0)) <= 1e-10
            mu_cut = np.asarray(mu_of_lambda(F, cut))
            assert np.max(np.abs(mu_cut - 1.0)) <= 1e-4
        info["worst_mu0_error"] = f"{worst_mu0:.2e}"


def test_criterion_08_biregular_checker():
    with criterion(8, "biregular surface residuals on 128x128 grids") as info:
        F = make_functional("b1", 1)
        flat = BiregularGrid.from_functions(
            lambda u, v: 1.0 + 0 * u, lambda u, v: 1.0 + 0 * u,
            shape=(128, 128), periodic0=True,
        )
        tol = max(1e-8, 10.0 * max(flat.d0, float(np.diff(flat.x1).mean())) ** 2)
        rep = check_biregular_surface(flat, F, eps=psi_of_lambda(F, 0.0))
        assert rep.verdict == "soliton"
        assert all(v <= tol for v in rep.residual_linf.values())

        exp = BiregularGrid.from_functions(
            lambda u, v: 1.0 + 0 * u, lambda u, v: np.exp(-2.0 * u),
            shape=(128, 128), periodic0=False,
        )
        rep2 = check_biregular_surface(exp, F, eps=psi_of_lambda(F, 1.0))
        assert rep2.verdict == "soliton"
        assert all(v <= tol for v in rep2.residual_linf.values())

        rep3 = check_biregular_surface(exp, F, eps=psi_of_lambda(F, 0.0))
        assert rep3.verdict == "not_soliton"
        info["worst_residual"] = f"{max(rep2.residual_linf.values()):.2e}"


def test_criterion_09_ricci_classifier_vs_enumeration():
    with criterion(9, "soliton spectra classifier == brute-force enumeration") as info:
        grid = np.arange(-5.0, 5.5, 0.5)
        assert grid.size == 21
        checked = 0
        for n in (3, 4, 5, 6):
            for tau1 in grid:
                for r in grid:
                    cls = classify_ricci_soliton(n, float(tau1), float(r))
                    got = {
                        canonical_spectrum_key(s.roots, s.multiplicities)
                        for s in cls.spectra
                    }
                    expected = enumerate_ricci_soliton_spectra(
                        n, float(tau1), float(r)
                    )
                    assert got == expected, (n, tau1, r)
                    checked += 1

        flagship = classify_ricci_soliton(4, 0.0, 1.0)
        assert any(
            s.kind == "two_root"
            and s.roots == (1.0, -1.0)
            and s.multiplicities == (2, 2)
            for s in flagship.spectra
        )
        refused = classify_ricci_soliton(4, 0.0, -1.0)
        assert refused.discriminant < 0 and refused.spectra == ()
        info["points_checked"] = checked


def test_criterion_10_extrinsic_ricci_flat():
    with criterion(10, "random nonzero spectra are never extrinsic-Ricci-flat") as info:
        rng = np.random.default_rng(1010)
        flats = 0
        for _ in range(1000):
            n = int(rng.integers(2, 7))
            k = rng.uniform(-10.0, 10.0, n)
            while np.max(np.abs(k)) < 1e-6:
                k = rng.uniform(-10.0, 10.0, n)
            flats += int(is_extrinsic_ricci_flat(k))
        assert flats == 0
        for n in (1, 2, 3, 6):
            zero = (0.0,) * n
            # flat, and totally geodesic: every curvature within 1e-8 of 0
            assert is_extrinsic_ricci_flat(zero) and max(map(abs, zero)) <= 1e-8
        info["false_flats"] = flats


def test_criterion_11_cohomological_equation():
    with criterion(11, "torus cohomological equation by small divisors") as info:
        single = TorusCohomologyProblem(
            GOLDEN, mode_rows({(0, 0): 3.0, (1, -1): 0.5, (-1, 1): 0.5}), 4
        )
        sol = solve_linear_flow(single)
        assert sol.residual <= 1e-10
        assert sol.eps == pytest.approx(3.0)

        rng = np.random.default_rng(1111)
        coeffs = {}
        while len(coeffs) < 40:  # 20 conjugate pairs
            u = (int(rng.integers(-20, 21)), int(rng.integers(-20, 21)))
            if u == (0, 0) or u in coeffs:
                continue
            c = complex(rng.normal(), rng.normal())
            coeffs[u] = c
            coeffs[(-u[0], -u[1])] = c.conjugate()
        sol20 = solve_linear_flow(TorusCohomologyProblem(GOLDEN, mode_rows(coeffs), 20))
        assert sol20.residual <= 1e-10

        with pytest.raises(ResonanceError) as err:
            solve_linear_flow(
                TorusCohomologyProblem(
                    (1.0, 0.5), [[1, -2, 1.0, 0.0], [-1, 2, 1.0, 0.0]], 3
                )
            )
        assert err.value.worst_mode in ((1, -2), (-1, 2))
        info["residual_20_modes"] = f"{sol20.residual:.2e}"


def test_criterion_12_revolution_profile():
    with criterion(12, "constant-curvature generatrix: ODE, closed form, K") as info:
        profile = integrate_constant_lambda(0.5, 10.0, 1e-3)
        ode_err = float(np.max(np.abs(profile.x0 - closed_form_gamma(profile.x1))))
        assert ode_err <= 1e-8

        assert sectional_curvature_formula(0.0) == pytest.approx(-0.25)
        sample = sectional_curvature_formula(np.linspace(0.0, 100.0, 2000))
        assert np.all(sample < 0)

        cmp = sectional_curvature_profile(profile, sectional_curvature_formula)
        assert cmp.max_abs_diff <= 1e-4
        info["ode_err"] = f"{ode_err:.2e}"
        info["curvature_diff"] = f"{cmp.max_abs_diff:.2e}"


def test_criterion_13_normalized_ricci_flow():
    with criterion(13, "normalized flow fixes constant-curvature data") as info:
        # the volume-normalized flow is the umbilical march of psi = -2 lam^2
        # with phi rescaled to its initial volume
        C = 0.7
        p = UmbilicalProfile.from_function(lambda s: C + 0 * s, 64, 1.0)
        v0 = volume(p)
        snaps = []
        evolve_umbilical(p, make_functional("ext_ricci", 2), StepControl(t_end=1.0),
                         on_snapshot=lambda q: snaps.append(volume_normalized(q, v0)))
        worst_phi = max(float(np.max(np.abs(q.phi - 1.0))) for q in snaps)
        worst_volume = max(abs(volume(q) - v0) / v0 for q in snaps)
        assert len(snaps) >= 2
        assert worst_phi <= 1e-10
        assert worst_volume <= 1e-10
        info["phi_drift"] = f"{worst_phi:.2e}"
        info["volume_drift"] = f"{worst_volume:.2e}"


def criterion_14_batch():
    """The criterion-14 config batch: one config per scenario."""
    phi = GOLDEN[1]
    return [
        {
            "scenario": "umbilical-flow", "n": 2,
            "functional": {"name": "b1"},
            "initial": {"kind": "sine", "amplitude": 1.0},
            "numerics": {"grid": 512, "t_end": 2.0},
            "output": {"snapshot_stride": 100},
        },
        {
            "scenario": "umbilical-flow", "n": 2,
            "functional": {"name": "affine", "a": 1.5, "b": -0.5},
            "initial": {"kind": "constant", "value": 0.8},
            "numerics": {"grid": 128, "t_end": 1.7},
        },
        {
            "scenario": "tau-flow", "n": 3,
            "functional": {"name": "b1"},
            "initial": {"kind": "sine", "amplitude": 0.25, "mean": 0.5},
            "numerics": {"grid": 1024, "t_end": 1.0},
        },
        {
            "scenario": "cone-check", "beta": np.pi / 6,
            "numerics": {"grid": 800, "t_end": 1.0},
        },
        {
            "scenario": "soliton-check", "n": 2,
            "functional": {"name": "b1"},
            "initial": {"kind": "constant", "value": 1.3},
            "numerics": {"grid": 256},
        },
        {
            "scenario": "biregular-check",
            "functional": {"name": "b1"},
            "metric": {"name": "exp_x0"},
            "eps": "auto",
            "numerics": {"grid0": 128, "grid1": 128},
        },
        {"scenario": "ricci-classify", "n": 4, "tau1": 0.0, "r": 1.0},
        {
            "scenario": "cohomology", "v": [1.0, phi], "K": 20,
            "h": {"modes": [[0, 0, 3.0, 0.0], [1, -1, 0.5, 0.0],
                             [-1, 1, 0.5, 0.0], [7, -4, 0.0, 0.25],
                             [-7, 4, 0.0, -0.25]]},
        },
        {
            "scenario": "revolution",
            "curve": {"kind": "constant_lambda", "x1_min": 0.5,
                      "x1_max": 10.0, "step": 1e-3},
        },
    ]


def test_criterion_14_cli_determinism_and_runtime(tmp_path):
    with criterion(14, "CLI determinism and full config-batch runtime") as info:
        started = time.perf_counter()
        batch = criterion_14_batch()
        for idx, cfg in enumerate(batch):
            report, code = run(cfg, tmp_path / f"batch_{idx:02d}", quiet=True)
            assert code == EXIT_OK, report.get("error")

        # determinism: the first (flow) config twice, byte for byte
        cfg = json.loads(json.dumps(batch[0]))
        run(cfg, tmp_path / "det_a", quiet=True)
        run(cfg, tmp_path / "det_b", quiet=True)
        csv_a = (tmp_path / "det_a" / "timeseries.csv").read_bytes()
        csv_b = (tmp_path / "det_b" / "timeseries.csv").read_bytes()
        assert csv_a == csv_b

        # and a refinement sweep drives the same machinery end to end
        sweep_base = json.loads(json.dumps(batch[0]))
        sweep_base["numerics"]["grid"] = 64
        sweep_base["numerics"]["t_end"] = 0.5
        aggregate, _ = sweep_configs(
            [
                {**json.loads(json.dumps(sweep_base)),
                 "numerics": {**sweep_base["numerics"], "grid": 64 * 2 ** i}}
                for i in range(3)
            ],
            tmp_path / "sweep",
            "ds",
        )
        assert 0.9 <= aggregate["fitted_order"] <= 1.2

        elapsed = time.perf_counter() - started
        assert elapsed < 300.0
        info["batch_time_s"] = f"{elapsed:.1f}"


def test_every_table_round_trips_through_the_reference_writer(tmp_path):
    """Each CSV (and profile.dat) parsed back and rendered by the per-value
    reference writer gives the same bytes: %.17g round-trips every double, so
    any drift of the chunked writer from format(v, ".17g") shows."""
    batch = criterion_14_batch()
    batch[-1]["output"] = {"gnuplot": True}
    stride_one = json.loads(json.dumps(batch[0]))
    stride_one["numerics"].update(grid=128, t_end=0.25)
    stride_one["output"]["snapshot_stride"] = 1
    for idx, cfg in enumerate(batch + [stride_one]):
        _, code = run(cfg, tmp_path / f"run_{idx:02d}", quiet=True)
        assert code == EXIT_OK
    sweep_base = json.loads(json.dumps(stride_one))
    sweep_base["numerics"]["grid"] = 64
    sweep_configs(
        [{**sweep_base, "numerics": {**sweep_base["numerics"], "grid": g}}
         for g in (64, 128)],
        tmp_path / "sweep_ds", "ds",
    )
    # a member out of step budget writes its row with exit status 3
    aggregate, _ = sweep_configs(
        [{**sweep_base, "numerics": {**sweep_base["numerics"], "cfl": c, "max_steps": m}}
         for c, m in ((0.5, 200_000), (1.0, 200_000), (0.75, 1))],
        tmp_path / "sweep_cfl", "cfl",
    )
    assert [r["exit_status"] for r in aggregate["reports"]] == [0, 0, 3]

    tables = sorted(tmp_path.rglob("*.csv")) + sorted(tmp_path.rglob("*.dat"))
    names = {p.name for p in tables}
    assert names >= {
        "timeseries.csv", "tau_final.csv", "cone_final.csv", "residuals.csv",
        "curvature.csv", "solution_coeffs.csv", "amplification.csv",
        "profile.csv", "profile.dat", "sweep.csv",
    }
    for path in tables:
        written = path.read_bytes()
        if path.suffix == ".dat":
            header, sep = None, " "
            data = np.loadtxt(path, ndmin=2)
        else:
            header, sep = written.split(b"\n", 1)[0].decode().split(","), ","
            data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        write_csv_reference(tmp_path / "rendered", header, data.tolist(), sep)
        assert (tmp_path / "rendered").read_bytes() == written, path


def criterion_14_digests(outdir: Path) -> dict:
    """{run/file: sha256} of every CSV and .dat of the criterion-14 batch,
    run with gnuplot output on so that profile.dat is covered too.

    golden_digests.json holds this mapping and the numpy version it was
    recorded with, as ``{"numpy": np.__version__, "sha256":
    criterion_14_digests(outdir)}``."""
    batch = criterion_14_batch()
    batch[-1]["output"] = {"gnuplot": True}
    for idx, cfg in enumerate(batch):
        _, code = run(cfg, outdir / f"batch_{idx:02d}", quiet=True)
        assert code == EXIT_OK
    tables = sorted(p for p in outdir.rglob("*") if p.suffix in (".csv", ".dat"))
    return {
        p.relative_to(outdir).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in tables
    }


def test_criterion_14_tables_match_golden_digests(tmp_path):
    """The batch's tables are byte-identical to the recorded ones.  The bytes
    depend on numpy's floating-point kernels, so another numpy version skips."""
    golden = json.loads(GOLDEN_DIGESTS.read_text())
    if golden["numpy"] != np.__version__:
        pytest.skip(
            f"digests recorded with numpy {golden['numpy']}, "
            f"running numpy {np.__version__}"
        )
    assert criterion_14_digests(tmp_path) == golden["sha256"]

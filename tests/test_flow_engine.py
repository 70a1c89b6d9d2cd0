from __future__ import annotations

import numpy as np
import pytest

from egf_lab.flow_engine import (
    BoundedProgressError,
    FlowBlowUpError,
    FlowHistory,
    RICCI_N2,
    ShockError,
    StepControl,
    TauField,
    UmbilicalProfile,
    characteristics_oracle,
    evolve_normalized_ricci,
    evolve_tau,
    evolve_umbilical,
    evolve_warping,
    step_tau_system,
    step_umbilical,
)
from egf_lab.sym_curvature import FlowFunctional, psi_of_lambda

from test_sym_curvature import functional_b1, functional_tau1_minus_c


def functional_square(n):
    """psi(lam) = lam^2 for any n."""
    if n == 1:
        return FlowFunctional(1, (lambda tau: tau[..., 0] ** 2,), ("f0 = tau1^2",))
    f = [lambda tau: tau[..., 1] / n] + [
        (lambda tau: np.zeros(tau.shape[:-1])) for _ in range(n - 1)
    ]
    return FlowFunctional(n, tuple(f))


def functional_affine(n, a, b):
    """psi(lam) = a lam + b."""
    f = [lambda tau: a * tau[..., 0] / n + b] + [
        (lambda tau: np.zeros(tau.shape[:-1])) for _ in range(n - 1)
    ]
    return FlowFunctional(n, tuple(f))


def sine_profile(grid=128, length=1.0, amplitude=1.0, mean=0.0):
    return UmbilicalProfile.from_function(
        lambda s: mean + amplitude * np.sin(2 * np.pi * s / length),
        grid, length, "periodic",
    )


class TestStepUmbilical:
    def test_constant_profile_is_exactly_preserved(self):
        for scheme in ("upwind", "lax_friedrichs"):
            p = UmbilicalProfile.from_function(lambda s: 2.5 + 0 * s, 64, 1.0)
            ctl = StepControl(t_end=0.5, scheme=scheme)
            out, _ = evolve_umbilical(p, functional_square(2), ctl)
            assert np.all(out.lam == 2.5)
            assert out.t == pytest.approx(0.5)

    def test_traveling_wave_upwind(self):
        F = functional_b1(2)  # psi(lam) = lam, unit-speed/2 translation
        p = sine_profile(grid=512)
        ctl = StepControl(t_end=1.0, cfl=0.9)
        out, _ = evolve_umbilical(p, F, ctl)
        exact = np.sin(2 * np.pi * (p.s - 0.5))
        assert np.max(np.abs(out.lam - exact)) < 0.02

    def test_traveling_wave_lax_friedrichs(self):
        F = functional_b1(2)
        p = sine_profile(grid=512)
        ctl = StepControl(t_end=1.0, cfl=0.9, scheme="lax_friedrichs")
        out, _ = evolve_umbilical(p, F, ctl)
        exact = np.sin(2 * np.pi * (p.s - 0.5))
        assert np.max(np.abs(out.lam - exact)) < 0.05

    @pytest.mark.parametrize("scheme", ["upwind", "lax_friedrichs"])
    def test_convergence_first_order(self, scheme):
        F = functional_b1(2)
        errs = []
        grids = [64, 128, 256]
        for g in grids:
            p = sine_profile(grid=g)
            out, _ = evolve_umbilical(p, F, StepControl(t_end=0.5, scheme=scheme))
            exact = np.sin(2 * np.pi * (p.s - 0.25))
            errs.append(np.max(np.abs(out.lam - exact)))
        rates = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
        assert np.all(rates > 0.9), f"{scheme} measured rates {rates}"

    def test_max_principle_upwind(self):
        F = functional_square(2)  # psi' = 2 lam, varies in sign over the profile
        p = sine_profile(grid=128, amplitude=0.4, mean=1.0)  # psi' > 0 everywhere
        lo, hi = p.lam.min(), p.lam.max()
        out, _ = evolve_umbilical(p, F, StepControl(t_end=0.2))
        assert out.lam.min() >= lo - 1e-12
        assert out.lam.max() <= hi + 1e-12

    def test_cone_translation_with_exact_inflow(self):
        F = functional_b1(2)
        p = UmbilicalProfile.from_function(
            lambda s: -2.0 / s, 400, 4.0, "transmissive", s0=2.0
        )
        ctl = StepControl(t_end=1.0, cfl=0.9)
        out, _ = evolve_umbilical(
            p, F, ctl, inflow_left=lambda t: -2.0 / (2.0 - t / 2.0)
        )
        exact = -2.0 / (p.s - 0.5)
        assert np.max(np.abs(out.lam - exact)) < 5e-3

    def test_heun_runs(self):
        F = functional_b1(2)
        p = sine_profile(grid=128)
        out, _ = evolve_umbilical(
            p, F, StepControl(t_end=0.3, integrator="heun")
        )
        exact = np.sin(2 * np.pi * (p.s - 0.15))
        assert np.max(np.abs(out.lam - exact)) < 0.05

    def test_zero_speed_jumps_to_t_end(self):
        F = functional_tau1_minus_c(2, 0.0)
        # psi = 2 lam has psi' = 2 everywhere, so use a constant functional:
        Fconst = FlowFunctional(2, (lambda tau: np.ones(tau.shape[:-1]),
                                    lambda tau: np.zeros(tau.shape[:-1])))
        p = sine_profile(grid=64)
        out, hist = evolve_umbilical(p, Fconst, StepControl(t_end=3.0))
        assert out.t == pytest.approx(3.0)
        assert len(hist.times) == 2  # one jump
        np.testing.assert_allclose(out.lam, p.lam)
        # warping still accumulates: psi == 1 constant
        np.testing.assert_allclose(out.phi, np.exp(0.5 * 3.0), rtol=1e-12)
        del F

    def test_max_steps_exhaustion(self):
        F = functional_b1(2)
        p = sine_profile(grid=128)
        with pytest.raises(BoundedProgressError):
            evolve_umbilical(p, F, StepControl(t_end=10.0, max_steps=3))

    def test_shock_is_smeared_not_amplified(self):
        # first-order upwind is monotone: compressive data under psi = lam^2
        # steepens into a smeared shock with no total-variation growth
        F = functional_square(2)
        p = sine_profile(grid=256, amplitude=2.0)
        from egf_lab.flow_engine import total_variation
        tv0 = total_variation(p.lam, True)
        out, _ = evolve_umbilical(p, F, StepControl(t_end=2.0))
        assert total_variation(out.lam, True) <= tv0 + 1e-9

    def test_blowup_on_overflowing_warping(self):
        # a huge constant deformation speed overflows phi in one jump; the
        # driver reports the last valid time instead of propagating inf
        Fbig = FlowFunctional(
            2,
            (lambda tau: 1e7 * np.ones(tau.shape[:-1]),
             lambda tau: np.zeros(tau.shape[:-1])),
        )
        p = UmbilicalProfile.from_function(lambda s: 0 * s, 64, 1.0)
        with pytest.raises(FlowBlowUpError) as err:
            evolve_umbilical(p, Fbig, StepControl(t_end=3.0))
        assert err.value.t_last == 0.0

    def test_oscillation_growth_detector(self, monkeypatch):
        # the detector itself: make the stepper inject growing oscillation
        import egf_lab.flow_engine as fe

        def bad_step(p, F, ctl, inflow_left=None, inflow_right=None):
            noise = 3.0 * (-1.0) ** np.arange(p.s.size)
            return UmbilicalProfile(p.s, p.lam + noise, p.phi, p.boundary, p.t + 0.01)

        monkeypatch.setattr(fe, "step_umbilical", bad_step)
        p = sine_profile(grid=64)
        with pytest.raises(FlowBlowUpError, match="total variation"):
            fe.evolve_umbilical(p, functional_b1(2), StepControl(t_end=1.0))

    def test_control_validation(self):
        with pytest.raises(ValueError):
            StepControl(t_end=1.0, cfl=1.5)
        with pytest.raises(ValueError):
            StepControl(t_end=1.0, scheme="magic")
        with pytest.raises(ValueError):
            StepControl(t_end=1.0, integrator="heun", scheme="lax_friedrichs")
        for t_end in (-1.0, np.inf, np.nan):
            with pytest.raises(ValueError, match="t_end"):
                StepControl(t_end=t_end)

    def test_profile_validation(self):
        with pytest.raises(ValueError):
            UmbilicalProfile(np.linspace(0, 1, 4), np.zeros(4), np.ones(4))
        with pytest.raises(ValueError):
            UmbilicalProfile(
                np.linspace(0, 1, 16), np.zeros(16), np.full(16, -1.0)
            )


class TestWarping:
    @pytest.mark.parametrize("make,n", [
        (functional_b1, 2),
        (functional_square, 2),
        (lambda n: functional_affine(n, 1.5, -0.5), 3),
    ])
    def test_constant_lambda_closed_form(self, make, n):
        F = make(n)
        C = 0.8
        p = UmbilicalProfile.from_function(lambda s: C + 0 * s, 64, 1.0)
        t_end = 1.7
        out, hist = evolve_umbilical(p, F, StepControl(t_end=t_end))
        expected = np.exp(0.5 * t_end * psi_of_lambda(F, C))
        np.testing.assert_allclose(out.phi, expected, rtol=1e-10)
        phi = evolve_warping(hist, p, F)
        np.testing.assert_allclose(phi, expected, rtol=1e-10)

    def test_zero_psi_keeps_phi(self):
        F = functional_tau1_minus_c(2, 0.0)  # psi(0) = 0 on zero data
        p = UmbilicalProfile.from_function(lambda s: 0 * s, 64, 1.0)
        out, _ = evolve_umbilical(p, F, StepControl(t_end=2.0))
        np.testing.assert_allclose(out.phi, 1.0)

    def test_grid_mismatch_rejected(self):
        F = functional_b1(2)
        p = sine_profile(grid=64)
        hist = FlowHistory()
        hist.append(0.0, np.zeros(32))
        with pytest.raises(ValueError, match="grid"):
            evolve_warping(hist, p, F)

    def test_warping_stays_positive(self):
        F = functional_tau1_minus_c(2, 3.0)  # strongly negative psi
        p = sine_profile(grid=64, amplitude=0.3)
        out, _ = evolve_umbilical(p, F, StepControl(t_end=1.0))
        assert np.all(out.phi > 0)


class TestCharacteristicsOracle:
    def test_translation_for_linear_psi(self):
        F = functional_b1(2)
        s = np.linspace(0, 1, 200, endpoint=False)
        lam0 = lambda x: np.sin(2 * np.pi * x)
        out = characteristics_oracle(lam0, F, 0.8, s, periodic_length=1.0)
        # translation speed carries the 1e-10 noise of the central-difference
        # slope probe, nothing more
        np.testing.assert_allclose(out, lam0(s - 0.4), atol=1e-9)

    def test_identity_at_t0(self):
        F = functional_square(2)
        s = np.linspace(0, 1, 50, endpoint=False)
        out = characteristics_oracle(lambda x: np.cos(x), F, 0.0, s, periodic_length=1.0)
        np.testing.assert_allclose(out, np.cos(s))

    def test_nonlinear_against_fine_solver(self):
        F = functional_square(2)  # speed = lam
        length = 1.0
        s = length * np.arange(256) / 256
        lam0 = lambda x: 1.5 + 0.2 * np.sin(2 * np.pi * x / length)
        t = 0.25
        oracle = characteristics_oracle(lam0, F, t, s, periodic_length=length)
        p = UmbilicalProfile.from_function(lam0, 4096, length)
        out, _ = evolve_umbilical(p, F, StepControl(t_end=t, cfl=0.5))
        solver = np.interp(s, p.s, out.lam, period=length)
        assert np.max(np.abs(oracle - solver)) < 5e-3

    def test_shock_detection(self):
        F = functional_square(2)
        s = np.linspace(0, 1, 100, endpoint=False)
        # strong compressive data: characteristics cross quickly
        with pytest.raises(ShockError):
            characteristics_oracle(
                lambda x: np.sin(2 * np.pi * x), F, 2.0, s, periodic_length=1.0
            )


class TestTauSystem:
    def test_constant_field_stationary(self):
        F = functional_b1(3)
        fld = TauField.from_umbilical(lambda s: 1.2 + 0 * s, 3, 64, 1.0)
        out = evolve_tau(fld, F, StepControl(t_end=1.0))
        np.testing.assert_allclose(out.tau, fld.tau, atol=1e-13)

    def test_zero_field_fixed_point(self):
        F = functional_b1(3)  # f_0 = 0 at the origin
        fld = TauField.from_umbilical(lambda s: 0 * s, 3, 64, 1.0)
        out = evolve_tau(fld, F, StepControl(t_end=1.0))
        np.testing.assert_allclose(out.tau, 0.0, atol=1e-14)

    def test_umbilical_tracks_scalar_solver(self):
        n = 3
        F = functional_b1(n)
        lam0 = lambda s: 0.5 + 0.25 * np.sin(2 * np.pi * s)
        G = 256
        fld = TauField.from_umbilical(lam0, n, G, 1.0)
        p = UmbilicalProfile.from_function(lam0, G, 1.0)
        ctl = StepControl(t_end=0.5)
        out_tau = evolve_tau(fld, F, ctl)
        out_lam, _ = evolve_umbilical(p, F, ctl)
        assert np.max(np.abs(out_tau.tau[:, 0] / n - out_lam.lam)) < 1e-6

    def test_umbilical_relation_persists_first_order(self):
        n = 3
        F = functional_b1(n)
        lam0 = lambda s: 0.5 + 0.25 * np.sin(2 * np.pi * s)
        defects = []
        grids = [64, 128, 256]
        for G in grids:
            fld = TauField.from_umbilical(lam0, n, G, 1.0)
            out = evolve_tau(fld, F, StepControl(t_end=0.5))
            defects.append(
                np.max(np.abs(out.tau[:, 1] - out.tau[:, 0] ** 2 / n))
            )
        rates = np.log2(np.array(defects[:-1]) / np.array(defects[1:]))
        assert np.all(rates > 0.8)

    def test_lax_friedrichs_variant_runs(self):
        n = 2
        F = functional_b1(n)
        fld = TauField.from_umbilical(
            lambda s: 0.3 * np.sin(2 * np.pi * s), n, 128, 1.0
        )
        out = evolve_tau(fld, F, StepControl(t_end=0.25, scheme="lax_friedrichs"))
        assert np.all(np.isfinite(out.tau))

    def test_dimension_mismatch(self):
        F = functional_b1(2)
        fld = TauField.from_umbilical(lambda s: 0 * s + 1, 3, 64, 1.0)
        with pytest.raises(ValueError):
            step_tau_system(fld, F, StepControl(t_end=1.0))


class TestNormalizedRicci:
    def test_zero_lambda_stationary(self):
        p = UmbilicalProfile.from_function(lambda s: 0 * s, 64, 1.0)
        out, diags = evolve_normalized_ricci(p, StepControl(t_end=1.0))
        np.testing.assert_allclose(out.lam, 0.0)
        np.testing.assert_allclose(out.phi, 1.0)
        assert all(d.rho == 0.0 for d in diags)

    def test_constant_lambda_fixed_point_of_phi(self):
        C = 0.7
        p = UmbilicalProfile.from_function(lambda s: C + 0 * s, 64, 1.0)
        out, diags = evolve_normalized_ricci(p, StepControl(t_end=1.0))
        np.testing.assert_allclose(out.lam, C)
        np.testing.assert_allclose(out.phi, 1.0, rtol=1e-10)
        for d in diags:
            assert d.rho == pytest.approx(4 * C ** 2, rel=1e-12)
            assert abs(d.normalization_integral) <= 1e-10

    def test_negated_normalization_is_not_stationary(self):
        C = 0.7
        p = UmbilicalProfile.from_function(lambda s: C + 0 * s, 64, 1.0)
        out, _ = evolve_normalized_ricci(p, StepControl(t_end=1.0), negate_normalization=True)
        assert np.max(np.abs(out.phi - 1.0)) > 1e-3

    def test_nonconstant_normalization_integral_vanishes(self):
        p = UmbilicalProfile.from_function(
            lambda s: 0.5 + 0.2 * np.sin(2 * np.pi * s), 128, 1.0
        )
        out, diags = evolve_normalized_ricci(p, StepControl(t_end=0.3))
        scale = max(abs(d.rho) for d in diags)
        for d in diags:
            assert abs(d.normalization_integral) <= 1e-10 * max(1.0, scale)
        assert np.all(out.phi > 0)

    def test_psi_of_ricci_functional(self):
        lam = np.linspace(-2, 2, 9)
        np.testing.assert_allclose(
            psi_of_lambda(RICCI_N2, lam), -2 * lam ** 2, atol=1e-12
        )

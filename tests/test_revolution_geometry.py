from __future__ import annotations

import numpy as np
import pytest

from egf_lab.flow_engine import StepControl
from egf_lab.revolution_geometry import (
    RevolutionProfile,
    closed_form_gamma,
    cone_flow_check,
    integrate_constant_lambda,
    profile_metric,
    sectional_curvature_formula,
    sectional_curvature_profile,
)

from oracles import reparameterize_arclength


class TestProfileMetric:
    def test_cylinder(self):
        x0 = np.linspace(0, 1, 16)
        p = RevolutionProfile(x0, x0, np.full(16, 3.0), np.ones(16), np.zeros(16))
        g00, g11 = profile_metric(p)
        np.testing.assert_allclose(g00, 1.0)
        np.testing.assert_allclose(g11, 9.0)

    def test_cone(self):
        beta = np.pi / 6
        p = RevolutionProfile.cone(beta, (1.0, 5.0), 64)
        g00, g11 = profile_metric(p)
        np.testing.assert_allclose(g00, 1.0 / np.cos(beta) ** 2, rtol=1e-12)
        np.testing.assert_allclose(g11, (np.tan(beta) * p.x0) ** 2, rtol=1e-12)

    def test_constant_lambda_profile_metric_matches_ode(self):
        p = integrate_constant_lambda(0.5, 5.0, 1e-2)
        g00, g11 = profile_metric(p)
        np.testing.assert_allclose(g00, (4 + p.x1 ** 2) / p.x1 ** 2 + 1, rtol=1e-12)
        np.testing.assert_allclose(g11, p.x1 ** 2)


class TestArclength:
    def test_cone_reparameterization(self):
        beta = np.pi / 6
        p = RevolutionProfile.cone(beta, (1.0, 5.0), 128)
        q = reparameterize_arclength(p)
        g00, g11 = profile_metric(q)
        np.testing.assert_allclose(g00, 1.0, atol=1e-10)
        # leaf factor becomes (arclength from apex * sin beta)^2
        s_from_apex = q.param + 1.0 / np.cos(beta)
        np.testing.assert_allclose(g11, (s_from_apex * np.sin(beta)) ** 2, rtol=1e-8)

    def test_unit_profile_is_fixed(self):
        x0 = np.linspace(0, 2, 64)
        p = RevolutionProfile(x0, x0, np.ones(64), np.ones(64), np.zeros(64))
        q = reparameterize_arclength(p)
        np.testing.assert_allclose(q.x0, p.x0, atol=1e-10)
        np.testing.assert_allclose(q.x1, p.x1, atol=1e-10)

    def test_constant_lambda_curve_unit_metric(self):
        p = integrate_constant_lambda(0.5, 5.0, 1e-3)
        q = reparameterize_arclength(p)
        g00, _ = profile_metric(q)
        assert np.max(np.abs(g00 - 1.0)) <= 1e-6


class TestClosedForm:
    def test_derivative_matches_ode(self):
        for x1 in (1.0, 2.0, 5.0):
            h = 1e-6
            num = (closed_form_gamma(x1 + h) - closed_form_gamma(x1 - h)) / (2 * h)
            assert num == pytest.approx(np.sqrt(4 + x1 ** 2) / x1, abs=1e-6)

    def test_monotone(self):
        x1 = np.linspace(0.1, 20, 500)
        assert np.all(np.diff(closed_form_gamma(x1)) > 0)

    def test_additive_constant(self):
        assert closed_form_gamma(2.0, 1.0) == pytest.approx(
            closed_form_gamma(2.0, 0.0) + 1.0
        )

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            closed_form_gamma(0.0)

    def test_log_divergence_at_zero(self):
        assert closed_form_gamma(1e-8) < -30


class TestConstantLambdaODE:
    def test_agreement_with_closed_form(self):
        p = integrate_constant_lambda(0.5, 10.0, 1e-3)
        exact = closed_form_gamma(p.x1)
        assert np.max(np.abs(p.x0 - exact)) <= 1e-8

    def test_asymptotic_unit_slope(self):
        p = integrate_constant_lambda(50.0, 120.0, 1e-2)
        slope = p.dx1 / p.dx0  # df/dx0 along the curve
        assert abs(slope[-1] - 1.0) <= 1e-3

    def test_rejects_bad_range(self):
        with pytest.raises(ValueError):
            integrate_constant_lambda(0.0, 1.0, 1e-3)
        with pytest.raises(ValueError):
            integrate_constant_lambda(2.0, 1.0, 1e-3)


class TestSectionalCurvature:
    def test_printed_values(self):
        assert sectional_curvature_formula(0.0) == pytest.approx(-0.25)
        x1 = np.linspace(0.1, 100, 300)
        K = sectional_curvature_formula(x1)
        assert np.all(K < 0)
        assert abs(sectional_curvature_formula(100.0)) < 1e-7

    def test_oracle_agreement_on_integrated_profile(self):
        p = integrate_constant_lambda(0.5, 10.0, 1e-3)
        cmp = sectional_curvature_profile(p, sectional_curvature_formula)
        assert cmp.max_abs_diff <= 1e-4

    def test_cone_is_flat(self):
        p = RevolutionProfile.cone(np.pi / 5, (1.0, 4.0), 128)
        t = p.param
        x1p = np.gradient(p.x1, t, edge_order=2)
        x1pp = np.gradient(x1p, t, edge_order=2)
        oracle = -x1pp / (p.x1 * (1 + x1p ** 2) ** 2)
        assert np.max(np.abs(oracle)) <= 1e-10


class TestConeFlow:
    def test_zero_time_zero_error(self):
        results, _ = cone_flow_check(np.pi / 6, StepControl(t_end=0.0), 200)
        assert results["sup_err_lambda"] == 0.0
        assert results["sup_err_phi_integral"] <= 1e-12

    def test_lambda_tracks_translated_cone(self):
        results, _ = cone_flow_check(np.pi / 6, StepControl(t_end=1.0), 800)
        assert results["sup_err_lambda"] <= 5e-3

    def test_error_halves_under_refinement(self):
        errs = [
            cone_flow_check(np.pi / 6, StepControl(t_end=1.0), g)[0]["sup_err_lambda"]
            for g in (200, 400, 800)
        ]
        rates = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
        assert np.all(rates >= 0.9)

    def test_phi_matches_exact_integral_not_translated_radius(self):
        results, _ = cone_flow_check(np.pi / 6, StepControl(t_end=1.0), 800)
        assert results["sup_err_phi_integral"] <= 1e-2
        # the translated-cone radius uses the other curvature convention and
        # stays visibly off
        assert results["sup_err_phi_translated"] > 0.05
        assert any("convention" in n or "reported" in n for n in results["notes"])

    def test_apex_guard(self):
        with pytest.raises(ValueError, match="apex"):
            cone_flow_check(
                np.pi / 6, StepControl(t_end=5.0), 100, domain=(2.0, 6.0)
            )

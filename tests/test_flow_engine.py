from __future__ import annotations

from collections import Counter

import numpy as np
import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from egf_lab import flow_engine
from egf_lab.catalog import FUNCTIONALS, make_functional
from egf_lab.flow_engine import (
    BOUNDARIES,
    BoundedProgressError,
    FlowBlowUpError,
    ShockError,
    StepControl,
    TauField,
    UmbilicalProfile,
    characteristics_oracle,
    crossing_time,
    evolve_tau,
    evolve_umbilical,
    _axis_derivative,
    _fill_ghosts,
    _padded,
    step_tau_system,
    step_umbilical,
    total_variation,
)
from egf_lab.sym_curvature import (
    FlowFunctional,
    power_sums_with_tau0,
    psi_of_lambda,
    psi_prime,
)

from oracles import (
    FlowHistory,
    central_difference_reference,
    evolve_warping,
    hopf_lax_burgers,
    neighbors_reference,
    power_sums_with_tau0_reference,
    psi_prime_one_expression,
    step_tau_system_one_expression,
    step_tau_system_reference,
    step_tau_system_update_reference,
    step_umbilical_one_expression,
    step_umbilical_reference,
    tau_jacobian,
    tau_speeds_one_expression,
    total_variation_one_expression,
    total_variation_reference,
    umbilical_jacobian,
    volume,
    volume_normalized,
)

# every catalog functional, with parameters where it takes any
CATALOG_CASES = [("b1", {}), ("tau1_minus_c", {"c": 0.3}), ("ext_ricci", {}),
                 ("umbilical_square", {}), ("affine", {"a": 0.7, "b": -0.2})]


def dense_functional(n):
    """Every f_j varies with tau: no term of the tau system's bracket is zero,
    so the step forms every one.  f_j is 0.1 (j + 1) tau_1 + 0.05 tau_n."""
    tau_1, tau_n = (tuple(int(k == i) for k in range(n)) for i in (0, n - 1))
    return FlowFunctional(n, tuple(((tau_1, 0.1 * (j + 1)), (tau_n, 0.05))
                                   for j in range(n)))


def sine_profile(grid=128, length=1.0, amplitude=1.0, mean=0.0):
    return UmbilicalProfile.from_function(
        lambda s: mean + amplitude * np.sin(2 * np.pi * s / length),
        grid, length, "periodic",
    )


# the functionals whose psi is linear in lam: psi' is constant, so Rusanov's
# dissipation |psi'| makes the flux form upwind in exact arithmetic
LINEAR_PSI = ("b1", "tau1_minus_c", "affine")


@pytest.fixture(scope="module")
def burgers_past_crossing():
    """The entropy solution at t = 1 of lam0 = 0.5 + 0.5 sin 2 pi s under
    psi = lam^2, whose characteristics cross at t* = 1/pi, at the periodic
    nodes k/1024; the nodes of G = 256 and 512 are every 4th and 2nd of them.
    0 <= lam <= 1 puts the Hopf-Lax minimizer in [s - 1, s], and its node
    spacing 2.5e-5 bounds the oracle's error far below the step's."""
    y = np.linspace(-1.0, 1.0, 80_001)
    U0 = lambda y: 0.5 * y + (1.0 - np.cos(2 * np.pi * y)) / (4 * np.pi)
    return hopf_lax_burgers(U0, np.arange(1024) / 1024, 1.0, y)


class TestStepUmbilical:
    @pytest.mark.parametrize("cfl", [0.5, 0.9])
    def test_shock_converges_to_entropy_solution(self, burgers_past_crossing, cfl):
        # past the crossing the conservative step keeps the mean of lam to
        # rounding and converges in L1 at first order to the entropy solution
        F = make_functional("umbilical_square", 2)  # psi = lam^2
        grids = (256, 512, 1024)
        errs = []
        for grid in grids:
            p = sine_profile(grid=grid, amplitude=0.5, mean=0.5)
            out = evolve_umbilical(p, F, StepControl(t_end=1.0, cfl=cfl))
            assert abs(out.lam.mean() - p.lam.mean()) <= 1e-14
            errs.append(np.abs(out.lam - burgers_past_crossing[::1024 // grid]).mean())
        order = -np.polyfit(np.log(grids), np.log(errs), 1)[0]
        assert errs[0] <= 4e-3 and order >= 0.9, (errs, order)

    def test_sonic_point_before_crossing(self):
        # lam0 = 0.5 sin 2 pi s under psi = lam^2: psi' changes sign, and
        # Rusanov's dissipation there, the larger |psi'| of each face, costs
        # sup-norm order (about 0.7) but keeps first order in L1
        F = make_functional("umbilical_square", 2)
        lam0 = lambda s: 0.5 * np.sin(2 * np.pi * s)
        grids = (256, 512, 1024)
        sup, l1 = [], []
        for grid in grids:
            p = UmbilicalProfile.from_function(lam0, grid, 1.0)
            out = evolve_umbilical(p, F, StepControl(t_end=0.25))
            err = np.abs(out.lam - characteristics_oracle(lam0, F, 0.25, p.s, 1.0))
            sup.append(err.max())
            l1.append(err.mean())
        order = -np.polyfit(np.log(grids), np.log(l1), 1)[0]
        assert sup[0] <= 2.5e-2 and l1[0] <= 2e-3 and order >= 0.9, (sup, l1, order)

    @pytest.mark.parametrize("cfl", [0.5, 0.9])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("boundary", BOUNDARIES)
    @pytest.mark.parametrize("name,params", [
        (name, params) for name, params in CATALOG_CASES if name in LINEAR_PSI])
    def test_step_matches_quasilinear_reference(self, name, params, boundary, seed, cfl):
        # for linear psi the face-flux step changes lam by rounding only from
        # the quasilinear upwind step: a few ulps of the step's largest term.
        # The reference also carries the error e of psi_prime's difference
        # stencil, where the face-flux step reads psi' only in its
        # dissipation: the two differ by up to dt/ds e max|lam_+ - lam_-|
        F = make_functional(name, 3, params)
        rng = np.random.default_rng(seed)
        s = np.arange(64) / 64 if boundary == "periodic" else np.linspace(0.0, 1.0, 64)
        p = UmbilicalProfile(s, rng.uniform(-1.0, 1.0, 64), rng.uniform(0.5, 2.0, 64),
                             boundary, 0.25)
        ctl = StepControl(t_end=1.0, cfl=cfl)
        got, want = step_umbilical(p, F, ctl), step_umbilical_reference(p, F, ctl)
        assert got.t == want.t
        dt, lam = got.t - p.t, p.lam
        largest = max(np.abs(lam).max(), dt / p.ds * np.abs(psi_of_lambda(F, lam)).max())
        e = np.abs(psi_prime(F, lam) - F.psi_coeffs[1]).max()
        bound = 8 * np.spacing(largest) + dt / p.ds * e * 2 * np.abs(lam).max()
        assert np.abs(got.lam - want.lam).max() <= bound

    @pytest.mark.parametrize("boundary", BOUNDARIES)
    def test_constant_profile_is_exactly_preserved(self, boundary):
        p = UmbilicalProfile.from_function(lambda s: 2.5 + 0 * s, 64, 1.0, boundary)
        out = evolve_umbilical(p, make_functional("umbilical_square", 2),
                               StepControl(t_end=0.5))
        assert np.all(out.lam == 2.5)
        assert out.t == pytest.approx(0.5)

    @pytest.mark.parametrize("cfl", [0.5, 0.9])
    def test_traveling_wave_upwind(self, cfl):
        F = make_functional("b1", 2)  # psi(lam) = lam, unit-speed/2 translation
        p = sine_profile(grid=512)
        ctl = StepControl(t_end=1.0, cfl=cfl)
        out = evolve_umbilical(p, F, ctl)
        exact = np.sin(2 * np.pi * (p.s - 0.5))
        assert np.max(np.abs(out.lam - exact)) < 0.02

    @pytest.mark.parametrize("cfl", [0.5, 0.9])
    def test_convergence_first_order(self, cfl):
        F = make_functional("b1", 2)
        errs = []
        grids = [64, 128, 256]
        for g in grids:
            p = sine_profile(grid=g)
            out = evolve_umbilical(p, F, StepControl(t_end=0.5, cfl=cfl))
            exact = np.sin(2 * np.pi * (p.s - 0.25))
            errs.append(np.max(np.abs(out.lam - exact)))
        rates = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
        assert np.all(rates > 0.9), f"measured rates {rates}"

    @pytest.mark.parametrize("cfl", [0.5, 0.9])
    def test_max_principle(self, cfl):
        F = make_functional("umbilical_square", 2)  # psi' = 2 lam
        # mean 0: psi' changes sign over the profile; t_end 0.2 < t* = 1/(0.8 pi)
        p = sine_profile(grid=128, amplitude=0.4, mean=0.0)
        lo, hi = p.lam.min(), p.lam.max()
        out = evolve_umbilical(p, F, StepControl(t_end=0.2, cfl=cfl))
        assert out.lam.min() >= lo - 1e-12
        assert out.lam.max() <= hi + 1e-12

    def test_cone_translation_with_exact_inflow(self):
        F = make_functional("b1", 2)
        p = UmbilicalProfile.from_function(
            lambda s: -2.0 / s, 400, 4.0, "transmissive", s0=2.0
        )
        ctl = StepControl(t_end=1.0, cfl=0.9)
        out = evolve_umbilical(
            p, F, ctl, inflow_left=lambda t: -2.0 / (2.0 - t / 2.0)
        )
        exact = -2.0 / (p.s - 0.5)
        assert np.max(np.abs(out.lam - exact)) < 5e-3

    def test_zero_speed_jumps_to_t_end(self):
        F = make_functional("tau1_minus_c", 2, {"c": 0.0})
        # psi = 2 lam has psi' = 2 everywhere, so use a constant functional:
        Fconst = FlowFunctional(2, ((((0, 0), 1.0),), ()))
        p = sine_profile(grid=64)
        snapshots = []
        out = evolve_umbilical(
            p, Fconst, StepControl(t_end=3.0), on_snapshot=snapshots.append
        )
        assert out.t == pytest.approx(3.0)
        assert len(snapshots) == 2  # one jump
        np.testing.assert_allclose(out.lam, p.lam)
        # warping still accumulates: psi == 1 constant
        np.testing.assert_allclose(out.phi, np.exp(0.5 * 3.0), rtol=1e-12)
        del F

    def test_max_steps_exhaustion(self):
        F = make_functional("b1", 2)
        p = sine_profile(grid=128)
        with pytest.raises(BoundedProgressError):
            evolve_umbilical(p, F, StepControl(t_end=10.0, max_steps=3))

    def test_shock_is_smeared_not_amplified(self):
        # first-order upwind is monotone: compressive data under psi = lam^2
        # steepens into a smeared shock with no total-variation growth
        F = make_functional("umbilical_square", 2)
        p = sine_profile(grid=256, amplitude=2.0)
        from egf_lab.flow_engine import total_variation
        tv0 = total_variation(p.lam, True)
        out = evolve_umbilical(p, F, StepControl(t_end=2.0))
        assert total_variation(out.lam, True) <= tv0 + 1e-9

    def test_blowup_on_overflowing_warping(self):
        # a huge constant deformation speed overflows phi in one jump; the
        # driver reports the last valid time instead of propagating inf
        Fbig = FlowFunctional(2, ((((0, 0), 1e7),), ()))
        p = UmbilicalProfile.from_function(lambda s: 0 * s, 64, 1.0)
        with pytest.raises(FlowBlowUpError) as err:
            evolve_umbilical(p, Fbig, StepControl(t_end=3.0))
        assert err.value.t_last == 0.0

    def test_blowup_on_underflowing_warping(self):
        # a large negative constant speed underflows phi to 0 in one jump: a
        # blow-up at the last valid time, not a malformed profile
        Fneg = FlowFunctional(2, ((((0, 0), -1e4),), ()))
        p = UmbilicalProfile.from_function(lambda s: 0.5 + 0.1 * np.sin(s), 64, 1.0)
        with pytest.raises(FlowBlowUpError, match="warping factor") as err:
            evolve_umbilical(p, Fneg, StepControl(t_end=1.0))
        assert err.value.t_last == 0.0

    def test_oscillation_growth_detector(self, monkeypatch):
        # the detector itself: make the steppers inject growing oscillation;
        # the scalar and power-sum marches share the guard
        import egf_lab.flow_engine as fe

        def noise(grid):
            return 3.0 * (-1.0) ** np.arange(grid)

        def bad_step(p, F, ctl, inflow_left=None):
            return UmbilicalProfile(
                p.s, p.lam + noise(p.s.size), p.phi, p.boundary, p.t + 0.01
            )

        def bad_tau_step(fld, F, ctl):
            tau = fld.tau + noise(fld.s.size)
            return TauField(fld.s, tau, fld.boundary, fld.t + 0.01)

        monkeypatch.setattr(fe, "step_umbilical", bad_step)
        monkeypatch.setattr(fe, "step_tau_system", bad_tau_step)
        ctl = StepControl(t_end=1.0)
        p = sine_profile(grid=64)
        fld = TauField.from_umbilical(lambda s: np.sin(2 * np.pi * s), 2, 64, 1.0)
        marches = {
            "umbilical": lambda: fe.evolve_umbilical(p, make_functional("b1", 2), ctl),
            "tau": lambda: fe.evolve_tau(fld, make_functional("b1", 2), ctl),
        }
        for driver, march in marches.items():
            with pytest.raises(FlowBlowUpError, match="total variation"):
                march()

    def test_control_validation(self):
        with pytest.raises(ValueError):
            StepControl(t_end=1.0, cfl=1.5)
        with pytest.raises(ValueError, match="max_steps"):
            StepControl(t_end=1.0, max_steps=0)
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

    @pytest.mark.parametrize("node", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("at", [0, 5, 15])
    def test_non_finite_grid_node_refused(self, node, at):
        # NaN fails every comparison and a +inf end makes an inf step, which
        # the uniformity test (inf - lo > 1e-9 inf) cannot see
        s = np.linspace(0.0, 1.0, 16)
        s[at] = node
        with pytest.raises(ValueError, match="grid nodes must be finite"):
            UmbilicalProfile(s, np.zeros(16), np.ones(16))
        with pytest.raises(ValueError, match="grid nodes must be finite"):
            TauField(s, np.zeros((2, 16)))


class TestWarping:
    @pytest.mark.parametrize("name,n,params", [
        ("b1", 2, {}), ("umbilical_square", 2, {}), ("affine", 3, {"a": 1.5, "b": -0.5}),
    ])
    def test_constant_lambda_closed_form(self, name, n, params):
        F = make_functional(name, n, params)
        C = 0.8
        p = UmbilicalProfile.from_function(lambda s: C + 0 * s, 64, 1.0)
        t_end = 1.7
        hist = FlowHistory()
        out = evolve_umbilical(
            p, F, StepControl(t_end=t_end),
            on_snapshot=lambda q: hist.append(q.t, q.lam),
        )
        expected = np.exp(0.5 * t_end * psi_of_lambda(F, C))
        np.testing.assert_allclose(out.phi, expected, rtol=1e-10)
        phi = evolve_warping(hist, p, F)
        np.testing.assert_allclose(phi, expected, rtol=1e-10)

    def test_zero_psi_keeps_phi(self):
        F = make_functional("tau1_minus_c", 2, {"c": 0.0})  # psi(0) = 0 on zero data
        p = UmbilicalProfile.from_function(lambda s: 0 * s, 64, 1.0)
        out = evolve_umbilical(p, F, StepControl(t_end=2.0))
        np.testing.assert_allclose(out.phi, 1.0)

    def test_grid_mismatch_rejected(self):
        F = make_functional("b1", 2)
        p = sine_profile(grid=64)
        hist = FlowHistory()
        hist.append(0.0, np.zeros(32))
        with pytest.raises(ValueError, match="grid"):
            evolve_warping(hist, p, F)

    def test_warping_stays_positive(self):
        F = make_functional("tau1_minus_c", 2, {"c": 3.0})  # strongly negative psi
        p = sine_profile(grid=64, amplitude=0.3)
        out = evolve_umbilical(p, F, StepControl(t_end=1.0))
        assert np.all(out.phi > 0)


class TestCharacteristicsOracle:
    @pytest.mark.parametrize("t", [0.8, 2.5])
    @pytest.mark.parametrize("amplitude,mean", [(1.0, 0.0), (12.5, 0.5)])
    @pytest.mark.parametrize("grid", [200, 1024])
    @pytest.mark.parametrize("name,params,n,slope", [
        ("b1", {}, 1, 1.0), ("b1", {}, 2, 1.0), ("affine", {"a": 1.5, "b": 0.2}, 2, 1.5),
        ("tau1_minus_c", {"c": 0.3}, 3, 3.0)])
    def test_translation_for_linear_psi(self, name, params, n, slope, grid, amplitude,
                                        mean, t):
        # psi' is the constant slope: lam0 translates at exactly slope / 2; a
        # speed read off sampled psi' would carry up to 1.6e-9 of stencil noise
        F = make_functional(name, n, params)
        s = np.linspace(0, 1, grid, endpoint=False)
        lam0 = lambda x: mean + amplitude * np.sin(2 * np.pi * x)
        out = characteristics_oracle(lam0, F, t, s, periodic_length=1.0)
        np.testing.assert_allclose(out, lam0(s - slope * t / 2), rtol=0, atol=1e-13)

    def test_identity_at_t0(self):
        F = make_functional("umbilical_square", 2)
        s = np.linspace(0, 1, 50, endpoint=False)
        out = characteristics_oracle(lambda x: np.cos(x), F, 0.0, s, periodic_length=1.0)
        np.testing.assert_allclose(out, np.cos(s))

    def test_nonlinear_against_fine_solver(self):
        F = make_functional("umbilical_square", 2)  # speed = lam
        length = 1.0
        s = length * np.arange(256) / 256
        lam0 = lambda x: 1.5 + 0.2 * np.sin(2 * np.pi * x / length)
        t = 0.25
        oracle = characteristics_oracle(lam0, F, t, s, periodic_length=length)
        p = UmbilicalProfile.from_function(lam0, 4096, length)
        out = evolve_umbilical(p, F, StepControl(t_end=t, cfl=0.5))
        solver = np.interp(s, p.s, out.lam, period=length)
        assert np.max(np.abs(oracle - solver)) < 5e-3

    def test_shock_detection(self):
        F = make_functional("umbilical_square", 2)
        s = np.linspace(0, 1, 100, endpoint=False)
        # strong compressive data: characteristics cross quickly
        with pytest.raises(ShockError):
            characteristics_oracle(
                lambda x: np.sin(2 * np.pi * x), F, 2.0, s, periodic_length=1.0
            )

    @pytest.mark.parametrize("name", ["umbilical_square", "ext_ricci"])
    def test_refuses_from_crossing_time(self, name):
        # one crossing rule: the oracle's own t* = -1 / min d_s(psi'/2) over its
        # nodes, within 0.1% of crossing_time's over s's span
        F = make_functional(name, 3)
        s = np.arange(256) / 256
        lam0 = lambda x: 0.5 + 0.25 * np.sin(2 * np.pi * x)
        t_star = crossing_time(lam0, F, s)
        assert np.isfinite(characteristics_oracle(lam0, F, 0.999 * t_star, s, 1.0)).all()
        with pytest.raises(ShockError, match=r"^characteristics crossed at t\* = ") as err:
            characteristics_oracle(lam0, F, 1.001 * t_star, s, 1.0)
        sampled, t = (float(x) for x in str(err.value).split("t* = ")[1].split(" <= t = "))
        assert sampled == pytest.approx(t_star, rel=1e-3)
        assert t == pytest.approx(1.001 * t_star, rel=1e-5)

    @pytest.mark.parametrize("grid", [256, 1024])
    @pytest.mark.parametrize("name,params,n", [
        ("b1", {}, 1), ("b1", {}, 3), ("affine", {"a": 1.5, "b": 0.2}, 2),
        ("tau1_minus_c", {"c": 0.3}, 2)])
    def test_linear_psi_never_crosses(self, name, params, n, grid):
        # psi' is constant, so characteristics stay parallel: sampled
        # differences of psi' would read psi_prime's rounding noise as a
        # finite t* (8.8e6 for b1 at G = 256)
        F = make_functional(name, n, params)
        lam0 = lambda s: 0.5 + 0.25 * np.sin(2 * np.pi * s)
        assert crossing_time(lam0, F, np.linspace(0.0, 1.0, grid)) == np.inf


class TestTauSystem:
    def test_constant_field_stationary(self):
        F = make_functional("b1", 3)
        fld = TauField.from_umbilical(lambda s: 1.2 + 0 * s, 3, 64, 1.0)
        out = evolve_tau(fld, F, StepControl(t_end=1.0))
        np.testing.assert_allclose(out.tau, fld.tau, atol=1e-13)

    def test_zero_field_fixed_point(self):
        F = make_functional("b1", 3)  # f_0 = 0 at the origin
        fld = TauField.from_umbilical(lambda s: 0 * s, 3, 64, 1.0)
        out = evolve_tau(fld, F, StepControl(t_end=1.0))
        np.testing.assert_allclose(out.tau, 0.0, atol=1e-14)

    def test_umbilical_tracks_scalar_solver(self):
        n = 3
        F = make_functional("b1", n)
        lam0 = lambda s: 0.5 + 0.25 * np.sin(2 * np.pi * s)
        G = 256
        fld = TauField.from_umbilical(lam0, n, G, 1.0)
        p = UmbilicalProfile.from_function(lam0, G, 1.0)
        ctl = StepControl(t_end=0.5)
        out_tau = evolve_tau(fld, F, ctl)
        out_lam = evolve_umbilical(p, F, ctl)
        assert np.max(np.abs(out_tau.tau[0] / n - out_lam.lam)) < 1e-6

    def test_umbilical_relation_persists_first_order(self):
        n = 3
        F = make_functional("b1", n)
        lam0 = lambda s: 0.5 + 0.25 * np.sin(2 * np.pi * s)
        defects = []
        grids = [64, 128, 256]
        for G in grids:
            fld = TauField.from_umbilical(lam0, n, G, 1.0)
            out = evolve_tau(fld, F, StepControl(t_end=0.5))
            defects.append(
                np.max(np.abs(out.tau[1] - out.tau[0] ** 2 / n))
            )
        rates = np.log2(np.array(defects[:-1]) / np.array(defects[1:]))
        assert np.all(rates > 0.8)

    @pytest.mark.parametrize("cfl", [0.5, 0.9])
    @pytest.mark.parametrize("boundary", BOUNDARIES)
    @pytest.mark.parametrize("grid", [64, 100])
    # (-0.0, -0.5) is the signed-zero set: lam0 and the odd power sums are
    # -0.0 at s = 0
    @pytest.mark.parametrize("mean,amplitude", [(0.5, 0.25), (-0.1, 0.5), (-0.0, -0.5)])
    @pytest.mark.parametrize("name,params,n", [
        (name, params, n) for name, params in CATALOG_CASES + [("dense", None)]
        for n in range(1, 7) if not (name == "ext_ricci" and n < 2)
    ] + [("b1", {}, 12), ("ext_ricci", {}, 12), ("dense", None, 12)])
    def test_step_matches_reference_to_ulps(self, boundary, grid, mean, amplitude,
                                            name, params, n, cfl):
        # the step forms only the terms the table leaves nonzero, all n
        # equations at once; the update reference forms every term per
        # equation, so the two differ by rounding in every case.  For b1 the
        # constant speed makes Rusanov upwind, so the step also matches the
        # quasilinear upwind step to rounding (at n = 1 only f_0 is live, the
        # speed is 0 and the quasilinear step took one-sided differences of
        # f_0).  Each step starts the references from the step's own field
        F = dense_functional(n) if name == "dense" else make_functional(name, n, params)
        fld = TauField.from_umbilical(
            lambda s: mean + amplitude * np.sin(2 * np.pi * s), n, grid, 1.0, boundary
        )
        quasilinear = name == "b1" and n > 1
        for _ in range(5):
            # a horizon 0.01 ahead: real steps even where no speed bounds dt
            ctl = StepControl(t_end=fld.t + 0.01, cfl=cfl)
            got = step_tau_system(fld, F, ctl)
            # row k - 1 holds tau_k over the grid, the layout the step computes in
            assert got.tau.shape == (n, grid) and got.tau.flags.c_contiguous
            ulp = np.spacing(np.abs(fld.tau).max())
            want = step_tau_system_update_reference(fld, F, ctl)
            assert got.t == want.t
            assert np.abs(got.tau - want.tau).max() <= 8 * ulp
            if quasilinear:
                old = step_tau_system_reference(fld, F, ctl)
                assert got.t == old.t
                assert np.abs(got.tau - old.tau).max() <= 8 * ulp
            fld = got

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_transmissive_tracks_scalar_step(self, n):
        # both steps copy the edge node into the ghost: the edges agree too
        F = make_functional("b1", n)
        lam0 = lambda s: 0.5 + 0.25 * np.sin(2 * np.pi * s)
        ctl = StepControl(t_end=0.1)
        out = evolve_tau(TauField.from_umbilical(lam0, n, 512, 1.0, "transmissive"), F, ctl)
        scalar = evolve_umbilical(
            UmbilicalProfile.from_function(lam0, 512, 1.0, "transmissive"), F, ctl)
        assert np.max(np.abs(out.tau[0] / n - scalar.lam)) <= 1e-10

    def test_b1_step_work_does_not_grow_with_n(self, monkeypatch):
        # no np.where, no np.concatenate (tau is written into one padded
        # buffer) and one coefficient evaluation per live term, not per
        # equation: b1's only live term is f_1 = 1, whatever n is
        calls = Counter()

        def counted(name, real):
            def call(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)
            return call

        monkeypatch.setattr(np, "where", counted("where", np.where))
        monkeypatch.setattr(np, "concatenate", counted("concatenate", np.concatenate))
        monkeypatch.setattr(FlowFunctional, "coefficient",
                            counted("coefficient", FlowFunctional.coefficient))
        counts = {}
        for n in (3, 24):
            fld = TauField.from_umbilical(
                lambda s: 0.5 + 0.25 * np.sin(2 * np.pi * s), n, 64, 1.0)
            calls.clear()
            step_tau_system(fld, make_functional("b1", n), StepControl(t_end=1.0))
            counts[n] = dict(calls)
        assert counts[3] == counts[24] == {"coefficient": 1}

    def test_march_checks_the_grid_once(self, monkeypatch):
        # the steps' fields share the first field's grid, so only it is checked
        import egf_lab.flow_engine as fe

        checks = []
        real = fe._grid_steps
        monkeypatch.setattr(fe, "_grid_steps", lambda s: checks.append(s) or real(s))
        fld = TauField.from_umbilical(
            lambda s: 0.5 + 0.25 * np.sin(2 * np.pi * s), 3, 64, 1.0)
        out = evolve_tau(fld, make_functional("b1", 3), StepControl(t_end=0.1))
        assert out.t == 0.1 and out.s is fld.s
        assert len(checks) == 1 and checks[0] is fld.s

    @pytest.mark.parametrize("args,message", [
        ((np.linspace(0, 1, 16), np.zeros((2, 16)), "reflective"), "boundary"),
        ((np.linspace(0, 1, 4), np.zeros((2, 4))), "at least 8"),
        ((np.linspace(0, 1, 16) ** 2, np.zeros((2, 16))), "uniform"),
        ((np.linspace(1, 0, 16), np.zeros((2, 16))), "strictly increasing"),
        ((np.linspace(0, 1, 16), np.zeros(16)), "shape"),
        ((np.linspace(0, 1, 16), np.zeros((2, 15))), "shape"),
        ((np.linspace(0, 1, 16), np.zeros((0, 16))), "n >= 1"),
        ((np.linspace(0, 1, 16), np.full((2, 16), np.nan)), "finite"),
        ((np.linspace(0, 1, 16), np.full((2, 16), np.inf)), "finite"),
    ])
    def test_field_refusals(self, args, message):
        with pytest.raises(ValueError, match=message):
            TauField(*args)

    @pytest.mark.parametrize("name,params,n", [
        (name, params, n) for name, params in CATALOG_CASES
        for n in range(1, 7) if not (name == "ext_ricci" and n < 2)
    ])
    def test_live_and_varying_match_probed_coefficients(self, name, params, n):
        F = make_functional(name, n, params)
        tau = np.random.default_rng(n).normal(size=(32, n))
        vals = np.stack([F.coefficient(j, tau.T) for j in range(n)], axis=-1)
        assert F.live == tuple(j for j in range(1, n) if np.any(vals[:, j] != 0))
        assert F.varying == tuple(j for j in range(n)
                                  if np.any(vals[:, j] != vals[0, j]))
        hash(F)  # the table is stored immutably

    def test_b1_never_extends_past_the_power_sums_it_reads(self):
        # tau_4 = n lam^4 overflows at lam ~ 1e80; b1 reads only tau_1..tau_n
        n, amplitude = 3, 1e79
        F = make_functional("b1", n)
        lam0 = lambda s: 1e80 + amplitude * np.sin(2 * np.pi * s)
        out = evolve_tau(TauField.from_umbilical(lam0, n, 256, 1.0), F,
                         StepControl(t_end=0.25))
        exact = characteristics_oracle(lam0, F, out.t, out.s, 1.0)
        assert np.max(np.abs(out.tau[0] / n - exact)) <= 1.1e-3 * amplitude

    def test_dimension_mismatch(self):
        F = make_functional("b1", 2)
        fld = TauField.from_umbilical(lambda s: 0 * s + 1, 3, 64, 1.0)
        with pytest.raises(ValueError):
            step_tau_system(fld, F, StepControl(t_end=1.0))


# (name, params, n, mean, t_end, grids) of every catalog functional at
# n = 2..4 from mean + 0.25 sin 2 pi s, each at a horizon before its
# characteristics cross; and ext_ricci at n = 4 and 6 about lam = 1, at 0.6
# of its crossing time t* = 1 / ((n - 1) pi), where the sum of the moduli
# of its coefficients falls below the umbilical speed (2n - 2) |lam|
TAU_CONVERGENCE = [
    (name, params, n, 0.5, {("ext_ricci", 2): 0.25, ("ext_ricci", 3): 0.12,
                            ("ext_ricci", 4): 0.08}.get((name, n), 0.5),
     (512, 1024, 2048))
    for name, params in CATALOG_CASES for n in (2, 3, 4)
] + [("ext_ricci", {}, n, 1.0, 0.6 / ((n - 1) * np.pi), (256, 512, 1024, 2048))
     for n in (4, 6)]


@pytest.mark.parametrize(
    "name,params,n,mean,t_end,grids", TAU_CONVERGENCE,
    ids=[f"{name}-n{n}" + ("" if mean == 0.5 else "-about-1")
         for name, _, n, mean, _, _ in TAU_CONVERGENCE])
def test_tau_system_converges_before_crossing(name, params, n, mean, t_end, grids):
    # tau_1/n against the characteristics and the umbilicity defect
    # tau_2 - tau_1^2/n, both at first order at the default CFL 0.9
    F = make_functional(name, n, params)
    lam0 = lambda s: mean + 0.25 * np.sin(2 * np.pi * s)
    errors, defects = [], []
    for grid in grids:
        out = evolve_tau(TauField.from_umbilical(lam0, n, grid, 1.0), F,
                         StepControl(t_end=t_end))
        exact = characteristics_oracle(lam0, F, out.t, out.s, 1.0)
        errors.append(np.max(np.abs(out.tau[0] / n - exact)))
        defects.append(np.max(np.abs(out.tau[1] - out.tau[0] ** 2 / n)))
    orders = [-np.polyfit(np.log(grids), np.log(e), 1)[0] for e in (errors, defects)]
    assert min(orders) >= 0.9, (errors, defects, orders)


# psi(lam) = -2 lam^2: the extrinsic Ricci flow on 2-dimensional leaves
RICCI_N2 = make_functional("ext_ricci", 2)


def normalized_ricci(p, t_end):
    """Every snapshot of the volume-normalized extrinsic Ricci flow from p:
    the umbilical march, with phi rescaled to the initial volume."""
    v0, snaps = volume(p), []
    evolve_umbilical(p, RICCI_N2, StepControl(t_end=t_end),
                     on_snapshot=lambda q: snaps.append(volume_normalized(q, v0)))
    return snaps


class TestNormalizedRicci:
    def test_zero_lambda_stationary(self):
        p = UmbilicalProfile.from_function(lambda s: 0 * s, 64, 1.0)
        out = normalized_ricci(p, 1.0)[-1]
        assert out.t == 1.0
        np.testing.assert_allclose(out.lam, 0.0)
        np.testing.assert_allclose(out.phi, 1.0)

    def test_constant_lambda_fixed_point_of_phi(self):
        C = 0.7
        p = UmbilicalProfile.from_function(lambda s: C + 0 * s, 64, 1.0)
        snaps = normalized_ricci(p, 1.0)
        assert len(snaps) > 2
        for q in snaps:
            np.testing.assert_allclose(q.lam, C)
            np.testing.assert_allclose(q.phi, 1.0, rtol=1e-10)

    def test_unrescaled_phi_is_not_stationary(self):
        # the rescale does the work: the march alone lets phi decay
        C = 0.7
        p = UmbilicalProfile.from_function(lambda s: C + 0 * s, 64, 1.0)
        out = evolve_umbilical(p, RICCI_N2, StepControl(t_end=1.0))
        assert np.max(np.abs(out.phi - 1.0)) > 1e-3

    def test_volume_conserved(self):
        p = UmbilicalProfile.from_function(
            lambda s: 0.5 + 0.2 * np.sin(2 * np.pi * s), 128, 1.0
        )
        v0 = volume(p)
        snaps = normalized_ricci(p, 0.3)
        assert snaps[-1].t == pytest.approx(0.3)
        for q in snaps:
            assert abs(volume(q) - v0) <= 1e-13 * v0
            assert np.all(q.phi > 0)

    def test_psi_of_ricci_functional(self):
        lam = np.linspace(-2, 2, 9)
        np.testing.assert_allclose(
            psi_of_lambda(RICCI_N2, lam), -2 * lam ** 2, atol=1e-12
        )


# node values: any double, the signed zeros and the non-finite ones drawn often
NODE_VALUES = st.one_of(st.sampled_from([0.0, -0.0, np.nan, np.inf, -np.inf]),
                        st.floats(width=64))
GRID_SHAPES = st.one_of(st.tuples(st.integers(1, 24)),
                        st.tuples(st.integers(1, 4), st.integers(1, 24)))


class TestSliceHelpers:
    """The step's slice and ndarray-method helpers against their np.roll,
    np.diff and np.moveaxis forms, byte for byte."""

    @settings(derandomize=True, database=None, deadline=None, max_examples=150)
    @given(u=arrays(np.float64, GRID_SHAPES, elements=NODE_VALUES),
           periodic=st.booleans())
    def test_neighbors_match_roll_form(self, u, periodic):
        # the interior sits in a wider buffer whose ghost columns hold NaN
        # until _fill_ghosts writes them
        padded = np.full(u.shape[:-1] + (u.shape[-1] + 2,), np.nan)
        padded[..., 1:-1] = u
        assert _fill_ghosts(padded, periodic) is padded
        got = padded[..., :-2], padded[..., 2:]
        want = neighbors_reference(u, periodic, axis=-1)
        assert [a.shape for a in got] == [a.shape for a in want]
        assert [a.tobytes() for a in got] == [a.tobytes() for a in want]

    @settings(derandomize=True, database=None, deadline=None, max_examples=150)
    @given(u=arrays(np.float64, GRID_SHAPES, elements=NODE_VALUES),
           spacing=st.sampled_from([0.1, 1.0, 3.0]))
    def test_periodic_central_difference_matches_roll_form(self, u, spacing):
        # along axis 0, the one axis the library differentiates
        with np.errstate(all="ignore"):  # inf - inf and overflow, alike on both
            got = _axis_derivative(u, spacing, True)
            want = central_difference_reference(u, spacing, 0)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    @settings(derandomize=True, database=None, deadline=None, max_examples=150)
    @given(u=arrays(np.float64, GRID_SHAPES, elements=NODE_VALUES),
           periodic=st.booleans())
    def test_padded_difference_matches_roll_form(self, u, periodic):
        # the tau step's one subtraction over its padded buffer
        with np.errstate(all="ignore"):  # inf - inf and overflow, alike on both
            padded = _padded(u, periodic)
            d = padded[..., 1:] - padded[..., :-1]
            left, right = neighbors_reference(u, periodic, axis=-1)
            backward, forward = u - left, right - u
        assert d.shape == u.shape[:-1] + (u.shape[-1] + 1,)
        assert d[..., :-1].tobytes() == backward.tobytes()
        assert d[..., 1:].tobytes() == forward.tobytes()

    @settings(derandomize=True, database=None, deadline=None, max_examples=150)
    @given(u=arrays(np.float64, st.integers(1, 40),
                    elements=st.floats(allow_nan=False, allow_infinity=False)),
           periodic=st.booleans())
    def test_total_variation_matches_diff_form(self, u, periodic):
        # the march's states are finite; their jumps may still overflow to inf
        got = total_variation(u, periodic)
        want = total_variation_reference(u, periodic)
        assert np.float64(got).tobytes() == np.float64(want).tobytes()

    @settings(derandomize=True, database=None, deadline=None, max_examples=100)
    @given(data=st.data(), lead=st.sampled_from([(), (5,), (2, 3)]),
           n=st.integers(1, 4), m=st.integers(1, 9))
    def test_power_sums_with_tau0_match_reference(self, data, lead, n, m):
        tau = data.draw(arrays(np.float64, (n,) + lead,
                               elements=st.floats(-4.0, 4.0, width=64)))
        got = power_sums_with_tau0(tau, n, m)
        # the reference keeps the index last
        want = np.moveaxis(power_sums_with_tau0_reference(np.moveaxis(tau, 0, -1), n, m),
                           -1, 0)
        assert got.shape == (m + 1,) + lead
        assert got.tobytes() == want.tobytes()
        # the out form, as the tau step uses it: the strided interior of a
        # wider buffer, whose NaN fill shows any row left unwritten and any
        # Newton row not reset to +0.0 before it sums
        wide = np.full((m + 2,) + tuple(k + 2 for k in lead), np.nan)
        interior = (slice(m + 1),) + (slice(1, -1),) * len(lead)
        out = wide[interior]
        assert power_sums_with_tau0(tau, n, m, out=out) is out
        assert out.tobytes() == want.tobytes()
        untouched = np.isnan(wide)
        untouched[interior] = True
        assert untouched.all()  # nothing written outside out


def _bits(x) -> np.ndarray:
    return np.asarray(x, dtype=float).view(np.int64)


def _outcome(step, *args):
    """step(*args) as ("ok", state) or ("raised", exception type, message)."""
    try:
        return ("ok", step(*args))
    except (FlowBlowUpError, BoundedProgressError) as exc:
        return ("raised", type(exc), str(exc))


# (mean, amplitude) of lam0 = mean + amplitude sin(2 pi s / length): moderate,
# signed zero (lam0 and its odd powers read -0.0 at s = 0) and near overflow:
# lam^top near 1e300, top the highest power of lam a step forms (psi's
# degree, or that of tau_m_top, m_top = n + max live j - 1)
def _kernel_data(top: int) -> list[tuple[float, float]]:
    big = 10.0 ** (300 // top)
    return [(0.5, 0.25), (-0.0, -0.5), (big, 0.1 * big)]


KERNEL_CASES = [(name, params, n) for name, params in CATALOG_CASES + [("dense", None)]
                for n in range(1, 5) if not (name == "ext_ricci" and n < 2)]


class TestKernelBits:
    """The step kernels against their one-expression forms (tests/oracles.py),
    bit for bit: in-place temporaries and a cached FlowFunctional.tau_step
    keep every value's operations and their order.  Each step's horizon is
    2.5 or 0.5 of the step the speed allows, so steps of both kinds are
    compared: unclipped, and clipped to land on t_end."""

    @staticmethod
    def _march(step, reference, state, F, speed, extra=()):
        for k in range(4):
            top = speed(state)
            horizon = (2.5 if k % 2 == 0 else 0.5) * 0.9 * state.ds / top if top else 0.01
            ctl = StepControl(t_end=state.t + horizon)
            got = _outcome(step, state, F, ctl, *extra)
            want = _outcome(reference, state, F, ctl, *extra)
            assert got[0] == want[0] == "ok"
            got, want = got[1], want[1]
            assert _bits(got.t) == _bits(want.t)
            yield got, want
            state = got

    @pytest.mark.parametrize("boundary,inflow", [
        ("periodic", False), ("transmissive", False), ("transmissive", True)])
    @pytest.mark.parametrize("name,params,n", [c for c in KERNEL_CASES if c[0] != "dense"])
    def test_umbilical_step_keeps_its_bits(self, name, params, n, boundary, inflow):
        F = make_functional(name, n, params)
        G = 64
        for mean, amplitude in _kernel_data(2):
            # near overflow, psi ~ 1e300 and ds = 1 / mean: a normal dt and a
            # warping exponent of order 1
            length = G / mean if mean > 1e100 else 1.0
            p = UmbilicalProfile.from_function(
                lambda s: mean + amplitude * np.sin(2 * np.pi * s / length),
                G, length, boundary)
            inflow_left = (lambda t: mean - amplitude * t) if inflow else None

            def speed(q):
                with np.errstate(all="ignore"):
                    lam_p = _padded(q.lam, q.periodic)
                    rate = psi_prime(F, lam_p)
                    assert _bits(rate).tolist() == _bits(
                        psi_prime_one_expression(F, lam_p)).tolist()
                    assert _bits(psi_prime(F, q.lam[5])) == _bits(
                        psi_prime_one_expression(F, q.lam[5]))
                return 0.5 * float(np.abs(rate).max())

            for got, want in self._march(step_umbilical, step_umbilical_one_expression,
                                         p, F, speed, (inflow_left,)):
                assert _bits(got.lam).tolist() == _bits(want.lam).tolist()
                assert _bits(got.phi).tolist() == _bits(want.phi).tolist()
                assert _bits(total_variation(got.lam, got.periodic)) == _bits(
                    total_variation_one_expression(got.lam, got.periodic))

    @pytest.mark.parametrize("name,params,lam0,phi0,inflow,message", [
        ("ext_ricci", {}, 0.5, 1.0, True, "non-finite normal curvature"),  # NaN inflow
        ("ext_ricci", {}, 1e200, 1.0, False, "non-finite normal curvature"),  # psi = inf
        ("affine", {"a": 0.0, "b": 1e4}, 0.5, 1e308, False,
         "non-finite or zero warping factor"),  # phi overflows
        ("affine", {"a": 0.0, "b": -1e4}, 0.5, 1e-323, False,
         "non-finite or zero warping factor"),  # phi underflows to 0
    ])
    def test_umbilical_blow_ups_keep_their_messages(self, name, params, lam0, phi0,
                                                    inflow, message):
        # the step leaves its finiteness checks to the profile it returns
        # and names the failed one as the one-expression form does
        F = make_functional(name, 3, params)
        p = UmbilicalProfile.from_function(
            lambda s: lam0 + 0.25 * lam0 * np.sin(2 * np.pi * s), 64, 1.0, "transmissive",
            phi0=phi0)
        inflow_left = (lambda t: np.nan) if inflow else None
        ctl = StepControl(t_end=1.0)
        got = _outcome(step_umbilical, p, F, ctl, inflow_left)
        assert got == _outcome(step_umbilical_one_expression, p, F, ctl, inflow_left)
        assert got[:2] == ("raised", FlowBlowUpError) and got[2].startswith(message)

    @pytest.mark.parametrize("boundary", BOUNDARIES)
    @pytest.mark.parametrize("name,params,n", KERNEL_CASES)
    def test_tau_step_keeps_its_bits(self, name, params, n, boundary):
        F = dense_functional(n) if name == "dense" else make_functional(name, n, params)
        top = max(n + max(F.live, default=1) - 1, len(F.psi_coeffs) - 1)
        for mean, amplitude in _kernel_data(top):
            fld = TauField.from_umbilical(
                lambda s: mean + amplitude * np.sin(2 * np.pi * s), n, 64, 1.0, boundary)

            def speed(f):
                with np.errstate(all="ignore"):
                    return float(tau_speeds_one_expression(F, f.tau).max())

            for got, want in self._march(step_tau_system, step_tau_system_one_expression,
                                         fld, F, speed):
                assert _bits(got.tau).tolist() == _bits(want.tau).tolist()

    @settings(derandomize=True, database=None, deadline=None, max_examples=200)
    @given(u=arrays(np.float64, st.integers(1, 40), elements=st.one_of(
               st.sampled_from([0.0, -0.0, 1.7e308, -1.7e308]),
               st.floats(allow_nan=False, allow_infinity=False))),
           periodic=st.booleans())
    def test_total_variation_keeps_its_bits(self, u, periodic):
        assert _bits(total_variation(u, periodic)) == _bits(
            total_variation_one_expression(u, periodic))

    @pytest.mark.parametrize("lam", [0.5, np.nan])
    @pytest.mark.parametrize("phi", [np.nan, np.inf, -np.inf, 0.0, -1.0])
    @pytest.mark.parametrize("at", [0, 9])
    def test_profile_refusals_keep_their_messages(self, lam, phi, at):
        # a non-finite value anywhere is named first; then a phi <= 0
        lam_a, phi_a = np.full(16, 0.25), np.ones(16)
        lam_a[3], phi_a[at] = lam, phi
        finite = np.isfinite(lam) and np.isfinite(phi)
        message = ("warping factor must be positive" if finite
                   else "profile values must be finite")
        with pytest.raises(ValueError) as err:
            UmbilicalProfile(np.linspace(0, 1, 16), lam_a, phi_a)
        assert str(err.value) == message


def _catalog_functionals(max_n: int) -> list[tuple[str, int]]:
    """(name, n) of every catalog functional at its defaults, n = 1..max_n,
    where its builder accepts n."""
    cases = []
    for name in FUNCTIONALS:
        for n in range(1, max_n + 1):
            try:
                make_functional(name, n)
            except ValueError:  # e.g. ext_ricci needs n >= 2
                continue
            cases.append((name, n))
    return cases


def _f0_functionals(max_n: int) -> list[tuple[str, int]]:
    """The (name, n) of _catalog_functionals whose table holds f_0 alone."""
    return [(name, n) for name, n in _catalog_functionals(max_n)
            if not any(make_functional(name, n).table[1:])]


class TestJacobianOracle:
    """The tau system's exact Jacobian A(tau) (tests/oracles.py, sympy from
    the monomial table and the Newton identities) against the step."""

    @pytest.mark.parametrize("n", range(3, 7))
    def test_ext_ricci_umbilical_characteristic_polynomial(self, n):
        lam, x = sp.symbols("lam x")
        A = umbilical_jacobian(make_functional("ext_ricci", n), lam)
        charpoly = (x * sp.eye(n) - A).det(method="berkowitz")
        want = (x + (2 * n - 2) * lam) * (x + (n - 2) * lam) ** (n - 1)
        assert sp.expand(charpoly - want) == 0
        # -(n - 2) lam has one eigenvector: A is a Jordan block of size n - 1
        # beside the simple psi'/2 = -(2n - 2) lam
        assert (A + (n - 2) * lam * sp.eye(n)).subs(lam, 1).rank() == n - 1

    @pytest.mark.parametrize("mean,amplitude", [(0.5, 0.25), (-0.1, 0.5)])
    @pytest.mark.parametrize("name,n", _catalog_functionals(6))
    def test_step_speed_is_at_least_the_spectral_radius(self, name, n, mean, amplitude):
        # at umbilical data; the speed a step uses is cfl ds / dt of an
        # unclipped step, and rho(A) is taken by eigvals at every node, to
        # 1e-9 relative for its rounding
        F = make_functional(name, n)
        fld = TauField.from_umbilical(
            lambda s: mean + amplitude * np.sin(2 * np.pi * s), n, 16, 1.0)
        ctl = StepControl(t_end=1e3)
        dt = step_tau_system(fld, F, ctl).t
        assert dt < ctl.t_end
        A, tau = tau_jacobian(F)
        numeric = sp.lambdify(tau, A, "numpy")
        rho = max(np.abs(np.linalg.eigvals(np.array(numeric(*node), dtype=float))).max()
                  for node in fld.tau.T)
        assert ctl.cfl * fld.ds / dt >= rho * (1 - 1e-9)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_b1_is_half_the_identity(self, n):
        # over the symbols tau: at every spectrum
        A, _ = tau_jacobian(make_functional("b1", n))
        assert A == sp.eye(n) / 2

    def test_f0_cases_cover_the_f0_functionals(self):
        assert {"tau1_minus_c", "affine", "umbilical_square"} <= {
            name for name, _ in _f0_functionals(6)}

    @pytest.mark.parametrize("name,n", _f0_functionals(6))
    def test_f0_alone_gives_rank_one(self, name, n):
        # A = u v^T with u_i = (i/2) tau_{i-1} (tau_0 = n) and v = grad f_0:
        # eigenvalues u.v and 0 (n - 1 times), and on an umbilical spectrum
        # tau_k = n lam^k, 2 u.v = psi'(lam)
        F = make_functional(name, n)
        A, tau = tau_jacobian(F)
        f0 = sp.Add(*(sp.Rational(coef) * sp.Mul(*(t ** e for t, e in zip(tau, exps)))
                      for exps, coef in F.table[0]))
        u = sp.Matrix([sp.Rational(i, 2) * (n, *tau)[i - 1] for i in range(1, n + 1)])
        v = sp.Matrix([[sp.diff(f0, t) for t in tau]])
        assert sp.expand(A - u * v) == sp.zeros(n, n)
        uv = (v * u)[0, 0]

        numeric, dot = sp.lambdify(tau, A, "numpy"), sp.lambdify(tau, uv, "numpy")
        rng = np.random.default_rng(n)
        for _ in range(4):
            k = rng.normal(size=n)
            spectrum = [float(np.sum(k ** m)) for m in range(1, n + 1)]
            a = np.array(numeric(*spectrum), dtype=float)
            want = np.sort_complex(np.array([dot(*spectrum)] + [0.0] * (n - 1), complex))
            got = np.sort_complex(np.linalg.eigvals(a))
            assert np.allclose(got, want, rtol=0, atol=1e-12 * max(1.0, np.abs(a).max()))

        lam = sp.Symbol("lam")
        two_uv = sp.lambdify(lam, 2 * uv.subs(
            {t: n * lam ** k for k, t in enumerate(tau, start=1)}), "numpy")
        x = np.linspace(-1.5, 1.5, 7)
        psi_prime_exact = np.polynomial.polynomial.polyval(x, F.psi_prime_coeffs)
        assert np.allclose(two_uv(x), psi_prime_exact, rtol=1e-14, atol=1e-14)


# numpy's Python-level wrappers: ndarray methods and slices do the same work
# at a fraction of the per-call cost, so none of them belongs on the step path
WRAPPERS = ("roll", "moveaxis", "diff", "full", "any", "all", "max", "min", "mean",
            "sum", "vstack", "broadcast_to")


@pytest.mark.parametrize("boundary", BOUNDARIES)
@pytest.mark.parametrize("name,n", [("b1", 2), ("b1", 3), ("umbilical_square", 2),
                                    ("ext_ricci", 2), ("ext_ricci", 3)])
def test_marches_call_no_numpy_wrapper(monkeypatch, boundary, name, n):
    F = make_functional(name, n)
    lam0 = lambda s: 0.5 + 0.25 * np.sin(2 * np.pi * s)
    p = UmbilicalProfile.from_function(lam0, 64, 1.0, boundary)
    fld = TauField.from_umbilical(lam0, n, 64, 1.0, boundary)
    ctl = StepControl(t_end=0.05)
    calls = Counter()
    for wrapper in WRAPPERS:
        def counted(*args, _name=wrapper, _real=getattr(np, wrapper), **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)
        monkeypatch.setattr(np, wrapper, counted)
    steps = []
    evolve_umbilical(p, F, ctl, on_snapshot=lambda q: steps.append(q.t))
    assert len(steps) > 2 and calls == Counter(), calls
    out = evolve_tau(fld, F, ctl)
    assert out.t == ctl.t_end and calls == Counter(), calls


@pytest.mark.parametrize("boundary", BOUNDARIES)
def test_march_guard_enters_one_errstate(monkeypatch, boundary):
    # each step enters its own errstate; the TV guard two for the whole
    # march, the initial TV's and the loop's
    F = make_functional("b1", 2)
    p = UmbilicalProfile.from_function(lambda s: 0.5 + 0.25 * np.sin(2 * np.pi * s),
                                       64, 1.0, boundary)
    entered = []

    class Counted(np.errstate):
        def __enter__(self):
            entered.append(self)
            return super().__enter__()

    monkeypatch.setattr(np, "errstate", Counted)
    snapshots = []  # the initial profile and one per step
    evolve_umbilical(p, F, StepControl(t_end=0.05), on_snapshot=snapshots.append)
    assert len(snapshots) > 2 and len(entered) == len(snapshots) + 1


@pytest.mark.parametrize("boundary", BOUNDARIES)
@pytest.mark.parametrize("name", ["b1", "ext_ricci"])
@pytest.mark.parametrize("march", ["umbilical", "tau"])
def test_sliver_step_past_a_step_boundary_moves_lam_by_its_dt(march, name, boundary):
    # a t_end 1e-9 past the exact boundary t_k of step k adds one sliver step
    # of dt = 1e-9: Rusanov's dissipation does not grow as dt shrinks, so
    # the sliver moves lam by about dt max|psi'/2 d_s lam|: 7.85e-10 for b1
    # and 4.0e-9 for ext_ricci, where psi'/2 = -4 lam
    n, G = 3, 256
    F = make_functional(name, n)
    lam0 = lambda s: 0.5 + 0.25 * np.sin(2 * np.pi * s)
    if march == "umbilical":
        state = UmbilicalProfile.from_function(lam0, G, 1.0, boundary)
        step, evolve, lam = step_umbilical, evolve_umbilical, lambda q: q.lam
    else:
        state = TauField.from_umbilical(lam0, n, G, 1.0, boundary)
        step, evolve, lam = step_tau_system, evolve_tau, lambda f: f.tau[0] / n
    t_k = state
    for _ in range(20):
        t_k = step(t_k, F, StepControl(t_end=1.0))
    at = evolve(state, F, StepControl(t_end=t_k.t))
    past = evolve(state, F, StepControl(t_end=t_k.t + 1e-9))
    assert np.abs(lam(at) - lam(t_k)).max() <= 1e-14
    assert np.abs(lam(past) - lam(at)).max() <= 1e-8


@pytest.mark.parametrize("G,steps", [(64, 10), (128, 13), (256, 10)])
def test_uniform_steps_to_a_whole_t_end_add_no_sliver(monkeypatch, G, steps):
    # b1's tau march steps by exactly dt = cfl ds / (1/2), and t_end is a
    # whole number of those steps; their running sum falls an ulp short of
    # it, which the end-time tolerance counts as t_end: no sliver step
    cfl = 0.3
    dt = cfl * (1.0 / G) / 0.5
    t = 0.0
    for _ in range(steps):
        t += dt
    assert t < steps * dt
    calls = []
    monkeypatch.setattr(flow_engine, "step_tau_system",
                        lambda *args: calls.append(args) or step_tau_system(*args))
    fld = TauField.from_umbilical(lambda s: 0.5 + 0.25 * np.sin(2 * np.pi * s), 2, G, 1.0)
    out = evolve_tau(fld, make_functional("b1", 2), StepControl(t_end=steps * dt, cfl=cfl))
    assert len(calls) == steps and out.t == t

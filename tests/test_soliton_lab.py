from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest

from egf_lab.catalog import make_functional
from egf_lab.flow_engine import UmbilicalProfile
from egf_lab.soliton_lab import (
    BiregularGrid,
    biregular_normal_curvature,
    check_biregular_surface,
    check_normal_soliton,
    classify_ricci_soliton,
    mu_of_lambda,
)
from egf_lab.sym_curvature import FlowFunctional, psi_of_lambda

from oracles import canonical_spectrum_key, enumerate_ricci_soliton_spectra, mu_rational
from test_flow_engine import CATALOG_CASES, sine_profile


def constant_profile(value, grid=64):
    return UmbilicalProfile.from_function(lambda s: value + 0 * s, grid, 1.0)


class TestMuOfLambda:
    def test_b1_constant_minus_n_over_2(self):
        F = make_functional("b1", 2)
        for lam in (-1.0, 0.3, 2.0):
            assert mu_of_lambda(F, lam) == pytest.approx(-1.0, abs=1e-12)
        assert mu_of_lambda(F, 0.0) == pytest.approx(-1.0, abs=1e-9)

    def test_constant_psi_gives_zero(self):
        F = FlowFunctional(2, ((((0, 0), 3.0),), ()))
        for lam in (0.0, 0.5, -2.0):
            assert mu_of_lambda(F, lam) == pytest.approx(0.0, abs=1e-12)

    def test_affine_minus_two_is_identically_one(self):
        # psi(lam) = -2 lam + c on curve leaves (n = 1) gives mu = 1 exactly
        F = make_functional("affine", 1, {"a": -2.0, "b": 0.0})
        lam = np.array([-3.0, -1e-8, 0.0, 1e-8, 0.2, 5.0])
        mu = mu_of_lambda(F, lam)
        assert np.all(mu == 1.0)
        for c in (1.0, -3.0, 0.7):
            Fc = make_functional("affine", 1, {"a": -2.0, "b": c})
            mu = np.asarray(mu_of_lambda(Fc, lam))
            np.testing.assert_allclose(mu, 1.0, atol=1e-13)

    def test_continuity_gap(self):
        for F in (make_functional("b1", 2), make_functional("umbilical_square", 2),
                  make_functional("affine", 1, {"a": -2.0, "b": 0.3})):
            mu0 = mu_of_lambda(F, 0.0)
            gap = max(abs(mu_of_lambda(F, 1e-8) - mu0), abs(mu_of_lambda(F, -1e-8) - mu0))
            assert gap <= 1e-4

    def test_square_slope(self):
        F = make_functional("umbilical_square", 2)  # mu = -(n/2) lam
        assert mu_of_lambda(F, 0.5) == pytest.approx(-0.5)
        assert mu_of_lambda(F, 0.0) == pytest.approx(0.0, abs=1e-9)

    @pytest.mark.parametrize("name,params,n", [
        (name, params, n) for name, params in CATALOG_CASES for n in range(1, 5)
        if name != "ext_ricci" or n >= 2
    ])
    def test_matches_exact_rationals(self, name, params, n):
        # -(n/2) (psi(lam) - psi(0)) / lam of the monomial table in rationals,
        # at zero, on both sides of it and away from it
        F = make_functional(name, n, params)
        lam = np.array([0.0, 1e-12, -1e-12, 1e-8, -1e-8, 0.3, -0.3, 5.0, -5.0])
        for x, got in zip(lam, mu_of_lambda(F, lam)):
            want = mu_rational(F, float(x))
            ulp = Fraction(math.ulp(max(1.0, abs(float(want)))))
            assert abs(Fraction(float(got)) - want) <= 4 * ulp, x
        assert mu_of_lambda(F, 0.0) == -(n / 2.0) * F.psi_coeffs[1]  # bitwise


class TestNormalSoliton:
    def test_constant_profile_is_soliton(self):
        F = make_functional("b1", 2)
        rep = check_normal_soliton(constant_profile(1.3), F)
        assert rep.verdict == "soliton"
        assert rep.eps_used == pytest.approx(psi_of_lambda(F, 0.0))
        assert rep.n_lambda_norm == 0.0
        assert any("alternative" in note for note in rep.notes)

    def test_constant_profile_explicit_eps_via_x_zero(self):
        F = make_functional("b1", 2)
        C = 1.3
        rep = check_normal_soliton(constant_profile(C), F, eps=psi_of_lambda(F, C))
        assert rep.verdict == "soliton"
        assert rep.residual_linf["structure_x_zero"] <= rep.tol
        # any other eps leaves neither reading of the structure equation
        bad = check_normal_soliton(constant_profile(C), F, eps=psi_of_lambda(F, C) + 1)
        assert bad.verdict == "not_soliton"
        assert bad.residual_linf["structure_x_zero"] == pytest.approx(1.0)

    def test_zero_profile_is_soliton(self):
        F = make_functional("tau1_minus_c", 2, {"c": 0.5})
        rep = check_normal_soliton(constant_profile(0.0), F)
        assert rep.verdict == "soliton"
        assert rep.residual_linf["structure"] == pytest.approx(0.0, abs=1e-14)

    def test_nonconstant_profile_is_not(self):
        F = make_functional("b1", 2)
        rep = check_normal_soliton(sine_profile(grid=128, amplitude=0.5), F)
        assert rep.verdict == "not_soliton"
        assert rep.n_lambda_norm > rep.tol

    @pytest.mark.parametrize("value", [5e-9, -3e-9, 1e-12])
    def test_constant_near_zero_is_soliton(self, value):
        # psi = lam^2 gives mu = -lam at any lam, so the (2/n)-form structure
        # residual lam^2 - lam^2 is exactly zero
        rep = check_normal_soliton(constant_profile(value), make_functional("umbilical_square", 2))
        assert rep.residual_linf["structure"] == 0.0
        assert rep.verdict == "soliton"

    def test_slowly_varying_profile_is_not_constant(self):
        # a 1e-10 sine on 65,536 nodes moves lam by a few dozen ulps from node
        # to node, below the rounding floor of its difference quotient; its
        # spread is 2e-10, thousands of times the floor
        rep = check_normal_soliton(
            sine_profile(grid=2 ** 16, amplitude=1e-10, mean=1.0),
            make_functional("tau1_minus_c", 2, {"c": -2.0}))
        assert rep.verdict == "not_soliton"
        # the report names the spread and the floor that decided it
        words = rep.notes[0].split()
        assert words[:2] == ["lam", "spread"] and words[3] == ">"
        assert float(words[2]) > 1000 * float(words[-1])

    def test_structure_residual_vanishes_identically_with_auto_eps(self):
        # the mu(lam) ansatz kills the (2/n)-form structure equation for any
        # profile; constancy of lam is the only remaining condition
        F = make_functional("umbilical_square", 3)
        rep = check_normal_soliton(sine_profile(grid=96, amplitude=0.7, mean=0.2), F)
        assert rep.residual_linf["structure"] <= 1e-12
        assert rep.verdict == "not_soliton"

    def test_traced_normalization_agrees_only_for_n1(self):
        prof = sine_profile(grid=96, amplitude=0.4, mean=1.0)
        rep1 = check_normal_soliton(prof, make_functional("affine", 1, {"a": 2.0, "b": 0.0}))
        assert rep1.residual_linf["structure_traced"] <= 1e-10
        rep2 = check_normal_soliton(prof, make_functional("affine", 2, {"a": 2.0, "b": 0.0}))
        assert rep2.residual_linf["structure_traced"] > 1e-3

    def test_equivalence_corpus(self):
        # verdict must match constancy of lam exactly, over a mixed corpus of
        # profiles and psi' != 0 functionals
        rng = np.random.default_rng(42)
        funcs = [make_functional("b1", 2), make_functional("b1", 3),
                 make_functional("tau1_minus_c", 2, {"c": 1.0}),
                 make_functional("affine", 1, {"a": -2.0, "b": 0.5}), make_functional("affine", 3, {"a": 0.7, "b": -0.2})]
        mistakes = 0
        for i in range(50):
            F = funcs[i % len(funcs)]
            if i % 2 == 0:
                p = constant_profile(float(rng.uniform(-2, 2)))
                expect = "soliton"
            else:
                p = sine_profile(
                    grid=64,
                    amplitude=float(rng.uniform(0.1, 1.0)),
                    mean=float(rng.uniform(-1, 1)),
                )
                expect = "not_soliton"
            rep = check_normal_soliton(p, F)
            constant = rep.n_lambda_norm <= rep.tol
            if rep.verdict != expect or constant != (expect == "soliton"):
                mistakes += 1
        assert mistakes == 0

    def test_degenerate_on_singular_functional(self):
        # psi = lam^2 overflows at lam = 1e200
        F = make_functional("umbilical_square", 2)
        with np.errstate(over="ignore", invalid="ignore"):
            rep = check_normal_soliton(constant_profile(1e200), F)
        assert rep.verdict == "degenerate"
        assert "non-finite values in psi or mu" in rep.notes


class TestBiregular:
    def test_flat_torus(self):
        F = make_functional("b1", 1)
        g = BiregularGrid.from_functions(
            lambda u, v: 1.0, lambda u, v: 1.0, shape=(32, 32),
            periodic0=True,
        )
        rep = check_biregular_surface(g, F, eps=psi_of_lambda(F, 0.0))
        assert rep.verdict == "soliton"
        assert all(v <= 1e-14 for v in rep.residual_linf.values())

    def test_exponential_metric_unit_curvature(self):
        F = make_functional("b1", 1)
        g = BiregularGrid.from_functions(
            lambda u, v: 1.0, lambda u, v: np.exp(-2.0 * u), shape=(64, 32),
        )
        lam = biregular_normal_curvature(g)
        np.testing.assert_allclose(lam, 1.0, atol=1e-10)
        rep = check_biregular_surface(g, F, eps=psi_of_lambda(F, 1.0))
        assert rep.verdict == "soliton"
        assert rep.lam.tobytes() == lam.tobytes()  # the lam the check judged

    def test_mismatched_eps_rejected(self):
        F = make_functional("b1", 1)
        g = BiregularGrid.from_functions(
            lambda u, v: 1.0, lambda u, v: np.exp(-2.0 * u), shape=(64, 32),
        )
        rep = check_biregular_surface(g, F, eps=psi_of_lambda(F, 0.0))
        assert rep.verdict == "not_soliton"
        assert rep.residual_linf["R1_structure"] == pytest.approx(1.0, rel=1e-6)

    def test_leaf_independent_metric_is_geodesic(self):
        F = make_functional("b1", 1)
        g = BiregularGrid.from_functions(
            lambda u, v: 1.0, lambda u, v: 2.0 + np.sin(2 * np.pi * v),
            shape=(32, 64), periodic0=True,
        )
        lam = biregular_normal_curvature(g)
        assert np.max(np.abs(lam)) <= 1e-12

    @pytest.mark.parametrize("length0", [1.0, 1e-12])
    def test_leaf_independent_metric_is_decided_at_any_spacing(self, length0):
        # lam = 0 exactly: log g11 does not change along x0, so no rounding of
        # it reaches R1 however fine the spacing
        F = make_functional("b1", 1)
        g = BiregularGrid.from_functions(
            lambda u, v: 1.0, lambda u, v: 2.0 + np.sin(2 * np.pi * v),
            shape=(32, 64), lengths=(length0, 1.0), periodic0=True,
        )
        assert check_biregular_surface(g, F, eps="auto").verdict == "soliton"
        assert check_biregular_surface(g, F, eps=0.5).verdict == "not_soliton"

    def test_soliton_with_vanishing_psi_is_decided(self):
        # psi(1) = 0 for tau1 - 2 at n = 2, so R1's terms are psi' lam, not psi
        F = make_functional("tau1_minus_c", 2, {"c": 2.0})
        g = BiregularGrid.from_functions(
            lambda u, v: 1.0, lambda u, v: np.exp(-2.0 * u), shape=(64, 32),
        )
        assert check_biregular_surface(g, F, eps="auto").verdict == "soliton"
        assert check_biregular_surface(g, F, eps=0.5).verdict == "not_soliton"

    def test_metric_positivity_enforced(self):
        with pytest.raises(ValueError, match="positive"):
            BiregularGrid.from_functions(
                lambda u, v: 1.0, lambda u, v: u - 0.5, shape=(16, 16)
            )

    def test_auto_eps_picks_leaf_average(self):
        F = make_functional("b1", 1)
        g = BiregularGrid.from_functions(
            lambda u, v: 1.0, lambda u, v: np.exp(-2.0 * u), shape=(64, 32),
        )
        rep = check_biregular_surface(g, F, eps="auto")
        assert rep.eps_used == pytest.approx(1.0, abs=1e-9)
        assert rep.verdict == "soliton"


class TestRicciClassifier:
    def test_symmetric_split(self):
        cls = classify_ricci_soliton(4, 0.0, 1.0)
        assert cls.cpc
        two = [s for s in cls.spectra if s.kind == "two_root"]
        assert len(two) == 1
        np.testing.assert_allclose(two[0].roots, (1.0, -1.0))
        assert two[0].multiplicities == (2, 2)

    def test_negative_discriminant_refused(self):
        cls = classify_ricci_soliton(4, 0.0, -1.0)
        assert cls.discriminant == pytest.approx(-4.0)
        assert cls.spectra == ()
        assert not cls.cpc

    def test_no_admissible_spectrum(self):
        cls = classify_ricci_soliton(3, 1.0, 2.0)
        assert cls.spectra == ()

    def test_umbilical_branch(self):
        # k = 1 with multiplicity 3: tau1 = 3, r = k^2 (1 - n) = -2
        cls = classify_ricci_soliton(3, 3.0, -2.0)
        kinds = {s.kind for s in cls.spectra}
        assert "umbilical" in kinds
        um = next(s for s in cls.spectra if s.kind == "umbilical")
        assert um.roots == (1.0,)
        assert um.multiplicities == (3,)

    def test_totally_geodesic_at_origin(self):
        cls = classify_ricci_soliton(5, 0.0, 0.0)
        assert any(
            s.roots == (0.0,) and s.multiplicities == (5,) for s in cls.spectra
        )

    def test_rejects_small_n(self):
        with pytest.raises(ValueError, match="^n: "):
            classify_ricci_soliton(2, 0.0, 1.0)

    @pytest.mark.parametrize("tau1,r,name", [
        (1e200, 0.0, "tau1"), (-1e155, 1.0, "tau1"), (0.0, 1e308, "r"),
        (0.0, -1e308, "r"), (1.0, math.nan, "r"), (math.inf, 0.0, "tau1"),
    ])
    def test_refuses_a_non_finite_discriminant(self, tau1, r, name):
        with pytest.raises(ValueError, match=f"^{name}: the discriminant"):
            classify_ricci_soliton(4, tau1, r)

    def test_reconstruction_invariants(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            n = int(rng.integers(3, 7))
            tau1 = float(rng.choice(np.arange(-5, 5.5, 0.5)))
            r = float(rng.choice(np.arange(-5, 5.5, 0.5)))
            cls = classify_ricci_soliton(n, tau1, r)
            for sp in cls.spectra:
                total = sum(m * v for v, m in zip(sp.roots, sp.multiplicities))
                assert total == pytest.approx(tau1, abs=1e-9)
                for root in sp.roots:
                    assert root * (root - tau1) == pytest.approx(r, abs=1e-9)
                assert sum(sp.multiplicities) == n

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_agreement_with_enumeration(self, n):
        grid = np.arange(-5.0, 5.5, 0.5)
        for tau1 in grid:
            for r in grid:
                expected = enumerate_ricci_soliton_spectra(n, float(tau1), float(r))
                cls = classify_ricci_soliton(n, float(tau1), float(r))
                got = {
                    canonical_spectrum_key(s.roots, s.multiplicities)
                    for s in cls.spectra
                }
                assert got == expected, (n, tau1, r)

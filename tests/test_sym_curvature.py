from __future__ import annotations

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from egf_lab.catalog import PARAMS, make_functional
from egf_lab.sym_curvature import (
    FlowFunctional,
    PrincipalCurvatureSpectrum,
    assemble_h_eigen,
    classify_extrinsic_ricci_flat,
    conformal_shift,
    elementary_from_power,
    extrinsic_ricci_eigen,
    extrinsic_scalar,
    power_sums,
    power_sums_with_tau0,
    psi_of_lambda,
    psi_prime,
    umbilical_tau,
)

from oracles import (
    all_permutations,
    direct_power_sums,
    enumerate_flat_spectra,
    power_sums_with_tau0_reference,
    shifted_power_sums,
    sigma_by_expansion,
)


def spectrum(*k):
    return PrincipalCurvatureSpectrum(tuple(k))


def functional_b1(n):
    """h(b) = b_1, i.e. psi(lam) = lam."""
    if n == 1:
        return FlowFunctional(1, (lambda tau: tau[..., 0],))
    f = [lambda tau: np.zeros(tau.shape[:-1]) for _ in range(n)]
    f[1] = lambda tau: np.ones(tau.shape[:-1])
    return FlowFunctional(n, tuple(f))


def functional_tau1_minus_c(n, c):
    f = [lambda tau: tau[..., 0] - c] + [
        (lambda tau: np.zeros(tau.shape[:-1])) for _ in range(n - 1)
    ]
    return FlowFunctional(n, tuple(f))


def functional_ext_ricci(n):
    """f1 = -2 tau1, f2 = 2 for n >= 3; sigma_2 form for n = 2."""
    if n == 2:
        return FlowFunctional(
            2,
            (lambda tau: -(tau[..., 0] ** 2 - tau[..., 1]),
             lambda tau: np.zeros(tau.shape[:-1])),
        )
    f = [lambda tau: np.zeros(tau.shape[:-1]) for _ in range(n)]
    f[1] = lambda tau: -2.0 * tau[..., 0]
    f[2] = lambda tau: 2.0 * np.ones(tau.shape[:-1])
    return FlowFunctional(n, tuple(f))


@st.composite
def power_sums_case(draw):
    """(tau, n, m): tau_1..tau_n under a leading shape (), (G,) or (a, b),
    signed zeros included, and m at both ends of the extension."""
    n = draw(st.integers(1, 8))
    m = draw(st.sampled_from([n, n + 1, max(0, 2 * n - 2), 2 * n + 3]))
    lead = draw(st.sampled_from([(), (5,), (2, 3)]))
    value = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-3.0, 3.0))
    count = int(np.prod(lead, dtype=int)) * n
    values = draw(st.lists(value, min_size=count, max_size=count))
    return np.array(values).reshape(lead + (n,)), n, m


class TestPowerSums:
    def test_known_values(self):
        np.testing.assert_allclose(power_sums(spectrum(1, 2, 3), 3), [6, 14, 36])

    def test_zero_spectrum(self):
        np.testing.assert_array_equal(power_sums(spectrum(0, 0), 4), np.zeros(4))

    def test_umbilical_closed_form(self):
        # tau_j = n lam^j on an umbilical spectrum
        np.testing.assert_allclose(power_sums(spectrum(3, 3), 2), [6, 18])
        np.testing.assert_allclose(umbilical_tau(2, 3.0), [6, 18])

    def test_matches_direct_summation(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            n = rng.integers(1, 7)
            k = tuple(rng.uniform(-10, 10, n))
            m = int(rng.integers(1, 2 * n + 1))
            np.testing.assert_allclose(
                power_sums(spectrum(*k), m), direct_power_sums(k, m), rtol=1e-12
            )

    def test_rejects_bad_m(self):
        with pytest.raises(ValueError):
            power_sums(spectrum(1.0), 0)


class TestNewton:
    def test_sigma_known(self):
        np.testing.assert_allclose(elementary_from_power([6, 14, 36], 3), [6, 11, 6])

    def test_sigma_zero(self):
        np.testing.assert_array_equal(elementary_from_power([0, 0], 2), [0, 0])

    def test_sigma_n1(self):
        np.testing.assert_allclose(elementary_from_power([5.0], 1), [5.0])

    def test_roundtrip_vs_polynomial_expansion(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            n = int(rng.integers(1, 7))
            k = tuple(rng.uniform(-10, 10, n))
            tau = power_sums(spectrum(*k), n)
            sigma = elementary_from_power(tau, n)
            expected = sigma_by_expansion(k)
            scale = max(1.0, float(np.max(np.abs(expected))))
            np.testing.assert_allclose(sigma, expected, rtol=1e-10, atol=1e-10 * scale)

    def test_extend_power_known(self):
        # k = (1, 2): tau_3 = tau_2 s1 - tau_1 s2 = 15 - 6 = 9
        ext = power_sums_with_tau0([3, 5], 2, 3)[..., 3:]
        np.testing.assert_allclose(ext, [9.0])

    def test_extend_umbilical(self):
        lam = 1.7
        ext = power_sums_with_tau0(umbilical_tau(2, lam), 2, 3)[..., 3:]
        np.testing.assert_allclose(ext, [2 * lam ** 3], rtol=1e-12)

    def test_extend_zero(self):
        ext = power_sums_with_tau0([0, 0], 2, 5)[..., 3:]
        np.testing.assert_array_equal(ext, np.zeros(3))

    def test_extension_matches_direct_sums(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            n = int(rng.integers(1, 7))
            k = tuple(rng.uniform(-10, 10, n))
            tau = power_sums(spectrum(*k), n)
            ext = power_sums_with_tau0(tau, n, 2 * n)[..., n + 1:]
            expected = direct_power_sums(k, 2 * n)[n:]
            scale = max(1.0, float(np.max(np.abs(expected))))
            np.testing.assert_allclose(ext, expected, rtol=1e-9, atol=1e-9 * scale)

    def test_tau0_convention(self):
        full = power_sums_with_tau0(umbilical_tau(3, 2.0), 3, 4)
        np.testing.assert_allclose(full, [3, 6, 12, 24, 48])

    @settings(derandomize=True, database=None, deadline=None, max_examples=200)
    @given(case=power_sums_case())
    def test_one_pass_matches_column_reference_bytes(self, case):
        tau, n, m = case
        got = power_sums_with_tau0(tau, n, m)
        want = power_sums_with_tau0_reference(tau, n, m)
        assert got.shape == want.shape == tau.shape[:-1] + (m + 1,)
        assert got.tobytes() == np.ascontiguousarray(want).tobytes()

    def test_permutation_invariance(self):
        k = (1.25, -0.5, 3.0, 2.0)
        base_tau = power_sums(spectrum(*k), 4)
        base_sigma = elementary_from_power(base_tau, 4)
        base_scalar = extrinsic_scalar(spectrum(*k))
        for perm in all_permutations(k):
            tau = power_sums(spectrum(*perm), 4)
            np.testing.assert_allclose(tau, base_tau, rtol=1e-12)
            np.testing.assert_allclose(
                elementary_from_power(tau, 4), base_sigma, rtol=1e-12
            )
            assert extrinsic_scalar(spectrum(*perm)) == pytest.approx(base_scalar)


class TestPsiAndH:
    def test_psi_b1_is_identity(self):
        F = functional_b1(2)
        for lam in (-2.0, 0.0, 0.3, 5.0):
            assert psi_of_lambda(F, lam) == pytest.approx(lam, abs=1e-14)

    def test_psi_tau1_minus_c(self):
        F = functional_tau1_minus_c(3, 4.0)
        assert psi_of_lambda(F, 2.0) == pytest.approx(3 * 2.0 - 4.0)

    def test_psi_at_zero_is_f0_at_origin(self):
        F = functional_tau1_minus_c(2, 1.5)
        assert psi_of_lambda(F, 0.0) == pytest.approx(-1.5)

    def test_psi_vectorized(self):
        F = functional_b1(3)
        lam = np.linspace(-1, 1, 11)
        np.testing.assert_allclose(psi_of_lambda(F, lam), lam, atol=1e-14)

    def test_psi_prime(self):
        F = functional_tau1_minus_c(2, 0.0)  # psi = 2 lam
        assert psi_prime(F, 0.37) == pytest.approx(2.0, abs=1e-8)

    def test_h_extrinsic_ricci(self):
        spec = spectrum(1, 2, 3)
        h = assemble_h_eigen(spec, functional_ext_ricci(3))
        k = np.array([1.0, 2, 3])
        np.testing.assert_allclose(h, -2 * (6 * k - k ** 2))

    def test_h_totally_geodesic(self):
        F = functional_tau1_minus_c(2, 1.0)
        h = assemble_h_eigen(spectrum(0, 0), F)
        np.testing.assert_allclose(h, [-1.0, -1.0])

    def test_h_umbilical_collapse(self):
        rng = np.random.default_rng(3)
        for n in (1, 2, 3, 5):
            lam = float(rng.uniform(-2, 2))
            for F in (functional_b1(n), functional_tau1_minus_c(n, 0.7)):
                h = assemble_h_eigen(spectrum(*([lam] * n)), F)
                assert np.ptp(h) <= 1e-12
                assert h[0] == pytest.approx(psi_of_lambda(F, lam), abs=1e-12)

    def test_h_dimension_mismatch(self):
        with pytest.raises(ValueError):
            assemble_h_eigen(spectrum(1, 2), functional_b1(3))

    def test_functional_all_zero_rejected(self):
        with pytest.raises(ValueError, match="vanish"):
            FlowFunctional(2, (lambda t: 0.0, lambda t: 0.0))


# psi of each catalog functional as written next to catalog.FUNCTIONALS
CLOSED_FORMS = {
    "b1": lambda n, p, lam: lam,
    "tau1_minus_c": lambda n, p, lam: n * lam - p["c"],
    "ext_ricci": lambda n, p, lam: (2 - 2 * n) * lam ** 2,
    "umbilical_square": lambda n, p, lam: lam ** 2,
    "affine": lambda n, p, lam: p["a"] * lam + p["b"],
}


def moderate():
    """Floats in [-4, 4] that are 0 or at least 1e-100 in modulus, so the
    products the paths form (up to lam^2 times a parameter) stay normal."""
    return st.floats(-4.0, 4.0).filter(lambda x: x == 0 or abs(x) >= 1e-100)


@st.composite
def catalog_psi_case(draw):
    name = draw(st.sampled_from(sorted(CLOSED_FORMS)))
    n = draw(st.integers(2 if name == "ext_ricci" else 1, 6))
    params = {key: draw(moderate()) for key in PARAMS["functional"][name]}
    lam = np.array(draw(st.lists(moderate(), min_size=1, max_size=16)) + [0.0])
    return name, n, params, lam


class TestHornerPsi:
    """A table-built functional's Horner psi against the composition through
    its own callbacks and against the closed form."""

    @settings(derandomize=True, database=None, deadline=None, max_examples=300)
    @given(case=catalog_psi_case())
    def test_matches_composition_and_closed_form(self, case):
        name, n, params, lam = case
        assume(name != "affine" or params["a"] != 0 or params["b"] != 0)
        F = make_functional(name, n, params)
        composed = FlowFunctional(n, F.f)  # the same callbacks, no coefficients
        horner = psi_of_lambda(F, lam)
        via_tau = psi_of_lambda(composed, lam)
        terms = composed.evaluate(umbilical_tau(n, lam)) * (
            lam[:, None] ** np.arange(n))
        powers = np.abs(np.asarray(F.psi_coeffs)) * (
            np.abs(lam)[:, None] ** np.arange(len(F.psi_coeffs)))
        ulp = np.spacing(np.maximum(np.sum(np.abs(terms), axis=1),
                                    np.sum(powers, axis=1)))
        assert np.all(np.abs(horner - via_tau) <= 4 * ulp)
        assert np.all(np.abs(horner - CLOSED_FORMS[name](n, params, lam)) <= 4 * ulp)
        if n == 2 or name == "b1":
            assert np.array_equal(horner, via_tau)


class TestConformalShift:
    def test_basic(self):
        assert conformal_shift(spectrum(1, 2), 1.0).k == (0.0, 1.0)

    def test_zero_shift_identity(self):
        assert conformal_shift(spectrum(1.5, -2.0), 0.0).k == (1.5, -2.0)

    def test_umbilical_to_geodesic(self):
        assert conformal_shift(spectrum(2, 2, 2), 2.0).k == (0.0, 0.0, 0.0)

    def test_consistency_with_binomial_oracle(self):
        rng = np.random.default_rng(19)
        for _ in range(30):
            n = int(rng.integers(1, 6))
            k = tuple(rng.uniform(-5, 5, n))
            c = float(rng.uniform(-3, 3))
            got = power_sums(conformal_shift(spectrum(*k), c), n + 2)
            want = shifted_power_sums(k, c, n + 2)
            np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-9)


class TestExtrinsicRicci:
    def test_eigen_umbilical_n2(self):
        # equals sigma_2 * identity for n = 2
        np.testing.assert_allclose(extrinsic_ricci_eigen(spectrum(1, 1)), [1, 1])

    def test_eigen_zero(self):
        np.testing.assert_array_equal(extrinsic_ricci_eigen(spectrum(0, 0, 0)), np.zeros(3))

    def test_eigen_generic(self):
        np.testing.assert_allclose(extrinsic_ricci_eigen(spectrum(1, 2, 3)), [5, 8, 9])

    def test_scalar_values(self):
        assert extrinsic_scalar(spectrum(1, 1)) == pytest.approx(2.0)
        assert extrinsic_scalar(spectrum(0, 0)) == 0.0
        assert extrinsic_scalar(spectrum(2, -2)) == pytest.approx(-8.0)

    def test_flat_verdicts(self):
        assert classify_extrinsic_ricci_flat(spectrum(0, 0), 1e-8).verdict == \
            "flat+totally_geodesic"
        assert classify_extrinsic_ricci_flat(spectrum(1, -1), 1e-8).verdict == "not_flat"
        assert classify_extrinsic_ricci_flat(spectrum(1, 2), 1e-8).verdict == "not_flat"

    def test_flat_rank_one_family_is_flagged(self):
        # (c, 0, ..., 0) kills every extrinsic Ricci eigenvalue without being
        # totally geodesic; the verdict must surface that instead of assuming
        # flatness implies k = 0.
        v = classify_extrinsic_ricci_flat(spectrum(3.0, 0.0, 0.0), 1e-8)
        assert v.flat and v.totally_geodesic is False
        assert v.verdict == "flat"

    def test_flat_set_by_enumeration(self):
        # Over a small value grid the only flat spectra are k = 0 and the
        # rank-one family, for every n <= 4.
        values = [-2.0, -1.0, 0.0, 1.0, 2.0]
        for n in (1, 2, 3, 4):
            flat = enumerate_flat_spectra(n, values)
            for k in flat:
                nonzero = [v for v in k if v != 0.0]
                assert len(nonzero) <= 1
                v = classify_extrinsic_ricci_flat(PrincipalCurvatureSpectrum(k), 1e-8)
                assert v.flat
            # and the classifier agrees with the enumeration on the whole grid
            seen = set()
            for combo in np.ndindex(*([len(values)] * n)):
                k = tuple(sorted(values[i] for i in combo))
                if k in seen:
                    continue
                seen.add(k)
                v = classify_extrinsic_ricci_flat(PrincipalCurvatureSpectrum(k), 1e-8)
                assert v.flat == (k in flat)

    def test_random_nonzero_spectra_not_flat(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            n = int(rng.integers(2, 7))
            k = rng.uniform(-10, 10, n)
            if np.max(np.abs(k)) < 1e-3:
                continue
            v = classify_extrinsic_ricci_flat(PrincipalCurvatureSpectrum(tuple(k)), 1e-8)
            assert not v.flat

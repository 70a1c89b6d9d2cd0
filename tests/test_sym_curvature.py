from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from egf_lab.catalog import PARAMS, make_functional
from egf_lab.sym_curvature import (
    FlowFunctional,
    elementary_from_power,
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
    sigma_by_expansion,
)


@st.composite
def power_sums_case(draw):
    """(tau, n, m): tau_1..tau_n over a trailing shape (), (G,) or (a, b),
    signed zeros included, and m at both ends of the extension."""
    n = draw(st.integers(1, 8))
    m = draw(st.sampled_from([n, n + 1, max(0, 2 * n - 2), 2 * n + 3]))
    lead = draw(st.sampled_from([(), (5,), (2, 3)]))
    value = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-3.0, 3.0))
    count = int(np.prod(lead, dtype=int)) * n
    values = draw(st.lists(value, min_size=count, max_size=count))
    return np.array(values).reshape((n,) + lead), n, m


class TestPowerSums:
    def test_umbilical_closed_form(self):
        # tau_j = n lam^j on an umbilical spectrum
        np.testing.assert_allclose(umbilical_tau(2, 3.0), [6, 18])
        np.testing.assert_allclose(umbilical_tau(2, 3.0), direct_power_sums((3.0, 3.0), 2))


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
            tau = direct_power_sums(k, n)
            sigma = elementary_from_power(tau, n)
            expected = sigma_by_expansion(k)
            scale = max(1.0, float(np.max(np.abs(expected))))
            np.testing.assert_allclose(sigma, expected, rtol=1e-10, atol=1e-10 * scale)

    def test_extend_power_known(self):
        # k = (1, 2): tau_3 = tau_2 s1 - tau_1 s2 = 15 - 6 = 9
        ext = power_sums_with_tau0([3, 5], 2, 3)[3:]
        np.testing.assert_allclose(ext, [9.0])

    def test_extend_umbilical(self):
        lam = 1.7
        ext = power_sums_with_tau0(umbilical_tau(2, lam), 2, 3)[3:]
        np.testing.assert_allclose(ext, [2 * lam ** 3], rtol=1e-12)

    def test_extend_zero(self):
        ext = power_sums_with_tau0([0, 0], 2, 5)[3:]
        np.testing.assert_array_equal(ext, np.zeros(3))

    def test_extension_matches_direct_sums(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            n = int(rng.integers(1, 7))
            k = tuple(rng.uniform(-10, 10, n))
            tau = direct_power_sums(k, n)
            ext = power_sums_with_tau0(tau, n, 2 * n)[n + 1:]
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
        # the reference keeps the index last
        want = power_sums_with_tau0_reference(np.moveaxis(tau, 0, -1), n, m)
        assert got.shape == (m + 1,) + tau.shape[1:] and got.flags.c_contiguous
        given = min(n, m)
        assert got[1:given + 1].tobytes() == tau[:given].tobytes()  # row j is tau_j
        assert got.tobytes() == np.moveaxis(want, -1, 0).tobytes()

    def test_permutation_invariance(self):
        k = (1.25, -0.5, 3.0, 2.0)
        base_tau = direct_power_sums(k, 4)
        base_sigma = elementary_from_power(base_tau, 4)
        for perm in all_permutations(k):
            tau = direct_power_sums(perm, 4)
            np.testing.assert_allclose(tau, base_tau, rtol=1e-12)
            np.testing.assert_allclose(
                elementary_from_power(tau, 4), base_sigma, rtol=1e-12
            )


def _tau1(k):
    return np.sum(k, axis=-1, keepdims=True)


# the eigenvalue of h(b) on the eigenvector of k_i, for each catalog
# functional: b itself, (tau_1 - c) I, -2 times the extrinsic Ricci tensor
# tau_1 b - b^2, (tau_2 / n) I and (a tau_1 / n + b) I
H_EIGEN = {
    "b1": lambda k, p: k,
    "tau1_minus_c": lambda k, p: (_tau1(k) - p["c"]) + 0 * k,
    "ext_ricci": lambda k, p: -2.0 * k * (_tau1(k) - k),
    "umbilical_square": lambda k, p: np.mean(k ** 2, axis=-1, keepdims=True) + 0 * k,
    "affine": lambda k, p: p["a"] * _tau1(k) / k.shape[-1] + p["b"] + 0 * k,
}
H_EIGEN_CASES = [
    ("b1", 1, {}), ("b1", 2, {}), ("b1", 5, {}),
    ("tau1_minus_c", 1, {"c": 0.3}), ("tau1_minus_c", 3, {"c": -1.5}),
    ("ext_ricci", 2, {}), ("ext_ricci", 3, {}), ("ext_ricci", 5, {}),
    ("umbilical_square", 1, {}), ("umbilical_square", 2, {}),
    ("umbilical_square", 4, {}),
    ("affine", 1, {"a": 0.7, "b": -0.2}), ("affine", 3, {"a": -2.0, "b": 1.0}),
]


class TestPsiAndH:
    def test_psi_b1_is_identity(self):
        F = make_functional("b1", 2)
        for lam in (-2.0, 0.0, 0.3, 5.0):
            assert psi_of_lambda(F, lam) == pytest.approx(lam, abs=1e-14)

    def test_psi_tau1_minus_c(self):
        F = make_functional("tau1_minus_c", 3, {"c": 4.0})
        assert psi_of_lambda(F, 2.0) == pytest.approx(3 * 2.0 - 4.0)

    def test_psi_at_zero_is_f0_at_origin(self):
        F = make_functional("tau1_minus_c", 2, {"c": 1.5})
        assert psi_of_lambda(F, 0.0) == pytest.approx(-1.5)

    def test_psi_vectorized(self):
        F = make_functional("b1", 3)
        lam = np.linspace(-1, 1, 11)
        np.testing.assert_allclose(psi_of_lambda(F, lam), lam, atol=1e-14)

    def test_psi_prime(self):
        F = make_functional("tau1_minus_c", 2, {"c": 0.0})  # psi = 2 lam
        assert psi_prime(F, 0.37) == pytest.approx(2.0, abs=1e-8)

    def test_functional_all_zero_rejected(self):
        with pytest.raises(ValueError, match="vanish"):
            FlowFunctional(2, ((((0, 0), 0.0), ((1, 0), -0.0)), ()))

    @pytest.mark.parametrize("n,table,match", [
        (0, (), "leaf dimension"),
        (2, ((((1, 0), 1.0),),), "one table row"),
        (2, ((((1, 0), 1.0),), (), ()), "one table row"),
    ])
    def test_functional_shape_rejected(self, n, table, match):
        with pytest.raises(ValueError, match=match):
            FlowFunctional(n, table)

    @pytest.mark.parametrize("name,n,params,want", [
        ("b1", 1, {}, (0.0, 1.0)),
        ("b1", 4, {}, (0.0, 1.0)),
        ("tau1_minus_c", 3, {"c": 4.0}, (-4.0, 3.0)),
        ("ext_ricci", 2, {}, (0.0, 0.0, -2.0)),
        ("ext_ricci", 4, {}, (0.0, 0.0, -6.0)),
        ("umbilical_square", 1, {}, (0.0, 0.0, 1.0)),
        ("umbilical_square", 3, {}, (0.0, 0.0, 1.0)),
        ("affine", 2, {"a": 0.5, "b": -1.0}, (-1.0, 0.5)),
    ])
    def test_psi_coeffs(self, name, n, params, want):
        # coef * n^(sum e_k) of each monomial, collected by power of lam
        assert make_functional(name, n, params).psi_coeffs == want

    @pytest.mark.parametrize("name,n,params,slope", [
        ("b1", 3, {}, lambda lam: 1.0 + 0 * lam),
        ("tau1_minus_c", 3, {"c": 4.0}, lambda lam: 3.0 + 0 * lam),
        ("ext_ricci", 3, {}, lambda lam: -8.0 * lam),
        ("umbilical_square", 2, {}, lambda lam: 2.0 * lam),
        ("affine", 1, {"a": -2.0, "b": 0.3}, lambda lam: -2.0 + 0 * lam),
    ])
    def test_psi_prime_closed_form(self, name, n, params, slope):
        F = make_functional(name, n, params)
        lam = np.array([-3.0, -0.4, 0.0, 1e-9, 0.37, 2.5])
        np.testing.assert_allclose(psi_prime(F, lam), slope(lam), rtol=0, atol=1e-7)

    @pytest.mark.parametrize("name,n,params", H_EIGEN_CASES)
    def test_h_eigenvalues_match_closed_form(self, name, n, params):
        # h(b) = sum_j f_j(tau) b^j is diagonal on the eigenbasis of b, with
        # entry sum_j f_j(tau) k_i^j on the eigenvector of k_i
        rng = np.random.default_rng(n)
        k = np.vstack([np.zeros(n), np.full(n, 0.8), rng.uniform(-2, 2, (30, n))])
        tau = np.stack(direct_power_sums(k.T, n))
        F = make_functional(name, n, params)
        h = sum(F.coefficient(j, tau)[:, None] * k ** j for j in range(n))
        want = H_EIGEN[name](k, params)
        np.testing.assert_allclose(h, want, rtol=1e-12, atol=1e-12 * np.max(np.abs(want)))

    @pytest.mark.parametrize("lead", [(), (5,), (2, 3)])
    def test_coefficient_over_leading_axes(self, lead):
        n = 4
        # f_j = (0.5 - j) tau_(j+1) + 1.5
        F = FlowFunctional(n, tuple(((tuple(e), 0.5 - j), ((0,) * n, 1.5))
                                    for j, e in enumerate(np.eye(n, dtype=int).tolist())))
        tau = np.random.default_rng(3).normal(size=(n,) + lead)
        nodes = tau.reshape(n, -1).T
        for j in range(n):
            got = F.coefficient(j, tau)
            assert np.shape(got) == lead
            each = [F.coefficient(j, node[:, None])[0] for node in nodes]
            assert np.asarray(got).tobytes() == np.array(each).reshape(lead).tobytes()


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
    """A catalog functional's Horner psi against the composition
    sum_j f_j(n lam, ..., n lam^n) lam^j of its own coefficients and against
    the closed form."""

    @settings(derandomize=True, database=None, deadline=None, max_examples=300)
    @given(case=catalog_psi_case())
    def test_matches_composition_and_closed_form(self, case):
        name, n, params, lam = case
        assume(name != "affine" or params["a"] != 0 or params["b"] != 0)
        F = make_functional(name, n, params)
        horner = psi_of_lambda(F, lam)
        tau = umbilical_tau(n, lam)
        terms = np.stack([F.coefficient(j, tau) * lam ** j for j in range(n)], axis=-1)
        via_tau = np.sum(terms, axis=-1)
        powers = np.abs(np.asarray(F.psi_coeffs)) * (
            np.abs(lam)[:, None] ** np.arange(len(F.psi_coeffs)))
        ulp = np.spacing(np.maximum(np.sum(np.abs(terms), axis=1),
                                    np.sum(powers, axis=1)))
        assert np.all(np.abs(horner - via_tau) <= 4 * ulp)
        assert np.all(np.abs(horner - CLOSED_FORMS[name](n, params, lam)) <= 4 * ulp)
        if n == 2 or name == "b1":
            assert np.array_equal(horner, via_tau)


@pytest.mark.parametrize("name", ["b1", "tau1_minus_c", "ext_ricci"])
def test_functional_holds_at_most_64_bytes_per_index(name):
    # a functional is its table, one exponent row of n entries per monomial:
    # nothing per index j beyond the table's own slot
    n = 2 ** 16
    tracemalloc.start()
    try:
        F = make_functional(name, n)
        F.live, F.varying, F.psi_coeffs
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held <= 64 * n, f"{held / n:.1f} B per index"


class TestExtrinsicRicci:
    def test_flat_set_by_enumeration(self):
        # tau_1 k_i - k_i^2 = 0 for every i forces k = 0 except on the
        # rank-one spectra (c, 0, ..., 0), over a small value grid for every
        # n <= 4: the oracle that criterion 10 reads
        values = [-2.0, -1.0, 0.0, 1.0, 2.0]
        for n in (1, 2, 3, 4):
            rank_one = {tuple(sorted([c] + [0.0] * (n - 1))) for c in values}
            assert enumerate_flat_spectra(n, values) == rank_one

from __future__ import annotations

import itertools
import tracemalloc

import numpy as np
import pytest

from egf_lab import cohomology_solver
from egf_lab.cohomology_solver import (
    ModeTable,
    ResonanceError,
    TorusCohomologyProblem,
    amplification_report,
    solve_linear_flow,
)

from oracles import (
    DictCohomologyProblem,
    dict_amplification_report,
    dict_diophantine_margin,
    dict_inner,
    dict_solve_linear_flow,
    mode_dict,
    mode_rows,
    whole_grid_verification,
)

GOLDEN = (1.0, (1.0 + np.sqrt(5.0)) / 2.0)


def problem_dict(p: TorusCohomologyProblem) -> dict:
    """The problem's mode table h_u, given and completed, as a dict."""
    return mode_dict(ModeTable(p.cube, p.mask, p.K))


def single_mode_problem(amp=0.5, mean=0.0, K=4):
    # h = mean + 2*amp*cos(2 pi (x - y)) via modes (1,-1) and (-1,1)
    coeffs = {(0, 0): mean, (1, -1): amp, (-1, 1): amp}
    return TorusCohomologyProblem(GOLDEN, mode_rows(coeffs), K)


def lattice_margin(v, K, s=1.0) -> float:
    """The solver's margin over the whole lattice |u|_inf <= K: no data."""
    return solve_linear_flow(TorusCohomologyProblem(v, [], K, s)).margin


class TestDiophantineMargin:
    def test_golden_ratio_positive(self):
        margin = lattice_margin(GOLDEN, 50)
        assert margin > 0.4  # badly approximable: |u1 + u2 phi| ||u|| stays O(1)
        assert margin == pytest.approx(dict_diophantine_margin(GOLDEN, 50, 1.0),
                                       rel=1e-12)

    def test_rational_resonance(self):
        assert lattice_margin((1.0, 0.5), 5) == 0.0
        assert dict_diophantine_margin((1.0, 0.5), 5, 1.0) == 0.0

    def test_axis_direction(self):
        assert lattice_margin((1.0, 0.0), 3) == 0.0
        assert dict_diophantine_margin((1.0, 0.0), 3, 1.0) == 0.0

    def test_scan_matches_bruteforce(self):
        rng = np.random.default_rng(1)
        v = (1.0, float(rng.uniform(1.1, 1.9)))
        K, s = 7, 1.5
        best = np.inf
        for u1 in range(-K, K + 1):
            for u2 in range(-K, K + 1):
                if u1 == u2 == 0:
                    continue
                best = min(best, abs(u1 * v[0] + u2 * v[1]) * np.hypot(u1, u2) ** s)
        assert lattice_margin(v, K, s) == pytest.approx(best, rel=1e-12)
        assert dict_diophantine_margin(v, K, s) == pytest.approx(best, rel=1e-12)


class TestSolveLinearFlow:
    def test_single_mode_closed_form(self):
        sol = solve_linear_flow(single_mode_problem(amp=0.5))
        u = (1, -1)
        inner = u[0] * GOLDEN[0] + u[1] * GOLDEN[1]
        expected = 0.5 / (2j * np.pi * inner)
        assert mode_dict(sol.f_coeffs)[u] == pytest.approx(expected)
        assert sol.residual <= 1e-12
        assert sol.max_imag <= 1e-12

    def test_zero_rhs(self):
        p = TorusCohomologyProblem(GOLDEN, [], 2)
        sol = solve_linear_flow(p)
        assert sol.eps == 0.0
        assert sol.residual == 0.0
        assert all(c == 0 for c in mode_dict(sol.f_coeffs).values())

    def test_mean_absorbed_into_eps(self):
        sol = solve_linear_flow(single_mode_problem(amp=0.5, mean=3.0))
        assert sol.eps == pytest.approx(3.0)
        assert sol.residual <= 1e-12

    def test_soliton_scale_is_half_leaf_dimension(self):
        sol = solve_linear_flow(single_mode_problem())
        assert sol.soliton_field_scale == pytest.approx(0.5)  # dim 2 -> n = 1
        p3 = TorusCohomologyProblem((1.0, GOLDEN[1], np.sqrt(2)), [], 2)
        assert solve_linear_flow(p3).soliton_field_scale == pytest.approx(1.0)

    def test_twenty_mode_polynomial_is_exact(self):
        rng = np.random.default_rng(9)
        coeffs = {}
        while len(coeffs) < 40:  # 20 conjugate pairs
            u = (int(rng.integers(-20, 21)), int(rng.integers(-20, 21)))
            if u == (0, 0) or u in coeffs:
                continue
            c = complex(rng.normal(), rng.normal())
            coeffs[u] = c
            coeffs[(-u[0], -u[1])] = c.conjugate()
        p = TorusCohomologyProblem(GOLDEN, mode_rows(coeffs), 20)
        sol = solve_linear_flow(p)
        assert sol.residual <= 1e-10
        assert sol.max_imag <= 1e-10

    def test_linearity(self):
        rng = np.random.default_rng(3)
        modes = [(1, -1), (2, 3), (-4, 1)]
        def table(seed):
            r = np.random.default_rng(seed)
            t = {}
            for u in modes:
                c = complex(r.normal(), r.normal())
                t[u] = c
                t[(-u[0], -u[1])] = c.conjugate()
            return t
        h1, h2 = table(1), table(2)
        a, b = 1.7, -0.3
        combo = {u: a * h1[u] + b * h2[u] for u in h1}
        s1 = solve_linear_flow(TorusCohomologyProblem(GOLDEN, mode_rows(h1), 5))
        s2 = solve_linear_flow(TorusCohomologyProblem(GOLDEN, mode_rows(h2), 5))
        sc = solve_linear_flow(TorusCohomologyProblem(GOLDEN, mode_rows(combo), 5))
        f1, f2, fc = (mode_dict(sol.f_coeffs) for sol in (s1, s2, sc))
        for u in modes:
            assert fc[u] == pytest.approx(a * f1[u] + b * f2[u], abs=1e-12)
        del rng

    def test_resonant_mode_refused_and_named(self):
        coeffs = {(1, -2): 1.0, (-1, 2): 1.0}  # <u, v> = 0 for v = (1, 1/2)
        p = TorusCohomologyProblem((1.0, 0.5), mode_rows(coeffs), 3)
        with pytest.raises(ResonanceError) as err:
            solve_linear_flow(p)
        assert err.value.worst_mode in ((1, -2), (-1, 2))
        assert "(1, -2)" in str(err.value) or "(-1, 2)" in str(err.value)

    def test_rational_direction_off_resonance_succeeds(self):
        # v = (1, 1/2): resonant sublattice is u1 + u2/2 = 0; mode (1, 1) is off it
        coeffs = {(1, 1): 0.5, (-1, -1): 0.5}
        p = TorusCohomologyProblem((1.0, 0.5), mode_rows(coeffs), 3)
        sol = solve_linear_flow(p)
        assert sol.residual <= 1e-12
        assert sol.margin == 0.0  # full-lattice margin is still resonant

    def test_reality_of_solution(self):
        rng = np.random.default_rng(17)
        coeffs = {}
        for _ in range(6):
            u = (int(rng.integers(-6, 7)), int(rng.integers(-6, 7)))
            if u == (0, 0):
                continue
            c = complex(rng.normal(), rng.normal())
            coeffs[u] = c
            coeffs[(-u[0], -u[1])] = c.conjugate()
        sol = solve_linear_flow(TorusCohomologyProblem(GOLDEN, mode_rows(coeffs), 6))
        assert sol.max_imag <= 1e-12

    def test_three_torus(self):
        v = (1.0, GOLDEN[1], np.sqrt(2))
        coeffs = {(1, -1, 0): 0.3, (-1, 1, 0): 0.3, (0, 1, -1): 0.1j, (0, -1, 1): -0.1j}
        sol = solve_linear_flow(TorusCohomologyProblem(v, mode_rows(coeffs), 3))
        assert sol.residual <= 1e-12

    def test_conjugate_symmetry_completion_and_validation(self):
        rows = [[2, 1, 1.0, 1.0]]
        p = TorusCohomologyProblem(GOLDEN, rows, 3)
        assert p.coeffs is rows  # completed in the cube, not in the rows given
        assert problem_dict(p) == {(-2, -1): 1 - 1j, (2, 1): 1 + 1j}
        with pytest.raises(ValueError, match="conjugate"):
            TorusCohomologyProblem(GOLDEN, [[2, 1, 1.0, 1.0], [-2, -1, 5.0, 0.0]], 3)

    def test_from_grid_roundtrip(self):
        M = 32
        x = np.arange(M) / M
        X, Y = np.meshgrid(x, x, indexing="ij")
        h = 1.5 + np.cos(2 * np.pi * (X - Y)) + 0.25 * np.sin(2 * np.pi * (2 * X + Y))
        p = TorusCohomologyProblem.from_grid(GOLDEN, h, K=4)
        h_u = problem_dict(p)
        assert h_u[(0, 0)] == pytest.approx(1.5)
        assert h_u[(1, -1)] == pytest.approx(0.5)
        assert h_u[(2, 1)] == pytest.approx(-0.125j)
        sol = solve_linear_flow(p)
        assert sol.eps == pytest.approx(1.5)
        assert sol.residual <= 1e-10

    def test_from_grid_aliasing_guard(self):
        with pytest.raises(ValueError, match="resolve"):
            TorusCohomologyProblem.from_grid(GOLDEN, np.zeros((8, 8)), K=6)


SHELL_COLUMNS = ["shell", "n_modes", "min_divisor", "max_amplification", "margin_bound"]


class TestAmplificationReport:
    def test_single_mode_row(self):
        sol = solve_linear_flow(single_mode_problem(amp=0.5))
        shells = amplification_report(sol)
        assert list(shells) == SHELL_COLUMNS
        assert all(len(c) == 1 for c in shells.values())
        assert shells["shell"][0] == 1
        assert shells["n_modes"][0] == 2
        assert shells["shell"].dtype.kind == shells["n_modes"].dtype.kind == "i"
        inner = abs(GOLDEN[0] - GOLDEN[1])
        assert shells["max_amplification"][0] == pytest.approx(1 / (2 * np.pi * inner))

    def test_empty_for_zero_rhs(self):
        sol = solve_linear_flow(TorusCohomologyProblem(GOLDEN, [], 2))
        shells = amplification_report(sol)
        assert list(shells) == SHELL_COLUMNS
        assert all(len(c) == 0 for c in shells.values())

    def test_amplification_below_margin_bound(self):
        rng = np.random.default_rng(31)
        coeffs = {}
        while len(coeffs) < 30:
            u = (int(rng.integers(-10, 11)), int(rng.integers(-10, 11)))
            if u == (0, 0) or u in coeffs:
                continue
            c = complex(rng.normal(), rng.normal())
            coeffs[u] = c
            coeffs[(-u[0], -u[1])] = c.conjugate()
        p = TorusCohomologyProblem(GOLDEN, mode_rows(coeffs), 10)
        shells = amplification_report(solve_linear_flow(p))
        assert len(shells["shell"])
        assert np.all(shells["max_amplification"]
                      <= shells["margin_bound"] * (1 + 1e-12))


# --------------------------------------------- dense solver vs dict reference

def _neg(u):
    return tuple(-c for c in u)


def seeded_table(rng, dim, K, n_half, tiny=3):
    """Shuffled rows [u..., re, im]: n_half + tiny modes of the half lattice,
    about half of them with their conjugate row as well, the first `tiny`
    below the energy floor; the zero mode given twice."""
    half = [u for u in itertools.product(range(-K, K + 1), repeat=dim)
            if u > _neg(u)]
    picks = rng.choice(len(half), size=n_half + tiny, replace=False)
    rows = [[0] * dim + [float(rng.normal()), 0.0]]
    for idx, pick in enumerate(sorted(picks)):
        u = half[pick]
        scale = 1e-20 if idx < tiny else 1.0
        re, im = (float(x) * scale for x in rng.normal(size=2))
        rows.append(list(u) + [re, im])
        if rng.random() < 0.5:
            rows.append(list(_neg(u)) + [re, -im])
    rows.append([0] * dim + [float(rng.normal()), 0.0])  # the last value counts
    return [rows[i] for i in rng.permutation(len(rows))]


def as_dict(rows):
    return {tuple(int(c) for c in r[:-2]): complex(r[-2], r[-1]) for r in rows}


def sum_in_order(u, v) -> float:
    total = u[0] * v[0]
    for a, b in zip(u[1:], v[1:]):
        total += a * b
    return total


def bits(c: complex) -> bytes:
    return np.array(c, dtype=complex).tobytes()


DENSE_CASES = [  # (v, K, modes given on the half lattice, seed)
    (GOLDEN, 12, 60, 1),
    ((1.0, np.sqrt(2.0)), 20, 300, 2),
    ((-0.7, 2.3), 6, 81, 3),  # every mode of the half lattice
    ((1.0, GOLDEN[1], np.sqrt(2.0)), 5, 150, 4),
    ((np.sqrt(3.0), -np.e, np.pi), 8, 600, 5),
]


class TestDenseAgainstDictOracle:
    """The dense cube solver against the dict solver in tests/oracles.py."""

    @pytest.mark.parametrize("v,K,n_half,seed", DENSE_CASES)
    def test_solution_rows_shells_and_counts(self, v, K, n_half, seed):
        rng = np.random.default_rng(seed)
        rows = seeded_table(rng, len(v), K, n_half)
        ref = DictCohomologyProblem(v, as_dict(rows), K)
        f_ref, eps_ref, margin_ref = dict_solve_linear_flow(ref)

        p = TorusCohomologyProblem.from_modes(v, np.array(rows), K)
        assert problem_dict(p) == ref.coeffs
        sol = solve_linear_flow(p)
        assert sol.eps == eps_ref
        f_u = mode_dict(sol.f_coeffs)
        assert set(f_u) == set(f_ref) and len(sol.f_coeffs) == len(f_ref)  # modes_solved
        assert sol.residual <= 1e-10 and sol.max_imag <= 1e-10

        differ = 0
        for u, f in f_ref.items():
            inner = p.inner[tuple(c + K for c in u)]
            # summed in order in Python floats, never fused
            assert inner == sum_in_order(u, v)
            if inner == dict_inner(u, v):
                assert bits(f_u[u]) == bits(f), u
            else:
                differ += 1
                bound = 4 * 2.0 ** -52 * sum(abs(a * b) for a, b in zip(u, v))
                assert abs(inner - dict_inner(u, v)) <= bound, u
        assert differ < len(f_ref) / 2

        ref_rows = dict_amplification_report(ref, f_ref, margin_ref)
        shells = amplification_report(sol)
        assert list(zip(shells["shell"].tolist(), shells["n_modes"].tolist())) == \
            [r[:2] for r in ref_rows]
        for k, want in enumerate(ref_rows):
            assert shells["min_divisor"][k] == pytest.approx(want[2], rel=1e-9)
            assert shells["max_amplification"][k] == pytest.approx(want[3], rel=1e-9)
            assert shells["margin_bound"][k] == pytest.approx(want[4], rel=1e-9)
        assert sol.margin == pytest.approx(margin_ref, rel=1e-9)
        assert bits(sol.margin) == bits(lattice_margin(v, K))  # no mode left out

    @pytest.mark.parametrize("v,K,resonant", [
        # dyadic directions: <u, v> is exact in both solvers, so every
        # resonant margin is 0 and the tie goes to the first row given
        ((1.0, 0.5), 6, [(2, -4), (-1, 2), (3, -6), (1, -2)]),
        ((1.0, 0.25, 0.5), 4, [(0, 2, -1), (1, 0, -2), (1, -4, 0), (-2, 4, 1)]),
        # one resonant pair: the named mode is the first of the two given
        ((1.0, 2.0 / 3.0), 4, [(-2, 3), (2, -3)]),
        ((1.0, 1.0 / 3.0, 0.7), 5, [(-1, 3, 0), (1, -3, 0)]),
    ])
    def test_refusal_names_the_same_mode(self, v, K, resonant):
        for seed in range(4):
            rng = np.random.default_rng(seed)
            rows = seeded_table(rng, len(v), K, 10, tiny=0)
            rows = [r for r in rows if tuple(r[:-2]) not in resonant
                    and _neg(tuple(r[:-2])) not in resonant]
            picks = rng.permutation(len(resonant))
            for i in picks:
                rows.insert(int(rng.integers(len(rows) + 1)),
                            list(resonant[i]) + [1.0, 0.0])
            with pytest.raises(ResonanceError) as want:
                dict_solve_linear_flow(DictCohomologyProblem(v, as_dict(rows), K))
            p = TorusCohomologyProblem.from_modes(v, np.array(rows), K)
            with pytest.raises(ResonanceError) as got:
                solve_linear_flow(p)
            assert got.value.worst_mode == want.value.worst_mode
            assert f"mode u = {want.value.worst_mode} is resonant" in str(got.value)

    def test_below_floor_resonance_is_not_refused(self):
        rows = [[1, -2, 1e-20, 0.0], [1, 1, 1.0, 0.5]]
        sol = solve_linear_flow(TorusCohomologyProblem((1.0, 0.5), rows, 3))
        ref, _, _ = dict_solve_linear_flow(
            DictCohomologyProblem((1.0, 0.5), as_dict(rows), 3)
        )
        assert set(mode_dict(sol.f_coeffs)) == set(ref) == {(0, 0), (1, 1), (-1, -1)}

    @pytest.mark.parametrize("v,K,rows", [
        (GOLDEN, 3, [[1, 0, 1.0, 0.0], [2, 1, 1.0, 1.0], [-2, -1, 5.0, 0.0],
                     [-1, 0, 3.0, 0.0]]),  # symmetry, first violating row named
        (GOLDEN, 3, [[0, 0, 1.0, 0.5]]),  # a complex mean violates it too
        (GOLDEN, 3, [[1, 0, 1.0, 0.0], [4, 0, 1.0, 0.0], [0, -5, 1.0, 0.0]]),
        (GOLDEN, 3, [[1, 0, 0, 1.0, 0.0], [2, 0, 0, 1.0, 0.0]]),
        ((1.0, 1.5, 2.5), 3, [[1, 0, 1.0, 0.0]]),
    ])
    def test_error_messages_match(self, v, K, rows):
        with pytest.raises(ValueError) as want:
            DictCohomologyProblem(v, as_dict(rows), K)
        with pytest.raises(ValueError) as got:
            TorusCohomologyProblem.from_modes(v, np.array(rows, dtype=float), K)
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("shape,K", [((16, 12), 4), ((9, 10, 11), 3)])
    def test_from_grid_matches_reference(self, shape, K):
        grid = np.random.default_rng(7).normal(size=shape)
        v = (1.0, GOLDEN[1], np.sqrt(2.0))[:len(shape)]
        p = TorusCohomologyProblem.from_grid(v, grid, K)
        ref = DictCohomologyProblem.from_grid(v, grid, K)
        h_u = problem_dict(p)
        assert list(h_u) == sorted(ref.coeffs)
        assert all(bits(h_u[u]) == bits(c) for u, c in ref.coeffs.items())


# ------------------------------------------ slab pass vs whole-grid fields

V3 = (1.0, GOLDEN[1], np.sqrt(2.0))


def dense_rows(rng, dim, K):
    """Random rows of every mode before the zero mode in lexicographic order;
    the problem completes their conjugates, so every mode carries energy."""
    u = np.argwhere(np.ones((2 * K + 1,) * dim, dtype=bool)) - K
    u = u[:len(u) // 2]
    return np.column_stack([u, rng.normal(size=(len(u), 2))])


class TestSlabVerification:
    """The slab-by-slab residual check against tests/oracles.py's fields held
    whole on the verification grid."""

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("K", [1, 3, 5, 16])
    @pytest.mark.parametrize("case", ["single_mode", "zero_residual", "dense"])
    @pytest.mark.parametrize("rows_per_slab", [
        lambda M: M // 3 + 1,  # three slabs, the last one shorter
        lambda M: 3,  # where M = 1 (mod 3), a last row that joins its neighbour
    ], ids=["thirds", "three_rows"])
    def test_bits_match_whole_grid(self, monkeypatch, dim, K, case, rows_per_slab):
        M = max(4 * K, 8)
        monkeypatch.setattr(cohomology_solver, "SLAB_MIN_ROWS", 2)
        monkeypatch.setattr(cohomology_solver, "SLAB_POINTS",
                            rows_per_slab(M) * M ** (dim - 1))
        zero = [0] * (dim - 2)
        rows = {
            "single_mode": [[1, -1, *zero, 0.5, 0.0], [-1, 1, *zero, 0.5, 0.0]],
            "zero_residual": [[0, 0, *zero, 3.0, 0.0]],
            "dense": dense_rows(np.random.default_rng(K), dim, K),
        }[case]
        p = TorusCohomologyProblem(V3[:dim], rows, K)
        sol = solve_linear_flow(p)
        residual, max_imag = whole_grid_verification(p, sol.f_coeffs.cube)
        assert bits(sol.residual) == bits(residual)
        assert bits(sol.max_imag) == bits(max_imag)
        if case == "zero_residual":
            assert sol.residual == 0.0

    def test_last_row_joins_the_slab_before(self):
        # at M = 848 the module's slabs of 77 rows leave one row over; alone,
        # numpy takes its sums by a matrix-vector product, which rounds this
        # residual differently
        K, M = 212, 848
        width = max(cohomology_solver.SLAB_MIN_ROWS, cohomology_solver.SLAB_POINTS // M)
        assert M % width == 1
        rows = dense_rows(np.random.default_rng(0), 2, K)
        p = TorusCohomologyProblem(V3[:2], rows, K)
        sol = solve_linear_flow(p)
        residual, max_imag = whole_grid_verification(p, sol.f_coeffs.cube)
        assert bits(sol.residual) == bits(residual)
        assert bits(sol.max_imag) == bits(max_imag)

    def test_dense_3d_solve_at_K32_peaks_below_64_MB(self):
        # three complex (128,)^3 fields held whole take 161 MB at this size
        p = TorusCohomologyProblem(V3, dense_rows(np.random.default_rng(5), 3, 32), 32)
        tracemalloc.start()
        try:
            sol = solve_linear_flow(p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sol.residual <= 1e-10 and sol.max_imag <= 1e-10
        assert peak <= 64e6, f"{peak / 1e6:.1f} MB"

"""The numpy kernel of egf_lab.text_cells against Python's own ``%``."""

from __future__ import annotations

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from egf_lab import text_cells
from egf_lab.text_cells import CELL, format_cells


def _texts(values) -> list[str]:
    """Each cell of format_cells(values) with its NULs removed."""
    cells = format_cells(values)
    assert cells.shape == (len(values), CELL) and cells.dtype == np.uint8
    assert set(cells[:, 0].tolist()) <= {0, ord("-")}  # byte 0: the sign
    return [row.tobytes().replace(b"\0", b"").decode() for row in cells]


def _assert_matches_percent(values: np.ndarray) -> None:
    # repeated up to the kernel's least size, so that it formats them
    values = np.resize(values, max(len(values), text_cells._KERNEL_MIN))
    fmt = "%d" if values.dtype.kind in "iu" else "%.17g"
    want = [fmt % v for v in values.tolist()]
    got = _texts(values)
    assert got == want, [(g, w) for g, w in zip(got, want) if g != w][:5]


def _neighbours(values) -> np.ndarray:
    """values, one ulp below and one above each, and their negatives."""
    x = np.asarray(values, dtype=float)
    with np.errstate(over="ignore"):  # past the largest double: inf
        x = np.concatenate([x, np.nextafter(x, -np.inf), np.nextafter(x, np.inf)])
    return np.concatenate([x, -x])


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(bits=st.lists(st.integers(0, 2 ** 64 - 1), min_size=1, max_size=64))
def test_raw_bit_patterns(bits):
    # every double: NaNs with payloads, subnormals and infinities among them
    _assert_matches_percent(np.array(bits, dtype=np.uint64).view(np.float64))


def test_powers_of_ten_and_their_neighbours():
    # the decade boundaries, where the log10 estimate of the exponent is off
    # by one on either side and a D rounds up into the next decade
    _assert_matches_percent(_neighbours([float(f"1e{k}") for k in range(-330, 309)]))


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(data=st.data(), denominator=st.sampled_from([4, 8, 16]))
def test_exact_decimal_ties(data, denominator):
    # m / d with m odd ends in 25, 75, 125, ..., 9375: with 16, 15 or 14
    # digits before the point, its 18th significant digit is an exact 5,
    # which % rounds half to even
    digits = {4: 16, 8: 15, 16: 14}[denominator]
    lo = denominator * 10 ** (digits - 1)
    hi = min(10 * lo, 2 ** 53)
    ms = data.draw(st.lists(st.integers(lo // 2, hi // 2 - 1), min_size=1, max_size=32))
    x = np.array([2 * m + 1 for m in ms], dtype=float) / denominator
    assert all(2 * m + 1 < 2 ** 53 for m in ms)
    _assert_matches_percent(np.concatenate([x, -x]))


# exact ties: 1000000000000000.25, 100000000000000.125, 10000000000000.0625,
# and the ties whose power of ten is no double: q / 2^24 (q odd, 3..15) times
# 10^23 and q / 2^25 (q = 1, 3) times 10^24 are q 5^23 / 2 and q 5^24 / 2
TIES = ([10.0 ** k + 2.0 ** (k - 17) for k in (15, 14, 13)]
        + [q / 2 ** 24 for q in range(3, 17, 2)] + [1 / 2 ** 25, 3 / 2 ** 25])


def test_ties_at_decade_starts_and_past_the_exact_powers():
    assert TIES[0] == 1000000000000000.25
    _assert_matches_percent(_neighbours(TIES))


def test_ties_go_to_percent():
    # the rounding fraction of a tie lies within 2^-30 of 1/2; of its
    # neighbours, a quarter digit or more away
    x = np.array(TIES + [-v for v in TIES])
    t = text_cells._kernel_tables()
    assert not text_cells._decimal(x, text_cells._KERNEL_SPAN, t)[2].any()
    with np.errstate(over="ignore"):
        near = np.concatenate([np.nextafter(x, -np.inf), np.nextafter(x, np.inf)])
    assert text_cells._decimal(near, text_cells._KERNEL_SPAN, t)[2].all()


@pytest.mark.parametrize("values", [
    [0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan],
    [5e-324, 1e-323, 2.2250738585072009e-308, 2.2250738585072014e-308, 1e-310],
    [1e-280, 1e280, 1.7976931348623157e308],  # the kernel's span and beyond
    [0.1, 1 / 3, 2 / 3, 0.5, 1e-4, 1e-5, 9.9999999999999995e-5, 1e16, 1e17, 123456.789],
], ids=["zeros-and-non-finite", "subnormals", "span-edges", "moderate"])
def test_edge_values(values):
    _assert_matches_percent(_neighbours(values))


def test_nan_is_written_without_its_sign():
    x = np.resize(np.array([math.nan, -math.nan, -math.inf, -0.0]), text_cells._KERNEL_MIN)
    assert _texts(x)[:4] == ["nan", "nan", "-inf", "-0"]
    assert format_cells(x)[:4, 0].tolist() == [0, 0, ord("-"), ord("-")]


@pytest.mark.parametrize("values", [
    np.array([0, 1, -1, 9, 10, -10, 99, 100, 2 ** 53 - 1, 2 ** 53, 2 ** 53 + 1,
              -(2 ** 53) - 1, 2 ** 63 - 1, -(2 ** 63)], dtype=np.int64),
    np.array([0, 7, 2 ** 53 + 1, 2 ** 64 - 1], dtype=np.uint64),
    np.arange(-1024, 1025, dtype=np.int32),
], ids=["int64", "uint64", "int32"])
def test_integers_as_percent_d(values):
    # an integer below 2^53 is formatted as a double; %.17g of it is its %d
    _assert_matches_percent(values)


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(exponents=st.lists(st.integers(-300, 300), min_size=1, max_size=200),
       seed=st.integers(0, 2 ** 32 - 1))
def test_scaled_normal_draws(exponents, seed):
    x = np.random.default_rng(seed).standard_normal(len(exponents)) * 10.0 ** np.array(
        exponents, dtype=float)
    _assert_matches_percent(x)


@pytest.mark.parametrize("n", [0, 1, text_cells._KERNEL_MIN - 1])
def test_fewer_values_than_the_kernel_takes(n):
    # formatted by % whole, zeros and signs as the kernel writes them
    x = np.resize(np.array([0.1, -0.0, 0.0, -2.5e-300, math.nan, -math.inf]), n)
    assert _texts(x) == ["%.17g" % v for v in x.tolist()]
    assert format_cells(x)[:, 0].tolist() == [
        ord("-") * (math.copysign(1, v) < 0 and v == v) for v in x.tolist()]


def test_import_builds_no_table():
    # the tables cost their first call, not `import egf_lab.cli`; neither
    # builds them from fractions or decimal
    code = ("import sys, numpy as np, egf_lab.cli\n"
            "from egf_lab import text_cells\n"
            "built = text_cells._kernel_tables.cache_info().currsize\n"
            "text_cells.format_cells(np.full(text_cells._KERNEL_MIN, 0.1))\n"
            "print(built, text_cells._kernel_tables.cache_info().currsize,\n"
            "      sorted({'fractions', 'decimal'} & set(sys.modules)))")
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["0", "1", "[]"]

"""Trace rows formatted as arrays against ``"%.17g" % x`` cell by cell.

``einlab.cli._chunk_text`` prints a block of floats without Python's
float formatting; these cases pin it at the places where the digits or the
layout change: exact ties, powers of ten, the switches between fixed and
exponent form, three-digit exponents and the ends of the double range.
"""

from fractions import Fraction

import numpy as np
import pytest

import einlab.cli as cli


def expected(columns):
    rows = zip(*(c.tolist() for c in columns))
    return "\n".join(",".join("%.17g" % v for v in row) for row in rows)


def assert_cells(values):
    column = np.asarray(values, dtype=np.float64)
    for columns in ((column,), (column, -column)):
        assert "\n".join(cli._chunk_text(columns)) == expected(columns)


def test_exact_ties_round_half_to_even():
    assert cli._chunk_text((np.array([1000000000000000.25, 1000000000000000.75]),)) == [
        "1000000000000000.2\n1000000000000000.8"
    ]
    # N + 1/4 and N + 3/4 with 16 integer digits need an 18th digit 5
    quarters = 1e15 + np.arange(1, 2000) * 12345.0 + np.array([0.25, 0.75])[:, None]
    ties = quarters.ravel()
    assert all(Fraction(v) * 4 % 2 == 1 for v in ties.tolist())
    assert_cells(ties)


def test_powers_of_ten_and_their_neighbours():
    powers = np.array([float(f"1e{k}") for k in range(-323, 309)])
    assert_cells(powers)
    assert_cells(np.nextafter(powers, 0.0))
    assert_cells(np.nextafter(powers, np.inf))
    # a power of two near each power of ten, and a few digits on it
    assert_cells(np.ldexp(1.0, np.arange(-1074, 1024)))
    assert_cells(powers * 1.2345678901234567)


@pytest.mark.parametrize("edge", [1e-5, 1e-4, 1e16, 1e17])
def test_switches_between_fixed_and_exponent_form(edge):
    near = [edge]
    for _ in range(4):
        near = [np.nextafter(near[0], 0.0), *near, np.nextafter(near[-1], np.inf)]
    # 17-digit values that round up to the edge, and just above it
    near += [edge * (1 - 4e-17), edge * (1 - 6e-17), edge * (1 + 1e-16), edge * 9.99999999999999]
    assert_cells(near)


def test_three_digit_exponents_and_the_ends_of_the_range():
    assert_cells(
        [
            1e100,
            9.999999999999999e99,
            1e-100,
            1.0000000000000001e-99,
            1.7976931348623157e308,
            2.2250738585072014e-308,
            2.2250738585072009e-308,
            5e-324,
            1e-320,
            1.9e-315,
            123456789.0e-200,
            0.1,
            1.0,
            0.0,
        ]
    )
    assert cli._chunk_text((np.array([1.7976931348623157e308, 5e-324]),)) == [
        "1.7976931348623157e+308\n4.9406564584124654e-324"
    ]


def test_rows_with_cells_python_prints_keep_their_other_cells():
    columns = (
        np.array([np.nan, 1.5, 0.1, -np.inf]),
        np.array([1000000000000000.25, -0.0, np.inf, 2.5]),
        np.array([3.0, -np.nan, 1e-300, 7e22]),
    )
    assert "\n".join(cli._chunk_text(columns)) == expected(columns)


def test_a_block_of_many_rows():
    rng = np.random.default_rng(20)
    rows = 5000
    columns = (
        rng.integers(0, 2**64, rows, dtype=np.uint64).view(np.float64),
        rng.standard_normal(rows) * 10.0 ** rng.integers(-320, 300, rows),
        rng.random(rows),
        np.where(rng.random(rows) < 0.5, 0.0, -0.0),
        np.full(rows, 0.4),
        np.arange(rows) * (np.pi / 20),
    )
    assert rows > cli._FORMAT_CELLS
    assert "\n".join(cli._chunk_text(columns)) == expected(columns)


@pytest.mark.parametrize("cell", [np.nan, np.inf, -np.inf, 1000000000000000.25])
def test_cells_python_prints_at_the_ends_of_a_block(cell):
    # a block is split into rows only when it holds such a cell; the first
    # and the last row border on the neighbouring blocks' text
    rng = np.random.default_rng(7)
    rows = cli._FORMAT_CELLS // 9
    block = rng.standard_normal((rows, 9)) * 10.0 ** rng.integers(-30, 30, (rows, 9))
    for where in ([0], [rows - 1], [0, rows - 1]):
        marked = block.copy()
        marked[where, 4] = cell
        assert cli._format_rows(marked) == expected(tuple(marked.T))
    one_row = np.array([[cell, 1.5, -0.0]])
    assert cli._format_rows(one_row) == expected(tuple(one_row.T))


@pytest.mark.parametrize("cols", [1, 9])
def test_cells_python_prints_in_two_blocks_of_one_chunk(cols):
    step = cli._FORMAT_CELLS // cols
    rows = 3 * step + 5
    column = np.arange(rows * cols) * (np.pi / 20)
    block = column.reshape(rows, cols)
    assert block.size > cli._FORMAT_CELLS
    # first and last rows of the first block, first row of the second, the
    # last row of the chunk (the last row of a short last block)
    marks = {0: np.nan, step - 1: np.inf, step: -np.inf, rows - 1: 1000000000000000.75}
    for row, cell in marks.items():
        block[row, cols - 1] = cell
    columns = tuple(np.ascontiguousarray(block[:, j]) for j in range(cols))
    texts = cli._chunk_text(columns)
    assert [t.count("\n") + 1 for t in texts] == [step, step, step, 5]
    assert "\n".join(texts) == expected(columns)


def test_power_table_is_exact_to_2_to_the_minus_105():
    # the premise of the error bound above cli._POW10_K_MIN: every row's
    # hi + lo lies within 2^-105 of 10^k 2^-s, and hi splits exactly
    hi_high, hi_low, hi, lo, scale = cli._format_tables().pow10
    for row in range(cli._POW10_K_COUNT):
        k = cli._POW10_K_MIN + row
        exact = Fraction(10) ** k / Fraction(scale[row])
        error = exact - Fraction(hi[row]) - Fraction(lo[row])
        assert abs(error) <= exact / 2**105, k
        assert abs(lo[row]) < hi[row] / 2**52
        assert Fraction(hi_high[row]) + Fraction(hi_low[row]) == Fraction(hi[row])

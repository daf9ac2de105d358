import math

import numpy as np
from hypothesis import given, settings, strategies as st

from ngonspec import floattext


def reference(values):
    return ["%.17g" % v for v in np.asarray(values, dtype=float).tolist()]


def g17(values):
    """The text of each row of floattext.g17 as a list of str, the form it
    returned before it returned the matrix."""
    return [row.tobytes().replace(b"\0", b"").decode()
            for row in floattext.g17(values)]


def assert_rows_match(rows, texts):
    """A zero-padded uint8 matrix holds one text per row, in order, and
    holds them all one after another once its zero bytes are dropped."""
    assert rows.dtype == np.uint8 and rows.shape[0] == len(texts)
    assert [row.tobytes().replace(b"\0", b"") for row in rows] == texts
    assert rows.tobytes().translate(None, b"\0") == b"".join(texts)


def assert_same(values):
    values = np.asarray(values, dtype=float)
    assert g17(values) == reference(values)
    rows = floattext.g17(values)
    assert rows.shape[1] >= floattext.WIDTH
    assert_rows_match(rows, [("%.17g" % v).encode() for v in values.tolist()])


PROPERTY = settings(derandomize=True, database=None, deadline=None,
                    max_examples=300)


@PROPERTY
@given(st.lists(st.floats(min_value=floattext.LOW, max_value=floattext.HIGH),
                max_size=40))
def test_values_in_range_match_the_format_operator(values):
    assert_same(values)


@PROPERTY
@given(st.lists(st.floats(), max_size=40))
def test_any_value_matches_the_format_operator(values):
    assert_same(values)


def test_seeded_samples_match_the_format_operator():
    rng = np.random.default_rng(17)
    assert_same(rng.uniform(floattext.LOW, floattext.HIGH, 100_000))
    assert_same(10.0 ** rng.uniform(-4.0, math.log10(2.0), 100_000))
    # every mantissa bit pattern density: integers over 2**52 in (0, 1)
    assert_same(rng.integers(1, 2 ** 52, 50_000) * 2.0 ** -52)
    # negative values in range take the same digits after a sign
    assert_same(-rng.uniform(floattext.LOW, floattext.HIGH, 100_000))


def test_ties_round_to_even():
    # 1 + j 2**-17 has 18 significant digits ending in 5: a tie at 17
    ties = [1.0 + j * 2.0 ** -17 for j in range(1, 400, 2)]
    ties += [0.5 + j * 2.0 ** -18 for j in range(1, 400, 2)]
    assert "%.17g" % (1.0 + 2.0 ** -17) == "1.0000076293945312"
    assert_same(ties)


def test_range_ends_and_powers_of_ten():
    edges = [floattext.LOW, floattext.HIGH, 1.0, 0.5, 0.1, 0.01, 0.001,
             2.0 ** -13, 1.5, 0.75]
    values = [np.nextafter(v, side) for v in edges for side in (0.0, 3.0)]
    assert_same(edges + values)
    assert g17(np.array([1.0, 2.0, 1e-4, 0.1])) \
        == ["1", "2", "0.0001", "0.10000000000000001"]


def test_values_outside_the_range_and_empty_input():
    assert_same([0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, 1e308,
                 -1.5, 2.5, 9.9999999999999e-5, 10.0])
    assert g17(np.empty(0)) == []
    assert floattext.g17(np.empty(0)).shape == (0, floattext.WIDTH)
    # "-2.2250738585072014e-308" is the longest text a float64 has
    assert floattext.g17(np.array([0.5, -2.2250738585072014e-308])).shape \
        == (2, 24)


def test_short_texts_outside_the_range_fill_their_rows():
    # Each value outside the range is written over the text of a value in
    # range; "0" and "3" are shorter than that text.
    assert_same([0.5, 0.0, -0.5, 3.0, 10.0, -0.0, 1.25])
    assert_same([-1.0, 0.0])


def assert_decimal(ints):
    ints = np.asarray(ints, dtype=np.int64)
    assert_rows_match(floattext.decimal(ints),
                      [str(i).encode() for i in ints.tolist()])


@PROPERTY
@given(st.lists(st.integers(-(2 ** 63), 2 ** 63 - 1), max_size=40))
def test_decimal_matches_str(ints):
    assert_decimal(ints)


def test_decimal_at_powers_of_ten_and_the_int64_ends():
    powers = [10 ** k for k in range(19)]
    edges = [0, -(2 ** 63), 2 ** 63 - 1, *powers,
             *(p - 1 for p in powers), *(-p for p in powers)]
    assert_decimal(edges)
    assert_decimal([7] * 5)
    assert floattext.decimal(np.empty(0, dtype=np.int64)).shape[0] == 0

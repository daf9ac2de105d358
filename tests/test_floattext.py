import math

import numpy as np
from hypothesis import given, settings, strategies as st

from ngonspec import floattext


def reference(values):
    return ["%.17g" % v for v in np.asarray(values, dtype=float).tolist()]


def assert_same(values):
    values = np.asarray(values, dtype=float)
    assert floattext.g17(values) == reference(values)


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
    assert floattext.g17(np.array([1.0, 2.0, 1e-4, 0.1])) \
        == ["1", "2", "0.0001", "0.10000000000000001"]


def test_values_outside_the_range_and_empty_input():
    assert_same([0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, 1e308,
                 -1.5, 2.5, 9.9999999999999e-5, 10.0])
    assert floattext.g17(np.empty(0)) == []

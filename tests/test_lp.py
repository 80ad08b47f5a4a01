"""The exact simplex behind rationalize.

Bland's rule breaks ties in the ratio test by the smallest basic index; the
degenerate case below has two rows at the same ratio, and the optimum it
reaches depends on that rule.
"""

from fractions import Fraction as Fr

from toricval import fe
from toricval.lp import OPTIMAL, solve_min


def test_ratio_tie_broken_by_smallest_basic_index():
    # the ratio test meets a tie; leaving by the later row (the rule
    # written as `ratio <= best`) ends at x = (0, 0, 1, 0) instead
    status, x, value = solve_min([[2, 2, 1, 0], [0, 2, 1, 1]], [1, 1], [0, 2, -1, -1])
    assert status == OPTIMAL
    assert x == [fe(Fr(1, 2)), fe(0), fe(0), fe(1)]
    assert value == fe(-1)

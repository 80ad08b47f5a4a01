"""Exact two-phase simplex over the ordered field.

Solves  minimize c.x  subject to  A x = b, x >= 0  with Bland's rule, so it
terminates without any cycling guard.  The tableau holds only the constraint
data; costs enter through reduced-cost computation, which lets the constraint
matrix stay rational even when the objective has irrational coefficients.
That split is what makes the returned basic solutions rational whenever A and
b are.
"""

from __future__ import annotations

from .ordfield import FE_ONE, FE_ZERO, as_fe

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


def _pivot(tab, basis, row, col):
    piv = tab[row][col]
    tab[row] = [x / piv for x in tab[row]]
    prow = tab[row]
    for i, other in enumerate(tab):
        if i != row and other[col]:
            t = other[col]
            tab[i] = [x - t * y for x, y in zip(other, prow)]
    basis[row] = col


def _run_phase(tab, basis, costs, ncols):
    m = len(tab)
    while True:
        in_basis = set(basis)
        enter = None
        for j in range(ncols):
            if j in in_basis:
                continue
            rj = costs[j]
            for i in range(m):
                cb = costs[basis[i]]
                if cb and tab[i][j]:
                    rj = rj - cb * tab[i][j]
            if rj.sign() < 0:
                enter = j  # Bland: smallest improving index
                break
        if enter is None:
            return OPTIMAL
        leave = None
        best = None
        for i in range(m):
            coef = tab[i][enter]
            if coef.sign() > 0:
                ratio = tab[i][-1] / coef
                if (
                    best is None
                    or ratio < best
                    or (ratio == best and basis[i] < basis[leave])
                ):
                    best = ratio
                    leave = i
        if leave is None:
            return UNBOUNDED
        _pivot(tab, basis, leave, enter)


def solve_min(A, b, costs):
    """(status, x, value) for min costs.x s.t. A x = b, x >= 0.

    A: list of rows of field elements (rational entries expected when exact
    rational output matters); b: right-hand sides; costs: field elements.
    """
    m = len(A)
    k = len(costs)
    tab = []
    for row, rhs in zip(A, b):
        row = [as_fe(x) for x in row] + [as_fe(rhs)]
        if row[-1].sign() < 0:
            row = [-x for x in row]
        tab.append(row)

    # phase 1: artificial variable per row
    for i in range(m):
        art = [FE_ZERO] * m
        art[i] = FE_ONE
        tab[i] = tab[i][:-1] + art + [tab[i][-1]]
    basis = [k + i for i in range(m)]
    phase1_costs = [FE_ZERO] * k + [FE_ONE] * m
    status = _run_phase(tab, basis, phase1_costs, k + m)
    if status != OPTIMAL:  # phase 1 is bounded below by 0
        raise AssertionError(f"phase 1 ended {status}")
    total = FE_ZERO
    for i in range(m):
        if basis[i] >= k:
            total = total + tab[i][-1]
    if total.sign() > 0:
        return INFEASIBLE, None, None

    # drive leftover artificials out of the basis, dropping redundant rows
    drop = []
    for i in range(m):
        if basis[i] >= k:
            col = next((j for j in range(k) if tab[i][j]), None)
            if col is None:
                drop.append(i)
            else:
                _pivot(tab, basis, i, col)
    for i in sorted(drop, reverse=True):
        del tab[i]
        del basis[i]

    # phase 2 on the original columns
    tab = [row[:k] + [row[-1]] for row in tab]
    costs = [as_fe(c) for c in costs]
    status = _run_phase(tab, basis, costs, k)
    if status == UNBOUNDED:
        return UNBOUNDED, None, None

    x = [FE_ZERO] * k
    for i, bi in enumerate(basis):
        x[bi] = tab[i][-1]
    value = FE_ZERO
    for cj, xj in zip(costs, x):
        if cj and xj:
            value = value + cj * xj
    return OPTIMAL, x, value

"""Per-operation cost of the scalar field: Q add and mul, Q(sqrt(2)) mul and sign.

Operands are seeded; each figure is the median over several timed sweeps of
the nanoseconds per operation, loop overhead included.
"""

from __future__ import annotations

import random
import statistics
from fractions import Fraction as F
from time import perf_counter

SIZE = 2000
SWEEPS = 7


def _rat(rng):
    return F(rng.randint(-999, 999), rng.randint(1, 999))


def _per_op_ns(fn, items):
    times = []
    for _ in range(SWEEPS):
        t0 = perf_counter()
        fn(items)
        times.append(perf_counter() - t0)
    return statistics.median(times) / len(items) * 1e9


def _add(pairs):
    for x, y in pairs:
        x + y


def _mul(pairs):
    for x, y in pairs:
        x * y


def _sign(xs):
    for x in xs:
        x.sign()


def field_metrics(seed):
    from toricval.ordfield import FieldElement

    rng = random.Random(f"field:{seed}")
    q = [(FieldElement(_rat(rng)), FieldElement(_rat(rng))) for _ in range(SIZE)]
    s2 = [(FieldElement(_rat(rng), _rat(rng), 2), FieldElement(_rat(rng), _rat(rng), 2))
          for _ in range(SIZE)]
    # opposite signs of p and q force the exact p^2 against 2 q^2 comparison
    mixed = []
    for _ in range(SIZE):
        p, qq = abs(_rat(rng)) or F(1), abs(_rat(rng)) or F(1)
        mixed.append(FieldElement(p, -qq, 2) if rng.random() < 0.5 else FieldElement(-p, qq, 2))
    return {
        "field.q_add_ns": _per_op_ns(_add, q),
        "field.q_mul_ns": _per_op_ns(_mul, q),
        "field.s2_mul_ns": _per_op_ns(_mul, s2),
        "field.s2_sign_ns": _per_op_ns(_sign, mixed),
    }

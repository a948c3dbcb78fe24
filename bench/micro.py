"""Layer microbenchmarks on the fields and overlap classes of a workload.

Fixed seeds, a warm-up round, then ROUNDS timed rounds; each metric is the
median round's time per operation, reported with the operation count.

- numberfield.mul_ns: product of two field elements with small rational
  coordinates, like tile positions.
- numberfield.sign_fast_us: sign of a fresh, well-separated element, which
  pays for its first rigorous approximation.
- numberfield.sign_exact_us: sign of an element within 2^-60 of 0, which
  the approximation cannot separate, so it takes the exact refinement.  Each
  element gets its own copy of the field, so every operation starts from the
  same first 2^-80 enclosure.
- numberfield.fast_cmp_ns: comparison of two elements whose approximations
  are already cached.
- overlap.inflate_class_us: inflation of one overlap class taken from the
  workload's own overlap graphs or strong-coincidence pair classes.
"""

from __future__ import annotations

import copy
import random
import statistics
from fractions import Fraction
from time import perf_counter

ROUNDS = 5
MAX_FIELDS = 6
MICRO_SEED = 20150915


def _timed(op, items) -> float:
    """Seconds for one pass of op over items (the result is consumed)."""
    t = perf_counter()
    for it in items:
        op(it)
    return perf_counter() - t


def _per_op(op, make_items, scale) -> tuple[float, int]:
    """Median-round time per operation (in 1/scale seconds) and the op count."""
    _timed(op, make_items())  # warm-up
    rounds, count = [], 0
    for _ in range(ROUNDS):
        items = make_items()
        rounds.append(_timed(op, items) / len(items))
        count += len(items)
    return statistics.median(rounds) * scale, count


def _eval_at(coeffs, x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


NUMBERFIELD_METRICS = ("numberfield.mul_ns", "numberfield.sign_fast_us",
                       "numberfield.sign_exact_us", "numberfield.fast_cmp_ns")


def numberfield_micro(substitutions) -> tuple[dict, dict, dict]:
    """(metrics, operation counts, absent metrics) over the fields of the
    given substitutions."""
    from pisotile import numberfield
    from pisotile.substitution import matrix, perron_data

    fields, seen = {}, set()
    for s in sorted(substitutions, key=lambda s: (s.m, s.rules)):
        M = tuple(map(tuple, matrix(s)))
        if M in seen or len(fields) >= MAX_FIELDS:
            continue
        seen.add(M)
        field = perron_data(s)[0]
        fields.setdefault(field.min_poly, field)
    fields = list(fields.values())
    rng = random.Random(MICRO_SEED)
    first = Fraction(1, 2**80)
    for f in fields:
        f.enclosure(first)

    def small(f):
        return f.element([Fraction(rng.randint(-40, 40), rng.randint(1, 6)) for _ in range(f.degree)])

    def mul_items():
        return [(a, b) for f in fields for a, b in ((small(f), small(f)) for _ in range(400))]

    def separated(f):
        while True:
            coeffs = [rng.randint(-20, 20) for _ in range(f.degree)]
            if abs(float(f.element(coeffs))) > 1e-3:
                return f.element(coeffs)  # a fresh object: no cached approximation

    def fast_items():
        return [separated(f) for f in fields for _ in range(100)]

    deep = [f for f in fields if f.degree >= 2]

    def near_zero(f):
        # y with large irrational part; r its value to far below 2^-60.
        ys = [0] + [rng.choice((-1, 1)) * rng.randint(2**20, 2**30) for _ in range(f.degree - 1)]
        probe = copy.copy(f)
        lo, hi = probe.enclosure(Fraction(1, 2**110))
        r = _eval_at([Fraction(c) for c in ys], (lo + hi) / 2)
        own = copy.copy(f)
        return own.element([-r] + ys[1:])

    def exact_items():
        return [near_zero(f) for f in deep for _ in range(20)]

    def cmp_items():
        items = []
        for f in fields:
            for _ in range(500):
                a, b = separated(f), separated(f)
                float(a), float(b)
                items.append((a, b))
        return items

    metrics, details, absent = {}, {}, {}
    ns, n = _per_op(lambda ab: ab[0] * ab[1], mul_items, 1e9)
    metrics["numberfield.mul_ns"], details["numberfield.mul_ns"] = ns, n
    us, n = _per_op(lambda x: x.sign(), fast_items, 1e6)
    metrics["numberfield.sign_fast_us"], details["numberfield.sign_fast_us"] = us, n
    if deep:
        us, n = _per_op(lambda x: x.sign(), exact_items, 1e6)
        metrics["numberfield.sign_exact_us"], details["numberfield.sign_exact_us"] = us, n
    else:
        absent["numberfield.sign_exact_us"] = "no field of degree >= 2 in this workload"
    fast_cmp = getattr(numberfield, "fast_cmp", None)
    if fast_cmp is not None:
        ns, n = _per_op(lambda ab: fast_cmp(ab[0], ab[1]), cmp_items, 1e9)
        metrics["numberfield.fast_cmp_ns"], details["numberfield.fast_cmp_ns"] = ns, n
    else:
        absent["numberfield.fast_cmp_ns"] = "pisotile.numberfield.fast_cmp not found"
    details["fields"] = [list(f.min_poly) for f in fields]
    return metrics, details, absent


def inflate_class_micro(classes, control_points) -> tuple[dict, dict, dict]:
    """Per-call time of pisotile.overlap.inflate_class on workload classes."""
    from pisotile import overlap

    inflate = getattr(overlap, "inflate_class", None)
    if inflate is None:
        return {}, {}, {"overlap.inflate_class_us": "pisotile.overlap.inflate_class not found"}
    sample = list(classes)
    for system, cp in control_points:
        for i in range(len(cp.c)):
            for j in range(len(cp.c)):
                if i != j:
                    sample.append((system, overlap.OverlapClass(i + 1, j + 1, cp.c[i] - cp.c[j])))
    if not sample:
        return {}, {}, {"overlap.inflate_class_us": "no overlap classes in this workload"}
    rng = random.Random(MICRO_SEED)
    sample = rng.sample(sample, min(len(sample), 48))
    us, n = _per_op(lambda sc: inflate(sc[0], sc[1]), lambda: sample, 1e6)
    return {"overlap.inflate_class_us": us}, {"overlap.inflate_class_us": n}, {}

"""Exact arithmetic in the field of the expansion factor."""

import copy
import json
import math
import os
import pathlib
import random
import subprocess
import sys
from fractions import Fraction

import mpmath
import pytest

from conftest import CORPUS_RULES, CUBIC_RULES
from oracles import RationalField
from pisotile import NumberField, Substitution, fast_cmp, perron_data
from pisotile.algebra import perron_minimal_polynomial

GOLDEN = ((-1, -1, 1), (Fraction(1), Fraction(2)))
CUBIC = ((-1, -1, -1, 1), (Fraction(1), Fraction(2)))


@pytest.fixture(scope="module")
def golden():
    return NumberField(*GOLDEN)


@pytest.fixture(scope="module")
def cubic():
    return NumberField(*CUBIC)


def rand_elem(field, rng, bound=20):
    return field.element(
        [Fraction(rng.randint(-bound, bound), rng.randint(1, 7)) for _ in range(field.degree)]
    )


def test_defining_relation(golden, cubic):
    b = golden.beta()
    assert b * b == b + golden.one()
    c = cubic.beta()
    assert c**3 == c**2 + c + cubic.one()


def test_field_axioms_sample(golden, cubic):
    rng = random.Random(7)
    for field in (golden, cubic):
        for _ in range(300):
            a, b, c = (rand_elem(field, rng) for _ in range(3))
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a + b == b + a
            assert a * b == b * a
            assert a - a == field.zero()
            if not a.is_zero():
                assert a * (field.one() / a) == field.one()


def test_exact_zero_sign(golden):
    b = golden.beta()
    # beta - 1 - 1/beta == 0 exactly in the golden field.
    x = b - golden.one() - golden.one() / b
    assert x.sign() == 0
    assert x.is_zero()


def test_sign_near_zero(golden):
    b = golden.beta()
    eps = golden.from_rational(Fraction(1, 10**30))
    x = b - golden.one() - golden.one() / b + eps
    assert x.sign() == 1
    assert (x - eps - eps).sign() == -1


def test_sign_matches_mpmath(golden, cubic):
    rng = random.Random(11)
    mpmath.mp.dps = 100
    roots = {
        golden: (mpmath.mpf(1) + mpmath.sqrt(5)) / 2,
        cubic: mpmath.findroot(lambda x: x**3 - x**2 - x - 1, 1.8),
    }
    for field, root in roots.items():
        for _ in range(200):
            a = rand_elem(field, rng)
            num = sum(
                mpmath.mpf(c.numerator) / c.denominator * root**k
                for k, c in enumerate(a.coeffs)
            )
            expected = 0 if num == 0 else (1 if num > 0 else -1)
            assert a.sign() == expected


def test_fast_cmp_agrees(golden, cubic):
    rng = random.Random(13)
    for field in (golden, cubic):
        for _ in range(300):
            a, b = rand_elem(field, rng), rand_elem(field, rng)
            assert fast_cmp(a, b) == (a - b).sign()
        a = rand_elem(field, rng)
        assert fast_cmp(a, a) == 0


def _reference(field, x):
    """(sign, value) of x by mpmath at 200 digits beyond its coordinates' size."""
    if x.is_zero():
        return 0, mpmath.mpf(0)
    digits = max(len(str(abs(c.numerator))) + len(str(c.denominator)) for c in x.coeffs)
    with mpmath.workdps(200 + digits):
        poly = [mpmath.mpf(c) for c in reversed(field.min_poly)]
        lo, _ = field.enclosure(Fraction(1, 2**80))
        start = mpmath.mpf(lo.numerator) / lo.denominator
        root = mpmath.findroot(lambda t: mpmath.polyval(poly, t), start)
        v = sum(mpmath.mpf(c.numerator) / c.denominator * root**k for k, c in enumerate(x.coeffs))
    return (1 if v > 0 else -1), v


def _adversarial_pairs(field, rng):
    """Pairs (a, b) that the float fast path cannot or must not separate."""
    zero = field.zero()
    pairs = []
    for scale in (2**20, 2**30, 2**50):
        for _ in range(20):
            # x within 2^-64 of 0, with an irrational part of size about scale.
            ys = [0] + [rng.choice((-1, 1)) * rng.randint(scale // 2, scale)
                        for _ in range(field.degree - 1)]
            v = _reference(field, field.element(ys))[1]
            x = field.element([-Fraction(int(mpmath.nint(v * 2**64)), 2**64)] + ys[1:])
            a = rand_elem(field, rng)
            pairs += [(x, zero), (a, a + x)]
    huge = 10**400
    for _ in range(20):
        # Coordinates whose float conversion overflows.
        big = field.element([rng.randint(-huge, huge) for _ in range(field.degree)])
        pairs.append((big, rand_elem(field, rng)))
        if field.degree > 1:
            n = rng.randint(huge, 2 * huge)
            m = int(mpmath.nint(_reference(field, field.element([0, n]))[1]))
            pairs.append((field.element([-m + rng.randint(-1, 1), n]), field.one()))
        # Subnormal-sized coordinates.
        tiny = rand_elem(field, rng) * Fraction(1, 2**1070)
        pairs += [(tiny, zero), (tiny, tiny + tiny * Fraction(1, 2**60))]
    return pairs


@pytest.mark.parametrize("poly, interval", [
    GOLDEN, CUBIC, ((2, -4, 1), (Fraction(3), Fraction(4))),  # 2 + sqrt 2, not a unit
])
def test_fast_path_adversarial(poly, interval):
    field = NumberField(poly, interval)
    if poly == GOLDEN[0]:
        # (F_1901 + 1) - F_1900 beta = 1 + (-1/beta)^1900, whose coordinates
        # overflow a float: float() must give 1.0 on the fresh field and
        # after sign() has refined it.
        fib = [0, 1]
        while len(fib) < 1902:
            fib.append(fib[-1] + fib[-2])
        x = field.element([fib[1901] + 1, -fib[1900]])
        fresh = float(x)
        assert x.sign() == 1
        assert fresh == float(x) == 1.0
    abstained = 0
    for a, b in _adversarial_pairs(field, random.Random(17)):
        for x in (a, b, a - b):
            expected, value = _reference(field, x)
            # The field's one enclosure, on the element's (D, v).
            mid, err = field.floats(x.v, x.den)
            if err == float("inf"):
                abstained += 1
            else:
                assert max(map(abs, x.v)) < 2**1024 and x.den < 2**1024
                with mpmath.workdps(60):
                    assert abs(value - mid) <= err
            assert x.sign() == expected
            assert field.element(x.coeffs).sign() == expected
        assert fast_cmp(a, b) == _reference(field, a - b)[0]
    assert abstained


ROADMAP_RULES = [((2,), (3,), (1, 2)), ((1, 1, 1, 2), (1, 2)), ((2, 3, 1), (1, 2), (2,)),
                 ((1, 3, 2), (3, 3), (3, 1))]
QUARTIC_RULES = ((1, 3, 4, 4), (2, 1, 2), (2, 2, 4, 1), (2,))  # a unit of degree 4


def _rational(rng, kind):
    """A random coordinate: small, a huge numerator over a huge
    denominator, or of subnormal size."""
    if kind == "mixed":
        kind = rng.choice(("small", "huge", "tiny"))
    if kind == "small":
        return Fraction(rng.randint(-30, 30), rng.randint(1, 9))
    if kind == "huge":
        return Fraction(rng.randint(-10**400, 10**400), rng.randint(10**395, 10**396))
    return Fraction(rng.randint(-50, 50), 2**1070 * rng.randint(1, 9))


def _float_or_overflow(f, x):
    try:
        return f(x)
    except OverflowError:
        return "overflow"


def test_arithmetic_matches_fraction_reference():
    # Integer vectors over a denominator against the Fraction-vector
    # arithmetic of tests/oracles.py, on the fields of the corpus, the
    # cubic-closure and ROADMAP inputs and a quartic: sums, products,
    # inverses, powers, signs, floats, equality and hashing.
    rule_sets = [rules for _, rules in CORPUS_RULES.values()]
    rule_sets += [rules for _, rules in CUBIC_RULES.values()] + ROADMAP_RULES + [QUARTIC_RULES]
    fields = {}
    for rules in rule_sets:
        field = perron_data(Substitution(len(rules), rules))[0]
        fields.setdefault(field.min_poly, field)
    assert sorted({f.degree for f in fields.values()}) == [1, 2, 3, 4]
    rng = random.Random(23)
    for field in fields.values():
        lo, hi = field.enclosure(Fraction(1, 2**80))
        ref = RationalField(field.min_poly, lo, hi)
        for trial in range(8):
            kind = ("small", "huge", "tiny", "mixed")[trial % 4]
            ac, bc = (tuple(_rational(rng, kind) for _ in range(field.degree)) for _ in "ab")
            a, b = field.element(ac), field.element(bc)
            assert (a.coeffs, b.coeffs) == (ac, bc)
            assert math.gcd(a.den, *a.v) == 1 and a.den > 0
            assert (a + b).coeffs == ref.add(ac, bc)
            assert (a - b).coeffs == ref.sub(ac, bc)
            assert (a * b).coeffs == ref.mul(ac, bc)
            for n in (-2, -1, 0, 1, 3) if kind == "small" else (-1, 2):
                if n >= 0 or any(ac):
                    assert (a**n).coeffs == ref.pow(ac, n), (kind, n)
            if any(bc):
                assert (a / b).coeffs == ref.mul(ac, ref.inverse(bc))
            for x, xc in ((a, ac), (a - b, ref.sub(ac, bc)), (a * b, ref.mul(ac, bc))):
                assert x.sign() == ref.sign(xc)
                got, want = _float_or_overflow(float, x), _float_or_overflow(ref.float, xc)
                if "overflow" in (got, want):
                    assert got == want
                else:
                    assert abs(got - want) <= abs(want) * 2**-39 + 2**-1074
            # Equal elements made apart are equal and hash alike.
            again = (a + b) - b
            assert again == a and hash(again) == hash(a) and again is not a
            assert (a == b) == (ac == bc)
            assert len({a, again, field.element(ac)}) == 1
            assert a + 1 != a and a == field.element(list(ac))


def test_comparison_operators(golden):
    b = golden.beta()
    assert golden.one() < b < golden.from_rational(2)
    assert b >= b


def test_float_and_hash(golden):
    b = golden.beta()
    assert abs(float(b) - 1.618033988749895) < 1e-12
    assert hash(b) == hash(golden.beta())
    assert b != golden.one()


def test_is_pisot_cases():
    # The Pisot gate on the largest real root, and, when Pisot, the field
    # built on the span it returns with its disk stream: that field's beta
    # is the root.
    cases = [
        ((-1, -1, 1), True),  # golden
        ((-1, -1, -1, 1), True),  # tribonacci cubic
        ((1, -3, 1), True),  # (3+sqrt5)/2
        ((-4, -4, 1), True),  # 2 + 2 sqrt(2), not a unit
        ((-2, 1), True),  # rational beta = 2
        ((-1, 1), False),  # beta = 1
        ((-3, -1, 1), False),  # conjugate (1 - sqrt13)/2 < -1
        # Self-reciprocal of degree >= 3: roots pair (r, 1/r), never Pisot.
        ((1, -1, -1, -1, 1), False),
        # The largest real root lies in (0, 1); the negative one below -1
        # has its conjugates in the unit disk, but is not > 1.
        ((-1, 0, 3, 1), False),
    ]
    for coeffs, pisot in cases:
        q, lo, hi, verdict, disks = perron_minimal_polynomial(list(coeffs))
        assert (tuple(q), verdict) == (coeffs, pisot), coeffs
        if not pisot:
            continue
        assert lo >= 1, coeffs
        beta = max(r.real for r in mpmath.polyroots(list(reversed(coeffs)), extraprec=40)
                   if abs(r.imag) < 1e-20)
        field = NumberField(q, (lo, hi), disks)
        assert abs(float(field.beta()) - float(beta)) < 1e-12, coeffs
    # The golden polynomial has no root in (2, 3).
    with pytest.raises(ValueError):
        NumberField((-1, -1, 1), (Fraction(2), Fraction(3)))


def test_field_validation():
    with pytest.raises(ValueError):
        NumberField((-1, 0, 1), (Fraction(1), Fraction(2)))  # x^2-1 reducible
    with pytest.raises(ValueError):
        NumberField((-1, -1, 1), (Fraction(0), Fraction(1, 2)))  # no root inside


_POINT_FIELDS = """
from fractions import Fraction
from pisotile import NumberField
for beta in (2, 3):
    field = NumberField((-beta, 1), (beta, beta))
    assert field.enclosure(Fraction(1, 2**100)) == (beta, beta)
    assert field.exact_sign((1,)) == 1
"""


def test_degree_one_field_on_a_point_interval():
    # The interval [beta, beta] of x - beta is its exact root, and the field
    # returns at once; in a subprocess, so that a hang fails at the timeout.
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(pathlib.Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH", "")]))
    subprocess.run([sys.executable, "-c", _POINT_FIELDS], env=env, timeout=10, check=True)


def test_copies_refine_on_their_own():
    # 40 copies of one field refined in turn to 2^-400 share the disks'
    # spans but not their place in them: none runs out of disks, each
    # copy's enclosures are nested and alike, and the original stays put.
    field = NumberField(*CUBIC)
    start = field._lo, field._hi
    copies = [copy.copy(field) for _ in range(40)]
    seen = [[(c._lo, c._hi)] for c in copies]
    while any(hi - lo > Fraction(1, 2**400) for lo, hi in (s[-1] for s in seen)):
        for c, s in zip(copies, seen):
            c.refine()
            s.append((c._lo, c._hi))
    for s in seen:
        assert s == seen[0]
        assert all(olo <= ilo < ihi <= ohi for (olo, ohi), (ilo, ihi) in zip(s, s[1:]))
    assert (field._lo, field._hi) == start
    assert field.enclosure(Fraction(1, 2**400)) == seen[0][-1]


def test_refinement_limit_is_a_cap(monkeypatch):
    # F_1901 - F_1900 beta = beta^-1900 > 0 needs beta to about 2^-2640:
    # past a grid of 2^-1024 the disks raise the cap error, again on the
    # next call (never StopIteration), and within 2^-8192 the sign is found.
    # analyze exits 3 when the field cannot reach its first 2^-80.
    from pisotile import algebra
    from pisotile.cli import main

    fib = [0, 1]
    while len(fib) < 1902:
        fib.append(fib[-1] + fib[-2])
    w = (fib[1901], -fib[1900])
    assert NumberField(*GOLDEN).exact_sign(w) == 1
    monkeypatch.setattr(algebra, "_MAX_BITS", 1024)
    field = NumberField(*GOLDEN)
    for _ in range(2):
        with pytest.raises(algebra.CapExceededError):
            field.exact_sign(w)
    monkeypatch.setattr(algebra, "_MAX_BITS", 64)
    golden = json.dumps({"alphabet": ["1", "2"], "rules": {"1": ["1", "2"], "2": ["1"]}})
    assert main(["analyze", golden]) == 3


def test_interval_refinement(golden):
    lo, hi = golden.enclosure(Fraction(1, 10**12))
    assert hi - lo <= Fraction(1, 10**12)
    assert lo > Fraction(1618033988749, 10**12)
    assert hi < Fraction(1618033988750, 10**12)

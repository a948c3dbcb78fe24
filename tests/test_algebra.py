"""The standard-library algebra kernel against sympy and mpmath as oracles."""

import json
import pathlib
import random
from fractions import Fraction

import mpmath
import pytest
from sympy import Matrix, Poly, Symbol, minimal_polynomial
from sympy.matrices.normalforms import hermite_normal_form

from conftest import CORPUS_RULES, CUBIC_RULES, near_circle
from oracles import perron_equals_reference
from pisotile import NumberField, Substitution, is_irreducible, is_primitive, perron_equals
from pisotile.algebra import (
    adjugate,
    char_poly,
    conjugate_disks,
    count_roots,
    hnf,
    perron_minimal_polynomial,
    squarefree,
)
from pisotile.substitution import NotPisotError, matrix, perron_data

_X = Symbol("x")
BENCH = pathlib.Path(__file__).resolve().parent.parent / "bench"


def _poly(coeffs):
    return Poly(list(reversed(coeffs)), _X)


def _fraction(r):
    return Fraction(int(r.p), int(r.q))


def test_char_poly_matches_sympy():
    rng = random.Random(5)
    for n in (2, 3, 4):
        for _ in range(40):
            M = [[rng.randint(0, 3) for _ in range(n)] for _ in range(n)]
            assert char_poly(M) == [int(c) for c in reversed(Matrix(M).charpoly(_X).all_coeffs())], M


def test_adjugate_matches_sympy():
    rng = random.Random(6)
    for _ in range(100):
        d = rng.randint(1, 4)
        M = [[rng.randint(-5, 5) for _ in range(d)] for _ in range(d)]
        adj, det = adjugate(M)
        assert det == Matrix(M).det() and Matrix(adj) == Matrix(M).adjugate(), M


def test_count_roots_matches_sympy():
    # Products of small factors, so that roots repeat and endpoints can be
    # rational roots; intervals with random rational ends.
    rng = random.Random(6)
    factors = [[-1, 1], [2, 1], [-2, 0, 1], [-1, -1, 1], [1, 0, 1], [-1, -1, 0, 1], [3, -4, 1]]
    for _ in range(120):
        p = _poly([1])
        for f in rng.sample(factors, rng.randint(1, 3)):
            p = p * _poly(f) ** rng.randint(1, 2)
        coeffs = [int(c) for c in reversed(p.all_coeffs())]
        ends = sorted(Fraction(rng.randint(-12, 12), rng.choice((1, 2, 3, 4))) for _ in range(2))
        assert count_roots(coeffs, *ends) == p.count_roots(*ends), (coeffs, ends)


def _bench_matrices():
    """The matrices of every bench input: the 2-letter pool, the corpus, the
    ROADMAP inputs and the cubic-closure inputs."""
    pool = json.loads((BENCH / "pool2.json").read_text())["pool"]
    rule_sets = [tuple(tuple(int(c) for c in w) for w in rules[:2]) for rules in pool]
    rule_sets += [rules for _, rules in CORPUS_RULES.values()]
    rule_sets += [rules for _, rules in CUBIC_RULES.values()]
    rule_sets += [((2, 3, 1), (1, 2), (2,)), ((1, 1, 1, 2), (1, 2)), ((1, 3, 2), (3, 3), (3, 1))]
    return [Substitution(len(r), r) for r in rule_sets]


def _seeded_substitutions(seed, count):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        m = rng.randint(2, 4)
        s = Substitution(m, tuple(tuple(rng.randint(1, m) for _ in range(rng.randint(1, 3)))
                                  for _ in range(m)))
        if is_primitive(matrix(s)):
            out.append(s)
    return out


def test_conjugate_disks_hold_mpmath_roots(monkeypatch):
    # The first and the next, finer disks of the squarefree characteristic
    # polynomials of every bench input and of a quartic, and of polynomials
    # with roots near |z| = 1, against mpmath's roots: each disk and its
    # mirror image hold one root, a real one when centred on the axis, and
    # every root is held once.  Likewise when the float roots lie: all
    # pushed out to modulus 100, or sqrt(2) proposed twice as a pair.
    import pisotile.algebra as algebra

    quartic = Substitution(4, ((1, 3, 4, 4), (2, 1, 2), (2, 2, 4, 1), (2,)))
    polys = sorted({tuple(int(c) for c in squarefree(char_poly(matrix(s))))
                    for s in _bench_matrices() + [quartic]} | set(near_circle(random.Random(3))))
    true_roots = algebra.roots
    runs = [(None, polys), (lambda zs: [z / abs(z) * 100 for z in zs], polys[::4]),
            (lambda zs: [2**0.5 + 0.01j, 2**0.5 - 0.01j], [(-2, 0, 1)])]
    kinds = set()
    for lie, ps in runs:
        monkeypatch.setattr(algebra, "roots", lambda p, lie=lie: (lie or list)(true_roots(p)))
        for p in ps:
            with mpmath.workdps(90):
                zs = mpmath.polyroots(list(reversed(p)), maxsteps=800, extraprec=600)
                for _, (s, units) in zip(range(2), conjugate_disks(list(p))):
                    held = []
                    for a, b, r in units:
                        for c in {mpmath.mpc(a, b) / s, mpmath.mpc(a, -b) / s}:
                            inside = [k for k, z in enumerate(zs) if abs(z - c) < mpmath.mpf(r) / s]
                            assert len(inside) == 1, (p, a, b, r)
                            assert b or abs(zs[inside[0]].imag) < mpmath.mpf(10) ** -80, p
                            held += inside
                    assert sorted(held) == list(range(len(zs))), p
                    kinds.add((len(p) - 1, any(b for _, b, _ in units)))
    assert {(2, False), (3, True), (4, True), (5, True)} <= kinds


def test_minimal_polynomial_and_pisot_match_sympy():
    # For each distinct characteristic polynomial: the minimal polynomial is
    # sympy's minimal polynomial of the largest real root, the verdict is
    # that of its numerical conjugates, the interval holds that root alone
    # and no root lies above it, and the irreducibility gate agrees with
    # sympy.  A non-Pisot Perron root is named in perron_data's
    # NotPisotError by its minimal polynomial as sympy prints it.
    seen, verdicts = set(), set()
    for s in _bench_matrices() + _seeded_substitutions(8, 60):
        chi = tuple(char_poly(matrix(s)))
        if chi in seen:
            continue
        seen.add(chi)
        poly = _poly(chi)
        beta = poly.real_roots(radicals=False)[-1]
        mp = [int(c) for c in reversed(minimal_polynomial(beta, _X, polys=True).all_coeffs())]
        with mpmath.workdps(30):
            conj = sorted(abs(r) for r in mpmath.polyroots(list(reversed(mp)), maxsteps=500, extraprec=200))
        pisot = len(mp) == 2 and mp[0] < -1 or len(mp) > 2 and conj[-2] < 1
        q, lo, hi, verdict = perron_minimal_polynomial(list(chi))
        assert (q, verdict) == (mp, pisot), chi
        assert poly.count_roots(lo, hi) == 1 and poly.count_roots(hi, None) == 0, chi
        assert is_irreducible(s) == poly.is_irreducible, chi
        if not pisot:
            with pytest.raises(NotPisotError) as err:
                perron_data(s)
            assert f"(min poly {_poly(mp).as_expr()}) is not Pisot" in str(err.value)
        verdicts.add((pisot, poly.is_irreducible))
    assert verdicts == {(True, True), (True, False), (False, True), (False, False)}


def test_pisot_edge_cases():
    cases = [
        ([-1, -1, 1], [-1, -1, 1], True),  # golden
        ([-2, 1], [-2, 1], True),  # rational root 2
        ([-1, 1], [-1, 1], False),  # root 1 is not Pisot
        ([0, -2, 1], [-2, 1], True),  # x (x - 2): beta = 2
        ([1, -1, -1, -1, 1], [1, -1, -1, -1, 1], False),  # Salem-type quartic: roots on |z| = 1
        ([-2, 0, 1], [-2, 0, 1], False),  # conjugate -sqrt(2)
        ([-1, 0, 0, 1], [-1, 1], False),  # x^3 - 1: beta = 1, the others on the unit circle
        ([1, 3, 1], [1, 3, 1], False),  # self-reciprocal, beta = (-3 + sqrt(5)) / 2 < 1
    ]
    for chi, q, pisot in cases:
        found = perron_minimal_polynomial(chi)
        assert (found[0], found[3]) == (q, pisot), chi
    with pytest.raises(ValueError):
        perron_minimal_polynomial([1, 0, 1])  # i and -i: no real root


def test_float_roots_only_propose(monkeypatch):
    # Wrong float roots cost refinement, never a wrong answer: the Perron
    # root left out (so -1 is proposed as the largest root), beta moved by
    # 1e-3, the conjugate -sqrt(2) proposed as 1/2, and +-sqrt(2) as +-1.2.
    # The interval still holds beta.
    import pisotile.algebra as algebra

    true_roots = algebra.roots
    lies = [
        ([-2, -1, 1], lambda zs: [z for z in zs if z.real < 0], [-2, 1], True),
        ([-1, -1, -1, 1], lambda zs: [z + 1e-3 if abs(z.imag) < 1e-9 else z for z in zs],
         [-1, -1, -1, 1], True),
        ([-2, 0, 1], lambda zs: [complex(2**0.5), 0.5 + 0j], [-2, 0, 1], False),
        # Disks at +-1.2 of radius 0.47 are proven, and beta's coefficient
        # -1.2 +- 0.47 holds one integer, but x - 1 does not divide chi.
        ([-2, 0, 1], lambda zs: [1.2 + 0j, -1.2 + 0j], [-2, 0, 1], False),
    ]
    for chi, lie, q, pisot in lies:
        monkeypatch.setattr(algebra, "roots", lambda p, lie=lie: lie(true_roots(p)))
        found, lo, hi, verdict = algebra.perron_minimal_polynomial(chi)
        assert (found, verdict) == (q, pisot), chi
        assert _poly(chi).count_roots(lo, hi) == 1 and _poly(chi).count_roots(hi, None) == 0


def test_hnf_same_lattice_as_sympy():
    rng = random.Random(9)
    for _ in range(80):
        d = rng.randint(1, 4)
        gens = [tuple(rng.randint(-6, 6) for _ in range(d)) for _ in range(rng.randint(1, 5))]
        if not any(any(v) for v in gens):
            continue
        ours = hnf(gens)
        theirs = hermite_normal_form(Matrix(gens).T)
        # Compared as lattices: each basis lies in the other's span over Z.
        for A, B in ((Matrix(ours).T, theirs), (theirs, Matrix(ours).T)):
            sol, params = A.gauss_jordan_solve(B)
            assert not params and all(x.is_integer for x in sol), (gens, ours, theirs)
        for j, b in enumerate(ours):
            pivot = max(i for i, x in enumerate(b) if x)
            assert b[pivot] > 0 and all(x == 0 for x in b[pivot + 1:])
            for later in ours[j + 1:]:
                assert 0 <= later[pivot] < b[pivot]
        if len(ours) == d:
            assert Matrix(ours).T == theirs  # the column-style form is unique


def test_perron_equals_matches_reference():
    # Targets from the corpus fields (beta, 1 + beta, beta^2, small
    # rationals) against random small nonnegative matrices and against the
    # matrices whose Perron root they are.
    rng = random.Random(10)
    targets = []
    for name in ("fibonacci", "tribonacci", "s112", "period_doubling"):
        field, beta, _ = perron_data(Substitution(*CORPUS_RULES[name]))
        targets += [beta, beta + 1, beta * beta, field.from_rational(2), field.one()]
    mats = [matrix(Substitution(*CORPUS_RULES[n])) for n in CORPUS_RULES]
    mats += [[[1, 1], [1, 1]], [[0, 1], [1, 0]], [[2]], [[1, 1], [1, 0]], [[2, 1], [1, 1]],
             [[1, 1, 0], [1, 0, 0], [0, 0, 1]], [[1, 1, 0], [1, 0, 0], [0, 0, 2]]]
    for _ in range(25):
        n = rng.randint(1, 3)
        mats.append([[rng.randint(0, 2) for _ in range(n)] for _ in range(n)])
    answers = set()
    for M in mats:
        for t in targets:
            want = perron_equals_reference(M, t)
            assert perron_equals(M, t) == want, (M, t)
            answers.add(want)
    assert answers == {True, False}


@pytest.mark.parametrize("degree", [3, 4])
def test_newton_step_and_bisection_fallback(degree):
    # x^d - 2 (a x - 1)^2, moved right by 2: irreducible (Eisenstein at 2),
    # with two real roots about a^-(d+2)/2 apart near 2 + 1/a, where floats
    # cannot place either root and the exact bisection must.  On x^3 - 6x^2
    # + 1 in [1, 6], float Newton from 3.5 runs to the root near -0.395.  Two
    # corpus fields take the Newton step.  Every enclosure of width 2^-80
    # lies in its isolating interval, holds the right root and carries a
    # sign change.
    a = 10**4
    p = Poly(_X**degree - 2 * (a * _X - 1) ** 2, _X).compose(Poly(_X - 2, _X))
    cases = [([int(c) for c in reversed(p.all_coeffs())], (_fraction(lo), _fraction(hi)))
             for (lo, hi), _ in p.intervals() if 1 <= lo < 3]
    cases.append(([1, 0, -6, 1], (Fraction(1), Fraction(6))))
    cases += [(list(f.min_poly), (f._lo, f._hi)) for f in (
        perron_data(Substitution(*rules))[0]
        for rules in (CORPUS_RULES["tribonacci"], CUBIC_RULES["1->2,2->3,3->12"]))]
    newton = []
    for coeffs, (lo, hi) in cases:
        field = NumberField(coeffs, (lo, hi))
        newton.append(field._hi - field._lo == Fraction(1, 2**80))
        flo, fhi = field.enclosure(Fraction(1, 2**80))
        assert lo <= flo < fhi <= hi and fhi - flo <= Fraction(1, 2**80)
        values = [sum(c * x**k for k, c in enumerate(coeffs)) for x in (flo, fhi)]
        assert values[0] * values[1] < 0
        with mpmath.workdps(60):
            mpf = [mpmath.mpf(x.numerator) / x.denominator for x in (lo, flo, fhi, hi)]
            inside = [mpmath.re(r) for r in mpmath.polyroots(list(reversed(coeffs)), maxsteps=500, extraprec=600)
                      if abs(mpmath.im(r)) < mpmath.mpf(10) ** -40 and mpf[0] <= mpmath.re(r) <= mpf[3]]
            assert len(inside) == 1 and mpf[1] <= inside[0] <= mpf[2]
    assert newton == [False, False, False, True, True]

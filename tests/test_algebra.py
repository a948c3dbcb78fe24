"""The standard-library algebra kernel against sympy and mpmath as oracles."""

import json
import pathlib
import random
from fractions import Fraction

import mpmath
import pytest
from sympy import Matrix, Poly, Symbol, minimal_polynomial
from sympy.matrices.normalforms import hermite_normal_form

from conftest import CORPUS_RULES, CUBIC_RULES
from oracles import perron_equals_reference
from pisotile import NumberField, Substitution, is_irreducible, is_primitive, perron_equals
from pisotile.algebra import (
    adjugate,
    char_poly,
    count_roots,
    hnf,
    perron_minimal_polynomial,
    pisot_certificate,
    schur_cohn,
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


def test_schur_cohn_matches_root_moduli():
    rng = random.Random(7)
    counted = set()
    for _ in range(150):
        d = rng.randint(1, 5)
        coeffs = [rng.randint(-4, 4) for _ in range(d)] + [rng.choice((1, 2, 3))]
        rho = Fraction(rng.randint(1, 15), rng.choice((4, 8, 16)))
        with mpmath.workdps(30):
            moduli = [abs(r) for r in mpmath.polyroots(list(reversed(coeffs)), maxsteps=500, extraprec=200)]
        count = schur_cohn(coeffs, rho)
        if any(abs(m - mpmath.mpf(rho.numerator) / rho.denominator) < mpmath.mpf(10) ** -30 for m in moduli):
            assert count is None
            continue
        if count is not None:
            assert count == sum(m < mpmath.mpf(rho.numerator) / rho.denominator for m in moduli), (coeffs, rho)
            counted.add(count)
    assert counted >= {0, 1, 2, 3}


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


def test_minimal_polynomial_and_pisot_match_sympy(monkeypatch):
    # For each distinct characteristic polynomial: the certified minimal
    # polynomial is sympy's minimal polynomial of the largest real root, that
    # root is Pisot by its numerical conjugates, and the interval holds it
    # alone; without a certificate the root is not Pisot, and the fallback
    # names sympy's minimal polynomial in its NotPisotError after passing
    # is_pisot an interval that holds the largest real root alone.  The gate
    # agrees with sympy's irreducibility test.
    import pisotile.substitution as substitution

    asked = []
    true_is_pisot = substitution.is_pisot
    monkeypatch.setattr(substitution, "is_pisot",
                        lambda q, itv: asked.append((q, itv)) or true_is_pisot(q, itv))
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
        pisot = len(mp) == 2 or conj[-2] < 1
        found = perron_minimal_polynomial(list(chi))
        assert (found is not None) == pisot, chi
        assert is_irreducible(s) == poly.is_irreducible, chi
        verdicts.add((pisot, poly.is_irreducible))
        if found:
            q, lo, hi = found
        else:
            with pytest.raises(NotPisotError) as err:
                substitution._perron_by_sympy(s, list(chi))
            assert f"(min poly {_poly(mp).as_expr()}) is not Pisot" in str(err.value)
            q, (lo, hi) = asked.pop()
        assert q == mp, chi
        assert poly.count_roots(lo, hi) == 1 and poly.count_roots(hi, None) == 0
    assert verdicts == {(True, True), (True, False), (False, True), (False, False)}


def test_pisot_certificate_edge_cases():
    assert pisot_certificate([-1, -1, 1])  # golden
    assert pisot_certificate([-2, 1])  # rational root 2
    assert not pisot_certificate([-1, 1])  # root 1 is not Pisot
    assert not pisot_certificate([0, -2, 1])  # q(0) = 0: x (x - 2)
    assert not pisot_certificate([1, -1, -1, -1, 1])  # Salem-type quartic: roots on |z| = 1
    assert not pisot_certificate([-2, 0, 1])  # conjugate -sqrt(2)
    assert not pisot_certificate([-1, 0, 0, 1])  # x^3 - 1: roots on the unit circle
    assert not pisot_certificate([1, 0, 1])  # i and -i


def test_float_roots_only_propose(monkeypatch):
    # Wrong float roots give no answer, never a wrong one: the Perron root
    # left out (so -1 is proposed as the largest root), beta moved by 1e-3,
    # and the conjugate -sqrt(2) proposed as 1/2.
    import pisotile.algebra as algebra

    true_roots = algebra.roots
    lies = [
        ([-2, -1, 1], lambda zs: [z for z in zs if z.real < 0]),
        ([-1, -1, -1, 1], lambda zs: [z + 1e-3 if abs(z.imag) < 1e-9 else z for z in zs]),
        ([-2, 0, 1], lambda zs: [complex(2**0.5), 0.5 + 0j]),
    ]
    for chi, lie in lies:
        monkeypatch.setattr(algebra, "roots", lambda p, lie=lie: lie(true_roots(p)))
        assert algebra.perron_minimal_polynomial(chi) is None, chi
    assert not algebra.pisot_certificate([-2, 0, 1])


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

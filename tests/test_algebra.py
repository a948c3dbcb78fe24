"""The standard-library algebra kernel against sympy and mpmath as oracles."""

import json
import math
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
    hnf,
    isolate,
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


def test_isolate_matches_sympy():
    # Random monic irreducible polynomials of degree 1-5 on intervals with
    # random rational ends, some of them points; the points 2 and 3 for
    # x - 2 and x - 3; and ends within 2^-70 of sqrt 2, where the first
    # disks straddle them: ValueError exactly when sympy counts other than
    # one real root in [lo, hi]; else each of the first intervals lies
    # inside the one before and holds that root alone.
    rng = random.Random(6)
    below = Fraction(math.isqrt(2 << 140), 1 << 70)  # sqrt 2 - 2^-70 < below < sqrt 2
    cases = [([-2, 1], [Fraction(2)] * 2), ([-3, 1], [Fraction(3)] * 2),
             ([-2, 0, 1], [1, below]), ([-2, 0, 1], [below, 2]), ([-2, 0, 1], [below] * 2)]
    while len(cases) < 150:
        coeffs = [rng.randint(-6, 6) for _ in range(rng.randint(1, 5))] + [1]
        ends = sorted(Fraction(rng.randint(-12, 12), rng.choice((1, 2, 3, 4))) for _ in range(2))
        if _poly(coeffs).is_irreducible:
            cases.append((coeffs, ends[:1] * 2 if len(cases) % 10 == 0 else ends))
    outcomes = set()
    for coeffs, ends in cases:
        p = _poly(coeffs)
        count = p.count_roots(*ends)
        spans = isolate(coeffs, *ends, conjugate_disks(coeffs))
        if count != 1:
            with pytest.raises(ValueError):
                next(spans)
        else:
            outer = ends
            for lo, hi in (next(spans) for _ in range(3)):
                assert outer[0] <= lo <= hi <= outer[1] and p.count_roots(lo, hi) == 1, (coeffs, ends)
                outer = lo, hi
        outcomes.add((len(coeffs) - 1 > 1, count, ends[0] == ends[1]))
    assert {(False, 1, True), (True, 0, True), (True, 1, False), (True, 2, False),
            (True, 0, False), (False, 1, False), (False, 0, False)} <= outcomes


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
        q, lo, hi, verdict, _ = perron_minimal_polynomial(list(chi))
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
        found, lo, hi, verdict, disks = perron_minimal_polynomial(chi)
        assert (found, verdict) == (q, pisot), chi
        assert _poly(chi).count_roots(lo, hi) == 1 and _poly(chi).count_roots(hi, None) == 0, chi
        assert (disks is None) == (len(q) == 2) and (lo >= 1 or not pisot), chi
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
        found, lo, hi, verdict, _ = algebra.perron_minimal_polynomial(chi)
        assert (found, verdict) == (q, pisot), chi
        assert _poly(chi).count_roots(lo, hi) == 1 and _poly(chi).count_roots(hi, None) == 0


def _perron_pisot_by_mpmath(coeffs):
    """(lo, hi, pisot) for the largest real root of the irreducible coeffs:
    sympy's isolating interval of it, and whether it is Pisot by the moduli
    of the numerical roots, every other one asserted to be off |z| = 1."""
    (a, b), _ = _poly(coeffs).intervals()[-1]
    lo, hi = _fraction(a), _fraction(b)
    roots = mpmath.polyroots(list(reversed(coeffs)), maxsteps=200, extraprec=100)
    mid = (mpmath.mpf(lo.numerator) / lo.denominator + mpmath.mpf(hi.numerator) / hi.denominator) / 2
    beta = min(roots, key=lambda r: abs(r - mid))
    others = [abs(r) for r in roots if r is not beta]
    assert all(abs(m - 1) > 1e-20 for m in others), coeffs
    return lo, hi, beta.real > 1 and all(m < 1 for m in others)


def _beta_substitution(coeffs):
    """The substitution i -> 1^(a_i) (i + 1), d -> 1^(a_d), whose matrix has
    characteristic polynomial coeffs = x^d - a_1 x^(d-1) - ... - a_d, for
    a_1, a_d >= 1 and a_i >= 0 (else None): it is primitive."""
    d, a = len(coeffs) - 1, [-c for c in reversed(coeffs[:-1])]
    if min(a) < 0 or not a[0] or not a[-1]:
        return None
    return Substitution(d, tuple((1,) * a[i] + ((i + 2,) if i < d - 1 else ()) for i in range(d)))


def test_perron_pisot_matches_roots():
    # The largest real root of every irreducible monic quadratic and cubic
    # with small coefficients, with a complex pair and with three real roots
    # alike, and of seeded quartics and quintics and ones with a conjugate
    # within 10^-3 of |z| = 1, against the moduli of its numerical roots:
    # the verdict, and a span that holds that root alone, inside sympy's
    # interval of it when Pisot (then from 1 up).  Where the polynomial is
    # that of a beta-substitution, perron_data's gate says the same, and
    # its field encloses the root.
    polys = [(a0, a1, 1) for a0 in range(-4, 5) for a1 in range(-4, 5)]
    polys += [(a0, a1, a2, 1) for a0 in range(-3, 4) for a1 in range(-3, 4)
              for a2 in range(-3, 4)]
    rng = random.Random(17)
    polys += [tuple(rng.randint(-2, 2) for _ in range(d - 1)) + (rng.randint(-8, 2), 1)
              for d in (4, 5) * 8]
    polys += near_circle(rng)
    checked, gated = set(), set()
    for coeffs in polys:
        poly = _poly(coeffs)
        rev = coeffs[::-1]
        if not poly.is_irreducible or not poly.count_roots():
            continue
        if len(coeffs) > 3 and coeffs in (rev, tuple(-c for c in rev)):
            continue  # self-reciprocal ones may have roots on the circle
        lo, hi, pisot = _perron_pisot_by_mpmath(coeffs)
        q, qlo, qhi, verdict, _ = perron_minimal_polynomial(list(coeffs))
        assert (q, verdict) == (list(coeffs), pisot), coeffs
        assert poly.count_roots(qlo, qhi) == 1 and poly.count_roots(qhi, None) == 0, coeffs
        assert qlo >= 1 or not pisot, coeffs
        d = len(coeffs) - 1
        disc = poly.discriminant()
        checked.add((d, d == 2 or d == 3 and disc < 0, pisot) if d < 4 else (d, pisot))
        s = _beta_substitution(coeffs)
        if s is None:
            continue
        if not pisot:
            with pytest.raises(NotPisotError):
                perron_data(s)
        else:
            field = perron_data(s)[0]
            flo, fhi = field.enclosure(Fraction(1, 2**100))
            assert field.min_poly == coeffs and lo <= fhi and flo <= hi, coeffs
            assert poly.count_roots(flo, fhi) == 1, coeffs
        gated.add((d, pisot))
    assert checked == {(2, True, True), (2, True, False), (3, True, True), (3, True, False),
                       (3, False, True), (3, False, False), (4, True), (4, False),
                       (5, True), (5, False)}
    assert gated == {(2, True), (2, False), (3, True), (3, False), (4, False), (5, True), (5, False)}


def test_pisot_verdict_float_roots_only_propose(monkeypatch):
    # Float roots that lie -- all far from the unit circle, one on it (at
    # 1, a critical point of the Tribonacci and Thue-Morse polynomials,
    # where the step does not move it), none at all, all a hair from it --
    # only move where the exact Aberth steps start: the minimal polynomial and the Pisot verdict of polynomials
    # with conjugates near |z| = 1 stay right, and so do perron_data's
    # field, lengths and enclosures of beta (above 1, where only beta is
    # among the roots of a Pisot number's minimal polynomial) on corpus,
    # cubic and reducible inputs.  Disks that are never proven disjoint, as about a double
    # root, raise the cap error rather than guess.
    import pisotile.algebra as algebra

    with pytest.raises(algebra.CapExceededError):
        for _ in algebra.conjugate_disks((1, -2, 1)):
            pass

    lies = [
        lambda zs: [z / abs(z) * 100 if z else 100j for z in zs],
        lambda zs: [1 + 0j] + zs[1:],
        lambda zs: None,
        lambda zs: [complex(1 + 2.0**-50)] * len(zs),
    ]
    truth = {q: _perron_pisot_by_mpmath(q)[2] for q in near_circle(random.Random(3))}
    assert set(truth.values()) == {True, False}
    rule_sets = [CORPUS_RULES[n][1] for n in ("fibonacci", "tribonacci", "thue_morse")]
    rule_sets += [CUBIC_RULES["1->2,2->3,3->12"][1], ((1, 2), (3,), (4,), (5,), (1,))]
    substitutions = [Substitution(len(r), r) for r in rule_sets]
    fields = {}
    for s in substitutions:
        field, _, lengths = perron_data(s)
        fields[s] = field.min_poly, [x.coeffs for x in lengths]
    true_roots = algebra.roots
    for lie in lies:
        monkeypatch.setattr(algebra, "roots", lambda p, lie=lie: lie(true_roots(p)))
        for coeffs, pisot in truth.items():
            q, _, _, verdict, _ = perron_minimal_polynomial(list(coeffs))
            assert (q, verdict) == (list(coeffs), pisot), coeffs
        for s in substitutions:
            field, _, lengths = perron_data(s)
            assert (field.min_poly, [x.coeffs for x in lengths]) == fields[s], s
            lo, hi = field.enclosure(Fraction(1, 2**100))
            assert lo >= 1 and _poly(field.min_poly).count_roots(lo, hi) == 1, s


def test_one_disk_stream_per_root(monkeypatch):
    # The disks that prove beta's minimal polynomial go on to refine the
    # field's enclosures of it, to 2^-300: perron_data starts
    # conjugate_disks once for an irreducible chi, once more for the
    # minimal polynomial of a reducible one, (x^2 - x + 1)(x^3 - x - 1),
    # and once when it has degree 1 (Thue-Morse); a field built on its own
    # starts it once, for the proof of its irreducibility.
    import pisotile.algebra as algebra

    starts = []
    conjugate_disks = algebra.conjugate_disks
    monkeypatch.setattr(algebra, "conjugate_disks",
                        lambda p: starts.append(tuple(p)) or conjugate_disks(p))
    cases = [(CORPUS_RULES[n][1], 1) for n in ("fibonacci", "tribonacci", "thue_morse")]
    cases.append((((1, 2), (3,), (4,), (5,), (1,)), 2))
    builds = [(lambda r=rules: perron_data(Substitution(len(r), r))[0], count) for rules, count in cases]
    builds.append((lambda: NumberField((-1, -1, 1), (1, 2)), 1))
    for build, count in builds:
        starts.clear()
        build().enclosure(Fraction(1, 2**300))
        assert len(starts) == count, starts


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
def test_field_enclosures_of_hard_roots(degree):
    # x^d - 2 (a x - 1)^2, moved right by 2: irreducible (Eisenstein at 2),
    # with two real roots about a^-(d+2)/2 apart near 2 + 1/a, where floats
    # cannot place either root.  Also x^3 - 6x^2 + 1 in [1, 6], where float
    # Newton from 3.5 runs to the root near -0.395, and two corpus fields.
    # Refined to width 2^-300, every enclosure lies inside the one before
    # and in the isolating interval, and holds the right root by mpmath.
    a = 10**4
    p = Poly(_X**degree - 2 * (a * _X - 1) ** 2, _X).compose(Poly(_X - 2, _X))
    cases = [([int(c) for c in reversed(p.all_coeffs())], (_fraction(lo), _fraction(hi)))
             for (lo, hi), _ in p.intervals() if 1 <= lo < 3]
    cases.append(([1, 0, -6, 1], (Fraction(1), Fraction(6))))
    cases += [(list(f.min_poly), (f._lo, f._hi)) for f in (
        perron_data(Substitution(*rules))[0]
        for rules in (CORPUS_RULES["tribonacci"], CUBIC_RULES["1->2,2->3,3->12"]))]
    assert len(cases) == 5
    for coeffs, (lo, hi) in cases:
        field = NumberField(coeffs, (lo, hi))
        enclosures = [(lo, hi), (field._lo, field._hi)]
        while enclosures[-1][1] - enclosures[-1][0] > Fraction(1, 2**300):
            field.refine()
            enclosures.append((field._lo, field._hi))
        for (olo, ohi), (ilo, ihi) in zip(enclosures, enclosures[1:]):
            assert olo <= ilo < ihi <= ohi
        with mpmath.workdps(200):
            ends = [[mpmath.mpf(x.numerator) / x.denominator for x in e] for e in enclosures]
            inside = [mpmath.re(r) for r in mpmath.polyroots(list(reversed(coeffs)), maxsteps=500, extraprec=1000)
                      if abs(mpmath.im(r)) < mpmath.mpf(10) ** -150 and ends[0][0] <= mpmath.re(r) <= ends[0][1]]
            assert len(inside) == 1 and all(lo <= inside[0] <= hi for lo, hi in ends)

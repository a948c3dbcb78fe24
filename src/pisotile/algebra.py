"""Exact algebra over Z and Q with the standard library only.

Polynomials are coefficient lists in ascending order (c_0, c_1, ..., c_n)
with a nonzero last entry.  The module holds:

- ``char_poly``: the characteristic polynomial of an integer matrix by
  Berkowitz's division-free algorithm, ``adjugate_terms``, the integer
  coefficients of adj(x I - M) it gives, and ``adjugate``, the adjugate
  and determinant at x = 0;
- Sturm sequences over Q (``sturm``, ``sign_changes``), which count real
  roots for the Perron comparisons of ``graphkit``;
- ``roots``: float approximations of the complex roots by the Aberth-Ehrlich
  iteration.  They only propose centres; nothing is decided from them;
- ``conjugate_disks``: proven, pairwise disjoint inclusion disks of the
  roots, refined by exact Aberth-Ehrlich steps, and
  ``perron_minimal_polynomial``, which finds from them the minimal
  polynomial of a Perron root, proved irreducible, and whether it is Pisot,
  and hands on the stream of disks that proved it; ``isolate``, ever
  narrower rational intervals about one real root, from that stream, which
  are the number field's enclosures of beta;
- ``hnf``: the Hermite normal form of an integer lattice;
- ``mat_mul``, ``mat_vec`` and ``prime_factors``: integer matrix products
  and trial division;
- ``CapExceededError``, raised by every cap and refinement limit of the
  package.

The algorithms are the standard ones of Cohen, *A Course in Computational
Algebraic Number Theory* (GTM 138); the inclusion disks are Henrici's,
*Applied and Computational Complex Analysis*, vol. 1, about Aberth's
approximations (Math. Comp. 27, 1973).
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from itertools import chain, combinations, repeat
from operator import mul


class CapExceededError(RuntimeError):
    """A word, patch or closure grew past its configured cap, or a proof
    needed more refinement steps than its limit."""


# -- polynomials over Q ---------------------------------------------------------


def _trim(p):
    while p and p[-1] == 0:
        p.pop()
    return p


def peval(p, x):
    """Horner evaluation of p at x (any ring element that takes + and *)."""
    acc = 0
    for c in reversed(p):
        acc = acc * x + c
    return acc


def pdivmod(a, b):
    """(quotient, remainder) of a by a nonzero b over Q."""
    a = [Fraction(c) for c in a]
    q = [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    inv_lead = 1 / Fraction(b[-1])
    while len(a) >= len(b):
        k = len(a) - len(b)
        f = a[-1] * inv_lead
        q[k] = f
        for i, c in enumerate(b):
            a[k + i] -= f * c
        _trim(a)
    return q, a


def derivative(p):
    return [k * c for k, c in enumerate(p)][1:]


def squarefree(p):
    """p / gcd(p, p'), made monic: the product of the distinct monic
    irreducible factors of p.  For monic integer p it has integer
    coefficients (Gauss's lemma)."""
    g, h = list(p), derivative(p)
    while h:
        g, h = h, pdivmod(g, h)[1]
    q, _ = pdivmod(p, g)
    return [c / q[-1] for c in q]


# -- the characteristic polynomial ------------------------------------------------


def char_poly(M) -> list[int]:
    """det(x I - M) of a square integer matrix, ascending, by Berkowitz's
    division-free algorithm: the polynomial of the leading (k+1) x (k+1)
    block is a Toeplitz matrix with first column (1, -a, -R C, -R A C, ...,
    -R A^(k-1) C) times that of the leading k x k block A, where a, R and C
    are the new diagonal entry, row and column."""
    p = [1]  # descending coefficients
    for k in range(len(M)):
        row, col = M[k][:k], [M[i][k] for i in range(k)]
        t = [1, -M[k][k]]
        for _ in range(k):
            t.append(-sum(r * c for r, c in zip(row, col)))
            col = [sum(M[i][j] * col[j] for j in range(k)) for i in range(k)]
        p = [sum(t[i - j] * p[j] for j in range(max(0, i - k - 1), min(i, k) + 1))
             for i in range(k + 2)]
    return p[::-1]


def mat_mul(A, B) -> list[list[int]]:
    return [[sum(map(mul, row, col)) for col in zip(*B)] for row in A]


def mat_vec(M, v) -> tuple[int, ...]:
    return tuple([sum(map(mul, row, v)) for row in M])


def prime_factors(n: int) -> list[int]:
    """The distinct primes dividing n >= 1, by trial division."""
    out, p = [], 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        out.append(n)
    return out


def adjugate_terms(M, c) -> list[list[list[int]]]:
    """The integer matrices B_(d-1), ..., B_0, in Horner order, with
    adj(x I - M) = sum_k B_k x^k, for c = char_poly(M): comparing
    coefficients in (x I - M) adj(x I - M) = det(x I - M) I gives
    B_(d-1) = I and B_(k-1) = M B_k + c_k I."""
    d = len(M)
    B = [[int(i == j) for j in range(d)] for i in range(d)]
    terms = [B]
    for k in range(d - 1, 0, -1):
        B = mat_mul(M, B)
        for i in range(d):
            B[i][i] += c[k]
        terms.append(B)
    return terms


def adjugate(M) -> tuple[list[list[int]], int]:
    """(adj M, det M) of a square integer matrix, division-free: at x = 0,
    adj(x I - M) = adj(-M) = (-1)^(d-1) adj M is B_0 of ``adjugate_terms``,
    and det(x I - M) = (-1)^d det M is c_0."""
    c = char_poly(M)
    sign = -1 if len(M) % 2 == 0 else 1
    return [[sign * x for x in row] for row in adjugate_terms(M, c)[-1]], -sign * c[0]


# -- Sturm sequences ----------------------------------------------------------------


def sturm(p):
    """The Sturm sequence p, p', -rem(p, p'), ..., each term scaled by a
    positive constant (which keeps every sign)."""
    chain = [[Fraction(c) for c in p], [Fraction(c) for c in derivative(p)]]
    while True:
        r = pdivmod(chain[-2], chain[-1])[1]
        if not r:
            return chain
        scale = abs(r[-1])
        chain.append([-c / scale for c in r])


def sign_changes(values) -> int:
    """Sign changes of a sequence, zeros dropped."""
    signs = [v > 0 for v in values if v != 0]
    return sum(a != b for a, b in zip(signs, signs[1:]))


# -- float roots ----------------------------------------------------------------------

_ABERTH_ITERATIONS = 200


def roots(p):
    """Float approximations of the complex roots of p (degree >= 1), by at
    most _ABERTH_ITERATIONS steps of the Aberth-Ehrlich iteration from a
    circle of radius Fujiwara's bound; None if a float overflows.  Simple
    roots converge to about machine precision.
    """
    n = len(p) - 1
    try:
        c = [float(Fraction(x) / Fraction(p[-1])) for x in p]
        radius = 2 * max(abs(c[n - k]) ** (1 / k) for k in range(1, n + 1)) or 1.0
    except OverflowError:
        return None
    dc = derivative(c)
    z = [radius * cmath.exp(1j * (2 * math.pi * k / n + 0.4)) for k in range(n)]
    for _ in range(_ABERTH_ITERATIONS):
        moved = 0.0
        for i in range(n):
            fz, dz = peval(c, z[i]), peval(dc, z[i])
            if fz == 0:
                continue
            ratio = fz / dz if dz else fz
            pull = sum(1 / (z[i] - w) for j, w in enumerate(z) if j != i and w != z[i])
            step = ratio / (1 - ratio * pull)
            z[i] -= step
            moved = max(moved, abs(step) / max(1.0, abs(z[i])))
        if not all(cmath.isfinite(w) for w in z):
            return None
        if moved < 1e-15:
            break
    return z


# -- proven inclusion disks -----------------------------------------------------------

_FIRST_BITS = 64  # the first grid, 2^-64, is finer than a float's 53 bits
_MAX_BITS = 1 << 13
_MAX_STEPS = 160
_RESTART = 80


def _geval(p, a, b, s):
    """s^deg(p) p((a + b i) / s) as a Gaussian integer (re, im), for integers
    a, b and s, by Horner's rule with the powers of s folded in."""
    re, im, t = 0, 0, 1
    for c in reversed(p):
        re, im = re * a - im * b + c * t, re * b + im * a
        t *= s
    return re, im


def _disks(p, z, s):
    """Disks (a, b, r) about the approximations z (Gaussian integers over
    s), or None when they are not proven disjoint.  Centres within 1/sqrt(s)
    of the axis move onto it; of the others, those above it stand for
    themselves and their mirror images, and all must count deg p = n.

    The disk of centre c = (a + b i) / s and radius r / s > n |p(c) / p'(c)|
    holds a root (Henrici): were every root z_j farther, |sum 1 / (c - z_j)|
    would be below |p'(c) / p(c)|.  n pairwise disjoint disks hold one root
    each; one centred on the axis holds its root's mirror image, so a real
    root."""
    n = len(p) - 1
    dp = derivative(p)
    centres = [(a, 0 if abs(b) <= math.isqrt(s) else b) for a, b in z]
    centres = [(a, b) for a, b in centres if b >= 0]
    if len(centres) + sum(b > 0 for _, b in centres) != n:
        return None
    units = []
    for a, b in centres:
        (pr, pi), (dr, di) = _geval(p, a, b, s), _geval(dp, a, b, s)
        if not (dr or di):
            return None
        units.append((a, b, math.isqrt(n * n * (pr * pr + pi * pi) // (dr * dr + di * di)) + 1))
    for i, (a, b, r) in enumerate(units):
        if 0 < b <= r or any((a - c) ** 2 + (b - d) ** 2 <= (r + t) ** 2 for c, d, t in units[:i]):
            return None
    return units


def _aberth_step(p, z, s):
    """(new approximations, their grid) after one exact Aberth-Ehrlich step
    z_i - w_i / (1 - w_i sum_j 1 / (z_i - z_j)), w_i = p(z_i) / p'(z_i), on
    the distinct approximations z over s, rounded half up.  The new grid is
    s^2 when every step was below 1/sqrt(s), as near simple roots, where the
    iteration converges cubically; else it stays s.

    In Gaussian integers, with P = s^n p(z_i), D = s^(n-1) p'(z_i) and
    sum_j 1 / (z_i - z_j) = s N / Q, the step X / (s Y) is P Q / (s E) for
    E = D Q - P N, or P / (s D) when E = 0, and none where D = 0."""
    dp, steps = derivative(p), []
    for a, b in z:
        (pr, pi), (dr, di) = _geval(p, a, b, s), _geval(dp, a, b, s)
        nr, ni, q = 0, 0, 1
        for c, d in z:
            m = (a - c) ** 2 + (b - d) ** 2
            if m:
                nr, ni, q = nr * m + (a - c) * q, ni * m - (b - d) * q, q * m
        e = dr * q - pr * nr + pi * ni, di * q - pr * ni - pi * nr
        if not (dr or di):
            steps.append(((0, 0), (1, 0)))
        else:
            steps.append(((pr * q, pi * q), e) if any(e) else ((pr, pi), (dr, di)))
    grid = s * s if all(xr * xr + xi * xi <= s * (yr * yr + yi * yi)
                        for (xr, xi), (yr, yi) in steps) else s
    out = []
    for (a, b), ((xr, xi), (yr, yi)) in zip(z, steps):
        m = yr * yr + yi * yi
        out.append(((2 * grid * (a * m - xr * yr - xi * yi) + s * m) // (2 * s * m),
                    (2 * grid * (b * m - xi * yr + xr * yi) + s * m) // (2 * s * m)))
    return out, grid


def conjugate_disks(p):
    """Proven inclusion disks of the roots of the monic squarefree integer
    polynomial p, ever finer: yields (s, units), each unit (a, b, r) with
    b >= 0 the disk of centre (a + b i) / s and radius r / s, and for b > 0
    its mirror image too; they hold one root each (``_disks``).

    ``roots`` only proposes the first centres.  Exact Aberth-Ehrlich steps
    refine them; they start from a circle of radius the Cauchy bound when
    the proposals are missing or not distinct, and once more without a
    proof after _RESTART steps or past a grid of 2^-_MAX_BITS, whichever
    comes first (a start symmetric about the axis stays so, and cannot
    reach real roots from a pair; one on a critical point does not move).
    After _MAX_STEPS steps, or past that grid with a proof or after the
    restart, this raises CapExceededError rather than guess."""
    n = len(p) - 1
    s, proven, restart = 1 << _FIRST_BITS, False, _RESTART
    try:
        z = [(round(w.real * s), round(w.imag * s)) for w in roots(p)]
    except (TypeError, ValueError, OverflowError):
        z = []
    for step in range(_MAX_STEPS):
        if len(set(z)) != n or step == restart and not proven:
            s, bound = 1 << _FIRST_BITS, 1 + max(map(abs, p))
            z = [(round(math.cos(t) * s) * bound, round(math.sin(t) * s) * bound)
                 for t in (2 * math.pi * k / n + 0.4 for k in range(n))]
        units = _disks(p, z, s)
        if units is not None:
            proven = True
            yield s, units
        if s.bit_length() > _MAX_BITS:
            if proven or step >= restart:
                break
            z, restart = [], step + 1
            continue
        z, s = _aberth_step(p, z, s)
    raise CapExceededError("the inclusion disks " + (
        "reached their refinement limit" if proven else "were not proven disjoint"))


def isolate(p, lo, hi, disks):
    """Ever narrower rational intervals within [lo, hi], each inside the one
    before, about the one real root of the monic irreducible integer p in
    [lo, hi]; ValueError when there is none or more than one.

    Of degree 1 the root is exact, and disks is not read.  Else disks is a
    stream of ``conjugate_disks(p)``, at any point of it, such as the one
    that proved p irreducible (``perron_minimal_polynomial``), and each real
    root lies in its own disk centred on the axis, as no other disk reaches
    it (``_disks``).  The first interval is the span of the only axis disk
    to meet [lo, hi], once it lies inside; each later one the span of the
    only one to meet the interval before, cut to it."""
    if len(p) == 2:
        root = Fraction(-p[0], p[1])
        if not lo <= root <= hi:
            raise ValueError("the interval holds no root")
        yield from repeat((root, root))
    found = False
    for s, units in disks:
        spans = [(Fraction(a - r, s), Fraction(a + r, s)) for a, b, r in units if not b]
        meets = [(a, b) for a, b in spans if a <= hi and lo <= b]
        inside = [(a, b) for a, b in meets if lo <= a and b <= hi]
        if not meets or len(inside) > 1:
            raise ValueError("the interval does not isolate one real root")
        if len(meets) == 1 and (found or inside):
            found = True
            lo, hi = max(lo, meets[0][0]), min(hi, meets[0][1])
            yield lo, hi


def _pmul(f, g):
    out = [0] * (len(f) + len(g) - 1)
    for i, x in enumerate(f):
        for j, y in enumerate(g):
            out[i + j] += x * y
    return out


def _split(units):
    """(the right-most disk on the axis, the others); ValueError if none is."""
    top = max((u for u in units if not u[1]), key=lambda u: u[0])
    return top, [u for u in units if u is not top]


def _minimal_factor(p, s, units):
    """The minimal polynomial of the root beta in the right-most real disk
    of the squarefree p, or None when the disks are too wide to find it.

    Candidates are the products over beta and the conjugation-closed sets of
    the other roots, smallest degree first.  For roots z_i in the disks of
    centres c_i and radii r_i, each coefficient of prod (x - z_i) is that of
    prod (x - c_i) up to that of prod (x + |c_i| + r_i) - prod (x + |c_i|).
    A candidate is rejected when an enclosure holds no integer, or the one
    integer polynomial does not divide p or change sign on beta's disk
    (which holds no other root); it is undecided when one holds two.  The
    first survivor vanishes at beta, and so would any factor of p of lower
    degree, which would have survived before it; so it is irreducible."""
    top, others = _split(units)
    subsets = sorted((c for k in range(len(others) + 1) for c in combinations(others, k)),
                     key=lambda c: sum(1 + (u[1] > 0) for u in c))
    for subset in subsets:
        centre = inner = outer = [1]
        for a, b, r in (top, *subset):
            m = math.isqrt(a * a + b * b) + 1 if b else abs(a)
            centre = _pmul(centre, [a * a + b * b, -2 * a, 1] if b else [-a, 1])
            for _ in range(2 if b else 1):
                inner, outer = _pmul(inner, [m, 1]), _pmul(outer, [m + r, 1])
        d = len(centre) - 1
        ends = [(-((w - i - c) // s ** (d - j)), (c + w - i) // s ** (d - j))
                for j, (c, i, w) in enumerate(zip(centre, inner, outer))]
        if any(lo > hi for lo, hi in ends):
            continue
        if any(lo < hi for lo, hi in ends):
            return None
        q = [lo for lo, _ in ends]
        a, _, r = top
        if not pdivmod(p, q)[1] and _geval(q, a - r, 0, s)[0] * _geval(q, a + r, 0, s)[0] < 0:
            return q
    return None


def _pisot(q, s, units):
    """Whether the root beta of q in the right-most real disk is Pisot: True
    when its disk lies right of 1 and every other disk in |z| < 1, False
    when it lies left of 1 or another disk in |z| > 1, else None."""
    (a, _, r), others = _split(units)
    if a + r <= s or any(c * c + d * d >= (s + t) ** 2 for c, d, t in others):
        return False
    if a - r > s and all(t < s and c * c + d * d < (s - t) ** 2 for c, d, t in others):
        return True
    return None


def perron_minimal_polynomial(chi):
    """(q, lo, hi, pisot, disks) for beta the largest real root of the monic
    integer polynomial chi: q is its minimal polynomial (``_minimal_factor``
    on the disks of squarefree(chi), refined until it is found), [lo, hi]
    the span on the axis of beta's disk there, which holds no other root,
    and none lies above it; pisot is whether beta is Pisot, and then lo >= 1.
    disks is the stream of ``conjugate_disks(q)`` that proved q or decided
    the verdict, where it stopped, for ``isolate`` to go on with: that of
    squarefree(chi) when it is q, and None of degree 1.

    A rational beta is Pisot iff it is > 1, and a self-reciprocal q of
    degree > 2 is not, its roots pairing up as z, 1/z.  No other q has a
    root on |z| = 1 (it would be a common root with the reciprocal, as
    1/z = conj(z)), so ``_pisot`` decides on q's own disks once they are
    fine enough.  Raises CapExceededError when they cannot be refined further."""
    p = [int(c) for c in squarefree(chi)]
    disks = conjugate_disks(p)
    for s, units in disks:
        q = _minimal_factor(p, s, units)
        if q is not None:
            break
    (a, _, r), _ = _split(units)
    lo, hi = Fraction(a - r, s), Fraction(a + r, s)
    if len(q) == 2:
        return q, lo, hi, q[0] < -1, None
    proved = chain([(s, units)], disks) if q == p else conjugate_disks(q)
    if len(q) > 3 and q == q[::-1]:
        return q, lo, hi, False, proved
    for s, units in proved:
        pisot = _pisot(q, s, units)
        if pisot is not None:
            return q, max(lo, 1) if pisot else lo, hi, pisot, proved


# -- the Hermite normal form ---------------------------------------------------------


def _xgcd(a: int, b: int):
    """(g, s, t) with s a + t b = g = gcd(a, b) > 0, for a, b not both 0."""
    s0, s1, t0, t1 = 1, 0, 0, 1
    while b:
        k, r = divmod(a, b)
        a, b = b, r
        s0, s1, t0, t1 = s1, s0 - k * s1, t1, t0 - k * t1
    return (a, s0, t0) if a > 0 else (-a, -s0, -t0)


def hnf(vectors):
    """The Hermite normal form basis of the lattice the integer vectors span.

    Each basis vector has its own pivot, its last nonzero coordinate, with a
    positive entry; every other basis vector has that coordinate in
    [0, pivot entry).  The vectors come sorted by pivot, so as the columns of
    a matrix they form its column-style (upper triangular) Hermite normal
    form, which is unique for the lattice.  Each generator is reduced from
    its last coordinate down, merging with the basis vector of equal pivot
    by an extended gcd step."""
    basis = {}
    for v in vectors:
        v = list(v)
        for c in reversed(range(len(v))):
            if not v[c]:
                continue
            b = basis.get(c)
            if b is None:
                basis[c] = v if v[c] > 0 else [-x for x in v]
                break
            g, s, t = _xgcd(b[c], v[c])
            f, h = b[c] // g, v[c] // g
            basis[c] = [s * x + t * y for x, y in zip(b, v)]
            v = [f * y - h * x for x, y in zip(b, v)]
    pivots = sorted(basis)
    for n, j in enumerate(pivots):
        b = basis[j]
        for i in reversed(pivots[:n]):
            f = b[i] // basis[i][i]
            if f:
                b = [x - f * y for x, y in zip(b, basis[i])]
        basis[j] = b
    return tuple(tuple(basis[c]) for c in pivots)

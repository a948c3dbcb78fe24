"""Exact algebra over Z and Q with the standard library only.

Polynomials are coefficient lists in ascending order (c_0, c_1, ..., c_n)
with a nonzero last entry.  The module holds:

- ``char_poly``: the characteristic polynomial of an integer matrix by
  Berkowitz's division-free algorithm, and ``adjugate``, the adjugate and
  determinant it gives by Cayley-Hamilton;
- Sturm sequences over Q (``sturm``, ``count_roots``), which count and
  isolate real roots;
- ``roots``: float approximations of the complex roots by the Aberth-Ehrlich
  iteration.  They only propose candidates; nothing is decided from them;
- ``schur_cohn``: an exact count of the zeros in a disk |z| < rho for a
  rational rho, and ``unit_disk_count``, the count in |z| < 1 of a
  polynomial with no zero on |z| = 1 from two agreeing counts;
- ``pisot_certificate`` and ``perron_minimal_polynomial``, which build the
  minimal polynomial of a Perron root from float roots and prove it
  irreducible and Pisot with one Schur-Cohn count;
- ``hnf``: the Hermite normal form of an integer lattice;
- ``mat_mul``, ``mat_vec`` and ``prime_factors``: integer matrix products
  and trial division.

The algorithms are the standard ones of Cohen, *A Course in Computational
Algebraic Number Theory* (GTM 138); the Schur-Cohn recursion is that of
Marden, *Geometry of Polynomials*, and Henrici, *Applied and Computational
Complex Analysis*, vol. 1, section 6.8.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from itertools import combinations
from operator import mul

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
    return tuple(sum(map(mul, row, v)) for row in M)


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


def adjugate(M) -> tuple[list[list[int]], int]:
    """(adj M, det M) of a square integer matrix, division-free: with
    det(x I - M) = x^d + c_(d-1) x^(d-1) + ... + c_0, Cayley-Hamilton gives
    M (M^(d-1) + c_(d-1) M^(d-2) + ... + c_1 I) = -c_0 I, so
    det M = (-1)^d c_0 and adj M = (-1)^(d+1) (M^(d-1) + ... + c_1 I)."""
    d = len(M)
    c = char_poly(M)
    acc = [[int(i == j) for j in range(d)] for i in range(d)]
    for k in range(d - 1, 0, -1):  # Horner in M
        acc = mat_mul(acc, M)
        for i in range(d):
            acc[i][i] += c[k]
    sign = -1 if d % 2 == 0 else 1
    return [[sign * x for x in row] for row in acc], -sign * c[0]


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


def count_roots(p, lo, hi) -> int:
    """The number of distinct real roots of p in [lo, hi], lo <= hi.

    On a squarefree p, V(lo) - V(hi) counts the roots in (lo, hi], where V is
    the number of sign changes of the Sturm sequence."""
    chain = sturm(squarefree(p))
    changes = [sign_changes(peval(q, x) for q in chain) for x in (lo, hi)]
    return changes[0] - changes[1] + (peval(chain[0], lo) == 0)


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


# -- Schur-Cohn -----------------------------------------------------------------------


def _inside_unit_disk(c):
    """Zeros of the integer polynomial c (nonzero last entry) in |z| < 1, or
    None when the recursion is singular.

    With n = deg c and the Schur transform Tc = c_0 c - c_n c*, c*(z) =
    z^n c(1/z), gamma = Tc(0) = c_0^2 - c_n^2, and no zeros on |z| = 1, Rouche
    gives: c and Tc have equally many zeros in the disk if gamma > 0; c* and
    Tc if gamma < 0, and c* has n minus that many of c.  A zero of c on the
    circle is a zero of every transform, so a recursion that ends at a
    nonzero constant with every gamma != 0 proves there is none."""
    n = len(c) - 1
    if n == 0:
        return 0
    gamma = c[0] * c[0] - c[n] * c[n]
    if gamma == 0:
        return None
    t = _trim([c[0] * c[k] - c[n] * c[n - k] for k in range(n)])
    g = math.gcd(*t)
    inside = _inside_unit_disk([x // g for x in t])
    if inside is None:
        return None
    return inside if gamma > 0 else n - inside


def schur_cohn(p, rho: Fraction):
    """The number of zeros of the integer polynomial p in |z| < rho, for a
    rational rho > 0, or None when the Schur-Cohn recursion on p(rho z) is
    singular (always so when p has a zero on |z| = rho)."""
    a, b = rho.numerator, rho.denominator
    n = len(p) - 1
    return _inside_unit_disk([int(c) * a**k * b ** (n - k) for k, c in enumerate(p)])


def unit_disk_count(p) -> int:
    """The number of zeros of the integer polynomial p in |z| < 1, for p
    with no zero on |z| = 1 (an irreducible p that is not self-reciprocal).

    Equal Schur-Cohn counts in |z| < 1 - e and |z| < 1 + e prove that no
    zero lies in 1 - e <= |z| < 1 + e, so either is the count.  e starts
    below half the distance from 1 of the float root modulus nearest to it,
    which only proposes it, and is halved until the counts agree; after 64
    halvings without agreement this raises ArithmeticError rather than
    guess."""
    gap = min(abs(abs(z) - 1) for z in roots(p) or [0j])
    start = max(1, 2 - math.frexp(gap)[1])  # 2^-start < gap, unless gap = 0
    for k in range(start, start + 65):
        e = Fraction(1, 2**k)
        inside = schur_cohn(p, 1 - e)
        if inside is not None and inside == schur_cohn(p, 1 + e):
            return inside
    raise ArithmeticError("Schur-Cohn counts at 1 - e and 1 + e never agreed")


def pisot_certificate(q) -> bool:
    """Whether the monic integer polynomial q provably has q(0) != 0 and all
    roots but one in a disk |z| < rho, for a rational rho < 1 read off its
    float roots.

    The remaining root is then real (non-real roots pair up) and of modulus
    > 1: for degree >= 2 the product of the moduli is |q(0)| >= 1, and for
    degree 1 the root is -q(0), so |q(0)| > 1 is required.  A monic
    integer factor of q without it would have all its roots in the unit disk
    and a nonzero integer constant term of modulus below 1, so q is
    irreducible, and that root, if positive, is a Pisot number."""
    d = len(q) - 1
    if q[0] == 0 or (d == 1 and abs(q[0]) == 1):
        return False
    zs = roots(q)
    if zs is None:
        return False
    r = sorted(abs(z) for z in zs)[-2] if d > 1 else 0.0
    if not r < 1 - 2.0**-30:
        return False
    k = math.ceil(math.log2(4 / (1 - r)))
    rho = Fraction(math.ceil((1 + r) / 2 * 2**k), 2**k)
    return schur_cohn(q, rho) == d - 1


def _conjugate_units(zs, tol: float = 1e-8):
    """The roots grouped into real singletons and complex-conjugate pairs,
    or None if they do not pair up."""
    real = [z for z in zs if abs(z.imag) <= tol * max(1.0, abs(z))]
    upper = [z for z in zs if z not in real and z.imag > 0]
    lower = [z for z in zs if z not in real and z.imag < 0]
    if len(upper) != len(lower):
        return None
    units = [(z.real,) for z in real]
    for z in upper:
        w = min(lower, key=lambda w: abs(w - z.conjugate()))
        lower.remove(w)
        units.append((z, w))
    return units


def _rounded_product(rs, tol: float = 1e-6):
    """The monic integer polynomial prod (x - r), if the float product rounds
    to one."""
    p = [1 + 0j]
    for r in rs:
        p = [0j] + p
        for i in range(len(p) - 1):
            p[i] -= r * p[i + 1]
    out = [round(c.real) for c in p]
    if all(abs(c - k) <= tol * (1 + abs(k)) for c, k in zip(p, out)):
        return out
    return None


def perron_minimal_polynomial(chi):
    """(q, lo, hi) for beta the largest real root of the monic integer
    polynomial chi, when a certificate is found: q is the minimal
    polynomial of beta, proved irreducible and with beta Pisot by
    ``pisot_certificate``, and [lo, hi], of width 2^-23, holds beta, no
    other root of chi, and no root of chi lies above it.  None otherwise.

    Candidates for q are the products over sets of float roots that contain
    beta and round to monic integer polynomials, smallest degree first.  A
    candidate is kept only if it divides chi exactly and changes sign across
    [lo, hi], which a Sturm count isolates beta in."""
    s = [int(c) for c in squarefree(chi)]
    zs = roots(s)
    units = _conjugate_units(zs) if zs else None
    if not units or not any(len(u) == 1 for u in units):
        return None
    top = max((u for u in units if len(u) == 1), key=lambda u: u[0])
    centre = Fraction(round(top[0] * 2**26), 2**26)
    lo, hi = centre - Fraction(1, 2**24), centre + Fraction(1, 2**24)
    chain = sturm(s)
    v_lo, v_hi = (sign_changes(peval(q, x) for q in chain) for x in (lo, hi))
    v_inf = sign_changes(q[-1] for q in chain)
    if v_lo - v_hi != 1 or v_lo - v_inf != 1 or peval(s, lo) == 0 or peval(s, hi) == 0:
        return None
    others = [u for u in units if u is not top]
    subsets = sorted((c for k in range(len(others) + 1) for c in combinations(others, k)),
                     key=lambda c: sum(map(len, c)))
    for subset in subsets:
        q = _rounded_product([r for u in (top, *subset) for r in u])
        if q is None or pdivmod(s, q)[1] or (peval(q, lo) > 0) == (peval(q, hi) > 0):
            continue
        return (q, lo, hi) if pisot_certificate(q) else None
    return None


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

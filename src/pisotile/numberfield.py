"""Exact arithmetic in a real number field Q(beta).

Elements are vectors of rationals in the power basis 1, beta, ..., beta^(d-1),
where beta is the unique root of a monic irreducible integer polynomial inside
a rational isolating interval.  All comparisons are decided exactly: the zero
test is coefficient-wise, and signs of nonzero elements are obtained by
refining a rational enclosure of beta until the evaluated enclosure of the
element excludes 0.  Floats decide a sign only when a proven bound on their
error separates the value from 0 (see ``NumberField._float_enclosure``);
otherwise the exact refinement decides.

``IntEnclosure`` gives the same kind of proven float enclosure for integer
vectors over a fixed denominator, the coordinates in which the tiling
layer keeps the points of its translation module.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence, Union

from .algebra import count_roots, derivative, pdivmod, peval, pisot_certificate, pmul, psub

RationalLike = Union[int, Fraction]

# Width of the enclosure of beta that the float table is taken from.
_TABLE_WIDTH = Fraction(1, 2**80)
_U = 2.0**-53  # unit roundoff of binary64


def _float_up(q: Fraction) -> float:
    """The least float >= the nonnegative rational q."""
    f = float(q)
    return f if Fraction(f) >= q else math.nextafter(f, math.inf)


class FieldMismatchError(ValueError):
    """Raised when combining elements of different number fields."""


def _sympy_poly(coeffs):
    """coeffs (ascending) as a sympy Poly in x.  sympy is imported here, and
    only when a certificate of the standard-library path fails."""
    import sympy

    return sympy.Poly(list(reversed(coeffs)), sympy.Symbol("x"))


def _interval_mul(a, b):
    """Product of two rational intervals."""
    products = (a[0] * b[0], a[0] * b[1], a[1] * b[0], a[1] * b[1])
    return min(products), max(products)


def _interval_poly_eval(coeffs, lo, hi):
    """Enclosure of poly(x) for x in [lo, hi], ascending coefficients."""
    acc = (Fraction(0), Fraction(0))
    for c in reversed(coeffs):
        acc = _interval_mul(acc, (lo, hi))
        acc = (acc[0] + c, acc[1] + c)
    return acc


class NumberField:
    """The field Q(beta) for beta the root of ``min_poly`` in an isolating interval.

    ``min_poly`` is a monic integer polynomial (ascending coefficients,
    leading coefficient 1) irreducible over Q.  The isolating interval must
    contain exactly one real root, with lower endpoint >= 1, and the
    polynomial must change sign across it so bisection refinement works.
    ``irreducible=True`` states that the caller has proved min_poly
    irreducible (perron_data does), so that proof is not run again.
    """

    def __init__(self, min_poly: Sequence[int], interval: tuple[RationalLike, RationalLike],
                 irreducible: bool = False):
        coeffs = tuple(int(c) for c in min_poly)
        if len(coeffs) < 2 or coeffs[-1] != 1:
            raise ValueError("min_poly must be monic of degree >= 1")
        lo, hi = Fraction(interval[0]), Fraction(interval[1])
        if lo < 1:
            raise ValueError("isolating interval must have lower bound >= 1")
        if not (irreducible or pisot_certificate(coeffs) or _sympy_poly(coeffs).is_irreducible):
            raise ValueError("min_poly is reducible over Q")
        if count_roots(coeffs, lo, hi) != 1:
            raise ValueError("interval does not isolate exactly one real root")
        self.min_poly = coeffs
        self.degree = len(coeffs) - 1
        # Nudge endpoints off the root so the interval carries a sign change.
        frac_coeffs = [Fraction(c) for c in coeffs]
        while peval(frac_coeffs, lo) == 0 or peval(frac_coeffs, hi) == 0:
            width = hi - lo
            lo, hi = lo - width / 3, hi + width / 3
            if count_roots(coeffs, lo, hi) != 1:
                raise ValueError("cannot normalize isolating interval")
        self._lo, self._hi = lo, hi
        self._frac_coeffs = frac_coeffs
        self._sign_lo = 1 if peval(frac_coeffs, lo) > 0 else -1
        self._newton(_TABLE_WIDTH)
        # beta^k for k = d .. 2d-2, reduced into the power basis.
        self._pow_table = self._build_pow_table()
        self._build_float_table()

    def _build_pow_table(self):
        d = self.degree
        table = []
        # beta^d = -(a_0 + a_1 beta + ... + a_{d-1} beta^{d-1})
        cur = [Fraction(-c) for c in self.min_poly[:d]]
        table.append(tuple(cur))
        for _ in range(d - 1):
            shifted = [Fraction(0)] + cur[:-1]
            top = cur[-1]
            cur = [s + top * t for s, t in zip(shifted, table[0])]
            table.append(tuple(cur))
        return table

    def _power_floats(self, den: int = 1) -> tuple[tuple[float, float, float], ...]:
        """(b_k, e_k, B_k) for k < d: floats with |beta^k/den - b_k| <= e_k and
        B_k >= |b_k| + e_k >= beta^k/den.

        beta lies in [lo, hi] with 1 <= lo, so beta^k/den lies in
        [lo^k/den, hi^k/den]; b_k is the float nearest its midpoint m_k and
        e_k the least float >= the half-width + |m_k - b_k|.
        """
        lo, hi = self.enclosure(_TABLE_WIDTH)
        table = []
        for k in range(self.degree):
            plo, phi = lo**k / den, hi**k / den
            m = (plo + phi) / 2
            b = float(m)
            e = _float_up((phi - plo) / 2 + abs(m - Fraction(b)))
            table.append((b, e, _float_up(abs(Fraction(b)) + Fraction(e))))
        return tuple(table)

    def _build_float_table(self) -> None:
        """fl(beta^k) for k < d with proven error bounds (_power_floats), and
        the constants of the bound in _float_enclosure."""
        d = self.degree
        table = self._float_table = self._power_floats()
        self._err_pad = 1 + 2 * (d + 5) * _U
        self._ulp_pad = 4 * (d + 2) * _U
        self._err_floor = (sum(t[2] for t in table) + 4 * d + 4) * 2.0**-1000

    def _float_enclosure(self, coeffs) -> tuple[float, float]:
        """(mid, err) with |sum c_k beta^k - mid| <= err, in O(d) float
        operations; err is inf (abstain) if a float overflows.

        With u = 2^-53, eta = 2^-1074 (the least subnormal), f_k = fl(c_k),
        E = sum |f_k| e_k and T = sum |f_k| B_k:

        1. float(c_k) is int / int, faithfully rounded: |c_k - f_k| <= 2u|c_k|
           + eta, hence <= 2.01u|f_k| + 1.01 eta.
        2. |c_k beta^k - f_k b_k| <= |c_k - f_k| B_k + |f_k| e_k.
        3. p_k = fl(f_k b_k): |p_k - f_k b_k| <= u|f_k| B_k + eta.
        4. mid = fl(sum p_k), d additions: |mid - sum p_k| <= gamma_d sum |p_k|
           with gamma_d = du / (1 - du) <= 1.01du, and |p_k| <= (1+u)|f_k| B_k
           + eta.  Additions are exact in the subnormal range.

        So |x - mid| <= E + 2(d + 2)uT + eta(2 sum B_k + 2d).  E_f and T_f, the
        float evaluations of E and T, fall short of them by at most a factor
        (1 - u)^(d+1) and d eta; the three roundings in forming err by a
        factor (1 - u)^3.  Hence err = E_f (1 + 2(d+5)u) + 4(d+2)u T_f +
        (sum B_k + 4d + 4) 2^-1000 covers every term, the last one being the
        underflow floor.
        """
        mid = tot = err = 0.0
        try:
            for c, (b, e, bound) in zip(coeffs, self._float_table):
                if c:
                    f = float(c)
                    mid += f * b
                    a = abs(f)
                    err += a * e
                    tot += a * bound
        except OverflowError:
            return 0.0, math.inf
        err = err * self._err_pad + self._ulp_pad * tot + self._err_floor
        if not (math.isfinite(mid) and err < math.inf):
            return 0.0, math.inf
        return mid, err

    def _newton(self, width: Fraction) -> None:
        """Narrow the isolating interval to ``width`` in one step, where it
        can: float Newton iterations from its midpoint, one Newton step in
        rationals, and the interval of that width centred on the result
        rounded to a multiple of width/2.  It is kept only if it lies inside
        the isolating interval and the polynomial changes sign across it;
        otherwise ``refine`` bisects as before."""
        p = self._frac_coeffs
        dp = derivative(p)
        try:
            fp, fdp = [float(c) for c in p], [float(c) for c in dp]
            x = float((self._lo + self._hi) / 2)
            for _ in range(8):
                x -= peval(fp, x) / peval(fdp, x)
            r = Fraction(x)
            r -= peval(p, r) / peval(dp, r)
        except (ZeroDivisionError, OverflowError, ValueError):
            return  # a float overflowed or was not finite, or p'(x) = 0
        half = width / 2
        mid = round(r / half) * half
        lo, hi = mid - half, mid + half
        if self._lo <= lo and hi <= self._hi:
            s_lo, s_hi = peval(p, lo), peval(p, hi)
            if s_lo * s_hi < 0:
                self._lo, self._hi, self._sign_lo = lo, hi, 1 if s_lo > 0 else -1

    def refine(self) -> None:
        """Halve the isolating interval by one bisection step."""
        mid = (self._lo + self._hi) / 2
        val = peval(self._frac_coeffs, mid)
        if val == 0:
            # mid is rational, impossible for irreducible degree >= 2;
            # for degree 1 the root is exact and refinement keeps it interior.
            width = (self._hi - self._lo) / 4
            self._lo, self._hi = mid - width, mid + width
            return
        if (1 if val > 0 else -1) == self._sign_lo:
            self._lo = mid
        else:
            self._hi = mid

    def enclosure(self, width: Fraction) -> tuple[Fraction, Fraction]:
        """Rational interval around beta of width at most ``width``."""
        while self._hi - self._lo > width:
            self.refine()
        return self._lo, self._hi

    def zero(self) -> "AlgebraicReal":
        return AlgebraicReal(self, (Fraction(0),) * self.degree)

    def one(self) -> "AlgebraicReal":
        return self.from_rational(1)

    def beta(self) -> "AlgebraicReal":
        if self.degree == 1:
            return self.from_rational(-self.min_poly[0])
        coeffs = [Fraction(0)] * self.degree
        coeffs[1] = Fraction(1)
        return AlgebraicReal(self, tuple(coeffs))

    def from_rational(self, q: RationalLike) -> "AlgebraicReal":
        coeffs = [Fraction(0)] * self.degree
        coeffs[0] = Fraction(q)
        return AlgebraicReal(self, tuple(coeffs))

    def element(self, coeffs: Sequence[RationalLike]) -> "AlgebraicReal":
        cs = [Fraction(c) for c in coeffs]
        if len(cs) > self.degree:
            raise ValueError("too many coordinates")
        cs += [Fraction(0)] * (self.degree - len(cs))
        return AlgebraicReal(self, tuple(cs))

    def __eq__(self, other):
        return isinstance(other, NumberField) and self.min_poly == other.min_poly

    def __hash__(self):
        return hash(self.min_poly)

    def __repr__(self):
        terms = " + ".join(f"{c}*x^{i}" for i, c in enumerate(self.min_poly) if c)
        return f"NumberField({terms}, beta in [{self._lo}, {self._hi}])"


class IntEnclosure:
    """Proven float enclosures of x = sum_k v_k beta^k / den for integer
    vectors v, in O(d) float operations.

    With u = 2^-53, eta = 2^-1074, n = max |v_k| and (b_k, e_k, B_k) from
    NumberField._power_floats(den):

    1. f_k = float(v_k) is correctly rounded, and integers do not underflow:
       |v_k - f_k| <= u n and |f_k| <= (1 + u) n.
    2. |v_k beta^k/den - f_k b_k| <= |v_k - f_k| B_k + |f_k| e_k
       <= u n B_k + (1 + u) n e_k.
    3. p_k = fl(f_k b_k): |p_k - f_k b_k| <= u |f_k b_k| + eta
       <= u (1 + u) n B_k + eta.
    4. mid = fl(sum p_k), d - 1 additions: |mid - sum p_k| <= gamma sum |p_k|
       with gamma = (d-1)u / (1 - (d-1)u) <= 1.01 (d-1) u, and
       sum |p_k| <= (1 + u)^2 n sum B_k + d eta.

    The u-terms on sum B_k add up to at most (1.01 d + 2) u, and the eta
    terms to at most 2 d eta.  For v != 0, n >= 1, so |x - mid| <= n K with
    K = (1 + u) sum e_k + (1.01 d + 2) u sum B_k + 2 d eta.  The error is
    err = fl(fl(n) k) with k >= K (1 + 3u), which the two roundings cannot
    pull below n K.  For v = 0 both mid and err are 0.  If a coordinate or
    the sum overflows a float, the enclosure abstains: err is inf.
    """

    def __init__(self, field: NumberField, den: int):
        table = field._power_floats(den)
        d = field.degree
        u, eta = Fraction(_U), Fraction(2) ** -1074
        k = ((1 + u) * sum(Fraction(e) for _, e, _ in table)
             + (Fraction(101, 100) * d + 2) * u * sum(Fraction(b) for _, _, b in table)
             + 2 * d * eta)
        self._b = tuple(b for b, _, _ in table)
        self._k = _float_up(k * (1 + 3 * u))

    def bound(self, n: int) -> float:
        """An error bound valid for every vector with max |v_k| <= n."""
        try:
            return n * self._k
        except OverflowError:
            return math.inf

    def __call__(self, v) -> tuple[float, float]:
        """(mid, err) with |sum v_k beta^k / den - mid| <= err."""
        mid = 0.0
        try:
            for c, b in zip(v, self._b):
                mid += c * b
            err = max(map(abs, v)) * self._k
        except OverflowError:
            return 0.0, math.inf
        if not (math.isfinite(mid) and err < math.inf):
            return 0.0, math.inf
        return mid, err


class AlgebraicReal:
    """An element of Q(beta) as a rational vector in the power basis."""

    __slots__ = ("field", "coeffs", "_float")

    def __init__(self, field: NumberField, coeffs: tuple[Fraction, ...]):
        self.field = field
        self.coeffs = coeffs
        self._float = None

    # -- ring structure -----------------------------------------------------

    def _coerce(self, other) -> "AlgebraicReal":
        if isinstance(other, AlgebraicReal):
            if other.field != self.field:
                raise FieldMismatchError("elements belong to different number fields")
            return other
        if isinstance(other, (int, Fraction)):
            return self.field.from_rational(other)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return AlgebraicReal(self.field, tuple(a + b for a, b in zip(self.coeffs, o.coeffs)))

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return AlgebraicReal(self.field, tuple(a - b for a, b in zip(self.coeffs, o.coeffs)))

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __neg__(self):
        return AlgebraicReal(self.field, tuple(-a for a in self.coeffs))

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        d = self.field.degree
        raw = [Fraction(0)] * (2 * d - 1)
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(o.coeffs):
                if b:
                    raw[i + j] += a * b
        out = raw[:d]
        for k in range(d, 2 * d - 1):
            c = raw[k]
            if c:
                row = self.field._pow_table[k - d]
                for i in range(d):
                    out[i] += c * row[i]
        return AlgebraicReal(self.field, tuple(out))

    __rmul__ = __mul__

    def inverse(self) -> "AlgebraicReal":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero field element")
        # Extended Euclid of the element polynomial with min_poly over Q.
        a = list(self.field._frac_coeffs)
        b = list(self.coeffs)
        s0, s1 = [Fraction(0)], [Fraction(1)]

        def _trim(p):
            while p and p[-1] == 0:
                p.pop()
            return p

        a, b = _trim(a), _trim(b)
        while b:
            q, r = pdivmod(a, b)
            a, b = b, r
            s0, s1 = s1, psub(s0, pmul(q, s1))
        # a is a nonzero constant gcd.
        inv = [c / a[0] for c in s0]
        inv = inv[: self.field.degree]
        inv += [Fraction(0)] * (self.field.degree - len(inv))
        return AlgebraicReal(self.field, tuple(inv))

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        result = self.field.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    # -- exact decisions ----------------------------------------------------

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def sign(self) -> int:
        """-1, 0 or +1, decided exactly."""
        if self.is_zero():
            return 0
        mid, err = self._approx()
        if abs(mid) > err:
            return 1 if mid > 0 else -1
        return next(1 if lo > 0 else -1 for lo, hi in self.enclosures() if lo > 0 or hi < 0)

    def enclosures(self):
        """Rational enclosures of the value, endlessly, each evaluated on an
        enclosure of beta half as wide as the one before."""
        width = self.field._hi - self.field._lo
        while True:
            yield _interval_poly_eval(self.coeffs, self.field._lo, self.field._hi)
            width /= 2
            self.field.enclosure(width)

    def __eq__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self.coeffs == o.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __lt__(self, other):
        return (self - other).sign() < 0

    def __le__(self, other):
        return (self - other).sign() <= 0

    def __gt__(self, other):
        return (self - other).sign() > 0

    def __ge__(self, other):
        return (self - other).sign() >= 0

    def _approx(self) -> tuple[float, float]:
        """(midpoint, error bound) from the field's float table, cached.

        Used as the fast path of sign() and fast_cmp(); an infinite bound
        means the floats abstained and the exact refinement decides.
        """
        if self._float is None:
            self._float = self.field._float_enclosure(self.coeffs)
        return self._float

    def __float__(self):
        """The value to within 2^-40 relative: the float table's midpoint if
        its proven bound is below 2^-41 of it, else the midpoint of an exact
        enclosure that excludes 0 and is narrower than 2^-53 of its ends."""
        if self.is_zero():
            return 0.0
        mid, err = self._approx()
        if err <= abs(mid) * 2.0**-41:
            return mid
        return next(
            float((lo + hi) / 2) for lo, hi in self.enclosures()
            if (lo > 0 or hi < 0) and hi - lo <= min(abs(lo), abs(hi)) / 2**53
        )

    def __repr__(self):
        parts = []
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            if i == 0:
                parts.append(str(c))
            elif i == 1:
                parts.append(f"{c}*b")
            else:
                parts.append(f"{c}*b^{i}")
        return " + ".join(parts) if parts else "0"


def fast_cmp(a: AlgebraicReal, b: AlgebraicReal) -> int:
    """sign(a - b) using cached rigorous approximations when they already
    separate the values, falling back to exact refinement otherwise."""
    ma, ea = a._approx()
    mb, eb = b._approx()
    d = ma - mb
    margin = ea + eb + 1e-12 * (abs(ma) + abs(mb)) + 1e-300
    if d > margin:
        return 1
    if -d > margin:
        return -1
    return (a - b).sign()


# -- the Pisot test -----------------------------------------------------------


def _cubic_discriminant(coeffs: tuple[int, ...]) -> int:
    """Discriminant of x^3 + b x^2 + c x + e, given as (e, c, b, 1)."""
    e, c, b, _ = coeffs
    return 18 * b * c * e - 4 * b**3 * e + b**2 * c**2 - 4 * c**3 - 27 * e**2


def _is_reciprocal(coeffs: tuple[int, ...]) -> bool:
    rev = tuple(reversed(coeffs))
    return coeffs == rev or coeffs == tuple(-c for c in rev)


def is_pisot(min_poly: Sequence[int], beta_interval: tuple[RationalLike, RationalLike]) -> bool:
    """True iff the root of min_poly in the interval is a Pisot number.

    Every conjugate other than beta must have modulus strictly below 1.  For
    an interval above 1, ``pisot_certificate`` proves this, and the
    irreducibility of min_poly, without sympy.  Otherwise sympy checks
    irreducibility, and then: when the conjugates all have one modulus
    (degree 2, or degree 3 with a complex pair), the norm decides; else real
    conjugates are compared to +-1 exactly, and complex conjugates are
    bounded via rigorous isolating-rectangle refinement.  Roots of modulus
    exactly 1 occur only for self-reciprocal polynomials, which are handled
    separately, so the refinement loop terminates.
    """
    coeffs = tuple(int(c) for c in min_poly)
    if coeffs[-1] != 1:
        raise ValueError("min_poly must be monic")
    lo, hi = Fraction(beta_interval[0]), Fraction(beta_interval[1])
    if lo >= 1 and pisot_certificate(coeffs) and count_roots(coeffs, lo, hi) == 1:
        return True
    poly = _sympy_poly(coeffs)
    if not poly.is_irreducible:
        raise ValueError("min_poly must be irreducible")
    d = len(coeffs) - 1
    if count_roots(coeffs, lo, hi) != 1:
        raise ValueError("interval does not isolate a root")
    if d == 1:
        return -coeffs[0] > 1  # beta = -a_0, no conjugates
    if d == 2 or (d == 3 and _cubic_discriminant(coeffs) < 0):
        # The conjugates share one modulus r: there is one (d = 2), or a
        # complex pair (d = 3 with a negative discriminant).  With beta they
        # multiply to +-a_0, so r^(d-1) = |a_0| / beta, and beta is Pisot iff
        # |a_0| < beta.  beta is irrational, so the two differ, and the
        # polynomial has the same sign at |a_0| as at lo iff beta lies above.
        n = abs(coeffs[0])
        if n <= lo or n >= hi:
            return n <= lo
        return (peval(coeffs, n) > 0) == (peval(coeffs, lo) > 0)
    if _is_reciprocal(coeffs):
        # Roots pair up as r, 1/r.  Degree 2 gives the single conjugate
        # +-1/beta; higher degree forces a second root of modulus >= 1.
        return d == 2
    for root in poly.all_roots(radicals=False):
        if root.is_real:
            if lo <= root <= hi:
                continue  # beta itself
            if not (-1 < root < 1):
                return False
        else:
            itv = root._get_interval()
            while True:
                ax, bx = Fraction(str(itv.ax)), Fraction(str(itv.bx))
                ay, by = Fraction(str(itv.ay)), Fraction(str(itv.by))
                far = max(ax * ax, bx * bx) + max(ay * ay, by * by)
                near_x = Fraction(0) if ax <= 0 <= bx else min(abs(ax), abs(bx))
                near_y = Fraction(0) if ay <= 0 <= by else min(abs(ay), abs(by))
                near = near_x * near_x + near_y * near_y
                if far < 1:
                    break
                if near > 1:
                    return False
                itv = itv.refine()
    return True

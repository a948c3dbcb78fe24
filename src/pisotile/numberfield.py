"""Exact arithmetic in a real number field Q(beta).

beta is the unique root of a monic irreducible integer polynomial inside a
rational isolating interval.  An element x = sum_k v_k beta^k / D is held as
(D, v): an integer vector v in the power basis 1, beta, ..., beta^(d-1) over
a denominator D > 0, in lowest terms (``reduced``), the form in which the
tiling and overlap layers keep their points too.  min_poly is monic with
integer coefficients, so a product reduces in integers and an inverse is an
integer adjugate.

A sign is decided by one routine, ``NumberField.compare``, on points
(D, v, mid, err) that carry a proven float enclosure from ``IntEnclosure``:
the floats decide when they separate the two points; otherwise the exact
sign of an integer vector decides, by refining a rational enclosure of beta
until the evaluated enclosure of the value excludes 0.

The algebra kernel's proven inclusion disks of the conjugates prove
min_poly irreducible (``perron_minimal_polynomial``), and the same stream
of disks goes on to check and refine the enclosure of beta (``isolate``).
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from fractions import Fraction

from .algebra import CapExceededError, adjugate, isolate, mat_vec, perron_minimal_polynomial

RationalLike = int | Fraction

# Width of the enclosure of beta that the float table is taken from.
_TABLE_WIDTH = Fraction(1, 2**80)
_U = 2.0**-53  # unit roundoff of binary64
_TINY = 2.0**-1072  # four times the least subnormal


def _float_up(q: Fraction) -> float:
    """The least float >= the nonnegative rational q."""
    f = float(q)
    return f if Fraction(f) >= q else math.nextafter(f, math.inf)


def reduced(den: int, v) -> tuple[int, tuple[int, ...]]:
    """(D, w) with w / D = v / den, D > 0 and gcd(D, w) = 1."""
    g = math.gcd(den, *v)
    if den < 0:
        g = -g
    if g == 1:
        return den, tuple(v)
    return den // g, tuple([c // g for c in v])


def combine(x, y, sign: int = 1) -> tuple[int, tuple[int, ...]]:
    """x + sign * y for points (D, v), in lowest terms."""
    (dx, vx), (dy, vy) = x, y
    den = math.lcm(dx, dy)
    fx, fy = den // dx, sign * (den // dy)
    return reduced(den, [a * fx + b * fy for a, b in zip(vx, vy)])


class FieldMismatchError(ValueError):
    """Raised when combining elements of different number fields."""


def _interval_poly_eval(coeffs, lo, hi):
    """Enclosure of poly(x) for x in [lo, hi], integer coefficients in
    ascending order, by interval Horner steps on integers over powers of t,
    the common denominator of lo and hi."""
    t = math.lcm(lo.denominator, hi.denominator)
    a, b = lo.numerator * (t // lo.denominator), hi.numerator * (t // hi.denominator)
    acc_lo = acc_hi = 0
    scale = 1
    for c in reversed(coeffs):
        products = (acc_lo * a, acc_lo * b, acc_hi * a, acc_hi * b)
        acc_lo, acc_hi = min(products) + c * scale, max(products) + c * scale
        scale *= t
    return Fraction(acc_lo * t, scale), Fraction(acc_hi * t, scale)


class NumberField:
    """The field Q(beta) for beta the root of ``min_poly`` in an isolating interval.

    ``min_poly`` is a monic integer polynomial (ascending coefficients,
    leading coefficient 1) irreducible over Q.  The isolating interval must
    contain exactly one real root, with lower endpoint >= 1.  ``disks`` is
    the stream of inclusion disks that proved min_poly irreducible, as
    ``perron_minimal_polynomial`` hands it on (perron_data passes it).
    Without it, a field of degree >= 2 runs that proof itself and keeps its
    stream.

    The enclosures of beta are the intervals that ``isolate`` refines from
    that stream, in a list that copies of the field share, each at its own
    place in it.

    ``beta_matrix`` is multiplication by beta on power-basis vectors, the
    integer companion matrix (column convention: beta * v = beta_matrix v),
    and ``floats`` the proven float enclosure of points (IntEnclosure).
    """

    def __init__(self, min_poly: Sequence[int], interval: tuple[RationalLike, RationalLike],
                 disks=None):
        coeffs = tuple(int(c) for c in min_poly)
        if len(coeffs) < 2 or coeffs[-1] != 1:
            raise ValueError("min_poly must be monic of degree >= 1")
        lo, hi = Fraction(interval[0]), Fraction(interval[1])
        if lo < 1:
            raise ValueError("isolating interval must have lower bound >= 1")
        if disks is None and len(coeffs) > 2:
            q, _, _, _, disks = perron_minimal_polynomial(coeffs)
            if q != list(coeffs):
                raise ValueError("min_poly is reducible over Q")
        self.min_poly = coeffs
        d = self.degree = len(coeffs) - 1
        self._source, self._spans, self._at = isolate(coeffs, lo, hi, disks), [], -1
        self.refine()  # the first span, or ValueError
        self.beta_matrix = tuple(
            tuple((1 if j == i - 1 else 0) - (coeffs[i] if j == d - 1 else 0) for j in range(d))
            for i in range(d)
        )
        # beta^k for k = d .. 2d-2, reduced into the power basis.
        self._pow_table = self._build_pow_table()
        self.floats = IntEnclosure(self)
        self._zero = (1, (0,) * d, 0.0, 0.0)

    def _build_pow_table(self):
        d = self.degree
        # beta^d = -(a_0 + a_1 beta + ... + a_{d-1} beta^{d-1})
        cur = tuple(-c for c in self.min_poly[:d])
        table = [cur]
        for _ in range(d - 1):
            cur = self.times_beta(cur)
            table.append(cur)
        return table

    def times_beta(self, v) -> tuple[int, ...]:
        return mat_vec(self.beta_matrix, v)

    def refine(self) -> None:
        """Move to the next, narrower enclosure of beta; CapExceededError
        past the refinement limit of the inclusion disks."""
        at = self._at + 1
        if at == len(self._spans):
            span = next(self._source, None)
            if span is None:  # the disks raised the cap error before
                raise CapExceededError("the inclusion disks reached their refinement limit")
            self._spans.append(span)
        self._at = at
        self._lo, self._hi = self._spans[at]

    def enclosure(self, width: Fraction) -> tuple[Fraction, Fraction]:
        """Rational interval around beta of width at most ``width``."""
        while self._hi - self._lo > width:
            self.refine()
        return self._lo, self._hi

    def value_enclosures(self, w):
        """Rational enclosures of sum_k w_k beta^k, endlessly, each
        evaluated on the next enclosure of beta."""
        while True:
            yield _interval_poly_eval(w, self._lo, self._hi)
            self.refine()

    def exact_sign(self, w) -> int:
        """The sign of sum_k w_k beta^k for an integer vector w: 0 iff w = 0
        (1, beta, ..., beta^(d-1) are linearly independent over Q), else
        from the first enclosure of the value that excludes 0."""
        if not any(w):
            return 0
        return next(1 if lo > 0 else -1 for lo, hi in self.value_enclosures(w) if lo > 0 or hi < 0)

    def compare(self, x, y) -> int:
        """sign(x - y) for points x = (D, v, mid, err) with D > 0 and
        |sum_k v_k beta^k / D - mid| <= err (IntEnclosure), and likewise y.

        The floats decide when |mid_x - mid_y| > 2 (err_x + err_y).  With
        u = 2^-53, diff = fl(mid_x - mid_y) = (mid_x - mid_y)(1 + delta),
        |delta| <= u, so |mid_x - mid_y - diff| <= u |diff| / (1 - u), and
        (x - y) - diff is at most err_x + err_y + u |diff| / (1 - u).  The
        test compares |diff| with 2 fl(err_x + err_y) >= 2 (1 - u)(err_x +
        err_y), so it passes only if err_x + err_y < |diff| / (2 (1 - u)),
        and then |(x - y) - diff| < |diff| (1/2 + u) / (1 - u) < |diff|:
        x - y has the sign of diff.  A difference that overflows to +-inf
        passes only against finite errors below 2^1023, which it exceeds.
        An infinite error (an abstaining enclosure) never passes.

        Otherwise x - y = w / (D_x D_y) with w = D_y v_x - D_x v_y, and the
        exact sign of the integer vector w decides (NumberField.exact_sign).
        """
        diff = x[2] - y[2]
        if abs(diff) > 2 * (x[3] + y[3]):
            return 1 if diff > 0 else -1
        (dx, vx, _, _), (dy, vy, _, _) = x, y
        return self.exact_sign([a * dy - b * dx for a, b in zip(vx, vy)])

    def enclosed(self, den: int, v) -> tuple:
        """The point (den, v, mid, err) of the integer vector v over den."""
        return (den, v, *self.floats(v, den))

    def point(self, den: int, v) -> "AlgebraicReal":
        """The field element sum_k v_k beta^k / den, for integers v_k."""
        return AlgebraicReal(self, *reduced(den, v))

    def zero(self) -> "AlgebraicReal":
        return self.element(())

    def one(self) -> "AlgebraicReal":
        return self.from_rational(1)

    def beta(self) -> "AlgebraicReal":
        if self.degree == 1:
            return self.from_rational(-self.min_poly[0])
        return self.element((0, 1))

    def from_rational(self, q: RationalLike) -> "AlgebraicReal":
        return self.element((q,))

    def element(self, coeffs: Sequence[RationalLike]) -> "AlgebraicReal":
        """The element with the given rational power-basis coordinates."""
        cs = [Fraction(c) for c in coeffs]
        if len(cs) > self.degree:
            raise ValueError("too many coordinates")
        cs += [Fraction(0)] * (self.degree - len(cs))
        den = math.lcm(*(c.denominator for c in cs))
        return self.point(den, [c.numerator * (den // c.denominator) for c in cs])

    def __eq__(self, other):
        return isinstance(other, NumberField) and self.min_poly == other.min_poly

    def __hash__(self):
        return hash(self.min_poly)

    def __repr__(self):
        terms = " + ".join(f"{c}*x^{i}" for i, c in enumerate(self.min_poly) if c)
        return f"NumberField({terms}, beta in [{self._lo}, {self._hi}])"


class IntEnclosure:
    """Proven float enclosures of x = sum_k v_k beta^k / D for integer
    vectors v and integers D >= 1, in O(d) float operations: the field's
    one table, fl(beta^k) with error bounds, serves every denominator.

    With beta in [lo, hi] (width at most 2^-80, lo >= 1), beta^k lies in
    [lo^k, hi^k]; b_k is the float nearest the midpoint m_k of that
    interval, e_k the least float >= its half-width + |m_k - b_k|, and B_k
    the least float >= |b_k| + e_k, so |beta^k - b_k| <= e_k and
    beta^k <= B_k.  With u = 2^-53, eta = 2^-1074, N = sum_k v_k beta^k,
    n = max |v_k| >= 1 (v = 0 gives mid = err = 0 exactly) and
    gamma = (d-1)u / (1 - (d-1)u) <= 1.01 (d-1) u:

    1. f_k = float(v_k) is correctly rounded, and integers do not underflow:
       |v_k - f_k| <= u n and |f_k| <= (1 + u) n.
    2. |v_k beta^k - f_k b_k| <= |v_k - f_k| B_k + |f_k| e_k
       <= u n B_k + (1 + u) n e_k.
    3. p_k = fl(f_k b_k): |p_k - f_k b_k| <= u |f_k b_k| + eta
       <= u (1 + u) n B_k + eta.
    4. m = fl(sum p_k), d - 1 additions: |m - sum p_k| <= gamma sum |p_k|,
       with sum |p_k| <= (1 + u)^2 n sum B_k + d eta.  The u-terms on
       sum B_k add up to at most (1.01 d + 2) u, and the eta terms to at
       most 2 d eta, so |N - m| <= n K with K = (1 + u) sum e_k +
       (1.01 d + 2) u sum B_k + 2 d eta.  Also |m| <= 1.01 n sum B_k +
       2 d eta.
    5. Df = float(D) is correctly rounded, |Df - D| <= u D, and
       mid = fl(m / Df) is within u |m| / Df + eta of m / Df.  Since
       |N/D - m/Df| <= (|N| |Df - D| / D + |N - m|) / Df
       <= (u |m| + (1 + u) |N - m|) / Df, altogether |x - mid| <=
       ((1 + u) |N - m| + 2 u |m|) / Df + eta <= n K' / Df + 2 eta with
       K' = (1 + u) K + 2.03 u sum B_k (Df >= 1, and the 4 u d eta of
       2 u |m| is below eta).
    6. err = fl(fl(fl(n) k) / Df) + 2^-1072, rounded, with k >= K' (1 + 5u):
       fl(n) and the three roundings lose at most a factor (1 - u) each,
       and the quotient eta/2 more when it is subnormal, so
       err >= (1 - u)^4 n k / Df + 3.5 (1 - u) eta >= n K' / Df + 2 eta.

    A coordinate, D or a result that overflows a float makes the enclosure
    abstain: err is inf, which by 4. needs n sum B_k > 2^1023.
    """

    def __init__(self, field: NumberField):
        lo, hi = field.enclosure(_TABLE_WIDTH)
        table = []
        for k in range(field.degree):
            plo, phi = lo**k, hi**k
            m = (plo + phi) / 2
            b = float(m)
            e = _float_up((phi - plo) / 2 + abs(m - Fraction(b)))
            table.append((b, e, _float_up(abs(Fraction(b)) + Fraction(e))))
        d = field.degree
        u, eta = Fraction(_U), Fraction(2) ** -1074
        big_b = sum(Fraction(bound) for _, _, bound in table)
        k = ((1 + u) * sum(Fraction(e) for _, e, _ in table)
             + (Fraction(101, 100) * d + 2) * u * big_b + 2 * d * eta)
        k = (1 + u) * k + Fraction(203, 100) * u * big_b
        self.powers = tuple(b for b, _, _ in table)  # the b_k
        self._k = _float_up(k * (1 + 5 * u))
        self._n_max = int(2**1023 / big_b)

    def bound(self, n: int, den: int = 1) -> float:
        """An error bound for every vector over den with max |v_k| <= n (inf if one may abstain)."""
        try:
            err = n * self._k / float(den) + _TINY if n <= self._n_max else math.inf
        except OverflowError:
            return math.inf
        return err

    def __call__(self, v, den: int = 1) -> tuple[float, float]:
        """(mid, err) with |sum v_k beta^k / den - mid| <= err."""
        mid = 0.0
        try:
            for c, b in zip(v, self.powers):
                mid += c * b
            n = max(map(abs, v))
            if not n:
                return 0.0, 0.0
            df = float(den)
            mid /= df
            err = n * self._k / df + _TINY
        except OverflowError:
            return 0.0, math.inf
        if not (math.isfinite(mid) and err < math.inf):
            return 0.0, math.inf
        return mid, err


class AlgebraicReal:
    """An element sum_k v_k beta^k / den of Q(beta): an integer vector v
    over a denominator den > 0, in lowest terms (build one with
    NumberField.point or element)."""

    __slots__ = ("field", "den", "v", "_point")

    def __init__(self, field: NumberField, den: int, v: tuple[int, ...]):
        self.field = field
        self.den = den
        self.v = v
        self._point = None

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The rational power-basis coordinates."""
        return tuple(Fraction(c, self.den) for c in self.v)

    # -- ring structure -----------------------------------------------------

    def _coerce(self, other) -> "AlgebraicReal":
        if isinstance(other, AlgebraicReal):
            if other.field is not self.field and other.field != self.field:
                raise FieldMismatchError("elements belong to different number fields")
            return other
        if isinstance(other, (int, Fraction)):
            return self.field.from_rational(other)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return AlgebraicReal(self.field, *combine((self.den, self.v), (o.den, o.v)))

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return AlgebraicReal(self.field, *combine((self.den, self.v), (o.den, o.v), -1))

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __neg__(self):
        return AlgebraicReal(self.field, self.den, tuple(-c for c in self.v))

    def __mul__(self, other):
        """The integer convolution of the vectors, reduced by the integer
        power table of beta^d .. beta^(2d-2), over the product of the
        denominators."""
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        field = self.field
        d = field.degree
        raw = [0] * (2 * d - 1)
        for i, a in enumerate(self.v):
            if a:
                for j, b in enumerate(o.v):
                    raw[i + j] += a * b
        out = raw[:d]
        for c, row in zip(raw[d:], field._pow_table):
            if c:
                for i, r in enumerate(row):
                    out[i] += c * r
        return AlgebraicReal(field, *reduced(self.den * o.den, out))

    __rmul__ = __mul__

    def inverse(self) -> "AlgebraicReal":
        """D adj(M_v) e_0 / det(M_v), for M_v = sum_k v_k B^k the matrix of
        multiplication by sum_k v_k beta^k (B = beta_matrix): its columns
        are v, B v, ..., B^(d-1) v, and det(M_v) = N(sum_k v_k beta^k) != 0."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero field element")
        cols = [self.v]
        for _ in range(self.field.degree - 1):
            cols.append(self.field.times_beta(cols[-1]))
        adj, det = adjugate([list(row) for row in zip(*cols)])
        return self.field.point(det, [self.den * row[0] for row in adj])

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
        return not any(self.v)

    def enclosed(self) -> tuple:
        """The point (den, v, mid, err) with its float enclosure, cached."""
        if self._point is None:
            self._point = self.field.enclosed(self.den, self.v)
        return self._point

    def sign(self) -> int:
        """-1, 0 or +1, decided exactly (NumberField.compare against 0)."""
        return self.field.compare(self.enclosed(), self.field._zero)

    def _cmp(self, other) -> int:
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self.field.compare(self.enclosed(), o.enclosed())

    def enclosures(self):
        """Rational enclosures of the value, endlessly, each evaluated on the
        next enclosure of beta."""
        for lo, hi in self.field.value_enclosures(self.v):
            yield Fraction(lo, self.den), Fraction(hi, self.den)

    def __eq__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self.den == o.den and self.v == o.v

    def __hash__(self):
        return hash((self.den, self.v))

    def __lt__(self, other):
        c = self._cmp(other)
        return c if c is NotImplemented else c < 0

    def __le__(self, other):
        c = self._cmp(other)
        return c if c is NotImplemented else c <= 0

    def __gt__(self, other):
        c = self._cmp(other)
        return c if c is NotImplemented else c > 0

    def __ge__(self, other):
        c = self._cmp(other)
        return c if c is NotImplemented else c >= 0

    def __float__(self):
        """The value to within 2^-40 relative: the enclosure's midpoint if
        its proven bound is below 2^-41 of it, else the midpoint of an exact
        enclosure that excludes 0 and is narrower than 2^-53 of its ends."""
        if self.is_zero():
            return 0.0
        _, _, mid, err = self.enclosed()
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
    """sign(a - b) from the cached enclosures of a and b when they separate
    the values, else exactly (NumberField.compare)."""
    return a.field.compare(a._point or a.enclosed(), b._point or b.enclosed())

"""Symbolic substitutions over a finite alphabet.

Letters are 1..m.  A substitution maps each letter to a nonempty word; its
matrix counts letter occurrences in the images.  This module provides the
primitivity / irreducibility / Pisot gates and the exact Perron data (the
expansion factor beta as an algebraic number and the exact left-eigenvector
interval lengths) that the tiling layer consumes.

The minimal polynomial of beta, its isolating interval and the Pisot
verdict all come from the algebra kernel's proven inclusion disks of the
roots of the characteristic polynomial (``perron_minimal_polynomial``), and
the number field refines beta from the same stream of disks.
"""

from __future__ import annotations

from operator import mul

from .algebra import CapExceededError, adjugate_terms, char_poly, mat_mul, perron_minimal_polynomial
from .numberfield import NumberField
from .record import Record


class SubstitutionError(ValueError):
    pass


class NotPisotError(SubstitutionError):
    """The Perron root of the substitution matrix is not a Pisot number."""


class Substitution(Record):
    """rules[i] is the image word of letter i+1, as a tuple of letters 1..m."""

    _fields = ("m", "rules")

    def __init__(self, m: int, rules: tuple[tuple[int, ...], ...]):
        self.__dict__.update(m=m, rules=rules)
        if len(rules) != m:
            raise SubstitutionError("need exactly one rule per letter")
        for i, word in enumerate(rules):
            if not word:
                raise SubstitutionError(f"empty rule for letter {i + 1}")
            for a in word:
                if not 1 <= a <= m:
                    raise SubstitutionError(f"letter {a} out of range in rule {i + 1}")

    def apply(self, word):
        out = []
        for a in word:
            out.extend(self.rules[a - 1])
        return tuple(out)

    def __str__(self):
        return ", ".join(
            f"{i + 1}->{''.join(map(str, w))}" for i, w in enumerate(self.rules)
        )


def matrix(s: Substitution) -> list[list[int]]:
    """M[i][j] = number of occurrences of letter i+1 in the image of j+1."""
    M = [[0] * s.m for _ in range(s.m)]
    for j, word in enumerate(s.rules):
        for a in word:
            M[a - 1][j] += 1
    return M


def primitivity_exponent(M: list[list[int]]) -> int | None:
    """The least k >= 1 with M^k entrywise positive (for a substitution
    matrix: every sigma^k(c) holds every letter), or None when there is none
    up to the Wielandt bound (m-1)^2 + 1, that is, when M is not primitive."""
    P = M
    for k in range(1, (len(M) - 1) ** 2 + 2):
        if all(e > 0 for row in P for e in row):
            return k
        P = mat_mul(P, M)
    return None


def is_primitive(M: list[list[int]]) -> bool:
    return primitivity_exponent(M) is not None


def is_irreducible(s: Substitution, min_poly=None) -> bool:
    """Whether the characteristic polynomial of the substitution matrix is
    irreducible over Q: whether the minimal polynomial of the Perron root
    has degree m.  min_poly, when given, is that polynomial as already
    proved (perron_data's field); else ``perron_minimal_polynomial`` finds
    it here."""
    if min_poly is None:
        min_poly = perron_minimal_polynomial(char_poly(matrix(s)))[0]
    return len(min_poly) - 1 == s.m


_WORD_CAP = 10**6


def word_lengths(s: Substitution, n: int) -> list[int]:
    """|sigma^n(i)| for each letter i, without building a word: the column
    sums of M^n, with M^n by repeated squaring."""
    lengths, P = [1] * s.m, matrix(s)
    while n:
        if n & 1:
            lengths = [sum(map(mul, lengths, col)) for col in zip(*P)]
        n >>= 1
        if n:
            P = mat_mul(P, P)
    return lengths


def power(s: Substitution, n: int) -> Substitution:
    """The substitution sigma^n (rules composed n times); a rule word longer
    than _WORD_CAP raises CapExceededError before any is built."""
    if n < 1:
        raise SubstitutionError("power requires n >= 1")
    if max(word_lengths(s, n)) > _WORD_CAP:
        raise CapExceededError(f"rule words exceed cap {_WORD_CAP}")
    rules = tuple((i + 1,) for i in range(s.m))
    for _ in range(n):
        rules = tuple(s.apply(w) for w in rules)
    return Substitution(s.m, rules)


def _expr(q) -> str:
    """The monic integer polynomial q (ascending) as a Python expression in
    x, highest power first, as in x**2 - x - 3 or x - 1."""
    terms = []
    for k in reversed(range(len(q))):
        if q[k]:
            power, c = ("", "x", f"x**{k}")[min(k, 2)], abs(q[k])
            body = f"{c}*{power}" if c != 1 and power else power or str(c)
            terms.append(("- " if q[k] < 0 else "+ ") + body)
    return " ".join(terms)[2:]


def perron_data(s: Substitution):
    """(NumberField, beta, lengths) for a primitive substitution.

    beta is the Perron-Frobenius root of the substitution matrix, expressed
    in the number field of its minimal polynomial; lengths is the exact left
    eigenvector (l M = beta l) normalized so the minimum entry is 1.  The
    minimal polynomial, proved irreducible here once, and the Pisot verdict
    come from ``perron_minimal_polynomial``; the field refines beta from
    the stream of disks that proved them.

    Raises NotPisotError when beta is not a Pisot number.
    """
    M = matrix(s)
    if not is_primitive(M):
        raise SubstitutionError("substitution matrix is not primitive")
    chi = char_poly(M)
    q, lo, hi, pisot, disks = perron_minimal_polynomial(chi)
    if not pisot:
        raise NotPisotError(f"Perron root of {s} (min poly {_expr(q)}) is not Pisot")
    field = NumberField(q, (lo, hi), disks)
    return field, field.beta(), _left_eigenvector(M, chi, field)


def _left_eigenvector(M, chi, field: NumberField):
    """The left eigenvector l M = beta l, normalized to min entry 1: the
    first nonzero row of adj(beta I - M).

    adj(A) A = det(A) I vanishes at A = beta I - M, so each row of adj(A)
    is a left eigenvector or zero, and beta, a simple root of chi, leaves
    adj(A) of rank 1.  Its entries are sum_k B_k[i][j] beta^k for the
    integer matrices B_k of ``adjugate_terms``, evaluated by Horner's rule
    on integer power-basis vectors."""
    m = len(M)
    terms = adjugate_terms(M, chi)
    for i in range(m):
        vec = []
        for j in range(m):
            v = (0,) * field.degree
            for B in terms:
                v = field.times_beta(v)
                v = (v[0] + B[i][j],) + v[1:]
            vec.append(field.point(1, v))
        if not all(x.is_zero() for x in vec):
            break
    # Perron eigenvector: all entries share a sign; flip if negative.
    if any(v.sign() < 0 for v in vec):
        vec = [-v for v in vec]
    if any(v.sign() <= 0 for v in vec):
        raise SubstitutionError("left eigenvector is not strictly positive")
    scale = min(vec).inverse()
    return [v * scale for v in vec]


def fixed_point_seed(s: Substitution) -> tuple[int, int, int]:
    """(k, left_letter, right_letter) seeding a two-sided fixed point of sigma^k.

    Picks the smallest k <= m*m such that some sigma^k(a) ends in a, some
    sigma^k(b) starts with b (iterating the first- and last-letter maps),
    and the two-letter word ab is in the language (legal_pairs).
    """
    M = matrix(s)
    if not is_primitive(M):
        raise SubstitutionError("fixed point seed requires primitivity")
    legal = legal_pairs(s)
    first = last = range(1, s.m + 1)
    for k in range(1, s.m * s.m + 1):
        first = [s.rules[c - 1][0] for c in first]
        last = [s.rules[c - 1][-1] for c in last]
        enders = [a for a in range(1, s.m + 1) if last[a - 1] == a]
        starters = [b for b in range(1, s.m + 1) if first[b - 1] == b]
        for a in enders:
            for b in starters:
                if (a, b) in legal:
                    return k, a, b
    raise SubstitutionError("no fixed point seed found (should not happen)")


def legal_pairs(s: Substitution) -> set[tuple[int, int]]:
    """The two-letter words of the language of s: the pairs inside the
    images sigma(c), closed under x y -> the pairs of sigma(x y), of which
    only the pair across the boundary can be new."""
    pairs = {p for w in s.rules for p in zip(w, w[1:])}
    todo = list(pairs)
    while todo:
        x, y = todo.pop()
        p = (s.rules[x - 1][-1], s.rules[y - 1][0])
        if p not in pairs:
            pairs.add(p)
            todo.append(p)
    return pairs


def dekking_column_check(s: Substitution) -> bool:
    """Classical coincidence test for constant-length substitutions.

    True iff some power of the column map collapses a position to a single
    letter.  Runs a BFS on letter sets: from S, position p leads to
    { sigma(a)[p] : a in S }; coincidence iff a singleton is reachable from
    the full alphabet.
    """
    q = len(s.rules[0])
    if any(len(w) != q for w in s.rules):
        raise SubstitutionError("dekking_column_check requires constant length")
    start = frozenset(range(1, s.m + 1))
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for S in frontier:
            for p in range(q):
                T = frozenset(s.rules[a - 1][p] for a in S)
                if len(T) == 1:
                    return True
                if T not in seen:
                    seen.add(T)
                    nxt.append(T)
        frontier = nxt
    return False

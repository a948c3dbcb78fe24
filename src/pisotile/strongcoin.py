"""Strong coincidence, the translation-module membership test, and the
enumeration of tile maps for multiple strong coincidence of a given level.

Also houses the proof-driven witness extraction: from a coincidence-free
strongly connected component of the overlap graph, a tile map and control
points are constructed whose family is admissible, lies in the translation
module, and fails strong coincidence for an explicit color pair.

Everything here works on points of Q(beta) held as (D, v), integer vectors
over a denominator in lowest terms (numberfield.reduced), the form of field
elements: control points, the module filter, the pair classes handed to the
overlap closure, and the witness search.  The translation module is read
from one pass over sigma^k of the legal pairs, so no patch of the tiling is
laid out, and it is made once per system (group_G).

MSC asks the same questions for many tile maps, so a family is decided by
its pair classes (i, j, c_i - c_j), i < j (TilingSystem.pair_class), each
class once: its window (admissibility) and its pair test's result by cap
on the TilingSystem, and, for the pairs (1, j), its module membership on
the GroupG.  The result for (j, i) is the mirror of (i, j)'s, and (i, i)
is shared at L = 0.  Nothing is kept beyond the system.
"""

from __future__ import annotations

import itertools
from math import gcd, lcm, prod
from operator import add, sub

from .algebra import CapExceededError, adjugate, hnf, mat_mul, mat_vec, prime_factors
from .graphkit import cycle_extension, Digraph
from .numberfield import AlgebraicReal, combine
from .overlap import OverlapClass, OverlapGraph, overlap_closure
from .record import Record
from .substitution import legal_pairs, matrix, primitivity_exponent, word_lengths
from .tiling import ControlPoints, TileMap, TilingSystem, solve_control_points


class EnumerationCapError(CapExceededError):
    """Tile-map enumeration would exceed the configured cap."""


class RodHypothesisError(RuntimeError):
    """Witness extraction found only equal-color classes in the component."""


# -- the translation module ----------------------------------------------------


class GroupG:
    """Integer module M generated by same-color position differences,
    saturated under multiplication by beta, with an exact test of whether
    some beta^K x lies in it.

    Coordinates live in the power basis of the field; the module is stored as
    the Hermite normal form basis (``algebra.hnf``) of integer coordinates
    over TilingSystem.den.  ``cross_offsets[(1, j)]`` is r_1 - r_j over
    den for representative positions r_c of the colors in one legal word.
    The points x with some beta^K x in the module form a group (the module
    is closed under beta), so a family of points lies in the module iff
    every c_i - c_j + r_i - r_j does, iff every c_1 - c_j + r_1 - r_j does.
    """

    def __init__(self, system: TilingSystem, generators):
        """generators: integer vectors over system.den (TilingSystem.coords)."""
        self.system = system
        self.den = system.den
        basis = hnf(generators)
        if not basis:
            raise ValueError("no nonzero generators for the translation module")
        while True:
            ext = hnf(basis + tuple(map(system.times_beta, basis)))
            if ext == basis:
                break
            basis = ext
        # Closed under beta, the module has rank d: basis[k] has its pivot at
        # coordinate k, and H (the basis as columns) is upper triangular.
        self.basis = basis
        H = [list(col) for col in zip(*basis)]
        self._adj, self._det = adjugate(H)
        # beta on the coordinates in the basis: H^-1 B H, an integer matrix.
        self._beta = [[x // self._det for x in row]
                      for row in mat_mul(self._adj, mat_mul(system.beta_matrix, H))]
        self._primes = prime_factors(abs(system.field.min_poly[0]))  # |N(beta)| = |det B|
        # Representatives: the first tile of each color in sigma^k(1), which
        # holds every letter.
        s = system.substitution
        rep = {}
        for a, off in system.subtile_offsets(primitivity_exponent(matrix(s)))[0]:
            rep.setdefault(a, off)
        self.cross_offsets = {
            (1, j): (self.den, tuple(map(sub, rep[1], rep[j]))) for j in range(2, s.m + 1)
        }
        self._pairs: dict[tuple, bool] = {}  # see pair_in_module

    def membership(self, x: AlgebraicReal):
        """(bool, K) for the field element x: see contains."""
        return self.contains((x.den, x.v))

    def contains(self, x: tuple[int, tuple[int, ...]]):
        """(True, K) for the least K >= 0 with beta^K x in the module, or
        (False, None) when there is none; x is a point (D, v).

        With H the basis as columns and B_M = H^-1 B H, x = H z / (q den)
        with z integer, q > 0 minimal, and beta^K x lies in the module iff
        B_M^K z = 0 mod q.  The sets S_K = {z mod q : B_M^K z = 0 mod q}
        grow with K, and once S_K = S_(K+1) they stay equal (B_M z lies in
        S_(K+1) = S_K whenever z lies in S_(K+2)).  Split over the primes of
        q: where p does not divide det B_M = +-N(beta), B_M is invertible
        mod p^e and the p-part of S_K is 0 for every K; where p divides it,
        each strict step multiplies the p-part's order, at most p^(e d), by
        at least p, so it is stable from K = d e.  Hence K = d max e over the
        primes of N(beta), at most d Omega(q), decides; for a unit beta,
        K = 0 does."""
        D, v = x
        z = [self.den * c for c in mat_vec(self._adj, v)]
        q = D * self._det
        g = gcd(q, *z)
        q, z = q // g, [c // g for c in z]
        bound = 0
        for p in self._primes:
            e, r = 0, q
            while r % p == 0:
                e, r = e + 1, r // p
            bound = max(bound, len(z) * e)
        for k in range(bound + 1):
            if all(c % q == 0 for c in z):
                return True, k
            z = [c % q for c in mat_vec(self._beta, z)]
        return False, None

    def __contains__(self, x: AlgebraicReal) -> bool:
        return self.membership(x)[0]

    def pair_in_module(self, key: tuple) -> bool:
        """Whether some beta^K (c_1 - c_j + r_1 - r_j) lies in the module,
        for the pair class key (1, j, D, v) of c_1 - c_j; kept per key."""
        if key not in self._pairs:
            self._pairs[key] = self.contains(combine(key[2:], self.cross_offsets[key[:2]]))[0]
        return self._pairs[key]


def group_G(system: TilingSystem) -> GroupG:
    """The translation module of the system, made on first use and kept.
    Its generators are the differences of consecutive same-letter positions
    in sigma^k(x) sigma^k(y) over the legal pairs x y, every sigma^k(c)
    holding every letter: the lengths of the return words to every letter,
    as a return word meets at most two consecutive blocks sigma^k(c).  Every
    same-color position difference of the fixed tiling is a sum of them."""
    if system._group is None:
        s, lc = system.substitution, system.length_coords
        offsets = system.subtile_offsets(primitivity_exponent(matrix(s)))
        generators = set()
        for x, y in legal_pairs(s):
            a, start = offsets[x - 1][-1]
            width = tuple(map(add, start, lc[a - 1]))  # |sigma^k(x)|
            word = offsets[x - 1] + tuple((b, tuple(map(add, width, off)))
                                          for b, off in offsets[y - 1])
            last = {}
            for b, off in word:
                if b in last:
                    generators.add(tuple(map(sub, off, last[b])))
                last[b] = off
        system._group = GroupG(system, generators)
    return system._group


# -- strong coincidence ----------------------------------------------------------


class PairResult(Record):
    _fields = ("i", "j", "status", "L", "classes")  # "shared", or "exhausted" with class labels

    def __init__(self, i: int, j: int, status: str, L: int | None, classes=()):
        self.__dict__.update(i=i, j=j, status=status, L=L, classes=classes)

    @property
    def ok(self) -> bool:
        return self.status == "shared"


class StrongCoincidenceReport(Record):
    _fields = ("tile_map", "control_points", "admissible", "in_group", "pairs")

    def __init__(self, tile_map, control_points, admissible: bool, in_group: bool | None, pairs):
        self.__dict__.update(tile_map=tile_map, control_points=control_points,
                             admissible=admissible, in_group=in_group, pairs=pairs)

    @property
    def ok(self) -> bool:
        return all(p.ok for p in self.pairs)

    def to_json(self, formatted: dict | None = None) -> dict:
        """formatted: a point's coordinate strings by point, a pair's entry
        by (i, j, status, L), and a report's list of them by those keys,
        shared by the reports of one MSC result, so that each distinct one
        is made once (and written once by the CLI's JSON writer)."""
        if formatted is None:
            formatted = {}
        for p in self.control_points.points:
            if p not in formatted:
                formatted[p] = [_ratio(c, p[0]) for c in p[1]]
        keys = tuple([(p.i, p.j, p.status, p.L) for p in self.pairs])
        pairs = formatted.get(keys)
        if pairs is None:
            for k in keys:
                if k not in formatted:
                    formatted[k] = dict(zip(("i", "j", "status", "L"), k))
            pairs = formatted[keys] = [formatted[k] for k in keys]
        return {
            "choice": list(self.tile_map.choice),
            "level": self.tile_map.n,
            "control_points": [formatted[p] for p in self.control_points.points],
            "admissible": self.admissible,
            "in_group": self.in_group,
            "pairs": pairs,
        }


def _ratio(c: int, d: int) -> str:
    """str(Fraction(c, d)) for d > 0."""
    g = gcd(c, d)
    return f"{c // g}/{d // g}" if g != d else str(c // g)


def _pair_test(system: TilingSystem, key: tuple,
               cap_classes: int) -> tuple[PairResult, PairResult]:
    """Strong coincidence of the pair class with key (i, j, D, v) (see
    OverlapClosure) and of its mirror (j, i, -v): shared at L, its distance
    to a coincidence in the system's overlap closure, or exhausted with the
    classes reachable from it as the certificate.  Mirroring is an
    isomorphism of the overlap graph, so the mirror class is shared at the
    same L, or exhausted with the mirrored classes.  Kept per class and cap
    on the system."""
    out = system._pair_results.get((key, cap_classes))
    if out is None:
        closure = overlap_closure(system)
        start, (i, j) = closure._id(key), key[:2]
        L = closure.distance(start, cap_classes)
        if L is not None:
            out = PairResult(i, j, "shared", L), PairResult(j, i, "shared", L)
        else:
            reached = [closure.overlap_class(k) for k in closure.reach([start], cap_classes)]
            mirrored = [OverlapClass(c.color_v, c.color_u, -c.shift) for c in reached]
            out = tuple(
                PairResult(a, b, "exhausted", None,
                           tuple(c.label() for c in sorted(classes, key=OverlapClass.key)))
                for a, b, classes in ((i, j, reached), (j, i, mirrored)))
        system._pair_results[key, cap_classes] = out
    return out


def strong_coincidence(
    system: TilingSystem,
    cp: ControlPoints,
    cap_classes: int = 10**4,
) -> StrongCoincidenceReport:
    """For every color pair (i, j), close the pair class (i, j, c_i - c_j)
    under inflation and report the minimal L reaching a shared tile, or the
    exhausted class set.  Failure is a certificate, not a timeout.  Each
    unordered pair i < j is tested once (its mirror (j, i) comes with it),
    and (i, i), a coincidence, is shared at L = 0.  The report also says
    whether the family lies in the translation module (group_G)."""
    if not cp.admissible:
        raise ValueError("control points are not admissible")
    m = system.substitution.m
    shared = system._pair_results.get(m)  # the pairs (i, i), kept under m
    if shared is None:
        shared = system._pair_results[m] = [PairResult(i, i, "shared", 0) for i in range(1, m + 1)]
    pairs = [None] * (m * m)  # (i, j) at (i - 1) m + j - 1
    pairs[::m + 1] = shared
    for key, _ in cp.pairs:
        i, j = key[0] - 1, key[1] - 1
        pairs[i * m + j], pairs[j * m + i] = _pair_test(system, key, cap_classes)
    return StrongCoincidenceReport(cp.tile_map, cp, cp.admissible,
                                   _family_in_group(cp, group_G(system)), pairs)


def _family_in_group(cp: ControlPoints, group: GroupG) -> bool:
    """Whether the multi-color point family lies in the translation module:
    only the pair classes (1, j), which come first in cp.pairs, need testing
    (see GroupG)."""
    return all(group.pair_in_module(key) for key, _ in cp.pairs[:len(cp.points) - 1])


# -- enumeration and multiple strong coincidence ---------------------------------


def enumerate_tile_maps(system: TilingSystem, n: int, cap_maps: int = 10**5):
    """All per-color subtile choices of the n-fold inflation, lexicographic.
    Their number is counted from the rules, so a count over cap_maps raises
    EnumerationCapError before any word of sigma^n is built."""
    if n < 1:
        raise ValueError("level must be >= 1")
    sizes = word_lengths(system.substitution, n)
    total = prod(sizes)
    if total > cap_maps:
        raise EnumerationCapError(
            f"{total} tile maps at level {n} exceed cap {cap_maps}; lower the level"
        )
    for choice in itertools.product(*(range(k) for k in sizes)):
        yield TileMap(n, choice)


class MSCResult(Record):
    _fields = ("verdict", "level", "reports", "considered", "vacuous")

    def __init__(self, verdict: bool, level: int, reports, considered: int, vacuous: bool):
        self.__dict__.update(verdict=verdict, level=level, reports=reports,
                             considered=considered, vacuous=vacuous)

    def to_json(self) -> dict:
        formatted = {}
        return {
            "level": self.level,
            "verdict": self.verdict,
            "families_considered": self.considered,
            "vacuous": self.vacuous,
            "reports": [r.to_json(formatted) for r in self.reports],
        }


def multiple_strong_coincidence(
    system: TilingSystem,
    n: int,
    cap_maps: int = 10**5,
    cap_classes: int = 10**4,
) -> MSCResult:
    """True iff every admissible, in-module control-point family arising from
    a tile map of the n-fold inflation passes strong coincidence for all
    color pairs.  Vacuously true (with a flag) if no family passes the
    filters."""
    group = group_G(system)
    reports = []
    for tm in enumerate_tile_maps(system, n, cap_maps):
        cp = solve_control_points(system, tm)
        if cp.admissible and _family_in_group(cp, group):
            reports.append(strong_coincidence(system, cp, cap_classes))
    return MSCResult(all(r.ok for r in reports), n, reports, len(reports), not reports)


# -- the level n0 of the equivalence theorem -------------------------------------


def compute_level_n(g: OverlapGraph) -> int:
    """Smallest n0 >= 1 such that every vertex of every coincidence-free SCC
    lies on a closed walk of length n0; 1 when no such component exists.

    The stuck SCCs and their matrices are the graph's own analysis
    (OverlapGraph.stuck), held here as bitset rows.  The search is a proof.
    Let A be the adjacency matrix of a stuck SCC with k vertices and period
    p.  Every closed walk in it has a length divisible by p, so n0 is a
    multiple of L, the lcm of the periods, and only multiples of L are
    tried.  A^p is, up to a permutation of the vertices, block diagonal
    with p primitive blocks of at most k vertices, and by Wielandt's
    theorem a primitive matrix with m vertices has a positive r-th power
    for every r >= (m - 1)^2 + 1.  For n = t L the power A^n = (A^p)^(n/p)
    has n/p >= t, so once t >= (k - 1)^2 + 1 its diagonal is positive.
    Hence the least n0 is t L for some t <= (k - 1)^2 + 1, k the largest
    SCC size, and t = 1, 2, ... finds it.
    """
    mats = [[sum(1 << j for j, w in enumerate(row) if w) for row in mat] for _, mat in g.stuck]
    period = lcm(*map(_period, mats))
    steps = [_bool_pow(m, period) for m in mats]
    powers = steps
    for t in range(1, (max(map(len, mats), default=1) - 1) ** 2 + 2):
        if all(all(row >> i & 1 for i, row in enumerate(p)) for p in powers):
            return t * period
        powers = [_bool_mul(p, m) for p, m in zip(powers, steps)]
    raise AssertionError("Wielandt's bound passed without a common closed-walk length")


def _bits(row: int):
    """The columns set in a bitset row, in increasing order."""
    while row:
        low = row & -row
        yield low.bit_length() - 1
        row ^= low


def _period(a) -> int:
    """The period of a strongly connected graph with bitset adjacency rows
    a: the gcd of level(u) + 1 - level(v) over its edges u -> v, the levels
    being breadth-first distances from vertex 0."""
    level = {0: 0}
    queue = [0]
    for u in queue:  # grows while it is read
        for v in _bits(a[u]):
            if v not in level:
                level[v] = level[u] + 1
                queue.append(v)
    return gcd(*(level[u] + 1 - level[v] for u, row in enumerate(a) for v in _bits(row)))


def _bool_pow(a, e: int):
    """a^e for e >= 1, by squaring."""
    out = None
    while e:
        if e & 1:
            out = a if out is None else _bool_mul(out, a)
        e >>= 1
        if e:
            a = _bool_mul(a, a)
    return out


def _bool_mul(a, b):
    """The boolean product of square matrices held as bitset rows: row i
    of ab is the OR of the rows b[k] for the bits k of a[i]."""
    out = []
    for row in a:
        acc = 0
        for k in _bits(row):
            acc |= b[k]
        out.append(acc)
    return out


# -- witness extraction -----------------------------------------------------------


def _descendant(system: TilingSystem, p: int, q: int, shift: tuple, n: int):
    """The self-equivalent descendant of the class (p, q, shift), shift a
    point (D, v): the lexicographically least (ka, kb) with subtile ka of
    sigma^n(p) at 0 of color p, subtile kb of sigma^n(q) at beta^n shift of
    color q, and pos(kb) - pos(ka) = shift; None when there is none.

    The condition reads offset(ka) - offset(kb) = (beta^n - 1) shift =: t on
    the integer offsets over den.  Offsets within one word differ, so the
    least ka that has a partner gives the least pair."""
    dv, v = shift
    w = [system.den * c for c in map(sub, mat_vec(system.beta_power(n), v), v)]
    if any(c % dv for c in w):
        return None
    t = [c // dv for c in w]
    offsets = system.subtile_offsets(n)
    partner = {off: kb for kb, (b, off) in enumerate(offsets[q - 1]) if b == q}
    return next((
        (ka, partner[key]) for ka, (a, off) in enumerate(offsets[p - 1])
        if a == p and (key := tuple(map(sub, off, t))) in partner
    ), None)


def extract_witness(
    system: TilingSystem,
    g: OverlapGraph,
    scc: list[int],
    cap_classes: int = 10**4,
):
    """From a coincidence-free SCC, build (tile map, control points, pair).

    Follows the equivalence proof: pick a class with distinct colors, locate
    its self-equivalent descendant at the common closed-walk level n0, let
    those two subtile choices define self-loops on the two colors, extend to
    every other color by the cycle-extension lemma on the color graph, and
    solve the control points.  The result is asserted admissible, in the
    translation module (group_G), and failing strong coincidence for the
    returned pair.
    """
    cls = None
    for vi in scc:
        c = g.vertices[vi]
        if c.color_u != c.color_v:
            cls = c
            break
    if cls is None:
        raise RodHypothesisError(
            "rod-hypothesis violation: every class in the component has equal "
            "colors, so the proof's distinct-color pick is unavailable"
        )
    n0 = compute_level_n(g)
    p_col, q_col = cls.color_u, cls.color_v
    shift = (cls.shift.den, cls.shift.v)
    found = _descendant(system, p_col, q_col, shift, n0)
    if found is None:
        raise RuntimeError(
            f"class {cls.label()} has no self-equivalent descendant at level {n0}"
        )
    ka, kb = found

    # Color graph of sigma^n0: edge i -> j iff j occurs in sigma^n0(i).
    offsets = system.subtile_offsets(n0)
    m = system.substitution.m
    edges = sorted(
        {(i, a - 1) for i in range(m) for a, _ in offsets[i]}
    )
    color_graph = Digraph(m, tuple((u, v, 1) for u, v in edges))
    ext = cycle_extension(color_graph, [(p_col - 1,), (q_col - 1,)])
    out_edge = {u: v for u, v, _ in ext.edges}

    choice = [0] * m
    choice[p_col - 1] = ka
    choice[q_col - 1] = kb
    for i in range(m):
        if i == p_col - 1 or i == q_col - 1:
            continue
        j = out_edge[i] + 1
        choice[i] = next(k for k, (a, _) in enumerate(offsets[i]) if a == j)
    tm = TileMap(n0, tuple(choice))
    cp = solve_control_points(system, tm)

    # Postconditions from the proof, asserted directly.
    if not cp.admissible:
        raise RuntimeError("extracted witness is not admissible")
    diff = combine(cp.points[p_col - 1], cp.points[q_col - 1], -1)
    if diff != shift:
        raise RuntimeError("extracted control points do not match the class shift")
    if not _family_in_group(cp, group_G(system)):
        raise RuntimeError("extracted witness is not in the translation module")
    rep = _pair_test(system, (p_col, q_col, *diff), cap_classes)[0]
    if rep.ok:
        raise RuntimeError("extracted witness unexpectedly passes the pair test")
    return tm, cp, (p_col, q_col)

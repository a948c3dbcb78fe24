"""Independent word-combinatorial oracles used only by the test suite.

These deliberately avoid the library's geometric machinery: they operate on
words and abelianization vectors alone, so they can cross-check the
geometric verdicts.  The exceptions: pair_closure is handed the
library's class inflation and re-derives a pair test from it by a plain
search; inflate_tiles is the inflation of tiles held as field elements, the
reference for the library's integer inflate_patch, and inflate_children,
central_patch_reference, tile_map_targets and descendant_reference build
overlap-class children, central patches, tile-map targets and descendants
on it; perron_equals_reference decides the Perron comparison
with sympy's factorization and root isolation; group_G_reference builds the
translation module from the return vectors of a central patch, and
control_points_reference solves the control points in field elements, and
msc_reference decides multiple strong coincidence family by family on them.
seed_overlaps_two_windows seeds overlaps with two float windows per
position difference, the reference for the library's mirrored seeding.
RationalField is the arithmetic of Q(beta) on vectors
of Fractions, the reference for the library's integer vectors over a
denominator.  fixed_point_seed_reference finds the seed of the two-sided
fixed point from the words sigma^k(c).  stuck_reference and
closed_walk_level find the stuck components of an overlap graph and the
level n0 by brute force, functional_cycles and canonical_cycle the cycles
of an out-degree-1 graph, and
random_substitutions is the seeded input generator of the differential
sweep, with the tests that say which oracle applies to an input
(is_unimodular, first_letter_cycle_ok, column_check_applies).
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction


def apply_rules(rules, word):
    out = []
    for a in word:
        out.extend(rules[a - 1])
    return tuple(out)


def fixed_point_seed_reference(m, rules, legal):
    """(k, a, b) for the least k <= m*m with sigma^k(a) ending in a,
    sigma^k(b) starting with b and ab in the set of legal pairs, read off
    the words sigma^k(c) themselves."""
    words = [(c,) for c in range(1, m + 1)]
    for k in range(1, m * m + 1):
        words = [apply_rules(rules, w) for w in words]
        for a in range(1, m + 1):
            for b in range(1, m + 1):
                if words[a - 1][-1] == a and words[b - 1][0] == b and (a, b) in legal:
                    return k, a, b
    return None


def _abelian(m, word):
    v = [0] * m
    for a in word:
        v[a - 1] += 1
    return tuple(v)


def word_strong_coincidence(m, rules, i, j, l_max=10) -> bool:
    """Letter pair (i, j) has a word-level coincidence: for some L the images
    of i and j under L rule applications share a letter at a position with
    equal prefix abelianizations."""
    u, v = (i,), (j,)
    for _ in range(l_max):
        u, v = apply_rules(rules, u), apply_rules(rules, v)
        pu = [0] * m
        pv = [0] * m
        for p in range(min(len(u), len(v))):
            if u[p] == v[p] and pu == pv:
                return True
            pu[u[p] - 1] += 1
            pv[v[p] - 1] += 1
    return False


def word_strong_coincidence_all(m, rules, l_max=10) -> bool:
    return all(
        word_strong_coincidence(m, rules, i, j, l_max)
        for i in range(1, m + 1)
        for j in range(1, m + 1)
        if i != j
    )


def _fixed_word(m, rules, min_len=200):
    """A long prefix of a one-sided fixed point of some power of the rules."""
    for a in range(1, m + 1):
        w = (a,)
        for _ in range(8):
            w2 = apply_rules(rules, w)
            if w2[: len(w)] == w and len(w2) > len(w):
                while len(w2) < min_len:
                    w2 = apply_rules(rules, w2)
                return w2
            w = w2 if len(w2) < min_len * 4 else w2[: min_len * 4]
    # Fall back to a power of the rules.
    sq = [apply_rules(rules, rules[a - 1]) for a in range(1, m + 1)]
    return _fixed_word(m, sq, min_len)


def _min_balanced_factors(m, x, y):
    """Factor the balanced pair (x, y) into minimal balanced pairs at every
    position where the prefix abelianizations agree."""
    out = []
    px = [0] * m
    py = [0] * m
    start = 0
    for p in range(1, len(x) + 1):
        px[x[p - 1] - 1] += 1
        py[y[p - 1] - 1] += 1
        if px == py:
            out.append((x[start:p], y[start:p]))
            start = p
    return out


def balanced_pair_coincidence(m, rules, cap_pairs=4000, cap_len=10**5) -> bool:
    """Balanced-pair algorithm (reliable for unimodular Pisot substitutions;
    minimal pairs can grow without bound in non-unit cases, which surfaces as
    the length-cap error, never as a wrong verdict).

    Seeds are the swapped adjacent pairs (xy, yx) for factors xy of the fixed
    word with x != y.  The reachable set of minimal balanced pairs is closed
    under (apply rules, refactor); the verdict is true iff the closure is
    finite and every reachable pair can reach a coincidence pair (a, a).
    """
    w = _fixed_word(m, rules)
    seeds = set()
    for x, y in zip(w, w[1:]):
        if x != y:
            seeds.add(((x, y), (y, x)))
    if not seeds:
        return True
    graph: dict[tuple, set[tuple]] = {}
    frontier = list(seeds)
    seen = set(seeds)
    while frontier:
        pair = frontier.pop()
        x, y = pair
        if len(x) > cap_len:
            raise RuntimeError("balanced pair grew past the length cap")
        children = set(_min_balanced_factors(m, apply_rules(rules, x), apply_rules(rules, y)))
        graph[pair] = children
        for ch in children:
            if ch not in seen:
                if len(seen) >= cap_pairs:
                    raise RuntimeError("balanced-pair closure exceeded the cap")
                seen.add(ch)
                frontier.append(ch)
    coincidences = {p for p in seen if len(p[0]) == 1 and p[0] == p[1]}
    # Reverse reachability from coincidence pairs.
    reach = set(coincidences)
    changed = True
    while changed:
        changed = False
        for p, children in graph.items():
            if p not in reach and children & reach:
                reach.add(p)
                changed = True
    return seen <= reach


def pair_closure(inflate, start):
    """Early-exit breadth-first closure of one pair class: the reference for
    the strong-coincidence pair test, as (status, L, exhausted class labels).

    inflate(c) gives the classes that one inflation of both tiles of c
    produces.  L is the first depth at which a coincidence appears; without
    one, every class reachable from start is listed, sorted by key.
    """
    if start.is_coincidence:
        return "shared", 0, ()
    seen = {start.key(): start}
    frontier = [start]
    depth = 0
    while frontier:
        depth += 1
        nxt = []
        for c in frontier:
            for child in inflate(c):
                if child.is_coincidence:
                    return "shared", depth, ()
                if child.key() not in seen:
                    seen[child.key()] = child
                    nxt.append(child)
        frontier = nxt
    return "exhausted", None, tuple(seen[k].label() for k in sorted(seen))


def inflate_tiles(system, tiles, n=1):
    """sigma^n on tiles held as (color, pos) with pos a field element: each
    time, a color-i tile at pos becomes the tiles of sigma(i), the first at
    beta * pos and each next one where the one before it ends."""
    rules = system.substitution.rules
    for _ in range(n):
        out = []
        for color, pos in tiles:
            pos = system.beta * pos
            for a in rules[color - 1]:
                out.append((a, pos))
                pos = pos + system.length(a)
        tiles = out
    return tiles


def field_tiles(system, patch):
    """The tiles of a library patch as (color, pos), pos a field element."""
    return [(color, system.point(v)) for color, v in patch.tiles]


def _end(system, t):
    """The right end of the support of the field-element tile t."""
    return t[1] + system.length(t[0])


def tiles_disjoint(system, tiles) -> bool:
    """Whether the field-element tiles have pairwise disjoint interiors, by
    an exact test of every pair."""
    return all(
        (_end(system, a) - b[1]).sign() <= 0 or (_end(system, b) - a[1]).sign() <= 0
        for k, a in enumerate(tiles) for b in tiles[k + 1:]
    )


def central_patch_reference(system, radius):
    """The central patch of the given radius as field-element tiles, by
    inflate_tiles and a sign test per tile."""
    a, b = system.seed_left, system.seed_right
    tiles = [(a, -system.length(a)), (b, system.field.zero())]
    while True:
        first = min(tiles, key=lambda t: float(t[1]))
        last = max(tiles, key=lambda t: float(t[1]))
        if (first[1] + radius).sign() <= 0 and (_end(system, last) - radius).sign() >= 0:
            break
        tiles = inflate_tiles(system, tiles, system.seed_power)
    return [t for t in tiles
            if (t[1] - radius).sign() <= 0 and (_end(system, t) + radius).sign() >= 0]


def inflate_children(system, c):
    """(child, multiplicity) pairs of the overlap class c, sorted by key: the
    subtiles of both inflated tiles as field-element tiles (inflate_tiles),
    one pair for each two whose interiors meet."""
    from pisotile import OverlapClass

    upatch = inflate_tiles(system, [(c.color_u, system.field.zero())])
    vpatch = inflate_tiles(system, [(c.color_v, c.shift)])
    counts, objs = {}, {}
    for a in upatch:
        for b in vpatch:
            if (_end(system, b) - a[1]).sign() > 0 and (_end(system, a) - b[1]).sign() > 0:
                child = OverlapClass(a[0], b[0], b[1] - a[1])
                counts[child.key()] = counts.get(child.key(), 0) + 1
                objs.setdefault(child.key(), child)
    return [(objs[k], counts[k]) for k in sorted(counts)]


def perron_equals_reference(matrix_rows, target) -> bool:
    """Whether the spectral radius of a nonnegative integer matrix equals the
    field element target, by sympy: target is a root of an irreducible factor
    of the characteristic polynomial, and every real root of every factor is
    either target itself (located by sympy's isolating intervals) or below
    it (compared on refined enclosures)."""
    import sympy

    x = sympy.Symbol("x")
    chi = sympy.Matrix(matrix_rows).charpoly(x)

    def at(poly):
        acc = target.field.zero()
        for c in poly.all_coeffs():
            acc = acc * target + Fraction(int(c.p), int(c.q))
        return acc

    def enclose(width):
        return next((lo, hi) for lo, hi in target.enclosures() if hi - lo <= width)

    def equals(root, factor):
        if root.is_rational:
            return (target - Fraction(int(root.p), int(root.q))).is_zero()
        tol = sympy.Rational(1, 2**20)
        while True:
            approx = root.eval_rational(tol)
            a, t = Fraction(int(approx.p), int(approx.q)), Fraction(tol.p, tol.q)
            lo, hi = a - t, a + t
            tlo, thi = enclose((hi - lo) / 4)
            if thi < lo or tlo > hi:
                return False
            if lo <= tlo and thi <= hi and factor.count_roots(lo, hi) == 1:
                return True
            tol /= 2**8

    def above(root):
        if root.is_rational:
            return (target - Fraction(int(root.p), int(root.q))).sign() < 0
        tol = sympy.Rational(1, 2**16)
        while True:
            approx = root.eval_rational(tol)
            a, t = Fraction(int(approx.p), int(approx.q)), Fraction(tol.p, tol.q)
            tlo, thi = enclose(t)
            if thi < a - t:
                return True
            if tlo > a + t:
                return False
            tol /= 2**8

    if not at(chi).is_zero():
        return False
    for factor, _ in chi.factor_list()[1]:
        vanishes = at(factor).is_zero()
        for root in factor.real_roots(radicals=False):
            if vanishes and equals(root, factor):
                continue
            if above(root):
                return False
    return True


def group_G_reference(system):
    """The translation module from the same-color position differences of
    the central patch of radius 8 times the longest tile, saturated under
    beta: the construction group_G used before it read return words."""
    from pisotile import GroupG

    patch = system.central_patch(system.field.from_rational(8) * max(system.lengths, key=float))
    return GroupG(system, system.return_vectors(patch))


def seed_overlaps_two_windows(system, patch, ys):
    """Overlap seeding without the symmetry of ys: for each color pair and
    each distinct difference d, one float window of ys for the classes
    (cu, cv, d - y) and one for (cv, cu, -d - y), both with d's own float
    error, and every candidate of both decided by NumberField.compare.  The
    reference for overlap.seed_overlaps, which takes one window per d and
    mirrors its classes."""
    from bisect import bisect_left, bisect_right

    from pisotile import ModuleVectors, OverlapClass
    from pisotile.numberfield import _U

    by_color, norm = system.patch_coords(patch)
    if ys.packing.bound < 2 * norm + ys.coord_bound:
        ys = ModuleVectors.of(system, ys, 2 * norm + ys.coord_bound)
    pack, unpack = ys.packing.pack, ys.packing.unpack
    packed = {c: [pack(v) for v in vs] for c, vs in by_color.items()}
    field, den = system.field, system.den
    enclose, enclosed, compare = field.floats, field.enclosed, field.compare
    yf, yp = ys.floats, ys.packed
    colors = sorted(packed)
    classes = {}
    for n, cu in enumerate(colors):
        for cv in colors[n:]:
            (flu, elu), (flv, elv) = (enclose(system.length_coords[c - 1], den) for c in (cu, cv))
            pus = packed[cu]
            ds = set()
            for k, pv in enumerate(packed[cv]):
                ds.update(map(pv.__sub__, pus[:k + 1] if cu == cv else pus))
            fwd = set()
            back = fwd if cu == cv else set()
            errs, lens = ys.err + elu + elv, flu + flv
            for dv in ds:
                fd, ed = enclose(unpack(dv), den)
                slack = 2 * (ed + errs) + 4 * _U * (abs(fd) + lens)
                i = bisect_left(yf, fd - flu - slack)
                fwd.update(map(dv.__sub__, yp[i:bisect_right(yf, fd + flv + slack, i)]))
                i = bisect_left(yf, -fd - flv - slack)
                back.update(map((-dv).__sub__, yp[i:bisect_right(yf, -fd + flu + slack, i)]))
            for a, b, shifts in ((cu, cv, fwd),) if cu == cv else ((cu, cv, fwd), (cv, cu, back)):
                lo, hi = (-system.length(b)).enclosed(), system.length(a).enclosed()
                for sv in shifts:
                    x = enclosed(den, unpack(sv))
                    if compare(x, lo) > 0 and compare(x, hi) < 0:
                        classes[(a, b, x[1])] = OverlapClass(a, b, system.point(x[1]))
    return [classes[k] for k in sorted(classes)]


def tile_map_targets(system, tm):
    """Per color i: (j_i, u_i), the color and field-element position of the
    chosen subtile of the n-fold inflated color-i tile at 0."""
    return [inflate_tiles(system, [(i + 1, system.field.zero())], tm.n)[k]
            for i, k in enumerate(tm.choice)]


def control_points_reference(system, tm):
    """The control points of the tile map in field elements, by composing
    the affine maps c -> (c + u_i) / beta^n around each cycle of
    i -> j_i and back-substituting the rest, with Q(beta) inverses."""
    targets = tile_map_targets(system, tm)
    lam = system.beta ** tm.n
    out = {}

    def point(i):
        if i not in out:
            path = [i]
            while (j := targets[path[-1]][0] - 1) not in path:
                path.append(j)
            if j == i:
                acc = system.field.zero()
                for k in path:
                    acc = lam * acc + targets[k][1]
                out[i] = acc / (system.beta ** (tm.n * len(path)) - 1)
            else:
                out[i] = (point(path[1]) + targets[i][1]) / lam
        return out[i]

    return [point(i) for i in range(system.substitution.m)]


def msc_reference(system, n):
    """multiple_strong_coincidence(system, n).to_json(), family by family
    in field elements: the control points of control_points_reference;
    admissibility as max(-c_i) < min(l_i - c_i); the module of
    group_G_reference, which must hold some beta^K (c_i - c_j + r_i - r_j)
    for every i < j, r_c the first color-c tile of a central patch; and
    pair_closure from every ordered pair (i, j, c_i - c_j) on the tile
    inflation of inflate_children, one closure per class."""
    from pisotile import OverlapClass, TileMap

    group, m = group_G_reference(system), system.substitution.m
    rep = {}
    for color, pos in field_tiles(system, system.central_patch(
            system.field.from_rational(8) * max(system.lengths, key=float))):
        rep.setdefault(color, pos)
    sizes = [len(inflate_tiles(system, [(i, system.field.zero())], n)) for i in range(1, m + 1)]
    closures, reports = {}, []
    for choice in itertools.product(*map(range, sizes)):
        c = control_points_reference(system, TileMap(n, choice))
        if not max(-x for x in c) < min(system.length(i + 1) - x for i, x in enumerate(c)):
            continue
        if not all(group.membership(c[i] - c[j] + rep[i + 1] - rep[j + 1])[0]
                   for i in range(m) for j in range(i + 1, m)):
            continue
        pairs = []
        for i, j in itertools.product(range(m), repeat=2):
            start = OverlapClass(i + 1, j + 1, c[i] - c[j])
            if start.key() not in closures:
                closures[start.key()] = pair_closure(
                    lambda x: [child for child, _ in inflate_children(system, x)], start)
            status, L, _ = closures[start.key()]
            pairs.append({"i": i + 1, "j": j + 1, "status": status, "L": L})
        reports.append({"choice": list(choice), "level": n, "admissible": True, "in_group": True,
                        "control_points": [[str(q) for q in x.coeffs] for x in c],
                        "pairs": pairs})
    return {"level": n, "families_considered": len(reports), "vacuous": not reports,
            "verdict": all(p["status"] == "shared" for r in reports for p in r["pairs"]),
            "reports": reports}


def descendant_reference(system, c, n):
    """The lexicographically least (ka, kb) with tile ka of the n-fold
    inflation of a color-u tile at 0 of color u, tile kb of the inflation
    of a color-v tile at the shift of color v, and pos(kb) - pos(ka) equal
    to the shift; None when there is none."""
    upatch = inflate_tiles(system, [(c.color_u, system.field.zero())], n)
    vpatch = inflate_tiles(system, [(c.color_v, c.shift)], n)
    for ka, a in enumerate(upatch):
        if a[0] == c.color_u:
            for kb, b in enumerate(vpatch):
                if b[0] == c.color_v and b[1] - a[1] == c.shift:
                    return ka, kb
    return None


def _trim(p):
    while p and p[-1] == 0:
        p.pop()
    return p


def _pdivmod(a, b):
    """(quotient, remainder) of a by a nonzero b over Q."""
    a = [Fraction(c) for c in a]
    q = [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    while len(a) >= len(b):
        k = len(a) - len(b)
        f = a[-1] / b[-1]
        q[k] = f
        for i, c in enumerate(b):
            a[k + i] -= f * c
        _trim(a)
    return q, a


def _pmul(a, b):
    out = [Fraction(0)] * max(len(a) + len(b) - 1, 0)
    for i, c in enumerate(a):
        for j, e in enumerate(b):
            out[i + j] += c * e
    return _trim(out)


def _psub(a, b):
    out = [Fraction(0)] * max(len(a), len(b))
    for i, c in enumerate(a):
        out[i] += c
    for i, c in enumerate(b):
        out[i] -= c
    return _trim(out)


class RationalField:
    """Q(beta) on tuples of Fractions in the power basis: sums coordinate by
    coordinate, products reduced by a power table of Fractions, inverses by
    the extended Euclid algorithm with the minimal polynomial, signs and
    floats by rational interval evaluation on its own bisection of the
    isolating interval, no floats involved."""

    def __init__(self, min_poly, lo, hi):
        self.min_poly = tuple(min_poly)
        d = self.degree = len(min_poly) - 1
        self.lo, self.hi = Fraction(lo), Fraction(hi)
        cur = [Fraction(-c) for c in min_poly[:d]]  # beta^d
        self.pow_table = [tuple(cur)]
        for _ in range(d - 1):
            top = cur[-1]
            cur = [s + top * t for s, t in zip([Fraction(0)] + cur[:-1], self.pow_table[0])]
            self.pow_table.append(tuple(cur))

    def add(self, a, b):
        return tuple(x + y for x, y in zip(a, b))

    def sub(self, a, b):
        return tuple(x - y for x, y in zip(a, b))

    def mul(self, a, b):
        d = self.degree
        raw = [Fraction(0)] * (2 * d - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                raw[i + j] += x * y
        out = raw[:d]
        for c, row in zip(raw[d:], self.pow_table):
            for i in range(d):
                out[i] += c * row[i]
        return tuple(out)

    def inverse(self, a):
        r0, r1 = [Fraction(c) for c in self.min_poly], _trim(list(a))
        s0, s1 = [Fraction(0)], [Fraction(1)]
        while r1:
            q, r = _pdivmod(r0, r1)
            r0, r1 = r1, r
            s0, s1 = s1, _psub(s0, _pmul(q, s1))
        inv = [c / r0[0] for c in s0][: self.degree]  # r0 is a nonzero constant
        return tuple(inv + [Fraction(0)] * (self.degree - len(inv)))

    def pow(self, a, n):
        if n < 0:
            return self.pow(self.inverse(a), -n)
        out = (Fraction(1),) + (Fraction(0),) * (self.degree - 1)
        for _ in range(n):
            out = self.mul(out, a)
        return out

    def _refine(self):
        mid = (self.lo + self.hi) / 2
        at = sum(c * mid**k for k, c in enumerate(self.min_poly))
        at_lo = sum(c * self.lo**k for k, c in enumerate(self.min_poly))
        if at == 0:  # a rational root: degree 1
            self.lo, self.hi = mid - (self.hi - self.lo) / 4, mid + (self.hi - self.lo) / 4
        elif (at > 0) == (at_lo > 0):
            self.lo = mid
        else:
            self.hi = mid

    def _enclosures(self, a):
        """Interval evaluations of a on ever narrower intervals of beta."""
        while True:
            lo = hi = Fraction(0)
            for c in reversed(a):
                products = (lo * self.lo, lo * self.hi, hi * self.lo, hi * self.hi)
                lo, hi = min(products) + c, max(products) + c
            yield lo, hi
            self._refine()

    def sign(self, a):
        if not any(a):
            return 0
        return next(1 if lo > 0 else -1 for lo, hi in self._enclosures(a) if lo > 0 or hi < 0)

    def float(self, a):
        if not any(a):
            return 0.0
        return next(float((lo + hi) / 2) for lo, hi in self._enclosures(a)
                    if (lo > 0 or hi < 0) and hi - lo <= min(abs(lo), abs(hi)) / 2**60)


# -- the stuck part of an overlap graph --------------------------------------------


def stuck_reference(g) -> dict[tuple[int, ...], list[list[int]]]:
    """{component: multiplicity matrix} for the stuck components of the
    overlap graph g, by brute force.  A vertex is stuck iff a breadth-first
    search from it meets no coincidence; two stuck vertices share a
    component iff each reaches the other, and a component counts when it
    has more than one vertex or a self-loop."""
    n = len(g.vertices)
    succ = [[] for _ in range(n)]
    for u, v in g.edges:
        succ[u].append(v)
    reach = []
    for start in range(n):
        seen, queue = {start}, [start]
        for u in queue:  # grows while it is read
            for v in succ[u]:
                if v not in seen:
                    seen.add(v)
                    queue.append(v)
        reach.append(seen)
    stuck = [v for v in range(n) if not any(g.vertices[u].is_coincidence for u in reach[v])]
    comps = {tuple(u for u in stuck if u in reach[v] and v in reach[u]) for v in stuck}
    return {
        comp: [[g.edges.get((u, v), 0) for v in comp] for u in comp]
        for comp in comps if len(comp) > 1 or (comp[0], comp[0]) in g.edges
    }


def _bool_product(a, b):
    n = len(a)
    return [[any(a[i][k] and b[k][j] for k in range(n)) for j in range(n)] for i in range(n)]


def closed_walk_level(g, n_max=10**4) -> int:
    """The least n0 >= 1 with a closed walk of length n0 through every
    vertex of every stuck component (stuck_reference), by trying n0 = 1,
    2, ... on boolean matrix powers."""
    mats = [[[w > 0 for w in row] for row in mat] for mat in stuck_reference(g).values()]
    powers = mats
    for n0 in range(1, n_max + 1):
        if all(all(p[i][i] for i in range(len(p))) for p in powers):
            return n0
        powers = [_bool_product(p, a) for p, a in zip(powers, mats)]
    raise AssertionError(f"no common closed-walk length up to {n_max}")


# -- the cycles of a functional graph ---------------------------------------------


def functional_cycles(succ: list[int]) -> list[tuple[int, ...]]:
    """Cycles of an out-degree-1 graph, each rotated to start at its minimum
    (the oracle of cycle_extension's cycle set)."""
    n = len(succ)
    color = [0] * n  # 0 unvisited, 1 in progress, 2 done
    cycles = []
    for start in range(n):
        if color[start]:
            continue
        path = []
        v = start
        while color[v] == 0:
            color[v] = 1
            path.append(v)
            v = succ[v]
        if color[v] == 1:
            cycles.append(canonical_cycle(path[path.index(v):]))
        for u in path:
            color[u] = 2
    return sorted(cycles)


def canonical_cycle(cycle) -> tuple[int, ...]:
    cyc = list(cycle)
    k = cyc.index(min(cyc))
    return tuple(cyc[k:] + cyc[:k])


# -- seeded inputs and which oracle applies ----------------------------------------


def _letter_matrix(m, rules):
    """M[i][j] = occurrences of letter i+1 in the rule of letter j+1."""
    return [[rules[j].count(i + 1) for j in range(m)] for i in range(m)]


def _is_primitive(m, rules) -> bool:
    """Some power M^k, k <= (m-1)^2 + 1 (Wielandt), is positive."""
    a = [[x > 0 for x in row] for row in _letter_matrix(m, rules)]
    p = a
    for _ in range((m - 1) ** 2 + 1):
        if all(all(row) for row in p):
            return True
        p = _bool_product(p, a)
    return False


def random_substitutions(rng):
    """Primitive substitutions (m, rules) on 2-3 letters without end: one
    with rules of 1-3 random letters, then two with constant-length rules
    of length 2-3, where overlap coincidence can fail, and again."""
    for constant in itertools.cycle((False, True, True)):
        while True:
            m, q = rng.randint(2, 3), rng.randint(2, 3)
            rules = tuple(tuple(rng.randint(1, m) for _ in range(q if constant else rng.randint(1, 3)))
                          for _ in range(m))
            if _is_primitive(m, rules):
                yield m, rules
                break


def is_unimodular(m, rules) -> bool:
    """|det M| = 1, by the Leibniz formula."""
    M = _letter_matrix(m, rules)
    det = 0
    for perm in itertools.permutations(range(m)):
        sign = (-1) ** sum(perm[i] > perm[j] for i in range(m) for j in range(i + 1, m))
        term = sign
        for i, j in enumerate(perm):
            term *= M[i][j]
        det += term
    return abs(det) == 1


def first_letter_cycle_ok(m, rules) -> bool:
    """Whether the map a -> first letter of rule(a) has a cycle of length a
    power of two: only then does balanced_pair_coincidence find the fixed
    point of some sigma^(2^k) it seeds from."""
    for a in range(1, m + 1):
        path = [a]
        while (b := rules[path[-1] - 1][0]) not in path:
            path.append(b)
        k = len(path) - path.index(b)
        if k & (k - 1) == 0:
            return True
    return False


def column_check_applies(m, rules, n_max=16, length=1000) -> bool:
    """Whether dekking_column_check decides overlap coincidence: the rules
    have constant length q, and a fixed point u of a power of them is
    aperiodic and of height 1 (Dekking, Z. Wahrsch. 1978; with height
    h > 1 his criterion is the column check of the pure base, and
    1->232, 2->131, 3->313, with a 3 at every even position, has overlap
    coincidence but no column coincidence).  By Morse and Hedlund u is
    periodic iff p(n) <= n for some n, and h is the part prime to q of
    the gcd of the positions k with u_k = u_0.  Both are read off a prefix
    of u, which can only undercount factors and overcount the gcd, so this
    errs towards False."""
    q = len(rules[0])
    if any(len(w) != q for w in rules):
        return False
    power = rules
    for _ in range(m):
        starts = [a for a in range(1, m + 1) if power[a - 1][0] == a]
        if starts:
            break
        power = tuple(apply_rules(rules, w) for w in power)
    else:
        return False
    u = (starts[0],)
    while len(u) < length:
        u = apply_rules(power, u)
    u = u[:length]
    if any(len({u[i:i + n] for i in range(len(u) - n)}) <= n for n in range(1, n_max + 1)):
        return False
    h = math.gcd(*(k for k, a in enumerate(u) if a == u[0]))
    while h > 1 and math.gcd(h, q) > 1:
        h //= math.gcd(h, q)
    return h == 1

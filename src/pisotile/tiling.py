"""The 1-D suspension tiling of a Pisot substitution.

Tiles are intervals with a color; the interval of color i has the exact
length given by the Perron left eigenvector.  Inflation multiplies positions
by beta and subdivides each tile along its substitution word.  The module
also solves tile-map control points, tests admissibility, and collects
return vectors -- all exact.

Tile positions of the fixed tiling lie in the module L spanned by the
beta^k l_i.  A patch is a tuple of (color, v) pairs, v the start of the tile
as integer coordinates over one denominator (TilingSystem.den), where
multiplication by beta is an integer matrix; central patches, return
vectors and subtile offsets are computed on these coordinates, and
inflate_patch is the one patch inflation.  Control points are
points of Q(beta) held as (D, v): sum_k v_k beta^k / D with v an integer
vector and D > 0 in lowest terms, the form of field elements and of
overlap-class keys; they are solved with integer adjugates.  Every sign is
decided by NumberField.compare on points that carry their proven float
enclosure.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from collections.abc import Sequence
from fractions import Fraction
from functools import cached_property
from itertools import chain
from math import inf, lcm
from operator import add, itemgetter, neg

from .algebra import adjugate, mat_mul, mat_vec
from .numberfield import AlgebraicReal, IntEnclosure, NumberField, combine, reduced
from .record import Record
from .substitution import (
    CapExceededError,
    Substitution,
    fixed_point_seed,
    perron_data,
    power,
    word_lengths,
)

_TILE_CAP = 10**6


class Patch(Record):
    """tiles: (color, v) pairs, v the tile's start in integer coordinates over TilingSystem.den."""

    _fields = ("tiles",)

    def __init__(self, tiles: tuple[tuple[int, tuple[int, ...]], ...]):
        self.__dict__.update(tiles=tiles)


class TilingSystem:
    """Geometric data of the suspension tiling: lengths, inflation, fixed point."""

    def __init__(self, s: Substitution):
        self.substitution = s
        self.field, self.beta, self.lengths = perron_data(s)
        self.seed_power, self.seed_left, self.seed_right = fixed_point_seed(s)
        self._overlap_closure = None  # overlap.OverlapClosure, made on first use
        self._group = None  # strongcoin.GroupG, made on first use
        self._offsets: dict[int, tuple] = {}
        self._solvers: dict[tuple[int, int], tuple] = {}
        # solve_control_points: a point's id by its key, and each id's (D, v)
        self._point_ids: dict[tuple, int] = {}
        self._points: list[tuple[int, tuple[int, ...]]] = []
        # pair_class by the ids of the points and by key; strongcoin's pair
        # results, by (key, cap) and, for the pairs (i, i), by m
        self._pairs: dict[tuple[int, int], tuple] = {}
        self._pair_classes: dict[tuple, tuple] = {}
        self._pair_results: dict = {}
        self._build_module_coords()

    def _build_module_coords(self) -> None:
        """Integer coordinates for points of L: v stands for
        sum_k v_k beta^k / den, with den the lcm of the denominators of the
        length coordinates.  L is closed under beta (beta^d is an integer
        combination of lower powers), so positions, differences and shifts
        of the fixed tiling all have integer coordinates.

        - beta_matrix: multiplication by beta, the field's integer companion
          matrix (column convention: beta * v = beta_matrix v).
        - length_coords[i]: the coordinates of l_(i+1).
        - prefix_offsets: subtile_offsets(1).
        - ends[i]: -l_(i+1) and l_(i+1) as enclosed points (pair_class).
        """
        self.den = lcm(*(l.den for l in self.lengths))
        self.beta_matrix = self.field.beta_matrix
        self._powers = [self.beta_matrix]  # beta_power
        self.length_coords = tuple(self.coords(l) for l in self.lengths)
        self.prefix_offsets = self.subtile_offsets(1)
        self.ends = tuple(((-l).enclosed(), l.enclosed()) for l in self.lengths)

    def subtile_offsets(self, n: int) -> tuple[tuple[tuple[int, tuple[int, ...]], ...], ...]:
        """Per color i, (letter, offset) for each tile of sigma^n(i), the
        offset being the coordinates over den of the summed length of the
        letters before it; kept per n."""
        out = self._offsets.get(n)
        if out is None:
            rows = []
            for word in power(self.substitution, n).rules:
                pos, row = (0,) * self.field.degree, []
                for a in word:
                    row.append((a, pos))
                    pos = tuple(map(add, pos, self.length_coords[a - 1]))
                rows.append(tuple(row))
            out = self._offsets[n] = tuple(rows)
        return out

    def coords(self, x: AlgebraicReal) -> tuple[int, ...]:
        """Integer coordinates of x over den; ValueError if x has none
        (x = v / D in lowest terms has them iff D divides den)."""
        q, r = divmod(self.den, x.den)
        if r:
            raise ValueError(f"{x} has no integer coordinates over {self.den}")
        return tuple(q * c for c in x.v)

    def point(self, v, den: int | None = None) -> AlgebraicReal:
        """The field element with integer coordinates v over den (by
        default self.den)."""
        return self.field.point(den or self.den, v)

    def times_beta(self, v) -> tuple[int, ...]:
        return mat_vec(self.beta_matrix, v)

    def beta_power(self, e: int) -> list[list[int]]:
        """B^e for B = beta_matrix and e >= 1, kept for every e up to the
        largest asked."""
        while len(self._powers) < e:
            self._powers.append(mat_mul(self.beta_matrix, self._powers[-1]))
        return self._powers[e - 1]

    def solver(self, e: int, t: int) -> tuple[list[list[int]], int]:
        """(adj, det) of B^e - t I for B = beta_matrix, kept per (e, t): the
        matrix of beta^e - t, whose determinant is the norm N(beta^e - t),
        nonzero unless beta^e = t."""
        out = self._solvers.get((e, t))
        if out is None:
            P = [list(row) for row in self.beta_power(e)]
            for i in range(len(P)):
                P[i][i] -= t
            out = self._solvers[(e, t)] = adjugate(P)
        return out

    def pair_class(self, i: int, j: int, a: int, b: int) -> tuple:
        """(key, window) of the pair class (i, j, c_i - c_j), i < j, for the
        control points with ids a and b (solve_control_points): key is
        (i, j, D, v) of c_i - c_j, the form of overlap-class keys, and window
        whether -l_j < c_i - c_j < l_i.  Kept by (a, b), decided once per key."""
        key = (i, j, *combine(self._points[a], self._points[b], -1))
        out = self._pair_classes.get(key)
        if out is None:
            x, compare = self.field.enclosed(*key[2:]), self.field.compare
            window = compare(self.ends[j - 1][0], x) < 0 and compare(x, self.ends[i - 1][1]) < 0
            out = self._pair_classes[key] = (key, window)
        self._pairs[a, b] = out
        return out

    def length(self, color: int) -> AlgebraicReal:
        return self.lengths[color - 1]

    # -- inflation and the fixed tiling ---------------------------------------

    def inflate_patch(self, p: Patch, n: int = 1) -> Patch:
        """sigma^n on the tiles of p: each time, a color-i tile at v becomes
        the tiles of sigma(i) at beta v plus their prefix offsets.  A result
        of more than _TILE_CAP tiles, counted first from |sigma^n(i)|,
        raises CapExceededError before any is built."""
        if n < 0:
            raise ValueError("inflation level must be >= 0")
        sizes = word_lengths(self.substitution, n)
        if sum(sizes[color - 1] for color, _ in p.tiles) > _TILE_CAP:
            raise CapExceededError(f"patch exceeds tile cap {_TILE_CAP}")
        tiles = p.tiles
        for _ in range(n):
            tiles = [
                (c, tuple(map(add, bv, off)))
                for color, v in tiles
                for bv in (self.times_beta(v),)
                for c, off in self.prefix_offsets[color - 1]
            ]
        return Patch(tuple(tiles))

    def central_patch(self, radius) -> Patch:
        """A patch of the two-sided fixed point whose support covers [-radius, radius].

        Seeded by the pair a|b from fixed_point_seed and inflated by
        sigma^k, which fixes the pair at the origin, until it covers the
        window; tiles are trimmed to the ones meeting the window.
        """
        if isinstance(radius, (int, Fraction)):
            radius = self.field.from_rational(radius)
        lc, den = self.length_coords, self.den
        compare, enclosed = self.field.compare, self.field.enclosed
        a, b = self.seed_left, self.seed_right
        patch = Patch(((a, tuple(-c for c in lc[a - 1])), (b, (0,) * self.field.degree)))
        left, right = (-radius).enclosed(), radius.enclosed()

        def start(t):
            return enclosed(den, t[1])

        def end(t):
            return enclosed(den, tuple(map(add, t[1], lc[t[0] - 1])))

        while compare(start(patch.tiles[0]), left) > 0 or compare(end(patch.tiles[-1]), right) < 0:
            patch = self.inflate_patch(patch, self.seed_power)
        # The tiles run left to right without gaps, so the ones meeting the
        # window are one run: from the first ending at or right of -radius
        # to the last starting at or left of radius.
        tiles = patch.tiles
        first = bisect_left(tiles, True, key=lambda t: compare(end(t), left) >= 0)
        stop = bisect_left(tiles, True, key=lambda t: compare(start(t), right) > 0)
        return Patch(tiles[first:stop])

    # -- return vectors --------------------------------------------------------

    def return_vectors(self, p: Patch) -> ModuleVectors:
        """All differences pos(V) - pos(U) over same-colored tile pairs of p,
        as ModuleVectors of the positive ones (V right of U: tiles run left to
        right), deduplicated exactly as packed ints.

        The packing leaves room for the seeding shifts of the same patch,
        (pos(V) - pos(U)) - y, whose coordinates are at most twice as large.
        """
        by_color, norm = self.patch_coords(p)
        packing = Packing(self.field.degree, 4 * norm)
        seen: set[int] = set()
        for vs in by_color.values():
            packed = [packing.pack(v) for v in vs]
            for k, pv in enumerate(packed):
                seen.update(map(pv.__sub__, packed[:k]))
        half = list(seen)
        del seen  # the set's table is as large again as the list
        return ModuleVectors(self, packing, half, 2 * norm)

    def patch_coords(self, p: Patch) -> tuple[dict[int, list[tuple[int, ...]]], int]:
        """Integer coordinates of the tile positions of p, by color, and the
        largest absolute coordinate."""
        by_color: dict[int, list[tuple[int, ...]]] = {}
        for color, v in p.tiles:
            by_color.setdefault(color, []).append(v)
        norm = max((abs(c) for vs in by_color.values() for v in vs for c in v), default=0)
        return by_color, norm


class Packing:
    """v -> sum_k v_k 2^(k w) for integer d-vectors: additive, and one to one
    (with an inverse, unpack) on the vectors with every |v_k| <= bound,
    where 2^(w-1) > bound."""

    def __init__(self, d: int, bound: int):
        self.bound = bound
        w = bound.bit_length() + 1
        self._shifts = tuple(k * w for k in range(d))
        self._half = 1 << (w - 1)
        self._mask = (1 << w) - 1
        # Adding half to every coordinate makes every digit nonnegative.
        self._bias = sum(self._half << s for s in self._shifts)

    def pack(self, v) -> int:
        return sum(c << s for c, s in zip(v, self._shifts))

    def unpack(self, p: int) -> tuple[int, ...]:
        q, mask, half = p + self._bias, self._mask, self._half
        return tuple([((q >> s) & mask) - half for s in self._shifts])

    def midpoints(self, floats: IntEnclosure, den: int):
        """p -> floats(unpack(p), den)[0] bit for bit: the same float operations
        in the same order, on the digits of p (0.0 where floats abstains)."""
        terms = tuple(zip(self._shifts, floats.powers))
        bias, mask, half = self._bias, self._mask, self._half

        def mid(p: int, df=float(den)) -> float:
            q, m = p + bias, 0.0
            try:
                for s, b in terms:
                    m += (((q >> s) & mask) - half) * b
            except OverflowError:
                return 0.0
            return m / df if -inf < m < inf else 0.0
        return mid


class ModuleVectors(Sequence):
    """A set Y = -Y of points of L, 0 included, as integer vectors over den,
    held compactly: packed ints in increasing order of value (an array('q')
    when they fit in 64 bits), their float midpoints in an array('d'), one
    error bound ``err`` valid for every midpoint, and ``coord_bound`` >=
    every |coordinate|.  Items are the vectors.  The arrays are -half
    reversed, 0, half, for the y > 0 sorted by their floats (Packing.midpoints,
    IntEnclosure's bit for bit; rounding is symmetric, so -y has -that).  A
    y > 0 with a negative float has y <= err, and gets 0.0, also within err."""

    def __init__(self, system: TilingSystem, packing: Packing, half: list[int], coord_bound: int):
        """half: the distinct packed y > 0, a list that is sorted in place."""
        value = packing.midpoints(system.field.floats, system.den)
        half.sort(key=value)  # computed twice, so that no (midpoint, int) pair is kept
        floats = array("d", map(value, half))
        for i in range(bisect_left(floats, 0.0)):
            floats[i] = 0.0
        self.floats = array("d", chain(map(neg, reversed(floats)), [0.0], floats))
        try:
            self.packed = array("q", chain(map(neg, reversed(half)), [0], half))
        except OverflowError:
            self.packed = [*map(neg, reversed(half)), 0, *half]
        self.packing, self.coord_bound = packing, coord_bound
        self.err = system.field.floats.bound(coord_bound, system.den)

    @classmethod
    def of(cls, system: TilingSystem, vectors, bound: int = 0) -> ModuleVectors:
        """These vectors, their negatives and 0, packed with room for coordinates
        up to bound; of v and -v the one positive by exact sign, as floats may err."""
        vectors = [tuple(v) for v in vectors]
        norm = max((abs(c) for v in vectors for c in v), default=0)
        packing = Packing(system.field.degree, max(bound, norm))
        half = {packing.pack(v) * s for v in vectors if (s := system.point(v).sign())}
        return cls(system, packing, list(half), norm)

    def __len__(self) -> int:
        return len(self.packed)

    def __getitem__(self, i: int) -> tuple[int, ...]:
        return self.packing.unpack(self.packed[i])


# -- tile maps and control points ---------------------------------------------


class TileMap(Record):
    """One subtile per color of the n-fold inflation: choice[i], 0-based, indexes sigma^n(i+1)."""

    _fields = ("n", "choice")

    def __init__(self, n: int, choice: tuple[int, ...]):
        self.__dict__.update(n=n, choice=choice)


class ControlPoints(Record):
    """points[i] = (D, v): the control point c_(i+1) = sum_k v_k beta^k / D,
    in lowest terms.  c holds them as field elements, made on first use.
    pairs: TilingSystem.pair_class for i < j, in order (1, 2), ..., (1, m), (2, 3), ..."""

    _fields = ("points", "tile_map", "admissible")  # number_field and pairs are not compared

    def __init__(self, points, tile_map: TileMap, admissible: bool, number_field, pairs):
        self.__dict__.update(points=points, tile_map=tile_map, admissible=admissible,
                             number_field=number_field, pairs=pairs)

    @cached_property
    def c(self) -> tuple[AlgebraicReal, ...]:
        return tuple(AlgebraicReal(self.number_field, den, v) for den, v in self.points)


class TileMapError(ValueError):
    """A tile map whose choices do not fit the substitution."""


def _targets(system: TilingSystem, tm: TileMap):
    """Per color i: (j_i, u_i), the color of the chosen subtile and its
    offset as integer coordinates over den."""
    offsets = system.subtile_offsets(tm.n)
    if len(tm.choice) != len(offsets):
        raise TileMapError(f"{len(tm.choice)} choices given for {len(offsets)} colors")
    targets = []
    for i, k in enumerate(tm.choice):
        if not 0 <= k < len(offsets[i]):
            raise TileMapError(f"choice {k} out of range for color {i + 1}")
        targets.append(offsets[i][k])
    return targets


def solve_control_points(system: TilingSystem, tm: TileMap) -> ControlPoints:
    """Exact solution of beta^n c_i = c_{j_i} + u_i on integer vectors.

    With B = beta_matrix and u_i the offsets over den, the functional graph
    i -> j_i is walked once.  A new cycle of length L is entered at its
    least color i: c_i = adj(B^(nL) - I) acc / (det(B^(nL) - I) den) with
    acc = sum_k B^(n(L-1-k)) u_(cycle[k]), det = N(beta^(nL) - 1) != 0 as
    beta > 1.  Every other point follows from its successor's, c_i =
    adj(B^n) (c_j + u_i) / det(B^n).  The system keeps each point under an
    id, by (n, i, the choices around the cycle) or by (i, its choice, its
    successor's id), so tile maps of one level share most.  Admissible: the
    shifted supports [-c_i, l_i - c_i], intervals, share an interior point
    iff each two do, iff -l_j < c_i - c_j < l_i for each i < j, the window
    of the pair class (TilingSystem.pair_class).
    """
    targets = _targets(system, tm)
    n, choice, den, m = tm.n, tm.choice, system.den, len(targets)
    point_ids, points, succ = system._point_ids, system._points, [j - 1 for j, _ in targets]
    ids = [None] * m
    for start in range(m):
        path, i = [], start
        while ids[i] is None and i not in path:
            path.append(i)
            i = succ[i]
        if ids[i] is None:  # a new cycle, path[k:], entered at its least color
            k = path.index(i)
            r = path.index(min(path[k:]))
            cycle = path[r:] + path[k:r]
            # The third entry is a tuple, so no key of the other kind equals it.
            key = (n, cycle[0], tuple(map(choice.__getitem__, cycle)))
            p = point_ids.get(key)
            if p is None:
                acc, power = (0,) * system.field.degree, system.beta_power(n)
                for c in cycle:
                    acc = tuple(map(add, mat_vec(power, acc), targets[c][1]))
                adj, det = system.solver(n * len(cycle), 1)
                p = point_ids[key] = len(points)
                points.append(reduced(det * den, mat_vec(adj, acc)))
            ids[cycle[0]] = p
            path[k:] = cycle[1:]
        for i in reversed(path):
            key = (i, choice[i], ids[succ[i]])
            p = point_ids.get(key)
            if p is None:
                adj, det = system.solver(n, 0)
                dc, v = combine(points[key[2]], (den, targets[i][1]))
                p = point_ids[key] = len(points)
                points.append(reduced(det * dc, mat_vec(adj, v)))
            ids[i] = p
    kept = system._pairs
    pairs = tuple(kept.get((ids[a], ids[b])) or system.pair_class(a + 1, b + 1, ids[a], ids[b])
                  for a in range(m) for b in range(a + 1, m))
    return ControlPoints(tuple(map(points.__getitem__, ids)), tm, all(map(itemgetter(1), pairs)),
                         system.field, pairs)

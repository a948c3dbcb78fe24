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
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, cmp_to_key
from math import lcm
from operator import add, neg

from .algebra import adjugate, mat_mul, mat_vec
from .numberfield import AlgebraicReal, NumberField, combine, reduced
from .substitution import (
    CapExceededError,
    Substitution,
    fixed_point_seed,
    perron_data,
    power,
)

_TILE_CAP = 10**6


@dataclass(frozen=True)
class Patch:
    """tiles: (color, v) pairs, v the start of the tile as integer
    coordinates over TilingSystem.den."""

    tiles: tuple[tuple[int, tuple[int, ...]], ...]


class TilingSystem:
    """Geometric data of the suspension tiling: lengths, inflation, fixed point."""

    def __init__(self, s: Substitution):
        self.substitution = s
        self.field, self.beta, self.lengths = perron_data(s)
        self.seed_power, self.seed_left, self.seed_right = fixed_point_seed(s)
        self._overlap_closure = None  # overlap.OverlapClosure, made on first use
        self._offsets: dict[int, tuple] = {}
        self._solvers: dict[tuple[int, int], tuple] = {}
        self._control_points: dict[tuple, tuple] = {}  # see solve_control_points
        # strongcoin._pair_test and strongcoin._difference
        self._pair_results: dict[tuple[int, int], object] = {}
        self._differences: dict[tuple, tuple] = {}
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
        """
        self.den = lcm(*(l.den for l in self.lengths))
        self.beta_matrix = self.field.beta_matrix
        self.length_coords = tuple(self.coords(l) for l in self.lengths)
        self.prefix_offsets = self.subtile_offsets(1)

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

    def times_beta_power(self, v, e: int) -> tuple[int, ...]:
        for _ in range(e):
            v = self.times_beta(v)
        return v

    def solver(self, e: int, t: int) -> tuple[list[list[int]], int]:
        """(adj, det) of B^e - t I for B = beta_matrix, kept per (e, t): the
        matrix of beta^e - t, whose determinant is the norm N(beta^e - t),
        nonzero unless beta^e = t."""
        out = self._solvers.get((e, t))
        if out is None:
            d = self.field.degree
            P = [[int(i == j) for j in range(d)] for i in range(d)]
            for _ in range(e):
                P = mat_mul(self.beta_matrix, P)
            for i in range(d):
                P[i][i] -= t
            out = self._solvers[(e, t)] = adjugate(P)
        return out

    def length(self, color: int) -> AlgebraicReal:
        return self.lengths[color - 1]

    # -- inflation and the fixed tiling ---------------------------------------

    def inflate_patch(self, p: Patch, n: int = 1) -> Patch:
        """sigma^n on the tiles of p: each time, a color-i tile at v becomes
        the tiles of sigma(i) at beta v plus their prefix offsets.  A patch
        of more than _TILE_CAP tiles raises CapExceededError."""
        if n < 0:
            raise ValueError("inflation level must be >= 0")
        tiles = p.tiles
        for _ in range(n):
            tiles = [
                (c, tuple(map(add, bv, off)))
                for color, v in tiles
                for bv in (self.times_beta(v),)
                for c, off in self.prefix_offsets[color - 1]
            ]
            if len(tiles) > _TILE_CAP:
                raise CapExceededError(f"patch exceeds tile cap {_TILE_CAP}")
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
        as integer vectors, deduplicated exactly as packed ints.

        The packing leaves room for the seeding shifts of the same patch,
        (pos(V) - pos(U)) - y, whose coordinates are at most twice as large.
        """
        by_color, norm = self.patch_coords(p)
        packing = Packing(self.field.degree, 4 * norm)
        seen: set[int] = set()
        for vs in by_color.values():
            packed = [packing.pack(v) for v in vs]
            for k, pv in enumerate(packed):  # each pair once, and 0
                seen.update(map(pv.__sub__, packed[:k + 1]))
        seen.update([-y for y in seen])
        distinct = list(seen)
        del seen  # the set's table is as large again as the list
        return ModuleVectors(self, packing, distinct, 2 * norm)

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


class ModuleVectors(Sequence):
    """A set of points of L as integer vectors over den, held compactly:
    packed ints in increasing order of value (an array('q') when they fit
    in 64 bits), their float midpoints in an array('d'), one error bound
    ``err`` valid for every midpoint, and ``coord_bound`` >= every
    |coordinate|.  Items are the vectors."""

    def __init__(self, system: TilingSystem, packing: Packing, packed: list[int],
                 coord_bound: int):
        """packed: distinct packed vectors, a list that is sorted in place."""
        enclose, unpack, den = system.field.floats, packing.unpack, system.den

        def value(p):
            return enclose(unpack(p), den)[0]

        # Computing the midpoints twice keeps no (midpoint, int) pairs alive.
        packed.sort(key=value)
        self.floats = array("d", map(value, packed))
        try:
            self.packed = array("q", packed)
        except OverflowError:
            self.packed = packed
        self.packing, self.coord_bound = packing, coord_bound
        self.err = system.field.floats.bound(coord_bound, den)

    @classmethod
    def of(cls, system: TilingSystem, vectors, bound: int = 0) -> ModuleVectors:
        """From integer vectors, packed with room for coordinates up to bound."""
        vectors = [tuple(v) for v in vectors]
        norm = max((abs(c) for v in vectors for c in v), default=0)
        packing = Packing(system.field.degree, max(bound, norm))
        return cls(system, packing, list({packing.pack(v) for v in vectors}), norm)

    def __len__(self) -> int:
        return len(self.packed)

    def __getitem__(self, i: int) -> tuple[int, ...]:
        return self.packing.unpack(self.packed[i])


# -- tile maps and control points ---------------------------------------------


@dataclass(frozen=True)
class TileMap:
    """Per-color choice of one subtile inside the n-fold inflated prototile.

    choice[i] is a 0-based index into sigma^n(i+1).
    """

    n: int
    choice: tuple[int, ...]


@dataclass(frozen=True)
class ControlPoints:
    """points[i] = (D, v): the control point c_(i+1) = sum_k v_k beta^k / D,
    in lowest terms.  c holds them as field elements, made on first use."""

    points: tuple[tuple[int, tuple[int, ...]], ...]
    tile_map: TileMap
    admissible: bool
    number_field: NumberField = field(repr=False, compare=False)

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
    i -> j_i is eventually periodic.  A point on a cycle of length L solves
    (beta^(nL) - 1) c_i = acc, acc = sum_k beta^(n(L-1-k)) u_(path[k]), so
    c_i = adj(B^(nL) - I) acc / (det(B^(nL) - I) den); the determinant is
    N(beta^(nL) - 1), nonzero as beta > 1.  The other points follow by
    back-substitution toward the cycle, c_i = adj(B^n) (c_j + u_i) /
    det(B^n).  c_i depends only on the choices along the path from i into
    and around its cycle, so the system keeps each c_i under that path:
    tile maps of one level share most of them.
    """
    targets = _targets(system, tm)
    den = system.den

    def point(i: int) -> tuple:
        """(c_i, -c_i, l_i - c_i): the point, and the ends of the support of
        color i shifted by -c_i as (D, v, mid, err) with their enclosures."""
        path = [i]  # the colors from i until one repeats
        while (j := targets[path[-1]][0] - 1) not in path:
            path.append(j)
        key = (tm.n, tuple((k, tm.choice[k]) for k in path))
        out = system._control_points.get(key)
        if out is None:
            if j == i:  # i lies on its cycle, which is the whole path
                acc = (0,) * system.field.degree
                for k in path:
                    acc = tuple(map(add, system.times_beta_power(acc, tm.n), targets[k][1]))
                adj, det = system.solver(tm.n * len(path), 1)
                c = reduced(det * den, mat_vec(adj, acc))
            else:
                adj, det = system.solver(tm.n, 0)
                dc, v = combine(point(path[1])[0], (den, targets[i][1]))
                c = reduced(det * dc, mat_vec(adj, v))
            ends = [(c[0], tuple(map(neg, c[1]))),
                    combine((den, system.length_coords[i]), c, -1)]
            out = system._control_points[key] = (c, *(
                system.field.enclosed(d, v) for d, v in ends))
        return out

    points = [point(i) for i in range(system.substitution.m)]
    # Admissible: the shifted supports [-c_i, l_i - c_i] share an interior
    # point.  The ends are kept with their points, so their float
    # enclosures are reused across tile maps.
    compare = system.field.compare
    order = cmp_to_key(compare)
    lo = max((p[1] for p in points), key=order)
    hi = min((p[2] for p in points), key=order)
    return ControlPoints(tuple(p[0] for p in points), tm, compare(hi, lo) > 0, system.field)

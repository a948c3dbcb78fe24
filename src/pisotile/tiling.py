"""The 1-D suspension tiling of a Pisot substitution.

Tiles are intervals with a color; the interval of color i has the exact
length given by the Perron left eigenvector.  Inflation multiplies positions
by beta and subdivides each tile along its substitution word.  The module
also solves tile-map control points, tests admissibility, and collects
return vectors -- all in exact Q(beta) arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from fractions import Fraction

from .numberfield import AlgebraicReal, NumberField
from .substitution import (
    Substitution,
    SubstitutionError,
    fixed_point_seed,
    perron_data,
    power,
)


@dataclass(frozen=True)
class Tile:
    """Interval tile: support [pos, pos + length(color)]."""

    color: int
    pos: AlgebraicReal


@dataclass(frozen=True)
class Patch:
    tiles: tuple[Tile, ...]


class TilingSystem:
    """Geometric data of the suspension tiling: lengths, inflation, fixed point."""

    def __init__(self, s: Substitution):
        self.substitution = s
        self.field, self.beta, self.lengths = perron_data(s)
        self.seed_power, self.seed_left, self.seed_right = fixed_point_seed(s)
        self._central_cache: tuple[AlgebraicReal, Patch] | None = None
        self._overlap_closure = None  # overlap.OverlapClosure, made on first use

    def length(self, color: int) -> AlgebraicReal:
        return self.lengths[color - 1]

    def end(self, t: Tile) -> AlgebraicReal:
        return t.pos + self.length(t.color)

    def support_length(self, p: Patch) -> AlgebraicReal:
        total = self.field.zero()
        for t in p.tiles:
            total = total + self.length(t.color)
        return total

    def check_disjoint(self, p: Patch) -> bool:
        """Exact pairwise-disjoint-interior test for a patch."""
        tiles = sorted(p.tiles, key=lambda t: float(t.pos))
        for a, b in zip(tiles, tiles[1:]):
            if (self.end(a) - b.pos).sign() > 0:
                # Float pre-sort can misorder near-equal positions; re-check.
                if (a.pos - b.pos).sign() > 0:
                    a, b = b, a
                if (self.end(a) - b.pos).sign() > 0:
                    return False
        return True

    # -- inflation -----------------------------------------------------------

    def inflate(self, t: Tile, n: int = 1) -> Patch:
        """n-fold inflation of a single tile into the exact subdivision patch."""
        return self.inflate_patch(Patch((t,)), n)

    def inflate_patch(self, p: Patch, n: int = 1, tile_cap: int = 10**6) -> Patch:
        if n < 0:
            raise ValueError("inflation level must be >= 0")
        rules = self.substitution.rules
        tiles = list(p.tiles)
        for _ in range(n):
            out = []
            for t in tiles:
                pos = self.beta * t.pos
                for a in rules[t.color - 1]:
                    out.append(Tile(a, pos))
                    pos = pos + self.length(a)
            tiles = out
            if len(tiles) > tile_cap:
                raise SubstitutionError(f"patch exceeds tile cap {tile_cap}")
        return Patch(tuple(tiles))

    # -- the fixed tiling, materialized as central patches --------------------

    def central_patch(self, radius, tile_cap: int = 10**6) -> Patch:
        """A patch of the two-sided fixed point whose support covers [-radius, radius].

        Seeded by the pair a|b from fixed_point_seed and repeatedly inflated
        by sigma^k, which fixes the pair at the origin; tiles are trimmed to
        the ones meeting the window.  The last (radius, patch) is kept, so a
        repeat call with an equal radius returns the same patch.
        """
        if isinstance(radius, (int, Fraction)):
            radius = self.field.from_rational(radius)
        if self._central_cache is not None and self._central_cache[0] == radius:
            return self._central_cache[1]
        a, b = self.seed_left, self.seed_right
        left = Tile(a, -self.length(a))
        right = Tile(b, self.field.zero())
        patch = Patch((left, right))
        while True:
            first = min(patch.tiles, key=lambda t: float(t.pos))
            last = max(patch.tiles, key=lambda t: float(t.pos))
            if (first.pos + radius).sign() <= 0 and (self.end(last) - radius).sign() >= 0:
                break
            patch = self.inflate_patch(patch, self.seed_power, tile_cap)
        keep = tuple(
            t
            for t in patch.tiles
            if (t.pos - radius).sign() <= 0 and (self.end(t) + radius).sign() >= 0
        )
        self._central_cache = (radius, Patch(keep))
        return self._central_cache[1]

    # -- return vectors --------------------------------------------------------

    def return_vectors(self, p: Patch) -> list[AlgebraicReal]:
        """All differences pos(V) - pos(U) over same-colored tile pairs of p.

        Deduplicates exactly by normalizing coordinates to integer tuples
        over a common denominator.
        """
        from math import lcm

        den = 1
        for t in p.tiles:
            for c in t.pos.coeffs:
                den = lcm(den, c.denominator)
        by_color: dict[int, list[tuple]] = {}
        for t in p.tiles:
            by_color.setdefault(t.color, []).append(
                tuple(int(c * den) for c in t.pos.coeffs)
            )
        seen: set[tuple] = set()
        for positions in by_color.values():
            for pu in positions:
                for pv in positions:
                    seen.add(tuple(a - b for a, b in zip(pv, pu)))
        return [
            self.field.element([Fraction(c, den) for c in v]) for v in sorted(seen)
        ]


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
    c: tuple[AlgebraicReal, ...]
    tile_map: TileMap
    admissible: bool


def tile_map_targets(system: TilingSystem, tm: TileMap):
    """Per color i: (j_i, u_i) = color and exact offset of the chosen subtile."""
    s_n = power(system.substitution, tm.n)
    targets = []
    for i, k in enumerate(tm.choice):
        word = s_n.rules[i]
        if not 0 <= k < len(word):
            raise ValueError(f"choice {k} out of range for color {i + 1}")
        u = system.field.zero()
        for a in word[:k]:
            u = u + system.length(a)
        targets.append((word[k], u))
    return targets


def solve_control_points(system: TilingSystem, tm: TileMap) -> ControlPoints:
    """Exact solution of beta^n c_i = c_{j_i} + u_i.

    The functional graph i -> j_i is eventually periodic; points on each
    cycle are solved by composing the affine maps around the cycle, the rest
    by back-substitution toward the cycle.
    """
    targets = tile_map_targets(system, tm)
    m = system.substitution.m
    lam = system.beta ** tm.n
    c: list[AlgebraicReal | None] = [None] * m

    def solve(i: int, trail: list[int]):
        if c[i] is not None:
            return
        if i in trail:
            cycle = trail[trail.index(i):]
            # beta^(n*len) c_i = c_i + sum_k lam^(len-1-k) u_{cycle[k]}
            acc = system.field.zero()
            for j in cycle:
                acc = lam * acc + targets[j][1]
            lam_pow = lam ** len(cycle)
            c[i] = acc / (lam_pow - 1)
            # Propagate forward around the cycle.
            cur = c[i]
            for j in cycle:
                nxt_idx = targets[j][0] - 1
                cur = lam * cur - targets[j][1]
                if nxt_idx != i:
                    c[nxt_idx] = cur
            return
        j = targets[i][0] - 1
        solve(j, trail + [i])
        if c[i] is None:
            c[i] = (c[j] + targets[i][1]) / lam

    for i in range(m):
        solve(i, [])
    cs = tuple(c)  # type: ignore[arg-type]
    return ControlPoints(cs, tm, _admissible(system, cs))


def _admissible(system: TilingSystem, cs) -> bool:
    """Interior of the intersection of the shifted supports [-c_i, l_i - c_i]."""
    lo = -cs[0]
    hi = system.length(1) - cs[0]
    for i, ci in enumerate(cs[1:], start=2):
        cand_lo = -ci
        if cand_lo > lo:
            lo = cand_lo
        cand_hi = system.length(i) - ci
        if cand_hi < hi:
            hi = cand_hi
    return (hi - lo).sign() > 0


def admissible(cp: ControlPoints) -> bool:
    return cp.admissible

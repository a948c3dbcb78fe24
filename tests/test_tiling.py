"""Suspension tiling geometry: inflation, central patches, control points."""

import math
import random
from fractions import Fraction

import pytest

from conftest import CORPUS_RULES, CUBIC_RULES
from oracles import central_patch_reference, control_points_reference, tiles_disjoint
from pisotile import (
    Patch,
    Substitution,
    Tile,
    TileMap,
    TilingSystem,
    solve_control_points,
    tile_map_targets,
)
from pisotile.strongcoin import enumerate_tile_maps

FIB = Substitution(2, ((1, 2), (1,)))
TRIB = Substitution(3, ((1, 2), (1, 3), (1,)))


@pytest.fixture(scope="module")
def fib():
    return TilingSystem(FIB)


@pytest.fixture(scope="module")
def trib():
    return TilingSystem(TRIB)


def test_inflate_single(fib):
    b = fib.beta
    p = fib.inflate(Tile(1, fib.field.zero()))
    assert [t.color for t in p.tiles] == [1, 2]
    assert p.tiles[0].pos == fib.field.zero()
    assert p.tiles[1].pos == b
    p2 = fib.inflate(Tile(1, fib.field.zero()), 2)
    assert [t.color for t in p2.tiles] == [1, 2, 1]
    # Exact prefix sums of sigma^2(1) = 121 with lengths (beta, 1):
    assert p2.tiles[1].pos == b
    assert p2.tiles[2].pos == b + fib.field.one()
    assert p2.tiles[2].pos == b * b


def test_inflate_zero_level(fib):
    t = Tile(1, fib.beta)
    assert fib.inflate_patch(Patch((t,)), 0) == Patch((t,))


def test_measure_identity(fib, trib):
    rng = random.Random(3)
    for system in (fib, trib):
        m = system.substitution.m
        for _ in range(20):
            tiles = tuple(
                Tile(rng.randint(1, m), system.field.from_rational(
                    Fraction(rng.randint(-50, 50), rng.randint(1, 5))))
                for _ in range(rng.randint(1, 12))
            )
            p = Patch(tiles)
            assert system.support_length(system.inflate_patch(p)) == (
                system.beta * system.support_length(p)
            )


def test_shift_covariance(fib):
    g = fib.beta - fib.field.one()
    p = Patch((Tile(1, fib.field.zero()), Tile(2, fib.beta)))
    shifted = Patch(tuple(Tile(t.color, t.pos + g) for t in p.tiles))
    left = fib.inflate_patch(shifted)
    right = Patch(tuple(
        Tile(t.color, t.pos + fib.beta * g) for t in fib.inflate_patch(p).tiles
    ))
    assert left == right


def test_central_patch_radius_zero(fib):
    p = fib.central_patch(0)
    assert len(p.tiles) == 2
    ends = sorted(float(t.pos) for t in p.tiles)
    assert ends[1] == 0.0  # one tile starts at the origin
    assert tiles_disjoint(fib, p)


def test_central_patch_nesting(fib):
    small = fib.central_patch(3)
    big = fib.central_patch(6)
    assert set(small.tiles) <= set(big.tiles)


def test_central_patch_letters(fib):
    # Right of the origin the colors spell a prefix of the fixed point 12112...
    p = fib.central_patch(6)
    right = sorted(
        (t for t in p.tiles if t.pos.sign() >= 0), key=lambda t: float(t.pos)
    )
    colors = [t.color for t in right]
    assert colors[:5] == [1, 2, 1, 1, 2]


def test_central_patch_is_fixed(fib):
    # The fixed point is fixed under sigma^seed_power: re-inflating the
    # central patch reproduces every one of its tiles.
    p = fib.central_patch(4)
    q = fib.inflate_patch(p, fib.seed_power)
    assert set(p.tiles) <= set(q.tiles)


def test_central_patch_repeat_is_cached(fib):
    p = fib.central_patch(7)
    assert fib.central_patch(fib.field.from_rational(7)) is p
    other = fib.central_patch(3)
    assert other is not p
    # Only the last radius is kept; a rebuilt patch has the same tiles.
    again = fib.central_patch(7)
    assert again is not p and again == p


@pytest.mark.parametrize("rules", [*CORPUS_RULES.values(), *CUBIC_RULES.values()])
def test_central_patch_matches_exact_inflation(rules):
    # The patch inflated on integer coordinates equals, tile by tile, the
    # one inflated in field elements.
    system = TilingSystem(Substitution(*rules))
    l_max = max(system.lengths, key=float)
    for k in (8, 32):
        radius = system.field.from_rational(k) * l_max
        assert system.central_patch(radius) == central_patch_reference(system, radius)


def test_return_vectors_single_tiles(fib):
    p = Patch((Tile(1, fib.field.zero()), Tile(2, fib.beta)))
    ys = fib.return_vectors(p)
    assert list(ys) == [fib.coords(fib.field.zero())]


def test_return_vectors_negation_closure(fib):
    p = fib.central_patch(5)
    ys = fib.return_vectors(p)
    keys = set(ys)
    assert len(keys) == len(ys)
    for y in ys:
        assert tuple(-c for c in y) in keys
    # The squared expansion beta^2 = beta + 1 appears as a same-color gap.
    assert fib.coords(fib.beta + fib.field.one()) in keys


def test_tile_map_targets(fib):
    t = tile_map_targets(fib, TileMap(1, (0, 0)))
    assert t[0] == (1, fib.field.zero())
    assert t[1] == (1, fib.field.zero())
    t2 = tile_map_targets(fib, TileMap(1, (1, 0)))
    assert t2[0] == (2, fib.beta)
    with pytest.raises(ValueError):
        tile_map_targets(fib, TileMap(1, (2, 0)))


def test_control_points_identity_map(fib):
    cp = solve_control_points(fib, TileMap(1, (0, 0)))
    assert all(c.is_zero() for c in cp.c)
    assert cp.admissible


def test_control_points_second_map(fib):
    cp = solve_control_points(fib, TileMap(1, (1, 0)))
    # beta c1 = c2 + beta, beta c2 = c1 -> c1 = beta, c2 = 1.
    assert cp.c[0] == fib.beta
    assert cp.c[1] == fib.field.one()
    assert cp.admissible


def test_control_points_inadmissible(fib):
    # c = (0, 1): shifted supports [0, beta] and [-1, 0] share only a point.
    cp = solve_control_points(fib, TileMap(2, (0, 1)))
    assert cp.c[0].is_zero()
    assert cp.c[1] == fib.field.one()
    assert not cp.admissible


def test_control_point_residuals_exact(fib, trib):
    import itertools

    from pisotile.substitution import power

    for system in (fib, trib):
        for n in (1, 2):
            s_n = power(system.substitution, n)
            lam = system.beta**n
            sizes = [len(w) for w in s_n.rules]
            for choice in itertools.product(*(range(k) for k in sizes)):
                tm = TileMap(n, choice)
                cp = solve_control_points(system, tm)
                for i, (j, u) in enumerate(tile_map_targets(system, tm)):
                    lhs = lam * cp.c[i]
                    rhs = cp.c[j - 1] + u
                    assert (lhs - rhs).is_zero()


ROADMAP_RULES = [((2,), (3,), (1, 2)), ((1, 1, 1, 2), (1, 2)), ((2, 3, 1), (1, 2), (2,)),
                 ((1, 3, 2), (3, 3), (3, 1))]


@pytest.mark.parametrize("rules, n", [
    *((rules, 3 if m < 3 else 2) for m, rules in CORPUS_RULES.values()),
    *((rules, 1) for _, rules in CUBIC_RULES.values()),
    *((rules, 1) for rules in ROADMAP_RULES),
])
def test_control_points_match_field_solve(rules, n):
    # Every tile map of levels 1..n: the points solved on integer vectors
    # equal the field-element solve, each (D, v) is in lowest terms, and
    # admissibility is the exact test max(-c_i) < min(l_i - c_i).
    system = TilingSystem(Substitution(len(rules), rules))
    for level in range(1, n + 1):
        for tm in enumerate_tile_maps(system, level):
            cp = solve_control_points(system, tm)
            ref = control_points_reference(system, tm)
            assert list(cp.c) == ref, tm
            for den, v in cp.points:
                assert den > 0 and math.gcd(den, *v) == 1
            lo, hi = -ref[0], system.length(1) - ref[0]
            for i, c in enumerate(ref):
                lo = max(lo, -c)  # exact comparisons in Q(beta)
                hi = min(hi, system.length(i + 1) - c)
            assert cp.admissible == (hi > lo), tm

"""Suspension tiling geometry: inflation, central patches, control points."""

import itertools
import math
import random

import mpmath
import pytest

from conftest import CORPUS_RULES, CUBIC_RULES
from oracles import (
    central_patch_reference,
    control_points_reference,
    field_tiles,
    tile_map_targets,
    tiles_disjoint,
)
from pisotile import (
    CapExceededError,
    ModuleVectors,
    Patch,
    Substitution,
    TileMap,
    TilingSystem,
    solve_control_points,
)
from pisotile import tiling
from pisotile.strongcoin import enumerate_tile_maps
from pisotile.tiling import TileMapError, _targets

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
    zero = (0, 0)
    p = fib.inflate_patch(Patch(((1, zero),)))
    assert [c for c, _ in p.tiles] == [1, 2]
    assert p.tiles[0][1] == zero
    assert fib.point(p.tiles[1][1]) == b
    p2 = fib.inflate_patch(Patch(((1, zero),)), 2)
    assert [c for c, _ in p2.tiles] == [1, 2, 1]
    # Exact prefix sums of sigma^2(1) = 121 with lengths (beta, 1):
    assert fib.point(p2.tiles[1][1]) == b
    assert fib.point(p2.tiles[2][1]) == b + fib.field.one()
    assert fib.point(p2.tiles[2][1]) == b * b


def test_inflate_zero_level(fib):
    p = Patch(((1, fib.coords(fib.beta)),))
    assert fib.inflate_patch(p, 0) == p
    with pytest.raises(ValueError):
        fib.inflate_patch(p, -1)


def test_inflate_patch_cap_before_building(fib, monkeypatch):
    # sigma^4(12) = 12112121 12112 has 13 tiles: the cap 12 is found from
    # the letter counts before any tile moves, and the cap 13 lets it through.
    p = Patch(((1, (0, 0)), (2, fib.coords(fib.beta))))
    monkeypatch.setattr(tiling, "_TILE_CAP", 13)
    assert len(fib.inflate_patch(p, 4).tiles) == 13
    monkeypatch.setattr(tiling, "_TILE_CAP", 12)
    monkeypatch.setattr(fib, "times_beta", None)
    with pytest.raises(CapExceededError, match="patch exceeds tile cap 12"):
        fib.inflate_patch(p, 4)


def _measure(system, p):
    """The summed tile lengths of p, as integer coordinates over den."""
    total = (0,) * system.field.degree
    for color, _ in p.tiles:
        total = tuple(map(sum, zip(total, system.length_coords[color - 1])))
    return total


def test_measure_identity(fib, trib):
    # Inflation multiplies the summed tile lengths by beta, whatever the
    # positions: random integer vectors over den.
    rng = random.Random(3)
    for system in (fib, trib):
        d, m = system.field.degree, system.substitution.m
        for _ in range(20):
            p = Patch(tuple(
                (rng.randint(1, m), tuple(rng.randint(-40, 40) for _ in range(d)))
                for _ in range(rng.randint(1, 12))
            ))
            assert _measure(system, system.inflate_patch(p)) == system.times_beta(_measure(system, p))


def test_shift_covariance(fib):
    g = fib.coords(fib.beta - fib.field.one())
    p = Patch(((1, (0, 0)), (2, fib.coords(fib.beta))))
    shifted = Patch(tuple((c, tuple(map(sum, zip(v, g)))) for c, v in p.tiles))
    bg = fib.times_beta(g)
    right = Patch(tuple(
        (c, tuple(map(sum, zip(v, bg)))) for c, v in fib.inflate_patch(p).tiles
    ))
    assert fib.inflate_patch(shifted) == right


def test_central_patch_radius_zero(fib):
    p = fib.central_patch(0)
    assert len(p.tiles) == 2
    ends = sorted(float(fib.point(v)) for _, v in p.tiles)
    assert ends[1] == 0.0  # one tile starts at the origin
    assert tiles_disjoint(fib, field_tiles(fib, p))


def test_central_patch_nesting(fib):
    small = fib.central_patch(3)
    big = fib.central_patch(6)
    assert set(small.tiles) <= set(big.tiles)


def test_central_patch_letters(fib):
    # Right of the origin the colors spell a prefix of the fixed point 12112...
    p = fib.central_patch(6)
    right = sorted(
        (t for t in field_tiles(fib, p) if t[1].sign() >= 0), key=lambda t: float(t[1])
    )
    colors = [c for c, _ in right]
    assert colors[:5] == [1, 2, 1, 1, 2]


def test_central_patch_is_fixed(fib):
    # The fixed point is fixed under sigma^seed_power: re-inflating the
    # central patch reproduces every one of its tiles.
    p = fib.central_patch(4)
    q = fib.inflate_patch(p, fib.seed_power)
    assert set(p.tiles) <= set(q.tiles)


@pytest.mark.parametrize("rules", [*CORPUS_RULES.values(), *CUBIC_RULES.values()])
def test_central_patch_matches_exact_inflation(rules):
    # The patch inflated on integer coordinates equals, tile by tile, the
    # one inflated in field elements.
    system = TilingSystem(Substitution(*rules))
    l_max = max(system.lengths, key=float)
    for k in (8, 32):
        radius = system.field.from_rational(k) * l_max
        patch = system.central_patch(radius)
        assert field_tiles(system, patch) == central_patch_reference(system, radius)


def test_return_vectors_single_tiles(fib):
    p = Patch(((1, (0, 0)), (2, fib.coords(fib.beta))))
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


@pytest.mark.parametrize("rules", [*CUBIC_RULES.values(), (2, ((1, 1, 1, 2), (1, 2)))])
def test_module_vector_floats_are_enclosure_midpoints(rules):
    # Each float of ModuleVectors, the mirrored half's too, is IntEnclosure's
    # midpoint bit for bit and within err of a 60-digit value: on return
    # vectors, and on vectors at the packing's coordinate bound.  Y = -Y holds
    # 0 in the middle, and the floats increase.
    system = TilingSystem(Substitution(*rules))
    patch = system.central_patch(system.field.from_rational(16) * max(system.lengths, key=float))
    ys = system.return_vectors(patch)
    b, d = ys.packing.bound, system.field.degree
    corners = [v for v in itertools.product((-b, 0, b), repeat=d) if any(v)]
    with mpmath.workdps(60 + len(str(b))):
        poly = [mpmath.mpf(c) for c in reversed(system.field.min_poly)]
        root = mpmath.findroot(lambda x: mpmath.polyval(poly, x), float(system.beta))
        for vs in (ys, ModuleVectors.of(system, corners, b)):
            n = len(vs)
            assert len(vs.floats) == n and n % 2 and vs[n // 2] == (0,) * d
            assert all(x <= y for x, y in zip(vs.floats, vs.floats[1:]))
            for i, v in enumerate(vs):
                assert vs[n - 1 - i] == tuple(-c for c in v)
                mid, err = system.field.floats(v, system.den)
                assert vs.floats[i].hex() == mid.hex() and err <= vs.err
                value = sum(c * root**k for k, c in enumerate(v)) / system.den
                assert abs(value - vs.floats[i]) <= vs.err


def test_tile_map_targets(fib):
    # The chosen subtiles as colors and offsets over den, against the
    # field-element inflation.
    t = _targets(fib, TileMap(1, (0, 0)))
    assert t == [(1, (0, 0)), (1, (0, 0))]
    for choice in ((0, 0), (1, 0)):
        tm = TileMap(1, choice)
        assert [(j, fib.point(u)) for j, u in _targets(fib, tm)] == tile_map_targets(fib, tm)
    assert fib.point(_targets(fib, TileMap(1, (1, 0)))[0][1]) == fib.beta
    with pytest.raises(TileMapError):
        _targets(fib, TileMap(1, (2, 0)))


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

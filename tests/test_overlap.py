"""Overlap classes, graph closure, coincidence verdicts, and DOT export."""

from fractions import Fraction

import itertools
import math

import mpmath
import pytest

from conftest import CORPUS_RULES, CUBIC_RULES
from oracles import field_tiles, inflate_children, inflate_tiles, seed_overlaps_two_windows
from pisotile import (
    CapExceededError,
    ModuleVectors,
    OverlapClass,
    Patch,
    Substitution,
    TilingSystem,
    build_graph,
    expansive_sccs,
    inflate_class,
    compute_level_n,
    multiple_strong_coincidence,
    overlap_coincidence,
    seed_overlaps,
    stable_overlap_graph,
    stuck_scc_indices,
    to_dot,
)
from pisotile.overlap import OverlapClosure, overlap_closure


@pytest.fixture(scope="module")
def fib():
    return TilingSystem(Substitution(2, ((1, 2), (1,))))


@pytest.fixture(scope="module")
def tm():
    return TilingSystem(Substitution(2, ((1, 2), (2, 1))))


def class_key(c):
    """The closure's key (i, j, D, v) of the class c: its shift's (D, v)."""
    return (c.color_u, c.color_v, c.shift.den, c.shift.v)


def test_inflate_class_coincidence(fib):
    c = OverlapClass(1, 1, fib.field.zero())
    assert c.is_coincidence
    children = inflate_class(fib, c)
    assert all(ch.is_coincidence for ch in children)
    assert sum(children.values()) == 2  # the two subtiles of sigma(1)


def test_seed_overlaps_self(fib):
    p = fib.central_patch(4)
    ys = ModuleVectors.of(fib, [fib.coords(fib.field.zero())])
    seeds = seed_overlaps(fib, p, ys)
    # y = 0 produces exactly the self-coincidence classes present.
    assert {(c.color_u, c.color_v) for c in seeds} == {(1, 1), (2, 2)}
    assert all(c.is_coincidence for c in seeds)


def test_seed_overlaps_shift(tm):
    p = tm.central_patch(4)
    seeds = seed_overlaps(tm, p, ModuleVectors.of(tm, [tm.coords(tm.field.one())]))
    keys = {(c.color_u, c.color_v, c.shift.coeffs) for c in seeds}
    zero = tm.field.zero().coeffs
    assert (1, 2, zero) in keys or (2, 1, zero) in keys


def test_seed_symmetry(fib):
    p = fib.central_patch(6)
    ys = fib.return_vectors(p)
    seeds = seed_overlaps(fib, p, ys)
    keys = {c.key() for c in seeds}
    # (i, j, t) realized -> (j, i, -t) realized (with y replaced by -y).
    for c in seeds:
        assert (c.color_v, c.color_u, (-c.shift).coeffs) in keys


def _scan_all_pairs(system, patch, ys):
    """Overlap-class keys of every (tile U, tile V, y) of the patch, each
    decided by an exact zero test and an mpmath sign with 60 digits beyond
    the size of the coordinates of the positions and of y."""
    ys = [system.point(y) for y in ys]
    tiles = field_tiles(system, patch)
    digits = max(len(str(abs(c.numerator))) for y in ys + [p for _, p in tiles] for c in y.coeffs)
    with mpmath.workdps(60 + digits):
        poly = [mpmath.mpf(c) for c in reversed(system.field.min_poly)]
        root = mpmath.findroot(lambda x: mpmath.polyval(poly, x), float(system.beta))

        def value(x):
            return sum(mpmath.mpf(c.numerator) / c.denominator * root**k
                       for k, c in enumerate(x.coeffs))

        def positive(x):
            return not x.is_zero() and value(x) > 0

        keys = set()
        for cu, pu in tiles:
            for cv, pv in tiles:
                for y in ys:
                    shift = pv - pu - y
                    if positive(shift + system.length(cv)) and positive(
                        system.length(cu) - shift
                    ):
                        keys.add((cu, cv, shift.coeffs))
    return keys


def _tiny_module_point(system, bits=70):
    """Coordinates of eps_k * l_1 with eps_k = beta^k - tr(beta^k), for the
    least k with |eps_k * l_1| < 2^-bits.  eps_k is minus the sum of the
    k-th powers of the other conjugates, so it tends to 0 (beta is Pisot),
    while its coordinates grow like beta^k."""
    d = system.field.degree
    conj = max(abs(r) for r in mpmath.polyroots(list(reversed(system.field.min_poly)))
               if abs(r) < 1)
    k = int(mpmath.ceil((bits * mpmath.log(2) + mpmath.log((d - 1) * float(system.length(1))))
                        / -mpmath.log(conj))) + 1
    power, v = [[int(i == j) for j in range(d)] for i in range(d)], system.length_coords[0]
    for _ in range(k):
        power = [[sum(a * b for a, b in zip(row, col)) for col in zip(*power)]
                 for row in system.beta_matrix]
        v = system.times_beta(v)
    trace = sum(power[i][i] for i in range(d))
    eps = tuple(a - trace * b for a, b in zip(v, system.length_coords[0]))
    with mpmath.workdps(60 + len(str(max(map(abs, eps))))):
        root = mpmath.findroot(
            lambda x: mpmath.polyval([mpmath.mpf(c) for c in reversed(system.field.min_poly)], x),
            float(system.beta))
        assert 0 < abs(sum(c * root**i for i, c in enumerate(eps)) / system.den) < mpmath.mpf(2) ** -bits
    return eps


@pytest.mark.parametrize("m, rules", [
    (2, ((1, 2), (1,))),
    (3, ((1, 2), (1, 3), (1,))),
    (3, ((2, 3, 1), (3, 2, 3), (1, 3))),
])
def test_seed_overlaps_equals_all_pairs_scan(m, rules):
    system = TilingSystem(Substitution(m, rules))
    radius = system.field.from_rational(8) * max(system.lengths, key=float)
    patch = system.central_patch(radius)
    ys = list(system.return_vectors(patch))
    # Points of L within 2^-70 of either end of the overlap window, which
    # floats cannot separate from it: gap + edge -+ eps.
    eps = _tiny_module_point(system)
    near = []
    tiles = field_tiles(system, patch)
    for (cu, pu), (cv, pv) in zip(tiles, tiles[3:11]):
        for edge in (-system.length(cu), system.length(cv)):
            w = system.coords(pv - pu + edge)
            near += [tuple(a - b for a, b in zip(w, eps)), tuple(a + b for a, b in zip(w, eps))]
    # ModuleVectors holds a symmetric set with 0, so the scan sees the same.
    near += [tuple(-c for c in v) for v in near] + [(0,) * system.field.degree]
    # Apart, so that the return vectors keep their own tight float window.
    expected = [_scan_all_pairs(system, patch, vs) for vs in (ys, near)]
    for vs, keys in zip((ys, near), expected):
        assert {c.key() for c in seed_overlaps(system, patch, ModuleVectors.of(system, vs))} == keys
    seeds = seed_overlaps(system, patch, ModuleVectors.of(system, ys + near))
    assert {c.key() for c in seeds} == expected[0] | expected[1]


@pytest.mark.parametrize("m, rules", [(2, ((1, 2), (1,))), (3, ((1, 2), (1, 3), (1,)))])
def test_seed_overlaps_near_edge_differences(m, rules):
    # Tile pairs whose difference lies within 2^-60 of an end of the overlap
    # window, with a float midpoint more than 10 off, and y = 0 only: only
    # the differences' own error bound keeps their float windows wide enough.
    system = TilingSystem(Substitution(m, rules))
    eps, zero = _tiny_module_point(system), (0,) * system.field.degree
    tiles = [(a, zero) for a in range(1, m + 1)]
    for a, b in itertools.product(range(1, m + 1), repeat=2):
        for edge, sign in itertools.product((-system.length(b), system.length(a)), (-1, 1)):
            w = system.coords(edge)
            near = (tuple(x + sign * k * e for x, e in zip(w, eps)) for k in range(1, 1000))
            tiles.append((b, next(v for v in near
                                  if abs(system.field.floats(v, system.den)[0] - float(edge)) > 10)))
    patch = Patch(tuple(tiles))
    expected = _scan_all_pairs(system, patch, [zero])
    assert sum(max(map(abs, shift)) > 2**40 for _, _, shift in expected) >= m * m  # near an edge
    seeds = seed_overlaps(system, patch, ModuleVectors.of(system, [zero]))
    assert {c.key() for c in seeds} == expected


def test_module_vectors_of_symmetric_closure(fib):
    # An asymmetric input, with or without 0 and with a pair +-v given twice,
    # holds exactly its symmetric closure with 0.  The positive one of each
    # pair is chosen exactly, also for a v > 0 with a negative float midpoint,
    # which is read as 0.0 so that the floats still increase.
    eps = _tiny_module_point(fib)
    far = next(v for k in range(-1000, 1000) for v in [tuple(k * c for c in eps)]
               if fib.point(v).sign() > 0 and fib.field.floats(v, fib.den)[0] < 0)
    vs = [(1, 0), (0, -2), (3, -5), eps, far]
    closure = {*vs, *(tuple(-c for c in v) for v in vs), (0, 0)}
    for given in (vs, vs + [(0, 0)], vs + [tuple(-c for c in vs[0])]):
        ys = ModuleVectors.of(fib, given)
        assert len(ys) == len(closure) and set(ys) == closure
        assert all(x <= y for x, y in zip(ys.floats, ys.floats[1:]))
        assert all(fib.point(ys[i]).sign() > 0 for i in range(len(ys) // 2 + 1, len(ys)))


@pytest.mark.parametrize("name, rules", [
    ("1->2,2->3,3->12", CUBIC_RULES["1->2,2->3,3->12"]),
    ("1->1112,2->12", (2, ((1, 1, 1, 2), (1, 2)))),
])
def test_seeds_equal_two_window_seeding(name, rules):
    # At every radius of the doubling up to the stable one, the mirrored
    # seeding equals the union of the two windows per difference.
    system = TilingSystem(Substitution(*rules))
    _, last = stable_overlap_graph(system)
    radius = 8 * max(system.lengths)
    while True:
        patch = system.central_patch(radius)
        ys = system.return_vectors(patch)
        assert list(map(class_key, seed_overlaps(system, patch, ys))) == list(
            map(class_key, seed_overlaps_two_windows(system, patch, ys)))
        if radius == last:
            break
        radius = 2 * radius


def test_fibonacci_graph(fib):
    g, radius = stable_overlap_graph(fib)
    assert len(g.vertices) == 10
    oc, cert = overlap_coincidence(g)
    assert oc
    assert set(cert) == set(range(10))
    assert max(cert.values()) <= 3
    assert stuck_scc_indices(g) == []


@pytest.mark.parametrize("name, vertices, radius", [
    ("1->2,2->3,3->12", 427, (0, 0, 256)),
    ("1->13,2->1,3->2", 149, (0, 0, 128)),
    ("1->231,2->323,3->13", 595, (-16, 16, 0)),
])
def test_cubic_overlap_graphs(name, vertices, radius):
    system = TilingSystem(Substitution(*CUBIC_RULES[name]))
    g, r = stable_overlap_graph(system)
    assert len(g.vertices) == vertices
    assert r == system.field.element(radius)


def test_thue_morse_graph(tm):
    g, _ = stable_overlap_graph(tm)
    oc, cert = overlap_coincidence(g)
    assert not oc
    labels = {g.vertices[i].label() for i in cert}
    assert labels == {"(1,2,0)", "(2,1,0)"}
    sccs = stuck_scc_indices(g)
    assert len(sccs) == 1
    descs = expansive_sccs(tm, g)
    assert len(descs) == 1
    assert sorted(map(sorted, descs[0]["matrix"])) == [[1, 1], [1, 1]]
    assert descs[0]["perron_is_expansion"] is True


def test_closure_idempotence(fib, tm):
    for system in (fib, tm):
        g, _ = stable_overlap_graph(system)
        g2 = build_graph(system, list(g.vertices))
        assert {c.key() for c in g2.vertices} == {c.key() for c in g.vertices}


def test_pipeline_inflates_each_class_once(pipeline):
    # The graph closures at every seeding radius and the MSC pair tests share
    # one closure per system, so no class is inflated twice.
    for name in ("tribonacci", "thue_morse"):
        inflations = pipeline(name)["inflations"]
        assert inflations and max(inflations.values()) == 1


def test_multiplicity_conservation(fib, tm):
    for system in (fib, tm):
        g, _ = stable_overlap_graph(system)
        for ui, c in enumerate(g.vertices):
            out = sum(w for (u, _), w in g.edges.items() if u == ui)
            children = inflate_class(system, c)
            assert out == sum(children.values())


def test_absorbing_coincidences(fib, tm):
    for system in (fib, tm):
        g, _ = stable_overlap_graph(system)
        coins = {i for i, c in enumerate(g.vertices) if c.is_coincidence}
        for (u, v), _ in g.edges.items():
            if u in coins:
                assert v in coins


def test_verdict_radius_stability(fib, tm):
    for system, expected in ((fib, True), (tm, False)):
        g, radius = stable_overlap_graph(system)
        g2 = build_graph(
            system,
            seed_overlaps(
                system,
                system.central_patch(2 * radius),
                system.return_vectors(system.central_patch(2 * radius)),
            ),
        )
        assert overlap_coincidence(g2)[0] == expected
        assert {c.key() for c in g2.vertices} == {c.key() for c in g.vertices}


def test_vertex_cap(fib):
    p = fib.central_patch(6)
    seeds = seed_overlaps(fib, p, fib.return_vectors(p))
    with pytest.raises(CapExceededError):
        build_graph(fib, seeds, cap=3)


def test_build_graph_requires_seeds(fib):
    with pytest.raises(ValueError):
        build_graph(fib, [])


def test_dot_deterministic(tm):
    g, _ = stable_overlap_graph(tm)
    _, cert = overlap_coincidence(g)
    d1 = to_dot(g, cert)
    d2 = to_dot(g, cert)
    assert d1 == d2
    assert d1.startswith("digraph overlaps {")
    assert "doublecircle" in d1  # coincidences marked
    assert "fillcolor=lightgray" in d1  # stuck vertices shaded
    assert d1.count("->") == len(g.edges)


def _field_children(system, c):
    return [(class_key(child), mult) for child, mult in inflate_children(system, c)]


def _touching_pairs(system, c):
    """Subtile pairs of the inflated class c whose tiles meet in one point."""
    upatch = inflate_tiles(system, [(c.color_u, system.field.zero())])
    vpatch = inflate_tiles(system, [(c.color_v, c.shift)])

    def end(t):
        return t[1] + system.length(t[0])

    return sum((end(b) - a[1]).is_zero() or (end(a) - b[1]).is_zero()
               for a in upatch for b in vpatch)


# 1->112, 2->11: lengths over den = 2 (beta = 1 + sqrt 3), so classes over a
# smaller denominator are rescaled when inflated.
HALVES = {"1->112,2->11": (2, ((1, 1, 2), (1, 1)))}


# The golden `msc NAME --map-level N` commands of test_cli.py.
MSC_LEVELS = {"tribonacci@3": 3, "thue_morse@3": 3, "fibonacci@4": 4, "s112@2": 2}


def _closure_of_analyze(name, pipeline):
    """The system's closure after the overlap graph and MSC of analyze, or
    after the MSC of `msc` for a name in MSC_LEVELS."""
    if name in MSC_LEVELS:
        system = TilingSystem(Substitution(*CORPUS_RULES[name.split("@")[0]]))
        multiple_strong_coincidence(system, MSC_LEVELS[name])
    elif name in CORPUS_RULES:
        system = pipeline(name)["system"]
    else:
        system = TilingSystem(Substitution(*{**CUBIC_RULES, **HALVES}[name]))
        g, _ = stable_overlap_graph(system)
        multiple_strong_coincidence(system, compute_level_n(g))
    return system, overlap_closure(system)


CLOSURES = list(CORPUS_RULES) + list(CUBIC_RULES) + list(HALVES) + list(MSC_LEVELS)


@pytest.mark.parametrize("name", CLOSURES)
def test_int_inflation_equals_field_inflation(name, pipeline):
    # Every class of the closure, graph vertices and pair starts alike: the
    # children and multiplicities of the table inflation against the
    # field-element inflation of tests/oracles.py.
    system, closure = _closure_of_analyze(name, pipeline)
    touching = 0
    for i, key in enumerate(closure.keys):
        c = closure.overlap_class(i)
        assert class_key(c) == key
        assert closure._inflate(key) == _field_children(system, c), c.label()
        touching += _touching_pairs(system, c)
    assert touching  # exact zeros: tiles that meet in one point
    if name == "1->231,2->323,3->13":
        # Pair starts whose shift has a denominator that den does not absorb.
        assert any(system.den % d for _, _, d, _ in closure.keys)
    if name in HALVES:
        # Classes over a proper divisor of den, whose shift is rescaled.
        assert any(system.den % d == 0 < system.den - d and any(v) for _, _, d, v in closure.keys)


@pytest.mark.parametrize("name", CLOSURES)
def test_mirrored_successors_equal_inflation(name, pipeline):
    # One class of each mirror pair is inflated, and the other takes the
    # mirrored children of the first: on every class of the closure whose
    # successors are known, their mirror against _inflate of its mirror
    # class, children, multiplicities and order, and the successors
    # themselves against _inflate of the class.
    system, closure = _closure_of_analyze(name, pipeline)
    keys, resorted = closure.keys, 0
    for i, (a, b, den, v) in enumerate(keys):
        if closure.children[i] is None:
            continue
        assert [(keys[k], mult) for k, mult in closure.children[i]] == closure._inflate(keys[i])
        mirror = closure._inflate((b, a, den, tuple(-c for c in v)))
        assert closure._mirrored(i) == mirror, closure.overlap_class(i).label()
        unsorted = [((q, p, d, tuple(-c for c in w)), mult)
                    for k, mult in reversed(closure.children[i]) for p, q, d, w in (keys[k],)]
        resorted += unsorted != mirror
    assert resorted  # classes whose reversed children need the sort by colors


def test_int_inflation_exact_fallback(monkeypatch, pipeline):
    # With the field's float enclosure abstaining, the exact sign of
    # NumberField.compare decides each pair alone (0 for tiles that touch),
    # and gives the same children.
    def abstain(v, den=1):
        return 0.0, math.inf

    for name in ("tribonacci", "1->231,2->323,3->13"):
        system, closure = _closure_of_analyze(name, pipeline)
        classes = [closure.overlap_class(i) for i in range(0, len(closure.keys), 7)]
        expected = [_field_children(system, c) for c in classes]
        monkeypatch.setattr(system.field, "floats", abstain)
        closure = OverlapClosure(system)
        for c, children in zip(classes, expected):
            assert closure._inflate(class_key(c)) == children, c.label()
        monkeypatch.undo()


@pytest.mark.parametrize("m, rules", [
    (2, ((1, 2), (1,))),
    (3, ((1, 2), (1, 3), (1,))),
    (3, ((2, 3, 1), (3, 2, 3), (1, 3))),
])
def test_int_inflation_near_touching(m, rules):
    # A color-j tile within 2^-70 of touching the color-i tile at 0 from
    # either side: after one inflation, subtile ends lie within about
    # beta 2^-70 of each other, which floats cannot separate.
    system = TilingSystem(Substitution(m, rules))
    eps = _tiny_module_point(system)
    closure = OverlapClosure(system)
    for i in range(1, m + 1):
        for j in range(1, m + 1):
            for edge in (system.length_coords[i - 1], tuple(-c for c in system.length_coords[j - 1])):
                for sign in (1, -1):
                    c = OverlapClass(i, j, system.point(tuple(a + sign * b for a, b in zip(edge, eps))))
                    assert closure._inflate(class_key(c)) == _field_children(system, c), c.label()


@pytest.mark.parametrize("m, rules", [
    (2, ((1, 2), (1,))),
    (2, ((1, 2), (2, 1))),
    (2, ((1, 1, 2), (1, 1))),
    (3, ((1, 2), (1, 3), (1,))),
    (3, ((2, 3, 1), (3, 2, 3), (1, 3))),
])
def test_inflation_table_cells(m, rules):
    # One class for every cell of every color pair's table: beta * shift
    # on each threshold (tiles that touch, as in each (i, i, 0)), inside
    # each gap between two thresholds, and below the first and above the
    # last; and one class with a 3 in its denominator, whose cells are
    # the table's offsets rescaled.
    system = TilingSystem(Substitution(m, rules))
    closure = OverlapClosure(system)
    beta, third = system.field.beta(), system.field.from_rational(Fraction(1, 3))
    for i in range(1, m + 1):
        for j in range(1, m + 1):
            thresholds, spans, _ = closure._table(i, j)
            assert all(0 < first <= last < 2 * len(thresholds) for first, last, _ in spans)
            xs = [system.point(t[1]) for t in thresholds]
            assert all((b - a).sign() > 0 for a, b in zip(xs, xs[1:]))
            if i == j:  # (i, i, 0): beta * 0 is the threshold u_0 - w_0
                assert any(x.is_zero() for x in xs)
            points = xs + [(a + b) / 2 for a, b in zip(xs, xs[1:])]
            points += [xs[0] - 1, xs[-1] + 1, xs[0] + third]
            for x in points:
                c = OverlapClass(i, j, x / beta)
                assert closure._inflate(class_key(c)) == _field_children(system, c), c.label()
    assert any(den % (3 * system.den) == 0 for _, _, den, _ in closure._cells)


def _plain_distance(closure, i):
    """The first breadth-first level from class i holding a coincidence."""
    level, seen, d = [i], {i}, 0
    while level:
        if any(a == b and not any(v) for a, b, _, v in map(closure.keys.__getitem__, level)):
            return d
        nxt = []
        for k in level:
            for j, _ in closure.successors(k):
                if j not in seen:
                    seen.add(j)
                    nxt.append(j)
        level, d = nxt, d + 1
    return None


@pytest.mark.parametrize("name", CLOSURES)
def test_distance_equals_plain_search(name, pipeline):
    # The known-distance search against the plain one on every class of the
    # closure: with the memo the run left, and from a fresh closure asked
    # in reverse order, so the known classes differ.
    system, closure = _closure_of_analyze(name, pipeline)
    keys = list(closure.keys)
    expected = {key: _plain_distance(closure, i) for i, key in enumerate(keys)}
    if name.startswith("thue_morse"):
        assert None in expected.values()  # classes that reach no coincidence
    for i, key in enumerate(keys):
        assert closure.distance(i, 10**4) == expected[key], closure.overlap_class(i).label()
    fresh = OverlapClosure(system)
    for key in reversed(keys):
        assert fresh.distance(fresh._id(key), 10**4) == expected[key], key

"""Strong coincidence, translation-module membership, tile-map enumeration,
level computation, and witness extraction."""

import random
from fractions import Fraction
from itertools import islice
from math import lcm

import pytest
from sympy import Matrix, factorint

from conftest import CORPUS_RULES, CUBIC_RULES
from oracles import (
    closed_walk_level,
    column_check_applies,
    descendant_reference,
    group_G_reference,
    msc_reference,
    pair_closure,
    random_substitutions,
    stuck_reference,
)
from pisotile import (
    CapExceededError,
    EnumerationCapError,
    NotPisotError,
    OverlapClass,
    OverlapGraph,
    RodHypothesisError,
    Substitution,
    TileMap,
    TilingSystem,
    compute_level_n,
    dekking_column_check,
    enumerate_tile_maps,
    extract_witness,
    group_G,
    inflate_class,
    is_primitive,
    multiple_strong_coincidence,
    solve_control_points,
    stable_overlap_graph,
    strong_coincidence,
    stuck_scc_indices,
)
from pisotile import strongcoin
from pisotile.strongcoin import _descendant, _pair_test
from pisotile.substitution import matrix
from test_sweep import COUNT, SEED


@pytest.fixture(scope="module")
def fib():
    return TilingSystem(Substitution(2, ((1, 2), (1,))))


@pytest.fixture(scope="module")
def tm():
    return TilingSystem(Substitution(2, ((1, 2), (2, 1))))


@pytest.fixture(scope="module")
def fib_group(fib):
    return group_G(fib)


def test_group_membership_basics(fib, fib_group):
    ok, k = fib_group.membership(fib.field.zero())
    assert ok and k == 0
    assert fib_group.membership(fib.field.one())[0]
    assert fib_group.membership(fib.beta)[0]
    assert fib.field.one() in fib_group
    assert not fib_group.membership(fib.field.from_rational(Fraction(1, 2)))[0]


def test_group_half_basis_vector(fib, fib_group):
    # Halving a basis vector leaves the module (discriminant excludes it).
    g0 = fib.field.element([Fraction(c, fib_group.den) for c in fib_group.basis[0]])
    assert fib_group.membership(g0)[0]
    half = g0 / fib.field.from_rational(2)
    assert not fib_group.membership(half)[0]


def test_group_beta_closure(fib, fib_group):
    # membership(x) implies membership(beta * x).
    for x in (fib.field.one(), fib.beta, fib.beta + fib.field.one()):
        assert fib_group.membership(x)[0]
        assert fib_group.membership(fib.beta * x)[0]


def test_strong_coincidence_fibonacci(fib):
    cp = solve_control_points(fib, TileMap(1, (0, 0)))
    rep = strong_coincidence(fib, cp)
    assert rep.ok
    by_pair = {(p.i, p.j): p for p in rep.pairs}
    assert by_pair[(1, 1)].L == 0
    assert by_pair[(1, 2)].L == 1  # sigma(1)=12 and sigma(2)=1 share tile (1,0)
    assert rep.in_group is True
    assert rep.admissible


def test_strong_coincidence_thue_morse(tm):
    cp = solve_control_points(tm, TileMap(1, (0, 0)))
    rep = strong_coincidence(tm, cp)
    assert not rep.ok
    fail = next(p for p in rep.pairs if p.status == "exhausted")
    assert (fail.i, fail.j) in {(1, 2), (2, 1)}
    assert set(fail.classes) == {"(1,2,0)", "(2,1,0)"}
    assert fail.L is None


def test_strong_coincidence_requires_admissible(fib):
    cp = solve_control_points(fib, TileMap(2, (0, 1)))
    assert not cp.admissible
    with pytest.raises(ValueError):
        strong_coincidence(fib, cp)


def test_report_json(fib):
    cp = solve_control_points(fib, TileMap(1, (1, 0)))
    rep = strong_coincidence(fib, cp)
    data = rep.to_json()
    assert data["choice"] == [1, 0]
    assert data["control_points"] == [["0", "1"], ["1", "0"]]
    assert all(set(p) == {"i", "j", "status", "L"} for p in data["pairs"])


def test_enumerate_tile_maps(fib, tm):
    assert [t.choice for t in enumerate_tile_maps(fib, 1)] == [(0, 0), (1, 0)]
    assert len(list(enumerate_tile_maps(fib, 2))) == 6
    assert len(list(enumerate_tile_maps(tm, 1))) == 4
    with pytest.raises(EnumerationCapError):
        list(enumerate_tile_maps(fib, 2, cap_maps=5))
    with pytest.raises(ValueError):
        list(enumerate_tile_maps(fib, 0))


def test_msc_verdicts(fib, tm):
    res = multiple_strong_coincidence(fib, 1)
    assert res.verdict and res.considered == 2 and not res.vacuous
    res_tm = multiple_strong_coincidence(tm, 1)
    assert not res_tm.verdict
    failing = [r for r in res_tm.reports if not r.ok]
    assert failing
    assert all(r.admissible and r.in_group for r in res_tm.reports)


def test_msc_success_monotone_in_level(fib):
    # Coincidences are absorbing, so success persists at higher levels.
    assert multiple_strong_coincidence(fib, 1).verdict
    assert multiple_strong_coincidence(fib, 2).verdict


def _synthetic_graph(fib, edges, shifts):
    verts = [OverlapClass(1, 2, s) for s in shifts]
    return OverlapGraph(verts, {e: 1 for e in edges})


def test_compute_level_n(fib, tm):
    g, _ = stable_overlap_graph(fib)
    assert compute_level_n(g) == 1  # no coincidence-free SCC
    g_tm, _ = stable_overlap_graph(tm)
    # Both stuck vertices carry self-loops, so length-1 closed walks exist.
    assert compute_level_n(g_tm) == 1
    # A pure 2-cycle without self-loops forces n0 = 2.
    shifts = [fib.field.one(), -fib.field.one()]
    g2 = _synthetic_graph(fib, [(0, 1), (1, 0)], shifts)
    assert compute_level_n(g2) == 2
    # 2-cycle plus a 3-cycle sharing structure: lcm behaviour.
    shifts3 = [fib.field.one(), -fib.field.one(), fib.beta]
    g3 = OverlapGraph(
        [OverlapClass(1, 2, s) for s in shifts3],
        {(0, 1): 1, (1, 2): 1, (2, 0): 1},
    )
    assert compute_level_n(g3) == 3


def _periodic_case(rng):
    """A random strongly connected graph whose period is a multiple of
    p = 2..4: a ring through n = p t vertices in layers k mod p, with more
    edges only from each layer to the next."""
    p = rng.randint(2, 4)
    n = p * rng.randint(1, 4)
    edges = {(k, (k + 1) % n) for k in range(n)}
    for _ in range(rng.randint(0, 2 * n)):
        u, v = rng.randrange(n), rng.randrange(n)
        if v % p == (u + 1) % p:
            edges.add((u, v))
    return n, edges


def test_level_search_equals_closed_walk_loop(fib):
    # The period-and-Wielandt search against the plain loop of oracles.py,
    # and the graph's stuck analysis against its brute-force reference: on
    # the 2- and 3-cycles of test_compute_level_n, and on graphs made of
    # several stuck SCCs (random_case of test_graphkit, and graphs of period
    # 2-4), joined by one-way edges and a few vertices on no cycle.
    from test_graphkit import random_case

    one = fib.field.one()
    assert closed_walk_level(_synthetic_graph(fib, [(0, 1), (1, 0)], [one, -one])) == 2
    g3 = _synthetic_graph(fib, [(0, 1), (1, 2), (2, 0)], [one, -one, fib.beta])
    assert compute_level_n(g3) == closed_walk_level(g3) == 3
    rng, pick = random.Random(31), random.Random(32)
    levels = set()
    for _ in range(60):
        edges, size = {}, 0
        parts = []
        for _ in range(rng.randint(1, 3)):
            if rng.random() < 0.5:
                g, _ = random_case(rng)
                n, part = g.n, {(u, v) for u, v, _ in g.edges}
            else:
                n, part = _periodic_case(rng)
            parts.append(range(size, size + n))
            edges.update({(u + size, v + size): 1 for u, v in part})
            size += n
        for a, b in zip(parts, parts[1:]):  # one way: the SCCs stay apart
            edges[(rng.choice(a), rng.choice(b))] = 1
        edges[(size, rng.randrange(size))] = 1  # a vertex on no cycle
        g = _synthetic_graph(fib, edges, [one] * (size + 1))
        assert {tuple(comp): mat for comp, mat in g.stuck} == stuck_reference(g)
        n0 = compute_level_n(g)
        assert n0 == closed_walk_level(g)
        levels.add(n0)
        # The same graph with a coincidence that one of its vertices reaches.
        g = OverlapGraph(g.vertices + [OverlapClass(1, 1, fib.field.zero())],
                         {**g.edges, (pick.randrange(size + 1), size + 1): 1})
        assert {tuple(comp): mat for comp, mat in g.stuck} == stuck_reference(g)
        assert len(g.distances) > 1
    assert len(levels) >= 4


@pytest.mark.parametrize("name, n", [
    ("tribonacci", 3), ("thue_morse", 3), ("fibonacci", 4), ("s112", 2),
])
def test_pair_lookup_matches_pair_closure(name, n):
    # Every pair of every MSC family: the closure lookup against the
    # early-exit breadth-first search over uncached inflations.
    system = TilingSystem(Substitution(*CORPUS_RULES[name]))
    reports = multiple_strong_coincidence(system, n).reports
    assert reports
    for rep in reports:
        c = rep.control_points.c
        for p in rep.pairs:
            start = OverlapClass(p.i, p.j, c[p.i - 1] - c[p.j - 1])
            expected = pair_closure(lambda x: inflate_class(system, x), start)
            assert (p.status, p.L, p.classes) == expected


def test_mirrored_pairs_match_pair_closure():
    # A family tests each pair i < j once and takes (j, i) as its mirror:
    # every (j, i) result against the early-exit search over uncached
    # inflations from (j, i, c_j - c_i), at levels 1 and 2 of the inputs of
    # the sweep (test_sweep.py) whose column check fails (overlap
    # coincidence false), where exhausted certificates of a pair and of
    # its mirror list different classes.
    inputs = {(m, rules) for m, rules in islice(random_substitutions(random.Random(SEED)), COUNT)
              if column_check_applies(m, rules) and not dekking_column_check(Substitution(m, rules))}
    assert len(inputs) >= 5
    differ = 0
    for m, rules in sorted(inputs):
        system = TilingSystem(Substitution(m, rules))
        for n in (1, 2):
            for rep in multiple_strong_coincidence(system, n).reports:
                c = rep.control_points.c
                pairs = {(p.i, p.j): p for p in rep.pairs}
                for (i, j), p in pairs.items():
                    if i > j:
                        start = OverlapClass(i, j, c[i - 1] - c[j - 1])
                        expected = pair_closure(lambda x: inflate_class(system, x), start)
                        assert (p.status, p.L, p.classes) == expected, (rules, n, i, j)
                        differ += p.classes != pairs[j, i].classes
    assert differ


def test_msc_matches_per_family_reference():
    # The whole MSC report, decided by pair classes, against the reference
    # that decides each family on its own in field elements
    # (oracles.msc_reference): the corpus at levels 1 and 2, and the inputs
    # of the sweep whose column check fails (overlap coincidence false) at
    # the levels whose tile maps number at most 400.
    inputs = {rules for _, rules in CORPUS_RULES.values()}
    inputs |= {rules for m, rules in islice(random_substitutions(random.Random(SEED)), COUNT)
               if column_check_applies(m, rules) and not dekking_column_check(Substitution(m, rules))}
    verdicts = set()
    for rules in sorted(inputs):
        system = TilingSystem(Substitution(len(rules), rules))
        for n in (1, 2):
            try:
                got = multiple_strong_coincidence(system, n, cap_maps=400).to_json()
            except EnumerationCapError:
                continue
            assert got == msc_reference(system, n), (rules, n)
            verdicts.add(got["verdict"])
    assert verdicts == {True, False}


def test_pair_results_kept_per_cap():
    # An exhausted pair's certificate is all its reachable classes: a kept
    # result is not returned for a smaller cap, which that reach exceeds.
    system = TilingSystem(Substitution(*CORPUS_RULES["thue_morse"]))
    key = (1, 2, 1, (0,))
    full = _pair_test(system, key, 10**4)
    assert full[0].classes == full[1].classes == ("(1,2,0)", "(2,1,0)")
    assert _pair_test(system, key, 10**4) is full
    with pytest.raises(CapExceededError):
        _pair_test(system, key, 1)
    assert _pair_test(system, key, 2) == full


def test_extract_witness_thue_morse(tm):
    g, _ = stable_overlap_graph(tm)
    sccs = stuck_scc_indices(g)
    tile_map, cp, pair = extract_witness(tm, g, sccs[0])
    assert pair == (1, 2)
    assert cp.admissible
    # The witness control points match the stuck class shift exactly.
    assert (cp.c[0] - cp.c[1]).is_zero()
    rep = strong_coincidence(tm, cp)
    assert not rep.ok
    failing = {(p.i, p.j) for p in rep.pairs if not p.ok}
    assert tuple(sorted(pair)) in {tuple(sorted(f)) for f in failing}


def test_witness_is_checked_against_the_module(tm, monkeypatch):
    # A witness outside the translation module is refused.
    g, _ = stable_overlap_graph(tm)
    comp = stuck_scc_indices(g)[0]
    monkeypatch.setattr(strongcoin, "_family_in_group", lambda cp, group: False)
    with pytest.raises(RuntimeError, match="not in the translation module"):
        extract_witness(tm, g, comp)


def test_one_module_per_system(monkeypatch):
    # group_G makes the module on first use and keeps it on the system: MSC,
    # the witness and a strong coincidence report on one system share one.
    built = []
    init = strongcoin.GroupG.__init__

    def counting(group, *args):
        built.append(group)
        init(group, *args)

    monkeypatch.setattr(strongcoin.GroupG, "__init__", counting)
    system = TilingSystem(Substitution(*CORPUS_RULES["thue_morse"]))
    g, _ = stable_overlap_graph(system)
    assert not multiple_strong_coincidence(system, compute_level_n(g)).verdict
    _, cp, _ = extract_witness(system, g, stuck_scc_indices(g)[0])
    assert strong_coincidence(system, cp).in_group is True
    assert len(built) == 1
    assert group_G(system) is group_G(system) is built[0]


def test_descendant_matches_tile_scan():
    # The offset lookup of the witness against the scan of inflated tiles,
    # on the distinct-color vertices of overlap graphs at levels 1..3.
    found = set()
    for name in ("thue_morse", "fibonacci", "s112", "period_doubling"):
        system = TilingSystem(Substitution(*CORPUS_RULES[name]))
        g, _ = stable_overlap_graph(system)
        for c in [c for c in g.vertices if c.color_u != c.color_v][:40]:
            for n in (1, 2, 3):
                got = _descendant(system, c.color_u, c.color_v, (c.shift.den, c.shift.v), n)
                assert got == descendant_reference(system, c, n), (name, c.label(), n)
                found.add((got is not None, c.shift.is_zero()))
    assert {(True, True), (True, False), (False, False)} <= found


def test_extract_witness_rod_hypothesis(fib):
    # A component whose classes all have equal colors triggers the error.
    c = OverlapClass(1, 1, fib.field.one())
    g = OverlapGraph([c], {(0, 0): 1})
    with pytest.raises(RodHypothesisError):
        extract_witness(fib, g, [0])


def _membership_loop(group, x):
    """The least K with beta^K x in the module, searched up to the proven
    bound d Omega(q), by H^-1 in rationals: x = H t / den with q the least
    common denominator of t, and Omega(q) its prime factors with
    multiplicity."""
    H = Matrix(group.basis).T  # the basis vectors as columns
    inv = [[Fraction(int(a.p), int(a.q)) for a in row] for row in H.inv().tolist()]

    def coords(y):
        v = [c * group.den for c in y.coeffs]
        return [sum(a * b for a, b in zip(row, v)) for row in inv]

    q = lcm(*(t.denominator for t in coords(x)))
    y = x
    for k in range(len(group.basis) * sum(factorint(q).values()) + 1):
        if all(t.denominator == 1 for t in coords(y)):
            return True, k
        y = y * group.system.beta
    return False, None


NON_UNIT_RULES = {"1->1112,2->12": ((1, 1, 1, 2), (1, 2)),
                  "1->132,2->33,3->31": ((1, 3, 2), (3, 3), (3, 1))}


@pytest.mark.parametrize("name, n", [
    ("tribonacci", 3), ("thue_morse", 3), ("fibonacci", 4), ("s112", 2),
    ("1->1112,2->12", 2), ("1->132,2->33,3->31", 1),
])
def test_membership_equals_kmax_loop(name, n):
    # The least K found by GroupG.membership must be the reference loop's on
    # every family of every tile map, and on its cross-color differences
    # shifted by representatives taken from a central patch (the points
    # _family_in_group tests, with other representatives).  The non-unit
    # inputs need K up to 6.
    rules = NON_UNIT_RULES.get(name) or CORPUS_RULES[name][1]
    system = TilingSystem(Substitution(len(rules), rules))
    group = group_G(system)
    rep = {}
    for color, v in system.central_patch(system.field.from_rational(8) * max(system.lengths, key=float)).tiles:
        rep.setdefault(color, system.point(v))
    m, answers = system.substitution.m, set()
    for tm in enumerate_tile_maps(system, n):
        c = solve_control_points(system, tm).c
        for i in range(m):
            for j in range(i + 1, m):
                for x in (c[i] - c[j], c[i] - c[j] + rep[i + 1] - rep[j + 1]):
                    answers.add(group.membership(x))
                    assert group.membership(x) == _membership_loop(group, x)
    assert {ok for ok, _ in answers} == {True, False}


def _pisot_systems(seed, count):
    """count seeded primitive Pisot substitutions on 2-4 letters."""
    rng, out = random.Random(seed), []
    while len(out) < count:
        m = rng.randint(2, 4)
        s = Substitution(m, tuple(tuple(rng.randint(1, m) for _ in range(rng.randint(1, 4)))
                                  for _ in range(m)))
        if is_primitive(matrix(s)):
            try:
                out.append(TilingSystem(s))
            except NotPisotError:
                pass
    return out


def test_group_from_return_words_equals_patch_group():
    # The module read off the return words has the HNF basis of the module
    # read off a central patch: on the corpus, the cubic-closure and ROADMAP
    # inputs, and 50 seeded primitive Pisot inputs.
    rule_sets = [rules for _, rules in CORPUS_RULES.values()]
    rule_sets += [rules for _, rules in CUBIC_RULES.values()]
    rule_sets += [((2,), (3,), (1, 2)), ((1, 1, 1, 2), (1, 2)), ((2, 3, 1), (1, 2), (2,)),
                  ((1, 3, 2), (3, 3), (3, 1))]
    systems = [TilingSystem(Substitution(len(r), r)) for r in rule_sets]
    for system in systems + _pisot_systems(12, 50):
        assert group_G(system).basis == group_G_reference(system).basis, str(system.substitution)

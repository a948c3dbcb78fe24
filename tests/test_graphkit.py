"""Directed-graph algorithms: SCCs, reachability, cycle extension, and the
exact Perron-root comparison."""

import random
from fractions import Fraction

import pytest

from oracles import canonical_cycle, functional_cycles
from pisotile import Digraph, NumberField, cycle_extension, perron_equals, scc
from pisotile.graphkit import distances_to, is_strongly_connected


def test_scc_trivia():
    g = Digraph(1, ())
    assert scc(g) == [[0]]
    g2 = Digraph(2, ((0, 1, 1), (1, 0, 1)))
    assert sorted(scc(g2)[0]) == [0, 1]
    path = Digraph(3, ((0, 1, 1), (1, 2, 1)))
    assert scc(path) == [[2], [1], [0]]  # reverse topological order


def test_reachability():
    g = Digraph(4, ((0, 1, 1), (1, 2, 1), (3, 3, 1)))
    assert distances_to(g, [2]).keys() == {0, 1, 2}
    assert distances_to(g, []).keys() == set()
    assert distances_to(g, [0, 1, 2, 3]).keys() == {0, 1, 2, 3}
    assert distances_to(g, [2]) == {0: 2, 1: 1, 2: 0}


def _succ_array(out: Digraph) -> list[int]:
    outs = {}
    for u, v, _ in out.edges:
        assert u not in outs, "out-degree exceeds one"
        outs[u] = v
    assert set(outs) == set(range(out.n)), "missing out-edges"
    return [outs[u] for u in range(out.n)]


def test_cycle_extension_example():
    # Complete digraph on 3 vertices with the 2-cycle {0,1} prescribed.
    edges = tuple((u, v, 1) for u in range(3) for v in range(3) if u != v)
    g = Digraph(3, edges)
    out = cycle_extension(g, [(0, 1)])
    succ = _succ_array(out)
    assert succ[0] == 1 and succ[1] == 0
    assert succ[2] in {0, 1}
    assert functional_cycles(succ) == [canonical_cycle((0, 1))]


def test_cycle_extension_preconditions():
    path = Digraph(3, ((0, 1, 1), (1, 2, 1)))
    with pytest.raises(ValueError):
        cycle_extension(path, [(0,)])
    ring = Digraph(3, ((0, 1, 1), (1, 2, 1), (2, 0, 1)))
    with pytest.raises(ValueError):
        cycle_extension(ring, [])
    with pytest.raises(ValueError):
        cycle_extension(ring, [(0, 1)])  # (0,1) is not a cycle of the ring


def random_case(rng):
    """Random strongly connected digraph with random vertex-disjoint cycles."""
    n = rng.randint(2, 12)
    verts = list(range(n))
    rng.shuffle(verts)
    cycles = []
    i = 0
    while i < n:
        take = rng.randint(1, min(4, n - i))
        if rng.random() < 0.5 and cycles:
            break
        cycles.append(tuple(verts[i:i + take]))
        i += take
    edges = set()
    for cyc in cycles:
        for a, b in zip(cyc, cyc[1:] + (cyc[0],)):
            edges.add((a, b))
    # A Hamiltonian ring makes the graph strongly connected.
    ring = list(range(n))
    rng.shuffle(ring)
    for a, b in zip(ring, ring[1:] + [ring[0]]):
        edges.add((a, b))
    for _ in range(rng.randint(0, 2 * n)):
        edges.add((rng.randrange(n), rng.randrange(n)))
    g = Digraph(n, tuple((u, v, 1) for u, v in sorted(edges)))
    return g, cycles


def test_cycle_extension_properties():
    rng = random.Random(2024)
    for _ in range(100):
        g, cycles = random_case(rng)
        out = cycle_extension(g, cycles)
        g_edges = {(u, v) for u, v, _ in g.edges}
        assert all((u, v) in g_edges for u, v, _ in out.edges)
        # Full vertex set with out-degree exactly one (checked by the helper).
        succ = _succ_array(out)
        # Brute-force cycle enumeration equals the prescribed set.
        assert set(functional_cycles(succ)) == {canonical_cycle(c) for c in cycles}


def test_is_strongly_connected():
    assert is_strongly_connected(Digraph(2, ((0, 1, 1), (1, 0, 1))))
    assert not is_strongly_connected(Digraph(2, ((0, 1, 1),)))


def test_perron_equals():
    golden = NumberField((-1, -1, 1), (Fraction(1), Fraction(2)))
    two = golden.from_rational(2)
    assert perron_equals([[1, 1], [1, 1]], two)
    assert not perron_equals([[1, 1], [1, 1]], golden.beta())
    assert not perron_equals([[0, 1], [1, 0]], two)  # Perron root 1
    assert perron_equals([[0, 1], [1, 0]], golden.one())
    # Fibonacci abelianization: Perron root is the golden ratio itself.
    assert perron_equals([[1, 1], [1, 0]], golden.beta())
    assert not perron_equals([[2]], golden.beta())
    assert perron_equals([[2]], two)

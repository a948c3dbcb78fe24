"""Directed-multigraph algorithms: Tarjan SCCs, distances into a target set,
out-degree-1 cycle-extension subgraphs, and exact Perron-root comparison
against an algebraic target.
"""

from __future__ import annotations

from .algebra import char_poly, peval, sign_changes, squarefree, sturm
from .numberfield import AlgebraicReal
from .record import Record


class Digraph(Record):
    """edges are (src, dst, multiplicity) with 0-based vertices."""

    _fields = ("n", "edges")

    def __init__(self, n: int, edges: tuple[tuple[int, int, int], ...]):
        self.__dict__.update(n=n, edges=edges)
        for u, v, w in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range")
            if w < 1:
                raise ValueError("edge multiplicities must be >= 1")

    def successors(self):
        adj = [[] for _ in range(self.n)]
        for u, v, w in self.edges:
            adj[u].append((v, w))
        return adj

    def predecessors(self):
        adj = [[] for _ in range(self.n)]
        for u, v, w in self.edges:
            adj[v].append((u, w))
        return adj


def scc(g: Digraph) -> list[list[int]]:
    """The Tarjan partition: the strongly connected components as sorted
    vertex lists, in reverse topological order."""
    adj = [sorted({v for v, _ in succ}) for succ in g.successors()]
    index = [None] * g.n
    low = [0] * g.n
    on_stack = [False] * g.n
    stack: list[int] = []
    comps: list[list[int]] = []
    counter = [0]

    for root in range(g.n):
        if index[root] is not None:
            continue
        # Iterative Tarjan to avoid recursion limits.
        work = [(root, iter(adj[root]))]
        index[root] = low[root] = counter[0]
        counter[0] += 1
        stack.append(root)
        on_stack[root] = True
        while work:
            v, it = work[-1]
            advanced = False
            for w in it:
                if index[w] is None:
                    index[w] = low[w] = counter[0]
                    counter[0] += 1
                    stack.append(w)
                    on_stack[w] = True
                    work.append((w, iter(adj[w])))
                    advanced = True
                    break
                elif on_stack[w]:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                pv = work[-1][0]
                low[pv] = min(low[pv], low[v])
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp.append(w)
                    if w == v:
                        break
                comps.append(sorted(comp))
    return comps


def distances_to(g: Digraph, targets) -> dict[int, int]:
    """Shortest path length into targets per vertex (BFS on the reverse graph)."""
    pred = g.predecessors()
    dist = {v: 0 for v in targets}
    frontier = sorted(dist)
    d = 0
    while frontier:
        d += 1
        nxt = []
        for v in frontier:
            for u, _ in pred[v]:
                if u not in dist:
                    dist[u] = d
                    nxt.append(u)
        frontier = nxt
    return dist


def is_strongly_connected(g: Digraph) -> bool:
    return len(scc(g)) == 1


def cycle_extension(g: Digraph, cycles) -> Digraph:
    """Out-degree-1 subgraph of a strongly connected g whose cycle set is exactly
    ``cycles`` (vertex-disjoint simple cycles of g).

    Construction: start from the union of the cycles, then repeatedly attach
    an outside vertex that has an edge into the current subgraph, giving it
    that single outgoing edge.  Ties pick the smallest vertex, then smallest
    target, for determinism.
    """
    if not cycles:
        raise ValueError("need at least one cycle")
    if not is_strongly_connected(g):
        raise ValueError("graph is not strongly connected")
    edge_set = {(u, v) for u, v, _ in g.edges}
    chosen: dict[int, int] = {}
    seen_vertices: set[int] = set()
    for cyc in cycles:
        cyc = tuple(cyc)
        if set(cyc) & seen_vertices:
            raise ValueError("cycles are not vertex-disjoint")
        seen_vertices.update(cyc)
        for a, b in zip(cyc, cyc[1:] + (cyc[0],)):
            if (a, b) not in edge_set:
                raise ValueError(f"cycle edge ({a},{b}) not in graph")
            chosen[a] = b
    attached = set(seen_vertices)
    while len(attached) < g.n:
        progress = False
        for u in range(g.n):
            if u in attached:
                continue
            targets = sorted(v for (x, v) in edge_set if x == u and v in attached)
            if targets:
                chosen[u] = targets[0]
                attached.add(u)
                progress = True
                break
        if not progress:
            raise ValueError("no attachable vertex; graph not strongly connected")
    edges = tuple(sorted((u, v, 1) for u, v in chosen.items()))
    return Digraph(g.n, edges)


# -- exact Perron comparison ---------------------------------------------------


def perron_equals(matrix_rows, target: AlgebraicReal) -> bool:
    """Exactly decide whether the spectral radius of a nonnegative integer
    matrix equals ``target``.

    True iff target is a root of the characteristic polynomial chi (exact
    zero test in Q(beta)) and no real root exceeds it: the Sturm sequence of
    the squarefree part of chi, evaluated at target with exact signs, has as
    many sign changes as at +infinity.
    """
    chi = char_poly(matrix_rows)
    if not peval(chi, target).is_zero():
        return False
    chain = sturm(squarefree(chi))
    at_target = sign_changes(peval(p, target).sign() for p in chain)
    return at_target == sign_changes(p[-1] for p in chain)

"""Overlap classes, the overlap graph with multiplicities, and the overlap
coincidence decision.

An overlap class (i, j, t) stands for a color-i tile at 0 together with a
color-j tile at t whose interiors meet; it is a coincidence when i = j and
t = 0.  Inflating both tiles and pairing intersecting subtiles generates the
edges of a finite directed multigraph (finiteness comes from the Meyer
property of the return vectors, enforced here by a vertex cap).  Overlap
coincidence holds iff every vertex reaches a coincidence vertex.

Each TilingSystem keeps one grow-only OverlapClosure: every class met so far,
inflated at most once, with each class's shortest distance to a coincidence.
The overlap graph is the part of it reachable from the seeds, and a strong
coincidence pair test is a distance lookup in it, so the graph and the pair
tests share their inflations.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from .graphkit import Digraph, distances_to, reachable_to, scc, perron_equals
from .numberfield import AlgebraicReal, fast_cmp
from .tiling import Patch, TilingSystem


class CapExceededError(RuntimeError):
    """Closure grew past the configured vertex cap."""


@dataclass(frozen=True)
class OverlapClass:
    color_u: int
    color_v: int
    shift: AlgebraicReal

    @property
    def is_coincidence(self) -> bool:
        return self.color_u == self.color_v and self.shift.is_zero()

    def key(self):
        return (self.color_u, self.color_v, self.shift.coeffs)

    def label(self) -> str:
        return f"({self.color_u},{self.color_v},{self.shift})"


@dataclass
class OverlapGraph:
    vertices: list[OverlapClass]
    edges: dict[tuple[int, int], int]  # (src index, dst index) -> multiplicity

    def digraph(self) -> Digraph:
        return Digraph(
            len(self.vertices),
            tuple((u, v, w) for (u, v), w in sorted(self.edges.items())),
        )

    def coincidence_indices(self) -> list[int]:
        return [i for i, c in enumerate(self.vertices) if c.is_coincidence]


def make_class(system: TilingSystem, cu: int, cv: int, shift: AlgebraicReal) -> OverlapClass:
    if (shift + system.length(cv)).sign() <= 0 or (system.length(cu) - shift).sign() <= 0:
        raise ValueError("tiles do not share an interior point")
    return OverlapClass(cu, cv, shift)


class OverlapClosure:
    """Every overlap class met so far for one system, each inflated at most
    once, with shortest distances to a coincidence.

    Ids index ``classes``; ``children[i]`` holds (child id, multiplicity)
    pairs once class i is inflated.  A class is closed once every class
    reachable from it is inflated; distances are read only for closed classes
    and are recomputed only after an inflation added edges.
    """

    def __init__(self, system: TilingSystem):
        self.system = system
        self.classes: list[OverlapClass] = []
        self.children: list[tuple[tuple[int, int], ...] | None] = []
        self._index: dict[tuple, int] = {}
        self._closed: set[int] = set()
        self._dist: dict[int, int] | None = None

    def intern(self, c: OverlapClass) -> int:
        k = c.key()
        i = self._index.get(k)
        if i is None:
            i = self._index[k] = len(self.classes)
            self.classes.append(c)
            self.children.append(None)
        return i

    def successors(self, i: int) -> tuple[tuple[int, int], ...]:
        """(child id, multiplicity) pairs of class i, inflating it on first use."""
        out = self.children[i]
        if out is None:
            out = tuple(
                (self.intern(child), mult)
                for child, mult in _inflate_children(self.system, self.classes[i])
            )
            self.children[i] = out
            self._dist = None
        return out

    def reach(self, ids, cap: int) -> list[int]:
        """Ids reachable from ids, in breadth-first discovery order; raises
        CapExceededError when there are more than cap of them."""
        order = list(dict.fromkeys(ids))
        seen = set(order)
        for i in order:  # grows while it is read: a breadth-first queue
            for j, _ in self.successors(i):
                if j not in seen:
                    seen.add(j)
                    order.append(j)
            if len(order) > cap:
                raise CapExceededError(
                    f"overlap closure exceeded vertex cap {cap}; "
                    "either the input is not Meyer or the cap is too small"
                )
        self._closed.update(order)
        return order

    def distance(self, i: int, cap: int) -> int | None:
        """Shortest path length from class i into a coincidence, None when
        no coincidence is reachable."""
        if i not in self._closed:
            self.reach([i], cap)
        if self._dist is None:
            edges = tuple(
                (u, v, w) for u, succ in enumerate(self.children) if succ for v, w in succ
            )
            coincidences = [k for k, c in enumerate(self.classes) if c.is_coincidence]
            self._dist = distances_to(Digraph(len(self.classes), edges), coincidences)
        return self._dist.get(i)


def overlap_closure(system: TilingSystem) -> OverlapClosure:
    """The system's shared closure, made on first use."""
    if system._overlap_closure is None:
        system._overlap_closure = OverlapClosure(system)
    return system._overlap_closure


def inflate_class(system: TilingSystem, c: OverlapClass) -> Counter:
    """Multiset of overlap classes produced by inflating both tiles of c (uncached)."""
    closure = OverlapClosure(system)
    return Counter({closure.classes[j]: m for j, m in closure.successors(closure.intern(c))})


def seed_overlaps(system: TilingSystem, patch: Patch, ys) -> list[OverlapClass]:
    """All overlap classes realized by tile pairs of the patch shifted by the
    given return vectors.

    Candidate pairs are pre-filtered by a float window whose slack is the
    summed proven error bound of the elements involved, padded for rounding.
    A candidate is accepted from floats only when its margin exceeds that
    slack and is decided exactly otherwise, so the result is identical to
    the all-pairs exact scan.
    """
    from bisect import bisect_left
    from math import lcm

    field = system.field
    d = field.degree
    # Common denominator turns position coordinates into int tuples, so the
    # quadratic dedup loop below runs on ints instead of Fractions.
    den = 1
    for t in patch.tiles:
        for c in t.pos.coeffs:
            den = lcm(den, c.denominator)
    for y in ys:
        for c in y.coeffs:
            den = lcm(den, c.denominator)

    def to_int(x: AlgebraicReal):
        return tuple(int(c * den) for c in x.coeffs)

    def from_int(v):
        return field.element([Fraction(c, den) for c in v])

    by_color: dict[int, list[tuple]] = {}
    for t in patch.tiles:
        by_color.setdefault(t.color, []).append(to_int(t.pos))

    ys_sorted = sorted((from_int(v)._approx(), v) for v in {to_int(y) for y in ys})
    ys_float = [m for (m, _), _ in ys_sorted]
    ys_int = [v for _, v in ys_sorted]
    ey_max = max((e for (_, e), _ in ys_sorted), default=0.0)
    ay_max = max((abs(m) for m in ys_float), default=0.0)
    del ys_sorted  # the loop below needs only the two lists
    classes: dict[tuple, OverlapClass] = {}
    decided: set[tuple] = set()
    for cu, cv in sorted((cu, cv) for cu in by_color for cv in by_color):
        # Distinct values of pos(V) - pos(U), one color pair at a time: the
        # sets of all pairs together are the largest structure here.
        ds = {tuple(a - b for a, b in zip(pv, pu))
              for pu in by_color[cu] for pv in by_color[cv]}
        len_u, len_v = system.length(cu), system.length(cv)
        (flu, eu), (flv, ev) = len_u._approx(), len_v._approx()
        for dv in ds:
            fd, ed = from_int(dv)._approx()
            # |(d - y) - (fd - fy)| <= ed + ey; twice the error sum plus the
            # relative term covers the roundings of the float tests below.
            slack = (2 * (ed + ey_max + eu + ev)
                     + 1e-12 * (abs(fd) + ay_max + flu + flv) + 1e-300)
            # overlap iff -len_v < d - y < len_u
            i = bisect_left(ys_float, fd - flu - slack)
            while i < len(ys_int) and ys_float[i] <= fd + flv + slack:
                shift_int = tuple(a - b for a, b in zip(dv, ys_int[i]))
                key = (cu, cv, shift_int)
                if key not in decided:
                    decided.add(key)
                    fs = fd - ys_float[i]
                    shift = from_int(shift_int)
                    if -flv + slack < fs < flu - slack:
                        ok = True
                    else:
                        ok = (shift + len_v).sign() > 0 and (len_u - shift).sign() > 0
                    if ok:
                        c = OverlapClass(cu, cv, shift)
                        classes[c.key()] = c
                i += 1
    return [classes[k] for k in sorted(classes)]


def build_graph(system: TilingSystem, seeds, cap: int = 10**4) -> OverlapGraph:
    """Breadth-first closure of the seeds under inflation: the part of the
    system's overlap closure reachable from them, indexed in discovery order."""
    if not seeds:
        raise ValueError("need at least one seed overlap class")
    closure = overlap_closure(system)
    order = closure.reach([closure.intern(c) for c in seeds], cap)
    index = {i: k for k, i in enumerate(order)}
    edges = {
        (k, index[j]): mult
        for k, i in enumerate(order)
        for j, mult in closure.children[i]
    }
    return OverlapGraph([closure.classes[i] for i in order], edges)


def _inflate_children(system: TilingSystem, c: OverlapClass):
    from .tiling import Tile

    upatch = system.inflate(Tile(c.color_u, system.field.zero()))
    vpatch = system.inflate(Tile(c.color_v, c.shift))
    counts: dict[tuple, int] = {}
    objs: dict[tuple, OverlapClass] = {}
    for a in upatch.tiles:
        a_end = system.end(a)
        for b in vpatch.tiles:
            if fast_cmp(system.end(b), a.pos) > 0 and fast_cmp(a_end, b.pos) > 0:
                child = OverlapClass(a.color, b.color, b.pos - a.pos)
                k = child.key()
                counts[k] = counts.get(k, 0) + 1
                objs.setdefault(k, child)
    return [(objs[k], counts[k]) for k in sorted(counts)]


def overlap_coincidence(g: OverlapGraph):
    """(verdict, certificate).

    verdict True: certificate maps each vertex index to its shortest path
    length into a coincidence.  verdict False: certificate is the sorted list
    of vertex indices from which no coincidence is reachable.
    """
    coins = g.coincidence_indices()
    if not coins:
        if not g.vertices:
            raise ValueError("empty overlap graph")
        return False, sorted(range(len(g.vertices)))
    dg = g.digraph()
    reach = reachable_to(dg, coins)
    if len(reach) == len(g.vertices):
        return True, distances_to(dg, coins)
    return False, sorted(set(range(len(g.vertices))) - reach)


def stuck_scc_indices(g: OverlapGraph) -> list[list[int]]:
    """Nontrivial SCCs none of whose vertices reach a coincidence."""
    dg = g.digraph()
    reach = reachable_to(dg, g.coincidence_indices())
    comps, _ = scc(dg)
    has_self = {(u, v) for (u, v) in g.edges}
    out = []
    for comp in comps:
        if any(v in reach for v in comp):
            continue
        nontrivial = len(comp) > 1 or (comp[0], comp[0]) in has_self
        if nontrivial:
            out.append(comp)
    return out


def stuck_scc_matrices(g: OverlapGraph) -> list[tuple[list[int], list[list[int]]]]:
    """(component, multiplicity matrix) for each stuck SCC."""
    out = []
    for comp in stuck_scc_indices(g):
        idx = {v: i for i, v in enumerate(comp)}
        mat = [[0] * len(comp) for _ in comp]
        for (u, v), w in g.edges.items():
            if u in idx and v in idx:
                mat[idx[u]][idx[v]] += w
        out.append((comp, mat))
    return out


def expansive_sccs(system: TilingSystem, g: OverlapGraph):
    """For each coincidence-avoiding SCC, whether the Perron root of its
    multiplicity matrix equals beta (decided exactly)."""
    return [
        {"vertices": comp, "matrix": mat, "perron_is_expansion": perron_equals(mat, system.beta)}
        for comp, mat in stuck_scc_matrices(g)
    ]


# -- seeding with radius stability ---------------------------------------------


def stable_overlap_graph(
    system: TilingSystem,
    radius=None,
    cap: int = 10**4,
    max_doublings: int = 10,
):
    """Builds the overlap graph from a central patch, doubling the seeding
    radius until two consecutive doublings yield identical closed vertex
    sets.  Returns (graph, radius_used).
    """
    if radius is None:
        max_len = system.lengths[0]
        for l in system.lengths[1:]:
            if l > max_len:
                max_len = l
        radius = 8 * max_len
    prev_keys = None
    for _ in range(max_doublings + 1):
        patch = system.central_patch(radius)
        ys = system.return_vectors(patch)
        seeds = seed_overlaps(system, patch, ys)
        graph = build_graph(system, seeds, cap)
        keys = frozenset(c.key() for c in graph.vertices)
        if keys == prev_keys:
            return graph, radius
        prev_keys = keys
        radius = 2 * radius
    raise CapExceededError(
        f"overlap-graph vertex set did not stabilize within {max_doublings} "
        "radius doublings"
    )


# -- DOT export ------------------------------------------------------------------


def to_dot(g: OverlapGraph, reach_info=None) -> str:
    """Deterministic DOT rendering; coincidence vertices are double-circled,
    vertices that cannot reach a coincidence are shaded."""
    ordering = sorted(range(len(g.vertices)), key=lambda i: g.vertices[i].key())
    rank = {v: r for r, v in enumerate(ordering)}
    stuck = set()
    if reach_info is not None and isinstance(reach_info, list):
        stuck = set(reach_info)
    lines = ["digraph overlaps {"]
    for i in ordering:
        c = g.vertices[i]
        attrs = [f'label="{c.label()}"']
        if c.is_coincidence:
            attrs.append("shape=doublecircle")
        else:
            attrs.append("shape=circle")
        if i in stuck:
            attrs.append('style=filled fillcolor=lightgray')
        lines.append(f"  v{rank[i]} [{' '.join(attrs)}];")
    for (u, v), w in sorted(g.edges.items(), key=lambda e: (rank[e[0][0]], rank[e[0][1]])):
        lines.append(f'  v{rank[u]} -> v{rank[v]} [label="{w}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"

"""Overlap classes, the overlap graph with multiplicities, and the overlap
coincidence decision.

An overlap class (i, j, t) stands for a color-i tile at 0 together with a
color-j tile at t whose interiors meet; it is a coincidence when i = j and
t = 0.  Inflating both tiles and pairing intersecting subtiles generates the
edges of a finite directed multigraph (finiteness comes from the Meyer
property of the return vectors, enforced here by a vertex cap).  Overlap
coincidence holds iff every vertex reaches a coincidence vertex.

Each TilingSystem keeps one grow-only OverlapClosure: every class met so far,
with one inflation per mirror pair {(i, j, t), (j, i, -t)}: mirroring is an
isomorphism of the overlap graph, so the orientation met second takes the
mirrored children of the first.  The overlap graph is the part of the
closure reachable from the seeds, and a strong coincidence pair test is a
breadth-first search in it for the nearest coincidence, so the graph and the
pair tests share their inflations.

The closure holds a class (i, j, t) as the key (i, j, D, v) of its shift
t = sum_k v_k beta^k / D, the (D, v) of the field element.  beta is an
integer matrix on such vectors (TilingSystem.beta_matrix), so a child is
beta v + offset difference over lcm(D, den).  Which subtile pairs overlap
depends only on where x = beta t lies among the thresholds u_s - w_t of
the color pair (subtile bounds of sigma(i) minus those of sigma(j)): each
color pair's thresholds are sorted once, exactly, and each open gap and
each threshold (where tiles only touch) lists its children, so a class
costs one binary search on the thresholds' floats and NumberField.compare
against the two thresholds beside its place.  Distances to a
coincidence are kept for every class a search settles, and later searches
stop at them.  Shifts become field elements only for the classes that
leave the closure: graph vertices, labels, certificates and JSON.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import Counter
from functools import cached_property, cmp_to_key
from math import lcm
from operator import add, itemgetter, neg, sub

from .algebra import CapExceededError, mat_vec
from .graphkit import Digraph, distances_to, scc, perron_equals
from .numberfield import _U, AlgebraicReal, reduced
from .record import Record
from .tiling import ModuleVectors, Patch, TilingSystem


class OverlapClass(Record):
    _fields = ("color_u", "color_v", "shift")

    def __init__(self, color_u: int, color_v: int, shift: AlgebraicReal):
        self.__dict__.update(color_u=color_u, color_v=color_v, shift=shift)

    @property
    def is_coincidence(self) -> bool:
        return self.color_u == self.color_v and self.shift.is_zero()

    def key(self):
        """The sort key of output: colors, then rational coordinates."""
        return (self.color_u, self.color_v, self.shift.coeffs)

    def label(self) -> str:
        return f"({self.color_u},{self.color_v},{self.shift})"


class OverlapGraph(Record):
    """Overlap classes as vertices and the inflation edges between them.
    Its analysis, the distances into the coincidences and the stuck
    components, is made on first use and kept: a graph is not changed."""

    _fields = ("vertices", "edges")

    def __init__(self, vertices: list[OverlapClass], edges: dict[tuple[int, int], int]):
        self.__dict__.update(vertices=vertices, edges=edges)  # edges: (src, dst) -> multiplicity

    @cached_property
    def _digraph(self) -> Digraph:
        return Digraph(len(self.vertices), tuple((u, v, w) for (u, v), w in self.edges.items()))

    @cached_property
    def distances(self) -> dict[int, int]:
        """Shortest path length into a coincidence for each vertex that
        reaches one: one breadth-first search on the reverse graph."""
        coincidences = [i for i, c in enumerate(self.vertices) if c.is_coincidence]
        return distances_to(self._digraph, coincidences)

    @cached_property
    def stuck(self) -> list[tuple[list[int], list[list[int]]]]:
        """(component, multiplicity matrix) for each nontrivial SCC none of
        whose vertices reaches a coincidence, in Tarjan order; without a
        Tarjan run when every vertex reaches one."""
        dist = self.distances
        if len(dist) == len(self.vertices):
            return []
        succ = self._digraph.successors()
        out = []
        for comp in scc(self._digraph):
            if comp[0] in dist:  # one vertex reaches a coincidence iff all do
                continue
            idx = {v: k for k, v in enumerate(comp)}
            mat = [[0] * len(comp) for _ in comp]
            for u, row in zip(comp, mat):
                for v, w in succ[u]:
                    if v in idx:
                        row[idx[v]] += w
            if len(comp) > 1 or mat[0][0]:
                out.append((comp, mat))
        return out

    def canonical(self) -> tuple[list[int], list[tuple[int, int, int]]]:
        """The vertex indices sorted by OverlapClass.key, and the edges as
        (rank of source, rank of target, multiplicity) in increasing order:
        the vertex order of every output."""
        order = sorted(range(len(self.vertices)), key=lambda i: self.vertices[i].key())
        rank = {i: r for r, i in enumerate(order)}
        return order, sorted((rank[u], rank[v], w) for (u, v), w in self.edges.items())


class OverlapClosure:
    """Every overlap class met so far for one system, each inflated at most
    once, with shortest distances to a coincidence.

    A class is held as its key (i, j, D, v): a color-i tile at 0 and a
    color-j tile at sum_k v_k beta^k / D, with v an integer vector and D > 0
    in lowest terms, so equal shifts meet whichever start they came from.
    Ids index ``keys``; ``children[i]`` holds (child id, multiplicity) pairs
    once class i is inflated.  Field elements are made only for the classes
    that leave the closure (overlap_class).
    """

    def __init__(self, system: TilingSystem):
        self.system = system
        self.keys: list[tuple] = []
        self.children: list[tuple[tuple[int, int], ...] | None] = []
        self._index: dict[tuple, int] = {}
        self._dist: dict[int, int | None] = {}  # the distances known so far
        self._tables: dict[tuple[int, int], tuple[list, list]] = {}
        self._cells: dict[tuple[int, int, int, int], list] = {}
        self._classes: dict[int, OverlapClass] = {}

    def intern(self, c: OverlapClass) -> int:
        return self._id((c.color_u, c.color_v, c.shift.den, c.shift.v))

    def _id(self, key: tuple) -> int:
        i = self._index.get(key)
        if i is None:
            i = self._index[key] = len(self.keys)
            self.keys.append(key)
            self.children.append(None)
        return i

    def overlap_class(self, i: int) -> OverlapClass:
        """Class i with its shift as a field element, made once."""
        c = self._classes.get(i)
        if c is None:
            a, b, den, v = self.keys[i]
            c = self._classes[i] = OverlapClass(a, b, AlgebraicReal(self.system.field, den, v))
        return c

    def successors(self, i: int) -> tuple[tuple[int, int], ...]:
        """(child id, multiplicity) pairs of class i, made on first use: the
        mirrored successors of its mirror class when that one has them,
        else by inflating it."""
        out = self.children[i]
        if out is None:
            m = self._index.get(self._mirror(i))
            if m is not None and self.children[m] is not None:
                kids = self._mirrored(m)
            else:
                kids = self._inflate(self.keys[i])
            out = self.children[i] = tuple((self._id(child), mult) for child, mult in kids)
        return out

    def _mirror(self, i: int) -> tuple:
        """The key (j, i, D, -v) of the mirror of class i = (i, j, D, v)."""
        a, b, den, v = self.keys[i]
        return b, a, den, tuple(map(neg, v))

    def _mirrored(self, m: int) -> list[tuple[tuple, int]]:
        """(child key, multiplicity) pairs of the mirror (j, i, -t) of the
        inflated class m = (i, j, t), in the order _inflate gives them.

        A color-j tile at 0 and a color-i tile at -t are the tiles of m
        moved by -t, so they inflate to the subtile pairs of m moved by
        -beta t, each now seen from its color-j side: each child (a, b, s)
        of m becomes (b, a, -s) with its multiplicity.
        _inflate orders children by colors and then by their unreduced
        coordinates over one denominator, and negation reverses that order
        within a color pair: the mirror's order is m's reversed, stably
        sorted by the new colors."""
        keys = self.keys
        kids = [((b, a, den, tuple(map(neg, v))), mult)
                for k, mult in reversed(self.children[m]) for a, b, den, v in (keys[k],)]
        kids.sort(key=lambda kid: kid[0][:2])
        return kids

    def _table(self, i: int, j: int) -> tuple[list, list, list]:
        """The inflation table of the color pair (i, j), built on first use:
        (thresholds, spans, mids).

        With u_0 .. u_p the bounds of sigma(i) at 0 and w_0 .. w_q those of
        sigma(j) (where each subtile starts, then where the last one ends),
        subtiles s and t of a class with x = beta * shift overlap exactly
        when u_s - w_(t+1) < x < u_(s+1) - w_t.  thresholds are the distinct
        u_s - w_t over den as enclosed points, in increasing order: sorted
        by their floats, then by NumberField.compare, which makes it exact
        and costs one comparison per threshold when the floats were right.
        Cell 2k is the open gap below thresholds[k] (2K the one above the
        last), cell 2k + 1 the point thresholds[k] itself.  Each subtile
        pair overlaps on one run of cells, which leaves out the two
        thresholds where the tiles only touch: spans lists (first cell,
        last cell, (a, b, w_t - u_s)) per pair, and mids the thresholds'
        float midpoints."""
        table = self._tables.get((i, j))
        if table is None:
            system = self.system
            field, rules = system.field, system.substitution.rules
            us, ws = self._bounds(i), self._bounds(j)
            thresholds = sorted((field.enclosed(system.den, x)
                                 for x in {tuple(map(sub, u, w)) for u in us for w in ws}),
                                key=itemgetter(2))
            thresholds.sort(key=cmp_to_key(field.compare))
            rank = {x[1]: r for r, x in enumerate(thresholds)}
            spans = [
                (2 * rank[tuple(map(sub, us[s], ws[t + 1]))] + 2,
                 2 * rank[tuple(map(sub, us[s + 1], ws[t]))],
                 (a, b, tuple(map(sub, ws[t], us[s]))))
                for s, a in enumerate(rules[i - 1]) for t, b in enumerate(rules[j - 1])
            ]
            table = self._tables[(i, j)] = (thresholds, spans, [t[2] for t in thresholds])
        return table

    def _cell(self, i: int, j: int, den: int, cell: int) -> list:
        """The children offsets of one cell of the (i, j) table for classes
        over den, made on first use: (a, b, offset over den, multiplicity)
        in increasing order, so adding x keeps it the order of the
        children."""
        key = (i, j, den, cell)
        out = self._cells.get(key)
        if out is None:
            k = den // self.system.den
            counts = Counter((a, b, tuple(k * c for c in off))
                             for first, last, (a, b, off) in self._table(i, j)[1]
                             if first <= cell <= last)
            out = self._cells[key] = [(*entry, mult) for entry, mult in sorted(counts.items())]
        return out

    def _bounds(self, color: int) -> list[tuple[int, ...]]:
        """Where each subtile of sigma(color) at 0 starts, then where the
        last one ends, over system.den."""
        system = self.system
        row = system.prefix_offsets[color - 1]
        last, off = row[-1]
        return [v for _, v in row] + [tuple(map(add, off, system.length_coords[last - 1]))]

    def _inflate(self, key: tuple) -> list[tuple[tuple, int]]:
        """(child key, multiplicity) pairs of the class with this key, in
        increasing key order of their shifts.

        Over den' = lcm(D, den), x = beta * shift (beta the integer matrix
        beta_matrix) is placed among the thresholds of the color pair by a
        binary search on their float midpoints.  NumberField.compare then
        checks that place against the two neighbouring thresholds, exactly
        where the floats do not separate them from x, and a place that
        fails is found again by binary search with NumberField.compare.
        Each entry (a, b, off) of its cell gives the child (a, b, x + off)."""
        i, j, dv, v = key
        system, field = self.system, self.system.field
        den = lcm(dv, system.den)
        bv = mat_vec(system.beta_matrix, v)
        if den != dv:
            bv = tuple((den // dv) * c for c in bv)
        thresholds, _, mids = self._table(i, j)
        x, compare = (den, bv, *field.floats(bv, den)), field.compare
        k, n = bisect_left(mids, x[2]), len(mids)
        above = compare(thresholds[k], x) if k < n else 1
        if above < 0 or k and compare(thresholds[k - 1], x) >= 0:
            k = bisect_left(thresholds, True, key=lambda t: compare(t, x) >= 0)
            above = compare(thresholds[k], x) if k < n else 1
        return [((a, b, *reduced(den, tuple(map(add, bv, off)))), mult)
                for a, b, off, mult in self._cell(i, j, den, 2 * k + (above == 0))]

    def _levels(self, ids, cap: int, known=()):
        """Breadth-first levels of the classes reachable from ids: ids, then
        each level's unseen children in discovery order.  A level is
        inflated only when the next one is asked for, and a class in known
        is not expanded; raises CapExceededError once more than cap classes
        are seen."""
        level = list(dict.fromkeys(ids))
        seen = set(level)
        while level:
            yield level
            nxt = []
            for k in level:
                if k in known:
                    continue
                for j, _ in self.successors(k):
                    if j not in seen:
                        seen.add(j)
                        nxt.append(j)
            if len(seen) > cap:
                raise CapExceededError(
                    f"overlap closure exceeded vertex cap {cap}; "
                    "either the input is not Meyer or the cap is too small"
                )
            level = nxt

    def reach(self, ids, cap: int) -> list[int]:
        """Ids reachable from ids, in breadth-first discovery order; raises
        CapExceededError when there are more than cap of them."""
        return [k for level in self._levels(ids, cap) for k in level]

    def distance(self, i: int, cap: int) -> int | None:
        """Shortest path length from class i into a coincidence, None when
        no coincidence is reachable; raises CapExceededError when the search
        visits more than cap classes.

        A breadth-first search from i that takes k + d from each class at
        level k whose distance d is known (0 for a coincidence) and does
        not expand it, nor a class known to reach none.  A shortest path
        meets its first known class at level k or less, so the least k + d
        is the distance, and no level past k + 1 >= that least is needed.
        The search visits no class that the plain search up to the first
        level with a coincidence would not.  Its answer is kept for i and
        for the mirror of i (mirroring is an isomorphism of the graph), and
        when it finds no coincidence, None for every class it saw and for
        their mirrors."""
        dist = self._dist
        if i not in dist:
            best, unknown = None, []
            for k, level in enumerate(self._levels([i], cap, dist)):
                for c in level:
                    d = dist.get(c, -1)
                    if d == -1:
                        a, b, _, v = self.keys[c]
                        if a != b or any(v):
                            unknown.append(c)
                            continue
                        d = dist[c] = 0
                    if d is not None and (best is None or k + d < best):
                        best = k + d
                if best is not None and k + 1 >= best:
                    break
            if best is None:
                for c in unknown:
                    dist[c] = dist[self._id(self._mirror(c))] = None
            dist[i] = dist[self._id(self._mirror(i))] = best
        return dist[i]


def overlap_closure(system: TilingSystem) -> OverlapClosure:
    """The system's shared closure, made on first use."""
    if system._overlap_closure is None:
        system._overlap_closure = OverlapClosure(system)
    return system._overlap_closure


def inflate_class(system: TilingSystem, c: OverlapClass) -> Counter:
    """Multiset of overlap classes produced by inflating both tiles of c
    (uncached: the children are not kept in the system's closure)."""
    closure = overlap_closure(system)
    return Counter({
        OverlapClass(a, b, AlgebraicReal(system.field, den, v)): mult
        for (a, b, den, v), mult in closure._inflate((c.color_u, c.color_v, c.shift.den, c.shift.v))
    })


def seed_overlaps(system: TilingSystem, patch: Patch, ys: ModuleVectors) -> list[OverlapClass]:
    """All overlap classes realized by tile pairs of the patch shifted by the
    given return vectors: every (color(U), color(V), s) with
    s = (pos(V) - pos(U)) - y and -l_v < s < l_u.

    Works on integer coordinates (TilingSystem.coords).  ys is symmetric:
    for d = pos(V) - pos(U), d - y = s is -d - (-y) = -s, and -l_u < -s < l_v
    is -l_v < s < l_u, so the classes of (cv, cu) mirror those of (cu, cv).
    Each distinct d of a color pair takes one float window of the ys that
    can give an overlap, whose slack covers the proven errors of the floats
    (one bound for every d) and the roundings that form its ends, so it never
    drops one; each distinct candidate s takes one exact NumberField.compare
    test, and adds (cu, cv, s) and (cv, cu, -s) if it passes.
    """
    by_color, norm = system.patch_coords(patch)
    if ys.packing.bound < 2 * norm + ys.coord_bound:  # room for every shift
        ys = ModuleVectors.of(system, ys, 2 * norm + ys.coord_bound)
    pack, unpack = ys.packing.pack, ys.packing.unpack
    packed = {c: [pack(v) for v in vs] for c, vs in by_color.items()}
    field, den = system.field, system.den
    enclose, enclosed, compare = field.floats, field.enclosed, field.compare
    value, yf, yp = ys.packing.midpoints(enclose, den), ys.floats, ys.packed
    colors = sorted(packed)
    classes: dict[tuple, OverlapClass] = {}
    for n, cu in enumerate(colors):
        for cv in colors[n:]:
            (flu, elu), (flv, elv) = (enclose(system.length_coords[c - 1], den) for c in (cu, cv))
            # The distinct d of one pair of colors, the largest structure here.
            pus = packed[cu]
            ds: set[int] = set()
            for k, pv in enumerate(packed[cv]):
                ds.update(map(pv.__sub__, pus[:k + 1] if cu == cv else pus))
            # An overlap needs fd - l_u - (e_d + e_y + e_lu) < fy < fd + l_v
            # + (e_d + e_y + e_lv); doubling the errors and the 4u term cover
            # the roundings in forming the slack and the window's ends.
            errs, lens = 2 * (enclose.bound(2 * norm, den) + ys.err + elu + elv), flu + flv
            shifts: set[int] = set()
            for dv in ds:
                fd = value(dv)
                slack = errs + 4 * _U * (abs(fd) + lens)
                i = bisect_left(yf, fd - flu - slack)
                shifts.update(map(dv.__sub__, yp[i:bisect_right(yf, fd + flv + slack, i)]))
            del ds
            lo, hi = (-system.length(cv)).enclosed(), system.length(cu).enclosed()
            for sv in shifts:
                x = enclosed(den, unpack(sv))
                if compare(x, lo) > 0 and compare(x, hi) < 0:
                    for a, b, v in ((cu, cv, x[1]), (cv, cu, tuple(map(neg, x[1])))):
                        classes[(a, b, v)] = OverlapClass(a, b, system.point(v))
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
    return OverlapGraph([closure.overlap_class(i) for i in order], edges)


def overlap_coincidence(g: OverlapGraph):
    """(verdict, certificate).

    verdict True: certificate maps each vertex index to its shortest path
    length into a coincidence (OverlapGraph.distances).  verdict False:
    certificate is the sorted list of vertex indices from which no
    coincidence is reachable.
    """
    if not g.vertices:
        raise ValueError("empty overlap graph")
    dist = g.distances
    if len(dist) == len(g.vertices):
        return True, dist
    return False, [i for i in range(len(g.vertices)) if i not in dist]


def stuck_scc_indices(g: OverlapGraph) -> list[list[int]]:
    """Nontrivial SCCs none of whose vertices reach a coincidence."""
    return [comp for comp, _ in g.stuck]


def expansive_sccs(system: TilingSystem, g: OverlapGraph):
    """For each coincidence-avoiding SCC, whether the Perron root of its
    multiplicity matrix equals beta (decided exactly)."""
    return [
        {"vertices": comp, "matrix": mat, "perron_is_expansion": perron_equals(mat, system.beta)}
        for comp, mat in g.stuck
    ]


# -- seeding with radius stability ---------------------------------------------

_MAX_DOUBLINGS = 10


def stable_overlap_graph(system: TilingSystem, cap: int = 10**4):
    """Builds the overlap graph from a central patch of radius 8 times the
    longest tile length, doubling the radius until two consecutive doublings
    yield identical closed vertex sets, at most _MAX_DOUBLINGS times.
    Returns (graph, radius_used).
    """
    radius = 8 * max(system.lengths)
    prev_keys = None
    for _ in range(_MAX_DOUBLINGS + 1):
        patch = system.central_patch(radius)
        ys = system.return_vectors(patch)
        seeds = seed_overlaps(system, patch, ys)
        # Each round's patch and vectors are about twice the last's: let
        # these go before the next round builds its own.
        del patch, ys
        graph = build_graph(system, seeds, cap)
        del seeds
        keys = frozenset(graph.vertices)
        if keys == prev_keys:
            return graph, radius
        prev_keys = keys
        radius = 2 * radius
    raise CapExceededError(
        f"overlap-graph vertex set did not stabilize within {_MAX_DOUBLINGS} "
        "radius doublings"
    )


# -- DOT export ------------------------------------------------------------------


def to_dot(g: OverlapGraph, reach_info=None) -> str:
    """Deterministic DOT rendering in the canonical vertex order;
    coincidence vertices are double-circled, vertices that cannot reach a
    coincidence are shaded."""
    order, edges = g.canonical()
    stuck = set(reach_info) if isinstance(reach_info, list) else set()
    lines = ["digraph overlaps {"]
    for r, i in enumerate(order):
        c = g.vertices[i]
        shape = "doublecircle" if c.is_coincidence else "circle"
        attrs = [f'label="{c.label()}"', f"shape={shape}"]
        if i in stuck:
            attrs.append('style=filled fillcolor=lightgray')
        lines.append(f"  v{r} [{' '.join(attrs)}];")
    for u, v, w in edges:
        lines.append(f'  v{u} -> v{v} [label="{w}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"

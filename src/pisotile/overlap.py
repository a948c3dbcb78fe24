"""Overlap classes, the overlap graph with multiplicities, and the overlap
coincidence decision.

An overlap class (i, j, t) stands for a color-i tile at 0 together with a
color-j tile at t whose interiors meet; it is a coincidence when i = j and
t = 0.  Inflating both tiles and pairing intersecting subtiles generates the
edges of a finite directed multigraph (finiteness comes from the Meyer
property of the return vectors, enforced here by a vertex cap).  Overlap
coincidence holds iff every vertex reaches a coincidence vertex.

Each TilingSystem keeps one grow-only OverlapClosure: every class met so far,
inflated at most once.  The overlap graph is the part of it reachable from
the seeds, and a strong coincidence pair test is a breadth-first search in
it for the nearest coincidence, so the graph and the pair tests share their
inflations.

The closure holds a class (i, j, t) as the key (i, j, D, v) of its shift
t = sum_k v_k beta^k / D, the (D, v) of the field element.  beta is an
integer matrix on such vectors (TilingSystem.beta_matrix), so a child is
beta v + offset difference over lcm(D, den).  Which subtile pairs overlap
depends only on where x = beta t lies among the thresholds u_s - w_t of
the color pair (subtile bounds of sigma(i) minus those of sigma(j)): each
color pair's thresholds are sorted once, exactly, and each open gap and
each threshold (where tiles only touch) lists its children, so a class
costs one binary search with NumberField.compare.  Distances to a
coincidence are kept for every class a search settles, and later searches
stop at them.  Shifts become field elements only for the classes that
leave the closure: graph vertices, labels, certificates and JSON.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass
from functools import cmp_to_key
from math import lcm
from operator import add, itemgetter, sub

from .graphkit import Digraph, distances_to, scc, perron_equals
from .numberfield import _U, AlgebraicReal, reduced
from .substitution import CapExceededError
from .tiling import ModuleVectors, Patch, TilingSystem


@dataclass(frozen=True)
class OverlapClass:
    color_u: int
    color_v: int
    shift: AlgebraicReal

    @property
    def is_coincidence(self) -> bool:
        return self.color_u == self.color_v and self.shift.is_zero()

    def key(self):
        """The sort key of output: colors, then rational coordinates."""
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
        """(child id, multiplicity) pairs of class i, inflating it on first use."""
        out = self.children[i]
        if out is None:
            out = tuple((self._id(child), mult) for child, mult in self._inflate(self.keys[i]))
            self.children[i] = out
        return out

    def _table(self, i: int, j: int) -> tuple[list, list]:
        """The inflation table of the color pair (i, j), built on first use:
        (thresholds, spans).

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
        last cell, (a, b, w_t - u_s)) per pair."""
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
            table = self._tables[(i, j)] = (thresholds, spans)
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
        beta_matrix) is placed among the thresholds of the color pair by
        binary search with NumberField.compare, and each entry (a, b, off)
        of its cell gives the child (a, b, x + off)."""
        i, j, dv, v = key
        system = self.system
        den = lcm(dv, system.den)
        bv = system.times_beta(v)
        if den != dv:
            bv = tuple((den // dv) * c for c in bv)
        thresholds = self._table(i, j)[0]
        x, compare = system.field.enclosed(den, bv), system.field.compare
        k = bisect_left(thresholds, True, key=lambda t: compare(t, x) >= 0)
        on = k < len(thresholds) and compare(thresholds[k], x) == 0
        return [((a, b, *reduced(den, tuple(map(add, bv, off)))), mult)
                for a, b, off, mult in self._cell(i, j, den, 2 * k + on)]

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
        level with a coincidence would not.  Its answer is kept for i, and
        when it finds no coincidence, None for every class it saw."""
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
                dist.update(dict.fromkeys(unknown))
            dist[i] = best
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

    Works on integer coordinates (TilingSystem.coords).  For each color pair
    and each distinct position difference, a float window picks the ys that
    can give an overlap; the window's slack covers the proven errors of the
    floats and the roundings that form its ends, so it never drops one.
    Each distinct candidate shift is then decided by NumberField.compare,
    exactly whenever the floats do not separate it from the window's ends,
    so the result is identical to the all-pairs exact scan.
    """
    by_color, norm = system.patch_coords(patch)
    if ys.packing.bound < 2 * norm + ys.coord_bound:  # room for every shift
        ys = ModuleVectors.of(system, ys, 2 * norm + ys.coord_bound)
    pack, unpack = ys.packing.pack, ys.packing.unpack
    packed = {c: [pack(v) for v in vs] for c, vs in by_color.items()}
    field, den = system.field, system.den
    enclose, enclosed, compare = field.floats, field.enclosed, field.compare
    yf, yp = ys.floats, ys.packed
    colors = sorted(packed)
    classes: dict[tuple, OverlapClass] = {}
    for n, cu in enumerate(colors):
        for cv in colors[n:]:
            (flu, elu), (flv, elv) = (enclose(system.length_coords[c - 1], den) for c in (cu, cv))
            # Distinct values d of pos(V) - pos(U) for one pair of colors, the
            # largest structure here.  The pair (cv, cu) sees each d as -d,
            # so for one color each pair of tiles is taken once.
            pus = packed[cu]
            ds: set[int] = set()
            for k, pv in enumerate(packed[cv]):
                ds.update(map(pv.__sub__, pus[:k + 1] if cu == cv else pus))
            fwd: set[int] = set()
            back = fwd if cu == cv else set()
            errs, lens = ys.err + elu + elv, flu + flv
            for dv in ds:
                fd, ed = enclose(unpack(dv), den)
                # An overlap needs fd - l_u - (ed + e_y + e_lu) < fy < fd + l_v
                # + (ed + e_y + e_lv) (for -d: -fd - l_v ... -fd + l_u);
                # doubling the errors and the 4u term cover the roundings in
                # forming the slack and the window's ends.
                slack = 2 * (ed + errs) + 4 * _U * (abs(fd) + lens)
                i = bisect_left(yf, fd - flu - slack)
                fwd.update(map(dv.__sub__, yp[i:bisect_right(yf, fd + flv + slack, i)]))
                i = bisect_left(yf, -fd - flv - slack)
                back.update(map((-dv).__sub__, yp[i:bisect_right(yf, -fd + flu + slack, i)]))
            del ds
            for a, b, shifts in ((cu, cv, fwd),) if cu == cv else ((cu, cv, fwd), (cv, cu, back)):
                lo, hi = (-system.length(b)).enclosed(), system.length(a).enclosed()
                for sv in shifts:
                    x = enclosed(den, unpack(sv))
                    if compare(x, lo) > 0 and compare(x, hi) < 0:
                        classes[(a, b, x[1])] = OverlapClass(a, b, system.point(x[1]))
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
    length into a coincidence.  verdict False: certificate is the sorted list
    of vertex indices from which no coincidence is reachable.
    """
    if not g.vertices:
        raise ValueError("empty overlap graph")
    dist = distances_to(g.digraph(), g.coincidence_indices())
    if len(dist) == len(g.vertices):
        return True, dist
    return False, sorted(set(range(len(g.vertices))) - dist.keys())


def stuck_scc_indices(g: OverlapGraph) -> list[list[int]]:
    """Nontrivial SCCs none of whose vertices reach a coincidence."""
    dg = g.digraph()
    reach = distances_to(dg, g.coincidence_indices())
    has_self = {(u, v) for (u, v) in g.edges}
    out = []
    for comp in scc(dg):
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

_MAX_DOUBLINGS = 10


def stable_overlap_graph(system: TilingSystem, cap: int = 10**4):
    """Builds the overlap graph from a central patch of radius 8 times the
    longest tile length, doubling the radius until two consecutive doublings
    yield identical closed vertex sets, at most _MAX_DOUBLINGS times.
    Returns (graph, radius_used).
    """
    max_len = system.lengths[0]
    for l in system.lengths[1:]:
        if l > max_len:
            max_len = l
    radius = 8 * max_len
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

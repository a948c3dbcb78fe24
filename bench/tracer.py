"""Spans and counts around calls into pisotile's layers, installed from the
benchmark's own files.  Nothing under ``src/`` changes.

Each wrapper replaces a function on the module whose code looks the name
up (``pisotile.cli.stable_overlap_graph`` is what ``analyze`` calls), records
a span -- name, start, end, parent span, input id -- and derives counts from
the value the call returns.  Spans stay in memory until the run ends.  A
span's self time is its duration minus the time its child spans cover,
scaled to the reference speed of hostspeed.py.

A target that no longer exists (a later refactor may delete
``seed_overlaps``) is skipped, and the metrics it feeds are reported as
absent rather than failing the run.
"""

from __future__ import annotations

import importlib
from collections import defaultdict
from fractions import Fraction
from time import perf_counter

_FIRST_ENCLOSURE = Fraction(1, 2**80)

# Layer metrics from spans and counts.  The numberfield microbenchmarks and
# overlap.inflate_class_us live in micro.py.
SPAN_METRICS = {
    "substitution.perron_s": "substitution.perron",
    "substitution.gates_s": "substitution.gates",
    "tiling.central_patch_s": "tiling.central_patch",
    "tiling.return_vectors_s": "tiling.return_vectors",
    "tiling.control_points_s": "tiling.control_points",
    "overlap.graph_s": "overlap.graph",
    "overlap.seed_s": "overlap.seed",
    "overlap.closure_s": "overlap.closure",
    "overlap.verdict_s": "overlap.verdict",
    "strongcoin.level_s": "strongcoin.level",
    "strongcoin.module_s": "strongcoin.module",
    "strongcoin.msc_s": "strongcoin.msc",
    "strongcoin.sc_s": "strongcoin.sc",
    "strongcoin.witness_s": "strongcoin.witness",
    "graphkit.stuck_scc_s": "graphkit.stuck_scc",
    "graphkit.perron_s": "graphkit.perron",
}
PER_PASS_COUNTS = (
    "overlap.seeds", "overlap.vertices", "overlap.edges", "overlap.essential",
    "strongcoin.tile_maps", "strongcoin.admissible", "strongcoin.families",
    "strongcoin.pairs_shared", "strongcoin.pairs_exhausted",
    "strongcoin.exhausted_classes", "numberfield.sign_calls", "numberfield.refine_steps",
)


class Trace:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, input id]
        self.stack: list[int] = []
        self.input_id: str | None = None
        self.counts: dict[str, float] = defaultdict(float)
        self.absent: dict[str, str] = {}
        self.graphs: list = []  # (system, graph) from stable_overlap_graph
        self.classes: list = []  # (system, overlap class) samples for micro.py
        self.control_points: list = []  # (system, control points) for micro.py
        self.substitutions: dict = {}  # matrix -> Substitution, for micro.py
        self._undo: list = []

    # -- spans ------------------------------------------------------------------

    def open(self, name: str) -> list:
        rec = [name, perf_counter(), None, self.stack[-1] if self.stack else -1, self.input_id]
        self.spans.append(rec)
        self.stack.append(len(self.spans) - 1)
        return rec

    def close(self, rec: list) -> None:
        rec[2] = perf_counter()
        self.stack.pop()

    def close_all(self) -> None:
        """End every open span; a time-out can leave some open."""
        now = perf_counter()
        for k in self.stack:
            if self.spans[k][2] is None:
                self.spans[k][2] = now
        self.stack.clear()

    def parent_name(self) -> str | None:
        return self.spans[self.stack[-1]][0] if self.stack else None

    def _span_wrapper(self, name, fn, on_return, feeds):
        trace = self

        def wrapper(*args, **kwargs):
            rec = trace.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                trace.close(rec)
            if on_return is not None:
                try:
                    on_return(trace, args, result)
                except (AttributeError, TypeError, IndexError) as e:
                    for metric in feeds:  # the returned value changed shape
                        trace.absent.setdefault(metric, f"{name}: {type(e).__name__}: {e}")
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation -----------------------------------------------------------

    def _replace(self, owner, attr, new, orig) -> None:
        setattr(owner, attr, new)
        self._undo.append((owner, attr, orig))

    def install(self) -> None:
        """Wrap every target that exists; a metric is absent when none of
        the targets that feed it exists."""
        present, missing = set(), {}
        for target, name, on_return, feeds in FUNCTIONS:
            owner, attr, orig = _resolve(target)
            if orig is None:
                for metric in feeds:
                    missing.setdefault(metric, f"{target} not found")
                continue
            present.update(feeds)
            if name is None:
                new = on_return(self, orig)  # a custom wrapper (generators, counters)
            else:
                new = self._span_wrapper(name, orig, on_return, feeds)
            self._replace(owner, attr, new, orig)
        for metric, why in missing.items():
            if metric not in present:
                self.absent.setdefault(metric, why)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    # -- per input ------------------------------------------------------------------

    def finish_input(self) -> None:
        """Graph counts, computed after the input's timed region ends."""
        for system, g in self.graphs:
            try:
                n, edges = len(g.vertices), list(g.edges)
            except (AttributeError, TypeError) as e:
                for metric in ("overlap.vertices", "overlap.edges", "overlap.essential"):
                    self.absent.setdefault(metric, f"overlap graph: {type(e).__name__}: {e}")
                continue
            self.counts["overlap.vertices"] += n
            self.counts["overlap.edges"] += len(edges)
            self.counts["overlap.essential"] += _essential(n, edges)
            for c in g.vertices[:: max(1, n // 16)][:16]:
                self.classes.append((system, c))
        self.graphs.clear()

    # -- results ----------------------------------------------------------------------

    def _self_times(self, scale):
        """(span, self seconds) for every span.  scale(start, wall seconds) of
        the span's root -- the span of the input call it belongs to -- turns
        its wall seconds into seconds at the reference speed."""
        child = [0.0] * len(self.spans)
        root = list(range(len(self.spans)))
        for k, (_, start, end, parent, _) in enumerate(self.spans):
            if parent >= 0:  # a parent precedes its children
                child[parent] += end - start
                root[k] = root[parent]
        factor = {}
        for r in set(root):
            _, start, end, _, _ = self.spans[r]
            factor[r] = scale(start, end - start) / (end - start) if end > start else 1.0
        return [(rec, (rec[2] - rec[1] - child[k]) * factor[root[k]])
                for k, rec in enumerate(self.spans)]

    def layer_metrics(self, passes: int, scale) -> dict[str, float]:
        """Per-pass self times (s at the reference speed) and counts; maxima
        and ratios as they are."""
        self_s: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for rec, t in self._self_times(scale):
            self_s[rec[0]] += t
            calls[rec[0]] += 1
        c = self.counts
        out = {m: self_s[span] / passes for m, span in SPAN_METRICS.items()}
        out.update({m: c[m] / passes for m in PER_PASS_COUNTS})
        out["tiling.central_patch_calls"] = calls["tiling.central_patch"] / passes
        out["tiling.patch_tiles_max"] = c["tiling.patch_tiles_max"]
        out["tiling.return_vectors_max"] = c["tiling.return_vectors_max"]
        out["strongcoin.level_n"] = c["strongcoin.level_n"]
        graphs = calls["overlap.graph"]
        out["overlap.doublings"] = calls["overlap.closure"] / graphs if graphs else 0.0
        maps = c["strongcoin.tile_maps"]
        out["strongcoin.family_yield"] = c["strongcoin.families"] / maps if maps else 0.0
        for m in self.absent:
            out.pop(m, None)
        return out

    def self_times_by_input(self, scale) -> dict[str, dict[str, float]]:
        out: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for rec, t in self._self_times(scale):
            out[rec[4]][rec[0]] += t
        return {i: {n: round(v, 6) for n, v in d.items()} for i, d in out.items()}


def _resolve(target: str):
    """'pkg.mod:attr' or 'pkg.mod:Class.method' -> (owner, attr, original)."""
    module, _, path = target.partition(":")
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None, None, None
    parts = path.split(".")
    for p in parts[:-1]:
        owner = getattr(owner, p, None)
        if owner is None:
            return None, None, None
    orig = owner.__dict__.get(parts[-1]) if isinstance(owner, type) else getattr(owner, parts[-1], None)
    return owner, parts[-1], orig


def _essential(n: int, edges) -> int:
    """Vertices reachable from a cycle (a nontrivial SCC or a self-loop)."""
    succ = [[] for _ in range(n)]
    for u, v in edges:
        succ[u].append(v)
    index, low, on, stack, comp = [0] * n, [0] * n, [False] * n, [], [-1] * n
    seen = [False] * n
    counter, ncomp = 1, 0
    sizes = []
    for root in range(n):
        if seen[root]:
            continue
        work = [(root, 0)]
        while work:
            v, i = work.pop()
            if i == 0:
                seen[v] = True
                index[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on[v] = True
            if i < len(succ[v]):
                work.append((v, i + 1))
                w = succ[v][i]
                if not seen[w]:
                    work.append((w, 0))
                elif on[w]:
                    low[v] = min(low[v], index[w])
                continue
            if low[v] == index[v]:
                size = 0
                while True:
                    w = stack.pop()
                    on[w] = False
                    comp[w] = ncomp
                    size += 1
                    if w == v:
                        break
                sizes.append(size)
                ncomp += 1
            if work:
                u = work[-1][0]
                low[u] = min(low[u], low[v])
    cyclic = [sizes[comp[v]] > 1 for v in range(n)]
    for u, v in edges:
        if u == v:
            cyclic[u] = True
    reach = [v for v in range(n) if cyclic[v]]
    seen = set(reach)
    while reach:
        v = reach.pop()
        for w in succ[v]:
            if w not in seen:
                seen.add(w)
                reach.append(w)
    return len(seen)


# -- what to wrap --------------------------------------------------------------------


def _count_len(metric):
    def on_return(trace, args, result):
        trace.counts[metric] += len(result)
    return on_return


def _max_len(metric, of=lambda r: r):
    def on_return(trace, args, result):
        trace.counts[metric] = max(trace.counts[metric], len(of(result)))
    return on_return


def _on_graph(trace, args, result):
    trace.graphs.append((args[0], result[0]))


def _on_perron(trace, args, result):
    s = args[0]
    trace.substitutions.setdefault(tuple(tuple(w) for w in s.rules), s)


def _on_msc(trace, args, result):
    trace.counts["strongcoin.families"] += result.considered
    trace.counts["strongcoin.level_n"] = max(trace.counts["strongcoin.level_n"], result.level)


def _on_sc(trace, args, result):
    for p in result.pairs:
        if p.i == p.j:
            continue
        if p.status == "shared":
            trace.counts["strongcoin.pairs_shared"] += 1
        else:
            trace.counts["strongcoin.pairs_exhausted"] += 1
            trace.counts["strongcoin.exhausted_classes"] += len(p.classes)
    if len(trace.control_points) < 64:
        trace.control_points.append((args[0], args[1]))


def _on_control_points(trace, args, result):
    if result.admissible and trace.parent_name() == "strongcoin.msc":
        trace.counts["strongcoin.admissible"] += 1


def _count_yields(trace, fn):
    def wrapper(*args, **kwargs):
        for item in fn(*args, **kwargs):
            trace.counts["strongcoin.tile_maps"] += 1
            yield item
    return wrapper


def _count_signs(trace, fn):
    def sign(self):
        trace.counts["numberfield.sign_calls"] += 1
        return fn(self)
    return sign


def _count_refines(trace, fn):
    def refine(self):
        lo, hi = getattr(self, "_lo", None), getattr(self, "_hi", None)
        if lo is not None and hi - lo <= _FIRST_ENCLOSURE:
            trace.counts["numberfield.refine_steps"] += 1
        return fn(self)
    return refine


_GATES = ("substitution.gates_s",)
_GRAPH = ("overlap.graph_s", "overlap.vertices", "overlap.edges", "overlap.essential",
          "overlap.doublings")
_MSC = ("strongcoin.msc_s", "strongcoin.families", "strongcoin.level_n",
        "strongcoin.family_yield", "strongcoin.admissible")
_SC = ("strongcoin.sc_s", "strongcoin.pairs_shared", "strongcoin.pairs_exhausted",
       "strongcoin.exhausted_classes")
_SCC = ("graphkit.stuck_scc_s",)
_LEVEL = ("strongcoin.level_s",)
_CP = ("tiling.control_points_s", "strongcoin.admissible")

# (target, span name or None for a custom wrapper, on_return / wrapper factory,
#  metrics that need the target)
FUNCTIONS = (
    ("pisotile.cli:is_primitive", "substitution.gates", None, _GATES),
    ("pisotile.cli:is_irreducible", "substitution.gates", None, _GATES),
    ("pisotile.tiling:perron_data", "substitution.perron", _on_perron, ("substitution.perron_s",)),
    ("pisotile.tiling:TilingSystem.central_patch", "tiling.central_patch",
     _max_len("tiling.patch_tiles_max", lambda p: p.tiles),
     ("tiling.central_patch_s", "tiling.central_patch_calls", "tiling.patch_tiles_max")),
    ("pisotile.tiling:TilingSystem.return_vectors", "tiling.return_vectors",
     _max_len("tiling.return_vectors_max"), ("tiling.return_vectors_s", "tiling.return_vectors_max")),
    ("pisotile.strongcoin:solve_control_points", "tiling.control_points", _on_control_points, _CP),
    ("pisotile.cli:solve_control_points", "tiling.control_points", _on_control_points, _CP),
    ("pisotile.cli:stable_overlap_graph", "overlap.graph", _on_graph, _GRAPH),
    ("pisotile.overlap:seed_overlaps", "overlap.seed", _count_len("overlap.seeds"),
     ("overlap.seed_s", "overlap.seeds")),
    ("pisotile.overlap:build_graph", "overlap.closure", None, ("overlap.closure_s", "overlap.doublings")),
    ("pisotile.cli:overlap_coincidence", "overlap.verdict", None, ("overlap.verdict_s",)),
    ("pisotile.cli:stuck_scc_indices", "graphkit.stuck_scc", None, _SCC),
    ("pisotile.overlap:stuck_scc_indices", "graphkit.stuck_scc", None, _SCC),
    ("pisotile.strongcoin:stuck_scc_indices", "graphkit.stuck_scc", None, _SCC),
    ("pisotile.cli:expansive_sccs", "graphkit.perron", None, ("graphkit.perron_s",)),
    ("pisotile.cli:compute_level_n", "strongcoin.level", None, _LEVEL),
    ("pisotile.strongcoin:compute_level_n", "strongcoin.level", None, _LEVEL),
    ("pisotile.cli:group_G", "strongcoin.module", None, ("strongcoin.module_s",)),
    ("pisotile.cli:multiple_strong_coincidence", "strongcoin.msc", _on_msc, _MSC),
    ("pisotile.strongcoin:enumerate_tile_maps", None, _count_yields,
     ("strongcoin.tile_maps", "strongcoin.family_yield")),
    ("pisotile.strongcoin:strong_coincidence", "strongcoin.sc", _on_sc, _SC),
    ("pisotile.cli:extract_witness", "strongcoin.witness", None, ("strongcoin.witness_s",)),
    ("pisotile.numberfield:AlgebraicReal.sign", None, _count_signs, ("numberfield.sign_calls",)),
    ("pisotile.numberfield:NumberField.refine", None, _count_refines, ("numberfield.refine_steps",)),
)

"""Strong coincidence, the translation-module membership test, and the
enumeration of tile maps for multiple strong coincidence of a given level.

Also houses the proof-driven witness extraction: from a coincidence-free
strongly connected component of the overlap graph, a tile map and control
points are constructed whose family is admissible, lies in the translation
module, and fails strong coincidence for an explicit color pair.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .algebra import hnf, lattice_contains
from .graphkit import cycle_extension, Digraph
from .numberfield import AlgebraicReal
from .overlap import CapExceededError, OverlapClass, OverlapGraph, overlap_closure, stuck_scc_matrices
from .substitution import power
from .tiling import (
    ControlPoints,
    Tile,
    TileMap,
    TilingSystem,
    solve_control_points,
)


class EnumerationCapError(RuntimeError):
    """Tile-map enumeration would exceed the configured cap."""


class RodHypothesisError(RuntimeError):
    """Witness extraction found only equal-color classes in the component."""


# -- the translation module ----------------------------------------------------


class GroupG:
    """Integer module generated by same-color position differences, saturated
    under multiplication by beta, with a bounded-denominator membership test.

    Coordinates live in the power basis of the field; the module is stored as
    the Hermite normal form basis (``algebra.hnf``) of integer coordinates
    over TilingSystem.den.
    """

    def __init__(self, system: TilingSystem, generators, k_max: int = 20):
        """generators: integer vectors over system.den (TilingSystem.coords)."""
        self.system = system
        self.k_max = k_max
        self.den = system.den
        basis = hnf(generators)
        if not basis:
            raise ValueError("no nonzero generators for the translation module")
        while True:
            ext = hnf(basis + tuple(map(system.times_beta, basis)))
            if ext == basis:
                break
            basis = ext
        # Closed under beta, the module has rank d: basis[k] has its pivot at
        # coordinate k, as lattice_contains needs.
        self.basis = basis
        self.cross_offsets = None  # for _family_in_group, made on first use

    def membership(self, x: AlgebraicReal):
        """(bool, K): whether beta^K * x lies in the module for some K <= k_max.

        For a unit beta (|N(beta)| = 1), beta^-1 is an integer polynomial in
        beta, so it maps the module into itself: beta^K x lies in the module
        iff x does, and K = 0 decides."""
        y = x
        unit = abs(self.system.field.min_poly[0]) == 1
        for k in range(min(self.k_max, 0) + 1 if unit else self.k_max + 1):
            coords = [c * self.den for c in y.coeffs]
            if all(c.denominator == 1 for c in coords):
                if lattice_contains(self.basis, [int(c) for c in coords]):
                    return True, k
            y = y * self.system.beta
        return False, None

    def __contains__(self, x: AlgebraicReal) -> bool:
        return self.membership(x)[0]


def group_G(system: TilingSystem, patch_radius=None, k_max: int = 20) -> GroupG:
    """Module generated by all same-color position differences of a central
    patch, for every color, saturated under multiplication by beta."""
    if patch_radius is None:
        patch_radius = system.field.from_rational(8) * max(
            system.lengths, key=float
        )
    patch = system.central_patch(patch_radius)
    return GroupG(system, system.return_vectors(patch), k_max)


# -- strong coincidence ----------------------------------------------------------


@dataclass(frozen=True)
class PairResult:
    i: int
    j: int
    status: str  # "shared" or "exhausted"
    L: int | None
    classes: tuple[str, ...] = ()  # exhausted class labels on failure

    @property
    def ok(self) -> bool:
        return self.status == "shared"


@dataclass
class StrongCoincidenceReport:
    tile_map: TileMap
    control_points: ControlPoints
    admissible: bool
    in_group: bool | None
    pairs: list[PairResult]

    @property
    def ok(self) -> bool:
        return all(p.ok for p in self.pairs)

    def to_json(self) -> dict:
        return {
            "choice": list(self.tile_map.choice),
            "level": self.tile_map.n,
            "control_points": [
                [str(c) for c in ci.coeffs] for ci in self.control_points.c
            ],
            "admissible": self.admissible,
            "in_group": self.in_group,
            "pairs": [
                {"i": p.i, "j": p.j, "status": p.status, "L": p.L}
                for p in self.pairs
            ],
        }


def _pair_test(system: TilingSystem, i: int, j: int, shift, cap_classes: int) -> PairResult:
    """Strong coincidence of the pair class (i, j, shift): shared at L, its
    distance to a coincidence in the system's overlap closure, or exhausted
    with the classes reachable from it as the certificate."""
    closure = overlap_closure(system)
    start = closure.intern(OverlapClass(i, j, shift))
    L = closure.distance(start, cap_classes)
    if L is not None:
        return PairResult(i, j, "shared", L)
    reached = sorted(
        (closure.overlap_class(k) for k in closure.reach([start], cap_classes)),
        key=OverlapClass.key,
    )
    return PairResult(i, j, "exhausted", None, tuple(c.label() for c in reached))


def strong_coincidence(
    system: TilingSystem,
    cp: ControlPoints,
    group: GroupG | None = None,
    cap_classes: int = 10**4,
) -> StrongCoincidenceReport:
    """For every color pair (i, j), close the pair class (i, j, c_i - c_j)
    under inflation and report the minimal L reaching a shared tile, or the
    exhausted class set.  Failure is a certificate, not a timeout."""
    if not cp.admissible:
        raise ValueError("control points are not admissible")
    m = system.substitution.m
    pairs = [
        _pair_test(system, i, j, cp.c[i - 1] - cp.c[j - 1], cap_classes)
        for i in range(1, m + 1)
        for j in range(1, m + 1)
    ]
    in_group = _family_in_group(system, cp, group) if group is not None else None
    return StrongCoincidenceReport(cp.tile_map, cp, cp.admissible, in_group, pairs)


def _family_in_group(system: TilingSystem, cp: ControlPoints, group: GroupG) -> bool:
    """Whether the multi-color point family lies in the translation module.

    Same-color differences are module generators (k = 0), so only one
    representative cross-color difference per color pair needs testing."""
    if group.cross_offsets is None:  # one offset per color pair, kept on the group
        radius = system.field.from_rational(8) * max(system.lengths, key=float)
        rep = {}
        for t in system.central_patch(radius).tiles:
            rep.setdefault(t.color, t.pos)
        m = system.substitution.m
        group.cross_offsets = {
            (i, j): rep[i] - rep[j] for i in range(1, m + 1) for j in range(i + 1, m + 1)
        }
    return all(
        group.membership(cp.c[i - 1] - cp.c[j - 1] + d)[0]
        for (i, j), d in group.cross_offsets.items()
    )


# -- enumeration and multiple strong coincidence ---------------------------------


def enumerate_tile_maps(system: TilingSystem, n: int, cap_maps: int = 10**5):
    """All per-color subtile choices of the n-fold inflation, lexicographic."""
    if n < 1:
        raise ValueError("level must be >= 1")
    s_n = power(system.substitution, n)
    sizes = [len(w) for w in s_n.rules]
    total = 1
    for k in sizes:
        total *= k
    if total > cap_maps:
        raise EnumerationCapError(
            f"{total} tile maps at level {n} exceed cap {cap_maps}; lower the level"
        )
    for choice in itertools.product(*(range(k) for k in sizes)):
        yield TileMap(n, choice)


@dataclass
class MSCResult:
    verdict: bool
    level: int
    reports: list[StrongCoincidenceReport]
    considered: int
    vacuous: bool

    def to_json(self) -> dict:
        return {
            "level": self.level,
            "verdict": self.verdict,
            "families_considered": self.considered,
            "vacuous": self.vacuous,
            "reports": [r.to_json() for r in self.reports],
        }


def multiple_strong_coincidence(
    system: TilingSystem,
    n: int,
    cap_maps: int = 10**5,
    cap_classes: int = 10**4,
    group: GroupG | None = None,
    k_max: int = 20,
) -> MSCResult:
    """True iff every admissible, in-module control-point family arising from
    a tile map of the n-fold inflation passes strong coincidence for all
    color pairs.  Vacuously true (with a flag) if no family passes the
    filters."""
    if group is None:
        group = group_G(system, k_max=k_max)
    reports = []
    considered = 0
    verdict = True
    for tm in enumerate_tile_maps(system, n, cap_maps):
        cp = solve_control_points(system, tm)
        if not cp.admissible:
            continue
        if not _family_in_group(system, cp, group):
            continue
        considered += 1
        rep = strong_coincidence(system, cp, None, cap_classes)
        rep.in_group = True  # the filter above decided it
        reports.append(rep)
        if not rep.ok:
            verdict = False
    return MSCResult(verdict, n, reports, considered, considered == 0)


# -- the level n0 of the equivalence theorem -------------------------------------


def compute_level_n(g: OverlapGraph, cap: int = 10**4) -> int:
    """Smallest n0 >= 1 such that every vertex of every coincidence-free SCC
    lies on a closed walk of length n0; 1 when no such component exists."""
    mats = [[[w > 0 for w in row] for row in mat] for _, mat in stuck_scc_matrices(g)]
    powers = mats
    for n0 in range(1, cap + 1):
        if all(all(p[i][i] for i in range(len(p))) for p in powers):
            return n0
        powers = [_bool_mul(p, m) for p, m in zip(powers, mats)]
    raise CapExceededError(f"no common closed-walk length found up to {cap}")


def _bool_mul(a, b):
    n = len(a)
    out = [[False] * n for _ in range(n)]
    for i in range(n):
        ai = a[i]
        oi = out[i]
        for k in range(n):
            if ai[k]:
                bk = b[k]
                for j in range(n):
                    if bk[j]:
                        oi[j] = True
    return out


# -- witness extraction -----------------------------------------------------------


def extract_witness(
    system: TilingSystem,
    g: OverlapGraph,
    scc: list[int],
    group: GroupG | None = None,
    cap_classes: int = 10**4,
):
    """From a coincidence-free SCC, build (tile map, control points, pair).

    Follows the equivalence proof: pick a class with distinct colors, locate
    its self-equivalent descendant at the common closed-walk level n0, let
    those two subtile choices define self-loops on the two colors, extend to
    every other color by the cycle-extension lemma on the color graph, and
    solve the control points.  The result is asserted admissible, in-module,
    and failing strong coincidence for the returned pair.
    """
    cls = None
    for vi in scc:
        c = g.vertices[vi]
        if c.color_u != c.color_v:
            cls = c
            break
    if cls is None:
        raise RodHypothesisError(
            "rod-hypothesis violation: every class in the component has equal "
            "colors, so the proof's distinct-color pick is unavailable"
        )
    n0 = compute_level_n(g)
    p_col, q_col = cls.color_u, cls.color_v
    s_n = power(system.substitution, n0)

    # Self-equivalent descendant at level n0: subtiles a of sigma^n0(p) and b
    # of sigma^n0(q) reproducing the class (p, q, shift).
    upatch = system.inflate(Tile(p_col, system.field.zero()), n0)
    vpatch = system.inflate(Tile(q_col, cls.shift), n0)
    found = None
    for ka, a in enumerate(upatch.tiles):
        if a.color != p_col:
            continue
        for kb, b in enumerate(vpatch.tiles):
            if b.color != q_col:
                continue
            if (b.pos - a.pos) == cls.shift:
                found = (ka, kb)
                break
        if found:
            break
    if found is None:
        raise RuntimeError(
            f"class {cls.label()} has no self-equivalent descendant at level {n0}"
        )
    ka, kb = found

    # Color graph of sigma^n0: edge i -> j iff j occurs in sigma^n0(i).
    m = system.substitution.m
    edges = sorted(
        {(i, a - 1) for i in range(m) for a in s_n.rules[i]}
    )
    color_graph = Digraph(m, tuple((u, v, 1) for u, v in edges))
    sub = cycle_extension(color_graph, [(p_col - 1,), (q_col - 1,)])
    out_edge = {u: v for u, v, _ in sub.edges}

    choice = [0] * m
    choice[p_col - 1] = ka
    choice[q_col - 1] = kb
    for i in range(m):
        if i == p_col - 1 or i == q_col - 1:
            continue
        j = out_edge[i] + 1
        choice[i] = next(k for k, a in enumerate(s_n.rules[i]) if a == j)
    tm = TileMap(n0, tuple(choice))
    cp = solve_control_points(system, tm)

    # Postconditions from the proof, asserted directly.
    if not cp.admissible:
        raise RuntimeError("extracted witness is not admissible")
    if (cp.c[p_col - 1] - cp.c[q_col - 1]) != cls.shift:
        raise RuntimeError("extracted control points do not match the class shift")
    if group is not None and not _family_in_group(system, cp, group):
        raise RuntimeError("extracted witness is not in the translation module")
    rep = _pair_test(
        system, p_col, q_col, cp.c[p_col - 1] - cp.c[q_col - 1], cap_classes
    )
    if rep.ok:
        raise RuntimeError("extracted witness unexpectedly passes the pair test")
    return tm, cp, (p_col, q_col)

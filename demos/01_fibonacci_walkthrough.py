"""Walkthrough: the Fibonacci substitution 1 -> 12, 2 -> 1.

Builds the suspension tiling with exact golden-ratio arithmetic, closes the
overlap graph, and confirms both overlap coincidence and multiple strong
coincidence, printing every intermediate object along the way.
"""

from pisotile import (
    Substitution,
    TileMap,
    TilingSystem,
    compute_level_n,
    group_G,
    multiple_strong_coincidence,
    overlap_coincidence,
    solve_control_points,
    stable_overlap_graph,
    strong_coincidence,
)

s = Substitution(2, ((1, 2), (1,)))
system = TilingSystem(s)
print(f"substitution: {s}")
print(f"minimal polynomial of beta: {system.field.min_poly}")
print(f"beta ~ {float(system.beta):.6f}")
print(f"tile lengths: {[str(l) for l in system.lengths]}")

patch = system.central_patch(8)
print(f"\ncentral patch of radius 8: {len(patch.tiles)} tiles, left to right")
print("colors:", "".join(str(color) for color, _ in patch.tiles))
# Each tile is (color, v): v holds the integer coordinates of its start over
# system.den, and system.point(v) is that start as an exact field element.
for color, v in patch.tiles[:4]:
    print(f"  color {color} starts at {system.point(v)} ~ {float(system.point(v)):.4f}")

graph, radius = stable_overlap_graph(system)
print(f"\noverlap graph: {len(graph.vertices)} classes at stable radius {float(radius):.1f}")
for c in graph.vertices:
    print(f"  {c.label()}" + ("   <- coincidence" if c.is_coincidence else ""))

oc, dist = overlap_coincidence(graph)
print(f"\noverlap coincidence: {oc}")
print(f"longest path into a coincidence: {max(dist.values())} inflation steps")

n = compute_level_n(graph)
group = group_G(system)
print(f"\nlevel n = {n}; enumerating tile maps of sigma^{n}")
for tm in ((0, 0), (1, 0)):
    cp = solve_control_points(system, TileMap(n, tm))
    rep = strong_coincidence(system, cp, group)
    print(f"  tile map {tm}: control points {[str(c) for c in cp.c]},",
          f"strong coincidence = {rep.ok}")

msc = multiple_strong_coincidence(system, n, group=group)
print(f"\nmultiple strong coincidence of level {n}: {msc.verdict}")
print(f"equivalence holds: OC = {oc} and MSC = {msc.verdict}")

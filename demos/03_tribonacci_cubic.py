"""Walkthrough: the Tribonacci substitution 1 -> 12, 2 -> 13, 3 -> 1.

Everything runs in exact arithmetic over the cubic field of the Tribonacci
constant (x^3 = x^2 + x + 1).  The overlap-graph vertex set needs a larger
seeding radius to saturate than the quadratic examples, which the doubling
loop finds automatically; expect this demo to take a minute or two.
"""

from pisotile import (
    Substitution,
    TilingSystem,
    compute_level_n,
    multiple_strong_coincidence,
    overlap_coincidence,
    stable_overlap_graph,
)

system = TilingSystem(Substitution(3, ((1, 2), (1, 3), (1,))))
b = system.beta
print(f"minimal polynomial: {system.field.min_poly}")
print(f"beta ~ {float(b):.6f}; check beta^3 - beta^2 - beta - 1 == 0:",
      (b**3 - b**2 - b - system.field.one()).is_zero())
print(f"tile lengths: {[str(l) for l in system.lengths]}")

graph, radius = stable_overlap_graph(system)
print(f"\noverlap graph stabilized at radius {float(radius):.1f} "
      f"with {len(graph.vertices)} classes")
oc, dist = overlap_coincidence(graph)
print(f"overlap coincidence: {oc}")

n = compute_level_n(graph)
msc = multiple_strong_coincidence(system, n)
print(f"multiple strong coincidence of level {n}: {msc.verdict} "
      f"({msc.considered} admissible in-module families checked)")

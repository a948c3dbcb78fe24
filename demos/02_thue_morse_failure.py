"""Walkthrough: the Thue-Morse substitution 1 -> 12, 2 -> 21.

Overlap coincidence fails: the classes (1,2,0) and (2,1,0) form a strongly
connected component with no escape to a coincidence, and its multiplicity
matrix has Perron root equal to the expansion factor 2.  The witness
extractor turns that component into an explicit control-point family that
fails strong coincidence for the pair (1, 2).
"""

from pisotile import (
    Substitution,
    TilingSystem,
    expansive_sccs,
    extract_witness,
    overlap_coincidence,
    stable_overlap_graph,
    strong_coincidence,
    stuck_scc_indices,
    to_dot,
)

system = TilingSystem(Substitution(2, ((1, 2), (2, 1))))
graph, radius = stable_overlap_graph(system)
oc, stuck = overlap_coincidence(graph)
print(f"overlap coincidence: {oc}")
print("classes with no path to a coincidence:",
      [graph.vertices[i].label() for i in stuck])

for desc in expansive_sccs(system, graph):
    print(f"\nstuck component {[graph.vertices[v].label() for v in desc['vertices']]}")
    print(f"  multiplicity matrix: {desc['matrix']}")
    print(f"  Perron root equals the expansion factor: {desc['perron_is_expansion']}")

scc = stuck_scc_indices(graph)[0]
tile_map, cp, pair = extract_witness(system, graph, scc)
print(f"\nextracted witness: tile map {tile_map.choice} at level {tile_map.n}")
print(f"control points: {[str(c) for c in cp.c]} (admissible: {cp.admissible})")
rep = strong_coincidence(system, cp)
for p in rep.pairs:
    print(f"  pair ({p.i},{p.j}): {p.status}" + (f" at L={p.L}" if p.ok else ""))
print(f"failing pair: {pair}")

print("\nDOT rendering of the overlap graph:\n")
print(to_dot(graph, stuck))

"""Smallest possible end-to-end run: build a toy attributed graph in
memory, embed nodes and attributes into one space, and look around.

Two triangles bridged by a single edge; the left triangle carries the
"red" attributes, the right one the "blue" attributes.  After embedding,
each node should sit closer to its own side's attribute vectors.
"""

import numpy as np

from semgraph import AttributedGraph, embed

A = np.zeros((6, 6))
for u, v in [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5), (2, 3)]:
    A[u, v] = A[v, u] = 1.0

# rows: nodes, cols: red0 red1 blue0 blue1
R = np.zeros((6, 4))
R[:3, 0] = 1.0
R[:3, 1] = [1.0, 0.0, 1.0]
R[3:, 2] = 1.0
R[3:, 3] = [0.0, 1.0, 1.0]

g = AttributedGraph.from_dense(
    A, R,
    node_ids=[f"v{i}" for i in range(6)],
    attr_ids=["red0", "red1", "blue0", "blue1"])

model = embed(g, dim=4)  # top eigenpairs of the symmetric walk matrix
print(f"embedded {model.n} nodes + {model.m} attributes in "
      f"{model.dim} dimensions")

# nearest attribute for every node, in the shared space
for i, name in enumerate(model.node_ids):
    d = np.linalg.norm(model.attr_vectors - model.node_vectors[i], axis=1)
    ranked = np.argsort(d)
    print(f"{name}: " + ", ".join(
        f"{model.attr_ids[w]} ({d[w]:.3f})" for w in ranked[:2]))

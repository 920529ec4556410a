"""Refine a walk-matrix embedding with the two side-information regularizers:
a modularity matrix (community structure) and a node-node attribute
cosine (semantic similarity), both folded into one graph Laplacian.

The refinement is a single closed-form coordinate pass over the factor
pair, so the interesting part is how the two penalty weights move the
objective terms against each other.
"""

import logging

import numpy as np

from semgraph import (build_hetero_adjacency, build_side_info, factorize,
                      objective_value, planted_attributed_sbm, side_enhance,
                      walk_matrix)

logging.basicConfig(level=logging.INFO, format="%(message)s")

g = planted_attributed_sbm(nodes=120, blocks=3, seed=7)
walk = walk_matrix(build_hetero_adjacency(g))
base = factorize(walk, 32)
# each source's own Laplacian, to split the penalty into its two terms
L1 = build_side_info(g, (1.0, 0.0)).node_laplacian
L2 = build_side_info(g, (0.0, 1.0)).node_laplacian

print(f"{'lambda1':>8} {'lambda2':>8} {'fit':>12} {'penalty1':>12} "
      f"{'penalty2':>12}")
for lams in [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0), (10.0, 10.0)]:
    side = build_side_info(g, lambdas=lams)
    refined = side_enhance(base, walk, side)
    X, Y = refined.vectors, refined.context
    fit = objective_value(walk.stored, X, Y)  # ||Z - X Y^T||_F^2
    # both penalties act on the node rows only: tr(X_n^T L X_n)
    X_n = X[:g.n]
    p1 = float(np.sum(X_n * (L1 @ X_n)))
    p2 = float(np.sum(X_n * (L2 @ X_n)))
    print(f"{lams[0]:8.1f} {lams[1]:8.1f} {fit:12.4f} {p1:12.4f} {p2:12.4f}")

# the total objective before/after each pass is also in the INFO log above
print("\nobjective with the default weights, before and after one pass:")
side = build_side_info(g)
L = side.node_laplacian
before = objective_value(walk.stored, base.vectors, base.context, L)
ref = side_enhance(base, walk, side)
after = objective_value(walk.stored, ref.vectors, ref.context, L)
print(f"  {before:.4f} -> {after:.4f}")

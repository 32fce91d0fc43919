"""Tour of the graph container and the two heterophily measures.

Builds a toy graph by hand, reads off label and feature heterophily,
extracts an ego subgraph, and pushes labels toward disagreement with the
iterative relabeler.
"""

import numpy as np

from cdgnn.graphs import (
    Graph,
    ego_subgraph,
    feature_heterophily,
    label_heterophily,
)
from cdgnn.synth import relabel_to_heterophily


def main() -> None:
    # A 6-node graph: a triangle of class 0 joined to a path of class 1.
    edges = np.array([(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5)])
    features = np.array([
        [1.0, 0.0],
        [1.0, 0.1],
        [0.9, 0.0],
        [0.0, 1.0],
        [0.1, 1.0],
        [0.0, 0.9],
    ])
    labels = np.array([0, 0, 0, 1, 1, 1])
    g = Graph(num_nodes=6, edges=edges, features=features, labels=labels,
              num_classes=2)

    print(f"nodes: {g.num_nodes}, edges: {g.num_edges}")
    print(f"degree sequence: {g.degrees.tolist()}")

    # Only the bridge (2, 3) joins different classes: 1 of 6 edges.
    print(f"label heterophily h_L = {label_heterophily(g):.4f}")
    # Within-class features are nearly parallel, so h_F is small too.
    print(f"feature heterophily h_F = {feature_heterophily(g):.4f}")

    # The 1-hop ego view of the bridge node mixes both classes.
    mapping, sub_edges = ego_subgraph(g, 2, hops=1)
    sub = Graph(mapping.shape[0], sub_edges, g.features[mapping],
                g.labels[mapping], g.num_classes)
    print(f"\n1-hop ego of node 2: {sub.num_nodes} nodes "
          f"(originals {mapping.tolist()}), h_L = {label_heterophily(sub):.4f}")

    # Relabel toward disagreement. On this graph a perfect 2-coloring of
    # every edge is impossible (odd triangle), so the relabeler stops at
    # its best effort and says so.
    result = relabel_to_heterophily(g, target=1.0, seed=0)
    print(f"\nrelabel toward h_L = 1.0:")
    print(f"  rounds: {len(result.history)}, reached target: {result.reached}")
    print(f"  h_L per round: {[round(h, 3) for h in result.history]}")
    print(f"  final labels: {result.graph.labels.tolist()}")


if __name__ == "__main__":
    main()

"""A directed cycle on the circle that never reaches consensus.

Three agents on S^1, each listening only to the next agent around a directed
3-cycle, with strictly diagonally dominant weights. From some starting
configurations the iteration does not collapse to consensus: it locks into an
equilateral shape and rotates forever. Every step turns all three agents by
the same angle, so the fixed-point residual stays pinned at a positive
constant while the pairwise angles freeze at 120 degrees.

This is why sweeping "random graphs" for the consensus claim needs symmetric
topologies: directed circulation supports these rotating waves, which are
invariant circles rather than fixed points.
"""

import numpy as np

from spherecon import random_configuration, sample_sdd
from spherecon.dynamics import iterate
from spherecon.graph import DirectedGraph


def main():
    # Pure directed 3-cycle: 1 -> 2 -> 3 -> 1 (each agent hears one other).
    g = DirectedGraph.from_edges(3, [(1, 2), (2, 3), (3, 1)])
    a = sample_sdd(g, margin=0.1, symmetric=False, seed=0)
    c = random_configuration(3, 2, seed=10009)

    print("directed 3-cycle, SDD weights, random start on the circle")
    print("weights:")
    for row in a.entries:
        print("   " + "  ".join(f"{v:7.4f}" for v in row))
    print()
    print(f"{'step':>7} | residual | pairwise dot products | heading of agent 1")
    prev = c
    for k in range(20001):
        nxt = iterate(a, prev)
        if k % 2000 == 0:
            residual = np.linalg.norm(nxt.rows - prev.rows)
            gram = prev.rows @ prev.rows.T
            dots = gram[np.triu_indices(3, 1)]
            heading = np.degrees(np.arctan2(prev.rows[0, 1], prev.rows[0, 0]))
            print(f"{k:7d} | {residual:.6f} | "
                  + " ".join(f"{v:+.4f}" for v in dots)
                  + f" | {heading:+8.2f} deg")
        prev = nxt

    print()
    print("the residual settles at a positive constant and the dot products")
    print("at -1/2: an equilateral configuration spinning at a fixed rate.")


if __name__ == "__main__":
    main()

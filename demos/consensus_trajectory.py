"""One trajectory of the sphere-consensus iteration, watched closely.

A random symmetric strictly diagonally dominant weight matrix on a random
connected graph drives six agents on the 2-sphere from a random start. The
quadratic form tr(X^T A X) increases monotonically along the trajectory (it
is the objective the iteration greedily maximizes), the per-step residual
collapses geometrically, and the limit is a consensus point.
"""

import numpy as np

from spherecon import (classify_configuration, potential, random_configuration,
                       run, sample_sdd, spectral_radius)
from spherecon.graph import random_symmetric_connected


def main():
    n, d, seed = 6, 3, 2026
    g = random_symmetric_connected(n, 0.5, seed)
    a = sample_sdd(g, margin=0.1, symmetric=True, seed=seed + 1)
    c0 = random_configuration(n, d, seed + 2)

    res = run(a, c0, record_potential=True, a_for_potential=a)
    v = res.potential_history

    print(f"{n} agents on S^{d - 1}, {g.adjacency.sum()} directed edges")
    print(f"converged after {res.iterations} iterations, "
          f"residual {res.residual:.2e}")
    print()
    print("potential tr(X^T A X) along the way (every 5th step):")
    for k in range(0, len(v), 5):
        print(f"  step {k:3d}: V = {v[k]:.10f}")
    print(f"  limit: V = {v[-1]:.10f} "
          f"(consensus value = sum of all weights = {a.entries.sum():.10f})")
    print(f"smallest per-step increase: {np.diff(v).min():.3e} (never negative)")
    print()

    cls = classify_configuration(res.final)
    print(f"limit classification: {cls.kind}")
    print(f"spectral radius of the differential at the limit: "
          f"{spectral_radius(a, res.final):.12f} (neutral, as at any consensus)")


if __name__ == "__main__":
    main()

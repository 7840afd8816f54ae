"""Average-case hardness laboratory for Minesweeper inference.

Boards on a torus or open square lattice; frontier labels compiled to
grouped CNF; an assumption-based solver answering forced-safe/forced-mine
queries; minimal group cores as a per-inference hardness metric; a bounded
k-set linear-combination prover for comparison; cluster statistics linking
the mine density to site percolation; and a sweep harness reproducing the
alpha(rho) phase portrait at desk scale.
"""

__version__ = "0.1.0"

"""Computable convex-geometric and dynamical entropy machinery:
symmetrizations and Loewner ellipsoids, Finsler volumes and entropy floors,
entropy-collapse contact forms with their Reeb flows, and finite-horizon
estimators for topological entropy, volume entropy and norm growth."""

__version__ = "0.1.0"

# most Dehn twists a spec takes, so tau = 2 pi k stays finite; numpy-free for the CLI
MAX_TWISTS = 1_000_000

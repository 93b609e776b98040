"""Finite-dimensional quantum-information numerics.

Dense, labeled tensor-product linear algebra; an embedded primal-dual SDP
solver; exact and smooth conditional entropies; Choi-matrix channels; Haar
sampling; decoupling experiments; one-shot state merging.
"""

__version__ = "0.1.0"

from qdecouple.linalg import Dims, StateOperator, PureState

__all__ = ["Dims", "StateOperator", "PureState", "__version__"]

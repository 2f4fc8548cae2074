"""Randomized quasi-Monte Carlo for discontinuous integrands with
boundary singularities: digital nets, nested uniform scrambling,
low-variation extensions, option-payoff integrands, and replicated
convergence-rate studies.

Public names are imported from their submodules (``rqmc.experiment``,
``rqmc.finance``, ...); this module re-exports none of them, so a command
loads only the modules it uses.
"""

__version__ = "0.1.0"

"""Entanglement dynamics of two qubits coupled pairwise to a probe qubit.

Simulates three-qubit evolution under pairwise Hamiltonians on pairs (1,3)
and (2,3), detects whether the pair Hamiltonians commute, extracts the
canonical commuting form, and tracks concurrence, tangle, entanglement of
formation and the residual three-way tangle of the non-interacting pair.
"""

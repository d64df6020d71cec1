"""Simulator for an EIT-based two-photon quantum phase gate.

A five-level medium driven by two classical fields imprints a cross
phase between single probe and trigger photons. The package builds the
restricted collective master equation of that system, evolves it,
extracts gate phases and fidelities, and covers the supporting analyses:
perturbative phase estimates, probe group velocity with the implied cell
geometry, a three-level ladder comparison model, and the closed-form
interferometric readout.
"""

__version__ = "0.1.0"

"""Desk-scale adiabatic quantum state generation toolkit."""

from . import adiabatic, markov, qcore, sparseham, szk  # noqa: F401

__all__ = ["adiabatic", "cli", "markov", "qcore", "sparseham", "szk"]
__version__ = "0.1.0"

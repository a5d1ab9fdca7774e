"""Simulator and analytical toolkit for hierarchical over-the-air federated learning."""

__version__ = "0.8.0"

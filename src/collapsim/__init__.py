"""Exact small-dimension quantum measurement simulation with pluggable
collapse policies, plus experiment harnesses built on top of them."""

from . import agent, behavior, energy, errors, kochen_specker, policies, quantum, sat, signaling

__version__ = "0.1.0"

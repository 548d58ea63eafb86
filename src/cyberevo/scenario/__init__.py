"""Discrete-step cyber-defense scenario simulation."""

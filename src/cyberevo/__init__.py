"""Evolutionary and coevolutionary training of cyber-defense controllers
inside a discrete-step red/blue/green network scenario."""

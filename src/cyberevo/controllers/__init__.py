"""Controller representations: stochastic matrices, decision-tree rules, fixed adversaries."""

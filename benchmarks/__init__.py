"""The paper's experiments and the tier benchmarks (see README, "Benchmarks")."""

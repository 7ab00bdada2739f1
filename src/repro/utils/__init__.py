"""Shared utilities: RNG plumbing, timing."""

from .rng import as_rng, spawn_rng
from .timing import Stopwatch, format_seconds

__all__ = [
    "as_rng",
    "spawn_rng",
    "Stopwatch",
    "format_seconds",
]

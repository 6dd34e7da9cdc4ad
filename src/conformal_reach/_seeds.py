"""Sub-seed derivation: every pipeline stage draws from a generator keyed
by (root_seed, stage_code), so runs are reproducible end to end and stages
never share a stream. The derivation is SeedSequence's documented hash of
the entropy plus spawn key. The argument checks that every entry point
shares live here too."""

from __future__ import annotations

import math
import numbers

import numpy as np

# Stage codes and the trailing 0 of the spawn key are part of every
# stream's seed: renumbering or dropping them changes all draws.
STAGES = {
    "train": 0,
    "calib": 1,
    "aux": 2,
    "audit": 4,
}


def stage_rng(root_seed: int, stage: str) -> np.random.Generator:
    return np.random.default_rng(
        np.random.SeedSequence(root_seed, spawn_key=(STAGES[stage], 0))
    )


def check_integer(name: str, value, low: int) -> None:
    """A seed, sample count, rank or calibration size must be an integer
    >= ``low``; numpy integers pass, bool does not. A ValueError names the
    argument."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < low:
        kind = "positive" if low else "non-negative"
        raise ValueError(f"{name} must be a {kind} integer, got {value!r}")


def check_number(name: str, value, positive: bool) -> None:
    """A radius, fraction, threshold, darkening or miscoverage level must be
    a finite real number, and a positive one where ``positive``; bool is
    not one. A ValueError names the argument."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    if positive and value <= 0:
        raise ValueError(f"{name} must be positive, got {value!r}")

"""Output checks of one certification.

``invariants`` holds for every certification: finite bounds with lo <= hi,
status codes that partition the h*w pixels, and a status mask equal to an
independent per-pixel recomputation from the bounds. ``against_reference``
compares the reference instance with the outputs stored in ``reference/``.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
# Loose enough for a replaced LP or PCA solver, tight enough to catch a
# changed certificate.
INTERVAL_RTOL = 1e-6
INTERVAL_ATOL = 1e-9
DELTA2_RTOL = 1e-9


class CheckError(AssertionError):
    """An output check failed."""


def _require(ok, message):
    if not ok:
        raise CheckError(message)


def _status_oracle(lo, hi, baseline):
    """Per-pixel status by direct enumeration: 1 robust, 2 non-robust, 0 unknown."""
    h, w, L = lo.shape
    out = np.empty((h, w), dtype=np.uint8)
    for i in range(h):
        for j in range(w):
            star = max(range(L), key=lambda l: (lo[i, j, l], -l))
            others = [hi[i, j, l] for l in range(L) if l != star]
            if lo[i, j, star] <= max(others):
                out[i, j] = 0
            else:
                out[i, j] = 1 if star + 1 == baseline[i, j] else 2
    return out


def invariants(lo, hi, mask, shape):
    h, w, L = shape
    _require(lo.shape == hi.shape == (h * w * L,), f"bound shapes {lo.shape}, {hi.shape}")
    _require(np.all(np.isfinite(lo)) and np.all(np.isfinite(hi)), "non-finite bounds")
    _require(np.all(lo <= hi), "lo > hi somewhere")
    status = mask.status
    _require(status.shape == (h, w), f"status shape {status.shape}")
    _require(sum(mask.counts.values()) == h * w, "status partition does not cover h*w")
    expected = _status_oracle(lo.reshape(shape), hi.reshape(shape), mask.baseline_mask)
    _require(np.array_equal(status, expected), "status disagrees with the bounds")


def reference_path(name, tiny):
    return REFERENCE_DIR / f"{name}{'-tiny' if tiny else ''}.npz"


def save_reference(path, lo, hi, mask, guarantee):
    np.savez_compressed(
        path,
        status=mask.status,
        lo=lo,
        hi=hi,
        delta2=guarantee.confidence_delta2,
        one_minus_delta2=guarantee.confidence_miscoverage,
    )


def against_reference(path, lo, hi, mask, guarantee):
    with np.load(path) as ref:
        _require(np.array_equal(mask.status, ref["status"]), "status differs from reference")
        for name, got in (("lo", lo), ("hi", hi)):
            _require(
                np.allclose(got, ref[name], rtol=INTERVAL_RTOL, atol=INTERVAL_ATOL),
                f"{name} differs from reference beyond rtol {INTERVAL_RTOL}",
            )
        for name, got in (
            ("delta2", guarantee.confidence_delta2),
            ("one_minus_delta2", guarantee.confidence_miscoverage),
        ):
            _require(
                np.isclose(got, float(ref[name]), rtol=DELTA2_RTOL, atol=0.0),
                f"{name} {got!r} differs from reference {float(ref[name])!r}",
            )


def bit_identical(pairs):
    """Each (label, a, b) must match in dtype, shape and every byte."""
    for label, a, b in pairs:
        a, b = np.asarray(a), np.asarray(b)
        _require(
            a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes(),
            f"replay differs from the pipeline in {label}",
        )

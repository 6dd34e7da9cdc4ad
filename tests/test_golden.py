"""Golden outputs: small fixed-seed pipeline runs against stored results.

The two-run bit-identity tests in ``test_verify.py`` compare the code with
itself; these compare it with outputs stored under ``tests/golden/``, so a
refactor or a replaced solver that moves a result shows up here. Status must
match exactly, the float arrays to rtol 1e-9.

Regenerate the stored files only on purpose, when a change is meant to move
the outputs:

    PYTHONPATH=src python tests/test_golden.py
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conformal_reach.model import ImageTensor, random_mlp
from conformal_reach.perturb import build_darkening, build_global_ball
from conformal_reach.verify import run_naive_pipeline, run_surrogate_pipeline

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
RTOL = 1e-9


def golden_inputs():
    """6x6 gray image with 8 bright pixels, a 36-64-108 random MLP (3
    classes) and darkening of half the bright pixels: r = 4."""
    rng = np.random.default_rng(2024)
    arr = rng.uniform(0.0, 0.5, size=(6, 6, 1))
    flat = arr.reshape(36, 1)
    bright = rng.choice(36, size=8, replace=False)
    flat[bright] = rng.uniform(0.7, 1.0, size=(8, 1))
    image = ImageTensor.from_array(arr)
    model = random_mlp([36, 64, 108], rng)
    spec = build_darkening(image, 0.5, rng_seed=5)
    return model, spec


def ball_inputs():
    """8x8 RGB image, a 192-64-256 random MLP (4 classes) and a global l2
    ball of radius 0.5: n = 256 outputs, more than the 100 training
    samples of its case, so deflation runs with t < n."""
    rng = np.random.default_rng(2025)
    image = ImageTensor.from_array(rng.uniform(0.0, 1.0, size=(8, 8, 3)))
    model = random_mlp([192, 64, 256], rng)
    return model, build_global_ball(image, "l2", 0.5)


# name -> (pipeline, inputs, keyword arguments of the pipeline call)
CASES = {
    "naive": ("naive", golden_inputs, dict(
        train_size=300, calib_size=600, epsilon=0.05, rank_ell=590, seed=21,
    )),
    "surrogate-linf": ("surrogate", golden_inputs, dict(
        train_size=200, calib_size=400, aux_size=150, num_components=4,
        epsilon=0.05, rank_ell=390, seed=22,
    )),
    "surrogate-ball-t-lt-n": ("surrogate", ball_inputs, dict(
        train_size=100, calib_size=400, aux_size=100, num_components=4,
        epsilon=0.05, rank_ell=390, seed=24,
    )),
}


def run_case(name):
    pipeline, inputs, kwargs = CASES[name]
    model, spec = inputs()
    if pipeline == "naive":
        reachset, mask, _ = run_naive_pipeline(model, spec, **kwargs)
    else:
        reachset, mask, _ = run_surrogate_pipeline(model, spec, **kwargs)
    lo, hi = reachset.project_intervals()
    out = {"status": mask.status, "lo": lo, "hi": hi}
    if pipeline == "surrogate":
        out["error_sigma"] = reachset.sigma
    return out


@pytest.mark.parametrize("name", sorted(CASES))
def test_matches_golden(name):
    stored = np.load(GOLDEN_DIR / f"{name}.npz")
    got = run_case(name)
    assert sorted(stored.files) == sorted(got)
    np.testing.assert_array_equal(got["status"], stored["status"])
    for key in sorted(set(got) - {"status"}):
        np.testing.assert_allclose(got[key], stored[key], rtol=RTOL, atol=0, err_msg=key)


def test_matches_golden_on_one_blas_thread():
    # a threaded BLAS product may sum in another order at another thread
    # count, so the stored outputs must hold to RTOL on one thread too
    tests = Path(__file__).resolve().parent
    path = [str(tests.parent / "src"), str(tests), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    env.update(dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1"))
    code = "import test_golden as g\nfor name in sorted(g.CASES):\n    g.test_matches_golden(name)"
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    for case in sorted(CASES):
        np.savez(GOLDEN_DIR / f"{case}.npz", **run_case(case))
        print(f"wrote {GOLDEN_DIR / case}.npz")

"""Benchmark workloads: sizes, seeded synthetic inputs and one certification.

A workload is a pipeline (naive box or hull surrogate) plus the sizes of its
image, network, perturbation set and sample stages. Everything the program
receives (image, network weights, perturbation set, pipeline seed) is built
from the workload seed alone, so the same seed gives the same inputs.

Why these three workloads: ``naive-dark64`` spends its time in inference and
the dense darkening noise matrix and never touches ``pca`` or ``hull``;
``surrogate-dark16-n10`` is bound by the clip LP; ``surrogate-ball32-n5`` is
bound by deflation and samples heavily from an implicit-basis l2 ball, so a
change to the darkening noise matrix predicts no movement there.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from conformal_reach.guarantees import guarantee_confidence
from conformal_reach.model import ImageTensor, random_mlp
from conformal_reach.perturb import build_darkening, build_global_ball
from conformal_reach.verify import (
    conservatism_audit,
    run_naive_pipeline,
    run_surrogate_pipeline,
)

# Seed of the reference instance whose outputs are stored in reference/.
REFERENCE_SEED = 0
EPSILON = 0.01
MIN_DELTA2 = 0.999
HIDDEN = 256
# Darkened images keep every eligible pixel comfortably above the
# intensity threshold (150/255) and every other pixel below it, so the
# number of eligible pixels, and with it r, is the same for every seed.
BRIGHT_RANGE = (0.65, 1.0)
DIM_RANGE = (0.0, 0.55)


@dataclass(frozen=True)
class Workload:
    name: str
    pipeline: str  # "naive" or "surrogate"
    height: int
    width: int
    channels: int
    classes: int
    perturbation: str  # "darken" or "l2-ball"
    amount: float  # darkened share of eligible pixels, or the ball radius
    bright_pixels: int  # eligible pixels of a darkening image
    train: int
    calib: int
    aux: int
    components: int
    audit: int
    # Time of one certification with its setup and audit on a 2-core x86
    # box. A run makes --seconds / nominal_s certifications, so every run of
    # a workload measures the same instances whatever the machine's speed.
    nominal_s: float

    @property
    def input_dim(self) -> int:
        return self.height * self.width * self.channels

    @property
    def output_dim(self) -> int:
        return self.height * self.width * self.classes


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "naive-dark64", "naive", 64, 64, 3, 3, "darken", 0.10, 820,
            train=2000, calib=8000, aux=0, components=0, audit=8000, nominal_s=8.5,
        ),
        Workload(
            "surrogate-dark16-n10", "surrogate", 16, 16, 1, 3, "darken", 0.05, 120,
            train=1000, calib=2000, aux=1000, components=10, audit=20000, nominal_s=6.5,
        ),
        # Deflation iteration counts vary by about a third between inputs
        # (they follow the eigengaps), so this workload keeps each
        # certification small enough for a run to take the median of 8.
        Workload(
            "surrogate-ball32-n5", "surrogate", 32, 32, 3, 4, "l2-ball", 0.5, 0,
            train=500, calib=1000, aux=500, components=5, audit=2000, nominal_s=3.6,
        ),
    )
}

# The same pipelines at sizes that run in about a second, for the self-check.
# calib 700 is close to the smallest m at which delta2 can reach MIN_DELTA2.
TINY = {
    "naive-dark64": dict(height=16, width=16, bright_pixels=60, train=200, calib=700, audit=700, nominal_s=0.1),
    "surrogate-dark16-n10": dict(height=8, width=8, bright_pixels=40, train=200, calib=700, aux=200, audit=700, nominal_s=1.0),
    "surrogate-ball32-n5": dict(height=8, width=8, train=200, calib=700, aux=200, audit=700, nominal_s=0.4),
}


def get_workload(name: str, tiny: bool = False) -> Workload:
    wl = WORKLOADS[name]
    return dataclasses.replace(wl, **TINY[name]) if tiny else wl


@dataclass(frozen=True)
class Inputs:
    model: object
    spec: object
    guarantee: object
    seed: int


def instance_seed(seed: int, k: int) -> int:
    """Seed of the k-th certification of a run with workload seed ``seed``."""
    return int(np.random.SeedSequence([seed, k]).generate_state(1)[0])


def select_rank(calib_size: int) -> int:
    """Smallest rank ell whose double-step confidence reaches MIN_DELTA2.

    delta2 grows with ell, so a bisection over [1, m] finds it."""
    lo, hi = 1, calib_size
    if guarantee_confidence(EPSILON, hi, calib_size).confidence_delta2 < MIN_DELTA2:
        raise ValueError(f"no rank reaches delta2 >= {MIN_DELTA2} at m={calib_size}")
    while lo < hi:
        mid = (lo + hi) // 2
        if guarantee_confidence(EPSILON, mid, calib_size).confidence_delta2 >= MIN_DELTA2:
            hi = mid
        else:
            lo = mid + 1
    return lo


def _image(wl: Workload, rng: np.random.Generator) -> ImageTensor:
    shape = (wl.height, wl.width, wl.channels)
    if wl.perturbation != "darken":
        return ImageTensor.from_array(rng.uniform(0.0, 1.0, size=shape))
    arr = rng.uniform(*DIM_RANGE, size=shape)
    flat = arr.reshape(wl.height * wl.width, wl.channels)
    bright = rng.choice(flat.shape[0], size=wl.bright_pixels, replace=False)
    flat[bright] = rng.uniform(*BRIGHT_RANGE, size=(wl.bright_pixels, wl.channels))
    return ImageTensor.from_array(arr)


def build_inputs(wl: Workload, seed: int) -> Inputs:
    """Image, network, perturbation set and guarantee from the seed alone."""
    rng = np.random.default_rng(seed)
    image = _image(wl, rng)
    model = random_mlp([wl.input_dim, HIDDEN, wl.output_dim], rng)
    if wl.perturbation == "darken":
        spec = build_darkening(image, wl.amount, rng_seed=seed)
    else:
        spec = build_global_ball(image, "l2", wl.amount)
    guarantee = guarantee_confidence(EPSILON, select_rank(wl.calib), wl.calib)
    return Inputs(model=model, spec=spec, guarantee=guarantee, seed=seed)


def certify(wl: Workload, inp: Inputs):
    """One pipeline call; returns (lo, hi, mask)."""
    g = inp.guarantee
    if wl.pipeline == "naive":
        reachset, mask, _ = run_naive_pipeline(
            inp.model, inp.spec, wl.train, wl.calib, g.epsilon, g.rank_ell, seed=inp.seed
        )
    else:
        reachset, mask, _ = run_surrogate_pipeline(
            inp.model, inp.spec, wl.train, wl.calib, wl.aux, wl.components,
            g.epsilon, g.rank_ell, seed=inp.seed,
        )
    lo, hi = reachset.project_intervals()
    return lo, hi, mask


def audit(wl: Workload, inp: Inputs, lo, hi):
    return conservatism_audit(inp.model, inp.spec, lo, hi, wl.audit, seed=inp.seed)

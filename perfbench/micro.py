"""Per-primitive microbenchmarks at fixed inputs seeded from the workload seed.

Each primitive is called in blocks of a fixed size chosen by a short
calibration; the reported figure is the best block, in microseconds per
call.  Inputs come from `su3forms.sampling` (flat kernel) and
`sphere.random_points` (sphere model), drawn from the workload seed.
"""

from __future__ import annotations

import random
import time

import numpy as np
from su3forms import sampling
from su3forms import sphere as sp
from su3forms.deformation import DeformationParams, params_to_jet
from su3forms.forms import hodge_star, wedge
from su3forms.structure import decompose_three_form, endo_act, psi_plus, type_project

#: best-of-N blocks; each block runs at least this long
REPEATS = 5
BLOCK_SECONDS = 0.02
STEP = 1e-3


def best_us_per_call(fn) -> float:
    number = 1
    while True:
        t0 = time.perf_counter()
        for _ in range(number):
            fn()
        elapsed = time.perf_counter() - t0
        if elapsed >= BLOCK_SECONDS:
            break
        number *= 2
    best = elapsed / number
    for _ in range(REPEATS - 1):
        t0 = time.perf_counter()
        for _ in range(number):
            fn()
        best = min(best, (time.perf_counter() - t0) / number)
    return best * 1e6


def _flat_cases(seed: int, mode: str) -> dict:
    rng = random.Random(seed)
    a2 = sampling.random_form(rng, 2, mode)
    a3 = sampling.random_form(rng, 3, mode)
    s = sampling.random_sym_minus(rng, mode)
    pp = psi_plus(mode)
    params = DeformationParams(
        xi=sampling.random_vector(rng, mode),
        s=sampling.random_sym_minus(rng, mode),
        phi=sampling.random_j_invariant_two_form(rng, mode),
        mu=sampling.sample_scalar(rng, mode),
    )
    return {
        "forms.wedge": lambda: wedge(a2, a3),
        "forms.hodge_star": lambda: hodge_star(a3),
        "structure.endo_act": lambda: endo_act(s, pp),
        "structure.type_project": lambda: type_project(a3, 2, 1),
        "structure.decompose_three_form": lambda: decompose_three_form(a3),
        "deformation.params_to_jet": lambda: params_to_jet(params),
    }


def _sphere_cases(seed: int) -> dict:
    p = sp.random_points(seed, 1)[0]
    coeffs = np.random.default_rng(seed).standard_normal(len(sp.combos(7, 3)))
    frame = sp.adapted_frame(p).matrix
    pm, om = sp.psi_minus_field(), sp.omega_field()
    return {
        "sphere.pullback_form": lambda: sp.pullback_form(coeffs, 3, frame),
        "sphere.ext_d": lambda: sp.ext_d(pm, p, STEP),
        "sphere.codifferential": lambda: sp.codifferential(om, p, STEP),
    }


def microbenchmarks(seed: int) -> dict[str, float]:
    """`<module>.<function>.<mode>.us_per_call` for every primitive."""
    out = {}
    for mode in ("exact", "float"):
        for key, fn in _flat_cases(seed, mode).items():
            out[f"{key}.{mode}.us_per_call"] = best_us_per_call(fn)
    for key, fn in _sphere_cases(seed).items():
        out[f"{key}.float.us_per_call"] = best_us_per_call(fn)
    return out


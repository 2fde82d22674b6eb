"""Per-call cost of the layer kernels at fixed sizes (untraced).

Names follow ``<layer>.<fn>_us.n<N>``: one IFRK4 step per problem kind,
besov_norm, sobolev_norm and spectral_summary(build_hankel) at
N in {32, 128, 512, 1200}; the generator field and taylor_residual at
N = 32.  Each cost is the median per-call time of three batches of about
BATCH_S seconds, or a single call when one call already takes longer.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

from halfwave.fields import GridSpec, TorusField
from halfwave.hankel import build_hankel, spectral_summary
from halfwave.integrate import make_stepper
from halfwave.normalform import F, taylor_residual, vector_field
from halfwave.norms import besov_norm, charge, sobolev_norm
from halfwave.problems import EvolutionProblem

SIZES = (32, 128, 512, 1200)
BATCH_S = 0.02
EPS = 0.1


def _state(n, analytic):
    """(1+|k|)^-1.5 decay with seeded phases on |k| <= n/4 (k >= 0 if analytic)."""
    grid = GridSpec.with_padding(n)
    rng = np.random.default_rng(0)
    k = grid.modes()
    support = (np.abs(k) <= n // 4) & ((k >= 0) if analytic else True)
    coeff = np.where(support, (1.0 + np.abs(k)) ** -1.5, 0.0) \
        * np.exp(2j * np.pi * rng.random(k.size))
    return TorusField(grid, 0.5 * coeff)


def _problems(q0):
    return {
        "half_wave": EvolutionProblem.half_wave(),
        "half_wave_scaled": EvolutionProblem.half_wave_scaled(EPS),
        "half_wave_gauged": EvolutionProblem.half_wave_gauged(EPS, q0),
        "szego_plain": EvolutionProblem.szego_plain(),
        "szego_transport": EvolutionProblem.szego_transport(EPS, q0),
        "free_half_wave": EvolutionProblem.free_half_wave(),
    }


def per_call_us(fn) -> float:
    start = perf_counter()
    fn()
    first = perf_counter() - start
    if first >= BATCH_S:
        return 1e6 * first
    reps = max(1, int(BATCH_S / max(first, 1e-7)))
    batches = []
    for _ in range(3):
        start = perf_counter()
        for _ in range(reps):
            fn()
        batches.append((perf_counter() - start) / reps)
    return 1e6 * statistics.median(batches)


def unit_costs() -> dict:
    out = {}
    for n in SIZES:
        u = _state(n, analytic=False)
        w = _state(n, analytic=True)
        for kind, problem in _problems(charge(u)).items():
            stepper = make_stepper(problem, u.grid, 0.01)
            out[f"integrate.step_{kind}_us.n{n}"] = per_call_us(lambda: stepper.step(u.coeff))
        out[f"norms.besov_norm_us.n{n}"] = per_call_us(lambda: besov_norm(u))
        out[f"norms.sobolev_norm_us.n{n}"] = per_call_us(lambda: sobolev_norm(u, 1.5))
        out[f"hankel.spectral_summary_us.n{n}"] = per_call_us(
            lambda: spectral_summary(build_hankel(w)))
    u = _state(32, analytic=False)
    out["normalform.generator_field_us.n32"] = per_call_us(lambda: vector_field(F, u))
    out["normalform.taylor_residual_us.n32"] = per_call_us(
        lambda: taylor_residual((0.4 / besov_norm(u)) * u, EPS))
    return out


"""The four benchmark workloads: how each builds its inputs and runs one unit.

A unit is one complete, verified experiment result: the experiment runs
in-process through ``halfwave.experiments.run_and_write`` with
``threads=1`` (dt/2 Richardson reruns and the CSV/summary write
included).  The ``audit`` unit adds a seeded Peller-ratio corpus.

Sizes are scaled from the experiments' defaults so that at least three
units fit in one timed run; every workload keeps the grid, profile,
horizon rule and monitor pattern of the experiment it stands for (see
NOTES.md for the full-size timings and the reasons).
"""

from __future__ import annotations

import numpy as np

from halfwave import experiments as ex
from halfwave.fields import GridSpec, TorusField
from halfwave.hankel import build_hankel, peller_ratio
from halfwave.integrate import make_stepper
from halfwave.norms import charge
from halfwave.operators import cubic_term
from halfwave.problems import EvolutionProblem

#: the unit seeds for which references are stored; a run seed n uses
#: input seed REFERENCE_SEEDS[n % len(REFERENCE_SEEDS)]
REFERENCE_SEEDS = tuple(range(8))

#: the eps sweep shared by the two O(1)-profile workloads: three rows (the
#: minimum for a slope fit) on the default N=128 grid and inv_eps_sq:1 horizon
SWEEP_EPS = (1.0, 0.5, 0.25)

#: audit corpus of analytic symbols for peller_ratio
PELLER_N = 512
PELLER_FIELDS = 8


def _config(experiment, seed, out_dir, **overrides):
    return ex.default_config(experiment, seed=seed, output_dir=str(out_dir),
                             threads=1, **overrides)


def approx_pair_config(seed, out_dir):
    return _config(ex.APPROXIMATION, seed, out_dir, eps_list=SWEEP_EPS)


def besov_monitor_config(seed, out_dir):
    return _config(ex.BESOV_BOUND, seed, out_dir, eps_list=SWEEP_EPS)


def inflation_szego_config(seed, out_dir):
    # the inflation rows start from eps (e^{ix} + delta): no random input,
    # so the seed does not reach the result.  The plain Szego flow is
    # homogeneous, w(t) = eps W(eps^2 t), so eps = 1 runs the eps = 0.2
    # trajectory in rescaled time on the same grids, in 1/25 of the steps.
    return _config(ex.INFLATION, seed, out_dir, eps_list=(1.0,),
                   delta_list=(0.4, 0.3, 0.2))


def audit_config(seed, out_dir):
    return _config(ex.NORMALFORM, seed, out_dir)


def peller_corpus(seed):
    """Seeded analytic symbols on |k| <= PELLER_N with (1+k)^-1.5 decay."""
    grid = GridSpec.with_padding(PELLER_N)
    k = np.arange(PELLER_N + 1)
    fields = []
    for i in range(PELLER_FIELDS):
        rng = np.random.default_rng([seed, i])
        coeff = np.zeros(grid.n_coeff, dtype=np.complex128)
        coeff[PELLER_N:] = (1.0 + k) ** -1.5 * np.exp(2j * np.pi * rng.random(k.size))
        fields.append(TorusField(grid, coeff))
    return fields


class Workload:
    """One named workload: its experiment config, extras and set-up probe.

    BENCHMARK.json holds the reason for each workload."""

    def __init__(self, name, config, first_calls, seeded=True, extra=None):
        self.name = name
        self.config = config
        self.seeded = seeded
        self.extra = extra
        self.first_calls = first_calls

    def input_seed(self, seed: int) -> int:
        if not self.seeded:
            return 0
        return REFERENCE_SEEDS[seed % len(REFERENCE_SEEDS)]

    def run_unit(self, seed: int, out_dir):
        """One verified-result unit; returns (SweepResult, extra values)."""
        result = ex.run_and_write(self.config(seed, out_dir))
        extra = self.extra(seed) if self.extra is not None else None
        return result, extra


def _peller_values(seed):
    return [peller_ratio(w) for w in peller_corpus(seed)]


def _one_step(problem, n, amplitude=0.5):
    grid = GridSpec.with_padding(n)
    u = TorusField.from_modes(grid, {0: amplitude, 1: amplitude})
    make_stepper(problem, grid, 0.01).step(u.coeff)


def _pair_first_steps():
    q0 = charge(TorusField.from_modes(GridSpec.with_padding(128), {0: 0.5, 1: 0.5}))
    _one_step(EvolutionProblem.half_wave_gauged(0.2, q0), 128)
    _one_step(EvolutionProblem.szego_transport(0.2, q0), 128)


def _besov_first_steps():
    _one_step(EvolutionProblem.half_wave_gauged(0.2, 0.5), 128)


def _inflation_first_steps():
    # grids 48/delta^2 for delta = 0.4, 0.3, 0.2; the half-wave check runs
    # on the first of them
    for n in (300, 540, 1200):
        _one_step(EvolutionProblem.szego_plain(), n)
    _one_step(EvolutionProblem.half_wave(), 300)


def _audit_first_calls():
    # no integrator steps: one cheap first call on each grid stands in for
    # the first step, a cubic term at N=32 and a Hankel matrix at N=512
    u = TorusField.from_modes(GridSpec.with_padding(32), {-1: 0.1, 0: 0.2, 2: 0.1})
    cubic_term(u, u, u)
    build_hankel(peller_corpus(0)[0])


WORKLOADS = {
    w.name: w
    for w in (
        Workload("approx_pair", approx_pair_config, first_calls=_pair_first_steps),
        Workload("besov_monitor", besov_monitor_config, first_calls=_besov_first_steps),
        Workload("inflation_szego", inflation_szego_config, seeded=False,
                 first_calls=_inflation_first_steps),
        Workload("audit", audit_config, extra=_peller_values,
                 first_calls=_audit_first_calls),
    )
}

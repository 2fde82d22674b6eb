"""Experiment harness: parameter sweeps, slope fits, invariant audits.

Each experiment integrates a family of runs, fits a log-log slope where
a scaling claim is being tested, and reports rows plus its verdict: a
tuple of named checks, each a value against its band, written once
here.  The run passes when every check holds.  Conventions shared by
all experiments:

- Sweeps run in the rescaled frame: the coupling carries eps^2 and the
  initial state has size O(1).  A physical (unscaled) solution is eps
  times a rescaled one at the same time, so rescaled measurements map to
  physical ones by an explicit power of eps; columns state which frame
  they report.
- Every row carries the step it was measured at and a Richardson
  discrepancy: the measured quantity is recomputed with exactly twice
  the steps and the difference recorded.  When both runs are new they
  are stepped as one stack (integrate.trajectory's pair) and each row
  worker reads one value per run off it.  A run fails loudly when that
  discrepancy exceeds 10x the experiment tolerance (a relative 1e-2 of
  the measured value by default) or the value is not finite.
- Every stepped row takes its step and both columns from _stepped.
  Without a configured dt, a supremum row (decoupling, approximation,
  besov) picks its step: from 10x the default step down, the first step
  whose discrepancy is within the squared tolerance (1e-4 relative) is
  taken, each trial's half-step run doubling as the next trial, and the
  default step under the 10x bar is the fallback (see _richardson).  A
  row read at t_end (spectrum, inflation) steps at the default step.
- Identical config and seed give bitwise-identical CSV output; wall
  times appear only in the JSON summary.
"""

from __future__ import annotations

import json
import math
import sys
import time
from dataclasses import asdict, dataclass, field
from functools import partial
from pathlib import Path

import numpy as np

from .fields import GridSpec, TorusField, fast_transform_length
from .hankel import NOISE_FLOOR, build_hankel, spectral_summary
from .integrate import BlowUpError, step_count, trajectory
from .norms import besov_norm, charge, l4_norm, sobolev_norm
from .normalform import (
    F,
    H0,
    R,
    RTILDE,
    _case_masks,
    _case_rows,
    _resonant_rows,
    _row_mismatch,
    functional_value,
    poisson_bracket,
    taylor_residual,
)
from .operators import project_minus
from .problems import EvolutionProblem, _stack, default_time_step

DECOUPLING = "decoupling"
APPROXIMATION = "approximation"
BESOV_BOUND = "besov"
INFLATION = "inflation"
SPECTRUM = "spectrum"
NORMALFORM = "normalform"
STRICHARTZ = "strichartz"
RESONANCES = "resonances"

EXPERIMENTS = (DECOUPLING, APPROXIMATION, BESOV_BOUND, INFLATION, SPECTRUM,
               NORMALFORM, STRICHARTZ, RESONANCES)

#: relative tolerance on a reported value; Richardson discrepancies above
#: 10x this fraction of the value abort the experiment
RICHARDSON_TOLERANCE = 1e-2

#: the largest band max mode N a run may ask for, as grid_n or as the
#: inflation band 48/delta^2; a config above it is rejected before any
#: array is allocated
MAX_GRID_N = 2**16

#: the smallest band of the normalform check: its fields have support N // 4
NORMALFORM_MIN_GRID_N = 4

#: the largest band of the spectrum experiment.  Each Hankel summary of
#: a row takes the SVD of LAPACK's copy of gamma, then the eigenvalues of
#: the (N+1) x (N+1) Gram buffer (67 MB of complex128 each at N = 2048),
#: O(N^3) each, three times a row; one such summary took
#: 0.14 s at N = 512, 0.9 s at 1024 and 6.3 s at 2048 on a 2-core VM,
#: while MAX_GRID_N would ask for a 69 GB matrix
SPECTRUM_MAX_GRID_N = 2048

#: a spectrum row's eig_dev is over this many largest squared-Hankel eigenvalues
_SPECTRUM_TOP = 10

#: the resonance audits enumerate the quadruples with every |k_j| <= this K
_RESONANCE_MAX_ABS = 30


class NumericalFailure(RuntimeError):
    """A run produced numbers that cannot be trusted (blow-up, failed
    eigensolve, or a Richardson discrepancy above the loud-failure bar)."""


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HorizonRule:
    """fixed: T = value; inv_eps_sq: T = value / eps^2;
    log: T = (value / eps^2) log(1/eps)."""

    kind: str
    value: float

    def __post_init__(self):
        if self.kind not in ("fixed", "inv_eps_sq", "log"):
            raise ValueError(f"unknown horizon kind {self.kind!r}")
        if not 0 < self.value < math.inf:
            raise ValueError(f"{self.kind} horizon value must be positive and finite, "
                             f"got {self.value}")

    def time_for(self, eps: float) -> float:
        if self.kind == "fixed":
            t = self.value
        elif self.kind == "inv_eps_sq":
            t = self.value / eps**2
        else:
            t = (self.value / eps**2) * math.log(1.0 / eps)
        if not 0 < t < math.inf:
            raise ValueError(f"{self.kind} horizon: T = {t:.3g} at eps = {eps} is not in (0, inf)")
        return t


@dataclass(frozen=True)
class Profile:
    """Initial-state family.

    single_mode_plus_constant: amplitude * (e^{ix} + delta), delta in (0,1).
    random_decay: amplitude * (1+k)^{-rate} * (seeded unit phase) on
        0 <= k <= support (default band/4), optionally normalized in H^s.
    custom: coefficients from a plain-text file of "k re im" lines.
    """

    kind: str = "random_decay"
    delta: float = 0.5
    rate: float = 2.0
    amplitude: float = 1.0
    support: int | None = None
    path: str | None = None

    def __post_init__(self):
        if self.kind not in ("single_mode_plus_constant", "random_decay", "custom"):
            raise ValueError(f"unknown profile kind {self.kind!r}")
        if self.kind == "single_mode_plus_constant" and not 0.0 < self.delta < 1.0:
            raise ValueError(f"delta must lie in (0, 1), got {self.delta}")
        if self.kind == "custom" and not self.path:
            raise ValueError("custom profile requires a path")


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    grid_n: int = 128
    eps_list: tuple = (0.2, 0.1, 0.05, 0.025)
    delta_list: tuple = (0.4, 0.3, 0.2)
    sobolev: float = 1.5
    horizon: HorizonRule = HorizonRule("inv_eps_sq", 1.0)
    seed: int = 0
    profile: Profile = Profile()
    output_dir: str = "."
    threads: int = 1
    dt: float | None = None

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS:
            raise ValueError(f"unknown experiment {self.experiment!r}")
        if len(self.eps_list) == 0:
            raise ValueError("eps_list must be nonempty")
        if any(not (e > 0 and 0 < e * e < math.inf) for e in self.eps_list):
            raise ValueError("eps values must be positive and finite, with finite nonzero eps^2")
        if any(a <= b for a, b in zip(self.eps_list, self.eps_list[1:])):
            raise ValueError("eps_list must be strictly decreasing")
        if self.experiment in (APPROXIMATION, INFLATION) and not self.sobolev > 1:
            raise ValueError(f"{self.experiment} requires a Sobolev index s > 1")
        if self.grid_n < 1:
            raise ValueError("grid_n must be >= 1")
        if self.grid_n > MAX_GRID_N:
            raise ValueError(f"grid_n = {self.grid_n} exceeds the band ceiling {MAX_GRID_N}")
        if self.experiment == NORMALFORM and self.grid_n < NORMALFORM_MIN_GRID_N:
            raise ValueError(f"normalform requires grid_n >= {NORMALFORM_MIN_GRID_N}: its "
                             "random fields fill the modes |k| <= grid_n // 4, and a "
                             "one-mode field has no Taylor residual to fit")
        if self.experiment == SPECTRUM and self.grid_n > SPECTRUM_MAX_GRID_N:
            raise ValueError(f"spectrum requires grid_n <= {SPECTRUM_MAX_GRID_N}: its rows "
                             "take the SVD of the dense (N+1) x (N+1) Hankel matrix")
        if self.experiment == INFLATION:
            if len(self.delta_list) == 0:
                raise ValueError("delta_list must be nonempty")
            if any(not 0.0 < d < 1.0 for d in self.delta_list):
                raise ValueError("delta values must lie in (0, 1)")
            # raises above the ceiling
            n = max(_inflation_grid_n(d, self.grid_n) for d in self.delta_list)
            s = self.sobolev
            if max(s * math.log1p(n * n), math.lgamma(2 * s + 1)) > math.log(sys.float_info.max):
                raise ValueError(f"the Sobolev index s = {s} overflows the inflation rows: "
                                 f"(1 + N^2)^s on the band N = {n}, or Gamma(2s + 1), "
                                 "is not finite")
        if self.threads < 1:
            raise ValueError("threads must be >= 1")
        if self.dt is not None and not 0 < self.dt < math.inf:
            raise ValueError(f"dt must be positive and finite, got {self.dt}")


def default_config(experiment: str, **overrides) -> ExperimentConfig:
    """Per-experiment defaults; keyword overrides win."""
    base = dict(experiment=experiment)
    if experiment == DECOUPLING:
        base.update(eps_list=(0.2, 0.1, 0.05), horizon=HorizonRule("fixed", 50.0),
                    profile=Profile("single_mode_plus_constant", delta=0.5))
    elif experiment == BESOV_BOUND:
        base.update(horizon=HorizonRule("inv_eps_sq", 1.0))
    elif experiment == INFLATION:
        # the plain Szego flow has no linear stiffness, so a coarser step
        # is plenty; the Richardson column confirms it per row
        base.update(eps_list=(0.1,), dt=0.04,
                    profile=Profile("single_mode_plus_constant", delta=0.5))
    elif experiment == SPECTRUM:
        base.update(grid_n=64, horizon=HorizonRule("fixed", 50.0),
                    profile=Profile("random_decay", rate=2.5, amplitude=0.35, support=12))
    elif experiment == NORMALFORM:
        base.update(grid_n=32)
    base.update(overrides)
    return ExperimentConfig(**base)


def build_initial_state(cfg: ExperimentConfig, grid: GridSpec,
                        normalize_sobolev: float | None = None) -> TorusField:
    """Profile realization on the given grid, deterministic in the seed."""
    prof = cfg.profile
    if prof.kind == "single_mode_plus_constant":
        u = TorusField.from_modes(grid, {1: prof.amplitude, 0: prof.amplitude * prof.delta})
    elif prof.kind == "random_decay":
        support = prof.support if prof.support is not None else grid.max_mode // 4
        support = min(support, grid.max_mode)
        rng = np.random.default_rng(cfg.seed)
        coeff = np.zeros(grid.n_coeff, dtype=np.complex128)
        for k in range(0, support + 1):
            try:
                size = prof.amplitude * (1.0 + k) ** (-prof.rate)
            except OverflowError:
                raise ValueError(f"the {prof.kind} profile overflows: (1 + {k})^{-prof.rate} "
                                 "is not a finite number") from None
            coeff[k + grid.max_mode] = size * np.exp(2j * np.pi * rng.random())
        u = TorusField(grid, coeff)
    else:
        u = _load_custom_profile(prof.path, grid)
    if not np.any(u.coeff):
        raise ValueError(f"the {prof.kind} initial profile is zero on the band")
    if normalize_sobolev is not None:
        with np.errstate(over="ignore", invalid="ignore"):
            norm = sobolev_norm(u, normalize_sobolev)
        if not 0 < norm < math.inf:
            raise ValueError(f"the H^{normalize_sobolev} norm of the {prof.kind} profile "
                             f"is {norm}, not a positive finite number")
        u = (1.0 / norm) * u
    return u


def _load_custom_profile(path: str, grid: GridSpec) -> TorusField:
    amplitudes = {}
    for line in Path(path).read_text().splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 3:
            raise ValueError(f"bad profile line {line!r}: want 'k re im'")
        k, re_part, im_part = int(parts[0]), float(parts[1]), float(parts[2])
        amplitudes[k] = re_part + 1j * im_part
    return TorusField.from_modes(grid, amplitudes)


def _analytic_state(cfg: ExperimentConfig, grid: GridSpec,
                    normalize_sobolev: float | None = None) -> TorusField:
    """build_initial_state for the Szego claims, which hold for analytic
    data (decoupling, approximation, spectrum): a negative mode is a ValueError."""
    u = build_initial_state(cfg, grid, normalize_sobolev)
    if np.any(project_minus(u).coeff != 0):
        raise ValueError(f"{cfg.experiment} requires an analytic profile")
    return u


# ---------------------------------------------------------------------------
# sweep plumbing
# ---------------------------------------------------------------------------


@dataclass
class SweepRow:
    data: dict
    runtime: float


@dataclass(frozen=True)
class Check:
    """One claim of a run: value in [low, high].  A None bound is open,
    and a None value (a slope that could not be fitted) fails."""

    name: str
    value: float | None
    low: float | None = None
    high: float | None = None

    @property
    def ok(self) -> bool:
        return self.value is not None and bool(
            (self.low is None or self.low <= self.value)
            and (self.high is None or self.value <= self.high))

    @property
    def band(self) -> list:
        return [self.low, self.high]

    def __str__(self):
        value = "None" if self.value is None else f"{self.value:.6g}"
        low = "-inf" if self.low is None else self.low
        high = "inf" if self.high is None else self.high
        return f"{self.name} = {value} {'in' if self.ok else 'NOT in'} [{low}, {high}]"


@dataclass
class SweepResult:
    experiment: str
    rows: list
    fitted_slope: float | None
    slope_ci: tuple | None
    checks: tuple
    notes: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        """The verdict: every check holds."""
        return all(c.ok for c in self.checks)

    @property
    def columns(self) -> list:
        """CSV columns: the keys of the first row, in order."""
        return list(self.rows[0].data) if self.rows else []


def fit_loglog_slope(rows):
    """Least-squares slope of log y against log x with a +/-1.96 se band.

    Requires at least three rows with positive coordinates.
    """
    if len(rows) < 3:
        raise ValueError(f"slope fit needs >= 3 rows, got {len(rows)}")
    xs = np.array([r[0] for r in rows], dtype=float)
    ys = np.array([r[1] for r in rows], dtype=float)
    if np.any(xs <= 0) or np.any(ys <= 0):
        raise ValueError("slope fit requires positive values")
    lx, ly = np.log(xs), np.log(ys)
    sxx = float(np.sum((lx - lx.mean()) ** 2))
    if sxx == 0:
        raise ValueError("slope fit requires distinct abscissae")
    slope = float(np.sum((lx - lx.mean()) * (ly - ly.mean())) / sxx)
    intercept = float(ly.mean() - slope * lx.mean())
    resid = ly - (slope * lx + intercept)
    se = math.sqrt(float(np.sum(resid**2)) / (len(rows) - 2) / sxx)
    return slope, (slope - 1.96 * se, slope + 1.96 * se)


def _slope_or_none(rows, x: str, y: str):
    """fit_loglog_slope of column y against column x; (None, None) for a
    degenerate sweep (too few rows, nonpositive or repeated values)."""
    try:
        return fit_loglog_slope([(r.data[x], r.data[y]) for r in rows])
    except ValueError:
        return None, None


def _richardson(measure, t_end: float, dt: float, label: str, scale: float = 1.0,
                search: bool = False):
    """Measure at a step and at half of it; returns (value, step, discrepancy).

    measure(dt, stride, pair) runs to t_end with the given step and
    monitor stride and returns the tuple of its runs' values: one run,
    or with pair the Richardson pair as one stack (integrate.trajectory's
    pair), the run of n steps and the run of exactly 2n steps at twice
    the stride, so both sample the same times, giving (value,
    value_half); a blow-up of any run raises BlowUpError.  A step h is
    taken as t_end / n with n = step_count(t_end, h), and the reported
    step is t_end / n.  The discrepancy is scale * |value - value_half|.

    Without search the pair is (dt, dt/2) at strides 10 and 20.  A value
    that is not finite, or a discrepancy above 10x RICHARDSON_TOLERANCE
    of scale * value, is a NumericalFailure.  With search, dt is the
    fallback step: the rungs tau = 10 dt, tau/2 and tau/4 run at strides
    1, 2 and 4, so they sample the times of the stride-10 run at dt, and
    each rung's half-step run (the last one at tau/8) is the next rung's
    coarse run.  The first rung is one pair; each later rung runs its
    half-step run alone.  The first rung whose discrepancy is at most
    RICHARDSON_TOLERANCE**2 of a finite scale * value is accepted; a
    blow-up rejects its rung, and the first pair's half-step run reruns
    alone.  When no rung passes, the pair at 10 and 20 steps per tau runs
    as without search (that is (dt, dt/2) whenever tau holds a whole
    number of steps dt).
    """
    n = step_count(t_end, dt)
    if search:
        coarse = -(-n // 10)  # steps of the tau rung

        def trial(steps, pair=False):
            """The values of the run of steps (and of 2 steps, with pair),
            None for a run that blew up: it rejects the rungs it belongs to.
            A blow-up ends a pair, so its half-step run then reruns alone."""
            try:
                return measure(t_end / steps, steps // coarse, pair)
            except BlowUpError:
                return (None,) + (trial(2 * steps) if pair else ())

        v, v_half = trial(coarse, pair=True)
        for rung in range(3):
            steps = coarse << rung
            if rung:
                v, (v_half,) = v_half, trial(2 * steps)
            if v is not None and v_half is not None:
                rich = scale * abs(v - v_half)
                if rich <= RICHARDSON_TOLERANCE**2 * abs(scale * v) < math.inf:
                    return v, t_end / steps, rich
        n = 10 * coarse
    value, value_half = measure(t_end / n, 10, True)
    if not (math.isfinite(value) and math.isfinite(value_half)):
        raise NumericalFailure(f"{label}: the measured value is not finite ({value} at the "
                               f"step, {value_half} at half of it); reduce dt")
    rich = scale * abs(value - value_half)
    bar = 10.0 * RICHARDSON_TOLERANCE * max(abs(scale * value), 1e-300)
    if not rich <= bar < math.inf:
        raise NumericalFailure(
            f"{label}: Richardson discrepancy {rich:.3e} exceeds "
            f"{bar:.3e} (10x tolerance); reduce dt"
        )
    return value, t_end / n, rich


def _values(functional, states, pair):
    """functional of each run's state, as a list; states is a trajectory's
    yield, the (dt, dt/2) tuple with pair.  Overflow is quiet:
    _richardson rejects a value that is not finite."""
    with np.errstate(over="ignore", invalid="ignore"):
        return [functional(s) for s in (states if pair else (states,))]


def _peak(functional, problem, u0, t_end, dt, stride, pair=False):
    """Largest functional(coeff) over the monitored times, t = 0 included,
    per run: the tuple of its runs' peaks (see _richardson).  A run with a
    NaN sample peaks at NaN, so _richardson rejects it."""
    peaks = None
    for _, coeff in trajectory(problem, u0, t_end, dt, stride, pair):
        values = _values(functional, coeff, pair)
        peaks = values if peaks is None else [
            v if math.isnan(v) or v > p else p for p, v in zip(peaks, values)]
    return tuple(peaks)


def _final(functional, problem, u0, t_end, dt, stride, pair=False):
    """functional(coeff) of the state at t_end, per run: the tuple of its
    runs' values (see _richardson).  Nothing is sampled on the way,
    whatever the stride."""
    *_, (_, coeff) = trajectory(problem, u0, t_end, dt, step_count(t_end, dt), pair)
    return tuple(_values(functional, coeff, pair))


def _stepped(cfg, problem, u0, t_end, functional, label, scale=1.0, final=False):
    """The stepped value of functional(coeff) on the flow of problem (one
    problem, or a stack whose rows all start at u0) from u0 over [0, t_end],
    and its step columns: returns (value, {"dt": step, "richardson":
    discrepancy}).

    The value is the supremum over the monitored times (_peak), or with
    final the value at t_end (_final).  The step is cfg.dt, else the
    default step of the (first) problem; a supremum without cfg.dt
    searches its step, a value at t_end never does (see _richardson).
    """
    dt = cfg.dt if cfg.dt is not None else default_time_step(_stack(problem)[0][0], u0)
    value, step, rich = _richardson(
        partial(_final if final else _peak, functional, problem, u0, t_end), t_end, dt,
        label, scale=scale, search=cfg.dt is None and not final)
    return value, {"dt": step, "richardson": rich}


def _timed(worker, param) -> SweepRow:
    start = time.perf_counter()
    data = worker(param)
    return SweepRow(data=data, runtime=time.perf_counter() - start)


def _map_rows(worker, params, threads: int):
    """Deterministic sweep map: each worker(param) returns a row's data
    dict and is timed here; parallel workers merge in input order."""
    timed = partial(_timed, worker)
    if threads > 1 and len(params) > 1:
        # imported here, so that importing the package loads no process pool
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(threads, len(params))) as pool:
            return list(pool.map(timed, params))
    return [timed(p) for p in params]


# ---------------------------------------------------------------------------
# decoupling
# ---------------------------------------------------------------------------


def _decoupling_row(args):
    cfg, eps = args
    grid = GridSpec.with_padding(cfg.grid_n)
    u0 = _analytic_state(cfg, grid)
    t_end = cfg.horizon.time_for(eps)
    sup, columns = _stepped(
        cfg, EvolutionProblem.half_wave_scaled(eps), u0, t_end,
        lambda c: sobolev_norm(project_minus(TorusField(grid, c)), 0.5),
        f"decoupling eps={eps}")
    return {"eps": eps, "sup_minus_h_half": sup, "horizon": t_end, **columns}


def run_decoupling(cfg: ExperimentConfig) -> SweepResult:
    """Slope of sup_t ||P_- u(t)||_{H^{1/2}} against eps.

    The coupling carries eps^2 and the profile is O(1), so the measured
    supremum is the eps^2-sized negative-mode dressing; the pass band on
    the slope is [1.8, 2.2].
    """
    rows = _map_rows(_decoupling_row, [(cfg, e) for e in cfg.eps_list], cfg.threads)
    slope, ci = _slope_or_none(rows, "eps", "sup_minus_h_half")
    check = Check("slope", slope, 1.8, 2.2)
    return SweepResult(DECOUPLING, rows, slope, ci, (check,), notes={"band": check.band})


# ---------------------------------------------------------------------------
# approximation
# ---------------------------------------------------------------------------


def _approximation_row(args):
    cfg, eps = args
    grid = GridSpec.with_padding(cfg.grid_n)
    u0 = _analytic_state(cfg, grid, normalize_sobolev=cfg.sobolev)
    q0 = charge(u0)
    t_end = cfg.horizon.time_for(eps)
    # the flows co-evolve from u0 as one stack; the gap is the H^s distance of its rows
    flows = (EvolutionProblem.half_wave_gauged(eps, q0), EvolutionProblem.szego_transport(eps, q0))
    rescaled, columns = _stepped(
        cfg, flows, u0, t_end, lambda c: sobolev_norm(TorusField(grid, c[0] - c[1]), cfg.sobolev),
        f"approximation eps={eps}", scale=eps)
    return {"eps": eps, "hs_error_physical": eps * rescaled,
            "hs_error_rescaled": rescaled, "horizon": t_end, **columns}


def run_approximation(cfg: ExperimentConfig) -> SweepResult:
    """Half-wave vs transport Szego: slope of the physical H^s error.

    Both flows start from the same normalized state and share the gauge
    term (removing it from both changes nothing: the gauge is a common
    phase).  The physical error is eps times the rescaled one; its
    slope is required to be >= 2.5.
    """
    rows = _map_rows(_approximation_row, [(cfg, e) for e in cfg.eps_list], cfg.threads)
    slope, ci = _slope_or_none(rows, "eps", "hs_error_physical")
    check = Check("slope", slope, low=2.5)
    return SweepResult(APPROXIMATION, rows, slope, ci, (check,),
                       notes={"band": check.band, "sobolev": cfg.sobolev})


# ---------------------------------------------------------------------------
# Besov bound
# ---------------------------------------------------------------------------


def _besov_row(args):
    cfg, eps = args
    grid = GridSpec.with_padding(cfg.grid_n)
    u0 = build_initial_state(cfg, grid, normalize_sobolev=cfg.sobolev)
    q0 = charge(u0)
    t_end = cfg.horizon.time_for(eps)
    b0 = besov_norm(u0)
    ratio, columns = _stepped(cfg, EvolutionProblem.half_wave_gauged(eps, q0), u0, t_end,
                              lambda c: besov_norm(TorusField(grid, c)) / b0,
                              f"besov eps={eps}")
    return {"eps": eps, "besov_ratio": ratio, "horizon": t_end, **columns}


def run_besov_bound(cfg: ExperimentConfig) -> SweepResult:
    """max_t ||u(t)||_{B111} / ||u0||_{B111} stays O(1) over the horizon."""
    rows = _map_rows(_besov_row, [(cfg, e) for e in cfg.eps_list], cfg.threads)
    slope, ci = _slope_or_none(rows, "eps", "besov_ratio")
    # every ratio is finite: _richardson rejects any other value
    check = Check("max_besov_ratio", max(r.data["besov_ratio"] for r in rows), high=3.0)
    return SweepResult(BESOV_BOUND, rows, slope, ci, (check,), notes={"band": check.band})


# ---------------------------------------------------------------------------
# norm inflation
# ---------------------------------------------------------------------------


def _inflation_grid_n(delta: float, base: int) -> int:
    """Resolution adequate for the concentration the flow produces.

    The state approaches a near-pole with 1 - |p|^2 of order delta^2/4,
    so coefficients decay like (1 - delta^2/8)^k and the band must reach
    far beyond the default to keep the tail below the measurement error.
    A band above MAX_GRID_N is a ValueError, raised before 48/delta^2 is
    formed (it overflows or divides by zero for a tiny delta).
    """
    if not 48.0 <= MAX_GRID_N * delta**2:
        raise ValueError(f"delta = {delta} needs a band of 48/delta^2 modes, above the "
                         f"band ceiling {MAX_GRID_N}")
    # MAX_GRID_N is 5-smooth, so the band stays under it once base does
    return fast_transform_length(max(base, math.ceil(48.0 / delta**2)))


def _inflation_hs(problem, cfg, eps, delta, label):
    """||u(t*)||_{H^s} of the problem's flow from eps (e^{ix} + delta) on
    its inflation band, t* = pi/(2 eps^2 delta), at the rows' step under
    the 10x Richardson bar (see _stepped): returns (value, step columns,
    band max mode N, t*)."""
    grid = GridSpec.with_padding(_inflation_grid_n(delta, cfg.grid_n))
    u0 = TorusField.from_modes(grid, {1: eps, 0: eps * delta})
    t_star = math.pi / (2.0 * eps**2 * delta)
    hs, columns = _stepped(cfg, problem, u0, t_star,
                           lambda c: sobolev_norm(TorusField(grid, c), cfg.sobolev),
                           label, final=True)
    return hs, columns, grid.max_mode, t_star


def _inflation_row(args):
    cfg, eps, delta = args
    s = cfg.sobolev
    hs, columns, grid_n, t_star = _inflation_hs(EvolutionProblem.szego_plain(), cfg, eps,
                                                delta, f"inflation eps={eps} delta={delta}")
    ratio = hs * delta ** (2 * s - 1) / eps
    growth = hs / eps
    # invert the large-k asymptotics ||w||_{H^s}^2 ~ Gamma(2s+1) eps^2 lam^{1-2s}
    lam_est = (math.gamma(2 * s + 1) * eps**2 / hs**2) ** (1.0 / (2 * s - 1))
    return {"eps": eps, "delta": delta, "hs_at_tstar": hs, "ratio": ratio,
            "growth": growth, "one_minus_p2_est": lam_est,
            "grid_n": grid_n, "t_star": t_star, **columns}


def run_inflation(cfg: ExperimentConfig) -> SweepResult:
    """Concentration of the plain Szego flow on eps(e^{ix} + delta) data.

    Measures ||w(t*)||_{H^s} at t* = pi/(2 eps^2 delta).  The verdict is
    its named checks: each row's ratio ||w(t*)||_{H^s} delta^{2s-1} / eps
    in [1/3, 3], and the slope of the growth ratio against delta at
    -(2s - 1) within 20 percent.  A half-wave run at the largest eps and
    first delta, at the rows' step and under their Richardson bar,
    records how closely the full flow tracks the Szego prediction at t*.

    The ratio band still applies to the raw ratio, whose limit is
    C_s = 4^{s-1/2} Gamma(2s+1)^{1/2} (about 9.8 at s = 3/2; see
    `oracles.inflation_constant`), so the ratio checks fail and
    `halfwave inflation` exits 2 naming them.  The acceptance gate holds
    the ratio to the oracle and ratio / C_s to [1/3, 3].
    """
    params = [(cfg, e, d) for e in cfg.eps_list for d in cfg.delta_list]
    rows = _map_rows(_inflation_row, params, cfg.threads)

    lead = [r for r in rows if r.data["eps"] == cfg.eps_list[0]]
    slope, ci = _slope_or_none(lead, "delta", "growth")
    concentration_slope, _ = _slope_or_none(lead, "delta", "one_minus_p2_est")
    target = -(2 * cfg.sobolev - 1)
    tolerance = 0.2 * abs(target)
    checks = tuple(Check(f"ratio eps={r.data['eps']} delta={r.data['delta']}",
                         r.data["ratio"], 1.0 / 3.0, 3.0) for r in rows)
    checks += (Check("growth_slope", slope, target - tolerance, target + tolerance),)

    notes = {"ratio_band": checks[0].band, "slope_target": target,
             "slope_tolerance": tolerance, "one_minus_p2_slope": concentration_slope}
    # rows[0] is the Szego row at (eps_list[0], delta_list[0])
    notes["halfwave_check"] = _inflation_halfwave_check(cfg, rows[0].data["hs_at_tstar"])
    return SweepResult(INFLATION, rows, slope, ci, checks, notes=notes)


def _inflation_halfwave_check(cfg, szego_hs):
    """H^s size of the full half-wave solution at t* from the first eps
    and delta, next to the Szego value szego_hs of that row.

    The half-wave flow is stepped alone, on the row's band and the 4N + 1
    transform, at the rows' step with a dt/2 run under the 10x Richardson
    bar; a discrepancy above it is a NumericalFailure naming the check.
    Exploratory (t* sits beyond the proven approximation horizon); no
    pass band is attached.
    """
    eps, delta = cfg.eps_list[0], cfg.delta_list[0]
    hs, _, _, t_star = _inflation_hs(EvolutionProblem.half_wave(), cfg, eps, delta,
                                     f"inflation half-wave check eps={eps} delta={delta}")
    return {"szego_hs": szego_hs, "halfwave_hs": hs,
            "t_star": t_star, "eps": eps, "delta": delta}


# ---------------------------------------------------------------------------
# Hankel spectrum conservation
# ---------------------------------------------------------------------------


def _initial_spectrum(cfg: ExperimentConfig):
    """The Hankel spectral summary of the analytic initial state both rows
    start from; a profile with no spectrum to follow is a ValueError."""
    u0 = _analytic_state(cfg, GridSpec.with_padding(cfg.grid_n))
    before = spectral_summary(build_hankel(u0))
    # from this bound up, every eigenvalue above the noise floor is a
    # normal float, with all its digits for the relative deviations below
    lowest, top_eigenvalue = np.finfo(float).tiny / NOISE_FLOOR**2, before.hw2_eigenvalues[0]
    if not lowest <= top_eigenvalue < math.inf:
        raise ValueError(f"the {cfg.profile.kind} profile has no Hankel spectrum to follow: "
                         f"its largest squared-Hankel eigenvalue is {top_eigenvalue}, "
                         f"outside [{lowest:.3g}, inf)")
    return before


def _spectrum_row(args):
    """One flow's spectrum row; args is (cfg, kind, _initial_spectrum(cfg))."""
    cfg, kind, before = args
    grid = GridSpec.with_padding(cfg.grid_n)
    u0 = build_initial_state(cfg, grid)
    t_end = cfg.horizon.time_for(1.0)
    finals = []  # the summary at t_end of each run, dt first

    def final_trace(coeff):
        finals.append(spectral_summary(build_hankel(TorusField(grid, coeff))))
        return finals[-1].trace_norm

    _, columns = _stepped(cfg, getattr(EvolutionProblem, kind)(), u0, t_end, final_trace,
                          f"spectrum {kind}", scale=1.0 / before.trace_norm, final=True)
    after = finals[0]
    top = min(_SPECTRUM_TOP, int(np.sum(before.hw2_eigenvalues > 0)))
    eig_dev = float(np.max(
        np.abs(after.hw2_eigenvalues[:top] - before.hw2_eigenvalues[:top])
        / before.hw2_eigenvalues[:top]
    ))
    trace_dev = abs(after.trace_norm - before.trace_norm) / before.trace_norm
    return {"problem": kind, "eig_dev": eig_dev, "trace_dev": trace_dev,
            "horizon": t_end, **columns}


def run_spectrum_conservation(cfg: ExperimentConfig) -> SweepResult:
    """Top-10 squared-Hankel eigenvalues and trace norm before vs after.

    Conservation is a property of the Szego flow; the half-wave row is
    reported for contrast and carries no pass band.
    """
    before = _initial_spectrum(cfg)
    rows = _map_rows(_spectrum_row, [(cfg, kind, before) for kind in ("szego_plain", "half_wave")],
                     cfg.threads)
    szego = next(r for r in rows if r.data["problem"] == "szego_plain")
    checks = tuple(Check(f"szego_plain {key}", szego.data[key], high=1e-6)
                   for key in ("eig_dev", "trace_dev"))
    return SweepResult(SPECTRUM, rows, None, None, checks, notes={"band": checks[0].high})


# ---------------------------------------------------------------------------
# normal-form checks
# ---------------------------------------------------------------------------


def _normalform_field(grid, rng, scale=1.0):
    support = grid.max_mode // 4
    coeff = np.zeros(grid.n_coeff, dtype=np.complex128)
    for k in range(-support, support + 1):
        coeff[k + grid.max_mode] = (
            (rng.standard_normal() + 1j * rng.standard_normal())
            * (1.0 + abs(k)) ** -1.5
        )
    u = TorusField(grid, coeff)
    return (scale / besov_norm(u)) * u


def run_normalform_check(cfg: ExperimentConfig) -> SweepResult:
    """Three audits: the bracket identity, the Taylor-remainder order,
    and the resonance enumeration against the case characterization."""
    grid = GridSpec.with_padding(cfg.grid_n)
    rng = np.random.default_rng(cfg.seed)
    rows = []

    def add_row(check, param, value, runtime):
        rows.append(SweepRow(data={"check": check, "param": param, "value": float(value)},
                             runtime=runtime))

    def timed_row(check, param, measure):
        """Append one row timed over measure() alone; return its value."""
        start = time.perf_counter()
        value = measure()
        add_row(check, param, value, time.perf_counter() - start)
        return value

    def bracket_worst():
        worst = 0.0
        for _ in range(100):
            u = _normalform_field(grid, rng)
            lhs = poisson_bracket(F, H0, u) + functional_value(R, u)
            worst = max(worst, abs(lhs - functional_value(RTILDE, u)))
        return worst

    worst = timed_row("bracket_identity", 100.0, bracket_worst)
    slopes = []
    for i in range(3):
        u = _normalform_field(grid, rng, scale=0.4)
        # one stacked flow per field; its time is split evenly over the rows
        start = time.perf_counter()
        residuals = taylor_residual(u, cfg.eps_list)
        share = (time.perf_counter() - start) / len(cfg.eps_list)
        pts = list(zip(cfg.eps_list, residuals))
        for eps, residual in pts:
            add_row("taylor_residual", eps, residual, share)
        slopes.append(timed_row("taylor_slope", float(i), lambda: fit_loglog_slope(pts)[0]))
    mismatch = timed_row("resonance_mismatch", float(_RESONANCE_MAX_ABS),
                         lambda: _resonance_audit(_RESONANCE_MAX_ABS)[1])

    checks = (Check("bracket_max", worst, high=1e-10),
              *(Check(f"taylor_slope {i}", s, 3.7, 4.3) for i, s in enumerate(slopes)),
              Check("resonance_mismatch", mismatch, 0, 0))
    return SweepResult(NORMALFORM, rows, None, None, checks,
                       notes={"bracket_max": worst, "taylor_slopes": slopes,
                              "resonance_mismatch": mismatch})


# ---------------------------------------------------------------------------
# Strichartz-failure demonstration
# ---------------------------------------------------------------------------


def strichartz_ratio(n_modes: int, s: float) -> float:
    """int_0^1 ||e^{-it|D|} f||_{L4}^4 dt / ||f||_{H^{s/2}}^4 for
    f = sum_{k=0}^{n} e^{ikx}.

    For one-sided f the free flow is a translation, so the integrand is
    t-independent and the time integral is ||f||_{L4}^4.
    """
    grid = GridSpec.with_padding(max(n_modes, 1))
    coeff = np.zeros(grid.n_coeff, dtype=np.complex128)
    coeff[grid.max_mode:] = 1.0
    f = TorusField(grid, coeff)
    return l4_norm(f) ** 4 / sobolev_norm(f, s / 2.0) ** 4


def _strichartz_point(args):
    s, n = args
    return {"s": s, "n_modes": n, "ratio": strichartz_ratio(n, s)}


def run_strichartz(cfg: ExperimentConfig) -> SweepResult:
    """Slopes of the quartic free-flow ratio over a dyadic mode sweep.

    The predicted slope is 1 - 2s: the square-function bound fails below
    s = 1/2 and saturates at it.
    """
    orders, sizes = (0.0, 0.25, 0.5), (8, 16, 32, 64, 128, 256)
    rows = _map_rows(_strichartz_point, [(s, n) for s in orders for n in sizes],
                     cfg.threads)
    slopes = {s: fit_loglog_slope([(r.data["n_modes"], r.data["ratio"])
                                   for r in rows if r.data["s"] == s])[0]
              for s in orders}
    tolerance = 0.15
    checks = tuple(Check(f"slope s={s}", slopes[s], 1.0 - 2.0 * s - tolerance,
                         1.0 - 2.0 * s + tolerance) for s in orders)
    return SweepResult(STRICHARTZ, rows, slopes[0.0], None, checks,
                       notes={"slopes": {str(k): v for k, v in slopes.items()},
                              "tolerance": tolerance})


# ---------------------------------------------------------------------------
# resonance enumeration dump
# ---------------------------------------------------------------------------


def _resonance_audit(max_abs: int):
    """The enumerated resonant quadruples with |k_j| <= max_abs, as the
    rows of an (n, 4) array in lexicographic order, and the size of their
    symmetric difference with the case-generated set."""
    listed = _resonant_rows(max_abs)
    return listed, _row_mismatch(listed, _case_rows(max_abs), max_abs)


def run_resonance_audit(cfg: ExperimentConfig) -> SweepResult:
    """Enumerated resonant quadruples with |k_j| <= _RESONANCE_MAX_ABS and
    case labels, audited for exact agreement with the case-generated set."""
    start = time.perf_counter()
    listed, mismatch = _resonance_audit(_RESONANCE_MAX_ABS)
    masks = _case_masks(listed)
    rows = []
    for i, (k1, k2, k3, k4) in enumerate(listed.tolist()):
        cases = "+".join(sorted(tag for tag, mask in masks.items() if mask[i]))
        rows.append(SweepRow(data={"k1": k1, "k2": k2, "k3": k3, "k4": k4, "cases": cases},
                             runtime=0.0))
    elapsed = time.perf_counter() - start
    if rows:
        rows[0].runtime = elapsed
    return SweepResult(RESONANCES, rows, None, None, (Check("mismatch", mismatch, 0, 0),),
                       notes={"max_abs": _RESONANCE_MAX_ABS, "count": len(rows),
                              "mismatch": mismatch})


# ---------------------------------------------------------------------------
# output
# ---------------------------------------------------------------------------

_RUNNERS = {
    DECOUPLING: run_decoupling,
    APPROXIMATION: run_approximation,
    BESOV_BOUND: run_besov_bound,
    INFLATION: run_inflation,
    SPECTRUM: run_spectrum_conservation,
    NORMALFORM: run_normalform_check,
    STRICHARTZ: run_strichartz,
    RESONANCES: run_resonance_audit,
}


def run_experiment(cfg: ExperimentConfig) -> SweepResult:
    return _RUNNERS[cfg.experiment](cfg)


def _fmt(value) -> str:
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return str(value)


def write_csv(result: SweepResult, path):
    """One header line then one line per row; wall times are excluded so
    identical config and seed give bitwise-identical files."""
    columns = result.columns
    lines = [",".join(columns)]
    for row in result.rows:
        lines.append(",".join(_fmt(row.data.get(c, "")) for c in columns))
    Path(path).write_text("\n".join(lines) + "\n")


def write_summary(result: SweepResult, cfg: ExperimentConfig, path):
    config = asdict(cfg)
    del config["experiment"], config["output_dir"]
    payload = {
        "experiment": result.experiment,
        "config": config,
        "fitted_slope": result.fitted_slope,
        "slope_ci": list(result.slope_ci) if result.slope_ci else None,
        "passed": result.passed,
        "notes": result.notes,
    }
    fields = {key: json.dumps(value, indent=2, sort_keys=True).replace("\n", "\n  ")
              for key, value in payload.items()}
    # one check and one row a line: json encodes in C only without
    # indent, and the resonance audit writes tens of thousands of rows
    encode = json.JSONEncoder(sort_keys=True).encode
    for key, entries in (("checks", [dict(asdict(c), ok=c.ok) for c in result.checks]),
                         ("rows", [dict(r.data, runtime=r.runtime) for r in result.rows])):
        lines = [encode(entry) for entry in entries]
        fields[key] = "[" + ",".join(f"\n    {line}" for line in lines) + ("\n  ]" if lines else "]")
    text = ",\n".join(f"  {json.dumps(key)}: {fields[key]}" for key in sorted(fields))
    Path(path).write_text("{\n" + text + "\n}\n")


def run_and_write(cfg: ExperimentConfig) -> SweepResult:
    """Run the experiment and emit <experiment>.csv and summary.json."""
    result = run_experiment(cfg)
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_csv(result, out / f"{cfg.experiment}.csv")
    write_summary(result, cfg, out / "summary.json")
    return result

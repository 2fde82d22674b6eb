"""Time integration of the evolution problems.

The scheme is ETDRK4 (Cox & Matthews, J. Comput. Phys. 176 (2002)) in
the frame of the transport, y = e^{itD} u.  The cubic, P_+ and the gauge
commute with translations, so there every flow is autonomous with its
own nonlinearity, dy/dt = -i (L - k) y + N(y), for the rows whose
dispersion L is k or |k|; rows with L = 0 keep u and the symbol 0.  The
frame symbol is 0 for the transport Szego flow and for the half-wave on
the modes k >= 0, where the resonant dynamics lives, and 2|k| on k < 0,
where the forcing varies slowly; ETDRK4 takes the linear part exactly,
so the step is set by the nonlinear timescale.  The phi-weights are
contour means over 32 points (Kassam & Trefethen, SIAM J. Sci. Comput.
26 (2005)) at the nonzero symbol values, and exactly h/2 and h/6 where
the symbol is 0, where the step is classical RK4 in exact arithmetic.
The independent cross-check is oracles.galerkin_reference, which shares
no code with this path.

A stepper and its nonlinearity (problems.nonlinearity, the one
dealiased cubic, called as nl(c, out)) keep their work arrays: the six
stage arrays, and the padded arrays of the cubic, one set per input
shape, made on the first step with that shape.  A warm step then
allocates only the state it returns, which no later step writes, and
makes the same eight transforms and the same ufunc calls, operand for
operand, as the formulas, so its result is bit for bit theirs.

A step count is chosen so that an integer number of steps lands exactly
on t_end (the actual dt, never larger than requested, is reported);
step_count is that rule and the one check on a step: a dt of t_end / n
gives back exactly n, and a dt that is not positive or asks for more
than _MAX_STEPS steps is a ValueError.  The stepping loop is the
generator trajectory, which yields the state every stride steps,
translated back to u = e^{-itD} y at those times only; every functional
of the flow is read off those states by the caller, and evolve returns
the final state alone.  Flows
that share a grid and a step move in lockstep as one stack: given a
sequence of problems, trajectory steps a (rows, n_coeff) array, one row
per problem, with one batched transform per stage.  Any non-finite
coefficient ends the run with the last valid time attached.

A Richardson pair, the run of n steps at dt and the run of 2n steps at
dt/2, is one stack too (trajectory's pair; a lone run is the one-run
case of the same loop): on each step at dt one batched step moves the
rows at dt by dt and the rows at dt/2 by dt/2 (make_stepper's pair,
whose weights are each run's own), and the rows at dt/2 then take
their second step alone, so a pair takes 2n steps instead of 3n.  Both
runs sample the same times, and the back-translation phase is computed
once per sample for both.  A blow-up of either run ends the pair, as a
non-finite row ends any stack, with the last valid time of the lone run
that went non-finite first.

Projected flows (P = P_+) keep the modes k < 0 of analytic data exactly
zero, so when every row is projected and u0 is analytic, trajectory
steps modes 0..N alone with transforms of length >= 2N + 1 instead of
4N + 1 (fields._AnalyticGrid).  A stack row is bit for bit the state the
problem's own trajectory reaches when both take the same path: always
on data with a negative mode, and on analytic data for an all-projected
stack.  A projected row in a mixed stack on analytic data takes the full
band and agrees with its own (analytic) trajectory to round-off.
"""

from __future__ import annotations

import numpy as np

from .fields import TorusField, _AnalyticGrid
from .problems import EvolutionProblem, _stack, linear_symbol, nonlinearity


#: the most steps one run may take, so that a tiny dt is a ValueError and
#: not a run that never ends
_MAX_STEPS = 10**9


class BlowUpError(RuntimeError):
    """Non-finite state: the discrete scheme blew up (the continuous flow
    is globally defined, so this signals a numerics problem)."""

    def __init__(self, last_valid_time: float):
        # the value stays in args, so the error pickles back from a worker
        super().__init__(last_valid_time)
        self.last_valid_time = last_valid_time

    def __str__(self):
        return f"non-finite state after t = {self.last_valid_time}"


#: the contour of the phi-weights' means: 32 points on the unit circle,
#: half a spacing off the real axis
_CONTOUR = np.exp(2j * np.pi * (np.arange(32) + 0.5) / 32)


def _etd_weights(z, h):
    """The ETDRK4 weights (Q, f1, f2, f3) of a step h at z = h c, for
    du/dt = c u + N(u):

      Q  = h (e^{z/2} - 1) / z,
      f1 = h (-4 - z + e^z (4 - 3z + z^2)) / z^3,
      f2 = h (2 + z + e^z (z - 2)) / z^3,
      f3 = h (-4 - 3z - z^2 + e^z (4 - z)) / z^3.

    Each is the mean over the _CONTOUR points scaled to a circle about z,
    which avoids the cancellation of the formulas at small z, except at
    z = 0, where they are exactly h/2, h/6, h/6 and h/6.  The circle has
    radius 1, or |z|/2 where 1/2 <= |z| < 2, so that no point comes
    within 1/4 of 0, where the same cancellation returns.  Arrays of z's
    shape.
    """
    z = np.asarray(z, dtype=np.complex128)
    weights = [np.full(z.shape, w, dtype=np.complex128) for w in (h / 2, h / 6, h / 6, h / 6)]
    nonzero = np.flatnonzero(z)
    # 64 values at a time, so that the (32, 64) contour arrays stay small
    for block in np.split(nonzero, range(64, nonzero.size, 64)):
        centre = z.flat[block]
        size = np.abs(centre)
        radius = np.where(size < 0.5, 1.0, np.minimum(1.0, 0.5 * size))
        r = centre + radius * _CONTOUR[:, np.newaxis]  # one row per contour point
        e_half = np.exp(0.5 * r)
        e, r3 = e_half * e_half, r * r * r
        terms = ((e_half - 1.0) / r,
                 (-4.0 - r + e * (4.0 - 3.0 * r + r * r)) / r3,
                 (2.0 + r + e * (r - 2.0)) / r3,
                 (-4.0 - 3.0 * r - r * r + e * (4.0 - r)) / r3)
        for w, term in zip(weights, terms):
            # a running sum down the contour adds each column in the same
            # order whatever the shape of z, so a stack row gets the
            # weights of its own problem bit for bit
            w.flat[block] = h * term.cumsum(axis=0)[-1] / _CONTOUR.size
    return weights


def _weights(symbol, h):
    """The ETDRK4 weights (e^{z/2}, e^z, Q, f1, f2, f3) of a step h at
    z = -i h symbol; 0-d when the symbol vanishes everywhere."""
    z = -1j * h * np.asarray(symbol, dtype=np.float64)
    if not z.any():
        z = np.zeros(())
    return (np.exp(0.5 * z), np.exp(z), *_etd_weights(z, h))


class _ETDRK4Stepper:
    """One ETDRK4 step (Cox & Matthews stages) of dy/dt = -i S y + N(y),
    with the weights of _weights and N = nonlinear.

    nonlinear(c, out) writes N(c) to out, an array of c's shape that
    does not overlap c, and returns it.  The stepper keeps the stages'
    arrays for each input shape, allocated on the first step with that
    shape; a step then allocates only the array it returns, which no
    later step writes.  y itself is never written.  Each stage
    combination is the ufunc of the formula, operand for operand, so a
    step is bit for bit the formula's.
    """

    def __init__(self, weights, nonlinear):
        self.e_half, self.e_full, self.q, self.f1, f2, self.f3 = weights
        self.f2 = 2.0 * f2  # the 2 of f2 (2 (na + nb)); doubling is exact
        self._nl = nonlinear
        self._work = {}  # input shape -> the six stage arrays

    def step(self, y):
        if y.shape not in self._work:
            self._work[y.shape] = tuple(np.empty(y.shape, dtype=np.complex128) for _ in range(6))
        ny, na, nb, ey, a, t = self._work[y.shape]
        eh, q, nl, mul, add = self.e_half, self.q, self._nl, np.multiply, np.add
        nl(y, ny)
        mul(eh, y, out=ey)
        add(ey, mul(q, ny, out=a), out=a)  # a = ey + q ny
        nl(a, na)
        nl(add(ey, mul(q, na, out=t), out=t), nb)  # N(ey + q na)
        np.subtract(mul(2.0, nb, out=t), ny, out=t)
        add(mul(eh, a, out=ey), mul(q, t, out=t), out=t)  # eh a + q (2 nb - ny)
        nc = nl(t, a)  # a is spent
        # e_full y + f1 ny + (2 f2) (na + nb) + f3 nc, summed left to right
        out = mul(self.e_full, y)
        add(out, mul(self.f1, ny, out=ny), out=out)
        add(out, mul(self.f2, add(na, nb, out=na), out=na), out=out)
        return add(out, mul(self.f3, nc, out=nc), out=out)


def _shifted_rows(problem):
    """The rows stepped in the transport frame (dispersion k or |k|), as an
    index of a stack's leading axis: ... for all, an index array for
    some, None for none."""
    flags = [p.dispersion != "0" for p in _stack(problem)[0]]
    if all(flags):
        return ...
    return np.flatnonzero(flags) if any(flags) else None


def make_stepper(problem, grid, dt: float, pair: bool = False):
    """ETDRK4 stepper of the transport-frame flow of one problem, or of a
    stack of problems on one grid (it then steps (rows, n_coeff) arrays):
    symbol L - k on the rows of dispersion k or |k|, L = 0 elsewhere.

    With pair, the stepper of a Richardson pair as one stack: it steps
    (2 * rows, n_coeff) arrays (rows = 1 for one problem), the first copy
    of the rows by dt and the second by dt / 2, each with the weights its
    own stepper at that step has.
    """
    symbol = linear_symbol(problem, grid)
    shifted = _shifted_rows(problem)
    if shifted is not None:
        symbol[shifted] -= grid.modes()
    if not pair:
        return _ETDRK4Stepper(_weights(symbol, dt), nonlinearity(problem, grid))
    # each run's weights as (rows, n_coeff) complex arrays on the flat row
    # axis of the pair: numpy multiplies a complex state by a 0-d or real
    # weight as by that complex value, and whole rows step faster than
    # broadcast columns
    runs = [[np.broadcast_to(w, symbol.shape).reshape(-1, symbol.shape[-1])
             for w in _weights(symbol, h)] for h in (dt, dt / 2)]
    weights = [np.concatenate(run).astype(np.complex128) for run in zip(*runs)]
    return _ETDRK4Stepper(weights, nonlinearity(_stack(problem)[0] * 2, grid))


def step_count(t_end: float, dt: float) -> int:
    """Number of equal steps of size at most dt that land on t_end.

    A ratio t_end / dt within a relative 1e-12 above an integer counts as
    that integer, so step_count(t_end, t_end / n) == n despite round-off.
    A dt that is not positive (NaN included), and a ratio above
    _MAX_STEPS or not finite, is a ValueError.
    """
    if not dt > 0:
        raise ValueError(f"dt must be positive, got {dt}")
    ratio = t_end / dt * (1.0 - 1e-12)
    if not ratio <= _MAX_STEPS:
        raise ValueError(f"t_end / dt = {t_end} / {dt} is not a finite step count "
                         f"of at most {_MAX_STEPS:.0e}")
    return max(1, int(np.ceil(ratio)))


def trajectory(problem, u0: TorusField, t_end: float, dt: float, stride: int = 10,
               pair: bool = False):
    """Step u0 to t_end at a step of at most dt; yields (t, coeff) at
    t = 0, every stride steps and t_end.

    For a sequence of problems every row starts at u0 and coeff is the
    (rows, n_coeff) stack.  The yielded arrays are never modified
    afterwards.  A non-finite state raises BlowUpError with the last
    valid time.  On the analytic path (see the module docstring) the
    yielded arrays still hold the whole band, zero on modes k < 0.  The
    arguments are checked before the state at t = 0 is yielded.

    With pair, the Richardson pair of the run: the run of n steps and
    the run of exactly 2n steps at half the step and twice the stride,
    which samples the same times, move as one stack, and coeff is the
    tuple (coeff at dt, coeff at dt/2), each bit for bit its lone run.
    The first run to go non-finite ends the pair, with the last valid
    time its lone run reports.
    """
    if t_end < 0:
        raise ValueError("t_end must be nonnegative")
    if stride < 1:
        raise ValueError(f"stride must be a positive integer, got {stride}")
    n_steps = step_count(t_end, dt)
    problems, lead = _stack(problem)
    runs = 2 if pair else 1
    # the runs' states, one leading slot each: 0 the run at dt, 1 the run
    # at dt/2
    coeff = np.tile(u0.coeff, (runs,) + lead + (1,))
    yield 0.0, tuple(coeff) if pair else coeff[0]
    if t_end == 0:
        return
    dt = t_end / n_steps
    grid, n = u0.grid, u0.grid.max_mode
    analytic = all(p.project for p in problems) and not u0.coeff[:n].any()
    if analytic:
        grid, coeff = _AnalyticGrid.with_padding(n), coeff[..., n:]
    shifted, minus_ik = _shifted_rows(problem), -1j * grid.modes()
    # built once, the pair's stepper first: every step at dt moves all the
    # runs as one stack, and the run at dt/2 then takes its second step
    steppers = [make_stepper(problem, grid, dt, pair=pair)]
    if pair:
        steppers.append(make_stepper(problem, grid, dt / 2))
    for i in range(1, n_steps + 1):
        for sub, stepper in enumerate(steppers):
            # a blowing-up step overflows on its way to the non-finite
            # state reported below; only the step is wrapped, never the
            # yield, so the caller's own numpy warnings stay on
            with np.errstate(over="ignore", invalid="ignore"):
                if sub == 0:  # the stepper takes the runs' rows flat
                    flat = coeff.reshape(-1, coeff.shape[-1])
                    coeff = stepper.step(flat).reshape(coeff.shape)
                else:
                    coeff[1] = stepper.step(coeff[1])
            if not np.all(np.isfinite(coeff[sub:])):
                # the time before this step of the runs just stepped: the
                # last valid time of the lone run that went non-finite
                raise BlowUpError((2 * i - 2 + sub) * (dt / 2))
        if i % stride == 0 or i == n_steps:
            t = i * dt
            u = coeff
            if shifted is not None:  # back from the frame: u = e^{-itD} y
                u = coeff.copy()
                u[:, shifted] *= np.exp(t * minus_ik)
            if analytic:
                u = np.concatenate((np.zeros(u.shape[:-1] + (n,), dtype=np.complex128), u),
                                   axis=-1)
            yield t, tuple(u) if pair else u[0]


def evolve(problem: EvolutionProblem, u0: TorusField, t_end: float, dt: float) -> TorusField:
    """Integrate one problem to t_end at a step of at most dt; returns the
    final state.

    Functionals of the state along the way are read off trajectory,
    which also steps a stack of problems.
    """
    if not isinstance(problem, EvolutionProblem):
        raise ValueError("evolve takes one problem; step a stack of problems "
                         "with trajectory")
    # one stride of the whole run: the states yielded are u0 and the last
    *_, (_, coeff) = trajectory(problem, u0, t_end, dt, stride=step_count(t_end, dt))
    return TorusField(u0.grid, coeff)

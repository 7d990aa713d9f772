"""Deviation-indicator compensator and the likelihood-ratio weight process.

Along one observed trajectory, the deviation compensator accumulates, per
intervention, the target component's compensator plus the regime measure
minus twice their overlap, stopped at the deviation time. The weight process
is the stochastic exponential of the associated martingale driver; it is
computed both in closed product-integral form and by the jump recursion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .compensator import CompensatorModel
from .intervention import DeviationTimes, deviation_time
from .trajectory import Baseline, Trajectory, validate


class PositivityError(RuntimeError):
    pass


@dataclass(frozen=True)
class LambdaPath:
    """Piecewise representation of the deviation compensator along one path.

    segments are (start, end, rate) pieces of the continuous part; atoms are
    (time, size) with size in [0, 1]. Everything is stopped at tau_J: the
    atom at tau_J itself is included, nothing after.
    """

    tau_J: float
    horizon: float
    segments: tuple[tuple[float, float, float], ...]
    atoms: tuple[tuple[float, float], ...]

    def continuous_at(self, t: float) -> float:
        total = 0.0
        for a, b, rate in self.segments:
            if a >= t:
                break
            total += rate * (min(b, t) - a)
        return total

    def atoms_through(self, t: float) -> tuple[tuple[float, float], ...]:
        return tuple((u, p) for u, p in self.atoms if u <= t)


@dataclass(frozen=True)
class PositivityReport:
    ok: bool
    message: str = ""


@dataclass(frozen=True)
class WeightPath:
    """The weight process W evaluated at its breakpoints.

    breakpoints holds (t, W_t) pairs at every atom of the deviation
    compensator, at tau_J, and at the horizon; between breakpoints W moves
    by the exponential of the continuous compensator increment.
    """

    tau_J: float
    lambda_path: LambdaPath
    breakpoints: tuple[tuple[float, float], ...]
    W_T: float

    def at(self, t: float) -> float:
        if self.tau_J <= t:
            return 0.0
        lam = self.lambda_path
        logw = lam.continuous_at(t)
        for u, p in lam.atoms_through(t):
            if u >= self.tau_J:
                break
            logw -= math.log1p(-p)
        return math.exp(logw)


def _component_segments_and_atoms(
    model: CompensatorModel, baseline: Baseline, traj: Trajectory, component: int
):
    """The target component's compensator along the realized history.

    Plans are re-evaluated at each event of the trajectory; returns rate
    segments covering (0, T] and atoms with their realized probabilities.
    """
    segments: list[tuple[float, float, float]] = []
    atoms: list[tuple[float, float]] = []
    prev = 0.0
    history = Trajectory(model.space, (), traj.horizon)
    cuts = list(traj.times) + [model.horizon]
    for t in cuts:
        if t > prev:
            plan = model.plan(baseline, history, component, prev)
            for a, b, rate in plan.segments:
                if a >= t:
                    break
                segments.append((a, min(b, t), rate))
            atoms.extend((u, p) for u, p in plan.atoms if u <= t)
        if t < model.horizon:
            history = history.extended(traj.events[len(history.events)])
            prev = t
    return segments, atoms


def deviation_compensator(scenario, baseline: Baseline, traj: Trajectory) -> LambdaPath:
    """Deviation compensator for the full intervention set along one path.

    Sum over interventions of the stopped per-intervention compensator:
    continuous part from the target's hazard, atoms combining the hazard
    atom, the regime atom, and the overlap correction, all stopped at the
    overall deviation time (inclusive of the atom at it).
    """
    report = validate(traj)
    if not report.ok:
        raise ValueError(f"invalid trajectory: {report.message}")
    model: CompensatorModel = scenario.model
    specs = tuple(scenario.interventions)
    reg = model.regularity(specs)
    if not reg.ok:
        raise ValueError("regularity violations: " + "; ".join(reg.violations))
    dev = deviation_time(specs, baseline, traj)
    tau = dev.tau_J
    all_segments: list[tuple[float, float, float]] = []
    atom_map: dict[float, float] = {}
    for spec in specs:
        segments, hazard_atoms = _component_segments_and_atoms(
            model, baseline, traj, spec.target
        )
        regime_times = {
            t for t, _ in spec.events(baseline, traj, traj.horizon) if t <= tau
        }
        hazard_at = {u: p for u, p in hazard_atoms if u <= tau}
        for u in sorted(set(hazard_at) | regime_times):
            d_lambda = hazard_at.get(u, 0.0)
            d_regime = 1.0 if u in regime_times else 0.0
            size = d_lambda + d_regime - 2.0 * d_regime * d_lambda
            if size > 0.0:
                if u in atom_map:
                    raise ValueError(
                        f"two interventions contribute deviation atoms at t={u}"
                    )
                atom_map[u] = size
        for a, b, rate in segments:
            if a >= tau:
                break
            all_segments.append((a, min(b, tau), rate))
    all_segments.sort()
    return LambdaPath(
        tau, model.horizon, tuple(all_segments), tuple(sorted(atom_map.items()))
    )


def positivity_check(lam: LambdaPath) -> PositivityReport:
    """Atoms strictly before tau_J must be < 1; the continuous part finite."""
    for u, p in lam.atoms:
        if u < lam.tau_J and p >= 1.0:
            return PositivityReport(
                False, f"deviation-compensator atom of size {p} at t={u} before "
                f"the deviation time {lam.tau_J}"
            )
        if p > 1.0:
            return PositivityReport(False, f"atom {p} > 1 at t={u}")
    total = lam.continuous_at(lam.horizon)
    if not math.isfinite(total):
        return PositivityReport(False, "continuous deviation compensator is infinite")
    return PositivityReport(True)


def _breakpoint_times(lam: LambdaPath) -> list[float]:
    times = [u for u, _ in lam.atoms]
    if math.isfinite(lam.tau_J) and lam.tau_J not in times:
        times.append(lam.tau_J)
    if lam.horizon not in times:
        times.append(lam.horizon)
    return sorted(t for t in times if t <= lam.horizon)


def weight_path_product(scenario, baseline: Baseline, traj: Trajectory) -> WeightPath:
    """Closed-form weight path: indicator of following the regime divided by
    the product-integral of the deviation compensator."""
    lam = deviation_compensator(scenario, baseline, traj)
    pos = positivity_check(lam)
    if not pos.ok:
        raise PositivityError(pos.message)
    tau = lam.tau_J
    points = _breakpoint_times(lam)
    atom_log = {u: -math.log1p(-p) for u, p in lam.atoms if u < tau and p < 1.0}
    breakpoints = []
    log_atoms = 0.0
    for t in points:
        if t >= tau:
            breakpoints.append((t, 0.0))
            continue
        log_atoms += atom_log.get(t, 0.0)
        breakpoints.append((t, math.exp(lam.continuous_at(t) + log_atoms)))
    w_T = breakpoints[-1][1] if breakpoints else 1.0
    return WeightPath(tau, lam, tuple(breakpoints), w_T)


def weight_path_sde(scenario, baseline: Baseline, traj: Trajectory) -> WeightPath:
    """Weight path by the jump recursion W <- W * (1 + dK).

    Between atoms the driver's drift multiplies W by the exponential of the
    continuous compensator increment; at an atom before the deviation time
    the jump is dK = d-Lambda / (1 - d-Lambda); at the deviation time dK = -1.
    """
    lam = deviation_compensator(scenario, baseline, traj)
    pos = positivity_check(lam)
    if not pos.ok:
        raise PositivityError(pos.message)
    tau = lam.tau_J
    points = _breakpoint_times(lam)
    atom_at = dict(lam.atoms)
    w = 1.0
    prev = 0.0
    breakpoints = []
    stopped = False
    for t in points:
        if not stopped:
            w *= math.exp(lam.continuous_at(t) - lam.continuous_at(prev))
            if t >= tau:
                w = 0.0  # jump of size -1 in the driver at the deviation time
                stopped = True
            elif t in atom_at:
                p = atom_at[t]
                w *= 1.0 + p / (1.0 - p)
        breakpoints.append((t, w))
        prev = t
    w_T = breakpoints[-1][1] if breakpoints else 1.0
    return WeightPath(tau, lam, tuple(breakpoints), w_T)

"""Predictable treatment regimes and regime-specific deviation times.

An intervention fixes one component's counting measure through a rule that
may read only the strict past of the trajectory. Variants cover fixed
schedules, delayed copies of another component, review-triggered allocation,
rule-based allocation kernels, and outright prevention.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from .trajectory import Baseline, Trajectory, count_window, restrict, validate


class InterventionSpec:
    """Base protocol: a predictable rule for one target component.

    Subclasses implement ``events`` returning the intervened (time, mark)
    sequence on the target component up to a cutoff, computed so that each
    produced event depends only on the trajectory strictly before its time.
    """

    target: int

    def events(
        self, baseline: Baseline, traj: Trajectory, up_to: float
    ) -> tuple[tuple[float, int], ...]:
        raise NotImplementedError

    def declared_atom_times(self, horizon: float) -> tuple[float, ...]:
        """Statically known intervention event times, for regularity checks."""
        return ()


@dataclass(frozen=True)
class Static(InterventionSpec):
    """Fixed treatment trajectory, independent of the history."""

    target: int
    schedule: tuple[tuple[float, int], ...]

    def events(self, baseline, traj, up_to):
        return tuple(e for e in self.schedule if e[0] <= up_to)

    def declared_atom_times(self, horizon):
        return tuple(t for t, _ in self.schedule if t <= horizon)


@dataclass(frozen=True)
class Prevent(InterventionSpec):
    """The zero measure: the target component never fires."""

    target: int

    def events(self, baseline, traj, up_to):
        return ()


@dataclass(frozen=True)
class DelayedCopy(InterventionSpec):
    """Target mirrors a source component with a strictly positive delay."""

    target: int
    source: int
    delay: float
    mark: int

    def __post_init__(self) -> None:
        if self.delay <= 0:
            raise ValueError("delay must be strictly positive")

    def events(self, baseline, traj, up_to):
        cutoff = min(up_to, traj.horizon)
        shifted = (t + self.delay for t in traj.component_times(self.source))
        return tuple((t, self.mark) for t in shifted if t <= cutoff)


@dataclass(frozen=True)
class TriggeredAllocation(InterventionSpec):
    """Allocate at delayed review visits when a recent trigger event exists.

    Each visit at time v schedules a review at v + delay; treatment is
    allocated there when the trigger component fired inside the window
    [v + delay - window, v + delay).
    """

    target: int
    trigger: int
    visit: int
    window: float
    delay: float
    mark: int

    def __post_init__(self) -> None:
        if self.delay <= 0:
            raise ValueError("delay must be strictly positive")
        if self.window <= 0:
            raise ValueError("window must be strictly positive")

    def events(self, baseline, traj, up_to):
        cutoff = min(up_to, traj.horizon)
        out = []
        for t in traj.component_times(self.visit):
            s = t + self.delay
            if s <= cutoff and count_window(traj, self.trigger, s, self.window) > 0:
                out.append((s, self.mark))
        return tuple(out)


@dataclass(frozen=True)
class KernelAllocation(InterventionSpec):
    """Rule-based allocation: a schedule rule plus a deterministic mark rule.

    ``schedule_fn(baseline, traj) -> times`` must be predictable (each
    produced time may depend only on strictly earlier events); the mark rule
    receives the strict past at the allocation time.
    """

    target: int
    schedule_fn: Callable[[Baseline, Trajectory], tuple[float, ...]]
    mark_fn: Callable[[Baseline, Trajectory, float], int]
    declared_times: tuple[float, ...] = ()

    def events(self, baseline, traj, up_to):
        out = []
        for t in self.schedule_fn(baseline, traj):
            if t <= min(up_to, traj.horizon):
                past = restrict(traj, t, "strictly-before")
                out.append((t, self.mark_fn(baseline, past, t)))
        return tuple(sorted(out))

    def declared_atom_times(self, horizon):
        return tuple(t for t in self.declared_times if t <= horizon)


def evaluate(
    spec: InterventionSpec, baseline: Baseline, traj: Trajectory, t: float
) -> tuple[tuple[float, int], ...]:
    """Intervened events on the target component up to and including t."""
    if t > traj.horizon:
        raise ValueError("evaluation time past horizon")
    return spec.events(baseline, traj, t)


@dataclass(frozen=True)
class DeviationTimes:
    """First-disagreement time per intervention and their minimum."""

    per_spec: tuple[float, ...]
    tau_J: float

    def __post_init__(self) -> None:
        expect = min(self.per_spec, default=math.inf)
        if self.tau_J != expect:
            raise ValueError("overall deviation time must be the minimum")


def _first_difference(
    observed: tuple[tuple[float, int], ...], reference: tuple[tuple[float, int], ...]
) -> float:
    for o, r in zip(observed, reference):
        if o != r:
            return min(o[0], r[0])
    if len(observed) > len(reference):
        return observed[len(reference)][0]
    if len(reference) > len(observed):
        return reference[len(observed)][0]
    return math.inf


def deviation_time(
    specs, baseline: Baseline, traj: Trajectory
) -> DeviationTimes:
    """Regime-specific deviation times on an observed trajectory.

    The deviation time of one intervention is the first time at which the
    observed target component differs, as a counting measure, from the
    regime evaluated on the observed trajectory.
    """
    report = validate(traj)
    if not report.ok:
        raise ValueError(f"invalid trajectory: {report.message}")
    taus = []
    for spec in specs:
        observed = tuple(
            e for e in traj.events if traj.space.mark_component[e[1]] == spec.target
        )
        reference = spec.events(baseline, traj, traj.horizon)
        taus.append(_first_difference(observed, reference))
    return DeviationTimes(tuple(taus), min(taus, default=math.inf))


@dataclass(frozen=True)
class PredictabilityReport:
    ok: bool
    counterexample_t: float | None = None


def predictability_check(
    spec: InterventionSpec, baseline: Baseline, traj: Trajectory, grid
) -> PredictabilityReport:
    """Verify the rule only reads the strict past, on a grid of cut times."""
    for t in grid:
        truncated = restrict(traj, t, "strictly-before")
        if spec.events(baseline, truncated, t) != spec.events(baseline, traj, t):
            return PredictabilityReport(False, t)
    return PredictabilityReport(True)

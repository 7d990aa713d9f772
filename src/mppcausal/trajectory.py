"""Canonical data model for marked-point-process trajectories.

A trajectory is an ordered finite sequence of (time, mark) events on (0, T].
Marks live in a finite, globally enumerated space partitioned into named
components; each mark belongs to exactly one component.
"""

from __future__ import annotations

import json
from bisect import bisect_left, insort
from dataclasses import dataclass


@dataclass(frozen=True)
class MarkSpace:
    """Finite mark space partitioned into components.

    Marks are identified by their global integer index. ``mark_component[m]``
    gives the owning component index of mark ``m``.
    """

    component_names: tuple[str, ...]
    mark_labels: tuple[str, ...]
    mark_component: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.mark_labels) != len(self.mark_component):
            raise ValueError("one component index per mark required")
        if len(set(self.mark_labels)) != len(self.mark_labels):
            raise ValueError("mark labels must be unique")
        if len(set(self.component_names)) != len(self.component_names):
            raise ValueError("component names must be unique")
        for c in self.mark_component:
            if not 0 <= c < len(self.component_names):
                raise ValueError(f"component index {c} out of range")
        marks: list[list[int]] = [[] for _ in self.component_names]
        for m, c in enumerate(self.mark_component):
            marks[c].append(m)
        object.__setattr__(self, "_marks_of", tuple(map(tuple, marks)))

    @property
    def n_components(self) -> int:
        return len(self.component_names)

    @property
    def n_marks(self) -> int:
        return len(self.mark_labels)

    def component_index(self, name: str) -> int:
        try:
            return self.component_names.index(name)
        except ValueError:
            raise KeyError(f"unknown component {name!r}") from None

    def mark_index(self, label: str) -> int:
        try:
            return self.mark_labels.index(label)
        except ValueError:
            raise KeyError(f"unknown mark {label!r}") from None

    def marks_of(self, component: int) -> tuple[int, ...]:
        return self._marks_of[component]


def single_mark_space(component_names: list[str] | tuple[str, ...]) -> MarkSpace:
    """Space with one mark per component, labelled like the component."""
    names = tuple(component_names)
    return MarkSpace(names, names, tuple(range(len(names))))


@dataclass(frozen=True)
class Baseline:
    """Baseline covariates measured at time 0. Immutable."""

    values: tuple[tuple[str, float | int | str], ...] = ()

    @staticmethod
    def from_dict(d: dict) -> "Baseline":
        return Baseline(tuple(sorted(d.items())))

    def get(self, name: str):
        for k, v in self.values:
            if k == name:
                return v
        raise KeyError(name)

    def as_dict(self) -> dict:
        return dict(self.values)


@dataclass(frozen=True)
class Trajectory:
    """Ordered event sequence on (0, horizon] over a shared mark space."""

    space: MarkSpace
    events: tuple[tuple[float, int], ...]
    horizon: float

    @property
    def times(self) -> tuple[float, ...]:
        return tuple(t for t, _ in self.events)

    def component_times(self, component: int) -> list[float]:
        """Sorted event times of one component, from a per-component index
        built in one pass on first use. The list is shared: do not modify."""
        index = self.__dict__.get("_index")
        if index is None:
            index = [[] for _ in range(self.space.n_components)]
            for t, mark in self.events:
                index[self.space.mark_component[mark]].append(t)
            for times in index:
                times.sort()
            object.__setattr__(self, "_index", index)
        return index[component]

    def extended(self, event: tuple[float, int]) -> "Trajectory":
        """This history with one more event; the child shares the parent's
        index except for the event's component."""
        c = self.space.mark_component[event[1]]
        times = self.component_times(c).copy()
        insort(times, event[0])
        index = self._index.copy()
        index[c] = times
        child = Trajectory(self.space, self.events + (event,), self.horizon)
        object.__setattr__(child, "_index", index)
        return child


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    message: str = ""


def validate(traj: Trajectory) -> ValidationReport:
    """Check the structural trajectory invariants; reports the first failure."""
    if traj.horizon <= 0:
        return ValidationReport(False, "non-positive horizon")
    prev = 0.0
    for t, mark in traj.events:
        if not 0 <= mark < traj.space.n_marks:
            return ValidationReport(False, f"unknown mark index {mark}")
        if t <= 0:
            return ValidationReport(False, f"event at time {t} <= 0")
        if t > traj.horizon:
            return ValidationReport(False, f"event at time {t} past horizon")
        if t == prev:
            return ValidationReport(False, f"tied times at {t}")
        if t < prev:
            return ValidationReport(False, "non-increasing times")
        prev = t
    return ValidationReport(True)


def restrict(traj: Trajectory, t: float, mode: str = "at") -> Trajectory:
    """Restriction to [0, t] (mode "at") or [0, t) (mode "strictly-before")."""
    if not 0 <= t <= traj.horizon:
        raise ValueError(f"restriction time {t} outside [0, {traj.horizon}]")
    if mode == "at":
        kept = tuple(e for e in traj.events if e[0] <= t)
    elif mode == "strictly-before":
        kept = tuple(e for e in traj.events if e[0] < t)
    else:
        raise ValueError(f"unknown restriction mode {mode!r}")
    return Trajectory(traj.space, kept, traj.horizon)


def count(traj: Trajectory, component: int | str, t: float) -> int:
    """Number of events of a component with time <= t."""
    if t > traj.horizon:
        raise ValueError(f"count time {t} past horizon")
    c = traj.space.component_index(component) if isinstance(component, str) else component
    if not 0 <= c < traj.space.n_components:
        raise KeyError(f"unknown component index {c}")
    return sum(
        1 for time, mark in traj.events if time <= t and traj.space.mark_component[mark] == c
    )


def count_strictly_before(traj: Trajectory, component: int, t: float) -> int:
    """Number of events of a component with time < t (the strict past)."""
    return bisect_left(traj.component_times(component), t)


def count_window(traj: Trajectory, component: int, t: float, window: float) -> int:
    """Events of a component in the half-open window [t - window, t)."""
    times = traj.component_times(component)
    return bisect_left(times, t) - bisect_left(times, t - window)


# --- serialization ---------------------------------------------------------


def trajectory_to_json(traj: Trajectory) -> str:
    return json.dumps(
        [{"t": t, "mark": traj.space.mark_labels[m]} for t, m in traj.events]
    )


def trajectory_from_json(text: str, space: MarkSpace, horizon: float) -> Trajectory:
    raw = json.loads(text)
    events = tuple((float(e["t"]), space.mark_index(e["mark"])) for e in raw)
    traj = Trajectory(space, events, horizon)
    report = validate(traj)
    if not report.ok:
        raise ValueError(f"invalid trajectory: {report.message}")
    return traj


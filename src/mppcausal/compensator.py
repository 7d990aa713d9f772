"""Predictable compensator kernels for marked point processes.

Each component of the mark space carries a rule mapping (baseline, strict
history, current time s) to a hazard plan on (s, T]: piecewise-constant
continuous rates plus scheduled atoms. History dependence is expressed
through a small serializable rule language (rate multipliers and atom
probability tables gated by predicates); a programmatic escape hatch accepts
arbitrary rules but is excluded from exact enumeration.

The module evaluates cumulative compensators, product-integral survival
functions, and exact trajectory log-densities.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Callable

from .trajectory import (
    Baseline,
    MarkSpace,
    Trajectory,
    ValidationReport,
    count_strictly_before,
    count_window,
    validate,
)

EVENT_CAP_DEFAULT = 10_000

# cap keeps the memo useful for discrete scenarios without unbounded growth
_PLAN_CACHE_MAX = 100_000


@dataclass(frozen=True)
class Predicate:
    """Boolean condition on the strict past at an evaluation time t.

    kind "count":    compare N^component_{t-} with value
    kind "window":   compare the count of component events in [t-window, t)
    kind "baseline": compare a baseline covariate for equality
    """

    kind: str
    op: str = "ge"  # ge | le | eq
    component: int | None = None
    window: float | None = None
    value: float | int | str | None = None
    covariate: str | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("count", "window", "baseline"):
            raise ValueError(f"unknown predicate kind {self.kind!r}")
        if self.op not in ("ge", "le", "eq"):
            raise ValueError(f"unknown predicate op {self.op!r}")
        if self.kind == "window" and (self.window is None or self.window <= 0):
            raise ValueError("window predicate needs a positive window")

    def holds(self, baseline: Baseline, history: Trajectory, t: float) -> bool:
        if self.kind == "baseline":
            return baseline.get(self.covariate) == self.value
        if self.kind == "count":
            x = count_strictly_before(history, self.component, t)
        else:
            x = count_window(history, self.component, t, self.window)
        if self.op == "ge":
            return x >= self.value
        if self.op == "le":
            return x <= self.value
        return x == self.value


@dataclass(frozen=True)
class RateFactor:
    when: tuple[Predicate, ...]
    multiplier: float


@dataclass(frozen=True)
class RateRule:
    """rate(t) = base * product of multipliers whose conditions all hold."""

    base: float
    factors: tuple[RateFactor, ...] = ()

    def rates_at(self, baseline: Baseline, history: Trajectory, times) -> list[float]:
        """Rates at increasing times past the last history event. Count and
        baseline predicates are constant there, so only window predicates are
        re-evaluated per time; multipliers apply in factor order."""
        live = []
        for f in self.factors:
            fixed = (p for p in f.when if p.kind != "window")
            if all(p.holds(baseline, history, times[-1]) for p in fixed):
                live.append((f.multiplier, [p for p in f.when if p.kind == "window"]))
        rates = []
        for t in times:
            r = self.base
            for multiplier, window_preds in live:
                if all(p.holds(baseline, history, t) for p in window_preds):
                    r *= multiplier
            rates.append(r)
        return rates


@dataclass(frozen=True)
class ProbTable:
    """First-match probability lookup gated by predicates."""

    entries: tuple[tuple[tuple[Predicate, ...], float], ...]
    default: float | None = None

    def lookup(self, baseline: Baseline, history: Trajectory, t: float) -> float:
        for when, prob in self.entries:
            if all(p.holds(baseline, history, t) for p in when):
                return prob
        if self.default is None:
            raise ValueError(f"no probability-table entry matches history at t={t}")
        return self.default

    def max_prob(self) -> float:
        probs = [p for _, p in self.entries]
        if self.default is not None:
            probs.append(self.default)
        return max(probs, default=0.0)


class PastBitsTable:
    """Probability keyed by the bits of strictly earlier discrete variables.

    ``slots`` maps each earlier variable's (time, component) to its bit;
    ``probs[mask]`` is the probability for the pattern of fired variables.
    Variables not yet reached in the history read as 0.
    """

    __slots__ = ("slots", "probs", "maximum")

    def __init__(self, slots: dict[tuple[float, int], int], probs: tuple[float, ...]):
        self.slots = slots
        self.probs = probs
        self.maximum = max(probs)

    def lookup(self, baseline: Baseline, history: Trajectory, t: float) -> float:
        component = history.space.mark_component
        mask = 0
        for time, mark in history.events:
            bit = self.slots.get((time, component[mark]))
            if bit is None:
                raise ValueError(f"no probability-table entry matches history at t={t}")
            mask |= bit
        return self.probs[mask]

    def max_prob(self) -> float:
        return self.maximum


@dataclass(frozen=True)
class AtomSpec:
    time: float
    prob: float | ProbTable | PastBitsTable

    def prob_at(self, baseline: Baseline, history: Trajectory) -> float:
        if isinstance(self.prob, (int, float)):
            return self.prob
        return self.prob.lookup(baseline, history, self.time)

    def max_prob(self) -> float:
        if isinstance(self.prob, (int, float)):
            return self.prob
        return self.prob.max_prob()


@dataclass(frozen=True)
class MarkTable:
    """Probability vector over a component's marks, gated by predicates."""

    entries: tuple[tuple[tuple[Predicate, ...], tuple[float, ...]], ...]
    default: tuple[float, ...] | None = None

    def lookup(self, baseline: Baseline, history: Trajectory, t: float) -> tuple[float, ...]:
        for when, probs in self.entries:
            if all(p.holds(baseline, history, t) for p in when):
                return probs
        if self.default is None:
            raise ValueError(f"no mark-table entry matches history at t={t}")
        return self.default


@dataclass(frozen=True)
class DslRule:
    """Compensator rule for one component, expressed in the rule language."""

    rate: RateRule | None = None
    atoms: tuple[AtomSpec, ...] = ()
    marks: MarkTable | None = None  # None for single-mark components

    def __post_init__(self) -> None:
        times = [a.time for a in self.atoms]
        if any(t2 <= t1 for t1, t2 in zip(times, times[1:])):
            raise ValueError("atom times must be strictly increasing")


@dataclass(frozen=True)
class CustomRule:
    """Programmatic escape hatch. Not enumerable by the exact oracle.

    plan_fn(baseline, history, s, horizon) -> HazardSegmentPlan on (s, horizon]
    mark_fn(baseline, history, t) -> probability vector over the component's marks
    """

    plan_fn: Callable
    mark_fn: Callable | None = None


@dataclass(frozen=True)
class HazardSegmentPlan:
    """Concrete hazard on (start, horizon]: constant-rate segments + atoms."""

    start: float
    horizon: float
    segments: tuple[tuple[float, float, float], ...]
    atoms: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        prev = self.start
        for a, b, rate in self.segments:
            if a != prev or b <= a:
                raise ValueError("segments must be contiguous and non-degenerate")
            if rate < 0:
                raise ValueError("negative hazard rate")
            prev = b
        if self.segments and prev != self.horizon:
            raise ValueError("segments must cover (start, horizon]")
        t_prev = self.start
        for t, p in self.atoms:
            if t <= t_prev:
                raise ValueError("atom times must be strictly increasing past start")
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"atom probability {p} outside [0, 1]")
            t_prev = t
        if self.atoms and self.atoms[-1][0] > self.horizon:
            raise ValueError("atom past horizon")

    def continuous_increment(self, t: float) -> float:
        """Integral of the rate over (start, t]."""
        total = 0.0
        for a, b, rate in self.segments:
            if a >= t:
                break
            total += rate * (min(b, t) - a)
        return total

    def rate_at(self, t: float) -> float:
        for a, b, rate in self.segments:
            if a < t <= b:
                return rate
        return 0.0

    def atoms_through(self, t: float) -> tuple[tuple[float, float], ...]:
        return tuple((u, p) for u, p in self.atoms if u <= t)

    def atom_at(self, t: float) -> float | None:
        for u, p in self.atoms:
            if u == t:
                return p
        return None


class CompensatorModel:
    """Per-component compensator rules over a shared mark space.

    Immutable after construction. Plans are memoized on the (component,
    baseline, history, start-time) key, but only at starts that can recur:
    0 and the declared atom times. Continuous event times never repeat, so
    discrete scenarios keep every hit and continuous ones store no entry
    that cannot be hit.
    """

    def __init__(
        self,
        space: MarkSpace,
        rules: dict[int | str, DslRule | CustomRule],
        horizon: float,
        event_cap: int = EVENT_CAP_DEFAULT,
    ):
        if horizon <= 0:
            raise ValueError("horizon must be positive")
        self.space = space
        self.horizon = float(horizon)
        self.event_cap = event_cap
        resolved: dict[int, DslRule | CustomRule] = {}
        for key, rule in rules.items():
            c = space.component_index(key) if isinstance(key, str) else key
            resolved[c] = rule
        for c in range(space.n_components):
            resolved.setdefault(c, DslRule())
        self.rules: tuple[DslRule | CustomRule, ...] = tuple(
            resolved[c] for c in range(space.n_components)
        )
        self._memo_starts = frozenset([0.0]).union(
            a.time for r in self.rules if isinstance(r, DslRule) for a in r.atoms
        )
        self._plan_cache: dict = {}
        self._regularity: dict = {}

    def memoized(self, key, s: float, build: Callable, *args):
        """``build(*args)``, memoized under ``key`` when s is a start that can recur."""
        if s not in self._memo_starts:
            return build(*args)
        cached = self._plan_cache.get(key)
        if cached is None:
            cached = build(*args)
            if len(self._plan_cache) < _PLAN_CACHE_MAX:
                self._plan_cache[key] = cached
        return cached

    def regularity(self, interventions=()) -> "RegularityReport":
        """``check_regularity`` for these interventions, computed once."""
        key = tuple(interventions)
        if key not in self._regularity:
            self._regularity[key] = check_regularity(self, key)
        return self._regularity[key]

    # -- plan construction --------------------------------------------------

    def plan(
        self, baseline: Baseline, history: Trajectory, component: int, s: float
    ) -> HazardSegmentPlan:
        """Hazard plan for one component on (s, horizon], given the history at s."""
        if history.events and history.events[-1][0] > s:
            raise ValueError("history extends past the plan start time")
        rule = self.rules[component]
        if isinstance(rule, CustomRule):
            return rule.plan_fn(baseline, history, s, self.horizon)
        key = (component, baseline.values, history.events, s)
        return self.memoized(
            key, s, self._build_dsl_plan, rule, baseline, history, component, s
        )

    def _build_dsl_plan(
        self,
        rule: DslRule,
        baseline: Baseline,
        history: Trajectory,
        component: int,
        s: float,
    ) -> HazardSegmentPlan:
        T = self.horizon
        segments: tuple[tuple[float, float, float], ...] = ()
        if rule.rate is not None:
            # the rate can only change where a window predicate's content
            # changes; with the history frozen at s those are the exit times
            # event_time + window
            cuts = {T}
            for f in rule.rate.factors:
                for p in f.when:
                    if p.kind == "window":
                        # events before s - 2 * window exit before s
                        times = history.component_times(p.component)
                        for t_ev in times[bisect_left(times, s - 2 * p.window):]:
                            exit_t = t_ev + p.window
                            if s < exit_t < T:
                                cuts.add(exit_t)
            edges = [s] + sorted(cuts)
            # predicates are constant on (a, b]; evaluate at the right edge
            rates = rule.rate.rates_at(baseline, history, edges[1:])
            segments = tuple(zip(edges, edges[1:], rates))
        atoms = []
        for spec in rule.atoms:
            if s < spec.time <= T:
                p = spec.prob_at(baseline, history)
                if not 0.0 <= p <= 1.0:
                    raise ValueError(
                        f"atom probability {p} at t={spec.time} outside [0, 1]"
                    )
                if p > 0.0:
                    atoms.append((spec.time, p))
        return HazardSegmentPlan(s, T, segments, tuple(atoms))

    def mark_probs(
        self, baseline: Baseline, history: Trajectory, component: int, t: float
    ) -> tuple[float, ...]:
        """Mark-kernel row for a component at an event time t."""
        marks = self.space.marks_of(component)
        rule = self.rules[component]
        if isinstance(rule, CustomRule):
            if rule.mark_fn is None:
                if len(marks) != 1:
                    raise ValueError("multi-mark component needs a mark rule")
                return (1.0,)
            probs = tuple(rule.mark_fn(baseline, history, t))
        elif rule.marks is None:
            if len(marks) != 1:
                raise ValueError("multi-mark component needs a mark table")
            return (1.0,)
        else:
            probs = rule.marks.lookup(baseline, history, t)
        if len(probs) != len(marks):
            raise ValueError("mark-kernel row length mismatch")
        if abs(sum(probs) - 1.0) > 1e-9:
            raise ValueError("mark-kernel row does not sum to 1")
        return probs


# -- evaluation -------------------------------------------------------------


def cumulative(
    model: CompensatorModel,
    baseline: Baseline,
    history: Trajectory,
    component: int,
    s: float,
    t: float,
) -> tuple[float, tuple[tuple[float, float], ...]]:
    """Continuous increment and atoms of one component's compensator on (s, t]."""
    if not s < t <= model.horizon:
        raise ValueError(f"need s < t <= horizon, got s={s}, t={t}")
    plan = model.plan(baseline, history, component, s)
    return plan.continuous_increment(t), plan.atoms_through(t)


def survival(
    model: CompensatorModel,
    baseline: Baseline,
    history: Trajectory,
    components,
    s: float,
    t: float,
) -> float:
    """Product-integral survival over (s, t] for a set of components.

    Factorizes across components; valid when no two components share atoms.
    """
    logs = 0.0
    for c in components:
        cont, atoms = cumulative(model, baseline, history, c, s, t)
        logs -= cont
        for _, p in atoms:
            if p >= 1.0:
                return 0.0
            logs += math.log1p(-p)
    return math.exp(logs)


def log_density(model: CompensatorModel, baseline: Baseline, traj: Trajectory) -> float:
    """Exact log-density of a full trajectory on [0, T].

    Chains, per event, the survival of all components over the open
    inter-event interval, the hazard mass of the realized component at the
    event time, and the mark-kernel probability of the realized mark; a final
    survival factor runs to the horizon so the density over trajectories
    restricted to [0, T] is normalized.
    """
    report = validate(traj)
    if not report.ok:
        raise ValueError(f"invalid trajectory: {report.message}")
    space = model.space
    comps = range(space.n_components)
    logp = 0.0
    prev = 0.0
    history = Trajectory(space, (), traj.horizon)
    for t, mark in traj.events:
        plans = [model.plan(baseline, history, c, prev) for c in comps]
        j = space.mark_component[mark]
        for c, plan in zip(comps, plans):
            logp -= plan.continuous_increment(t)
            # the event instant itself is excluded from the survival factor
            for u, p in plan.atoms:
                if u >= t:
                    break
                if p >= 1.0:
                    return -math.inf
                logp += math.log1p(-p)
        atom_p = plans[j].atom_at(t)
        if atom_p is not None:
            logp += math.log(atom_p)
        else:
            rate = plans[j].rate_at(t)
            if rate <= 0.0:
                return -math.inf
            logp += math.log(rate)
        probs = model.mark_probs(baseline, history, j, t)
        idx = space.marks_of(j).index(mark)
        if probs[idx] <= 0.0:
            return -math.inf
        logp += math.log(probs[idx])
        history = history.extended((t, mark))
        prev = t
    for c in comps:
        plan = model.plan(baseline, history, c, prev)
        logp -= plan.continuous_increment(model.horizon)
        for _, p in plan.atoms:
            if p >= 1.0:
                return -math.inf
            logp += math.log1p(-p)
    return logp


# -- regularity -------------------------------------------------------------


@dataclass(frozen=True)
class RegularityReport:
    ok: bool
    violations: tuple[str, ...] = ()


def check_regularity(model: CompensatorModel, interventions=()) -> RegularityReport:
    """Static checks over the declared deterministic atom schedules.

    (a) no two components share an atom time, (b) no intervention atom
    coincides with a non-intervened component's atom, (c) no two
    interventions share an atom time, (d) total simultaneous atom mass <= 1.
    Programmatic rules declare no schedule and are skipped.
    """
    violations: list[str] = []
    names = model.space.component_names
    comp_atoms: dict[int, dict[float, float]] = {}
    for c, rule in enumerate(model.rules):
        if isinstance(rule, DslRule):
            comp_atoms[c] = {a.time: a.max_prob() for a in rule.atoms}
        else:
            comp_atoms[c] = {}
    for c1 in comp_atoms:
        for c2 in comp_atoms:
            if c1 < c2:
                shared = set(comp_atoms[c1]) & set(comp_atoms[c2])
                for t in sorted(shared):
                    violations.append(
                        f"components {names[c1]} and {names[c2]} share an atom at t={t}"
                    )
    iv_atoms = []
    iv_targets = set()
    for spec in interventions:
        iv_targets.add(spec.target)
        iv_atoms.append((spec, set(spec.declared_atom_times(model.horizon))))
    for spec, times in iv_atoms:
        for c, atoms in comp_atoms.items():
            if c in iv_targets:
                continue
            for t in sorted(times & set(atoms)):
                violations.append(
                    f"intervention on {names[spec.target]} shares atom t={t} "
                    f"with component {names[c]}"
                )
    for i, (s1, t1) in enumerate(iv_atoms):
        for s2, t2 in iv_atoms[i + 1 :]:
            for t in sorted(t1 & t2):
                violations.append(
                    f"interventions on {names[s1.target]} and {names[s2.target]} "
                    f"share an atom at t={t}"
                )
    mass_at: dict[float, float] = {}
    for c, atoms in comp_atoms.items():
        for t, p in atoms.items():
            mass_at[t] = mass_at.get(t, 0.0) + p
    for t, m in sorted(mass_at.items()):
        if m > 1.0 + 1e-12:
            violations.append(f"total atom mass {m} > 1 at t={t}")
    return RegularityReport(not violations, tuple(violations))


def is_discrete(model: CompensatorModel) -> bool:
    """True when every component is purely atomic (no continuous hazard)."""
    for rule in model.rules:
        if isinstance(rule, CustomRule):
            return False
        if rule.rate is not None and (rule.rate.base != 0.0 or rule.rate.factors):
            return False
    return True

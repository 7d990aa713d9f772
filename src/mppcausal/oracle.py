"""Exact brute-force ground truth on discrete-time scenarios.

A discrete scenario is an ordered list of binary variables, each living on a
named component at a fixed time, with conditional probability tables keyed
by the full pattern of earlier bits. Everything is exactly enumerable:
world probabilities, g-formula and IPW values, positivity, and the
embedding into the continuous machinery (atoms-only compensators) used to
cross-check weights, densities, and Monte Carlo estimators.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping

from .compensator import (
    AtomSpec,
    CompensatorModel,
    DslRule,
    PastBitsTable,
    log_density,
)
from .estimate import OutcomeFunctional
from .intervention import Static
from .trajectory import Baseline, MarkSpace, Trajectory, single_mark_space
from .weights import weight_path_product

ENUMERATION_CAP = 22


class EnumerationCapError(RuntimeError):
    pass


class OraclePositivityError(RuntimeError):
    pass


@dataclass(frozen=True)
class DiscreteVariable:
    """One binary variable: fires (bit 1) on its component at its time.

    prob maps the tuple of all earlier variables' bits to P(bit = 1); it can
    be an explicit mapping or a callable. regime_value is the forced bit for
    treatment variables.
    """

    name: str
    time: float
    component: str
    prob: Mapping[tuple, float] | Callable[[tuple], float]
    is_treatment: bool = False
    regime_value: int | None = None

    def p1(self, past: tuple) -> float:
        p = self.prob[past] if isinstance(self.prob, Mapping) else self.prob(past)
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"variable {self.name}: probability {p} outside [0,1]")
        return p


@dataclass(frozen=True)
class DiscreteScenario:
    variables: tuple[DiscreteVariable, ...]
    horizon: float
    outcome_name: str

    def __post_init__(self) -> None:
        times = [v.time for v in self.variables]
        if any(t2 < t1 for t1, t2 in zip(times, times[1:])):
            raise ValueError("variables must be ordered by time")
        if times and (times[0] <= 0 or times[-1] >= self.horizon):
            raise ValueError("variable times must lie strictly inside (0, horizon)")
        for v in self.variables:
            if v.is_treatment and v.regime_value not in (0, 1):
                raise ValueError(f"treatment variable {v.name} needs a regime value")
        if self.outcome_name not in {v.name for v in self.variables}:
            raise ValueError(f"unknown outcome variable {self.outcome_name!r}")

    def outcome_index(self) -> int:
        return [v.name for v in self.variables].index(self.outcome_name)

    def component_names(self) -> tuple[str, ...]:
        seen: list[str] = []
        for v in self.variables:
            if v.component not in seen:
                seen.append(v.component)
        return tuple(seen)


@dataclass(frozen=True)
class EnumeratedWorld:
    bits: tuple[int, ...]
    prob: float
    y: float
    follower: bool
    weight: float


def _check_cap(ds: DiscreteScenario) -> None:
    if len(ds.variables) > ENUMERATION_CAP:
        raise EnumerationCapError(
            f"{len(ds.variables)} binary variables exceed the enumeration cap "
            f"of {ENUMERATION_CAP}"
        )


def default_outcome(ds: DiscreteScenario) -> Callable[[tuple], float]:
    idx = ds.outcome_index()
    return lambda bits: float(bits[idx])


def enumerate_worlds(ds: DiscreteScenario, outcome=None) -> list[EnumeratedWorld]:
    """All bit assignments with exact chained probabilities.

    The per-world weight is the follower indicator divided by the product of
    probabilities of the realized treatment bits; infinite where a follower
    world sits on a zero-probability decision (only possible with prob 0).
    """
    _check_cap(ds)
    if outcome is None:
        outcome = default_outcome(ds)
    worlds: list[tuple[tuple[int, ...], float, bool, float]] = [((), 1.0, True, 1.0)]
    for v in ds.variables:
        new = []
        for bits, pr, follower, w in worlds:
            p1 = v.p1(bits)
            for bit, p in ((0, 1.0 - p1), (1, p1)):
                f2, w2 = follower, w
                if v.is_treatment:
                    if bit != v.regime_value:
                        f2 = False
                    elif f2:
                        w2 = w / p if p > 0 else math.inf
                new.append((bits + (bit,), pr * p, f2, w2))
        worlds = new
    return [
        EnumeratedWorld(bits, pr, outcome(bits), f, w if f else 0.0)
        for bits, pr, f, w in worlds
    ]


def follower_reachable_cells(ds: DiscreteScenario):
    """(variable index, past bits) cells reachable with positive probability
    while following the regime up to that decision."""
    _check_cap(ds)
    prefixes: list[tuple[tuple[int, ...], float]] = [((), 1.0)]
    cells = []
    for k, v in enumerate(ds.variables):
        if v.is_treatment:
            cells.extend((k, bits) for bits, pr in prefixes if pr > 0)
            prefixes = [
                (
                    bits + (v.regime_value,),
                    pr * (v.p1(bits) if v.regime_value == 1 else 1.0 - v.p1(bits)),
                )
                for bits, pr in prefixes
            ]
        else:
            new = []
            for bits, pr in prefixes:
                p1 = v.p1(bits)
                new.append((bits + (0,), pr * (1.0 - p1)))
                new.append((bits + (1,), pr * p1))
            prefixes = new
        prefixes = [(b, p) for b, p in prefixes if p > 0]
    return cells


def check_discrete_positivity(ds: DiscreteScenario) -> None:
    for k, past in follower_reachable_cells(ds):
        v = ds.variables[k]
        p1 = v.p1(past)
        p_follow = p1 if v.regime_value == 1 else 1.0 - p1
        if p_follow <= 0.0:
            raise OraclePositivityError(
                f"zero probability of following the regime at decision "
                f"{v.name} (t={v.time}) in reachable cell {past}"
            )


def regime_reachable(ds: DiscreteScenario) -> bool:
    """Whether followers have positive probability under the observed law."""
    try:
        check_discrete_positivity(ds)
    except OraclePositivityError:
        return False
    return True


def oracle_g_formula(ds: DiscreteScenario, outcome=None) -> float:
    """Exact interventional mean: treatment bits forced, their factors removed."""
    _check_cap(ds)
    if outcome is None:
        outcome = default_outcome(ds)
    worlds: list[tuple[tuple[int, ...], float]] = [((), 1.0)]
    for v in ds.variables:
        new = []
        for bits, pr in worlds:
            if v.is_treatment:
                new.append((bits + (v.regime_value,), pr))
            else:
                p1 = v.p1(bits)
                new.append((bits + (0,), pr * (1.0 - p1)))
                new.append((bits + (1,), pr * p1))
        worlds = new
    return sum(pr * outcome(bits) for bits, pr in worlds)


def oracle_ipw(ds: DiscreteScenario, outcome=None) -> float:
    """Exact weighted observed-law mean; equals the g-formula value."""
    check_discrete_positivity(ds)
    total = 0.0
    for world in enumerate_worlds(ds, outcome):
        if world.follower and world.prob > 0.0:
            total += world.prob * world.weight * world.y
    return total


def conditional_expectation(
    ds: DiscreteScenario, target: str, given: dict[str, int]
) -> float:
    """E[target bit | given bits] under the observed law."""
    names = [v.name for v in ds.variables]
    ti = names.index(target)
    gi = {names.index(k): b for k, b in given.items()}
    num = den = 0.0
    for world in enumerate_worlds(ds):
        if all(world.bits[i] == b for i, b in gi.items()):
            den += world.prob
            num += world.prob * world.bits[ti]
    if den == 0.0:
        raise ValueError("conditioning event has probability zero")
    return num / den


# -- continuous embedding ---------------------------------------------------


def _marginal_prob(
    ds: DiscreteScenario, k: int, earlier: list[int], pattern: tuple[int, ...]
) -> float:
    """P(variable k fires | strictly earlier bits), marginalizing over any
    variables sharing its exact time (invisible to a strict-past kernel)."""
    fixed = dict(zip(earlier, pattern))

    def recurse(i: int, past: tuple[int, ...], weight: float) -> float:
        if i == k:
            return weight * ds.variables[k].p1(past)
        if i in fixed:
            return recurse(i + 1, past + (fixed[i],), weight)
        p1 = ds.variables[i].p1(past)
        total = 0.0
        if p1 < 1.0:
            total += recurse(i + 1, past + (0,), weight * (1.0 - p1))
        if p1 > 0.0:
            total += recurse(i + 1, past + (1,), weight * p1)
        return total

    return recurse(0, (), 1.0)


def to_continuous(ds: DiscreteScenario):
    """Embed a discrete scenario into the continuous machinery.

    One single-mark component per discrete component; each variable becomes
    an atom whose probability table is keyed by the full pattern of strictly
    earlier variables' bits, read off the (time, component) slots of the
    history. Variables sharing a time get their strict-past marginal
    probability; the resulting shared atoms are exactly what the regularity
    check must flag.
    """
    from .scenario import Scenario

    _check_cap(ds)
    space = single_mark_space(ds.component_names())
    atoms_by_comp: dict[str, list[AtomSpec]] = {c: [] for c in ds.component_names()}
    for k, v in enumerate(ds.variables):
        earlier = [i for i in range(k) if ds.variables[i].time < v.time]
        n = len(earlier)
        probs = tuple(
            _marginal_prob(ds, k, earlier, tuple((mask >> j) & 1 for j in range(n)))
            for mask in range(1 << n)
        )
        prob: float | PastBitsTable = probs[0]
        if earlier:
            comp = space.component_index
            slots = {
                (ds.variables[i].time, comp(ds.variables[i].component)): 1 << j
                for j, i in enumerate(earlier)
            }
            prob = PastBitsTable(slots, probs)
        atoms_by_comp[v.component].append(AtomSpec(v.time, prob))
    rules = {
        name: DslRule(atoms=tuple(sorted(specs, key=lambda a: a.time)))
        for name, specs in atoms_by_comp.items()
    }
    model = CompensatorModel(space, rules, ds.horizon)

    treat_vars = [v for v in ds.variables if v.is_treatment]
    interventions = ()
    if treat_vars:
        comps = {v.component for v in treat_vars}
        if len(comps) != 1:
            raise ValueError("all treatment variables must share one component")
        target = space.component_index(next(iter(comps)))
        mark = space.marks_of(target)[0]
        schedule = tuple(
            (v.time, mark) for v in treat_vars if v.regime_value == 1
        )
        interventions = (Static(target, schedule),)

    out_var = ds.variables[ds.outcome_index()]
    outcome = OutcomeFunctional(
        kind="count",
        component=space.component_index(out_var.component),
        t=ds.horizon,
        cap=1,
    )
    return Scenario(
        space=space,
        model=model,
        interventions=interventions,
        baseline_law=((Baseline(), 1.0),),
        outcome=outcome,
        horizon=ds.horizon,
        discrete=ds,
    )


def world_trajectory(ds: DiscreteScenario, space: MarkSpace, bits: tuple[int, ...]) -> Trajectory:
    events = []
    for v, bit in zip(ds.variables, bits):
        if bit == 1:
            c = space.component_index(v.component)
            events.append((v.time, space.marks_of(c)[0]))
    return Trajectory(space, tuple(sorted(events)), ds.horizon)


@dataclass(frozen=True)
class CrossCheckReport:
    ok: bool
    regularity_ok: bool
    max_density_error: float
    max_weight_error: float
    messages: tuple[str, ...] = ()


def cross_check_continuous(
    ds: DiscreteScenario, outcome=None, scenario=None
) -> CrossCheckReport:
    """Verify the continuous machinery against exact enumeration.

    Checks that trajectory densities reproduce world probabilities to
    absolute 1e-12 and that the weight process at the horizon reproduces the
    product of inverse decision probabilities on every follower world to
    relative 1e-12 (follower weights are >= 1 and reach the thousands).
    Scenarios failing the regularity check are refused (that is itself the
    expected finding for shared-atom scenarios). ``scenario`` is the
    embedding ``to_continuous(ds)`` when the caller already holds it.
    """
    if scenario is None:
        scenario = to_continuous(ds)
    reg = scenario.model.regularity(scenario.interventions)
    if not reg.ok:
        return CrossCheckReport(False, False, math.nan, math.nan, reg.violations)
    check_discrete_positivity(ds)
    baseline = Baseline()
    max_density = 0.0
    max_weight = 0.0
    messages: list[str] = []
    for world in enumerate_worlds(ds, outcome):
        traj = world_trajectory(ds, scenario.space, world.bits)
        dens = math.exp(log_density(scenario.model, baseline, traj))
        err = abs(dens - world.prob)
        max_density = max(max_density, err)
        if err > 1e-12:
            messages.append(
                f"density mismatch on bits {world.bits}: {dens} vs {world.prob}"
            )
        if world.follower and world.prob > 0.0:
            wpath = weight_path_product(scenario, baseline, traj)
            werr = abs(wpath.W_T - world.weight)
            max_weight = max(max_weight, werr)
            if werr > 1e-12 * abs(world.weight):
                messages.append(
                    f"weight mismatch on bits {world.bits}: "
                    f"{wpath.W_T} vs {world.weight}"
                )
    return CrossCheckReport(not messages, True, max_density, max_weight, tuple(messages))

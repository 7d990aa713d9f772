"""Simulation of observed, interventional, and jointly coupled trajectories.

The joint sampler couples an observed trajectory and its potential-outcome
counterpart through shared uniform randomizers, so consistency (the two agree
strictly before the deviation time) holds by construction. Marginal samplers
for the observed law and the interventional (g-formula) law reuse the same
inverse-transform machinery.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .compensator import CompensatorModel, CustomRule, HazardSegmentPlan
from .intervention import DeviationTimes, deviation_time
from .trajectory import Baseline, Trajectory


class SimulationError(RuntimeError):
    pass


class ExplosionError(SimulationError):
    pass


class TieError(SimulationError):
    pass


class RandomizerStream:
    """Counter-based uniform stream, reproducible per (seed, subject).

    One Philox stream per subject; each simulation round consumes a
    fixed-size block of uniforms in a fixed role order, so realizations are
    independent of scheduling and identical across reruns.
    """

    def __init__(self, seed: int, subject: int):
        self.seed = seed
        self.subject = subject
        key = ((seed & 0xFFFFFFFFFFFFFFFF) << 64) | (subject & 0xFFFFFFFFFFFFFFFF)
        self.gen = np.random.Generator(np.random.Philox(key=key))

    def block(self, n: int) -> np.ndarray:
        return self.gen.random(n)

    def uniform(self) -> float:
        return float(self.gen.random())


@dataclass(frozen=True)
class JointRealization:
    observed: Trajectory
    potential: Trajectory
    deviation: DeviationTimes
    baseline: Baseline


def inverse_transform_time(plan: HazardSegmentPlan, xi: float) -> float:
    """First time t > start with survival U(start, t] <= xi, or inf.

    Closed-form inversion per constant-rate segment; if the survival jumps
    across xi at an atom, the atom time is returned.
    """
    log_xi = math.log(xi) if xi > 0.0 else -math.inf
    log_u = 0.0
    atoms = list(plan.atoms)
    ai = 0
    segments = plan.segments or ((plan.start, plan.horizon, 0.0),)
    for a, b, rate in segments:
        cursor = a
        while ai < len(atoms) and atoms[ai][0] <= b:
            at, p = atoms[ai]
            ai += 1
            if rate > 0.0:
                dlog = rate * (at - cursor)
                if log_u - dlog <= log_xi:
                    return cursor + (log_u - log_xi) / rate
                log_u -= dlog
            drop = math.log1p(-p) if p < 1.0 else -math.inf
            if log_u + drop <= log_xi:
                return at
            log_u += drop
            cursor = at
        if rate > 0.0:
            dlog = rate * (b - cursor)
            if log_u - dlog <= log_xi:
                return cursor + (log_u - log_xi) / rate
            log_u -= dlog
    return math.inf


def _merged_plan(plans: tuple[HazardSegmentPlan, ...]) -> HazardSegmentPlan:
    """Superposition of several components' plans on the same interval.

    Rates add; atoms must not collide (orthogonality), so the combined atom
    list is the disjoint union.
    """
    if len(plans) == 1:
        return plans[0]
    start = plans[0].start
    horizon = plans[0].horizon
    edges = {horizon}
    for p in plans:
        for a, b, _ in p.segments:
            if start < b < horizon:
                edges.add(b)
    cut = [start] + sorted(edges)
    segments = tuple(
        (a, b, sum(p.rate_at(b) for p in plans)) for a, b in zip(cut, cut[1:])
    )
    if all(rate == 0.0 for _, _, rate in segments):
        segments = ()
    atom_map: dict[float, float] = {}
    for p in plans:
        for t, prob in p.atoms:
            if t in atom_map:
                raise TieError(f"two components schedule atoms at t={t}")
            atom_map[t] = prob
    atoms = tuple(sorted(atom_map.items()))
    return HazardSegmentPlan(start, horizon, segments, atoms)


class _GroupSampler:
    """Competing-risks draw for a set of components as one group.

    One uniform picks the joint event time by inverse transform on the
    superposed hazard; a second picks the component and mark, with weights
    proportional to the per-component hazard mass at the drawn time. The
    group's plans and their superposition share the model's plan memo,
    except for groups with programmatic rules.
    """

    def __init__(self, model: CompensatorModel, components: tuple[int, ...]):
        self.model = model
        self.components = components
        self._marks = {c: model.space.marks_of(c) for c in components}
        self._single_mark = {
            c: (marks[0] if len(marks) == 1 else None)
            for c, marks in self._marks.items()
        }
        self._memo = len(components) > 1 and not any(
            isinstance(model.rules[c], CustomRule) for c in components
        )

    def draw(
        self,
        baseline: Baseline,
        history: Trajectory,
        s: float,
        xi: float,
        eta: float,
    ) -> tuple[float, int] | None:
        if not self.components:
            return None

        def build():
            plans = tuple(self.model.plan(baseline, history, c, s) for c in self.components)
            return plans, _merged_plan(plans)

        if self._memo:
            key = (self.components, baseline.values, history.events, s)
            plans, merged = self.model.memoized(key, s, build)
        else:
            plans, merged = build()
        t = inverse_transform_time(merged, xi)
        if t == math.inf:
            return None
        owner = None
        weights: list[tuple[int, float]] = []
        for c, plan in zip(self.components, plans):
            p = plan.atom_at(t)
            if p is not None:
                owner = c
                break
        if owner is not None:
            single = self._single_mark[owner]
            if single is not None:
                return (t, single)
            weights = [(owner, 1.0)]
        else:
            weights = [(c, plan.rate_at(t)) for c, plan in zip(self.components, plans)]
        total = sum(w for _, w in weights)
        if total <= 0.0:
            raise SimulationError(f"drew event time t={t} with zero hazard mass")
        # single uniform resolves component and mark jointly
        cells: list[tuple[int, float]] = []
        for c, w in weights:
            if w == 0.0:
                continue
            probs = self.model.mark_probs(baseline, history, c, t)
            for mark, q in zip(self._marks[c], probs):
                cells.append((mark, w / total * q))
        acc = 0.0
        for mark, q in cells:
            acc += q
            if eta < acc:
                return (t, mark)
        return (t, cells[-1][0])


def _check_cap(model: CompensatorModel, events: tuple) -> None:
    if len(events) > model.event_cap:
        counts: dict[int, int] = {}
        for _, m in events:
            c = model.space.mark_component[m]
            counts[c] = counts.get(c, 0) + 1
        worst = max(counts, key=counts.get)
        raise ExplosionError(
            f"event cap {model.event_cap} exceeded; largest component is "
            f"{model.space.component_names[worst]} with {counts[worst]} events"
        )


def _draw_baseline(scenario, u: float) -> Baseline:
    acc = 0.0
    for b, p in scenario.baseline_law:
        acc += p
        if u < acc:
            return b
    return scenario.baseline_law[-1][0]


def _next_intervention_event(spec, baseline, history: Trajectory, s: float):
    """Earliest intervened event strictly after s, from the current history."""
    for t, mark in spec.events(baseline, history, history.horizon):
        if t > s:
            return (t, mark)
    return None


def _min_candidate(candidates: list) -> tuple[int, tuple[float, int]] | None:
    """Index and value of the earliest candidate event; ties are fatal.

    Candidates from the same source may legitimately coincide only when they
    are the same (time, mark) pair, which callers handle before this point.
    """
    best = None
    best_i = None
    for i, cand in enumerate(candidates):
        if cand is None:
            continue
        if best is None or cand[0] < best[0]:
            best, best_i = cand, i
        elif cand[0] == best[0]:
            raise TieError(
                f"exact tie between candidate event times at t={cand[0]}; "
                "this has probability zero under orthogonality and signals "
                "a model misconfiguration"
            )
    if best is None:
        return None
    return best_i, best


def simulate_observed(scenario, rng: RandomizerStream) -> tuple[Baseline, Trajectory]:
    """Draw one subject from the observed law; interventions are not consulted."""
    model: CompensatorModel = scenario.model
    space = model.space
    baseline = _draw_baseline(scenario, rng.uniform())
    group = _GroupSampler(model, tuple(range(space.n_components)))
    history = Trajectory(space, (), model.horizon)
    s = 0.0
    while True:
        block = rng.block(2)
        drawn = group.draw(baseline, history, s, block[0], block[1])
        if drawn is None:
            break
        history = history.extended(drawn)
        _check_cap(model, history.events)
        s = drawn[0]
    return baseline, history


def simulate_interventional(scenario, rng: RandomizerStream) -> tuple[Baseline, Trajectory]:
    """Draw one subject from the interventional (g-formula) law.

    Intervened components follow their deterministic regime measures; the
    remaining components keep their observed-law compensators.
    """
    model: CompensatorModel = scenario.model
    space = model.space
    baseline = _draw_baseline(scenario, rng.uniform())
    history, s = Trajectory(space, (), model.horizon), 0.0
    free = tuple(
        c
        for c in range(space.n_components)
        if c not in {spec.target for spec in scenario.interventions}
    )
    group = _GroupSampler(model, free)
    while True:
        block = rng.block(2)
        candidates = [group.draw(baseline, history, s, block[0], block[1])]
        for spec in scenario.interventions:
            candidates.append(_next_intervention_event(spec, baseline, history, s))
        picked = _min_candidate(candidates)
        if picked is None:
            break
        history = history.extended(picked[1])
        _check_cap(model, history.events)
        s = picked[1][0]
    return baseline, history


def simulate_joint(scenario, rng: RandomizerStream) -> JointRealization:
    """Jointly draw an observed trajectory and its potential counterpart.

    While the two histories agree, one round advances both with shared
    randomizers: per intervened component a candidate time from its observed
    compensator, one joint draw for the non-intervened group, and the
    deterministic regime times from the (shared) history. After the first
    disagreement each arm evolves independently, the potential arm switching
    to a fresh randomizer pair on the interventional law.
    """
    model: CompensatorModel = scenario.model
    space = model.space
    specs = tuple(scenario.interventions)
    targets = tuple(spec.target for spec in specs)
    if len(set(targets)) != len(targets):
        raise SimulationError("two interventions target the same component")
    free = tuple(c for c in range(space.n_components) if c not in set(targets))
    free_group = _GroupSampler(model, free)
    single = {j: _GroupSampler(model, (j,)) for j in targets}

    baseline = _draw_baseline(scenario, rng.uniform())
    # while the arms agree they share one history object
    hist_obs = hist_pot = Trajectory(space, (), model.horizon)
    agree = True
    s_obs = 0.0
    s_pot = 0.0
    obs_done = False
    pot_done = False
    n_iv = len(specs)
    while not (obs_done and pot_done):
        block = rng.block(2 * n_iv + 4)
        obs_event = None
        if not obs_done:
            candidates = []
            for i, spec in enumerate(specs):
                candidates.append(
                    single[spec.target].draw(
                        baseline, hist_obs, s_obs, block[2 * i], block[2 * i + 1]
                    )
                )
            candidates.append(
                free_group.draw(
                    baseline, hist_obs, s_obs, block[2 * n_iv], block[2 * n_iv + 1]
                )
            )
            picked = _min_candidate(candidates)
            obs_winner_iv = None
            if picked is not None:
                obs_event = picked[1]
                if picked[0] < n_iv:
                    obs_winner_iv = picked[0]
        if agree:
            # shared history: regime times and the non-intervened draw are
            # computed from the same past, so agreement propagates exactly
            pot_candidates = []
            for spec in specs:
                pot_candidates.append(
                    _next_intervention_event(spec, baseline, hist_obs, s_obs)
                )
            pot_candidates.append(candidates[-1] if not obs_done else None)
            pot_picked = _min_candidate(pot_candidates)
            pot_event = pot_picked[1] if pot_picked is not None else None
            if obs_event == pot_event:
                if obs_event is None:
                    obs_done = pot_done = True
                else:
                    hist_obs = hist_pot = hist_obs.extended(obs_event)
                    _check_cap(model, hist_obs.events)
                    s_obs = s_pot = obs_event[0]
            else:
                agree = False
                if obs_event is None:
                    obs_done = True
                else:
                    hist_obs = hist_obs.extended(obs_event)
                    _check_cap(model, hist_obs.events)
                    s_obs = obs_event[0]
                if pot_event is None:
                    pot_done = True
                else:
                    hist_pot = hist_pot.extended(pot_event)
                    _check_cap(model, hist_pot.events)
                    s_pot = pot_event[0]
        else:
            if not obs_done:
                if obs_event is None:
                    obs_done = True
                else:
                    hist_obs = hist_obs.extended(obs_event)
                    _check_cap(model, hist_obs.events)
                    s_obs = obs_event[0]
            if not pot_done:
                pot_candidates = [
                    free_group.draw(
                        baseline, hist_pot, s_pot, block[2 * n_iv + 2], block[2 * n_iv + 3]
                    )
                ]
                for spec in specs:
                    pot_candidates.append(
                        _next_intervention_event(spec, baseline, hist_pot, s_pot)
                    )
                pot_picked = _min_candidate(pot_candidates)
                if pot_picked is None:
                    pot_done = True
                else:
                    hist_pot = hist_pot.extended(pot_picked[1])
                    _check_cap(model, hist_pot.events)
                    s_pot = pot_picked[1][0]
    deviation = deviation_time(specs, baseline, hist_obs)
    return JointRealization(hist_obs, hist_pot, deviation, baseline)

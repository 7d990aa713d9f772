import math

import pytest
from hypothesis import given, settings, strategies as st

from mppcausal.compensator import (
    AtomSpec,
    CompensatorModel,
    DslRule,
    Predicate,
    ProbTable,
    RateFactor,
    RateRule,
    check_regularity,
    cumulative,
    is_discrete,
    log_density,
    survival,
)
from mppcausal.intervention import Static
from mppcausal.oracle import enumerate_worlds, to_continuous, world_trajectory
from mppcausal.scenario import parse_config
from mppcausal.simulate import RandomizerStream, simulate_joint, simulate_observed
from mppcausal.trajectory import Baseline, Trajectory, single_mark_space

from conftest import one_period_scenario

B = Baseline()


def model_one(rule, horizon=2.0):
    space = single_mark_space(["a"])
    return CompensatorModel(space, {"a": rule}, horizon), space


def empty(space, horizon=2.0):
    return Trajectory(space, (), horizon)


class TestCumulative:
    def test_constant_rate(self):
        m, space = model_one(DslRule(rate=RateRule(1.0)))
        cont, atoms = cumulative(m, B, empty(space), 0, 0.0, 2.0)
        assert cont == pytest.approx(2.0)
        assert atoms == ()

    def test_single_atom(self):
        m, space = model_one(DslRule(atoms=(AtomSpec(1.0, 0.3),)))
        cont, atoms = cumulative(m, B, empty(space), 0, 0.0, 2.0)
        assert cont == 0.0
        assert atoms == ((1.0, 0.3),)

    def test_rate_plus_atom_partial_interval(self):
        m, space = model_one(DslRule(rate=RateRule(0.5), atoms=(AtomSpec(1.0, 0.3),)))
        cont, atoms = cumulative(m, B, empty(space), 0, 0.0, 1.0)
        assert cont == pytest.approx(0.5)
        assert atoms == ((1.0, 0.3),)

    def test_history_past_start_rejected(self):
        m, space = model_one(DslRule(rate=RateRule(1.0)))
        hist = Trajectory(space, ((1.5, 0),), 2.0)
        with pytest.raises(ValueError):
            cumulative(m, B, hist, 0, 1.0, 2.0)


class TestSurvival:
    def test_exponential(self):
        m, space = model_one(DslRule(rate=RateRule(1.0)))
        assert survival(m, B, empty(space), [0], 0.0, 1.0) == pytest.approx(
            math.exp(-1.0)
        )

    def test_single_atom(self):
        m, space = model_one(DslRule(atoms=(AtomSpec(1.0, 0.3),)))
        assert survival(m, B, empty(space), [0], 0.0, 1.0) == pytest.approx(0.7)

    def test_mixed_product_integral(self):
        m, space = model_one(DslRule(rate=RateRule(0.5), atoms=(AtomSpec(1.0, 0.3),)))
        assert survival(m, B, empty(space), [0], 0.0, 2.0) == pytest.approx(
            math.exp(-1.0) * 0.7
        )

    def test_atom_prob_one_gives_zero(self):
        m, space = model_one(DslRule(atoms=(AtomSpec(1.0, 1.0),)))
        assert survival(m, B, empty(space), [0], 0.0, 2.0) == 0.0

    def test_multiplicative_over_split(self):
        m, space = model_one(DslRule(rate=RateRule(0.7), atoms=(AtomSpec(1.0, 0.2),)))
        h = empty(space)
        whole = survival(m, B, h, [0], 0.0, 2.0)
        split = survival(m, B, h, [0], 0.0, 0.8) * survival(m, B, h, [0], 0.8, 2.0)
        assert whole == pytest.approx(split, rel=1e-12)

    def test_fine_grid_product_approximation(self):
        # purely continuous hazard: finite product (1 - rate*dt) converges
        m, space = model_one(DslRule(rate=RateRule(1.3)))
        step = 1e-4
        grid_product = 1.0
        n = int(2.0 / step)
        for _ in range(n):
            grid_product *= 1.0 - 1.3 * step
        exact = survival(m, B, empty(space), [0], 0.0, 2.0)
        assert abs(grid_product - exact) / exact < 1e-3


class TestHistoryDependence:
    def _model(self):
        space = single_mark_space(["l", "y"])
        rule_y = DslRule(
            rate=RateRule(
                0.4,
                (
                    RateFactor(
                        (Predicate(kind="count", component=0, op="ge", value=1),), 2.0
                    ),
                ),
            )
        )
        rule_l = DslRule(rate=RateRule(0.5))
        return CompensatorModel(space, {"l": rule_l, "y": rule_y}, 4.0), space

    def test_rate_doubles_after_trigger(self):
        m, space = self._model()
        hist = Trajectory(space, ((1.0, 0),), 4.0)
        cont, _ = cumulative(m, B, hist, 1, 1.0, 3.0)
        assert cont == pytest.approx(0.8 * 2.0)

    def test_windowed_rate_reverts_after_exit(self):
        space = single_mark_space(["l", "y"])
        rule_y = DslRule(
            rate=RateRule(
                1.0,
                (
                    RateFactor(
                        (
                            Predicate(
                                kind="window", component=0, op="ge", value=1, window=1.0
                            ),
                        ),
                        3.0,
                    ),
                ),
            )
        )
        m = CompensatorModel(space, {"y": rule_y}, 4.0)
        hist = Trajectory(space, ((1.0, 0),), 4.0)
        # boosted on (1, 2], back to base on (2, 4]
        cont, _ = cumulative(m, B, hist, 1, 1.0, 4.0)
        assert cont == pytest.approx(3.0 * 1.0 + 1.0 * 2.0)

    def test_plan_predictability_truncation(self):
        m, space = self._model()
        full = Trajectory(space, ((1.0, 0), (2.5, 1)), 4.0)
        truncated = Trajectory(space, ((1.0, 0),), 4.0)
        plan_full = m.plan(B, Trajectory(space, ((1.0, 0),), 4.0), 1, 1.0)
        plan_trunc = m.plan(B, truncated, 1, 1.0)
        assert plan_full == plan_trunc
        with pytest.raises(ValueError):
            m.plan(B, full, 1, 1.0)


class TestLogDensity:
    def test_empty_trajectory_constant_rate(self):
        space = single_mark_space(["a"])
        m = CompensatorModel(space, {"a": DslRule(rate=RateRule(1.0))}, 3.0)
        assert log_density(m, B, empty(space, 3.0)) == pytest.approx(-3.0)

    def test_impossible_event(self):
        m, space = model_one(DslRule(atoms=(AtomSpec(1.0, 0.3),)))
        traj = Trajectory(space, ((0.5, 0),), 2.0)
        assert log_density(m, B, traj) == -math.inf

    def test_one_event_constant_rate(self):
        space = single_mark_space(["a"])
        m = CompensatorModel(space, {"a": DslRule(rate=RateRule(2.0))}, 3.0)
        traj = Trajectory(space, ((1.0, 0),), 3.0)
        # survive to 1 at rate 2, event density 2, survive to 3
        assert log_density(m, B, traj) == pytest.approx(-2.0 + math.log(2.0) - 4.0)

    def test_discrete_densities_sum_to_one(self):
        ds = one_period_scenario()
        scenario = to_continuous(ds)
        total = 0.0
        for world in enumerate_worlds(ds):
            traj = world_trajectory(ds, scenario.space, world.bits)
            total += math.exp(log_density(scenario.model, B, traj))
        assert total == pytest.approx(1.0, abs=1e-10)


class TestRegularity:
    def test_shared_atom_time_flagged(self):
        space = single_mark_space(["a", "y"])
        m = CompensatorModel(
            space,
            {
                "a": DslRule(atoms=(AtomSpec(1.0, 0.3),)),
                "y": DslRule(atoms=(AtomSpec(1.0, 0.4),)),
            },
            2.0,
        )
        report = check_regularity(m)
        assert not report.ok
        assert any("share an atom at t=1.0" in v for v in report.violations)

    def test_disjoint_atoms_ok(self):
        space = single_mark_space(["a", "y"])
        m = CompensatorModel(
            space,
            {
                "a": DslRule(atoms=(AtomSpec(1.0, 0.3),)),
                "y": DslRule(atoms=(AtomSpec(2.0, 0.4),)),
            },
            3.0,
        )
        assert check_regularity(m).ok

    def test_intervention_atom_against_continuous_component_ok(self):
        space = single_mark_space(["a", "y"])
        m = CompensatorModel(
            space,
            {"a": DslRule(rate=RateRule(0.2)), "y": DslRule(rate=RateRule(0.4))},
            3.0,
        )
        iv = Static(0, ((1.0, 0),))
        assert check_regularity(m, (iv,)).ok

    def test_intervention_atom_collides_with_other_component(self):
        space = single_mark_space(["a", "y"])
        m = CompensatorModel(
            space,
            {"a": DslRule(rate=RateRule(0.2)), "y": DslRule(atoms=(AtomSpec(1.0, 0.4),))},
            3.0,
        )
        iv = Static(0, ((1.0, 0),))
        report = check_regularity(m, (iv,))
        assert not report.ok

    def test_excess_total_atom_mass(self):
        space = single_mark_space(["a", "y"])
        m = CompensatorModel(
            space,
            {
                "a": DslRule(atoms=(AtomSpec(1.0, 0.7),)),
                "y": DslRule(atoms=(AtomSpec(1.0, 0.6),)),
            },
            2.0,
        )
        report = check_regularity(m)
        assert any("total atom mass" in v for v in report.violations)


# a busy component gated by window and count predicates on itself, a sparse
# one with atoms at 1.0 and 2.0 whose table reads a window of the busy one,
# and a regime that copies the busy component with a delay
BUSY = {
    "type": "continuous",
    "horizon": 3.0,
    "components": [
        {"name": "x", "rate": {"base": 60.0, "factors": [
            {"multiplier": 0.2, "when": [{"kind": "window", "component": "x",
                                          "window": 0.1, "op": "ge", "value": 3}]},
            {"multiplier": 1.5, "when": [{"kind": "count", "component": "a",
                                          "op": "ge", "value": 1}]},
            {"multiplier": 0.9, "when": [
                {"kind": "count", "component": "x", "op": "ge", "value": 20},
                {"kind": "window", "component": "x", "window": 0.25, "op": "le",
                 "value": 4}]},
        ]}},
        {"name": "a", "atoms": [
            {"time": t, "table": {"entries": [{"when": [
                {"kind": "window", "component": "x", "window": 0.5, "op": "ge",
                 "value": 6}], "prob": 0.6}], "default": 0.3}}
            for t in (1.0, 2.0)]},
        {"name": "y", "rate": {"base": 0.3}},
    ],
    "interventions": [{"target": "y", "kind": "delayed_copy", "source": "x",
                       "delay": 0.5, "mark": "y"}],
    "outcome": {"kind": "count", "component": "y", "t": 3.0},
}


def _reference_plan(model, baseline, history, component, s):
    """The plan as built by scanning the whole history at every step."""
    from mppcausal.compensator import HazardSegmentPlan

    comp = history.space.mark_component

    def holds(p, t):
        if p.kind == "baseline":
            return baseline.get(p.covariate) == p.value
        if p.kind == "count":
            x = sum(1 for u, m in history.events if u < t and comp[m] == p.component)
        else:
            lo = t - p.window
            x = sum(
                1 for u, m in history.events if lo <= u < t and comp[m] == p.component
            )
        return {"ge": x >= p.value, "le": x <= p.value, "eq": x == p.value}[p.op]

    rule, T = model.rules[component], model.horizon
    segments = ()
    if rule.rate is not None:
        cuts = {T}
        for f in rule.rate.factors:
            for p in f.when:
                if p.kind == "window":
                    for u, m in history.events:
                        if comp[m] == p.component and s < u + p.window < T:
                            cuts.add(u + p.window)
        edges = [s] + sorted(cuts)
        segs = []
        for a, b in zip(edges, edges[1:]):
            r = rule.rate.base
            for f in rule.rate.factors:
                if all(holds(p, b) for p in f.when):
                    r *= f.multiplier
            segs.append((a, b, r))
        segments = tuple(segs)
    atoms = []
    for spec in rule.atoms:
        if s < spec.time <= T:
            when_probs = spec.prob.entries
            prob = next(
                (q for when, q in when_probs if all(holds(p, spec.time) for p in when)),
                spec.prob.default,
            )
            atoms.append((spec.time, prob))
    return HazardSegmentPlan(s, T, segments, tuple(atoms))


class TestIndexedPlans:
    def test_extended_chain_plans_match_fresh_and_scan(self):
        sc = parse_config(BUSY)
        m = sc.model
        _, traj = simulate_observed(sc, RandomizerStream(3, 0))
        assert len(traj.events) > 50
        chained = Trajectory(sc.space, (), sc.horizon)
        for i, event in enumerate(traj.events):
            chained = chained.extended(event)
            if i % 5:
                continue
            fresh = Trajectory(sc.space, traj.events[: i + 1], sc.horizon)
            for s in (event[0], event[0] + 0.05):
                for c in range(3):
                    plan = m.plan(B, chained, c, s)
                    assert plan == m.plan(B, fresh, c, s)
                    assert plan == _reference_plan(m, B, fresh, c, s)

    def test_continuous_memo_holds_only_recurring_starts(self):
        sc = parse_config(BUSY)
        lengths = []
        for i in range(50):
            lengths.append(len(simulate_joint(sc, RandomizerStream(5, i)).observed.events))
        assert min(lengths) > 50
        starts = {key[-1] for key in sc.model._plan_cache}
        assert starts <= {0.0, 1.0, 2.0}
        # the plans at s = 0 are shared by all subjects; an atom start keys on
        # the subject's history: per arm one group entry and three plans
        assert 0.0 in starts
        assert len(sc.model._plan_cache) <= 4 + 50 * 2 * 2 * 4 < sum(lengths)

    def test_non_recurring_start_is_rebuilt(self):
        sc = parse_config(BUSY)
        h = Trajectory(sc.space, ((0.3, 0),), sc.horizon)
        assert sc.model.plan(B, h, 0, 0.3) is not sc.model.plan(B, h, 0, 0.3)
        assert sc.model.plan(B, h, 0, 1.0) is sc.model.plan(B, h, 0, 1.0)
        assert not sc.model._plan_cache.keys() - {(0, B.values, h.events, 1.0)}

    def test_discrete_model_hits_memo(self):
        sc = to_continuous(one_period_scenario())
        for i in range(200):
            simulate_observed(sc, RandomizerStream(9, i))
        size = len(sc.model._plan_cache)
        assert 0 < size < 100
        for i in range(200, 400):
            simulate_observed(sc, RandomizerStream(9, i))
        assert len(sc.model._plan_cache) == size
        h = Trajectory(sc.space, (), sc.horizon)
        assert sc.model.plan(B, h, 0, 0.0) is sc.model.plan(B, h, 0, 0.0)


class TestRegularityMemo:
    def test_checked_once_per_intervention_tuple(self, monkeypatch):
        import mppcausal.compensator as comp
        from mppcausal.weights import weight_path_product

        calls = []
        real = comp.check_regularity
        monkeypatch.setattr(
            comp, "check_regularity", lambda *a: calls.append(a) or real(*a)
        )
        sc = to_continuous(one_period_scenario())
        for i in range(30):
            baseline, traj = simulate_observed(sc, RandomizerStream(1, i))
            weight_path_product(sc, baseline, traj)
        assert len(calls) == 1
        assert sc.model.regularity(sc.interventions) is sc.model.regularity(
            tuple(sc.interventions)
        )

    def test_irregular_message_unchanged(self):
        from mppcausal.weights import deviation_compensator

        space = single_mark_space(["a", "y"])
        m = CompensatorModel(
            space,
            {"a": DslRule(atoms=(AtomSpec(1.0, 0.3),)),
             "y": DslRule(atoms=(AtomSpec(1.0, 0.4),))},
            2.0,
        )

        class Sc:
            model = m
            interventions = ()

        with pytest.raises(ValueError) as exc:
            deviation_compensator(Sc, B, Trajectory(space, (), 2.0))
        assert str(exc.value) == (
            "regularity violations: components a and y share an atom at t=1.0"
        )


class TestRuleValidation:
    def test_atom_prob_out_of_range(self):
        m, space = model_one(DslRule(atoms=(AtomSpec(1.0, 1.5),)))
        with pytest.raises(ValueError):
            m.plan(B, empty(space), 0, 0.0)

    def test_zero_prob_atoms_dropped(self):
        m, space = model_one(DslRule(atoms=(AtomSpec(1.0, 0.0), AtomSpec(1.5, 0.2))))
        plan = m.plan(B, empty(space), 0, 0.0)
        assert plan.atoms == ((1.5, 0.2),)

    def test_prob_table_no_match_and_no_default(self):
        table = ProbTable(
            ((
                (Predicate(kind="count", component=0, op="ge", value=5),),
                0.5,
            ),)
        )
        m, space = model_one(DslRule(atoms=(AtomSpec(1.0, table),)))
        with pytest.raises(ValueError):
            m.plan(B, empty(space), 0, 0.0)

    def test_is_discrete(self):
        m_disc, _ = model_one(DslRule(atoms=(AtomSpec(1.0, 0.3),)))
        m_cont, _ = model_one(DslRule(rate=RateRule(1.0)))
        assert is_discrete(m_disc)
        assert not is_discrete(m_cont)


@settings(max_examples=30, deadline=None)
@given(
    rate=st.floats(min_value=0.0, max_value=3.0),
    atom_p=st.floats(min_value=0.0, max_value=0.95),
    split=st.floats(min_value=0.1, max_value=1.9),
)
def test_survival_multiplicativity_property(rate, atom_p, split):
    m, space = model_one(
        DslRule(rate=RateRule(rate), atoms=(AtomSpec(1.0, atom_p),) if atom_p else ())
    )
    h = empty(space)
    whole = survival(m, B, h, [0], 0.0, 2.0)
    parts = survival(m, B, h, [0], 0.0, split) * survival(m, B, h, [0], split, 2.0)
    assert whole == pytest.approx(parts, rel=1e-10, abs=1e-12)

import dataclasses
import itertools
import math
import random

import pytest

import mppcausal.oracle as oracle_module
from mppcausal.compensator import PastBitsTable, check_regularity
from mppcausal.oracle import (
    DiscreteScenario,
    DiscreteVariable,
    EnumerationCapError,
    OraclePositivityError,
    conditional_expectation,
    cross_check_continuous,
    enumerate_worlds,
    follower_reachable_cells,
    oracle_g_formula,
    oracle_ipw,
    regime_reachable,
    to_continuous,
    world_trajectory,
)
from mppcausal.trajectory import Baseline, Trajectory, restrict

from conftest import one_period_scenario


def random_discrete(rng, n_vars):
    """Random chained-binary scenario: alternating covariates and treatments."""
    variables = []
    for k in range(n_vars - 1):
        is_treat = k % 2 == 1
        probs = {
            p: rng.uniform(0.05, 0.95)
            for p in itertools.product((0, 1), repeat=k)
        }
        variables.append(
            DiscreteVariable(
                f"V{k}", float(k + 1), "a" if is_treat else "l", probs,
                is_treatment=is_treat, regime_value=rng.choice((0, 1)),
            )
        )
    variables.append(
        DiscreteVariable(
            "Y", float(n_vars), "y",
            {
                p: rng.uniform(0.0, 1.0)
                for p in itertools.product((0, 1), repeat=n_vars - 1)
            },
        )
    )
    return DiscreteScenario(tuple(variables), float(n_vars + 1), "Y")


def same_time_scenario():
    """L, then A and M together at t=2 on different components, then Y."""

    def table(n):
        patterns = itertools.product((0, 1), repeat=n)
        return {p: 0.2 + 0.6 * sum(p) / max(n, 1) for p in patterns}

    return DiscreteScenario(
        (
            DiscreteVariable("L", 1.0, "l", table(0)),
            DiscreteVariable("A", 2.0, "a", table(1), is_treatment=True, regime_value=1),
            DiscreteVariable("M", 2.0, "m", table(2)),
            DiscreteVariable("Y", 3.0, "y", table(3)),
        ),
        4.0,
        "Y",
    )


class TestEnumeration:
    def test_worlds_sum_to_one(self, one_period, two_period):
        for ds in (one_period, two_period):
            assert sum(w.prob for w in enumerate_worlds(ds)) == pytest.approx(
                1.0, abs=1e-14
            )

    def test_world_count(self, two_period):
        assert len(enumerate_worlds(two_period)) == 2 ** 5

    def test_follower_flags(self, one_period):
        for w in enumerate_worlds(one_period):
            assert w.follower == (w.bits[1] == 1)

    def test_cap_enforced(self):
        # constant callables: the cap refuses before any probability is read
        ds = DiscreteScenario(
            tuple(
                DiscreteVariable(f"V{k}", float(k + 1), "l", lambda past: 0.5)
                for k in range(23)
            ),
            24.0,
            "V22",
        )
        with pytest.raises(EnumerationCapError):
            enumerate_worlds(ds)


class TestOracleValues:
    def test_one_period_frozen_value(self, one_period):
        # forced A=1: 0.5*(0.5) + 0.5*(0.8) = 0.65
        assert oracle_g_formula(one_period) == pytest.approx(0.65, abs=1e-14)

    def test_two_period_frozen_value(self, two_period):
        assert oracle_g_formula(two_period) == pytest.approx(0.72875, abs=1e-12)

    def test_ipw_equals_g_formula(self, one_period, two_period):
        for ds in (one_period, two_period):
            assert oracle_ipw(ds) == pytest.approx(
                oracle_g_formula(ds), abs=1e-13
            )

    def test_ipw_equals_g_formula_fuzz(self):
        rng = random.Random(99)
        for _ in range(60):
            ds = random_discrete(rng, rng.randint(2, 6))
            assert oracle_ipw(ds) == pytest.approx(
                oracle_g_formula(ds), abs=1e-12
            )

    def test_degenerate_tables_still_exact(self):
        # deterministic covariate and outcome
        ds = DiscreteScenario(
            (
                DiscreteVariable("L", 1.0, "l", {(): 1.0}),
                DiscreteVariable(
                    "A", 2.0, "a", {(0,): 0.5, (1,): 0.5},
                    is_treatment=True, regime_value=1,
                ),
                DiscreteVariable("Y", 3.0, "y", {p: float(p[1]) for p in
                                                 itertools.product((0, 1), repeat=2)}),
            ),
            4.0,
            "Y",
        )
        assert oracle_g_formula(ds) == pytest.approx(1.0, abs=1e-14)
        assert oracle_ipw(ds) == pytest.approx(1.0, abs=1e-14)


class TestPositivity:
    def _zero_follow(self):
        return DiscreteScenario(
            (
                DiscreteVariable("L", 1.0, "l", {(): 0.5}),
                DiscreteVariable(
                    "A", 2.0, "a", {(0,): 0.0, (1,): 0.5},
                    is_treatment=True, regime_value=1,
                ),
                DiscreteVariable(
                    "Y", 3.0, "y",
                    {p: 0.5 for p in itertools.product((0, 1), repeat=2)},
                ),
            ),
            4.0,
            "Y",
        )

    def test_reachable_cells(self, one_period):
        assert follower_reachable_cells(one_period) == [(1, (0,)), (1, (1,))]

    def test_zero_probability_cell_raises(self):
        ds = self._zero_follow()
        with pytest.raises(OraclePositivityError):
            oracle_ipw(ds)
        assert not regime_reachable(ds)

    def test_positive_scenarios_reachable(self, one_period, two_period):
        assert regime_reachable(one_period)
        assert regime_reachable(two_period)


class TestConditional:
    def test_shared_atom_conditional_is_half(self, shared_atom):
        assert conditional_expectation(
            shared_atom, "Y", {"A": 0}
        ) == pytest.approx(0.4 / 0.7, abs=1e-14)
        # P(Y=1) marginal: 0.7 * 4/7 = 0.4
        worlds = {w.bits: w.prob for w in enumerate_worlds(shared_atom)}
        assert worlds[(1, 0)] == pytest.approx(0.3, abs=1e-14)
        assert worlds[(0, 1)] == pytest.approx(0.4, abs=1e-14)
        assert worlds[(0, 0)] == pytest.approx(0.3, abs=1e-14)

    def test_zero_probability_conditioning_rejected(self, shared_atom):
        with pytest.raises(ValueError):
            conditional_expectation(shared_atom, "A", {"A": 1, "Y": 1})


class TestContinuousEmbedding:
    def test_cross_check_passes_on_regular_scenarios(self, one_period, two_period):
        for ds in (one_period, two_period):
            rep = cross_check_continuous(ds)
            assert rep.ok, rep.messages
            assert rep.max_density_error < 1e-12
            assert rep.max_weight_error < 1e-12

    def test_shared_atoms_refused_with_finding(self, shared_atom):
        sc = to_continuous(shared_atom)
        reg = check_regularity(sc.model, sc.interventions)
        assert not reg.ok
        assert any("t=1.0" in v for v in reg.violations)
        rep = cross_check_continuous(shared_atom)
        assert not rep.ok
        assert not rep.regularity_ok

    def test_weight_tolerance_is_relative(self, monkeypatch):
        # follower weights of 10 variables reach the thousands; their W_T
        # agree with the enumerated weight to ~1e-15 relative
        for seed in (4, 5):
            rep = cross_check_continuous(random_discrete(random.Random(seed), 10))
            assert rep.ok, rep.messages
        exact = oracle_module.weight_path_product
        perturbed = []

        def weight_path_off_by_1e9(scenario, baseline, traj):
            path = exact(scenario, baseline, traj)
            if perturbed:
                return path
            perturbed.append(path.W_T)
            return dataclasses.replace(path, W_T=path.W_T * (1.0 + 1e-9))

        monkeypatch.setattr(oracle_module, "weight_path_product", weight_path_off_by_1e9)
        rep = cross_check_continuous(random_discrete(random.Random(4), 10))
        assert perturbed and not rep.ok
        assert len(rep.messages) == 1 and "weight mismatch" in rep.messages[0]

    def test_keyed_table_matches_conditionals(self, shared_atom):
        rng = random.Random(7)
        scenarios = [random_discrete(rng, k) for k in range(2, 9)]
        for ds in scenarios + [shared_atom, same_time_scenario()]:
            sc = to_continuous(ds)
            worlds = enumerate_worlds(ds)
            for k, v in enumerate(ds.variables):
                c = sc.space.component_index(v.component)
                (spec,) = [a for a in sc.model.rules[c].atoms if a.time == v.time]
                earlier = [i for i in range(k) if ds.variables[i].time < v.time]
                assert isinstance(spec.prob, PastBitsTable) == bool(earlier)
                positive = {
                    tuple(w.bits[i] for i in earlier) for w in worlds if w.prob > 0
                }
                for pattern in positive:
                    given = dict(zip(earlier, pattern))
                    bits = tuple(given.get(i, 0) for i in range(len(ds.variables)))
                    history = restrict(
                        world_trajectory(ds, sc.space, bits), v.time, "strictly-before"
                    )
                    expected = conditional_expectation(
                        ds, v.name, {ds.variables[i].name: b for i, b in given.items()}
                    )
                    assert spec.prob_at(Baseline(), history) == pytest.approx(
                        expected, abs=1e-12
                    )

    def test_keyed_table_rejects_off_grid_events(self, two_period):
        sc = to_continuous(two_period)
        y = sc.space.component_index("y")
        (spec,) = sc.model.rules[y].atoms
        mark_l = sc.space.marks_of(sc.space.component_index("l"))[0]
        mark_a = sc.space.marks_of(sc.space.component_index("a"))[0]
        # off the grid in time, and on the grid's time but the wrong component
        for event in ((0.5, mark_l), (1.0, mark_a)):
            history = Trajectory(sc.space, (event,), two_period.horizon)
            with pytest.raises(ValueError, match="no probability-table entry"):
                spec.prob_at(Baseline(), history)

    def test_shared_atom_marginals(self, shared_atom):
        # embedding assigns each same-time variable its strict-past marginal
        sc = to_continuous(shared_atom)
        from mppcausal.trajectory import Baseline, Trajectory

        empty = Trajectory(sc.space, (), shared_atom.horizon)
        a = sc.space.component_index("a")
        y = sc.space.component_index("y")
        plan_a = sc.model.plan(Baseline(), empty, a, 0.0)
        plan_y = sc.model.plan(Baseline(), empty, y, 0.0)
        assert plan_a.atoms == ((1.0, pytest.approx(0.3)),)
        assert plan_y.atoms == ((1.0, pytest.approx(0.4)),)

import random

import pytest
from hypothesis import given, strategies as st

from mppcausal.trajectory import (
    Baseline,
    MarkSpace,
    Trajectory,
    count,
    count_strictly_before,
    count_window,
    restrict,
    single_mark_space,
    trajectory_from_json,
    trajectory_to_json,
    validate,
)

SPACE = single_mark_space(["a", "y"])
A = SPACE.mark_index("a")
Y = SPACE.mark_index("y")


def traj(events, horizon=10.0):
    return Trajectory(SPACE, tuple(events), horizon)


class TestValidate:
    def test_empty_is_ok(self):
        assert validate(traj([])).ok

    def test_non_increasing_times(self):
        report = validate(traj([(2.0, A), (1.0, Y)]))
        assert not report.ok
        assert "non-increasing" in report.message

    def test_tied_times(self):
        report = validate(traj([(1.0, A), (1.0, Y)]))
        assert not report.ok
        assert "tied" in report.message

    def test_event_at_zero_rejected(self):
        assert not validate(traj([(0.0, A)])).ok

    def test_event_past_horizon(self):
        assert not validate(traj([(11.0, A)])).ok

    def test_unknown_mark(self):
        assert not validate(traj([(1.0, 7)])).ok


class TestRestrict:
    def test_strictly_before(self):
        t = traj([(1.0, A), (2.0, Y)])
        assert restrict(t, 2.0, "strictly-before").events == ((1.0, A),)

    def test_at(self):
        t = traj([(1.0, A), (2.0, Y)])
        assert restrict(t, 2.0, "at").events == ((1.0, A), (2.0, Y))

    def test_at_zero_is_empty(self):
        t = traj([(1.0, A)])
        assert restrict(t, 0.0, "at").events == ()

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            restrict(traj([]), 11.0)

    def test_full_horizon_identity(self):
        t = traj([(1.0, A), (2.0, Y)])
        assert restrict(t, 10.0, "at") == t


class TestCount:
    def test_empty(self):
        assert count(traj([]), "a", 5.0) == 0

    def test_inclusive_cutoff(self):
        t = traj([(1.0, A), (2.0, A)])
        assert count(t, "a", 1.5) == 1
        assert count(t, "a", 2.0) == 2

    def test_windowed(self):
        space = single_mark_space(["l"])
        t = Trajectory(space, ((0.5, 0),), 10.0)
        assert count_window(t, 0, 1.2, 1.0) == 1
        assert count_window(t, 0, 1.6, 1.0) == 0

    def test_unknown_component(self):
        with pytest.raises(KeyError):
            count(traj([]), "zzz", 1.0)


@st.composite
def valid_trajectories(draw):
    n = draw(st.integers(min_value=0, max_value=8))
    times = draw(
        st.lists(
            st.floats(min_value=0.01, max_value=10.0, allow_nan=False),
            min_size=n, max_size=n, unique=True,
        )
    )
    marks = draw(st.lists(st.sampled_from([A, Y]), min_size=n, max_size=n))
    return traj(sorted(zip(times, marks)))


class TestProperties:
    @given(valid_trajectories(), st.floats(min_value=0.0, max_value=10.0))
    def test_restrict_idempotent(self, t, cut):
        once = restrict(t, cut, "at")
        assert restrict(once, cut, "at") == once
        once_strict = restrict(t, cut, "strictly-before")
        assert restrict(once_strict, cut, "strictly-before") == once_strict

    @given(valid_trajectories())
    def test_count_non_decreasing_on_event_grid(self, t):
        values = [count(t, "a", u) for u, _ in t.events] + [count(t, "a", t.horizon)]
        assert values == sorted(values)

    @given(valid_trajectories())
    def test_json_round_trip(self, t):
        text = trajectory_to_json(t)
        assert trajectory_from_json(text, SPACE, t.horizon) == t


def _scan_before(t_, component, t):
    comp = t_.space.mark_component
    return sum(1 for u, m in t_.events if u < t and comp[m] == component)


def _scan_window(t_, component, t, window):
    comp = t_.space.mark_component
    lo = t - window
    return sum(1 for u, m in t_.events if lo <= u < t and comp[m] == component)


MULTI = MarkSpace(("p", "q", "r"), ("p0", "q0", "q1", "r0"), (0, 1, 1, 2))


class TestIndexedCounts:
    """Bisection on the per-component index equals a scan of the history."""

    def _histories(self):
        rng = random.Random(7)
        grid = [k / 8 for k in range(1, 80)]  # binary fractions: exact sums
        for n in (0, 1, 5, 40, 100):
            events = [(rng.choice(grid), rng.randrange(4)) for _ in range(n)]
            events += [(rng.uniform(0.0, 10.0), rng.randrange(4)) for _ in range(n)]
            yield events  # unsorted, with repeated times
            yield sorted(events)

    def test_counts_match_scan(self):
        rng = random.Random(11)
        for events in self._histories():
            t_ = Trajectory(MULTI, tuple(events), 10.0)
            times = rng.sample(sorted({u for u, _ in events}), min(len(events), 25))
            probes = times + [u + 1e-12 for u in times] + [0.0, 5.0, 10.0]
            for c in range(3):
                for t in probes:
                    assert count_strictly_before(t_, c, t) == _scan_before(t_, c, t)
                    for window in (0.125, 0.5, 1.0, 0.3):
                        got = count_window(t_, c, t, window)
                        assert got == _scan_window(t_, c, t, window)

    def test_window_edges_on_event_times(self):
        for events in self._histories():
            t_ = Trajectory(MULTI, tuple(events), 10.0)
            for u, m in events[:20]:
                c = MULTI.mark_component[m]
                for window in (0.25, 0.375, 0.1, 1 / 3):
                    # t = t_ev + window
                    t = u + window
                    assert count_window(t_, c, t, window) == _scan_window(t_, c, t, window)
                    assert count_window(t_, c, u, window) == _scan_window(t_, c, u, window)
                if u * 8 == int(u * 8):
                    # the window edge t - window lands exactly on the event
                    t = u + 0.5
                    assert t - 0.5 == u
                    assert count_window(t_, c, t, 0.5) == _scan_window(t_, c, t, 0.5)

    def test_extended_chain_matches_fresh_index(self):
        for events in self._histories():
            chained = Trajectory(MULTI, (), 10.0)
            for i, event in enumerate(events):
                chained = chained.extended(event)
                if i % 7 == 0 or i == len(events) - 1:
                    fresh = Trajectory(MULTI, tuple(events[: i + 1]), 10.0)
                    assert chained == fresh
                    for c in range(3):
                        assert chained.component_times(c) == fresh.component_times(c)

    def test_extended_leaves_parent_index_alone(self):
        parent = Trajectory(MULTI, ((1.0, 1),), 10.0)
        before = [list(parent.component_times(c)) for c in range(3)]
        child = parent.extended((2.0, 2))
        assert [parent.component_times(c) for c in range(3)] == before
        assert child.component_times(1) == [1.0, 2.0]


class TestMarkSpace:
    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValueError):
            MarkSpace(("c",), ("m", "m"), (0, 0))

    def test_marks_of(self):
        space = MarkSpace(("c1", "c2"), ("x", "y", "z"), (0, 1, 1))
        assert space.marks_of(1) == (1, 2)


def test_baseline_round_trip():
    b = Baseline.from_dict({"sex": 1, "site": "north"})
    assert b.get("sex") == 1
    assert b.as_dict() == {"sex": 1, "site": "north"}
    with pytest.raises(KeyError):
        b.get("missing")

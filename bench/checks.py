"""Correctness checks on the outputs of one benchmark run.

Each check returns a list of failure messages; an empty list is a pass.
"""

from __future__ import annotations

import csv
import hashlib
import itertools
import json
import math
import os

SE_LIMIT = 4.0
REL_TOL = 1e-12


def digest_dir(path: str) -> str:
    """SHA-256 over every file in an output directory, names included."""
    h = hashlib.sha256()
    for name in sorted(os.listdir(path)):
        h.update(name.encode() + b"\0")
        with open(os.path.join(path, name), "rb") as fh:
            h.update(fh.read())
        h.update(b"\0")
    return h.hexdigest()


def read_estimate(out_dir: str) -> dict:
    with open(os.path.join(out_dir, "estimate.json")) as fh:
        return json.load(fh)


def read_oracle(out_dir: str) -> dict:
    with open(os.path.join(out_dir, "oracle.json")) as fh:
        return json.load(fh)


def estimators_agree(estimates: dict) -> list[str]:
    """Pairwise agreement within 4 combined standard errors."""
    failures = []
    for (m1, e1), (m2, e2) in itertools.combinations(sorted(estimates.items()), 2):
        se = math.hypot(e1["se"], e2["se"])
        gap = abs(e1["value"] - e2["value"])
        if not gap <= SE_LIMIT * se:
            failures.append(
                f"{m1}={e1['value']} and {m2}={e2['value']} differ by {gap}, "
                f"more than {SE_LIMIT} combined SE ({se})"
            )
    return failures


def estimators_near_oracle(estimates: dict, exact: float, ses: dict) -> list[str]:
    """Each estimate within 4 of the given standard errors of the exact value."""
    return [
        f"{m}={e['value']} is more than {SE_LIMIT} SE ({ses[m]}) from the "
        f"oracle g-formula value {exact}"
        for m, e in sorted(estimates.items())
        if not abs(e["value"] - exact) <= SE_LIMIT * ses[m]
    ]


def _rel_close(a: float, b: float) -> bool:
    if b == 0.0:
        return a == 0.0
    return abs(a - b) <= REL_TOL * abs(b)


def weight_paths_agree(scenario, seed: int, subjects: int) -> tuple[list[str], list[float]]:
    """Product-integral and jump-recursion weight paths match at every
    breakpoint, on the first ``subjects`` observed-arm draws. Also returns
    each subject's IPW contribution W_t * Y_t at the horizon, with the
    jump-recursion weight."""
    from mppcausal import (
        RandomizerStream,
        restrict,
        simulate_observed,
        weight_path_product,
        weight_path_sde,
    )

    failures, contributions = [], []
    t = scenario.horizon
    for i in range(subjects):
        baseline, traj = simulate_observed(scenario, RandomizerStream(seed, i))
        prod = weight_path_product(scenario, baseline, traj)
        sde = weight_path_sde(scenario, baseline, traj)
        same = (
            len(prod.breakpoints) == len(sde.breakpoints)
            and all(
                tp == ts and _rel_close(ws, wp)
                for (tp, wp), (ts, ws) in zip(prod.breakpoints, sde.breakpoints)
            )
            and _rel_close(sde.W_T, prod.W_T)
        )
        if not same:
            failures.append(
                f"subject {i}: product W_T={prod.W_T} and SDE W_T={sde.W_T} "
                f"differ beyond relative {REL_TOL}"
            )
        y = scenario.outcome(restrict(traj, min(t, traj.horizon), "at"))
        contributions.append(sde.at(t) * y)
    return failures, contributions


def ipw_recomputed(estimate: dict, contributions: list[float]) -> list[str]:
    """The CLI's IPW estimate equals the mean of the recomputed
    contributions of its subjects, to relative 1e-12."""
    if len(contributions) != estimate["n"]:
        return [f"{len(contributions)} contributions for an IPW sample of {estimate['n']}"]
    expect = math.fsum(contributions) / len(contributions)
    if _rel_close(estimate["value"], expect):
        return []
    return [f"IPW estimate {estimate['value']} != recomputed mean {expect}"]


def discrete_world_weight(doc: dict, bits: tuple[int, ...]) -> float:
    """Follower indicator over the product of realized treatment
    probabilities, straight from the config's tables."""
    w = 1.0
    for k, var in enumerate(doc["variables"]):
        if not var.get("treatment"):
            continue
        if bits[k] != var["regime"]:
            return 0.0
        p1 = var["table"]["".join(map(str, bits[:k]))]
        w /= p1 if bits[k] == 1 else 1.0 - p1
    return w


def discrete_moments(doc: dict) -> tuple[float, float, float]:
    """Exact interventional mean and the per-subject variances of the IPW
    contribution W*Y and of the outcome under the regime, by enumerating
    every world of the config. The outcome is the last variable's bit."""
    worlds = [((), 1.0)]
    for var in doc["variables"]:
        grown = []
        for bits, p in worlds:
            p1 = var["table"]["".join(map(str, bits))]
            grown.append((bits + (0,), p * (1.0 - p1)))
            grown.append((bits + (1,), p * p1))
        worlds = grown
    mean = second = 0.0
    for bits, p in worlds:
        c = discrete_world_weight(doc, bits) * bits[-1]
        mean += p * c
        second += p * c * c
    return mean, second - mean * mean, mean * (1.0 - mean)


def discrete_weights_match(doc: dict, sim_dir: str) -> list[str]:
    """W_T in summary.csv equals the enumerated world weight of each
    subject's observed world, to relative 1e-12."""
    fired: dict[int, set] = {}
    with open(os.path.join(sim_dir, "events.csv"), newline="") as fh:
        for row in csv.DictReader(fh):
            if row["arm"] == "observed":
                fired.setdefault(int(row["subject_id"]), set()).add(
                    (float(row["t"]), row["mark"])
                )
    failures = []
    with open(os.path.join(sim_dir, "summary.csv"), newline="") as fh:
        for row in csv.DictReader(fh):
            i = int(row["subject_id"])
            events = fired.get(i, set())
            bits = tuple(
                int((float(v["time"]), v["component"]) in events) for v in doc["variables"]
            )
            expect = discrete_world_weight(doc, bits)
            got = float(row["W_T"])
            if not _rel_close(got, expect):
                failures.append(f"subject {i}: W_T={got}, enumerated weight {expect}")
    return failures


def follower_fraction(sim_dir: str) -> float:
    with open(os.path.join(sim_dir, "summary.csv"), newline="") as fh:
        rows = list(csv.DictReader(fh))
    return sum(float(r["W_T"]) > 0.0 for r in rows) / max(1, len(rows))


def observed_events_per_subject(sim_dir: str, n: int) -> float:
    with open(os.path.join(sim_dir, "events.csv"), newline="") as fh:
        total = sum(row["arm"] == "observed" for row in csv.DictReader(fh))
    return total / n

"""Workload inputs for the benchmark, each a pure function of the seed.

Every workload writes the configs it needs into the run's scratch
directory and names the CLI commands of one round. The program under test
only ever receives these generated files.
"""

from __future__ import annotations

import json
import os
import random
import shutil
from dataclasses import dataclass

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SHIPPED_CONFIGS = os.path.join(ROOT, "configs")

# long_paths: at rate level 1 the busy component fires about 300 times per
# trajectory; the other levels feed simulate.cost_slope
LONG_HORIZON = 6.0
LONG_X_RATE = 150.0
SLOPE_LEVELS = (0.25, 0.5, 1.0)
# treatment decisions sit late in follow-up: a subject who deviates at tau
# adds a potential arm on (tau, T], so late decisions keep the joint cost of
# followers and deviators close and the throughput steady across seeds
# times are binary fractions, so decision + DELAY is exact in floating point
DECISIONS = (4.75, 5.0, 5.25, 5.5, 5.75)
DELAY = 0.125

DISCRETE_K = 12


def long_paths_config(seed: int, rate_level: float = 1.0) -> dict:
    """Continuous scenario with long histories.

    * ``x`` is busy: its rate is cut tenfold while a ``window`` predicate
      sees ``burst`` of its own events in the last 0.1, which keeps the event
      count steady across subjects; a ``count`` predicate on itself and the
      treatment history also gate it.
    * ``s`` carries atoms at the decision times and ``a`` atoms DELAY later.
      The regime is a delayed copy of ``s`` onto ``a``, so its ``events()``
      rereads the whole history; ``a``'s tables keep positivity.
    * ``y`` is the outcome, a survival indicator, gated by ``a`` and ``x``.

    The follower fraction is the product over the five decisions of the
    chance of following, about 0.87 each, so roughly one half.
    """
    rng = random.Random(f"long_paths:{seed}")

    def r(lo, hi):
        return round(rng.uniform(lo, hi), 4)

    burst = max(1, round(5 * rate_level))
    gate = [{"kind": "window", "component": "x", "window": 0.1, "op": "ge",
             "value": burst}]
    x = {
        "name": "x",
        "rate": {
            "base": round(LONG_X_RATE * rate_level * rng.uniform(0.98, 1.02), 4),
            "factors": [
                {"multiplier": r(0.09, 0.11), "when": gate},
                {"multiplier": r(1.1, 1.2),
                 "when": [{"kind": "count", "component": "a", "op": "ge", "value": 1}]},
                {"multiplier": r(0.85, 0.95),
                 "when": [{"kind": "count", "component": "x", "op": "ge",
                           "value": max(1, round(150 * rate_level))}]},
            ],
        },
    }
    s_atoms = [
        {"time": t,
         "table": {
             "entries": [{"when": [{"kind": "window", "component": "x", "window": 0.5,
                                    "op": "ge", "value": 5 * burst}],
                          "prob": r(0.45, 0.6)}],
             "default": r(0.35, 0.45)}}
        for t in DECISIONS
    ]
    # a window of DELAY plus half the decision spacing sees the decision at
    # t - DELAY and not the one before it
    a_atoms = [
        {"time": t + DELAY,
         "table": {
             "entries": [{"when": [{"kind": "window", "component": "s",
                                    "window": DELAY + 0.125, "op": "ge", "value": 1}],
                          "prob": r(0.8, 0.9)}],
             "default": r(0.06, 0.12)}}
        for t in DECISIONS
    ]
    y = {
        "name": "y",
        "rate": {
            "base": r(0.12, 0.18),
            "factors": [
                {"multiplier": r(0.4, 0.6),
                 "when": [{"kind": "count", "component": "a", "op": "ge", "value": 2}]},
                {"multiplier": r(1.3, 1.6), "when": gate},
            ],
        },
    }
    return {
        "type": "continuous",
        "horizon": LONG_HORIZON,
        "components": [x, {"name": "s", "atoms": s_atoms},
                       {"name": "a", "atoms": a_atoms}, y],
        "interventions": [
            {"target": "a", "kind": "delayed_copy", "source": "s",
             "delay": DELAY, "mark": "a"}
        ],
        "outcome": {"kind": "survival", "component": "y", "t": LONG_HORIZON},
    }


def discrete_config(seed: int, k: int = DISCRETE_K) -> dict:
    """k binary variables: covariates ``l`` and treatments ``a`` alternate,
    and the last variable is the outcome ``Y`` on ``y``.

    Each variable has a full conditional table over the bit patterns of all
    earlier variables, drawn from the seed; the regime always treats.
    Treatment probabilities span [0.15, 0.85], so follower weights reach the
    hundreds; covariate and outcome probabilities span [0.3, 0.7], which
    keeps the number of distinct histories, and with it the cost of a run,
    similar across seeds.
    """
    rng = random.Random(f"discrete:{seed}:{k}")
    variables = []
    for i in range(k):
        last = i == k - 1
        treatment = i % 2 == 1 and not last
        lo, hi = (0.15, 0.85) if treatment else (0.3, 0.7)
        table = {}
        for mask in range(1 << i):
            key = "".join(str((mask >> (i - 1 - j)) & 1) for j in range(i))
            table[key] = round(rng.uniform(lo, hi), 4)
        var = {
            "name": "Y" if last else f"{'A' if treatment else 'L'}{i // 2 + 1}",
            "time": float(i + 1),
            "component": "y" if last else ("a" if treatment else "l"),
            "table": table,
        }
        if treatment:
            var["treatment"] = True
            var["regime"] = 1
        variables.append(var)
    return {"type": "discrete", "horizon": float(k + 1), "outcome": "Y",
            "variables": variables}


@dataclass(frozen=True)
class Command:
    """One CLI invocation of a round. ``metric`` names the end-to-end
    metric it feeds; ``n`` is the subject count it reports against."""

    metric: str
    argv: tuple[str, ...]
    out: str
    n: int = 0


@dataclass(frozen=True)
class Workload:
    """Generated inputs and per-command subject counts of one workload."""

    name: str
    config: str
    cli_seed: int
    n: dict
    oracle_config: str
    threads: int = 1
    # subjects whose two weight paths are compared; when they cover the whole
    # IPW sample, the IPW estimate is recomputed from them as well
    weight_checks: int = 0
    discrete: dict | None = None  # the config document, for the oracle checks

    def commands(self, scratch: str, threads: int | None = None) -> list[Command]:
        """The closed-loop round: one client runs these in order."""
        threads = self.threads if threads is None else threads
        common = ("--config", self.config, "--seed", str(self.cli_seed))
        cmds = []
        for metric, sub, extra in (
            ("simulate", "simulate", ()),
            ("ipw", "estimate", ("--method", "ipw")),
            ("gformula", "estimate", ("--method", "gformula")),
            ("joint", "estimate", ("--method", "joint")),
        ):
            n = self.n[metric]
            out = os.path.join(scratch, "out", metric)
            cmds.append(Command(
                metric,
                (sub, *common, *extra, "--n", str(n), "--threads", str(threads),
                 "--out", out),
                out,
                n,
            ))
        out = os.path.join(scratch, "out", "oracle")
        for _ in range(self.n["oracle"]):
            cmds.append(Command("oracle", ("oracle", "--config", self.oracle_config,
                                           "--out", out), out))
        return cmds


def _write(path: str, doc: dict) -> str:
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
    return path


def _copy_shipped(scratch: str, name: str) -> str:
    return shutil.copy(os.path.join(SHIPPED_CONFIGS, name), os.path.join(scratch, name))


NAMES = ("many_short", "many_short_mt", "long_paths", "discrete_k12")


def build(name: str, seed: int, scratch: str, scale: float = 1.0) -> Workload:
    """Write the workload's inputs into ``scratch`` and describe its round.

    ``scale`` shrinks subject counts for the smoke test, down to a floor that
    keeps the statistical checks meaningful; the benchmark runs at scale 1.
    """

    def sized(**n):
        out = {k: max(min(v, 20), int(v * scale)) for k, v in n.items() if k != "oracle"}
        return {**out, "oracle": n["oracle"]}

    # every workload reports oracle_s; the continuous ones time ``oracle`` on
    # the shipped 5-variable discrete demo, so only discrete_k12 runs the
    # embedding at scale
    if name in ("many_short", "many_short_mt"):
        # --threads is nproc, never more than 2
        threads = 1 if name == "many_short" else min(2, os.cpu_count() or 1)
        return Workload(
            name,
            _copy_shipped(scratch, "prevent_treatment.json"),
            seed,
            sized(simulate=10000, ipw=10000, gformula=20000, joint=10000, oracle=5),
            _copy_shipped(scratch, "demo_two_period.json"),
            threads=threads,
            weight_checks=200,
        )
    if name == "long_paths":
        return Workload(
            name,
            _write(os.path.join(scratch, "long_paths.json"), long_paths_config(seed)),
            seed,
            sized(simulate=16, ipw=20, gformula=48, joint=24, oracle=20),
            _copy_shipped(scratch, "demo_two_period.json"),
            # every IPW subject: on long histories the 4-SE agreement of a
            # few dozen subjects misses all but gross errors
            weight_checks=20,
        )
    if name == "discrete_k12":
        doc = discrete_config(seed)
        path = _write(os.path.join(scratch, "discrete_k12.json"), doc)
        return Workload(
            name,
            path,
            seed,
            sized(simulate=600, ipw=3000, gformula=2400, joint=600, oracle=1),
            path,
            discrete=doc,
        )
    raise ValueError(f"unknown workload {name!r}")

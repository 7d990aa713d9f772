#!/usr/bin/env python3
"""End-to-end and per-layer benchmark for mppcausal.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``, never from an installed copy. Workloads (see ``workloads.py``):
``many_short``, ``many_short_mt``, ``long_paths`` and ``discrete_k12``.

Load is a closed loop with one client: each round runs ``mppcausal
simulate``, ``estimate --method ipw|gformula|joint`` and ``oracle`` through
``mppcausal.cli.main`` in-process, one command after the other, writing to
a scratch ``--out`` directory. Each command starts with the package's
process-global caches empty, as in a fresh ``mppcausal`` process. Rounds
repeat until the time budget is spent (at least four). The first output of
each command is the reference: every later run of it must reproduce those
bytes, and the correctness checks read them after the last round. Under
many_short_mt the reference comes from an untimed ``--threads 1`` round on
the same inputs.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced round (see ``spans.py``) next to an untraced one. The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; lines before it give provenance,
sample counts and quartiles. Every command and every check is one attempted
operation; a command that raises, exits non-zero or writes bytes different
from its reference, and a check that finds a mismatch, is a failed one.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from collections import defaultdict
from time import perf_counter

import checks
import spans
import workloads

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
DIGESTS = os.path.join(BENCH_DIR, "digests.json")

DEFAULT_SEED = 0
MIN_ROUNDS = 4
SETUP_REPS = 7
MAX_TRACED_ROUNDS = 3
# subjects per rate level of the cost-slope sweep, at levels 0.25, 0.5, 1
SLOPE_SUBJECTS = (16, 8, 4)

END_TO_END = (
    ("setup_s", "s"),
    ("simulate_subj_per_s", "1/s"),
    ("ipw_subj_per_s", "1/s"),
    ("gformula_subj_per_s", "1/s"),
    ("joint_subj_per_s", "1/s"),
    ("oracle_s", "s"),
    ("peak_rss_mb", "MB"),
)

PER_LAYER = (
    ("trajectory.count_calls", "count"),
    ("trajectory.events_scanned", "count"),
    ("trajectory.count_s", "s"),
    ("trajectory.histories_built", "count"),
    ("trajectory.history_events_copied", "count"),
    ("trajectory.validate_calls", "count"),
    ("trajectory.validate_s", "s"),
    ("compensator.plan_calls", "count"),
    ("compensator.plan_s", "s"),
    ("compensator.predicate_evals", "count"),
    ("compensator.mark_probs_calls", "count"),
    ("compensator.regularity_calls", "count"),
    ("compensator.regularity_s", "s"),
    ("compensator.log_density_s", "s"),
    ("intervention.events_calls", "count"),
    ("intervention.events_s", "s"),
    ("intervention.deviation_time_calls", "count"),
    ("intervention.deviation_time_s", "s"),
    ("simulate.streams", "count"),
    ("simulate.stream_init_s", "s"),
    ("simulate.inverse_transform_calls", "count"),
    ("simulate.inverse_transform_s", "s"),
    ("simulate.self_s", "s"),
    ("simulate.events_per_subject_mean", "count"),
    ("simulate.events_per_subject_max", "count"),
    ("simulate.subject_ms_p50", "ms"),
    ("simulate.subject_ms_p99", "ms"),
    ("simulate.cost_slope", "log/log"),
    ("weights.deviation_compensator_calls", "count"),
    ("weights.deviation_compensator_s", "s"),
    ("weights.weight_path_s", "s"),
    ("weights.follower_fraction", "ratio"),
    ("estimate.self_s", "s"),
    ("estimate.outcome_calls", "count"),
    ("oracle.to_continuous_s", "s"),
    ("oracle.enumerate_s", "s"),
    ("oracle.worlds", "count"),
    ("oracle.cross_check_s", "s"),
    ("oracle.cross_check_ok", "bool"),
    ("scenario.load_calls", "count"),
    ("scenario.load_s", "s"),
    ("cli.self_s", "s"),
    ("cli.output_bytes", "count"),
    ("cli.pool_wait_s", "s"),
    ("trace.overhead_ratio", "ratio"),
)

# the same inputs as many_short, so the same recorded output digests
DIGEST_KEY = {"many_short_mt": "many_short"}

SETUP_SNIPPET = """\
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import mppcausal
mppcausal.load_config(sys.argv[2])
print(time.perf_counter() - t0)
"""


class Ledger:
    """Operations attempted and failed, with the failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def record(self, what: str, failures: list[str]) -> bool:
        self.attempted += 1
        if failures:
            self.failed += 1
            self.messages.extend(f"{what}: {m}" for m in failures)
        return not failures

    def check(self, what: str, failures: list[str]) -> None:
        """Record a correctness check and print its outcome."""
        self.record(what, failures)
        print(f"check: {what}: {'FAILED' if failures else 'ok'}")


def import_package():
    """Import mppcausal from this checkout's ``src``; exit if it is absent."""
    if not os.path.isfile(os.path.join(SRC, "mppcausal", "__init__.py")):
        sys.exit(f"error: no package source under {os.path.relpath(SRC)}; "
                 "run from the root of a source checkout")
    sys.path.insert(0, SRC)
    import mppcausal

    if not os.path.abspath(mppcausal.__file__).startswith(SRC + os.sep):
        sys.exit(f"error: mppcausal was imported from {mppcausal.__file__}, not {SRC}")


def git_sha() -> str:
    # only this checkout's own repository, never one that encloses it
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                  capture_output=True, text=True)
            if proc.returncode == 0:
                return proc.stdout.strip()
        except OSError:
            pass
    return "unknown (not a git checkout)"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def provenance(args) -> dict:
    import numpy

    return {
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": args.scale,
    }


def clear_caches() -> None:
    """Empty the package's process-global memos, so that each command starts
    as cold as a fresh ``mppcausal`` process, and so do the workers it forks:
    functools caches, and module-level dicts and sets named for a cache or a
    memo (today ``simulate._MERGE_CACHE``)."""
    for name, module in list(sys.modules.items()):
        if name != "mppcausal" and not name.startswith("mppcausal."):
            continue
        for attr, value in list(vars(module).items()):
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()
            elif isinstance(value, (dict, set)) and any(
                word in attr.lower() for word in ("cache", "memo")
            ):
                value.clear()


def run_command(cmd: workloads.Command, ledger: Ledger, reference: dict) -> float | None:
    """Run one CLI command in-process; returns its wall time, or None when
    it failed. The first output digest per metric becomes the reference that
    every later output must match."""
    from mppcausal import cli

    shutil.rmtree(cmd.out, ignore_errors=True)
    clear_caches()
    # every command starts from the same collector state, so collections
    # land alike in every round
    gc.collect()
    out, err = io.StringIO(), io.StringIO()
    t0 = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(list(cmd.argv))
    except SystemExit as exc:
        rc = exc.code
    except Exception:
        rc = traceback.format_exc()
    seconds = perf_counter() - t0
    failures = []
    if rc != 0:
        failures.append(f"returned {rc!r}: {err.getvalue().strip()}")
    else:
        digest = checks.digest_dir(cmd.out)
        if reference.setdefault(cmd.metric, digest) != digest:
            failures.append("output bytes differ from the reference run")
    ok = ledger.record(f"mppcausal {cmd.argv[0]} ({cmd.metric})", failures)
    return seconds if ok else None


def run_round(cmds, ledger: Ledger, reference: dict) -> dict[str, list[float]]:
    """One closed-loop round; returns subjects/s (seconds for the oracle)
    per metric."""
    samples: dict[str, list[float]] = defaultdict(list)
    for cmd in cmds:
        seconds = run_command(cmd, ledger, reference)
        if seconds is not None:
            samples[cmd.metric].append(cmd.n / seconds if cmd.n else seconds)
    return samples


def measure_setup(config: str, reps: int, ledger: Ledger) -> list[float]:
    """Import and load_config in fresh processes; the first run only warms
    the bytecode cache."""
    times = []
    for i in range(reps + 1):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_SNIPPET, SRC, config],
            capture_output=True, text=True, cwd=ROOT, timeout=120,
        )
        failures = [] if proc.returncode == 0 else [proc.stderr.strip()]
        if ledger.record("import and load_config in a fresh process", failures) and i:
            times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times


def run_checks(wl: workloads.Workload, args, reference: dict, ledger: Ledger) -> None:
    """The correctness checks, on the last outputs, which every run of a
    command reproduced byte for byte."""
    from mppcausal import load_config

    out = {m: os.path.join(args.scratch, "out", m) for m in ("simulate", "oracle")}
    estimates = {
        m: checks.read_estimate(os.path.join(args.scratch, "out", m))
        for m in ("ipw", "gformula", "joint")
    }
    if wl.discrete is not None:
        # the standard errors are exact, from enumeration: the sample SE of
        # IPW understates the heavy tail of the weights in a few percent of
        # seeds at these sample sizes
        exact = checks.read_oracle(out["oracle"])["g_formula"]
        mean, var_ipw, var_y = checks.discrete_moments(wl.discrete)
        ses = {m: math.sqrt((var_ipw if m == "ipw" else var_y) / wl.n[m])
               for m in estimates}
        failures = checks.estimators_near_oracle(estimates, exact, ses)
        if abs(mean - exact) > checks.REL_TOL * abs(exact):
            failures.append(f"enumerated mean {mean} != oracle g-formula {exact}")
        ledger.check("estimators within 4 SE of the oracle", failures)
        ledger.check("W_T equals the enumerated world weight",
                      checks.discrete_weights_match(wl.discrete, out["simulate"]))
    else:
        ledger.check("estimators agree pairwise",
                      checks.estimators_agree(estimates))
        subjects = min(wl.weight_checks, wl.n["ipw"])
        failures, contributions = checks.weight_paths_agree(
            load_config(wl.config), wl.cli_seed, subjects)
        ledger.check("product and SDE weight paths agree", failures)
        if subjects == wl.n["ipw"]:
            ledger.check("IPW equals its mean recomputed with SDE weights",
                         checks.ipw_recomputed(estimates["ipw"], contributions))
    if args.seed == DEFAULT_SEED and args.scale == 1.0:
        with open(DIGESTS) as fh:
            recorded = json.load(fh)[DIGEST_KEY.get(wl.name, wl.name)]
        # a deliberate change of the outputs is accepted by copying the new
        # digests printed here into digests.json
        ledger.check(
            "output digests match the recorded ones",
            [f"{m}: new {reference.get(m)} != recorded {d}"
             for m, d in sorted(recorded.items()) if reference.get(m) != d],
        )


def peak_rss_mb() -> float:
    kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
             resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024.0


def describe(name: str, unit: str, xs: list[float]) -> str:
    if len(xs) >= 2:
        q1, _, q3 = statistics.quantiles(xs, n=4)
        spread = f"q1={q1:.6g} q3={q3:.6g} min={min(xs):.6g} max={max(xs):.6g}"
    else:
        spread = ""
    med = statistics.median(xs) if xs else float("nan")
    return f"{name}: median={med:.6g} {unit} n={len(xs)} {spread}".rstrip()


def timed_rounds(cmds, seconds: float, ledger: Ledger, reference: dict):
    """Closed-loop rounds until the budget would be overrun, at least
    MIN_ROUNDS of them."""
    samples: dict[str, list[float]] = defaultdict(list)
    start = perf_counter()
    rounds = 0
    while True:
        t0 = perf_counter()
        got = run_round(cmds, ledger, reference)
        for k, v in got.items():
            samples[k].extend(v)
        rounds += 1
        elapsed = perf_counter() - start
        if rounds >= MIN_ROUNDS and elapsed + (perf_counter() - t0) > seconds:
            return samples, rounds


def end_to_end(wl, args, ledger, reference) -> dict:
    cmds = wl.commands(args.scratch)
    samples, rounds = timed_rounds(cmds, args.seconds, ledger, reference)
    samples["setup"] = measure_setup(wl.config, SETUP_REPS, ledger)
    print(f"rounds: {rounds} timed (closed loop, 1 client, --threads {wl.threads})")
    source = {"setup_s": "setup", "simulate_subj_per_s": "simulate",
              "ipw_subj_per_s": "ipw", "gformula_subj_per_s": "gformula",
              "joint_subj_per_s": "joint", "oracle_s": "oracle"}
    metrics = {}
    for name, unit in END_TO_END:
        if name == "peak_rss_mb":
            xs = [peak_rss_mb()]
        else:
            xs = samples.get(source[name], [])
        print(describe(name, unit, xs))
        metrics[name] = {"value": statistics.median(xs) if xs else 0.0, "unit": unit}
    return metrics


# -- traced run ------------------------------------------------------------


def layer_metrics(tracer, wl, args, round_bytes: int) -> dict:
    stats = tracer.stats

    def pick(pred):
        return [st for name, st in stats.items() if pred(name)]

    def calls(*names):
        return sum(stats[n].calls for n in names if n in stats)

    def size(*names):
        return sum(stats[n].size for n in names if n in stats)

    def self_s(*names):
        return sum(stats[n].self_s for n in names if n in stats)

    def self_where(pred):
        return sum(st.self_s for st in pick(pred))

    counts = ("trajectory.count_strictly_before", "trajectory.count_window")
    is_events = lambda n: n.startswith("intervention.") and n.endswith(".events")  # noqa: E731
    subj_ms = sorted(s * 1000.0 for s, _ in tracer.subjects)
    subj_events = [e for _, e in tracer.subjects]
    oracle_doc = checks.read_oracle(os.path.join(args.scratch, "out", "oracle"))
    sim_dir = os.path.join(args.scratch, "out", "simulate")
    return {
        "trajectory.count_calls": calls(*counts),
        "trajectory.events_scanned": size(*counts),
        "trajectory.count_s": self_s(*counts),
        "trajectory.histories_built": calls("trajectory.Trajectory.__init__"),
        "trajectory.history_events_copied": size("trajectory.Trajectory.__init__"),
        "trajectory.validate_calls": calls("trajectory.validate"),
        "trajectory.validate_s": self_s("trajectory.validate"),
        "compensator.plan_calls": calls("compensator.CompensatorModel.plan"),
        "compensator.plan_s": self_s("compensator.CompensatorModel.plan"),
        "compensator.predicate_evals": calls("compensator.Predicate.holds"),
        "compensator.mark_probs_calls": calls("compensator.CompensatorModel.mark_probs"),
        "compensator.regularity_calls": calls("compensator.check_regularity"),
        "compensator.regularity_s": self_s("compensator.check_regularity"),
        "compensator.log_density_s": self_s("compensator.log_density"),
        "intervention.events_calls": sum(st.calls for st in pick(is_events)),
        "intervention.events_s": self_where(is_events),
        "intervention.deviation_time_calls": calls("intervention.deviation_time"),
        "intervention.deviation_time_s": self_s("intervention.deviation_time"),
        "simulate.streams": calls("simulate.RandomizerStream.__init__"),
        "simulate.stream_init_s": self_s("simulate.RandomizerStream.__init__"),
        "simulate.inverse_transform_calls": calls("simulate.inverse_transform_time"),
        "simulate.inverse_transform_s": self_s("simulate.inverse_transform_time"),
        "simulate.self_s": self_s(*sorted(spans.SIMULATORS)),
        "simulate.events_per_subject_mean": statistics.fmean(subj_events) if subj_events else 0.0,
        "simulate.events_per_subject_max": max(subj_events, default=0),
        "simulate.subject_ms_p50": percentile(subj_ms, 50),
        "simulate.subject_ms_p99": percentile(subj_ms, 99),
        "weights.deviation_compensator_calls": calls("weights.deviation_compensator"),
        "weights.deviation_compensator_s": self_s("weights.deviation_compensator"),
        "weights.weight_path_s": self_s("weights.weight_path_product",
                                        "weights.weight_path_sde", "weights.WeightPath.at"),
        "weights.follower_fraction": checks.follower_fraction(sim_dir),
        "estimate.self_s": self_where(lambda n: n.startswith("estimate.")),
        "estimate.outcome_calls": calls("estimate.OutcomeFunctional.__call__"),
        "oracle.to_continuous_s": self_s("oracle.to_continuous"),
        "oracle.enumerate_s": self_s("oracle.enumerate_worlds"),
        "oracle.worlds": oracle_doc["worlds"],
        "oracle.cross_check_s": self_s("oracle.cross_check_continuous"),
        "oracle.cross_check_ok": int(bool(oracle_doc["cross_check"]["ok"])),
        "scenario.load_calls": calls("scenario.load_config"),
        "scenario.load_s": self_where(lambda n: n.startswith("scenario.")),
        "cli.self_s": self_where(lambda n: n.startswith("cli.") and n != "cli.pool_wait"),
        "cli.output_bytes": round_bytes,
        "cli.pool_wait_s": self_s("cli.pool_wait"),
    }


def percentile(sorted_xs: list[float], q: int) -> float:
    if not sorted_xs:
        return 0.0
    if len(sorted_xs) == 1:
        return sorted_xs[0]
    return statistics.quantiles(sorted_xs, n=100, method="inclusive")[q - 1]


def output_bytes(cmds) -> int:
    """Bytes the round's commands wrote, each command counted once."""
    return sum(
        os.path.getsize(os.path.join(c.out, f)) for c in cmds for f in os.listdir(c.out)
    )


def traced_round(tracer, cmds, ledger, reference, wl, args):
    """Run one round with the wrappers installed; returns its wall time and
    per-layer metrics (all but the cost slope and the overhead ratio)."""
    tracer.reset()
    tracer.install()
    tracer.active = True
    t0 = perf_counter()
    try:
        run_round(cmds, ledger, reference)
    finally:
        wall = perf_counter() - t0
        tracer.active = False
        tracer.uninstall()
    return wall, layer_metrics(tracer, wl, args, output_bytes(cmds))


def cost_slope(args, ledger) -> float:
    """Log-log slope of seconds per trajectory against events per
    trajectory, from untraced ``simulate`` runs at three long_paths rate
    levels (about 4x apart in event count)."""
    xs, ys = [], []
    for level, n in zip(workloads.SLOPE_LEVELS, SLOPE_SUBJECTS):
        n = max(1, int(n * args.scale))
        path = os.path.join(args.scratch, f"slope_{level}.json")
        with open(path, "w") as fh:
            json.dump(workloads.long_paths_config(args.seed, level), fh)
        out = os.path.join(args.scratch, "out", f"slope_{level}")
        cmd = workloads.Command(
            f"slope_{level}",
            ("simulate", "--config", path, "--seed", str(args.seed), "--n", str(n),
             "--out", out),
            out, n,
        )
        seconds = run_command(cmd, ledger, {})
        if seconds is None:
            return 0.0
        xs.append(math.log(checks.observed_events_per_subject(out, n)))
        ys.append(math.log(seconds / n))
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)


def per_layer(wl, args, ledger, reference) -> dict:
    tracer = spans.Tracer()
    cmds = wl.commands(args.scratch)
    untraced, traced, snapshots = [], [], []
    start = perf_counter()
    while not traced or (perf_counter() - start < args.seconds
                         and len(traced) < MAX_TRACED_ROUNDS):
        t0 = perf_counter()
        run_round(cmds, ledger, reference)
        untraced.append(perf_counter() - t0)
        wall, snap = traced_round(tracer, cmds, ledger, reference, wl, args)
        traced.append(wall)
        snapshots.append(snap)
    metrics = dict(snapshots[0])
    count_names = [n for n, unit in PER_LAYER if unit == "count"]
    ledger.check("per-layer counts repeat across traced rounds", [
        f"{n}: {[s[n] for s in snapshots]}" for n in count_names
        if any(s[n] != snapshots[0][n] for s in snapshots)
    ])
    for name, unit in PER_LAYER:
        if unit in ("s", "ms") and name in metrics:
            metrics[name] = statistics.median(s[name] for s in snapshots)
    metrics["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(untraced)
    os.makedirs(OUT_DIR, exist_ok=True)
    trace_path = os.path.join(OUT_DIR, f"trace-{wl.name}.jsonl")
    if wl.threads > 1:
        print(f"note: under {wl.name} the {wl.threads} worker processes are not traced; "
              "cli.* and trace.overhead_ratio come from this workload, every other "
              "layer metric from a traced --threads 1 round on the same inputs "
              "(the many_short split)")
        _, split = traced_round(tracer, wl.commands(args.scratch, threads=1), ledger,
                                reference, wl, args)
        for name, _ in PER_LAYER:
            if name in split and not name.startswith("cli."):
                metrics[name] = split[name]
    tracer.write(trace_path)
    print(f"spans: {len(tracer.spans) // 5} from the last traced round written to "
          f"{os.path.relpath(trace_path, ROOT)}")
    metrics["simulate.cost_slope"] = cost_slope(args, ledger)
    print(f"traced rounds: {len(traced)}, wall {[round(x, 3) for x in traced]} s; "
          f"untraced {[round(x, 3) for x in untraced]} s")
    out = {}
    for name, unit in PER_LAYER:
        value = metrics[name]
        out[name] = {"value": value, "unit": unit}
        print(f"{name}: {value:.6g} {unit}")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="shrink subject counts (smoke test); digests are "
                        "checked only at scale 1")
    args = parser.parse_args(argv)
    import_package()
    print("provenance: " + json.dumps(provenance(args)))
    os.makedirs(OUT_DIR, exist_ok=True)
    args.scratch = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR)
    try:
        result = run(args)
    finally:
        shutil.rmtree(args.scratch, ignore_errors=True)
    print(json.dumps(result))
    return 0


def run(args) -> dict:
    ledger = Ledger()
    wl = workloads.build(args.workload, args.seed, args.scratch, args.scale)
    reference: dict[str, str] = {}
    if wl.threads > 1:
        # many_short_mt's outputs must equal the serial ones byte for byte
        run_round(wl.commands(args.scratch, threads=1), ledger, reference)
    if args.trace:
        metrics = per_layer(wl, args, ledger, reference)
    else:
        metrics = end_to_end(wl, args, ledger, reference)
    if ledger.failed == 0:
        run_checks(wl, args, reference, ledger)
    for message in ledger.messages:
        print(f"FAILED {message}", file=sys.stderr)
    print(f"operations: {ledger.attempted} attempted, {ledger.failed} failed")
    return {"correct": ledger.failed == 0, "attempted": ledger.attempted,
            "failed": ledger.failed, "metrics": metrics}


if __name__ == "__main__":
    sys.exit(main())

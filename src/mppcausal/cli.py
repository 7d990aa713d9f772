"""Config-driven command line runner.

Subcommands: simulate, estimate, oracle, weights, check. All randomness
derives from --seed through per-subject counter-based streams, so results
are reproducible and independent of --threads.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from .estimate import (
    gformula_mc,
    ipw_estimate,
    joint_potential_mean,
)
from .intervention import predictability_check
from .scenario import ConfigError, load_config, scenario_hash
from .simulate import RandomizerStream, simulate_joint, simulate_observed
from .trajectory import restrict
from .weights import PositivityError, positivity_check, weight_path_product


def _chunks(n: int, threads: int):
    size = max(1, math.ceil(n / max(1, threads)))
    return [(a, min(a + size, n)) for a in range(0, n, size)]


def _run_chunked(worker, scenario, config_path, seed, n, threads, extra=()):
    """Run the worker on the loaded scenario, or in worker processes that
    each load the config."""
    if threads <= 1 or n < 2:
        return [worker(scenario, seed, 0, n, *extra)]
    with ProcessPoolExecutor(max_workers=threads) as pool:
        futures = [
            pool.submit(_load_and_run, worker, config_path, seed, a, b, *extra)
            for a, b in _chunks(n, threads)
        ]
        return [f.result() for f in futures]


# chunk workers live at module level so they pickle cleanly


def _load_and_run(worker, config_path, *args):
    return worker(load_config(config_path), *args)


def _simulate_chunk(scenario, seed, start, stop, t_eval):
    event_rows, summary_rows = [], []
    for i in range(start, stop):
        real = simulate_joint(scenario, RandomizerStream(seed, i))
        for arm, traj in (("observed", real.observed), ("potential", real.potential)):
            for time, mark in traj.events:
                event_rows.append((i, arm, time, scenario.space.mark_labels[mark]))
        wpath = weight_path_product(scenario, real.baseline, real.observed)
        y = scenario.outcome(restrict(real.potential, scenario.horizon, "at"))
        tau = real.deviation.tau_J
        summary_rows.append((i, "inf" if tau == math.inf else tau, y, wpath.W_T))
    return event_rows, summary_rows


def _ipw_chunk(scenario, seed, start, stop, t_eval):
    out = []
    for i in range(start, stop):
        baseline, traj = simulate_observed(scenario, RandomizerStream(seed, i))
        wpath = weight_path_product(scenario, baseline, traj)
        y = scenario.outcome(restrict(traj, min(t_eval, traj.horizon), "at"))
        out.append(wpath.at(t_eval) * y)
    return out


def _weights_chunk(scenario, seed, start, stop):
    rows = []
    for i in range(start, stop):
        baseline, traj = simulate_observed(scenario, RandomizerStream(seed, i))
        wpath = weight_path_product(scenario, baseline, traj)
        lam = wpath.lambda_path
        log_atoms = 0.0
        atom_at = dict(lam.atoms)
        for t, w in wpath.breakpoints:
            if t < wpath.tau_J and t in atom_at:
                log_atoms += math.log1p(-atom_at[t])
            rows.append((i, t, lam.continuous_at(t), log_atoms, w))
    return rows


def _write_csv(path: str, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def cmd_simulate(args) -> int:
    scenario = load_config(args.config)
    reg = scenario.model.regularity(scenario.interventions)
    if not reg.ok:
        raise RuntimeError("regularity violations: " + "; ".join(reg.violations))
    results = _run_chunked(
        _simulate_chunk, scenario, args.config, args.seed, args.n, args.threads,
        (args.t,),
    )
    os.makedirs(args.out, exist_ok=True)
    event_rows = [r for chunk in results for r in chunk[0]]
    summary_rows = [r for chunk in results for r in chunk[1]]
    _write_csv(
        os.path.join(args.out, "events.csv"),
        ("subject_id", "arm", "t", "mark"),
        event_rows,
    )
    _write_csv(
        os.path.join(args.out, "summary.csv"),
        ("subject_id", "tau_J", "Y_T", "W_T"),
        summary_rows,
    )
    return 0


def cmd_estimate(args) -> int:
    scenario = load_config(args.config)
    t_eval = args.t if args.t is not None else scenario.horizon
    if args.method == "ipw":
        results = _run_chunked(
            _ipw_chunk, scenario, args.config, args.seed, args.n, args.threads,
            (t_eval,),
        )
        contributions = np.array([x for chunk in results for x in chunk])
        value = float(np.mean(contributions))
        se = float(np.std(contributions, ddof=1) / math.sqrt(len(contributions)))
    elif args.method == "gformula":
        rep = gformula_mc(scenario, args.n, scenario.outcome, t_eval, args.seed)
        value, se = rep.value, rep.se
    else:
        rep = joint_potential_mean(scenario, args.n, scenario.outcome, t_eval, args.seed)
        value, se = rep.value, rep.se
    report = {
        "method": args.method,
        "estimand": f"{scenario.outcome.kind}(component="
        f"{scenario.space.component_names[scenario.outcome.component]})@t={t_eval}",
        "value": value,
        "se": se,
        "n": args.n,
        "seed": args.seed,
        "scenario_hash": scenario_hash(scenario.raw or {}),
    }
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, "estimate.json")
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2)
    print(json.dumps(report, indent=2))
    if args.dump_weights and args.method == "ipw":
        rows = [
            r
            for chunk in _run_chunked(
                _weights_chunk, scenario, args.config, args.seed, args.n, args.threads
            )
            for r in chunk
        ]
        _write_csv(
            os.path.join(args.out, "weights.csv"),
            ("subject_id", "t", "Lambda_c", "Lambda_atoms_logprod", "W"),
            rows,
        )
    return 0


def cmd_oracle(args) -> int:
    from .oracle import (
        cross_check_continuous,
        enumerate_worlds,
        oracle_g_formula,
        oracle_ipw,
        OraclePositivityError,
    )

    scenario = load_config(args.config)
    if scenario.discrete is None:
        raise RuntimeError("oracle requires a discrete scenario")
    ds = scenario.discrete
    worlds = enumerate_worlds(ds)
    g_value = oracle_g_formula(ds)
    positivity = "ok"
    ipw_value = None
    try:
        ipw_value = oracle_ipw(ds)
    except OraclePositivityError as exc:
        positivity = str(exc)
    check = cross_check_continuous(ds, scenario=scenario)
    report = {
        "g_formula": g_value,
        "ipw": ipw_value,
        "max_weight": max(
            (w.weight for w in worlds if w.follower and w.prob > 0), default=0.0
        ),
        "worlds": len(worlds),
        "positivity": positivity,
        "cross_check": {
            "ok": check.ok,
            "regularity_ok": check.regularity_ok,
            "messages": list(check.messages),
        },
        "scenario_hash": scenario_hash(scenario.raw or {}),
    }
    os.makedirs(args.out, exist_ok=True)
    with open(os.path.join(args.out, "oracle.json"), "w") as fh:
        json.dump(report, fh, indent=2)
    print(json.dumps(report, indent=2))
    return 0


def cmd_weights(args) -> int:
    scenario = load_config(args.config)
    reg = scenario.model.regularity(scenario.interventions)
    if not reg.ok:
        raise RuntimeError("regularity violations: " + "; ".join(reg.violations))
    rows = [
        r
        for chunk in _run_chunked(
            _weights_chunk, scenario, args.config, args.seed, args.n, args.threads
        )
        for r in chunk
    ]
    os.makedirs(args.out, exist_ok=True)
    _write_csv(
        os.path.join(args.out, "weights.csv"),
        ("subject_id", "t", "Lambda_c", "Lambda_atoms_logprod", "W"),
        rows,
    )
    return 0


def cmd_check(args) -> int:
    scenario = load_config(args.config)
    reg = scenario.model.regularity(scenario.interventions)
    findings = {"regularity": list(reg.violations)}
    predict = []
    # an irregular model cannot be simulated, so the sampled checks only run
    # when the regularity screen is clean
    for i in range(min(args.n, 50) if reg.ok else 0):
        baseline, traj = simulate_observed(scenario, RandomizerStream(args.seed, i))
        grid = sorted({t for t in traj.times} | {scenario.horizon / 2, scenario.horizon})
        for spec in scenario.interventions:
            rep = predictability_check(spec, baseline, traj, grid)
            if not rep.ok:
                predict.append(
                    f"intervention on "
                    f"{scenario.space.component_names[spec.target]} reads the "
                    f"future at t={rep.counterexample_t}"
                )
    findings["predictability"] = predict
    positivity = []
    if scenario.discrete is not None:
        from .oracle import OraclePositivityError, check_discrete_positivity

        try:
            check_discrete_positivity(scenario.discrete)
        except OraclePositivityError as exc:
            positivity.append(str(exc))
    else:
        for i in range(min(args.n, 50) if reg.ok else 0):
            baseline, traj = simulate_observed(scenario, RandomizerStream(args.seed, i))
            try:
                lam_report = positivity_check(
                    weight_path_product(scenario, baseline, traj).lambda_path
                )
                if not lam_report.ok:
                    positivity.append(lam_report.message)
            except PositivityError as exc:
                positivity.append(str(exc))
    findings["positivity"] = positivity
    print(json.dumps(findings, indent=2))
    ok = not (reg.violations or predict or positivity)
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mppcausal",
        description="Simulate marked-point-process data and estimate "
        "interventional means",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in (
        ("simulate", cmd_simulate),
        ("estimate", cmd_estimate),
        ("oracle", cmd_oracle),
        ("weights", cmd_weights),
        ("check", cmd_check),
    ):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--n", type=int, default=1000)
        p.add_argument("--t", type=float, default=None)
        p.add_argument("--threads", type=int, default=1)
        p.add_argument("--out", default=".")
        p.add_argument("--dump-weights", action="store_true")
        if name == "estimate":
            p.add_argument(
                "--method", choices=("ipw", "gformula", "joint"), default="ipw"
            )
        p.set_defaults(fn=fn)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (RuntimeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

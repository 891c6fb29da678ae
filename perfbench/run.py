#!/usr/bin/env python3
"""Seeded closed-loop benchmark of the contextuality solvers.

One client issues library calls one after another in this process, with
BLAS/OpenMP threads capped at one.  Run from the repository root:

    python3 perfbench/run.py --workload xu-large --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all            # every workload, one process
    python3 perfbench/run.py --self-test               # tiny sizes, asserts the report

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs each pass once
untraced and once traced and prints the per-layer metrics and the tracing
overhead.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  NOTES.md maps every
metric to its layer and workload.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from contextlib import redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
THREADS = "1"
DEFAULT_SEED = 1        # held-out seed for checking claims: 2
DEFAULT_SECONDS = 30.0
SETUP_REPEATS = 5
MAX_FAILURE_LINES = 8

# name -> unit.  The bounded ones are the end-to-end metrics of BENCHMARK.json;
# max_abs_err and failed_frac can be 0 and depend on the seed's boxes, so they
# are printed in the report and reported as check.* in the traced run.
END_TO_END = {
    "setup_s": "s", "wall_s": "s", "solve_ms_p50": "ms", "solve_ms_tail": "ms",
    "peak_rss_mb": "MB",
}
CHECKS = {"max_abs_err": "abs", "failed_frac": "ratio"}
XU_CASES = ("CH12", "CH14", "CH16", "PRxPR", "PRxPRxPR", "PMxPM")
LAYERS = ("boxes", "measures", "polytope", "inequalities", "symmetry", "bench")
PER_LAYER = {
    "boxes.validate_ms": "ms",
    "measures.iterations": "count",
    "measures.ms_per_iter": "ms/iter",
    "measures.joint_cells_per_s": "cells/s",
    "measures.converged_ratio": "ratio",
    "measures.gap_max": "bits",
    "measures.x_max_ms": "ms",
    "measures.x_max_inner_iters": "count",
    "polytope.cost_dense_ms": "ms",
    "polytope.cost_colgen_ms": "ms",
    "polytope.scan_ms": "ms",
    "polytope.scan_assignments_per_s": "1/s",
    "polytope.bracket_width_max": "abs",
    "polytope.bracket_inversions": "count",
    "inequalities.bounds_ms": "ms",
    "inequalities.beta_us": "us",
    "symmetry.closure_ms": "ms",
    "symmetry.group_order": "count",
    "symmetry.twirl_us": "us",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "trace.overhead_s": "s",
    **{f"check.{name}": unit for name, unit in CHECKS.items()},
}
UNAVAILABLE = (
    "HiGHS time vs pricing-scan time inside contextuality_cost",
    "EM steps vs Frank-Wolfe steps (and line-search evaluations) inside x_fixed",
)


def machine_record() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
    }


def child_import_s(src: Path) -> float:
    """Time ``import contextuality`` in a fresh interpreter (with numpy and scipy)."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
            "import contextuality; print(time.perf_counter() - t)")
    out = subprocess.run([sys.executable, "-c", code, str(src)], capture_output=True,
                         text=True, check=True, timeout=120)
    return float(out.stdout)


def median(values, default=0.0):
    values = list(values)
    return statistics.median(values) if values else default


def tail(values: list[float]) -> tuple[float, float]:
    """Highest sample with at least ten samples beyond it (else the maximum), and its percentile."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def layer_metrics(rec, states, paired, ops) -> dict:
    from tracing import layer_of, self_times

    spans = rec.spans
    by = defaultdict(list)
    for s in spans:
        by[s.name].append(s)

    def med(name, scale):
        return median(s.duration * scale for s in by[name])

    validate = defaultdict(float)
    for s in by["boxes.validate_box"] + by["boxes.check_consistency"]:
        validate[(s.request, s.attrs.get("case"))] += s.duration
    xu = by["measures.x_u"]
    xu_iters = sum(s.attrs["iterations"] for s in xu)
    xu_time = sum(s.duration for s in xu)
    solved = xu + by["measures.x_max"]
    costs = by["polytope.contextuality_cost"]
    scans = by["polytope.optimize_linear"]
    m = {
        "boxes.validate_ms": median(validate.values()) * 1e3,
        "measures.iterations": xu_iters,
        "measures.ms_per_iter": xu_time * 1e3 / xu_iters if xu_iters else 0.0,
        "measures.joint_cells_per_s": (
            sum(s.attrs["iterations"] * s.attrs["joint_dim"] for s in xu) / xu_time
            if xu_time else 0.0),
        "measures.converged_ratio": (
            sum(bool(s.attrs["converged"]) for s in solved) / len(solved) if solved else 0.0),
        "measures.gap_max": max((s.attrs["gap"] for s in xu), default=0.0),
        "measures.x_max_ms": med("measures.x_max", 1e3),
        "measures.x_max_inner_iters": sum(s.attrs["iterations"] for s in by["measures.x_max"]),
        "polytope.cost_dense_ms": median(s.duration * 1e3 for s in costs if s.attrs["dense"]),
        "polytope.cost_colgen_ms": median(s.duration * 1e3 for s in costs if not s.attrs["dense"]),
        "polytope.scan_ms": med("polytope.optimize_linear", 1e3),
        "polytope.scan_assignments_per_s": (
            sum(s.attrs["assignments"] for s in scans) / sum(s.duration for s in scans)
            if scans else 0.0),
        "polytope.bracket_width_max": max((s.attrs["hi"] - s.attrs["lo"] for s in costs),
                                          default=0.0),
        "polytope.bracket_inversions": sum(
            not 0.0 <= s.attrs["lo"] <= s.attrs["hi"] <= 1.0 for s in costs),
        "inequalities.bounds_ms": med("inequalities.verify_bounds_by_lp", 1e3),
        "inequalities.beta_us": med("inequalities.beta", 1e6),
        "symmetry.closure_ms": median(st.closure_s for st in states) * 1e3,
        "symmetry.group_order": states[-1].group_order,
        "symmetry.twirl_us": med("symmetry.twirl", 1e6),
        "trace.overhead_s": median(paired),
    }
    # Per case, for the cases that ran (xu-large); reported, not in BENCHMARK.json.
    for case in XU_CASES:
        mine = [s for s in xu if s.attrs.get("case") == case]
        iters = sum(s.attrs["iterations"] for s in mine)
        if iters:
            m[f"measures.ms_per_iter.{case}"] = sum(s.duration for s in mine) * 1e3 / iters

    # Self time per layer and traced pass; the median over passes is reported.
    own = self_times(spans)
    pass_of: dict[int, int] = {}
    per_pass = defaultdict(float)
    for s in spans:
        pass_of[s.sid] = s.attrs["pass"] if s.name == "bench.pass" else pass_of[s.parent]
        per_pass[(layer_of(s.name), pass_of[s.sid])] += own[s.sid]
    passes = sorted(set(pass_of.values()))
    for layer in LAYERS:
        m[f"{layer}.self_s"] = median(per_pass[(layer, p)] for p in passes)
    m.update({f"check.{k}": v for k, v in check_metrics(ops).items()})
    return m


def check_metrics(ops) -> dict:
    errors = [op.abs_err for op in ops if op.abs_err is not None]
    return {
        "max_abs_err": float(max(errors, default=0.0)),
        "failed_frac": sum(not op.ok for op in ops) / len(ops),
    }


def run_workload(name: str, seed: int, seconds: float, traced: bool, tiny: bool,
                 perturb: str | None = None):
    """Set up and run one workload; return ``(result, recorder, checked ops)``."""
    import numpy as np

    import hostclock
    from tracing import Recorder
    from workloads import BRACKET, WORKLOADS, Checker

    wl = WORKLOADS[name](tiny)
    passes = max(1, round(seconds / wl.nominal_pass_s))
    if traced:
        passes = max(1, round(passes / 2))  # each pass runs untraced and traced

    setup_chk = Checker(Recorder(name))
    setups, setup_hosts, imports, states = [], [], [], []

    def set_up() -> None:
        # The library is imported once per process, so each set-up times the
        # import in a fresh interpreter and the rest of the set-up here.
        stamps = [hostclock.stamp(wl.probe)]
        imports.append(child_import_s(ROOT / "src"))
        start = time.perf_counter()
        state = wl.build(np.random.default_rng(seed), passes)
        wl.warm_up(state, setup_chk)
        end = time.perf_counter()
        setups.append(imports[-1] + end - start)
        stamps.append(hostclock.stamp(wl.probe))
        setup_hosts.append(hostclock.factor(wl.probe, stamps, start - imports[-1], end))
        states.append(state)

    # Two set-ups give the inputs of the untraced and the traced passes; the
    # rest are spread between the passes, so that their median does not hang
    # on the host's state at the start of the run.
    set_up()
    set_up()
    later = [round(passes * (k + 1) / (SETUP_REPEATS - 1)) for k in range(SETUP_REPEATS - 2)]

    rec = Recorder(name)
    chk = Checker(rec, perturb, wl.probe)

    # Untraced times of each job and each solve, by name, over the passes,
    # at the reference host speed (see hostclock); raw job times as well.
    jobs, raw_jobs, solves = defaultdict(list), defaultdict(list), defaultdict(list)
    hosts = []

    def timed_pass(p: int, with_trace: bool) -> float:
        # Each state holds its own copies of the same inputs, so the traced
        # run of a pass does not find caches its untraced twin filled.
        first_op, first_job = len(chk.ops), len(chk.jobs)
        rec.traced = with_trace
        chk.start_pass()
        start = time.perf_counter()
        with rec.span("bench.pass", request=str(p)) as span:
            if span is not None:
                span.attrs["pass"] = p
            wl.run_pass(states[1] if with_trace else states[0], p, chk)
        rec.traced = False
        wall = time.perf_counter() - start
        chk.end_pass()
        if not with_trace:
            for job in chk.jobs[first_job:]:
                jobs[job.case].append(job.seconds / job.host)
                raw_jobs[job.case].append(job.seconds)
                hosts.append(job.host)
            for op in chk.ops[first_op:]:
                if op.solve:
                    solves[(op.name, op.case)].append(op.seconds / op.host * 1e3)
        return wall

    walls, paired = [], []
    for p in range(passes):
        for _ in range(later.count(p)):
            set_up()
        if traced:
            order = (False, True) if p % 2 == 0 else (True, False)
            wall = {t: timed_pass(p, t) for t in order}
            walls.append(wall[False])
            paired.append(wall[True] - wall[False])
        else:
            walls.append(timed_pass(p, False))
    for _ in range(later.count(passes)):
        set_up()

    # Every pass runs the same job list, so each job and each solve has one
    # sample per pass, scaled to the reference host speed.  Its median over
    # the passes is its time.  (The fastest scaled sample is not: it picks
    # the moments at which the probe overstated the host's slowdown.)
    job_s = {case: median(v) for case, v in jobs.items()}
    solve_ms = sorted(median(v) for v in solves.values())
    tail_ms, tail_pct = tail(solve_ms)
    failed = [op for op in chk.ops if not op.ok]
    e2e = {
        "setup_s": median(t / h for t, h in zip(setups, setup_hosts)),
        "wall_s": sum(job_s.values()),
        "solve_ms_p50": median(solve_ms),
        "solve_ms_tail": tail_ms,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        **check_metrics(chk.ops),
    }
    result = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(traced),
        "tiny": tiny, "passes": passes, "setup_repeats": len(setups), "probe": wl.probe,
        "host_median": median(hosts, 1.0),
        "imports_s": imports, "setups_s": setups, "setup_hosts": setup_hosts,
        "walls_s": walls, "jobs_s": jobs, "raw_jobs_s": raw_jobs,
        "solves_ms": {f"{n}[{c}]": v for (n, c), v in solves.items()},
        "solves": len(solve_ms), "tail_pct": tail_pct,
        "correct": all(op.ok or op.reason.startswith(BRACKET)
                       for op in chk.ops + setup_chk.ops),
        "attempted": len(chk.ops), "failed": len(failed),
        "failures": [f"{op.name}[{op.case}]: {op.reason}" for op in failed + [
            op for op in setup_chk.ops if not op.ok]],
        "end_to_end": e2e,
        "per_layer": layer_metrics(rec, states, paired, chk.ops) if traced else {},
    }
    return result, rec, chk.ops


def report(result: dict, machine: dict) -> None:
    """Print one workload's human-readable report (everything but the JSON line)."""
    r = result
    print(f"# perfbench workload={r['workload']} seed={r['seed']} seconds={r['seconds']:g} "
          f"trace={r['trace']} tiny={int(r['tiny'])} passes={r['passes']} "
          f"setup_repeats={r['setup_repeats']}")
    print("# machine: " + json.dumps(machine, sort_keys=True))
    print(f"# closed loop, 1 client; attempted={r['attempted']} failed={r['failed']} "
          f"correct={r['correct']}")
    e = r["end_to_end"]
    notes = {
        "setup_s": f"median of {r['setup_repeats']} set-ups at the reference host speed, "
                   f"each with an import; raw median {median(r['setups_s']):.3f} s, import "
                   f"{median(r['imports_s']):.3f} s, host slowdown "
                   f"{median(r['setup_hosts']):.3f}",
        "wall_s": f"sum over {len(r['jobs_s'])} jobs of each job's median of {r['passes']} "
                  f"passes at the reference host speed ({r['probe']} probe, median host "
                  f"slowdown {r['host_median']:.3f}); raw sum of medians "
                  f"{sum(median(v) for v in r['raw_jobs_s'].values()):.4f} s; pass walls: "
                  f"fastest {min(r['walls_s']):.4f} s, median {median(r['walls_s']):.4f} s",
        "solve_ms_p50": f"median over n={r['solves']} solves of each solve's median of "
                        f"{r['passes']} passes at the reference host speed",
        "solve_ms_tail": (
            f"p{r['tail_pct']:.2f} with 10 solves beyond it" if r["tail_pct"] < 100.0
            else "the maximum, as no solve has 10 beyond it") + (
            f", of the same n={r['solves']} per-solve times"),
        "peak_rss_mb": "ru_maxrss of this process",
        "max_abs_err": "largest |value - reference| over checked calls",
        "failed_frac": f"{r['failed']}/{r['attempted']} checked calls",
    }
    if not r["trace"]:
        for key, unit in {**END_TO_END, **CHECKS}.items():
            print(f"{r['workload']} {key} = {e[key]!r} {unit}  ({notes[key]})")
    else:
        for key, value in r["per_layer"].items():
            print(f"{r['workload']} {key} = {value!r} {PER_LAYER.get(key, 'ms/iter')}")
        print(f"# trace.overhead_s = traced minus untraced wall of the same pass, "
              f"median of {r['passes']} pairs")
        for what in UNAVAILABLE:
            print(f"# unavailable from the public API: {what}")
    for line in r["failures"][:MAX_FAILURE_LINES]:
        print(f"# failed: {line}")
    if len(r["failures"]) > MAX_FAILURE_LINES:
        print(f"# failed: ... {len(r['failures']) - MAX_FAILURE_LINES} more in {OUT_DIR.name}/")


def summary_line(results: list[dict]) -> str:
    def metrics(r):
        table = PER_LAYER if r["trace"] else END_TO_END
        values = r["per_layer"] if r["trace"] else r["end_to_end"]
        return {k: {"value": values[k], "unit": u} for k, u in table.items()}

    if len(results) == 1:
        merged = metrics(results[0])
    else:
        merged = {f"{r['workload']}.{k}": v for r in results for k, v in metrics(r).items()}
    return json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": merged,
    })


def write_outputs(result: dict, rec, machine: dict) -> None:
    stem = f"{result['workload']}-seed{result['seed']}-trace{result['trace']}"
    if result["trace"]:
        rec.write(OUT_DIR / f"spans-{stem}.jsonl", {"machine": machine, "workload": stem})
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    (OUT_DIR / f"result-{stem}.json").write_text(
        json.dumps({"machine": machine, **result}, indent=1) + "\n")


def self_test(machine: dict) -> int:
    """Tiny run of every workload: metric names and units, and a failing reference."""
    from workloads import WORKLOADS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END, "end_to_end drift"
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER, "per_layer drift"
    assert {w["name"] for w in spec["workloads"]} <= set(WORKLOADS)
    for name in WORKLOADS:
        for traced in (False, True):
            result, _, ops = run_workload(name, DEFAULT_SEED, 0.0, traced, True)
            if not traced:
                clean_failed, clean_ops = result["failed"], ops
            text = io.StringIO()
            with redirect_stdout(text):
                report(result, machine)
            table = {**PER_LAYER} if traced else {**END_TO_END, **CHECKS}
            for key, unit in table.items():
                assert f"{name} {key} = " in text.getvalue(), f"{name}: {key} not printed"
                assert f" {unit}" in text.getvalue().split(f"{name} {key} = ")[1].split("\n")[0]
            line = json.loads(summary_line([result]))
            assert set(line) == {"correct", "attempted", "failed", "metrics"}
            assert line["correct"] and line["attempted"] >= 1, result["failures"]
            assert set(line["metrics"]) == set(PER_LAYER if traced else END_TO_END)
            print(f"self-test {name} trace={int(traced)}: {len(table)} metrics printed, "
                  f"{line['attempted']} calls, {line['failed']} failed")
        # Shift the reference of the first call that passed its reference check.
        case = next(op.case for op in clean_ops if op.ok and op.abs_err is not None)
        bad, _, _ = run_workload(name, DEFAULT_SEED, 0.0, False, True, perturb=case)
        hit = [f for f in bad["failures"] if f"[{case}]" in f]
        assert hit and not bad["correct"] and bad["failed"] > clean_failed, bad["failures"]
        print(f"self-test {name}: perturbed reference registers as {hit[0]}")
    print("self-test passed")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=("xu-large", "cost-colgen", "small-batch", "all"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="measured time at the seed's speed; sets the number of passes")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "contextuality" / "__init__.py").is_file():
        print(f"perfbench: no library source at {src}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = THREADS
    sys.path.insert(0, str(src))
    import contextuality

    if not Path(contextuality.__file__).resolve().is_relative_to(src.resolve()):
        print(f"perfbench: imported contextuality from {contextuality.__file__}, "
              f"not from {src}", file=sys.stderr)
        return 2

    machine = machine_record()
    if args.self_test:
        return self_test(machine)
    names = ("xu-large", "cost-colgen", "small-batch") if args.workload == "all" else (
        args.workload,)
    results = []
    for name in names:
        result, rec, _ = run_workload(name, args.seed, args.seconds, bool(args.trace), False)
        report(result, machine)
        write_outputs(result, rec, machine)
        results.append(result)
    print(summary_line(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The incalg benchmark: three closed-loop workloads with one client each.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py [--smoke]      # every workload untraced, then traced

A run generates its inputs from the seed in fresh processes (set up several
times; the median is reported), then issues a fixed query list, each query
waiting for the previous one, and checks every answer after the clock has
stopped.  Times are scaled to a fixed reference speed (see shared.Clock).
With ``--trace 1`` the run wraps the library from outside and reports the
per-layer metrics instead of the end-to-end ones.

The last line of standard output is the result object; the line before it
holds the machine facts, the unscaled times and the sample counts.  The exit
code is 0 only when every answer was right.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from time import perf_counter

T_START = perf_counter()

import shared  # noqa: E402

SETUP_REPS = 5
STARTUP_REPS = 5
RUN = os.path.abspath(__file__)
GEN = os.path.join(shared.BENCH_DIR, "gen.py")
NOT_MEASURED = [
    "hardware counters (cycles, cache misses): need perf access",
    "CPU frequency: not controlled by the benchmark; times are scaled by "
    "a reference loop instead (unscaled ones above)",
    "cli-mix peak RSS is the largest child, input generator included, "
    "not each query's own",
]


def setup(mod, args, workdir, traced, clock):
    """Generate the inputs in fresh processes and load them; every
    repetition must produce the same bytes.  Returns the median scaled and
    raw time of a repetition, the count, and the loaded state."""
    gen_args = ["--workload", args.workload, "--seed", str(args.seed)]
    gen_args += ["--smoke"] if args.smoke else []
    scaled, raw, texts, state = [], [], [], None
    for r in range(1 if args.smoke else SETUP_REPS):
        path = os.path.join(workdir, f"inputs{r}.json")

        def rep():
            shared.run_child([GEN] + gen_args + ["--out", path])
            with open(path) as fh:
                texts.append(fh.read())
            return mod.load(json.loads(texts[-1]),
                            os.path.join(workdir, f"load{r}"), traced)
        state, raw_s, scaled_s = clock.time(rep)
        if isinstance(state, Exception):
            raise state
        if texts[-1] != texts[0]:
            raise shared.BenchError("one seed generated two different inputs")
        scaled.append(scaled_s)
        raw.append(raw_s)
    return statistics.median(scaled), statistics.median(raw), len(raw), state


def session(mod, args, traced, import_s):
    """One user session: set up, run the timed queries, check the answers."""
    os.makedirs(shared.WORK_ROOT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-",
                               dir=shared.WORK_ROOT)
    try:
        clock = shared.Clock(mod.IN_PROCESS)
        import_scaled = import_s * clock.nominal / clock.ref
        setup_s, setup_raw, setup_reps, state = setup(mod, args, workdir,
                                                      traced, clock)
        tr = None
        if traced and mod.IN_PROCESS:
            import tracer
            tr = tracer.Tracer().install()
        raw, scaled, results = [], [], []
        for n in range(len(state["queries"])):
            result, raw_s, scaled_s = clock.time(lambda: mod.query(state, n))
            raw.append(raw_s)
            scaled.append(scaled_s)
            results.append(result)
        if tr is not None:
            tr.uninstall()
        peak = shared.peak_rss_mb(include_children=not mod.IN_PROCESS)
        failures = []
        for n, result in enumerate(results):
            if isinstance(result, Exception):
                failures.append((n, "".join(traceback.format_exception(result))))
                continue
            try:
                why = mod.check(state, n, result)
            except Exception:
                why = "check raised:\n" + traceback.format_exc()
            if why is not None:
                failures.append((n, why))
        trace_state = None
        if traced:
            trace_state = tr.state if tr is not None else mod.collect_trace(state)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(shared.WORK_ROOT)
        except OSError:  # another run still uses it
            pass
    p50, p90 = shared.percentiles_ms(scaled)
    metrics = {"setup_s": (import_scaled + setup_s, "s"),
               "wall_s": (sum(scaled), "s"),
               "query_ms.p50": (p50, "ms"), "query_ms.p90": (p90, "ms"),
               "peak_rss_mb": (peak, "MB")}
    raw_p50, raw_p90 = shared.percentiles_ms(raw)
    unscaled = {"setup_s": import_s + setup_raw, "wall_s": sum(raw),
                "query_ms.p50": raw_p50, "query_ms.p90": raw_p90,
                "reference_ms.median": 1000 * statistics.median(clock.refs),
                "reference_ms.min": 1000 * min(clock.refs),
                "reference_ms.max": 1000 * max(clock.refs)}
    samples = {"setup_s": setup_reps, "wall_s": 1,
               "query_ms.p50": len(scaled), "query_ms.p90": len(scaled),
               "query_ms.beyond_p90": sum(1 for t in scaled if 1000 * t > p90),
               "peak_rss_mb": 1, "reference": len(clock.refs)}
    return {"metrics": metrics, "attempted": len(results),
            "failures": failures, "samples": samples, "trace": trace_state,
            "unscaled": unscaled}


def cli_startup_ms():
    times = []
    for _ in range(STARTUP_REPS):
        t0 = perf_counter()
        shared.run_child(["-c", "import incalg.cli"])
        times.append(1000 * (perf_counter() - t0))
    return statistics.median(times)


def run_workload(args, import_s):
    shared.pin_to_one_cpu()
    mod = shared.workload_module(args.workload)
    run = session(mod, args, bool(args.trace), import_s)
    failures, samples = run["failures"], run["samples"]
    correct = not failures
    if args.trace:
        import tracer
        values = tracer.to_metrics(run["trace"])
        values["cli.startup_ms"] = cli_startup_ms()
        out = {name: {"value": values[name], "unit": unit}
               for name, unit in tracer.metric_names()}
        samples["cli.startup_ms"] = STARTUP_REPS
    else:
        out = {name: {"value": v, "unit": u}
               for name, (v, u) in run["metrics"].items()}
    for n, why in failures[:10]:
        print(f"FAILED query {n}: {why}", file=sys.stderr)
    attempted = run["attempted"]
    facts = dict(shared.machine_facts(), workload=args.workload,
                 seed=args.seed, trace=args.trace,
                 smoke=args.smoke, second_seed=shared.SECOND_SEED,
                 samples=samples, attempted=attempted, failed=len(failures),
                 failed_ratio=len(failures) / attempted,
                 wall_s=run["metrics"]["wall_s"][0], unscaled=run["unscaled"],
                 not_measured=NOT_MEASURED)
    print(json.dumps({"facts": facts}, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": len(failures), "metrics": out}))
    return 0 if correct else 1


def run_all(args):
    """Every workload untraced, then every workload traced, each in its own
    process; prints every metric by name with its unit, and per workload
    the tracing overhead: traced wall_s over untraced wall_s."""
    ok = True
    untraced_wall = {}
    for trace in (0, 1):
        for name in shared.WORKLOADS:
            cmd = [sys.executable, RUN, "--workload", name, "--seed",
                   str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)] + (["--smoke"] if args.smoke else [])
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  timeout=4 * shared.CHILD_TIMEOUT_S)
            sys.stderr.write(proc.stderr)
            try:
                lines = proc.stdout.strip().splitlines()
                facts = json.loads(lines[-2])["facts"]
                result = json.loads(lines[-1])
            except (IndexError, json.JSONDecodeError):
                print(f"{name} trace={trace}: no result (exit {proc.returncode})")
                ok = False
                continue
            ok = ok and result["correct"] and proc.returncode == 0
            print(f"== {name} trace={trace} correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}")
            for metric, value in result["metrics"].items():
                print(f"  {metric:48s} {value['value']:14.4f} {value['unit']}")
            if not trace:
                untraced_wall[name] = facts["wall_s"]
            elif name in untraced_wall:
                ratio = facts["wall_s"] / untraced_wall[name]
                print(f"  {'trace.overhead_ratio':48s} {ratio:14.4f} ratio")
    return 0 if ok else 1


def main(argv=None):
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(shared.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20,
                        help="part of the benchmark command line; the query "
                        "lists are fixed (about this long at the reference "
                        "speed) so that every run measures the same work")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="smallest instance of each workload, set up once")
    args = parser.parse_args(argv)
    try:
        shared.use_source_tree()
        import_s = perf_counter() - T_START
        if args.workload is None:
            return run_all(args)
        return run_workload(args, import_s)
    except (shared.BenchError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

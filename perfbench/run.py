"""sppsim benchmark: time-to-accurate-solution for three workloads, plus a traced run.

    python3 perfbench/run.py --workload adaptive --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 0     # every workload, one table

Run from the repository root.  Each workload runs in a fresh child process
(``worker.py``) with PYTHONPATH pointing at ``src`` and every BLAS/OpenMP
thread variable pinned to 1.  ``setup_s`` is the median over SETUP_TRIALS
fresh children of the time from process start to the first timed call.

With ``--trace 0`` the last line of standard output is a JSON object holding
every end-to-end metric of BENCHMARK.json; with ``--trace 1`` it holds every
per-layer metric instead.  The run exits 1 when a correctness check fails and
2 when the program cannot be run at all.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_TRIALS = 3
DEADLINE_S = 170
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def child_env() -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(mode, name, args, env, deadline) -> tuple[dict, float]:
    """Run worker.py; return its JSON result and the monotonic spawn time."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--mode", mode,
           "--root", ROOT, "--workload", name, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    spawned = time.monotonic()
    # own session, so that a timeout also stops the `sppsim run` the worker starts
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    if proc.returncode != 0 or not out.strip():
        raise RuntimeError(f"worker {mode} exited with {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1]), spawned


def run_workload(workload, args, spec, env, deadline) -> dict:
    setups = []
    for _ in range(SETUP_TRIALS - 1):
        res, spawned = spawn("setup", workload, args, env, deadline)
        setups.append(res["setup_end"] - spawned)
    res, spawned = spawn("run", workload, args, env, deadline)
    setups.append(res["setup_end"] - spawned)

    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    if args.trace:
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in res["per_layer"].items()}
        wanted = [m["name"] for m in spec["per_layer"]]
    else:
        values = {"wall_s": statistics.median(res["wall_s"]),
                  "setup_s": statistics.median(setups),
                  "peak_rss_mb": res["peak_rss_mb"],
                  "l2_error": res.get("l2_error", float("nan")),
                  "oracle_err": res.get("oracle_err", float("nan"))}
        metrics = {name: {"value": v, "unit": units[name]} for name, v in values.items()}
        wanted = [m["name"] for m in spec["end_to_end"]]
    missing = [n for n in wanted if n not in metrics]
    if missing:
        raise RuntimeError(f"worker gave no value for {missing}")
    for name in wanted:
        if metrics[name]["unit"] != units[name]:
            raise RuntimeError(f"{name}: unit {metrics[name]['unit']} != {units[name]}")

    print(f"== {workload} seed {args.seed} trace {args.trace}: "
          f"inputs {res['env']['inputs']}")
    print(f"   numpy {res['env']['numpy']}, scipy {res['env']['scipy']}, "
          f"nproc {os.cpu_count()}, " + ", ".join(f"{v}={env[v]}" for v in THREAD_VARS))
    print(f"   timed reps {len(res['wall_s'])}: " + ", ".join(f"{w:.3f}" for w in res["wall_s"])
          + " s; setup trials: " + ", ".join(f"{s:.3f}" for s in setups) + " s")
    for name in wanted:
        print(f"   {name:34s} {metrics[name]['value']:.6g} {metrics[name]['unit']}")
    rate = res["failed"] / res["attempted"]
    print(f"   {'fail_rate':34s} {rate:.6g} 1 ({res['failed']} of {res['attempted']} operations)")
    for name, jump in res.get("rss_jumps_mb", []):
        print(f"   peak-RSS jump {jump:9.1f} MB in {name}")
    if "trace_file" in res:
        print(f"   spans written to {res['trace_file']}")
    for name, ok, detail in res["checks"]:
        print(f"   {'PASS' if ok else 'FAIL'} {name}: {detail}")
    return {"correct": all(ok for _, ok, _ in res["checks"]),
            "attempted": res["attempted"], "failed": res["failed"],
            "metrics": {n: metrics[n] for n in wanted}}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=int, default=None)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "sppsim", "__init__.py")):
        print(f"no sppsim sources under {ROOT}/src", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names + ["all"]:
        p.error(f"--workload must be one of {names + ['all']}")
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    deadline = time.monotonic() + DEADLINE_S
    env = child_env()
    # the build: byte-compile the sources so no timed import compiles them
    subprocess.run([sys.executable, "-m", "compileall", "-q",
                    os.path.join(ROOT, "src", "sppsim")], check=True, env=env,
                   stdout=subprocess.DEVNULL)

    results = {}
    for name in (names if args.workload == "all" else [args.workload]):
        try:
            results[name] = run_workload(name, args, spec, env, deadline)
        except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
            print(f"{name}: {exc}", file=sys.stderr)
            return 2
        deadline = time.monotonic() + DEADLINE_S
    if args.workload == "all":
        summary = {"correct": all(r["correct"] for r in results.values()),
                   "attempted": sum(r["attempted"] for r in results.values()),
                   "failed": sum(r["failed"] for r in results.values()),
                   "metrics": {f"{w}.{m}": v for w, r in results.items()
                               for m, v in r["metrics"].items()}}
    else:
        summary = results[args.workload]
    print(json.dumps(summary), flush=True)
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

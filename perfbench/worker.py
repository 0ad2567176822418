"""One workload in one fresh interpreter; started by run.py, never by hand.

Mode ``setup`` imports sppsim, builds the workload's set-up state and reports
the monotonic time at which the first timed call could start.  Mode ``run``
does the same, then runs the timed repetitions, checks the outputs outside the
timed phase and prints one JSON line with the raw measurements.

With ``--trace 1`` it runs one untraced and one traced repetition instead: the
difference of their times is the tracing overhead, their outputs must be
identical, and the traced one gives the per-layer metrics.
"""

import argparse
import json
import os
import resource
import shutil
import subprocess
import sys
import tempfile
import time


def _parse(argv):
    p = argparse.ArgumentParser()
    p.add_argument("--mode", choices=("setup", "run"), required=True)
    p.add_argument("--root", required=True)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return p.parse_args(argv)


def _timed(wl, out_root, tracer=None):
    """One repetition in a fresh output directory; returns (Rep, seconds)."""
    tmp = tempfile.mkdtemp(dir=out_root)
    try:
        if tracer is not None:
            tracer.install()
        try:
            t = time.perf_counter()
            rep = wl.run_once(tmp)
            dt = time.perf_counter() - t
        finally:
            if tracer is not None:
                tracer.uninstall()
    finally:
        shutil.rmtree(tmp)
    return rep, dt


def _cli_matches(wl, out_root, expected: bytes) -> tuple[str, bool, str]:
    """Run the same configuration through ``sppsim run`` and compare convergence.csv."""
    tmp = tempfile.mkdtemp(dir=out_root)
    try:
        subprocess.run([sys.executable, "-m", "sppsim.cli", *wl.cli_args(tmp)],
                       check=True, stdout=subprocess.DEVNULL, timeout=150)
        with open(os.path.join(tmp, "convergence.csv"), "rb") as fh:
            same = fh.read() == expected
    finally:
        shutil.rmtree(tmp)
    return ("convergence.csv equals `sppsim run` output", same, "byte compare")


def _per_layer(tracer_mod, tr, traced_s, untraced_s, setup_part):
    """Span metrics cover set-up and the traced rep; coverage covers the rep alone."""
    metrics = {name: (fn(tr), unit) for name, (unit, fn) in tracer_mod.PER_LAYER.items()}
    program_s = traced_s - (tr.hook_s - setup_part[1])
    covered = tr.covered_s() - setup_part[0]
    metrics["harness.self.s"] = (program_s - covered, "s")
    metrics["trace.coverage"] = (covered / program_s, "1")
    metrics["trace.wall_s"] = (traced_s, "s")
    metrics["trace.overhead_s"] = (traced_s - untraced_s, "s")
    for layer, (self_s, jump_kb) in tr.layer_totals().items():
        metrics[f"{layer}.s"] = (self_s, "s")
        metrics[f"{layer}.rss_jump_mb"] = (jump_kb / 1024, "MB")
    return {k: (float(v), u) for k, (v, u) in metrics.items()}


def _write_trace(path, tr):
    by_jump = sorted(tr.stats.items(), key=lambda kv: -kv[1][3])
    with open(path, "w") as fh:
        json.dump({
            "spans": {name: {"calls": c, "total_s": t, "self_s": s, "self_rss_jump_mb": j / 1024}
                      for name, (c, t, s, j) in sorted(tr.stats.items())},
            "counts": dict(tr.counts),
            "timeline": [{"name": n, "depth": d, "start_s": a, "end_s": b,
                          "maxrss_mb": r / 1024} for n, d, a, b, r in tr.timeline],
            "rss_jumps_mb": [[name, st[3] / 1024] for name, st in by_jump[:10]],
        }, fh, indent=1)
    return [(name, st[3] / 1024) for name, st in by_jump[:5] if st[3] > 0]


def main(argv=None) -> int:
    args = _parse(argv)
    src = os.path.join(args.root, "src")
    sys.path.insert(0, src)
    import numpy
    import scipy
    import sppsim
    if not os.path.abspath(sppsim.__file__).startswith(os.path.abspath(src) + os.sep):
        print(f"sppsim imported from {sppsim.__file__}, not from {src}", file=sys.stderr)
        return 2
    import tracer as tracer_mod
    import workloads

    wl = workloads.WORKLOADS[args.workload](args.seed)
    # a traced run also traces set-up, where pml_sweep builds its mesh
    tr = tracer_mod.Tracer() if args.mode == "run" and args.trace else None
    if tr:
        tr.install()
    try:
        wl.setup()
    finally:
        if tr:
            tr.uninstall()
    result = {"setup_end": time.monotonic()}
    if args.mode == "setup":
        print(json.dumps(result))
        return 0

    out_root = os.path.join(args.root, "perfbench", "out")
    os.makedirs(out_root, exist_ok=True)
    if tr:
        # traced first, so that every rise of the peak RSS happens inside a span
        setup_part = (tr.covered_s(), tr.hook_s)
        traced_rep, traced_s = _timed(wl, out_root, tr)
        rep, untraced_s = _timed(wl, out_root)
        reps, walls = [traced_rep, rep], [untraced_s]
        result["per_layer"] = _per_layer(tracer_mod, tr, traced_s, untraced_s, setup_part)
        path = os.path.join(out_root, f"trace-{args.workload}-seed{args.seed}.json")
        result["rss_jumps_mb"] = _write_trace(path, tr)
        result["trace_file"] = os.path.relpath(path, args.root)
    else:
        reps, walls = [], []
        start = time.perf_counter()
        # start another rep only while it is expected to end within the budget
        while True:
            rep, dt = _timed(wl, out_root)
            reps.append(rep)
            walls.append(dt)
            if time.perf_counter() + dt > start + args.seconds:
                break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    outputs = [r.output for r in reps if r.output is not None]
    checks = [("every rep produced output", len(outputs) == len(reps),
               f"{len(outputs)} of {len(reps)}")]
    if outputs:
        same = all(wl.same_output(outputs[0], o) for o in outputs[1:])
        checks.append(("tracing leaves the output unchanged" if args.trace
                       else "reps give identical output", same, f"{len(outputs)} outputs"))
        acc = wl.accuracy(outputs[0])
        checks += acc.checks
        result.update(l2_error=acc.l2_error, oracle_err=acc.oracle_err)
        if args.trace and hasattr(wl, "cli_args"):
            checks.append(_cli_matches(wl, out_root, outputs[0][1]))
    result.update(
        wall_s=walls, peak_rss_mb=peak_rss_mb,
        attempted=sum(r.attempted for r in reps), failed=sum(r.failed for r in reps),
        checks=checks,
        env={"numpy": numpy.__version__, "scipy": scipy.__version__,
             "inputs": {k: repr(v) for k, v in vars(wl).items()
                        if k in ("sigma", "sigmas", "a")}})
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Command line entry points: run, oracle, pml-study, report."""

from __future__ import annotations

import argparse
import csv
import dataclasses
import math
import os
import sys

import numpy as np

from . import harness, oracle


def _add_common(p):
    p.add_argument("--config", help="flat key = value config file")
    p.add_argument("--sigma", type=complex, help="sheet conductivity, e.g. 2.56e-4+0.16j")
    p.add_argument("--a", type=float, help="dipole elevation")
    p.add_argument("--s0", type=float, help="absorbing layer strength")
    p.add_argument("--cycles", type=int, help="adaptation cycles")
    p.add_argument("--out", help="output directory")


def _config_from(args) -> harness.RunConfig:
    overrides = dict(sigma_r=args.sigma, a=args.a, s0=args.s0,
                     cycles=args.cycles, out_dir=args.out)
    if args.config:
        return harness.load_config(args.config, **overrides)
    clean = {k: v for k, v in overrides.items() if v is not None}
    return harness.RunConfig(**clean)


def blas_thread_note(environ=os.environ) -> str | None:
    """Reproducibility caveat unless BLAS is pinned to one thread.

    SuperLU's numerical factorization (gstrf) calls the multithreaded BLAS:
    with more threads the assembled and condensed matrices, the right-hand
    side and the LU permutations stay bit-identical, but the values of the L
    and U factors, and so the last digits of every artifact from the second
    cycle on, do not.
    """
    if all(environ.get(var) == "1" for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")):
        return None
    return ("note: artifacts are byte-reproducible only with one BLAS thread "
            "(OMP_NUM_THREADS=1 OPENBLAS_NUM_THREADS=1)")


def cmd_run(args) -> int:
    config = _config_from(args)
    note = blas_thread_note()
    if note:
        print(note)
    records, artifacts = harness.run_adaptive(config)
    # the rows as convergence.csv holds them, so that report prints this table
    _print_table([dict(zip(harness.CONVERGENCE_COLUMNS,
                           (harness.CONVERGENCE_ROW % dataclasses.astuple(r)).split(",")))
                  for r in records])
    for name in sorted(artifacts):
        print("wrote", artifacts[name])
    return 0


def cmd_oracle(args) -> int:
    config = _config_from(args)
    xs = harness.trace_grid(config)
    spec = oracle.QuadratureSpec(rel_tol=config.quad_rel_tol)
    pole, bc, total = oracle.interface_field(xs, config.a, config.sigma_r, quad=spec)
    out = args.out or "oracle_trace.csv"
    harness._write_csv(out, ["x", "re_pole", "im_pole", "re_branchcut", "im_branchcut",
                             "re_total", "im_total"], ",".join(["%.16g"] * 7),
                       [xs, pole.real, pole.imag, bc.real, bc.imag, total.real, total.imag])
    km = oracle.spp_wavenumber(config.sigma_r)
    print(f"surface wave number: {km:.6g}")
    print("wrote", out)
    return 0


def cmd_pml_study(args) -> int:
    config = _config_from(args)
    s0_list = [float(s) for s in args.values.split(",")]
    traces = harness.pml_study(config, s0_list)
    for s0, tr in sorted(traces.items()):
        amp, k_at = harness.spectral_amplitude(tr, 2.0, 25.0,
                                               0.2 * config.R, 0.7 * config.R)
        print(f"s0 = {s0:g}: peak spectral amplitude {amp:.3e} at k = {k_at:.2f}")
    return 0


def _print_table(rows) -> None:
    """The results table of convergence.csv rows (dicts of column name to
    field text), and the mean of the last three rates once there are three."""
    print(f"{'cycle':>5} {'cells':>8} {'dofs':>9} {'l2_error':>12} {'rate':>7}")
    rates = []
    for row in rows:
        rate = float(row["rate"])
        if not math.isnan(rate):
            rates.append(rate)
        shown = "-" if math.isnan(rate) else f"{rate:.2f}"
        print(f"{row['cycle']:>5} {row['cells']:>8} {row['dofs']:>9} "
              f"{float(row['l2_error']):>12.4e} {shown:>7}")
    if len(rates) >= 3:
        print(f"mean rate over last three cycles: {np.mean(rates[-3:]):.3f}")


def cmd_report(args) -> int:
    with open(args.csv) as fh:
        _print_table(csv.DictReader(fh))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="sppsim",
        description="Sheet-plasmon scattering: adaptive FEM runs and the "
                    "closed-form reference solution")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="adaptive solve loop")
    _add_common(p_run)
    p_run.set_defaults(func=cmd_run)

    p_or = sub.add_parser("oracle", help="analytic interface trace")
    _add_common(p_or)
    p_or.set_defaults(func=cmd_oracle)

    p_pml = sub.add_parser("pml-study", help="fixed-mesh sweep over layer strengths")
    _add_common(p_pml)
    p_pml.add_argument("--values", default="0,0.25,0.5,1.0,2.0,4.0,8.0",
                       help="comma-separated s0 values")
    p_pml.set_defaults(func=cmd_pml_study)

    p_rep = sub.add_parser("report", help="rates table from a convergence CSV")
    p_rep.add_argument("csv", help="path to convergence.csv")
    p_rep.set_defaults(func=cmd_report)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())

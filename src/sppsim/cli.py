"""Command line entry points: run, oracle, pml-study, report."""

from __future__ import annotations

import argparse
import csv
import dataclasses
import math
import os
import sys

import numpy as np

from . import harness, oracle, solver


def _add_common(p, out_help="output directory"):
    p.add_argument("--config", help="flat key = value config file")
    p.add_argument("--sigma", type=complex, help="sheet conductivity, e.g. 2.56e-4+0.16j")
    p.add_argument("--a", type=float, help="dipole elevation")
    p.add_argument("--s0", type=float, help="absorbing layer strength")
    p.add_argument("--cycles", type=int, help="adaptation cycles")
    p.add_argument("--out", help=out_help)


class _InputError(Exception):
    """A bad config, option value or input path: one error line, status 2."""


def _read_input(load, *args, **kwargs):
    """load(*args, **kwargs), its input errors as _InputError (a KeyError's unquoted)."""
    try:
        return load(*args, **kwargs)
    except (ValueError, KeyError, OSError) as exc:
        raise _InputError(exc.args[0] if isinstance(exc, KeyError) else exc) from exc


def _config_from(args) -> harness.RunConfig:
    overrides = dict(sigma_r=args.sigma, a=args.a, s0=args.s0,
                     cycles=args.cycles, out_dir=args.out)
    if args.config:
        return _read_input(harness.load_config, args.config, **overrides)
    clean = {k: v for k, v in overrides.items() if v is not None}
    return _read_input(harness.RunConfig, **clean)


def blas_thread_note(environ=os.environ) -> str | None:
    """Reproducibility caveat unless SuperLU's BLAS runs one thread.

    SuperLU's numerical factorization (gstrf) calls the multithreaded BLAS:
    with more threads the assembled and condensed matrices, the right-hand
    side and the LU permutations stay bit-identical, but the values of the L
    and U factors, and so the last digits of every artifact, do not, unless
    the solver pinned that BLAS itself (solver.superlu_blas_pinned).
    """
    if solver.superlu_blas_pinned() or all(
            environ.get(var) == "1" for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")):
        return None
    return ("note: artifacts are byte-reproducible only with one BLAS thread "
            "(OMP_NUM_THREADS=1 OPENBLAS_NUM_THREADS=1)")


def cmd_run(args) -> int:
    config = _config_from(args)
    # the reference trace needs a surface plasmon: sigma_r = 0 has none
    _read_input(oracle.spp_wavenumber, config.sigma_r)
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
    km = _read_input(oracle.spp_wavenumber, config.sigma_r)
    xs = harness.trace_grid(config)
    pole, bc, total = oracle.interface_field(xs, config.a, config.sigma_r,
                                             quad=oracle.QuadratureSpec())
    out = args.out or "oracle_trace.csv"
    # one open and one write: an unusable path is an input error
    _read_input(harness._write_csv, out, ["x", "re_pole", "im_pole", "re_branchcut",
                                          "im_branchcut", "re_total", "im_total"],
                ",".join(["%.16g"] * 7),
                [xs, pole.real, pole.imag, bc.real, bc.imag, total.real, total.imag])
    print(f"surface wave number: {km:.6g}")
    print("wrote", out)
    return 0


def cmd_pml_study(args) -> int:
    config = _config_from(args)
    # the strengths and the spectral window are checked before any mesh
    s0_list = [_read_input(lambda: config.model(s0=float(s0)).pml.s0)
               for s0 in args.values.split(",")]
    window = (0.2 * config.R, 0.7 * config.R)
    _read_input(harness.spectral_window, harness.trace_grid(config), *window)
    traces = harness.pml_study(config, s0_list)
    for s0, tr in sorted(traces.items()):
        amp, k_at = harness.spectral_amplitude(tr, 2.0, 25.0, *window)
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
    with _read_input(open, args.csv) as fh:     # all rows checked before printing
        reader = csv.DictReader(fh)
        try:
            rows, header = list(reader), reader.fieldnames or ()
        except ValueError as exc:                   # a byte that is not UTF-8
            raise _InputError(f"{args.csv}: {exc}") from None
    for col in harness.CONVERGENCE_COLUMNS:
        if col not in header:
            raise _InputError(f"{args.csv}: no column {col!r}")
        try:
            for row in rows:
                float(row[col])
        except (TypeError, ValueError):     # TypeError: a short row's None
            raise _InputError(f"{args.csv}: column {col!r} holds {row[col]!r}, "
                              "not a number") from None
    _print_table(rows)
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
    _add_common(p_or, "output CSV file (default oracle_trace.csv)")
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
    try:
        return args.func(args)
    except (_InputError, harness.OutputDirError) as exc:
        print(f"sppsim: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

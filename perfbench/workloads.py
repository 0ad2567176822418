"""The three benchmark workloads: inputs from a seed, set-up, one timed rep, checks.

Seed 0 runs the production values.  Any other seed scales every conductivity
and the dipole height by independent factors drawn uniformly from
[1 - JITTER, 1 + JITTER], so that no change can be tuned to one input while
the work per run stays comparable between seeds.

Each workload only builds a ``RunConfig`` (or the oracle's arguments) and calls
the public ``sppsim`` entry point a user would call; ``run_once`` is the timed
unit, everything in ``accuracy`` runs outside the timed phase.
"""

from __future__ import annotations

import math
import random
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import IntegrationWarning, quad as scalar_quad

from sppsim import harness, oracle
from sppsim.assembly import AssemblyError
from sppsim.mesh import GeometryError
from sppsim.solver import SolverError

# the documented errors an operation may raise; anything else crashes the run
DOCUMENTED_ERRORS = (SolverError, oracle.QuadratureError, oracle.PoleOnAxisError,
                     AssemblyError, GeometryError)

JITTER = 5e-4

# oracle_err and the oracle_table l2_error use this many positive trace samples
N_SUBSET = 32


def jitter(seed: int, values):
    """Scale each value by 1 + u, u uniform in [-JITTER, JITTER]; seed 0 is exact."""
    if seed == 0:
        return list(values)
    rng = random.Random(seed)
    return [v * (1.0 + rng.uniform(-JITTER, JITTER)) for v in values]


@dataclass
class Rep:
    """Outcome of one timed repetition."""

    attempted: int
    failed: int
    output: object = None          # what the checks inspect; None on failure


@dataclass
class Accuracy:
    l2_error: float
    oracle_err: float
    checks: list = field(default_factory=list)   # (name, ok, detail)


def subset(xs: np.ndarray) -> np.ndarray:
    """Indices of N_SUBSET positive trace samples, evenly spaced by index."""
    right = np.flatnonzero(xs > 0)
    return right[np.linspace(0, len(right) - 1, N_SUBSET).round().astype(int)]


def _cquad(f, lo, hi):
    kw = dict(limit=800, epsabs=0.0, epsrel=1e-10)
    re, _ = scalar_quad(lambda t: f(t).real, lo, hi, **kw)
    im, _ = scalar_quad(lambda t: f(t).imag, lo, hi, **kw)
    return re + 1j * im


def reference_field(xs, a, sigma) -> np.ndarray:
    """Pole term plus an adaptive-Gauss branch-cut wrap, independent of the trapezoid.

    The tail integrand decays like exp(-x s); cutting it at s = 40 / x leaves
    less than 1e-14 of it.
    """
    out = np.empty(len(xs), dtype=complex)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        for i, x in enumerate(xs):
            i1 = _cquad(lambda t: complex(oracle.finite_integrand(t, x, a, sigma)), 0.0, 1.0)
            i2 = _cquad(lambda t: complex(oracle.tail_integrand(t, x, a, sigma)),
                        0.0, 40.0 / x)
            out[i] = oracle.pole_contribution(x, a, sigma) + (i1 - i2) / (4 * np.pi * sigma)
    return out


def oracle_errors(xs, values, a, sigma) -> tuple[float, float]:
    """(real-part L2 distance, oracle_err) of oracle values on xs.

    oracle_err is the largest error relative to the largest reference modulus.
    Dividing pointwise instead would let the few samples where pole and branch
    cut nearly cancel decide the value, which then jumps between seeds.
    """
    ref = reference_field(xs, a, sigma)
    l2 = harness.l2_error(harness.InterfaceTrace(xs, values),
                          harness.InterfaceTrace(xs, ref), "real")
    return l2, float(np.max(np.abs(values - ref)) / np.max(np.abs(ref)))


def _within(name, value, reference, tol):
    ok = math.isfinite(value) and abs(value / reference - 1.0) <= tol
    return (name, ok, f"{value:.6g} vs {reference:.6g} (tolerance {tol:.0%})")


class Adaptive:
    """Default ``sppsim run`` cut to CYCLES cycles, artifacts written each rep."""

    name = "adaptive"
    CYCLES = 4
    # seed-0 l2_error at cycle 4; other seeds must stay within L2_TOL of it
    L2_SEED0 = 5.045016e-4
    L2_TOL = 0.10

    def __init__(self, seed: int):
        base = harness.RunConfig()
        self.sigma, self.a = jitter(seed, [base.sigma_r, base.a])

    def config(self, out_dir=None) -> harness.RunConfig:
        return harness.RunConfig(sigma_r=self.sigma, a=self.a, cycles=self.CYCLES,
                                 out_dir=out_dir)

    def setup(self):
        pass

    def run_once(self, out_dir) -> Rep:
        try:
            records, artifacts = harness.run_adaptive(self.config(out_dir))
        except DOCUMENTED_ERRORS:
            return Rep(self.CYCLES, self.CYCLES)
        with open(artifacts["convergence.csv"], "rb") as fh:
            return Rep(self.CYCLES, 0, (records, fh.read()))

    @staticmethod
    def same_output(a, b) -> bool:
        return a[1] == b[1]

    def accuracy(self, output) -> Accuracy:
        records, _ = output
        cfg = self.config()
        xs = harness.trace_grid(cfg)
        xs = xs[subset(xs)]
        _, err = oracle_errors(xs, harness.oracle_trace(cfg, xs).values, self.a, self.sigma)
        l2 = records[-1].l2_error
        return Accuracy(l2, err, [
            ("all cycles ran", len(records) == self.CYCLES, f"{len(records)} cycles"),
            _within("l2_error near seed-0 value", l2, self.L2_SEED0, self.L2_TOL)])

    def cli_args(self, out_dir) -> list[str]:
        return ["run", "--sigma", str(self.sigma), "--a", repr(self.a),
                "--cycles", str(self.CYCLES), "--out", out_dir]


class PmlSweep:
    """``pml_study`` over three layer strengths on one fixed, band-refined mesh."""

    name = "pml_sweep"
    S0 = (0.0, 2.0, 8.0)
    BAND_DIAMETER = 0.4      # smallest band diameter whose s0 > 0 peak sits on Re k_m
    K_RANGE = (2.0, 25.0)
    NK = 400                 # spectral_amplitude's default k grid

    def __init__(self, seed: int):
        self.sigma, self.a = jitter(seed, [0.15j, harness.RunConfig().a])
        self.config = harness.RunConfig(sigma_r=self.sigma, a=self.a,
                                        write_artifacts=False)

    def setup(self):
        self.mesh = harness.build_initial_mesh(self.config)
        harness.band_refine(self.mesh, self.config.d_w, self.BAND_DIAMETER)

    def run_once(self, out_dir) -> Rep:
        try:
            traces = harness.pml_study(self.config, list(self.S0), mesh=self.mesh)
        except DOCUMENTED_ERRORS:
            return Rep(len(self.S0), len(self.S0))
        return Rep(len(self.S0), 0, traces)

    @staticmethod
    def same_output(a, b) -> bool:
        return all(np.array_equal(a[s].values, b[s].values) for s in a)

    def accuracy(self, traces) -> Accuracy:
        cfg = self.config
        xs = harness.trace_grid(cfg)
        ref = harness.oracle_trace(cfg, xs)
        l2 = harness.l2_error(traces[2.0], ref, "real")
        pick = subset(xs)
        _, err = oracle_errors(xs[pick], ref.values[pick], self.a, self.sigma)
        km = oracle.spp_wavenumber(self.sigma).real
        dk = (self.K_RANGE[1] - self.K_RANGE[0]) / (self.NK - 1)
        checks = [("l2_error finite", math.isfinite(l2), f"{l2:.6g}")]
        for s0 in self.S0[1:]:
            _, k_at = harness.spectral_amplitude(traces[s0], *self.K_RANGE,
                                                 0.2 * cfg.R, 0.7 * cfg.R, nk=self.NK)
            checks.append((f"s0={s0:g} spectral peak at Re k_m", abs(k_at - km) <= dk,
                           f"peak {k_at:.4f}, Re k_m {km:.4f}, step {dk:.4f}"))
        return Accuracy(l2, err, checks)


class OracleTable:
    """``interface_field`` for four conductivities on a trace grid at rel_tol 1e-3."""

    name = "oracle_table"
    SIGMAS = (2.56e-4 + 0.16j, 2e-3 + 0.2j, 0.15j, 1e-3 + 0.08j)
    SAMPLES = 512
    REL_TOL = 1e-3
    # oracle_err at seed 0; no seed may exceed it by more than ERR_TOL
    ERR_SEED0 = 3.016611e-5
    ERR_TOL = 0.25

    def __init__(self, seed: int):
        *self.sigmas, self.a = jitter(seed, [*self.SIGMAS, harness.RunConfig().a])
        self.xs = harness.trace_grid(harness.RunConfig(samples=self.SAMPLES))
        self.quad = oracle.QuadratureSpec(rel_tol=self.REL_TOL)

    def setup(self):
        pass

    def run_once(self, out_dir) -> Rep:
        totals = []
        for sigma in self.sigmas:
            try:
                totals.append(oracle.interface_field(self.xs, self.a, sigma,
                                                     quad=self.quad)[2])
            except DOCUMENTED_ERRORS:
                totals.append(None)
        failed = sum(t is None for t in totals)
        return Rep(len(self.sigmas), failed, None if failed else totals)

    @staticmethod
    def same_output(a, b) -> bool:
        return all(np.array_equal(x, y) for x, y in zip(a, b))

    def accuracy(self, totals) -> Accuracy:
        pick = subset(self.xs)
        errs = [oracle_errors(self.xs[pick], total[pick], self.a, sigma)
                for sigma, total in zip(self.sigmas, totals)]
        l2 = max(e[0] for e in errs)
        err = max(e[1] for e in errs)
        limit = self.ERR_SEED0 * (1.0 + self.ERR_TOL)
        return Accuracy(l2, err, [("oracle_err within limit", err <= limit,
                                   f"{err:.6g} <= {limit:.6g}")])


WORKLOADS = {w.name: w for w in (Adaptive, PmlSweep, OracleTable)}

"""One benchmark run in a process of its own; started by ``run.py``.

Set-up (interpreter start, ``import planch`` with numpy, and the seeded
inputs) is timed from the moment ``run.py`` started this process.  Then
whole rounds of the workload's operations run until ``--seconds`` have
passed.  Each operation is timed alone, followed by the host-speed probe,
and its result checked apart from planch.  With ``--trace 1`` half of the
operations run traced, alternating, and the run reports per-layer metrics
and the tracing overhead; otherwise it reports the end-to-end metrics.  The
last line of standard output is the result as JSON.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from collections import defaultdict
from fractions import Fraction
from pathlib import Path

import numpy

import checks
import tracing

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "bench" / "out"

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_s": "s",
    "peak_rss_mb": "MB",
}

# per-layer metrics are per round's worth of traced operations; times are
# self times
PER_LAYER = {
    "limitcheck.model_build_s": "s",
    "limitcheck.model_builds": "count",
    "limitcheck.compile_s": "s",
    "limitcheck.weyl_check_s": "s",
    "limitcheck.eval_sym2_s": "s",
    "limitcheck.eval_ad_s": "s",
    "limitcheck.eval_wedge2_s": "s",
    "limitcheck.eval_calls": "count",
    "limitcheck.factor_node_evals": "count",
    "limitcheck.eval_ns_per_factor_node": "ns",
    "limitcheck.phi_s": "s",
    "limitcheck.integrand_self_s": "s",
    "limitcheck.grid_self_s": "s",
    "limitcheck.nodes": "count",
    "limitcheck.integrand_nodes": "count",
    "limitcheck.coarse_nodes": "count",
    "limitcheck.nodes_per_s": "1/s",
    "limitcheck.richardson_s": "s",
    "limitcheck.rhs_s": "s",
    "limitcheck.rel_discrepancy_max": "ratio",
    "limitcheck.lhs_error_max": "ratio",
    "wdrep.gamma_parts_s": "s",
    "wdrep.gamma_parts_calls": "count",
    "wdrep.gamma_factor_s": "s",
    "wdrep.gamma_factor_calls": "count",
    "wdrep.plethysm_s": "s",
    "spectral.evaluate_s": "s",
    "spectral.evaluate_calls": "count",
    "spectral.regularized_value_s": "s",
    "spectral.regularized_value_calls": "count",
    "spectral.limit_with_power_s": "s",
    "spectral.limit_with_power_calls": "count",
    "tempered.appendix_constants_s": "s",
    "field.square_class_s": "s",
    "forms.mat_mul_s": "s",
    "forms.mat_mul_calls": "count",
    "forms.det_s": "s",
    "forms.det_calls": "count",
    "forms.inverse_s": "s",
    "forms.is_in_group_s": "s",
    "forms.is_in_group_calls": "count",
    "forms.is_in_group_per_element": "count",
    "forms.bruhat_factor_s": "s",
    "forms.classify_s": "s",
    "forms.charpoly_s": "s",
    "host.probe_s": "s",
    "process.cpu_s": "s",
    "process.cpu_per_wall": "ratio",
    "trace.spans": "count",
    "trace.ops_per_s": "1/s",
    "trace.untraced_ops_per_s": "1/s",
    "trace.overhead_pct": "%",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--spawned-at", type=float, required=True,
                   help="time.monotonic() when the process was started")
    return p.parse_args(argv)


def import_planch():
    src = ROOT / "src"
    if not (src / "planch" / "__init__.py").is_file():
        sys.exit(f"error: no planch sources under {src}")
    sys.path.insert(0, str(src))
    import planch
    if Path(planch.__file__).resolve().parent != (src / "planch").resolve():
        sys.exit(f"error: imported planch from {planch.__file__}, not {src}")
    return planch


class Probe:
    """A fixed computation that uses nothing of planch, timed after every
    operation.  The speed of one core of the shared host drifts by up to
    1.8x within a minute, and consecutive runs see different speeds.
    ops_per_s and op_p50_s scale each operation's wall time by ``ref_s``
    over the mean of the probe times before and after it: seconds at the
    speed at which the probe takes ``ref_s``, about its time in a calm
    stretch of the 2.1 GHz Xeon host the benchmark was tuned on."""

    def __init__(self, work, ref_s: float, burst: int):
        self.work, self.ref_s, self.burst = work, ref_s, burst

    def __call__(self) -> float:
        """The median time of ``burst`` runs.  The collector is off meanwhile,
        so that the size of planch's heap does not enter it; the median drops
        the first run's cold caches."""
        times = []
        gc.disable()
        try:
            for _ in range(self.burst):
                t0 = time.perf_counter()
                self.work()
                times.append(time.perf_counter() - t0)
        finally:
            gc.enable()
        return statistics.median(times)


def _fraction_work() -> Fraction:
    a = Fraction(1)
    for k in range(1, 9):
        a = (a * Fraction(k, k + 1) + Fraction(1, k)) / Fraction(k + 2, k)
    return a


def _numpy_work() -> complex:
    """The shape of FactorProgram.eval on a grid larger than the caches.  Its
    arrays are made anew each time, so they add nothing to the peak RSS."""
    t = numpy.linspace(0.0, 1.0, 1 << 19)
    g = 1.0 - numpy.exp(2j * numpy.pi * (0.3 + 1.7 * t)) * 0.57
    return complex((numpy.exp(2j * numpy.pi * t) / g).sum())


FRACTION_PROBE = Probe(_fraction_work, 50e-6, 5)
# limit-d3 spends its time in numpy kernels over arrays of millions of nodes,
# whose speed the Fraction probe does not track
PROBES = {"limit-d3": Probe(_numpy_work, 60e-3, 3)}


class Run:
    """The measured loop: whole rounds until the time is up.

    With a tracer, operation i of round r runs traced when i + r is odd and
    the run ends after an even number of rounds, so every operation runs as
    often traced as untraced and the two halves compare fairly."""

    def __init__(self, ops, tracer=None, probe=FRACTION_PROBE):
        self.ops = ops
        self.tracer = tracer
        self.probe = probe
        self.first = [None] * len(ops)   # first-round results, for oracles
        self.rounds = self.attempted = 0
        self.errors = []    # operations that raised
        self.wrong = []     # results that failed a check
        # (op index, wall seconds, mean probe seconds around it), by traced
        self.times = {False: [], True: []}
        self.probes = [probe()]
        self.cpu = self.wall = 0.0             # untraced operations
        # verify reports, kept only when tracing so that an untraced run's
        # memory does not grow with its rounds
        self.reports = {False: [], True: []}

    def round(self):
        for i, op in enumerate(self.ops):
            traced = self.tracer is not None and (i + self.rounds) % 2 == 1
            self.attempted += 1
            if traced:
                self.tracer.install()
            t0, c0 = time.perf_counter(), time.process_time()
            try:
                try:
                    res = (self.tracer.run_op(op.kind, op.call) if traced
                           else op.call())
                finally:
                    wall = time.perf_counter() - t0
                    cpu = time.process_time() - c0
                    if traced:
                        self.tracer.uninstall()
                    self.probes.append(self.probe())
            except Exception:
                self.errors.append(f"op {i} ({op.kind}) raised:\n"
                                   + traceback.format_exc())
                continue
            self.times[traced].append(
                (i, wall, (self.probes[-2] + self.probes[-1]) / 2))
            if not traced:
                self.cpu += cpu
                self.wall += wall
            self.check(i, op.check, res)
            if self.tracer is not None and op.kind == "verify":
                self.reports[traced].append(res)
            if self.first[i] is None and op.oracle is not None:
                self.first[i] = res
        self.rounds += 1

    def check(self, i, fn, res):
        try:
            fn(res)
        except checks.CheckFailed as exc:
            self.wrong.append(f"op {i} ({self.ops[i].kind}): {exc}")

    def measure(self, seconds: float):
        """At least two rounds, so that a run of limit-d3 always times both
        of its operations twice; with a tracer, an even number of rounds."""
        start = time.perf_counter()
        while True:
            self.round()
            done = time.perf_counter() - start >= seconds
            if done and self.rounds >= 2 and (self.tracer is None
                                              or self.rounds % 2 == 0):
                return

    def run_oracles(self):
        for i, op in enumerate(self.ops):
            if self.first[i] is not None:
                self.check(i, op.oracle, self.first[i])

    def ops_per_s(self, traced: bool) -> float:
        """In wall time, unscaled."""
        times = self.times[traced]
        return len(times) / sum(t for _, t, _ in times)


def op_figures(run: Run, scaled: bool) -> tuple:
    """(ops_per_s, op_p50_s) of the untraced operations, in wall time or
    scaled to the probe's reference speed.  op_p50_s is the median over the
    workload's operations of each one's median time over the rounds: a short
    stall of the host then moves the figure no more than it moves the
    typical call."""
    per_op = defaultdict(list)
    for i, wall, probe in run.times[False]:
        per_op[i].append(wall * run.probe.ref_s / probe if scaled else wall)
    total = sum(sum(t) for t in per_op.values())
    return (len(run.times[False]) / total,
            statistics.median(statistics.median(t) for t in per_op.values()))


def end_to_end(run: Run, setup_s: float, peak_rss_mb: float) -> dict:
    ops_per_s, op_p50_s = op_figures(run, scaled=True)
    return {"setup_s": setup_s, "ops_per_s": ops_per_s,
            "op_p50_s": op_p50_s, "peak_rss_mb": peak_rss_mb}


def per_layer(run: Run) -> dict:
    rounds = run.rounds / 2   # each half of the run is this many rounds
    out = tracing.layer_metrics(run.tracer, rounds)
    nodes = sum(r.nodes_used for r in run.reports[True])
    integrand, _ = tracing.node_totals(run.tracer.spans)
    if integrand != nodes:
        run.wrong.append(f"lhs_integrand saw {integrand} nodes, the reports "
                         f"count {nodes}")
    out["limitcheck.nodes"] = nodes / rounds
    limit_s = sum(t for i, t, _ in run.times[True]
                  if run.ops[i].kind == "verify")
    out["limitcheck.nodes_per_s"] = nodes / limit_s if limit_s else 0.0
    every = run.reports[False] + run.reports[True]
    out["limitcheck.rel_discrepancy_max"] = max(
        (r.rel_discrepancy for r in every), default=0.0)
    # the error the program reports, on the scale of the discrepancy
    out["limitcheck.lhs_error_max"] = max(
        (max(r.lhs_errors) / abs(r.rhs) for r in every), default=0.0)
    out["host.probe_s"] = statistics.median(run.probes)
    out["process.cpu_s"] = run.cpu / rounds
    out["process.cpu_per_wall"] = run.cpu / run.wall
    traced, untraced = run.ops_per_s(True), run.ops_per_s(False)
    out["trace.ops_per_s"] = traced
    out["trace.untraced_ops_per_s"] = untraced
    out["trace.overhead_pct"] = 100.0 * (untraced - traced) / untraced
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    import_planch()
    import workloads
    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}; "
                 f"choose from {', '.join(workloads.WORKLOADS)}")
    ops = workloads.build(args.workload, args.seed)
    setup_s = time.monotonic() - args.spawned_at

    run = Run(ops, tracing.Tracer() if args.trace else None,
              PROBES.get(args.workload, FRACTION_PROBE))
    run.measure(args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    run.run_oracles()

    if args.trace:
        metrics, names = per_layer(run), PER_LAYER
    else:
        metrics, names = end_to_end(run, setup_s, peak_rss_mb), END_TO_END
    for p in run.errors + run.wrong:
        print(p, file=sys.stderr)

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    OUT.mkdir(exist_ok=True)
    wall_ops_per_s, wall_op_p50_s = op_figures(run, scaled=False)
    probe = statistics.median(run.probes)
    meta = {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "rounds": run.rounds,
            "ops_per_round": len(ops), "numpy": numpy.__version__,
            "python": platform.python_version(), "cores": os.cpu_count(),
            "probe_s": probe, "wall_ops_per_s": wall_ops_per_s,
            "wall_op_p50_s": wall_op_p50_s}
    if args.trace:
        run.tracer.write(OUT / f"trace-{tag}.json", meta)
    with open(OUT / f"result-{tag}.json", "w", encoding="utf-8") as fh:
        json.dump(dict(meta, all_metrics=metrics, errors=run.errors,
                       wrong=run.wrong), fh, indent=1)

    print(f"# {args.workload} seed {args.seed}: {len(ops)} ops per round, "
          f"{run.rounds} rounds{', half traced' if args.trace else ''}; "
          f"numpy {numpy.__version__}, python {platform.python_version()}, "
          f"{os.cpu_count()} cores; probe {probe:.6g} s, in wall time "
          f"ops_per_s {wall_ops_per_s:.6g} and op_p50_s {wall_op_p50_s:.6g}")
    print(json.dumps({
        "correct": not run.wrong,
        "attempted": run.attempted,
        "failed": len(run.errors),
        "metrics": {k: {"value": metrics[k], "unit": u}
                    for k, u in names.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

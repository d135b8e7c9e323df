"""germforge benchmark: one workload, one seed, one closed-loop client.

    python3 perfbench/run.py --workload degree-search --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the library is imported from its
`src/`.  The process pins BLAS to one thread, builds the workload's op list
from the seed (see workloads.py), and then makes passes over that list until
`--seconds` have gone by, each op called only after the previous one
returned.  Every op's output is checked against its closed-form answer.

Estimator: on a small shared VM the speed of the machine changes by up to
2x for seconds to minutes at a time, and CPU time follows wall time, so a
minimum over passes still depends on when the run happened.  Times are
therefore taken with a RefClock (refclock.py): a fixed calibration kernel
(numpy on 3x3 arrays in a Python loop, like the library's own work) runs
between ops and every TICK_EVALS model evaluations inside them, and each
stretch of wall time is rescaled to the speed at which the kernel takes
CAL_REF_S.  An op's time is its median over the passes.  Counted work comes
from the first pass; later passes must repeat its outcomes and counts.

`--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer ones:
there untraced and traced passes alternate, the traced ones record spans
(tracing.py) that are written to perfbench/out/ when the run ends.  The last
line of stdout is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_ENV)   # before numpy is imported

import numpy as np  # noqa: E402

from refclock import RefClock  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOADS = ("degree-search", "atlas-integrate", "certify")
SETUP_REPEATS = 3
# the reference speed: the one at which the calibration kernel takes 1 ms
CAL_REF_S = 0.001

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("section_evals_per_op", "count"),
    ("certified_ratio", "ratio"),
    ("peak_rss_mb", "MB"),
)

LAYER_SELF_MS = tuple((f"layer.{name}.self_ms", "ms") for name in
                      ("linalg", "spaces", "germs", "splicing", "fredholm", "cones", "solution",
                       "orientation", "degree"))

PER_LAYER = (
    ("degree.enumerate_zeros.calls", "count"),
    ("degree.enumerate_zeros.self_ms", "ms"),
    ("degree.enumerate_zeros.jacobians_per_call", "count"),
    ("linalg.fd_jacobian.calls", "count"),
    ("linalg.fd_jacobian.self_ms", "ms"),
    ("degree.generic_perturbation.calls", "count"),
    ("degree.generic_perturbation.retries_per_call", "count"),
    ("degree.generic_perturbation.bumped_share", "ratio"),
    ("orientation.sign_of_zero.calls", "count"),
    ("orientation.sign_of_zero.self_ms", "ms"),
    ("solution.a_vector.calls", "count"),
    ("solution.a_vector.hit_ratio", "ratio"),
    ("solution.a_map.ms_per_miss", "ms"),
    ("solution.a_map.section_evals_per_miss", "count"),
    ("solution.a_map.jacobians_per_miss", "count"),
    ("solution.build_parametrization.self_ms", "ms"),
    ("solution.build_parametrization.radius_shrinks", "count"),
    ("degree.integrate_form.self_ms", "ms"),
    ("degree.integrate_form.gamma_calls_per_node", "count"),
    ("cones.is_good_position.calls", "count"),
    ("cones.is_good_position.self_ms", "ms"),
    ("spaces.contains_quadrant_point.calls", "count"),
    ("cones.nnls.calls", "count"),
    ("cones.linprog.calls", "count"),
    ("cones.extreme_rays.self_ms", "ms"),
    ("germs.solve_germ.calls", "count"),
    ("germs.solve_germ.B_evals_per_call", "count"),
    ("germs.verify_contraction.calls", "count"),
    ("germs.verify_contraction.B_evals_per_call", "count"),
    ("germs.verify_contraction.self_ms", "ms"),
    ("fredholm.perturb_normal_form.self_ms", "ms"),
    ("splicing.linearize_filled.self_ms", "ms"),
    ("splicing.linearize_filled.pi_evals", "count"),
    ("import.germforge_ms", "ms"),
    ("import.scipy_ms", "ms"),
    ("trace.overhead_ratio", "ratio"),
    ("fail_ratio", "ratio"),
    ("model.evals_per_op", "count"),
    ("spans_per_op", "count"),
) + LAYER_SELF_MS


def tail_percentile(values):
    """(value, percentile) of the highest percentile with at least 10 samples
    beyond it; with 10 samples or fewer, the maximum (percentile 100)."""
    v = sorted(values)
    n = len(v)
    if n <= 10:
        return v[-1], 100.0
    i = n - 11
    return v[i], 100.0 * i / (n - 1)


def _ratio(num, den):
    return num / den if den else 0.0


def _calibration_kernel():
    x = np.linspace(0.1, 1.0, 3)
    acc = 0.0
    for k in range(40):
        J = np.outer(x, x) + np.eye(3) * (k % 7 + 1)
        acc += float(np.linalg.svd(J, compute_uv=False)[0]) + float(np.max(np.abs(x)))
        x = x * 0.999 + 0.001
    return acc


def calibrate():
    """Seconds the calibration kernel takes right now (best of two)."""
    best = float("inf")
    for _ in range(2):
        t0 = time.perf_counter()
        _calibration_kernel()
        best = min(best, time.perf_counter() - t0)
    return best


class Runner:
    """Closed-loop passes over one op list.

    Op times are taken with a RefClock that also checkpoints every
    TICK_EVALS model evaluations inside untraced ops; `samples[i]` collects
    op i's times over the untraced passes and `traced_samples[i]` over the
    traced ones, where checkpoints only sit between ops so that calibration
    does not land inside spans.
    """

    def __init__(self, ops, counter):
        self.ops = ops
        self.counter = counter
        self.outcomes = None          # first pass: True/False per op
        self.evals = None             # first pass: model evaluations per op
        self.errors = {}              # exception class -> ops that raised it
        self.consistent = True
        self.samples = [[] for _ in ops]
        self.traced_samples = [[] for _ in ops]
        self.pass_scales = []         # traced passes: median reference/wall time ratio

    def one_pass(self, tracer=None):
        outcomes, evals, scales = [], [], []
        ref = RefClock(calibrate, CAL_REF_S)
        self.counter.on_tick = ref.checkpoint if tracer is None else None
        for i, op in enumerate(self.ops):
            e0 = self.counter.total
            if tracer is not None:
                tracer.begin_op(i)
            t0 = time.perf_counter()
            ref.start()
            try:
                ok = op.run()
            except Exception as exc:   # a raising op is a failed op, not a failed run
                ok = False
                if self.outcomes is None:
                    self.errors[type(exc).__name__] = self.errors.get(type(exc).__name__, 0) + 1
            dt = time.perf_counter() - t0
            if tracer is not None:
                tracer.end_op()
            took = ref.stop()
            scales.append(took / dt)
            (self.traced_samples if tracer is not None else self.samples)[i].append(took)
            outcomes.append(ok)
            evals.append(self.counter.total - e0)
        self.counter.on_tick = None
        if tracer is not None:
            self.pass_scales.append(statistics.median(scales))
        if self.outcomes is None:
            self.outcomes, self.evals = outcomes, evals
        elif outcomes != self.outcomes or evals != self.evals:
            self.consistent = False

    @property
    def passes(self):
        return len(self.samples[0]) + len(self.traced_samples[0])

    def op_times(self, traced=False):
        """Per-op estimate in reference seconds: the median over passes."""
        return [statistics.median(s) for s in (self.traced_samples if traced else self.samples)]


def measure_setup(workload, seed, importtime=False):
    """Reference seconds a fresh interpreter takes to import germforge and
    build the inputs (setup_timer.py); with importtime, also its
    -X importtime report."""
    cmd = [sys.executable] + (["-X", "importtime"] if importtime else []) + [
        str(HERE / "setup_timer.py"), str(SRC), str(HERE), workload, str(seed)]
    proc = subprocess.run(cmd, cwd=ROOT, env=dict(os.environ, **BLAS_ENV), capture_output=True,
                          text=True, timeout=170)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up interpreter failed:\n{proc.stderr[-2000:]}")
    return float(proc.stdout.strip().splitlines()[-1]), proc.stderr


def import_costs(report):
    """(germforge cumulative ms, scipy self ms summed over its modules)."""
    germforge_us = scipy_us = 0
    for line in report.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        parts = line[len("import time:"):].split("|")
        try:
            self_us, cumulative_us = int(parts[0]), int(parts[1])
        except ValueError:
            continue
        name = parts[2].strip()
        if name == "germforge":
            germforge_us = cumulative_us
        if name == "scipy" or name.startswith("scipy."):
            scipy_us += self_us
    return germforge_us / 1000.0, scipy_us / 1000.0


def environment():
    """Commit (when the checkout is a git repository), versions and CPUs."""
    import scipy

    head = "unknown"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                              timeout=20, env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)))
        if proc.returncode == 0:
            head = proc.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    return {"git_head": head, "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "nproc": len(os.sched_getaffinity(0))}


def run_workload(ops, counter, seconds, traced, namespaces=()):
    """Passes over `ops` until `seconds` are used up (at least one; with
    `traced`, untraced and traced passes alternate, at least one of each).

    Returns the Runner, the aggregate of each traced pass and the spans of
    the first traced pass.
    """
    from tracing import Tracer, aggregate

    runner = Runner(ops, counter)
    tracer = Tracer(counter, extra_namespaces=namespaces) if traced else None
    aggs, first_spans = [], None
    last = {False: 0.0, True: 0.0}
    deadline = time.perf_counter() + seconds
    kind = False
    while True:
        started = time.perf_counter()
        if kind:
            with tracer:
                runner.one_pass(tracer)
            spans = tracer.take_spans()
            aggs.append(aggregate(spans))
            first_spans = first_spans or spans
        else:
            runner.one_pass()
        last[kind] = time.perf_counter() - started
        if traced:
            kind = not kind
        forced = traced and not aggs
        if not forced and time.perf_counter() + last[kind] > deadline:
            break
    return runner, aggs, first_spans


def end_to_end(runner, setup_times):
    ok = sum(runner.outcomes)
    n = len(runner.ops)
    samples = [t for op_samples in runner.samples for t in op_samples]
    p90, p90_pct = tail_percentile(samples)
    metrics = {
        "setup_s": statistics.median(setup_times),
        "ops_per_s": ok / sum(runner.op_times()),
        "op_p50_ms": 1000.0 * statistics.median(samples),
        "op_p90_ms": 1000.0 * p90,
        "section_evals_per_op": sum(runner.evals) / n,
        "certified_ratio": ok / n,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    info = {"op_samples": len(samples), "op_p90_percentile": round(p90_pct, 1), "setup_runs": len(setup_times)}
    return metrics, info


def per_layer(runner, aggs, import_ms):
    n = len(runner.ops)
    first = aggs[0]
    scales = runner.pass_scales

    def agg(name):
        return first.get(name, {"calls": 0, "self_s": 0.0, "incl_s": 0.0, "incl": {}})

    def calls(name):
        return agg(name)["calls"]

    def incl(name, key):
        return agg(name)["incl"].get(key, 0)

    def per_op_ms(key, *names):
        # rescaled like the op times, median over the traced passes
        return statistics.median(sum(a.get(nm, {}).get(key, 0.0) for nm in names) * s
                                 for a, s in zip(aggs, scales)) * 1000.0 / n

    def self_ms(*names):
        return per_op_ms("self_s", *names)

    misses = calls("solution.a_map")
    hits = calls("solution.a_vector")
    gp = "degree.generic_perturbation"
    layer_names = {}
    for name in first:
        layer_names.setdefault(name.split(".", 1)[0], []).append(name)
    metrics = {
        "degree.enumerate_zeros.calls": calls("degree.enumerate_zeros") / n,
        "degree.enumerate_zeros.self_ms": self_ms("degree.enumerate_zeros"),
        "degree.enumerate_zeros.jacobians_per_call": _ratio(incl("degree.enumerate_zeros", "n.linalg.fd_jacobian"),
                                                            calls("degree.enumerate_zeros")),
        "linalg.fd_jacobian.calls": calls("linalg.fd_jacobian") / n,
        "linalg.fd_jacobian.self_ms": self_ms("linalg.fd_jacobian"),
        f"{gp}.calls": calls(gp) / n,
        f"{gp}.retries_per_call": _ratio(incl(gp, "retries"), calls(gp)),
        f"{gp}.bumped_share": _ratio(incl(gp, "bumped"), calls(gp)),
        "orientation.sign_of_zero.calls": calls("orientation.sign_of_zero") / n,
        "orientation.sign_of_zero.self_ms": self_ms("orientation.sign_of_zero"),
        "solution.a_vector.calls": (hits + misses) / n,
        "solution.a_vector.hit_ratio": _ratio(hits, hits + misses),
        "solution.a_map.ms_per_miss": _ratio(per_op_ms("incl_s", "solution.a_map") * n, misses),
        "solution.a_map.section_evals_per_miss": _ratio(incl("solution.a_map", "evals.section"), misses),
        "solution.a_map.jacobians_per_miss": _ratio(incl("solution.a_map", "n.linalg.fd_jacobian"), misses),
        "solution.build_parametrization.self_ms": self_ms("solution.build_parametrization"),
        "solution.build_parametrization.radius_shrinks": incl("solution.build_parametrization", "shrinks") / n,
        "degree.integrate_form.self_ms": self_ms("degree.integrate_form"),
        "degree.integrate_form.gamma_calls_per_node": _ratio(incl("degree.integrate_form", "gamma"),
                                                             incl("degree.integrate_form", "nodes")),
        "cones.is_good_position.calls": calls("cones.is_good_position") / n,
        "cones.is_good_position.self_ms": self_ms("cones.is_good_position"),
        "spaces.contains_quadrant_point.calls": incl("op", "contains_quadrant_point") / n,
        "cones.nnls.calls": calls("cones.nnls") / n,
        "cones.linprog.calls": calls("cones.linprog") / n,
        "cones.extreme_rays.self_ms": self_ms("cones.extreme_rays"),
        "germs.solve_germ.calls": calls("germs.solve_germ") / n,
        "germs.solve_germ.B_evals_per_call": _ratio(_evals(agg("germs.solve_germ")), calls("germs.solve_germ")),
        "germs.verify_contraction.calls": calls("germs.verify_contraction") / n,
        "germs.verify_contraction.B_evals_per_call": _ratio(_evals(agg("germs.verify_contraction")),
                                                            calls("germs.verify_contraction")),
        "germs.verify_contraction.self_ms": self_ms("germs.verify_contraction"),
        "fredholm.perturb_normal_form.self_ms": self_ms("fredholm.perturb_normal_form"),
        "splicing.linearize_filled.self_ms": self_ms("splicing.linearize_filled"),
        "splicing.linearize_filled.pi_evals": incl("splicing.linearize_filled", "evals.pi") / n,
        "import.germforge_ms": import_ms[0],
        "import.scipy_ms": import_ms[1],
        "trace.overhead_ratio": sum(runner.op_times(traced=True)) / sum(runner.op_times()),
        "fail_ratio": 1.0 - sum(runner.outcomes) / n,
        "model.evals_per_op": sum(runner.evals) / n,
        "spans_per_op": sum(t["calls"] for t in first.values()) / n,
    }
    for name, _ in LAYER_SELF_MS:
        layer = name.split(".")[1]
        metrics[name] = self_ms(*layer_names.get(layer, ()))
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "germforge" / "__init__.py").is_file():
        print(f"error: no germforge sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2

    sys.path[:0] = [str(SRC), str(HERE)]
    import germforge

    if Path(germforge.__file__).resolve().parent != SRC / "germforge":
        print(f"error: imported germforge from {germforge.__file__}, not {SRC}", file=sys.stderr)
        return 2

    traced = bool(args.trace)
    if traced:
        _, report = measure_setup(args.workload, args.seed, importtime=True)
        setup_times, import_ms = [], import_costs(report)
    else:
        setup_times = [measure_setup(args.workload, args.seed)[0] for _ in range(SETUP_REPEATS)]
    import workloads

    counter = workloads.EvalCounter()
    ops = workloads.build_ops(args.workload, args.seed, counter)
    runner, aggs, spans = run_workload(ops, counter, args.seconds, traced, namespaces=(workloads,))

    n = len(ops)
    info = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
            "ops": n, "passes": runner.passes, "errors": runner.errors,
            "double_root_share": sum("double_root" in op.props for op in ops) / n, **environment()}
    if traced:
        metrics = per_layer(runner, aggs, import_ms)
        units = dict(PER_LAYER)
        info["traced_passes"] = len(aggs)
        info["a_vector_hit_share"] = metrics["solution.a_vector.hit_ratio"]
    else:
        metrics, extra = end_to_end(runner, setup_times)
        units = dict(END_TO_END)
        info.update(extra)
    result = {
        "correct": runner.consistent,
        "attempted": n,
        "failed": n - sum(runner.outcomes),
        "metrics": {name: {"value": float(metrics[name]), "unit": units[name]} for name in units},
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps({"info": info, "result": result}, indent=1) + "\n")
    if traced:
        write_spans(OUT / f"{args.workload}.spans.tsv", spans)   # the latest traced run only
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


def _evals(agg):
    return sum(v for k, v in agg["incl"].items() if k.startswith("evals."))


def write_spans(path, spans):
    """One span a line: name, start and end in µs from the first span, parent, op."""
    t0 = spans[0][1] if spans else 0.0
    with open(path, "w") as fh:
        fh.write("name\tstart_us\tend_us\tparent\top\n")
        for name, start, end, parent, op, _ in spans:
            fh.write(f"{name}\t{(start - t0) * 1e6:.1f}\t{(end - t0) * 1e6:.1f}\t{parent}\t{op}\n")


if __name__ == "__main__":
    sys.exit(main())

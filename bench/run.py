"""Record the end-to-end numbers of one source tree in BENCH_<pr>.json.

    python3 bench/run.py --pr N --label parent --tree ../parent-checkout
    python3 bench/run.py --pr N --label change

For the tree (default: this checkout) one invocation records
- the final JSON line of `perfbench/run.py --trace 0` for each workload,
- the minimum cold `import germforge` time over IMPORT_RUNS fresh interpreters,
- each CLI command at `--seed 0`, run CLI_RUNS times: the minimum and every
  wall time, the exit codes, the wall time of each model from the
  events.jsonl of the fastest run, and the SHA-256 of each CSV it wrote
  (events.jsonl, which holds timings, is left out), with whether every run
  wrote the same CSVs,
- one run of the tier-1 suite: wall time, exit code and passed/failed counts,
- the signed degree of DEGREE3D_MAPS seeded 3-D maps (`cube_map`) against
  their closed form: the wrong degrees, the loud failures (a germforge
  error), each map's degree and section evaluations, the median and
  largest seconds per map and their total,
- per-layer timings (`layer_timings`): the best of LAYER_RUNS mean µs per
  call of `_linalg`'s Newton step and FD Jacobian at n = 1, 2 and 3, of
  one `newton` solve of a fixed 1-D and of a fixed 2-D map, of one
  32-node ray walk of a unit-circle chart, of one `cones.extreme_rays`
  call on a 6-facet polygon cone and of one `fredholm.perturb_normal_form`
  of a linear basic germ with a quadratic section,
- the tree's git revision (and whether it had uncommitted changes outside
  the BENCH_*.json records), the Python, numpy and scipy versions (None
  without scipy) and nproc,
- the size of the tree's src/: its lines and its settable values.

The record is appended to the label's list in BENCH_<pr>.json at the root of
this checkout, so one file holds the runs of the parent and of the change,
made on the same machine.  `--parts` and `--workloads` restrict a run, e.g.
to one workload for alternating pairs.

    python3 bench/run.py --pr N --summary

reads BENCH_<N>.json, runs nothing, and prints the parent against the
change (`summary`).
"""

from __future__ import annotations

import argparse
import ast
import hashlib
import json
import os
import platform
import re
import subprocess
import sys
import tempfile
import time
from importlib import metadata
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("degree-search", "atlas-integrate", "certify")
COMMANDS = ("solve-germ", "parametrize", "cones", "degree", "selftest")
PARTS = ("workloads", "import", "cli", "tier1", "degree3d", "layers")
TIER1 = ("-m", "pytest", "-q", "--continue-on-collection-errors")
IMPORT_RUNS = 5
CLI_RUNS = 3
DEGREE3D_MAPS = 100
DEGREE3D_SEED = 2024
LAYER_RUNS = 7
LAYER_CALLS = 2000
# perfbench pins BLAS the same way; the other measurements get the same setting
SINGLE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def _run(args, tree: Path, **kwargs):
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), **SINGLE_THREAD)
    return subprocess.run(args, cwd=tree, env=env, capture_output=True, text=True, **kwargs)


def revision(tree: Path) -> dict:
    """HEAD, and whether a tracked file other than a BENCH_*.json record differs from it."""
    head = _run(["git", "rev-parse", "HEAD"], tree).stdout.strip()
    status = _run(["git", "status", "--porcelain", "--untracked-files=no", "--", ".",
                   ":(exclude)BENCH_*.json"], tree)
    return {"revision": head, "uncommitted_changes": bool(status.stdout.strip())}


def settable_values(source: str) -> int:
    """Defaulted parameters of the module-level functions and of the methods
    of module-level classes, plus the class fields with a default, except a
    `field(..., init=False)`, which no caller can set.  Nested functions and
    classes are not counted."""
    def defaults(fn):
        return len(fn.args.defaults) + sum(d is not None for d in fn.args.kw_defaults)

    def settable(value):
        return not (isinstance(value, ast.Call) and any(
            k.arg == "init" and isinstance(k.value, ast.Constant) and k.value.value is False
            for k in value.keywords))

    count = 0
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            count += defaults(node)
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    count += defaults(item)
                elif isinstance(item, ast.AnnAssign) and item.value is not None and settable(item.value):
                    count += 1
    return count


def source_size(tree: Path) -> dict:
    """Lines and settable values of the Python files under the tree's src/."""
    texts = [p.read_text(encoding="utf-8") for p in sorted((tree / "src").rglob("*.py"))]
    return {"src_lines": sum(len(t.splitlines()) for t in texts),
            "settable_values": sum(settable_values(t) for t in texts)}


def environment() -> dict:
    """Python, numpy and scipy versions and nproc; scipy is None where it is
    not installed, since only the tests need it."""
    try:
        scipy = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy = None
    return {"python": platform.python_version(), "numpy": metadata.version("numpy"),
            "scipy": scipy, "nproc": len(os.sched_getaffinity(0))}


def workload(tree: Path, name: str, seed: int, seconds: float) -> dict:
    """The final JSON line of one untraced perfbench run."""
    proc = _run([sys.executable, "perfbench/run.py", "--workload", name, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", "0"], tree)
    if proc.returncode != 0:
        return {"exit_code": proc.returncode, "stderr": proc.stderr[-2000:]}
    return json.loads(proc.stdout.strip().splitlines()[-1])


def cold_import(tree: Path) -> dict:
    code = "import time; t = time.perf_counter(); import germforge; print(time.perf_counter() - t)"
    runs = [float(_run([sys.executable, "-c", code], tree, check=True).stdout) for _ in range(IMPORT_RUNS)]
    return {"min_s": min(runs), "runs_s": runs}


def csv_digests(out: Path) -> dict:
    """File name -> SHA-256 of each CSV in a CLI output directory."""
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.glob("*.csv"))}


def cli_run(tree: Path, command: str) -> dict:
    """Wall time, exit code, per-model wall times and CSV digests of one CLI run."""
    with tempfile.TemporaryDirectory() as tmp:
        t0 = time.perf_counter()
        proc = _run([sys.executable, "-m", "germforge.cli", command, "--seed", "0", "--out", tmp], tree)
        wall = time.perf_counter() - t0
        events = Path(tmp, "events.jsonl")
        models = {}
        if events.is_file():
            for line in events.read_text().splitlines():
                event = json.loads(line)
                if event["event"] == "run":
                    models[event["model"]] = event["wall_time"]
        digests = csv_digests(Path(tmp))
    return {"seconds": wall, "exit_code": proc.returncode, "model_seconds": models, "csv_sha256": digests}


def cli(tree: Path) -> dict:
    """Each command CLI_RUNS times: the fastest run's wall time, exit code,
    model times and CSV digests, the wall time of every run, and whether
    every run wrote the same CSVs."""
    out = {}
    for command in COMMANDS:
        runs = [cli_run(tree, command) for _ in range(CLI_RUNS)]
        fastest = min(runs, key=lambda r: r["seconds"])
        out[command] = {"min_s": fastest["seconds"], "runs_s": [r["seconds"] for r in runs],
                        "exit_codes": [r["exit_code"] for r in runs],
                        "model_seconds": fastest["model_seconds"], "csv_sha256": fastest["csv_sha256"],
                        "csv_runs_agree": all(r["csv_sha256"] == fastest["csv_sha256"] for r in runs)}
    return out


def tier1(tree: Path) -> dict:
    """Wall time and outcome counts of one run of the tree's tier-1 suite."""
    t0 = time.perf_counter()
    proc = _run([sys.executable, *TIER1], tree)
    wall = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    summary = lines[-1] if lines else ""
    counts = {word: int(n) for n, word in re.findall(r"(\d+) (passed|failed|error)", summary)}
    return {"seconds": wall, "exit_code": proc.returncode, "passed": counts.get("passed", 0),
            "failed": counts.get("failed", 0) + counts.get("error", 0), "summary": summary}


def cube_map(rng):
    """One map A (p(x), q(y), r(z)) on [-1, 1]^3 as ([(coefficient, roots)
    of p, q and r], A).  p has a double root, listed twice, and 1-2 simple
    roots; q and r have 1-3 simple roots.  The roots of each lie in [-0.8,
    0.8], at least 0.2 apart, the coefficients in +-[0.5, 1.5], and A is
    Gaussian with |det A| >= 0.3."""
    factors = []
    for i in range(3):
        count = int(rng.integers(2, 4)) if i == 0 else int(rng.integers(1, 4))
        roots = rng.uniform(-0.8, 0.8, count)
        while np.any(np.diff(np.sort(roots)) < 0.2):
            roots = rng.uniform(-0.8, 0.8, count)
        factors.append((float(rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 1.5)),
                        [*roots, roots[0]] if i == 0 else list(roots)))
    A = rng.normal(size=(3, 3))
    while abs(np.linalg.det(A)) < 0.3:
        A = rng.normal(size=(3, 3))
    return factors, A


def cube_map_degree(factors, A) -> int:
    """The closed form sign det A * prod_i (sign p_i(1) - sign p_i(-1)) / 2;
    no root lies on the cube's boundary."""
    ends = [[np.sign(c * np.prod(np.subtract(x, roots))) for x in (-1.0, 1.0)] for c, roots in factors]
    return int(np.sign(np.linalg.det(A)) * np.prod([(hi - lo) / 2 for lo, hi in ends]))


def sweep_3d(seed: int, count: int) -> dict:
    """compute_degree of the first `count` maps `cube_map` draws from
    default_rng(seed), map i with 32 Halton starts, the seed (0.1, 0.1, 0.1),
    budget 0.1 and rng_seed i, against `cube_map_degree`, with each map's
    degree (None where it fails loud) and section evaluations.  Runs in the
    process of the tree under test."""
    from germforge.degree import AuxiliaryNorm, PerturbationProblem, Window, compute_degree
    from germforge.errors import GermforgeError
    from germforge.spaces import GradedSpace

    rng, wrong, loud, seconds, degrees, evals = np.random.default_rng(seed), [], [], [], [], []
    for i in range(count):
        factors, A = cube_map(rng)
        evals.append(0)

        def section(x, factors=factors, A=A):
            evals[-1] += 1
            return A @ np.array([c * np.prod(x[k] - np.asarray(roots)) for k, (c, roots) in enumerate(factors)])

        pp = PerturbationProblem(section=section, window=Window(lo=-np.ones(3), hi=np.ones(3)),
                                 aux_norm=AuxiliaryNorm(fiber_space=GradedSpace(dim=3, levels=3)),
                                 budget=0.1, seeds=(np.full(3, 0.1),), grid_starts=32, rng_seed=i)
        t0 = time.perf_counter()
        try:
            degrees.append(compute_degree(pp))
            if degrees[-1] != cube_map_degree(factors, A):
                wrong.append(i)
        except GermforgeError:
            degrees.append(None)
            loud.append(i)
        seconds.append(time.perf_counter() - t0)
    return {"seed": seed, "maps": count, "wrong": len(wrong), "loud": len(loud), "wrong_maps": wrong,
            "loud_maps": loud, "degrees": degrees, "section_evals": evals,
            "median_s": float(np.median(seconds)), "max_s": max(seconds), "total_s": sum(seconds)}


def degree3d(tree: Path) -> dict:
    """`sweep_3d` of DEGREE3D_MAPS maps from DEGREE3D_SEED, run on the tree's src/."""
    code = (f"import json, sys; sys.path.insert(0, {str(ROOT / 'bench')!r}); import run; "
            f"print(json.dumps(run.sweep_3d({DEGREE3D_SEED}, {DEGREE3D_MAPS})))")
    proc = _run([sys.executable, "-c", code], tree)
    if proc.returncode != 0:
        return {"exit_code": proc.returncode, "stderr": proc.stderr[-2000:]}
    return json.loads(proc.stdout.strip().splitlines()[-1])


def layer_timings(runs: int = LAYER_RUNS, calls: int = LAYER_CALLS) -> dict:
    """Best of `runs` mean µs per call, over `calls` calls, of
    - the Newton step on the n x n system (I + 0.5 * ones) s = -f: for n = 1
      `_linalg._step_1x1` on floats, the step of every 1-D solve
      (`_newton_1d`), and for n = 2, 3 `_linalg._step`, whose 2x2 closed
      form takes it,
    - `_linalg.fd_jacobian` of the map x -> sin(x) + x^2 from R^n to R^n,
    for n = 1, 2, 3, of one `_linalg.newton` solve of x^3 - 2 = 0 from 1
    and of (x^2 + y^2 - 1, x - y) = 0 from (1, 0.5), over calls // 10 calls,
    of one `degree._ray_points` walk of 32 Gauss-Legendre nodes on
    [-0.7, 0.7] of the unit circle's chart at (1, 0), radius 0.75, over
    calls // 100 calls, and of one `cones.extreme_rays` call on the 6-facet
    polygon cone of `certify`'s shape (rows (-cos a, -sin a, 1) at the angles
    a = 2 pi j / 6), over calls // 10 calls, and of one
    `fredholm.perturb_normal_form` in `certify`'s shape (n = 3, k = 1, N = 1,
    dim W = 2: g = M x with M = 0.08 G + (0, I) on the W block, s = A x +
    Q (x * x) with A = 0.2 G', Q = 0.05 G'', G, G', G'' standard normal
    draws of `default_rng(31)`), over calls // 100 calls.  Runs in the
    process of the tree under test."""
    import timeit

    from germforge import _linalg, cones, degree, fredholm, registry, solution
    from germforge.spaces import GradedSpace

    def best(fn, number):
        return min(timeit.repeat(fn, number=number, repeat=runs)) / number * 1e6

    out = {}
    for n in (1, 2, 3):
        J, f, x = np.eye(n) + 0.5, np.linspace(0.3, -0.4, n), np.linspace(0.2, 0.7, n)
        if n == 1:
            j1, f1 = float(J[0, 0]), float(f[0])
            out["step_n1_us"] = best(lambda: _linalg._step_1x1(j1, f1), calls)
        else:
            out[f"step_n{n}_us"] = best(lambda: _linalg._step(J, f), calls)
        out[f"fd_jacobian_n{n}_us"] = best(lambda: _linalg.fd_jacobian(lambda y: np.sin(y) + y ** 2, x), calls)
    cube = lambda y: y ** 3 - 2.0
    out["newton_1d_us"] = best(lambda: _linalg.newton(cube, np.array([1.0])), max(calls // 10, 1))
    circle = lambda y: np.array([y[0] ** 2 + y[1] ** 2 - 1.0, y[0] - y[1]])
    out["newton_2d_us"] = best(lambda: _linalg.newton(circle, np.array([1.0, 0.5])), max(calls // 10, 1))
    chart = solution.build_parametrization(registry.circle_basic_germ(), np.array([1.0, 0.0]), radius=0.75)
    ts = [np.array([t]) for t in degree._gauss_legendre(-0.7, 0.7, 32)[0]]
    out["ray_points_us"] = best(lambda: degree._ray_points(chart, ts), max(calls // 100, 1))
    angles = 2.0 * np.pi * np.arange(6) / 6
    poly = cones.SubspaceInQuadrant(ambient=GradedSpace(dim=6, levels=3, weights=np.ones(6), quadrant_rank=6),
                                    basis=np.column_stack([-np.cos(angles), -np.sin(angles), np.ones(6)]))
    out["extreme_rays_us"] = best(lambda: cones.extreme_rays(poly), max(calls // 10, 1))
    rng = np.random.default_rng(31)
    M = 0.08 * rng.normal(size=(3, 5))
    M[1:, 3:] += np.eye(2)
    A, Q = 0.2 * rng.normal(size=(3, 5)), 0.05 * rng.normal(size=(3, 5))
    bg = fredholm.BasicGerm(n=3, k=1, N=1, W=GradedSpace(dim=2, levels=2, weights=np.ones(2)), g=lambda x: M @ x,
                            contraction_schedule={m: (0.6, 1.0) for m in range(3)})
    s = fredholm.ScPlusSection(section=lambda x: A @ x + Q @ (x * x), levels=2)
    out["normal_form_us"] = best(lambda: fredholm.perturb_normal_form(bg, s), max(calls // 100, 1))
    return out


def layers(tree: Path) -> dict:
    """`layer_timings` at its defaults, run on the tree's src/."""
    code = (f"import json, sys; sys.path.insert(0, {str(ROOT / 'bench')!r}); import run; "
            "print(json.dumps(run.layer_timings()))")
    proc = _run([sys.executable, "-c", code], tree)
    if proc.returncode != 0:
        return {"exit_code": proc.returncode, "stderr": proc.stderr[-2000:]}
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _first(records, key) -> dict:
    """The value of `key` in the first of the records that has it, else {}."""
    return next((r[key] for r in records if key in r), {})


def _fastest_layers(records) -> dict:
    """Each layer timing (a `_us` key) at its minimum over the records' `layers`."""
    out = {}
    for record in records:
        for key, us in record.get("layers", {}).items():
            if key.endswith("_us"):
                out[key] = min(us, out.get(key, us))
    return out


def summary(data: dict) -> list:
    """Lines comparing the "parent" and "change" records of one BENCH file:
    src/ lines and settable values, tier-1 passed and failed, whether each
    CLI command's CSV digests and the degree3d degrees and section
    evaluations agree, each workload's section_evals_per_op and each layer
    timing.  Each value is read from the first record of its label that
    holds it, except a layer timing: that is the minimum over every record
    of its label, so `--parts layers` runs of the two trees in alternation
    separate a layer's change from the machine's drift."""
    records = [data["entries"].get(label, []) for label in ("parent", "change")]

    def pair(key):
        return [_first(r, key) for r in records]

    lines = []
    for group, keys in (("source", ("src_lines", "settable_values")), ("tier1", ("passed", "failed"))):
        a, b = pair(group)
        lines += [f"{group} {key}: {a.get(key)} -> {b.get(key)}" for key in keys]
    a, b = pair("cli")
    for command in sorted(set(a) | set(b)):
        same = command in a and command in b and a[command]["csv_sha256"] == b[command]["csv_sha256"]
        lines.append(f"cli {command} csv_sha256: {'same' if same else 'DIFFER'}")
    a, b = pair("degree3d")
    for key in ("degrees", "section_evals"):
        x, y = a.get(key), b.get(key)
        if x is None or y is None or len(x) != len(y):
            verdict = "DIFFER"
        else:
            moved = [i for i, (u, v) in enumerate(zip(x, y)) if u != v]
            verdict = f"DIFFER at maps {moved}" if moved else "same"
        lines.append(f"degree3d {key}: {verdict}")
    for name in WORKLOADS:
        x, y = (_first([r.get("workloads", {}) for r in label], name).get("metrics", {})
                .get("section_evals_per_op", {}).get("value") for label in records)
        lines.append(f"{name} section_evals_per_op: {x} -> {y}")
    a, b = (_fastest_layers(r) for r in records)
    for key in {**a, **b}:
        x, y = (f"{r[key]:.2f}" if key in r else None for r in (a, b))
        lines.append(f"layers {key}: {x} -> {y}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--pr", type=int, required=True)
    parser.add_argument("--label")
    parser.add_argument("--summary", action="store_true", help="print BENCH_<pr>.json's parent against its change")
    parser.add_argument("--tree", type=Path, default=ROOT)
    parser.add_argument("--seed", type=int, default=0, help="perfbench workload seed")
    parser.add_argument("--seconds", type=float, default=30.0, help="perfbench run length")
    parser.add_argument("--parts", default=",".join(PARTS))
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    args = parser.parse_args(argv)
    path = ROOT / f"BENCH_{args.pr}.json"
    if args.summary:
        print("\n".join(summary(json.loads(path.read_text()))))
        return 0
    if args.label is None:
        parser.error("--label is required unless --summary is given")
    tree = args.tree.resolve()
    parts = [p for p in args.parts.split(",") if p]
    names = [w for w in args.workloads.split(",") if w]
    if not set(parts) <= set(PARTS) or not set(names) <= set(WORKLOADS):
        parser.error(f"--parts must be among {PARTS}, --workloads among {WORKLOADS}")
    if not (tree / "src" / "germforge" / "__init__.py").is_file():
        parser.error(f"{tree} is not a germforge source tree")

    record = {**revision(tree), **environment(), "seed": args.seed, "seconds": args.seconds,
              "started": time.strftime("%Y-%m-%dT%H:%M:%S"), "source": source_size(tree)}
    if "workloads" in parts:
        record["workloads"] = {name: workload(tree, name, args.seed, args.seconds) for name in names}
    if "import" in parts:
        record["import"] = cold_import(tree)
    if "cli" in parts:
        record["cli"] = cli(tree)
    if "tier1" in parts:
        record["tier1"] = tier1(tree)
    if "degree3d" in parts:
        record["degree3d"] = degree3d(tree)
    if "layers" in parts:
        record["layers"] = layers(tree)

    data = json.loads(path.read_text()) if path.is_file() else {"pr": args.pr, "entries": {}}
    data["entries"].setdefault(args.label, []).append(record)
    path.write_text(json.dumps(data, indent=1) + "\n")
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())

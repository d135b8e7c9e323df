"""Record the end-to-end numbers of one source tree in BENCH_<pr>.json.

    python3 bench/run.py --pr N --label parent --tree ../parent-checkout
    python3 bench/run.py --pr N --label change

For the tree (default: this checkout) one invocation records
- the final JSON line of `perfbench/run.py --trace 0` for each workload,
- the minimum cold `import germforge` time over IMPORT_RUNS fresh interpreters,
- each CLI command at `--seed 0`, run CLI_RUNS times: the minimum and every
  wall time, the exit codes, and the wall time of each model from the
  events.jsonl of the fastest run,
- one run of the tier-1 suite: wall time, exit code and passed/failed counts,
- the tree's git revision (and whether it had uncommitted changes outside
  the BENCH_*.json records), the Python, numpy and scipy versions (None
  without scipy) and nproc,
- the size of the tree's src/: its lines and its settable values.

The record is appended to the label's list in BENCH_<pr>.json at the root of
this checkout, so one file holds the runs of the parent and of the change,
made on the same machine.  `--parts` and `--workloads` restrict a run, e.g.
to one workload for alternating pairs.
"""

from __future__ import annotations

import argparse
import ast
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

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("degree-search", "atlas-integrate", "certify")
COMMANDS = ("solve-germ", "parametrize", "cones", "degree", "selftest")
PARTS = ("workloads", "import", "cli", "tier1")
TIER1 = ("-m", "pytest", "-q", "--continue-on-collection-errors")
IMPORT_RUNS = 5
CLI_RUNS = 3
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


def cli_run(tree: Path, command: str) -> dict:
    """Wall time, exit code and per-model wall times of one CLI run."""
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
    return {"seconds": wall, "exit_code": proc.returncode, "model_seconds": models}


def cli(tree: Path) -> dict:
    """Each command CLI_RUNS times: the fastest run's wall time, exit code and
    model times, plus the wall time of every run."""
    out = {}
    for command in COMMANDS:
        runs = [cli_run(tree, command) for _ in range(CLI_RUNS)]
        fastest = min(runs, key=lambda r: r["seconds"])
        out[command] = {"min_s": fastest["seconds"], "runs_s": [r["seconds"] for r in runs],
                        "exit_codes": [r["exit_code"] for r in runs],
                        "model_seconds": fastest["model_seconds"]}
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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--pr", type=int, required=True)
    parser.add_argument("--label", required=True)
    parser.add_argument("--tree", type=Path, default=ROOT)
    parser.add_argument("--seed", type=int, default=0, help="perfbench workload seed")
    parser.add_argument("--seconds", type=float, default=30.0, help="perfbench run length")
    parser.add_argument("--parts", default=",".join(PARTS))
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    args = parser.parse_args(argv)
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

    path = ROOT / f"BENCH_{args.pr}.json"
    data = json.loads(path.read_text()) if path.is_file() else {"pr": args.pr, "entries": {}}
    data["entries"].setdefault(args.label, []).append(record)
    path.write_text(json.dumps(data, indent=1) + "\n")
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())

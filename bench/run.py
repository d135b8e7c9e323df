"""Record the end-to-end numbers of one source tree in BENCH_<pr>.json.

    python3 bench/run.py --pr N --label parent --tree ../parent-checkout
    python3 bench/run.py --pr N --label change

For the tree (default: this checkout) one invocation records
- the final JSON line of `perfbench/run.py --trace 0` for each workload,
- the minimum cold `import germforge` time over IMPORT_RUNS fresh interpreters,
- each CLI command at `--seed 0`: wall time, exit code, and the wall time of
  each model from its events.jsonl,
- the tree's git revision (and whether it had uncommitted changes), the
  Python, numpy and scipy versions and nproc.

The record is appended to the label's list in BENCH_<pr>.json at the root of
this checkout, so one file holds the runs of the parent and of the change,
made on the same machine.  `--parts` and `--workloads` restrict a run, e.g.
to one workload for alternating pairs.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile
import time
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("degree-search", "atlas-integrate", "certify")
COMMANDS = ("solve-germ", "parametrize", "cones", "degree", "selftest")
PARTS = ("workloads", "import", "cli")
IMPORT_RUNS = 5
# perfbench pins BLAS the same way; the other measurements get the same setting
SINGLE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def _run(args, tree: Path, **kwargs):
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), **SINGLE_THREAD)
    return subprocess.run(args, cwd=tree, env=env, capture_output=True, text=True, **kwargs)


def revision(tree: Path) -> dict:
    head = _run(["git", "rev-parse", "HEAD"], tree).stdout.strip()
    dirty = bool(_run(["git", "status", "--porcelain", "--untracked-files=no"], tree).stdout.strip())
    return {"revision": head, "uncommitted_changes": dirty}


def environment() -> dict:
    return {"python": platform.python_version(), "numpy": metadata.version("numpy"),
            "scipy": metadata.version("scipy"), "nproc": os.cpu_count()}


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


def cli(tree: Path) -> dict:
    out = {}
    for command in COMMANDS:
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
        out[command] = {"seconds": wall, "exit_code": proc.returncode, "model_seconds": models}
    return out


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
              "started": time.strftime("%Y-%m-%dT%H:%M:%S")}
    if "workloads" in parts:
        record["workloads"] = {name: workload(tree, name, args.seed, args.seconds) for name in names}
    if "import" in parts:
        record["import"] = cold_import(tree)
    if "cli" in parts:
        record["cli"] = cli(tree)

    path = ROOT / f"BENCH_{args.pr}.json"
    data = json.loads(path.read_text()) if path.is_file() else {"pr": args.pr, "entries": {}}
    data["entries"].setdefault(args.label, []).append(record)
    path.write_text(json.dumps(data, indent=1) + "\n")
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())

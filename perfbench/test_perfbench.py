"""Tests of the benchmark itself: closed-form answers, repeatable inputs and
counts, span structure, and the command-line contract.

    python3 -m pytest -q perfbench
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
import workloads  # noqa: E402
from workloads import (  # noqa: E402
    EvalCounter,
    build_ops,
    complex_degree_2d,
    linear_germ_solution,
    poly_degree_1d,
    polygon_cone_rays,
    rotation_form_integral,
)


@pytest.mark.parametrize("coeff, simple, double, want", [
    (1.0, [-1.0, 0.0, 1.0], [], 1),      # x^3 - x
    (1.0, [-1.0, 1.0], [], 0),           # x^2 - 1
    (-1.0, [0.0], [], -1),               # -x
    (1.0, [0.0], [0.5], 1),              # x (x - 1/2)^2
    (-2.0, [], [0.3], 0),                # -2 (x - 0.3)^2
])
def test_poly_degree_1d(coeff, simple, double, want):
    assert poly_degree_1d(coeff, simple, double) == want


def test_complex_degree_2d():
    assert complex_degree_2d([0j], [1 + 0j]) == 0           # z conj(z - 1)
    assert complex_degree_2d([0.5j, 0.5j], []) == 2         # (z - i/2)^2
    assert complex_degree_2d([], [0j]) == -1                # conj(z)


def test_rotation_form_integral():
    assert rotation_form_integral(1.0, 1.0) == pytest.approx(2 * math.pi)
    assert rotation_form_integral(-0.5, 2.0) == pytest.approx(-4 * math.pi)


def test_polygon_cone_rays_of_a_square():
    # facets (-1,0,1), (0,-1,1), (1,0,1), (0,1,1): facets 0 and 1 meet in y = (1,1,1)
    rays = polygon_cone_rays(np.array([0.0, 0.5, 1.0, 1.5]) * np.pi)
    assert len(rays) == 4
    assert np.allclose(rays[0], np.array([0.0, 0.0, 1.0, 1.0]) / math.sqrt(2))
    for r in rays:
        assert np.min(r) >= -1e-12 and np.sum(np.abs(r) < 1e-12) == 2


def test_linear_germ_solution():
    A, C = np.array([[0.5]]), np.array([[1.0]])
    assert linear_germ_solution(A, C, np.array([1.0])) == pytest.approx([2.0])


def test_degree_mix_is_fixed_by_index():
    ops = build_ops("degree-search", 5, EvalCounter(), 24)
    assert sum("double_root" in op.props for op in ops) == 6
    assert [op.kind for op in ops].count("1d") == 12


def test_inputs_repeat_for_a_seed_and_do_not_depend_on_count():
    a = build_ops("degree-search", 3, EvalCounter(), 8)
    b = build_ops("degree-search", 3, EvalCounter(), 3)
    assert [op.expected for op in a[:3]] == [op.expected for op in b]
    c1, c2 = EvalCounter(), EvalCounter()
    build_ops("degree-search", 3, c1, 1)[0].run()
    build_ops("degree-search", 3, c2, 1)[0].run()
    assert c1.total == c2.total > 0


@pytest.mark.parametrize("workload, index", [("degree-search", 0), ("degree-search", 1), ("certify", 0)])
def test_generated_answers_match_the_library(workload, index):
    op = build_ops(workload, 1, EvalCounter(), index + 1)[index]
    assert "double_root" not in op.props
    assert op.run()


def test_tail_percentile():
    assert run.tail_percentile(list(range(100))) == (89, pytest.approx(100 * 89 / 99))
    assert run.tail_percentile([3.0, 1.0, 2.0]) == (3.0, 100.0)


# per-layer metrics that are counts, not times, and so must repeat exactly
COUNTED = [name for name, unit in run.PER_LAYER
           if unit != "ms" and not name.startswith(("import.", "trace."))]


@pytest.mark.parametrize("workload, count", [("degree-search", 4), ("certify", 1)])
def test_traced_counts_repeat(workload, count):
    results = []
    for _ in range(2):
        counter = EvalCounter()
        ops = build_ops(workload, 11, counter, count)
        runner, aggs, spans = run.run_workload(ops, counter, 0.0, traced=True, namespaces=(workloads,))
        assert runner.consistent          # the traced pass repeats the untraced one
        metrics = run.per_layer(runner, aggs, (1.0, 1.0))
        results.append({k: metrics[k] for k in COUNTED})
        roots = [i for i, s in enumerate(spans) if s[0] == "op"]
        assert [spans[i][4] for i in roots] == list(range(count))
        assert all(s[3] < i and s[1] <= s[2] for i, s in enumerate(spans) if s[3] >= 0)
        assert all(s[4] == spans[s[3]][4] for s in spans if s[3] >= 0)
    assert results[0] == results[1]
    assert results[0]["model.evals_per_op"] > 0


def test_benchmark_json_lists_the_runner_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, f"{HERE.name}/run.py", "--workload", "certify", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

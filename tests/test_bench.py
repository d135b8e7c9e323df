"""The end-to-end recorder bench/run.py: its dirty-tree check, its size counts, its 3-D sweep and its layer timings."""

import hashlib
import importlib.util
import itertools
import json
import subprocess
from pathlib import Path

import numpy as np

spec = importlib.util.spec_from_file_location("bench_run", Path(__file__).resolve().parent.parent / "bench" / "run.py")
bench_run = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_run)


def _git(tree, *args):
    subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@example.org", *args],
                   cwd=tree, check=True, capture_output=True)


def test_revision_ignores_bench_records(tmp_path):
    (tmp_path / "src").mkdir()
    (tmp_path / "src" / "mod.py").write_text("x = 1\n")
    (tmp_path / "BENCH_1.json").write_text("{}\n")
    _git(tmp_path, "init", "-q")
    _git(tmp_path, "add", "-A")
    _git(tmp_path, "commit", "-q", "-m", "start")
    assert bench_run.revision(tmp_path)["uncommitted_changes"] is False
    (tmp_path / "BENCH_1.json").write_text('{"entries": {}}\n')
    assert bench_run.revision(tmp_path)["uncommitted_changes"] is False
    (tmp_path / "src" / "mod.py").write_text("x = 2\n")
    assert bench_run.revision(tmp_path)["uncommitted_changes"] is True


def test_settable_values_counts_top_level_defaults_only():
    source = '''
def f(a, b=1, *, c=2, d):
    def nested(e=3):
        return e
    return nested

class C:
    x: int
    y: int = 0
    z = 5

    def m(self, p=None):
        class Inner:
            w: int = 1
        return Inner
'''
    # b, c; y; p.  Not: nested's e, the unannotated z, Inner's w
    assert bench_run.settable_values(source) == 4


def test_settable_values_skips_fields_no_caller_can_set():
    source = '''
@dataclass
class C:
    a: dict = field(default_factory=dict)
    b: dict = field(default_factory=dict, init=False, repr=False)
    c: int = field(default=0, init=True)
'''
    # a and c; the init=False memo b is no parameter of C
    assert bench_run.settable_values(source) == 2


def test_source_size_counts_lines_and_values(tmp_path):
    (tmp_path / "src" / "pkg").mkdir(parents=True)
    (tmp_path / "src" / "pkg" / "a.py").write_text("def f(x=1):\n    return x\n")
    (tmp_path / "src" / "pkg" / "b.py").write_text("Y = 2\n")
    assert bench_run.source_size(tmp_path) == {"src_lines": 3, "settable_values": 1}


def test_environment_records_no_scipy_version_without_scipy(monkeypatch):
    version = bench_run.metadata.version

    def without_scipy(name):
        if name == "scipy":
            raise bench_run.metadata.PackageNotFoundError(name)
        return version(name)

    monkeypatch.setattr(bench_run.metadata, "version", without_scipy)
    env = bench_run.environment()
    assert env["scipy"] is None and env["numpy"] == version("numpy")


def test_cube_map_degree_is_the_signed_count_of_the_simple_zeros():
    # a zero (a, b, c) counts sign det A * sign p'(a) q'(b) r'(c), and 0 at p's double root
    def slope(coefficient, roots, a):
        rest = list(roots)
        rest.remove(a)
        return coefficient * np.prod(np.subtract(a, rest))

    rng = np.random.default_rng(0)
    for _ in range(30):
        factors, A = bench_run.cube_map(rng)
        distinct = [sorted(set(roots)) for _, roots in factors]
        assert [len(roots) - len(set(roots)) for _, roots in factors] == [1, 0, 0]
        assert all(np.all(np.abs(r) <= 0.8) and np.all(np.diff(r) >= 0.2) for r in distinct)
        assert abs(np.linalg.det(A)) >= 0.3
        count = sum(np.sign(np.linalg.det(A)) * np.prod([np.sign(slope(c, roots, a))
                                                         for (c, roots), a in zip(factors, zero)])
                    for zero in itertools.product(*distinct))
        assert bench_run.cube_map_degree(factors, A) == count


def test_cube_map_degree_of_two_rounded_maps():
    assert bench_run.cube_map_degree(
        [(0.583392, [-0.261067, 0.080949, 0.080949]), (-0.562025, [-0.599979, -0.324828, 0.271871]),
         (0.729402, [-0.669305])],
        np.array([[-1.076108, -1.426966, 0.308461], [-0.663885, -1.988295, 2.483483],
                  [-0.834854, -1.255509, 1.239788]])) == -1
    assert bench_run.cube_map_degree(
        [(-0.877996, [-0.747467, -0.160643, -0.160643, 0.476517]), (1.293575, [-0.180055, 0.173253, 0.542158]),
         (1.061820, [-0.539781, -0.338929, 0.332672])],
        np.array([[0.036086, 0.147825, 1.763003], [-0.04285, 0.800355, 0.055702],
                  [-0.457185, -0.456809, -0.820401]])) == 0


def test_sweep_3d_records_each_maps_degree_and_section_evaluations():
    out = bench_run.sweep_3d(2024, 2)
    rng = np.random.default_rng(2024)
    assert out["degrees"] == [bench_run.cube_map_degree(*bench_run.cube_map(rng)) for _ in range(2)]
    assert len(out["section_evals"]) == 2 and min(out["section_evals"]) > 0


def test_layer_timings_time_each_layer_call_in_microseconds(monkeypatch):
    # the 1x1 step is timed on `_step_1x1`, the step of every 1-D solve;
    # `_step` gets only the 2x2 and 3x3 systems
    from germforge import _linalg

    steps, step, step_1x1 = [], _linalg._step, _linalg._step_1x1
    monkeypatch.setattr(_linalg, "_step", lambda J, f: steps.append(J.shape) or step(J, f))
    monkeypatch.setattr(_linalg, "_step_1x1", lambda J, f: steps.append(type(J)) or step_1x1(J, f))
    out = bench_run.layer_timings(runs=2, calls=10)
    assert sorted(out) == sorted([f"{name}_n{n}_us" for name in ("step", "fd_jacobian") for n in (1, 2, 3)]
                                 + ["newton_1d_us", "newton_2d_us", "ray_points_us", "extreme_rays_us",
                                    "normal_form_us"])
    assert all(isinstance(v, float) and 0.0 < v < 1e6 for v in out.values())
    assert set(steps) == {float, (2, 2), (3, 3)}


def test_a_layers_record_of_the_tree_runs_in_its_own_process():
    out = bench_run.layers(bench_run.ROOT)
    assert "exit_code" not in out and out["newton_1d_us"] > 0.0 and out["newton_2d_us"] > 0.0
    assert out["ray_points_us"] > 0.0


def test_csv_digests_hash_each_csv_and_leave_out_the_events(tmp_path):
    (tmp_path / "b-model.csv").write_bytes(b"x,y\n1,2\n")
    (tmp_path / "a-model.csv").write_bytes(b"")
    (tmp_path / "events.jsonl").write_text('{"event": "run", "wall_time": 0.1}\n')
    assert bench_run.csv_digests(tmp_path) == {
        "a-model.csv": hashlib.sha256(b"").hexdigest(),
        "b-model.csv": hashlib.sha256(b"x,y\n1,2\n").hexdigest()}


def test_a_cli_record_carries_the_fastest_runs_digests_and_whether_the_runs_agree(monkeypatch):
    def record(digests):
        runs = iter(zip([1.0, 0.5, 2.0], digests))

        def fake_run(tree, command):
            seconds, digest = next(runs)
            return {"seconds": seconds, "exit_code": 0, "model_seconds": {}, "csv_sha256": {"a.csv": digest}}

        monkeypatch.setattr(bench_run, "cli_run", fake_run)
        return bench_run.cli(Path("."))["degree"]

    monkeypatch.setattr(bench_run, "COMMANDS", ("degree",))
    assert record(["1", "1", "1"])["csv_runs_agree"] is True
    out = record(["1", "2", "1"])
    assert (out["min_s"], out["csv_sha256"], out["csv_runs_agree"]) == (0.5, {"a.csv": "2"}, False)


def test_a_cli_run_of_the_tree_records_its_csvs():
    out = bench_run.cli_run(bench_run.ROOT, "solve-germ")
    assert out["exit_code"] == 0 and out["csv_sha256"]
    assert all(name.startswith("solve-germ-") and name.endswith(".csv") for name in out["csv_sha256"])


def synthetic_record(src_lines, passed, csv, degrees, evals, per_op, step_us):
    return {"source": {"src_lines": src_lines, "settable_values": 105}, "tier1": {"passed": passed, "failed": 0},
            "cli": {"degree": {"csv_sha256": {"degree-cubic.csv": csv}}, "cones": {"csv_sha256": {}}},
            "degree3d": {"degrees": degrees, "section_evals": evals},
            "workloads": {"certify": {"metrics": {"section_evals_per_op": {"value": per_op}}}},
            "layers": {"step_n2_us": step_us}}


def test_summary_compares_the_parent_with_the_change(tmp_path, capsys, monkeypatch):
    data = {"pr": 99, "entries": {
        "parent": [synthetic_record(5196, 523, "aa", [1, -1, None], [10, 20, 30], 1782.5, 10.6),
                   {"source": {"src_lines": 0}, "workloads": {"degree-search": {"metrics": {}}}}],
        "change": [{"workloads": {"certify": {"metrics": {"section_evals_per_op": {"value": 1782.5}}}}},
                   synthetic_record(5149, 525, "bb", [1, -1, None], [10, 21, 30], 0.0, 1.234)]}}
    lines = bench_run.summary(data)
    assert lines == [
        "source src_lines: 5196 -> 5149",
        "source settable_values: 105 -> 105",
        "tier1 passed: 523 -> 525",
        "tier1 failed: 0 -> 0",
        "cli cones csv_sha256: same",
        "cli degree csv_sha256: DIFFER",
        "degree3d degrees: same",
        "degree3d section_evals: DIFFER at maps [1]",
        "degree-search section_evals_per_op: None -> None",
        "atlas-integrate section_evals_per_op: None -> None",
        "certify section_evals_per_op: 1782.5 -> 1782.5",
        "layers step_n2_us: 10.60 -> 1.23",
    ]
    # --summary reads BENCH_<pr>.json at the root of the checkout and records nothing
    (tmp_path / "BENCH_99.json").write_text(json.dumps(data))
    monkeypatch.setattr(bench_run, "ROOT", tmp_path)
    assert bench_run.main(["--pr", "99", "--summary"]) == 0
    assert capsys.readouterr().out.splitlines() == lines
    assert json.loads((tmp_path / "BENCH_99.json").read_text()) == data


def test_summary_takes_each_layer_timing_at_its_minimum_over_the_labels_records():
    # alternating `--parts layers` runs append one record per run to each label
    data = {"entries": {
        "parent": [{"layers": {"step_n2_us": 10.6, "newton_1d_us": 40.0}}, {"source": {"src_lines": 1}},
                   {"layers": {"step_n2_us": 9.75, "newton_1d_us": 41.0, "ray_points_us": 300.0}}],
        "change": [{"layers": {"step_n2_us": 1.5, "newton_1d_us": 39.0}},
                   {"layers": {"exit_code": 1, "stderr": "boom"}},
                   {"layers": {"step_n2_us": 1.234, "newton_1d_us": 39.5}}]}}
    assert [line for line in bench_run.summary(data) if line.startswith("layers")] == [
        "layers step_n2_us: 9.75 -> 1.23",
        "layers newton_1d_us: 40.00 -> 39.00",
        "layers ray_points_us: 300.00 -> None",
    ]

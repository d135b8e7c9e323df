"""The end-to-end recorder bench/run.py: its dirty-tree check and its size counts."""

import importlib.util
import subprocess
from pathlib import Path

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

import contextlib
import io
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from germforge.cli import MODEL_CHECKS, load_config, main
from germforge.errors import ConfigError


def run_cli(args, env=None):
    cmd = [sys.executable, "-m", "germforge.cli", *args]
    full_env = dict(os.environ)
    if env:
        full_env.update(env)
    return subprocess.run(cmd, capture_output=True, text=True, env=full_env)


def test_load_config_defaults():
    cfg = load_config(None, "degree", {"seed": None, "out": None, "tol": None, "trials": None})
    assert cfg.models == ["cubic", "square-minus-one", "identity"]
    assert cfg.seed == 0


def test_load_config_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "# comment line\n"
        "[run]\n"
        "models = cubic, identity   # inline comment\n"
        "seed = 7\n"
        "trials = 3\n"
        "tol = 1e-8\n",
        encoding="utf-8",
    )
    cfg = load_config(path, "degree", {"seed": None, "out": None, "tol": None, "trials": None})
    assert cfg.models == ["cubic", "identity"]
    assert cfg.seed == 7
    assert cfg.trials == 3
    assert cfg.tol == 1e-8


def test_load_config_unknown_model(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("[run]\nmodels = not-a-model\n", encoding="utf-8")
    with pytest.raises(ConfigError) as exc:
        load_config(path, "degree", {"seed": None, "out": None, "tol": None, "trials": None})
    assert "models" in str(exc.value)


def test_load_config_bad_field(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("[run]\nseed = not-an-int\n", encoding="utf-8")
    with pytest.raises(ConfigError) as exc:
        load_config(path, "degree", {"seed": None, "out": None, "tol": None, "trials": None})
    assert "seed" in str(exc.value)


def test_missing_config_file_is_exit_2(tmp_path):
    res = run_cli(["degree", "--config", str(tmp_path / "nope.cfg"), "--out", str(tmp_path)])
    assert res.returncode == 2
    assert "config error" in res.stderr


def test_config_that_is_not_utf8_is_exit_2(tmp_path, capsys):
    path = tmp_path / "run.cfg"
    path.write_bytes(b"[run]\nmodels = \xff\n")
    assert main(["solve-germ", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert "config error" in capsys.readouterr().err


def test_flag_overrides_and_outputs(tmp_path):
    out = tmp_path / "reports"
    rc = main(["degree", "--seed", "11", "--trials", "2", "--out", str(out)])
    assert rc == 0
    assert (out / "degree-cubic.csv").exists()
    assert (out / "degree-square-minus-one.csv").exists()
    assert (out / "events.jsonl").exists()
    text = (out / "degree-cubic.csv").read_text()
    assert "metric,degree,1" in text
    assert "provenance,seed,11" in text


def test_degree_of_the_double_root_model(tmp_path):
    # (x - 1/2)^2 (x + 1): the double root is bumped inside its stop ball,
    # and every invariance trial gives degree 1
    cfg = _config(tmp_path, "models = double-root\n")
    assert main(["degree", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    text = (tmp_path / "out" / "degree-double-root.csv").read_text()
    assert "metric,degree,1" in text and "invariant,degree_invariant,pass" in text


def test_env_var_overrides_out(tmp_path):
    env_out = tmp_path / "via-env"
    res = run_cli(["degree", "--trials", "2", "--out", str(tmp_path / "ignored")],
                  env={"GERMFORGE_OUT": str(env_out)})
    assert res.returncode == 0
    assert (env_out / "degree-cubic.csv").exists()
    assert not (tmp_path / "ignored").exists()


def test_solve_germ_command(tmp_path):
    rc = main(["solve-germ", "--out", str(tmp_path)])
    assert rc == 0
    text = (tmp_path / "solve-germ-cos-germ.csv").read_text()
    assert "invariant,tangent_coherent,pass" in text
    assert "derivative" in text


def test_cones_command(tmp_path):
    rc = main(["cones", "--out", str(tmp_path)])
    assert rc == 0
    text = (tmp_path / "cones-diag-plane.csv").read_text()
    assert "metric,ray_count,2" in text
    assert "metric,is_quadrant,true" in text
    ice = (tmp_path / "cones-ice-cream.csv").read_text()
    assert "metric,ray_count,8" in ice
    assert "metric,is_quadrant,false" in ice


def test_parametrize_command(tmp_path):
    rc = main(["parametrize", "--out", str(tmp_path)])
    assert rc == 0
    text = (tmp_path / "parametrize-circle.csv").read_text()
    assert "invariant,a_at_0.6,pass" in text
    assert "sample_chart" in text
    corner = (tmp_path / "parametrize-parabola-at-corner.csv").read_text()
    assert "invariant,corner_accounting,pass" in corner


def test_determinism_byte_identical_metrics(tmp_path):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    assert main(["degree", "--seed", "99", "--trials", "2", "--out", str(out1)]) == 0
    assert main(["degree", "--seed", "99", "--trials", "2", "--out", str(out2)]) == 0
    for name in ("degree-cubic.csv", "degree-square-minus-one.csv", "degree-identity.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_events_jsonl_structure(tmp_path):
    import json

    assert main(["degree", "--seed", "1", "--trials", "2", "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "events.jsonl").read_text().strip().splitlines()
    events = [json.loads(line) for line in lines]
    kinds = {e["event"] for e in events}
    assert {"run", "metric", "invariant"} <= kinds
    runs = [e for e in events if e["event"] == "run"]
    assert all("wall_time" in e and "version" in e for e in runs)


def test_selftest_reports_each_criterion_wall_time(tmp_path, monkeypatch):
    import json

    from germforge import selftest

    fake = [selftest.CriterionResult("a", True, {"x": 1}, wall_time=0.25),
            selftest.CriterionResult("b", True, {"y": 2}, wall_time=1.5)]
    monkeypatch.setattr(selftest, "run_all", lambda echo=None: fake)
    assert main(["selftest", "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "events.jsonl").read_text().strip().splitlines()
    runs = [e for e in map(json.loads, lines) if e["event"] == "run"]
    assert {e["model"]: e["wall_time"] for e in runs} == {"a": 0.25, "b": 1.5}


def test_selftest_csvs_do_not_depend_on_the_seed(tmp_path, monkeypatch):
    from germforge import selftest

    fake = [selftest.CriterionResult("a", True, {"x": 1}, wall_time=0.25)]
    monkeypatch.setattr(selftest, "run_all", lambda echo=None: fake)
    for seed in ("0", "5"):
        assert main(["selftest", "--seed", seed, "--out", str(tmp_path / seed)]) == 0
    assert (tmp_path / "0" / "selftest-a.csv").read_bytes() == (tmp_path / "5" / "selftest-a.csv").read_bytes()
    assert "seed" not in (tmp_path / "5" / "events.jsonl").read_text()


def test_selftest_csvs_do_not_depend_on_the_tolerance(tmp_path, monkeypatch):
    from germforge import selftest

    fake = [selftest.CriterionResult("a", True, {"x": 1}, wall_time=0.25)]
    monkeypatch.setattr(selftest, "run_all", lambda echo=None: fake)
    default, loose = tmp_path / "default", tmp_path / "loose"
    assert main(["selftest", "--out", str(default)]) == 0
    assert main(["selftest", "--tol", "0.001", "--trials", "7", "--out", str(loose)]) == 0
    assert (default / "selftest-a.csv").read_bytes() == (loose / "selftest-a.csv").read_bytes()
    assert "tol" not in (loose / "events.jsonl").read_text()


@pytest.mark.parametrize("models", ["nope", "cubic", "all, circle"])
def test_selftest_accepts_only_all_models(tmp_path, models, capsys):
    out = tmp_path / "out"
    assert main(["selftest", "--config", _config(tmp_path, f"models = {models}\n"), "--out", str(out)]) == 2
    assert capsys.readouterr().err.count("config error") == 1
    assert not out.exists()


@pytest.mark.parametrize("command", ["solve-germ", "selftest"])
def test_an_empty_model_list_is_exit_2(tmp_path, command, capsys):
    out = tmp_path / "out"
    assert main([command, "--config", _config(tmp_path, "models = ,\n"), "--out", str(out)]) == 2
    assert capsys.readouterr().err.count("config error") == 1
    assert not out.exists()


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_seed_outside_0_to_2_pow_64_is_exit_2(tmp_path, seed, capsys):
    # Philox keys and SeedSequence entropy must be nonnegative
    assert main(["cones", "--seed", str(seed), "--out", str(tmp_path)]) == 2
    assert "seed" in capsys.readouterr().err
    assert not (tmp_path / "events.jsonl").exists()


def test_out_naming_a_file_is_a_config_error(tmp_path, capsys, monkeypatch):
    a_file = tmp_path / "a_file"
    a_file.write_text("", encoding="utf-8")
    assert main(["solve-germ", "--out", str(a_file)]) == 2
    assert "out" in capsys.readouterr().err
    monkeypatch.setenv("GERMFORGE_OUT", str(a_file))
    assert main(["solve-germ", "--out", str(tmp_path / "ignored")]) == 2
    assert not (tmp_path / "ignored").exists()


def test_out_below_a_file_is_a_config_error(tmp_path, capsys, monkeypatch):
    # mkdir used to raise NotADirectoryError after every model had run
    a_file = tmp_path / "a_file"
    a_file.write_text("", encoding="utf-8")
    assert main(["solve-germ", "--out", str(a_file / "sub")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error") and "out" in err[0]
    monkeypatch.setenv("GERMFORGE_OUT", str(a_file / "sub" / "deeper"))
    assert main(["solve-germ", "--out", str(tmp_path / "ignored")]) == 2
    assert len(capsys.readouterr().err.splitlines()) == 1
    assert not (tmp_path / "ignored").exists()


@pytest.mark.parametrize("tol", ["nan", "inf", "-1e-9", "0"])
def test_tolerance_must_be_finite_and_positive(tmp_path, tol, capsys):
    assert main(["degree", f"--tol={tol}", "--out", str(tmp_path)]) == 2
    assert "tol" in capsys.readouterr().err


def test_config_file_seed_and_tolerance_are_checked(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("[run]\nseed = -3\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="seed"):
        load_config(path, "cones", {"seed": None, "out": None, "tol": None, "trials": None})
    path.write_text("[run]\ntol = nan\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="tol"):
        load_config(path, "cones", {"seed": None, "out": None, "tol": None, "trials": None})


def _config(tmp_path, text):
    path = tmp_path / "run.cfg"
    path.write_text("[run]\n" + text, encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("command,models", [
    ("degree", "circle"),                  # was a TypeError traceback
    ("cones", "cubic"),                    # was an AttributeError traceback
    ("solve-germ", "circle"),              # was an AttributeError traceback
    ("parametrize", "circle, cubic"),      # was exit 2 only after circle had run
])
def test_model_of_the_wrong_kind_is_exit_2_before_any_model_runs(tmp_path, command, models, capsys):
    out = tmp_path / "out"
    assert main([command, "--config", _config(tmp_path, f"models = {models}\n"), "--out", str(out)]) == 2
    assert "models" in capsys.readouterr().err
    assert not out.exists()


def test_failing_model_is_isolated_and_reports_are_written(tmp_path, capsys):
    import json

    both, alone = tmp_path / "both", tmp_path / "alone"
    cfg = _config(tmp_path, "models = cubic, boundary-parabola\n")
    assert main(["degree", "--config", cfg, "--trials", "2", "--out", str(both)]) == 1
    assert "IndexMismatch" in capsys.readouterr().err
    assert main(["degree", "--trials", "2", "--out", str(alone)]) == 0
    assert (both / "degree-cubic.csv").read_bytes() == (alone / "degree-cubic.csv").read_bytes()
    assert "invariant,completed,fail" in (both / "degree-boundary-parabola.csv").read_text()
    events = [json.loads(line) for line in (both / "events.jsonl").read_text().splitlines()]
    errors = [e for e in events if e["event"] == "error"]
    assert [(e["model"], e["error"]) for e in errors] == [("boundary-parabola", "IndexMismatch")]
    assert errors[0]["message"]
    assert {e["model"] for e in events if e["event"] == "run"} == {"cubic", "boundary-parabola"}


def test_numerical_error_in_a_model_is_isolated(tmp_path, capsys, monkeypatch):
    import json

    import numpy as np

    from germforge import cli

    def singular(rep, model, cfg):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setitem(cli.MODEL_CHECKS["solve-germ"], "linear-germ", singular)
    assert main(["solve-germ", "--out", str(tmp_path)]) == 1
    assert "LinAlgError" in capsys.readouterr().err
    assert "invariant,contraction_certified,pass" in (tmp_path / "solve-germ-cos-germ.csv").read_text()
    assert "invariant,completed,fail" in (tmp_path / "solve-germ-linear-germ.csv").read_text()
    events = [json.loads(line) for line in (tmp_path / "events.jsonl").read_text().splitlines()]
    errors = [e for e in events if e["event"] == "error"]
    assert [(e["model"], e["error"], e["message"]) for e in errors] == [
        ("linear-germ", "LinAlgError", "Singular matrix")]
    assert "singular" in errors[0]["traceback"]


def test_integrate_forms_must_be_a_boolean(tmp_path, capsys):
    cfg = _config(tmp_path, "integrate_forms = maybe\n")
    assert main(["parametrize", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    assert "integrate_forms" in capsys.readouterr().err


@pytest.mark.parametrize("model", ["rotating-line", "diagonal-line", "quadrant-plane"])
def test_parametrize_other_models(tmp_path, model):
    cfg = _config(tmp_path, f"models = {model}\n")
    assert main(["parametrize", "--config", cfg, "--out", str(tmp_path)]) == 0
    text = (tmp_path / f"parametrize-{model}.csv").read_text()
    assert "invariant,residuals,pass" in text
    if model != "rotating-line":
        assert "invariant,corner_accounting,pass" in text


# accepted by some command, accepted by none, or not parseable as a name
FUZZ_MODELS = sorted({m for checks in MODEL_CHECKS.values() for m in checks}) + ["all", "nope", "50%", "%(x)s"]
# any value a field may hold, most of them config errors
FUZZ_FIELDS = {
    "models": st.lists(st.sampled_from(FUZZ_MODELS), max_size=2).map(", ".join),
    "seed": st.one_of(st.sampled_from([-1, 0, 2**64 - 1, 2**64]), st.integers(-2**70, 2**70)).map(str),
    "tol": st.one_of(st.sampled_from(["nan", "inf", "-inf", "0", "-1e-9", "1e-9", "x"]),
                     st.floats(allow_nan=True, allow_infinity=True).map(repr)),
    "trials": st.integers(-3, 3).map(str),
    "integrate_forms": st.sampled_from(["true", "false", "maybe", "2", ""]),
    "out": st.sampled_from(["fresh", "a_file", "a_file/sub"]),
}


def run_configs(command):
    """[run] fields of `command`: each present field draws a value the
    command accepts twice as often as any value, so that about half the
    configs reach a model and the rest end in a config error."""
    valid = {
        "models": st.lists(st.sampled_from(sorted(MODEL_CHECKS[command])), min_size=1, max_size=2).map(", ".join),
        "seed": st.integers(0, 2**64 - 1).map(str),
        "tol": st.floats(min_value=1e-300, max_value=1e300).map(repr),
        "trials": st.integers(1, 3).map(str),
        "integrate_forms": st.sampled_from(["true", "false"]),
        "out": st.just("fresh"),
    }
    fields = {k: st.one_of(valid[k], valid[k], FUZZ_FIELDS[k]) for k in FUZZ_FIELDS}
    return st.dictionaries(st.sampled_from(sorted(fields)), st.just(None)).flatmap(
        lambda keys: st.fixed_dictionaries({k: fields[k] for k in keys}))


@settings(max_examples=100, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(command=st.sampled_from(["solve-germ", "parametrize", "cones", "degree"]), data=st.data())
def test_exit_code_is_0_1_or_2_on_any_run_config(command, data):
    fields = data.draw(run_configs(command))
    with tempfile.TemporaryDirectory() as tmp:
        (Path(tmp) / "a_file").write_text("", encoding="utf-8")
        if fields.get("out") is not None:
            fields["out"] = str(Path(tmp) / fields["out"])
        cfg = Path(tmp) / "run.cfg"
        cfg.write_text("[run]\n" + "".join(f"{k} = {v}\n" for k, v in fields.items()), encoding="utf-8")
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main([command, "--config", str(cfg), "--out", str(Path(tmp) / "out")])
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()

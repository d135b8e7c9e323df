"""Batch experiment commands with CSV metric tables and JSONL event logs.

Configuration is flat key-value text with section headers and # comments;
arrays are comma-separated.  Every run writes one CSV of metric and
invariant rows per (command, model) plus a single events.jsonl; metric
values are formatted with repr so identical seeds give byte-identical
tables.  Each command accepts the models listed in MODEL_CHECKS and runs
the checks it shares with the selftest criteria on each of them.  Exit
codes: 0 all invariants pass, 1 invariant failure (a library error in one
model fails that model's report and the other models still run), 2 config
error.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import json
import os
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__, cones, registry, selftest
from .degree import enumerate_zeros, invariance_suite
from .errors import ConfigError, GermforgeError
from .germs import SamplingPlan, verify_contraction
from .solution import SolutionAtlas, build_boundary_parametrization, build_parametrization

DEFAULT_MODELS = {
    "solve-germ": ["cos-germ", "linear-germ"],
    "parametrize": ["circle", "parabola-at-corner"],
    "cones": ["diag-plane", "diagonal-in-square", "ice-cream"],
    "degree": ["cubic", "square-minus-one", "identity"],
    "selftest": ["all"],
}


@dataclass
class RunConfig:
    command: str
    models: list
    seed: int = 0
    trials: int = 10
    tol: float = 1e-9
    out: Path = Path("germforge-out")
    integrate_forms: bool = False


@dataclass
class Report:
    command: str
    model: str
    metrics: list = field(default_factory=list)      # (name, value)
    passes: list = field(default_factory=list)       # (invariant, bool)
    wall_time: float = 0.0
    error: dict | None = None                        # the error event of a failed check

    def add_metric(self, name, value):
        self.metrics.append((name, value))

    def add_invariant(self, name, ok):
        self.passes.append((name, bool(ok)))

    @property
    def all_passed(self) -> bool:
        return all(ok for _, ok in self.passes)


def load_config(path: Path | None, command: str, overrides: dict) -> RunConfig:
    cfg = RunConfig(command=command, models=list(DEFAULT_MODELS[command]))
    if path is not None:
        parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
        # a value is interpolated when it is read, so a stray '%' fails there
        try:
            if not parser.read(path, encoding="utf-8"):
                raise ConfigError(f"config file {path} not found or unreadable")
            if parser.has_section("run"):
                run = parser["run"]
                if "models" in run:
                    cfg.models = [m.strip() for m in run["models"].split(",") if m.strip()]
                getters = {"seed": run.getint, "trials": run.getint, "tol": run.getfloat,
                           "integrate_forms": run.getboolean}
                for key, get in getters.items():
                    if key in run:
                        try:
                            setattr(cfg, key, get(key))
                        except ValueError as exc:
                            raise ConfigError(f"field [run].{key}: {exc}") from exc
                if "out" in run:
                    cfg.out = Path(run["out"])
        except (configparser.Error, UnicodeDecodeError) as exc:
            raise ConfigError(f"config parse error: {exc}") from exc
    for key, value in overrides.items():
        if value is not None:
            setattr(cfg, key, value)
    env_out = os.environ.get("GERMFORGE_OUT")
    if env_out:
        cfg.out = Path(env_out)
    # the nearest existing ancestor (or out itself) must be a directory, or
    # write_reports' mkdir fails after every model has run
    existing = next((p for p in (cfg.out, *cfg.out.parents) if p.exists()), None)
    if existing is not None and not existing.is_dir():
        raise ConfigError(f"field [run].out: {existing} exists and is not a directory")
    if not cfg.models:
        raise ConfigError("field [run].models: lists no model")
    accepted = MODEL_CHECKS.get(cfg.command, DEFAULT_MODELS[cfg.command])
    for m in cfg.models:
        if m not in accepted:
            raise ConfigError(f"field [run].models: {cfg.command} does not accept model {m!r}; "
                              f"accepted: {sorted(accepted)}")
    if not 0 <= cfg.seed < 2**64:
        raise ConfigError("field [run].seed: must be an integer in [0, 2**64)")
    if not (np.isfinite(cfg.tol) and cfg.tol > 0):
        raise ConfigError("field [run].tol: must be finite and positive")
    if cfg.trials < 1:
        raise ConfigError("field [run].trials: must be at least 1")
    return cfg


def check_solve_germ(rep: Report, model: str, cfg: RunConfig):
    germ = registry.build(model)
    for m, res in enumerate(selftest.level_residuals(germ)):
        rep.add_metric(f"residual_level_{m}", res)
        rep.add_invariant(f"residual_level_{m}_le_tol", res <= cfg.tol)
    d, fd_err = selftest.derivative_fd_check(germ)
    rep.add_metric("derivative", float(d[0, 0]))
    rep.add_metric("derivative_fd_rel_error", fd_err)
    rep.add_invariant("derivative_matches_fd", fd_err <= 1e-6)
    worst = selftest.tangent_coherence_error(germ, np.random.Generator(np.random.Philox(key=cfg.seed)), 20)
    rep.add_metric("tangent_coherence_error", worst)
    rep.add_invariant("tangent_coherent", worst <= 1e-8)
    ver = verify_contraction(germ, 0, SamplingPlan(seed=cfg.seed))
    rep.add_metric("contraction_ratio", ver.max_ratio)
    rep.add_invariant("contraction_certified", ver.passed)


def _add_residuals(rep: Report, sampled_charts):
    """One residual row per (row prefix, chart, samples t), named by the
    prefix and the sample's index within its chart, then their maximum."""
    worst = 0.0
    for prefix, chart, samples in sampled_charts:
        for i, t in enumerate(samples):
            r = chart.residual(t)
            worst = max(worst, r)
            rep.add_metric(f"{prefix}{i}", r)
    rep.add_metric("max_residual", worst)
    rep.add_invariant("residuals", worst <= 1e-8)


def check_circle(rep: Report, model: str, cfg: RunConfig):
    charts = selftest.circle_charts()
    a_err = selftest.a_error(charts[0])
    rep.add_metric("a_at_0.6_error", a_err)
    rep.add_invariant("a_at_0.6", a_err <= 1e-9)
    _add_residuals(rep, [(f"sample_chart{i}_", c, c.domain_samples(10, seed=cfg.seed))
                         for i, c in enumerate(charts)])
    t_worst = selftest.transition_mismatch(charts[0])
    rep.add_metric("transition_mismatch", t_worst)
    rep.add_invariant("transition", t_worst <= 1e-8)
    if cfg.integrate_forms:
        val = selftest.circumference(SolutionAtlas(charts=tuple(charts)))
        rep.add_metric("circumference_integral", val)
        rep.add_invariant("circumference", abs(val - 2 * np.pi) <= 1e-6)


def check_corner_chart(rep: Report, model: str, cfg: RunConfig):
    bg = registry.build(model)
    chart = build_boundary_parametrization(bg, np.zeros(bg.domain_dim), radius=0.4)
    samples = chart.domain_samples(20, seed=cfg.seed)
    _add_residuals(rep, [("sample_", chart, samples)])
    rep.add_invariant("corner_accounting", selftest.corner_accounting(chart, samples))


def check_rotating_line(rep: Report, model: str, cfg: RunConfig):
    v0 = 0.2
    mag = 1.0 + 0.3 * np.sin(v0)
    q = np.array([v0, mag * np.cos(v0), mag * np.sin(v0)])
    chart = build_parametrization(registry.rotating_line_basic_germ(), q, radius=0.3)
    _add_residuals(rep, [("sample_", chart, chart.domain_samples(20, seed=cfg.seed))])


def check_cones(rep: Report, model: str, cfg: RunConfig):
    sub = registry.build(model)
    neat = cones.is_neat(sub)
    rep.add_metric("neat", neat.neat)
    try:
        gp = cones.is_good_position(sub, seed=cfg.seed)
        rep.add_metric("good_position", gp.ok)
        rep.add_metric("constant_c", gp.c if gp.c is not None else float("nan"))
        good = gp.ok
    except cones.Inconclusive:
        rep.add_metric("good_position", "inconclusive")
        good = False
    try:
        rays = cones.extreme_rays(sub)
        rep.add_metric("ray_count", len(rays))
        rep.add_metric("is_quadrant", cones.is_quadrant(sub).is_quadrant)
        if good:
            rep.add_invariant("sigma_counts", selftest.sigma_counts_ok(sub, rays))
            rt = selftest.round_trip_error(sub, np.random.Generator(np.random.Philox(key=cfg.seed)), 100)
            rep.add_metric("round_trip_error", rt)
            rep.add_invariant("round_trip", rt <= 1e-10)
        km = selftest.krein_milman_residual(rays, np.random.Generator(np.random.Philox(key=cfg.seed + 1)), 200)
        rep.add_metric("krein_milman_residual", km)
        rep.add_invariant("krein_milman", km <= 1e-8)
    except cones.NotPointed:
        rep.add_metric("ray_count", "not-pointed")


def check_degree(rep: Report, model: str, cfg: RunConfig):
    pp = registry.build(model, seed=cfg.seed)
    zeros = enumerate_zeros(pp)
    rep.add_metric("zero_count", len(zeros))
    for i, z in enumerate(zeros):
        rep.add_metric(f"zero_{i}", ";".join(repr(float(c)) for c in z.point))
        rep.add_invariant(f"zero_{i}_residual", z.residual <= 1e-10)
    shift = selftest.cubic_homotopy_shift if model == "cubic" else None
    suite = invariance_suite(pp, trials=cfg.trials, homotopy_shift=shift)
    deg = suite.degree
    rep.add_metric("degree", deg)
    rep.add_metric("invariance_trials", len(suite.trial_degrees))
    rep.add_invariant("degree_invariant", all(d == deg for d in suite.trial_degrees))
    if shift is not None:
        rep.add_invariant("homotopy_invariant", all(d == deg for _, d in suite.homotopy_degrees))


# the models each command accepts, with the check it runs on each
MODEL_CHECKS = {
    "solve-germ": dict.fromkeys(("cos-germ", "linear-germ"), check_solve_germ),
    "parametrize": {"circle": check_circle, "rotating-line": check_rotating_line,
                    **dict.fromkeys(("parabola-at-corner", "diagonal-line", "quadrant-plane"),
                                    check_corner_chart)},
    "cones": dict.fromkeys(("diag-plane", "diagonal-in-square", "ice-cream"), check_cones),
    "degree": dict.fromkeys(("cubic", "square-minus-one", "identity", "boundary-parabola", "double-root"),
                            check_degree),
}


def run_models(cfg: RunConfig) -> list:
    """One report per model.  An exception inside a model's check, from the
    library or from numpy, fails that report (invariant `completed`,
    plus an error event; an exception from outside the library also carries
    its traceback there) and the other models still run."""
    reports = []
    for model in cfg.models:
        t0 = time.time()
        rep = Report(command=cfg.command, model=model)
        try:
            MODEL_CHECKS[cfg.command][model](rep, model, cfg)
        except Exception as exc:        # library errors and numerical ones (LinAlgError, ...) alike
            print(f"error in {cfg.command}/{model}: {type(exc).__name__}: {exc}", file=sys.stderr)
            rep.add_invariant("completed", False)
            rep.error = {"error": type(exc).__name__, "message": str(exc)}
            if not isinstance(exc, GermforgeError):
                rep.error["traceback"] = traceback.format_exc()
            if getattr(exc, "residual", None) is not None:
                rep.error["residual"] = float(exc.residual)
        rep.wall_time = time.time() - t0
        reports.append(rep)
    return reports


def run_selftest(cfg: RunConfig) -> list:
    results = selftest.run_all(echo=print)
    reports = []
    for res in results:
        rep = Report(command="selftest", model=res.name, wall_time=res.wall_time)
        for k, v in sorted(res.metrics.items()):
            rep.add_metric(k, v)
        rep.add_invariant(res.name, res.passed)
        reports.append(rep)
    return reports


def _format_value(v) -> str:
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    if isinstance(v, (int, np.integer)):
        return repr(int(v))
    return str(v)


def write_reports(reports: list, cfg: RunConfig) -> None:
    """All file writes happen here, once, after every command finished."""
    cfg.out.mkdir(parents=True, exist_ok=True)
    provenance = {"seed": cfg.seed, "tol": cfg.tol, "version": __version__}
    if cfg.command == "selftest":    # the battery pins its own seeds and tolerances
        provenance = {"version": __version__}
    with (cfg.out / "events.jsonl").open("w", encoding="utf-8") as ev:
        for rep in reports:
            ev.write(json.dumps({"event": "run", "command": rep.command, "model": rep.model,
                                 **provenance, "wall_time": rep.wall_time}) + "\n")
            if rep.error is not None:
                ev.write(json.dumps({"event": "error", "command": rep.command, "model": rep.model,
                                     **rep.error}) + "\n")
            csv_path = cfg.out / f"{rep.command}-{rep.model}.csv"
            with csv_path.open("w", encoding="utf-8", newline="") as fh:
                writer = csv.writer(fh, quoting=csv.QUOTE_MINIMAL)
                writer.writerow(["kind", "name", "value"])
                for key, value in provenance.items():
                    writer.writerow(["provenance", key, _format_value(value)])
                for name, value in rep.metrics:
                    writer.writerow(["metric", name, _format_value(value)])
                    ev.write(json.dumps({"event": "metric", "command": rep.command,
                                         "model": rep.model, "name": name,
                                         "value": _format_value(value)}) + "\n")
                for name, ok in rep.passes:
                    writer.writerow(["invariant", name, "pass" if ok else "fail"])
                    ev.write(json.dumps({"event": "invariant", "command": rep.command,
                                         "model": rep.model, "name": name, "passed": ok}) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="germforge",
        description="Batch harness for germ solving, parametrization, cone analysis, and degrees.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in DEFAULT_MODELS:
        p = sub.add_parser(name)
        p.add_argument("--config", type=Path, default=None)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", type=Path, default=None)
        p.add_argument("--tol", type=float, default=None)
        p.add_argument("--trials", type=int, default=None)
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config, args.command, {
            "seed": args.seed, "out": args.out, "tol": args.tol, "trials": args.trials,
        })
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        reports = run_selftest(cfg) if cfg.command == "selftest" else run_models(cfg)
    except GermforgeError as exc:
        print(f"invariant failure: {exc}", file=sys.stderr)
        return 1
    write_reports(reports, cfg)
    failed = [f"{r.command}/{r.model}:{name}" for r in reports for name, ok in r.passes if not ok]
    for r in reports:
        status = "PASS" if r.all_passed else "FAIL"
        print(f"{status} {r.command} {r.model}")
    if failed:
        print("failed invariants: " + ", ".join(failed), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Batch experiment commands with CSV metric tables and JSONL event logs.

Configuration is flat key-value text with section headers and # comments;
arrays are comma-separated.  Every run writes one CSV of metric and
invariant rows per (command, model) plus a single events.jsonl; metric
values are formatted with repr so identical seeds give byte-identical
tables.  Exit codes: 0 all invariants pass, 1 invariant failure, 2 config
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
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__, cones, registry, selftest
from .degree import DifferentialForm, enumerate_zeros, integrate_form, invariance_suite
from .errors import ConfigError, GermforgeError
from .germs import SamplingPlan, SolutionGerm, germ_derivative, solve_germ, tangent_germ, verify_contraction
from .solution import SolutionAtlas, build_boundary_parametrization, build_parametrization, recentre, transition_map
from .spaces import GradedSpace
from .splicing import degeneracy_index

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
    provenance: dict = field(default_factory=dict)

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
        try:
            read = parser.read(path, encoding="utf-8")
        except configparser.Error as exc:
            raise ConfigError(f"config parse error: {exc}") from exc
        if not read:
            raise ConfigError(f"config file {path} not found or unreadable")
        if parser.has_section("run"):
            run = parser["run"]
            if "models" in run:
                cfg.models = [m.strip() for m in run["models"].split(",") if m.strip()]
            for key, cast in (("seed", int), ("trials", int), ("tol", float)):
                if key in run:
                    try:
                        setattr(cfg, key, cast(run[key]))
                    except ValueError as exc:
                        raise ConfigError(f"field [run].{key}: {exc}") from exc
            if "out" in run:
                cfg.out = Path(run["out"])
            if "integrate_forms" in run:
                cfg.integrate_forms = run.getboolean("integrate_forms")
    for key, value in overrides.items():
        if value is not None:
            setattr(cfg, key, value)
    env_out = os.environ.get("GERMFORGE_OUT")
    if env_out:
        cfg.out = Path(env_out)
    if cfg.command != "selftest":
        known = set(registry.MODEL_BUILDERS)
        for m in cfg.models:
            if m not in known:
                raise ConfigError(f"field [run].models: unknown model {m!r}; known: {sorted(known)}")
    if not 0 <= cfg.seed < 2**64:
        raise ConfigError("field [run].seed: must be an integer in [0, 2**64)")
    if not (np.isfinite(cfg.tol) and cfg.tol > 0):
        raise ConfigError("field [run].tol: must be finite and positive")
    if cfg.trials < 1:
        raise ConfigError("field [run].trials: must be at least 1")
    return cfg


def _finish(report: Report, cfg: RunConfig, wall_time: float):
    report.provenance = {
        "seed": cfg.seed,
        "tol": cfg.tol,
        "version": __version__,
        "wall_time": wall_time,
    }
    return report


def cmd_solve_germ(cfg: RunConfig) -> list:
    reports = []
    for model in cfg.models:
        t0 = time.time()
        rep = Report(command="solve-germ", model=model)
        germ = registry.build(model)
        v0 = np.zeros(germ.parameter_space.dim)
        for m in range(germ.solution_space.levels + 1):
            u = solve_germ(germ, v0, m=m, tol=1e-12)
            res = germ.solution_space.level_norm(u - germ.evaluate(v0, u), m)
            rep.add_metric(f"residual_level_{m}", res)
            rep.add_invariant(f"residual_level_{m}_le_tol", res <= cfg.tol)
        d = germ_derivative(germ, v0)
        rep.add_metric("derivative", float(d[0, 0]))
        h = 1e-6
        e0 = np.zeros_like(v0)
        e0[0] = h
        fd = (solve_germ(germ, e0, tol=1e-13) - solve_germ(germ, -e0, tol=1e-13)) / (2 * h)
        fd_err = float(np.max(np.abs(d[:, 0] - fd)) / max(np.max(np.abs(fd)), 1e-30))
        rep.add_metric("derivative_fd_rel_error", fd_err)
        rep.add_invariant("derivative_matches_fd", fd_err <= 1e-6)
        sol = SolutionGerm(germ, tol=1e-13)
        lifted = tangent_germ(germ, sol)
        rng = np.random.Generator(np.random.Philox(key=cfg.seed))
        worst = 0.0
        for _ in range(20):
            v = rng.uniform(-0.2, 0.2, size=germ.parameter_space.dim)
            b = rng.uniform(-1.0, 1.0, size=germ.parameter_space.dim)
            got = solve_germ(lifted, np.concatenate([v, b]), tol=1e-13)
            want = np.concatenate([sol(v), sol.derivative(v) @ b])
            worst = max(worst, float(np.max(np.abs(got - want))))
        rep.add_metric("tangent_coherence_error", worst)
        rep.add_invariant("tangent_coherent", worst <= 1e-8)
        ver = verify_contraction(germ, 0, SamplingPlan(seed=cfg.seed))
        rep.add_metric("contraction_ratio", ver.max_ratio)
        rep.add_invariant("contraction_certified", ver.passed)
        reports.append(_finish(rep, cfg, time.time() - t0))
    return reports


def _parametrize_circle(rep: Report, cfg: RunConfig):
    bg = registry.build("circle")
    bases = [np.array([1.0, 0.0]), np.array([0.0, 1.0]),
             np.array([-1.0, 0.0]), np.array([0.0, -1.0])]
    charts = [build_parametrization(bg, q, radius=0.75) for q in bases]
    a_err = float(np.max(np.abs(charts[0].a_vector(np.array([0.6])) - np.array([-0.2, 0.0]))))
    rep.add_metric("a_at_0.6_error", a_err)
    rep.add_invariant("a_at_0.6", a_err <= 1e-9)
    worst = 0.0
    for i, c in enumerate(charts):
        for t in c.domain_samples(10, seed=cfg.seed):
            r = c.residual(t)
            worst = max(worst, r)
            rep.add_metric(f"sample_chart{i}_t_{t[0]:+.6f}", r)
    rep.add_metric("max_residual", worst)
    rep.add_invariant("residuals", worst <= 1e-8)
    recentred = recentre(charts[0], np.array([0.4]))
    tm = transition_map(charts[0], recentred, recentred.base_point)
    t_worst = max(tm.mismatch(np.array([t])) for t in np.linspace(-0.05, 0.05, 9))
    rep.add_metric("transition_mismatch", t_worst)
    rep.add_invariant("transition", t_worst <= 1e-8)
    atlas = SolutionAtlas(charts=tuple(charts))
    if cfg.integrate_forms:
        omega = DifferentialForm(degree=1, coeff=lambda x: np.array([-x[1], x[0]]))
        val = integrate_form(atlas, omega)
        rep.add_metric("circumference_integral", val)
        rep.add_invariant("circumference", abs(val - 2 * np.pi) <= 1e-6)


def _parametrize_boundary(rep: Report, cfg: RunConfig, model: str):
    bg = registry.build(model)
    chart = build_boundary_parametrization(bg, np.zeros(bg.domain_dim), radius=0.4)
    amb = GradedSpace(dim=bg.domain_dim, levels=bg.W.levels, quadrant_rank=bg.k)
    worst = 0.0
    corner_ok = True
    for t in chart.domain_samples(20, seed=cfg.seed):
        worst = max(worst, chart.residual(t))
        g = chart.gamma(t)
        rep.add_metric(f"sample_t_{t[0]:+.6f}", chart.residual(t))
        n = chart.kernel_basis @ t
        s = chart.structure.to_standard @ n
        active = int(np.sum(np.abs(s[: chart.structure.quadrant_count]) <= 1e-9))
        if degeneracy_index(g, amb) != active:
            corner_ok = False
    rep.add_metric("max_residual", worst)
    rep.add_invariant("residuals", worst <= 1e-8)
    rep.add_invariant("corner_accounting", corner_ok)


def _parametrize_rotating_line(rep: Report, cfg: RunConfig):
    bg = registry.rotating_line_basic_germ()
    v0 = 0.2
    mag = 1.0 + 0.3 * np.sin(v0)
    q = np.array([v0, mag * np.cos(v0), mag * np.sin(v0)])
    chart = build_parametrization(bg, q, radius=0.3)
    worst = 0.0
    for t in chart.domain_samples(20, seed=cfg.seed):
        r = chart.residual(t)
        worst = max(worst, r)
        rep.add_metric(f"sample_t_{t[0]:+.6f}", r)
    rep.add_metric("max_residual", worst)
    rep.add_invariant("residuals", worst <= 1e-8)


def cmd_parametrize(cfg: RunConfig) -> list:
    reports = []
    for model in cfg.models:
        t0 = time.time()
        rep = Report(command="parametrize", model=model)
        if model == "circle":
            _parametrize_circle(rep, cfg)
        elif model == "rotating-line":
            _parametrize_rotating_line(rep, cfg)
        elif model in ("parabola-at-corner", "diagonal-line", "quadrant-plane"):
            _parametrize_boundary(rep, cfg, model)
        else:
            raise ConfigError(f"model {model!r} has no parametrize harness")
        reports.append(_finish(rep, cfg, time.time() - t0))
    return reports


def cmd_cones(cfg: RunConfig) -> list:
    reports = []
    for model in cfg.models:
        t0 = time.time()
        rep = Report(command="cones", model=model)
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
            qres = cones.is_quadrant(sub)
            rep.add_metric("is_quadrant", qres.is_quadrant)
            if good:
                sigma_ok = all(
                    len(cones.sigma_set(r, sub.n, tol=1e-8)) == sub.dim - 1 for r in rays
                )
                rep.add_invariant("sigma_counts", sigma_ok)
                qs = cones.quadrant_structure(sub, certified=True)
                rng = np.random.Generator(np.random.Philox(key=cfg.seed))
                rt = 0.0
                for _ in range(100):
                    lam = np.abs(rng.normal(size=len(qs.rays)))
                    x = sum(l * r for l, r in zip(lam, qs.rays))
                    rt = max(rt, float(np.max(np.abs(qs.from_standard @ (qs.to_standard @ x) - x))))
                rep.add_metric("round_trip_error", rt)
                rep.add_invariant("round_trip", rt <= 1e-10)
            km = 0.0
            rng = np.random.Generator(np.random.Philox(key=cfg.seed + 1))
            for _ in range(200):
                lam = np.abs(rng.normal(size=len(rays)))
                p = sum(l * r for l, r in zip(lam, rays))
                km = max(km, cones.cone_membership_residual(p, rays))
            rep.add_metric("krein_milman_residual", km)
            rep.add_invariant("krein_milman", km <= 1e-8)
        except cones.NotPointed:
            rep.add_metric("ray_count", "not-pointed")
        reports.append(_finish(rep, cfg, time.time() - t0))
    return reports


def cmd_degree(cfg: RunConfig) -> list:
    reports = []
    for model in cfg.models:
        t0 = time.time()
        rep = Report(command="degree", model=model)
        pp = registry.build(model, seed=cfg.seed)
        zeros = enumerate_zeros(pp)
        rep.add_metric("zero_count", len(zeros))
        for i, z in enumerate(zeros):
            rep.add_metric(f"zero_{i}", ";".join(repr(float(c)) for c in z.point))
            rep.add_invariant(f"zero_{i}_residual", z.residual <= 1e-10)
        shift = (lambda t, x: np.array([0.05 * t])) if model == "cubic" else None
        suite = invariance_suite(pp, trials=cfg.trials, homotopy_shift=shift)
        deg = suite.degree
        rep.add_metric("degree", deg)
        rep.add_metric("invariance_trials", len(suite.trial_degrees))
        rep.add_invariant("degree_invariant", all(d == deg for d in suite.trial_degrees))
        if shift is not None:
            rep.add_invariant("homotopy_invariant", all(d == deg for _, d in suite.homotopy_degrees))
        reports.append(_finish(rep, cfg, time.time() - t0))
    return reports


def cmd_selftest(cfg: RunConfig) -> list:
    results = selftest.run_all(echo=print)
    reports = []
    for res in results:
        rep = Report(command="selftest", model=res.name)
        for k, v in sorted(res.metrics.items()):
            rep.add_metric(k, v)
        rep.add_invariant(res.name, res.passed)
        reports.append(_finish(rep, cfg, res.wall_time))
    return reports


COMMANDS = {
    "solve-germ": cmd_solve_germ,
    "parametrize": cmd_parametrize,
    "cones": cmd_cones,
    "degree": cmd_degree,
    "selftest": cmd_selftest,
}


def _format_value(v) -> str:
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    if isinstance(v, (int, np.integer)):
        return repr(int(v))
    return str(v)


def write_reports(reports: list, out_dir: Path) -> None:
    """All file writes happen here, once, after every command finished."""
    out_dir.mkdir(parents=True, exist_ok=True)
    events_path = out_dir / "events.jsonl"
    with events_path.open("w", encoding="utf-8") as ev:
        for rep in reports:
            ev.write(json.dumps({"event": "run", "command": rep.command, "model": rep.model,
                                 **rep.provenance}) + "\n")
            csv_path = out_dir / f"{rep.command}-{rep.model}.csv"
            with csv_path.open("w", encoding="utf-8", newline="") as fh:
                writer = csv.writer(fh, quoting=csv.QUOTE_MINIMAL)
                writer.writerow(["kind", "name", "value"])
                writer.writerow(["provenance", "seed", _format_value(rep.provenance.get("seed", 0))])
                writer.writerow(["provenance", "tol", _format_value(rep.provenance.get("tol", 0.0))])
                writer.writerow(["provenance", "version", rep.provenance.get("version", "")])
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
    for name in COMMANDS:
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
        reports = COMMANDS[cfg.command](cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except GermforgeError as exc:
        print(f"invariant failure: {exc}", file=sys.stderr)
        return 1
    write_reports(reports, cfg.out)
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

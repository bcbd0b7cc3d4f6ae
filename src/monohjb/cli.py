"""Command-line front end.

Commands: solve | simulate | sweep | check-mesh | oracle-check | bounds.
All runs are driven by a YAML config file; unknown keys are hard errors,
and a null is an invalid value of its key.
Exit codes: 0 success, 1 config/usage error, 2 numerical non-convergence,
non-finite problem data or failed check, 3 I/O error.
"""

from __future__ import annotations

import argparse
import datetime
import math
import sys
from pathlib import Path

import numpy as np
import yaml

from . import __version__
from .bellman import _check_step
from .errors import (
    ConfigurationError,
    InvalidProblemDataError,
    MeshConstructionError,
    NonConvergenceError,
    OutOfDomainError,
    UnknownProblemError,
)
from .fespace import _nodal_csv_bytes, control_grid, level_index, sup_norm_diff
from .feedback import check_start, cost_consistency, simulate, trajectory_csv
from .harness import (
    brute_force_oracle,
    fit_rate_rows,
    phi_T,
    phi_n,
    run_sweep,
    sweep_csv,
    tail_bound,
    theoretical_envelope,
)
from .mesh import build_uniform, check_hypotheses, dump as mesh_dump, snap_mesh_size
from .problem import builtin, holder_exponent
from .solver import SolveOptions, solve, solve_finite_horizon

_TOP_KEYS = {
    "problem", "k", "h", "method", "stop_rule", "target", "max_iterations",
    "simulate", "sweep", "oracle_check", "bounds", "mesh",
}
_SECTION_KEYS = {
    "simulate": {"x0", "a0", "steps"},
    "sweep": {"k_list", "coupling", "c"},
    "oracle_check": {"mu"},
    "bounds": {"T", "n"},
    "mesh": {"dump", "compact"},
}


def _load_config(path: str) -> dict:
    try:
        with open(path) as f:
            cfg = yaml.safe_load(f)
    except yaml.YAMLError as exc:
        raise ConfigurationError(f"cannot parse config {path}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigurationError("config must be a mapping")
    unknown = set(cfg) - _TOP_KEYS
    if unknown:
        raise ConfigurationError(f"unknown config keys: {sorted(unknown)}")
    for section, allowed in _SECTION_KEYS.items():
        sub = cfg.get(section)
        if sub is None:
            continue
        if not isinstance(sub, dict):
            raise ConfigurationError(f"config section {section!r} must be a mapping")
        bad = set(sub) - allowed
        if bad:
            raise ConfigurationError(f"unknown keys in {section!r}: {sorted(bad)}")
    return cfg


def _integer(value) -> int:
    """An integral number as an int; 2.5 or "many" raise ValueError."""
    number = float(value)
    if not number.is_integer():
        raise ValueError(f"{value!r} is not an integer")
    return int(number)


def _boolean(value) -> bool:
    """A YAML true or false; any other value, such as 'no' or 1, raises ValueError."""
    if not isinstance(value, bool):
        raise ValueError(f"{value!r} is not true or false")
    return value


def _holds(value, kind) -> bool:
    """Whether value is of type kind, or a list holding one at any depth."""
    if isinstance(value, list):
        return any(_holds(item, kind) for item in value)
    return isinstance(value, kind)


_REQUIRED = object()


def _read(cfg: dict, key: str, kind=str, default=_REQUIRED):
    """cfg[key] converted by kind (str, float, _integer, dict, ...).

    A missing key gives default; without one it is a config error.  A key
    that is given is read: a value that kind rejects is a config error
    naming the key and the value, and so is a null (str(None) would be
    'None', and numpy reads a null in a list as NaN) or a YAML true or
    false for any kind but _boolean (float(True) is 1), alone or inside a
    list.
    """
    if key not in cfg:
        if default is _REQUIRED:
            raise ConfigurationError(f"config is missing required key {key!r}")
        return default
    try:
        if _holds(cfg[key], type(None)) or (kind is not _boolean and _holds(cfg[key], bool)):
            raise ValueError(f"{cfg[key]!r} is not a {kind}")
        return kind(cfg[key])
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(f"config key {key!r} has invalid value {cfg[key]!r}") from exc


def _snap(domain, k: float) -> float:
    """snap_mesh_size(domain, k), saying on stderr when it differs from k."""
    snapped = snap_mesh_size(domain, k)
    if snapped != k:
        print(f"snapped k from {k} to {snapped}", file=sys.stderr)
    return snapped


def _setup(cfg: dict, snap_k: bool):
    spec = builtin(_read(cfg, "problem"))
    k = _read(cfg, "k", float)
    if snap_k:
        k = _snap(spec.domain, k)
    h = _read(cfg, "h", float, k)
    tri = build_uniform(spec.domain, k)
    grid = control_grid(h)
    return spec, k, h, tri, grid


def _options(cfg: dict) -> dict:
    """The SolveOptions fields other than h; a key the config leaves out
    takes the SolveOptions default."""
    kinds = {"method": str, "stop_rule": str, "target": float, "max_iterations": _integer}
    return {key: _read(cfg, key, kind, getattr(SolveOptions, key)) for key, kind in kinds.items()}


def _write(out_dir: Path, name: str, payload):
    """Write a str, or bytes as they are, to out_dir/name."""
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / name
    if isinstance(payload, str):
        path.write_text(payload)
    else:
        path.write_bytes(payload)


def _report_header(cfg: dict, extra: dict) -> str:
    stamp = datetime.datetime.now(datetime.timezone.utc).isoformat()
    lines = [f"# monohjb {__version__} run report", f"# generated: {stamp}", ""]
    lines.append("resolved_config:")
    lines.append(yaml.safe_dump(cfg, default_flow_style=False, sort_keys=True).rstrip())
    lines.append("")
    for key, val in extra.items():
        lines.append(f"{key}: {val}")
    return "\n".join(lines) + "\n"


def policy_csv(policy) -> str:
    """CSV of the chosen next level: node,a_index,b_index, one line per
    (node, level).

    Every `a,b` line tail is formatted once; a node's lines are its tails,
    picked by `choice[i].tolist()`, joined with the node's `i,` prefix.
    """
    n = policy.choice.shape[1]
    tails = [[f"{a},{b}\n" for b in range(n)] for a in range(n)]
    chunks = ["node,a_index,b_index\n"]
    for i, row in enumerate(policy.choice.tolist()):
        node = f"{i},"
        chunks.append(node + node.join([tail[b] for tail, b in zip(tails, row)]))
    return "".join(chunks)


def cmd_solve(cfg, out_dir, snap_k) -> int:
    spec, k, h, tri, grid = _setup(cfg, snap_k)
    opts = SolveOptions(h=h, **_options(cfg))
    try:
        u, policy, report = solve(spec, tri, grid, opts)
        code = 0
    except NonConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        u, policy, report = exc.value, exc.policy, exc.report
        code = 2
    # the CSV's bytes, with no round trip through a str (20 MB at k = h = 0.025)
    _write(out_dir, "value.csv", _nodal_csv_bytes(u, tri, grid))
    _write(out_dir, "policy.csv", policy_csv(policy))
    _write(out_dir, "report.txt", _report_header(cfg, {
        "method": report.method,
        "iterations": report.iterations,
        "converged": report.converged,
        "final_residual": f"{report.final_residual:.17g}",
        "guaranteed_error": f"{report.guaranteed_error:.17g}",
        "wall_time_s": f"{report.wall_time:.6f}",
        "residual_history": "[" + ", ".join(f"{d:.17g}" for d in report.residual_history) + "]",
        "evaluation_iterations": report.evaluation_iterations,
    }))
    return code


def cmd_simulate(cfg, out_dir, snap_k) -> int:
    spec, k, h, tri, grid = _setup(cfg, snap_k)
    sub = _read(cfg, "simulate", dict)
    x0 = _read(sub, "x0", lambda v: np.asarray(v, dtype=float))
    a0 = level_index(grid, _read(sub, "a0", float))
    steps = _read(sub, "steps", _integer)
    try:
        check_start(tri, grid, x0, a0, steps)
    except OutOfDomainError as exc:
        raise ConfigurationError(f"config key 'x0' is not in the mesh: {exc}") from exc
    u, _, report = solve(spec, tri, grid, SolveOptions(h=h, **_options(cfg)))
    traj = simulate(spec, tri, grid, u, x0, a0, h, steps)
    gap = cost_consistency(spec, tri, grid, u, traj, h)
    _write(out_dir, "trajectory.csv", trajectory_csv(traj, grid))
    _write(out_dir, "report.txt", _report_header(cfg, {
        "solve_iterations": report.iterations,
        "guaranteed_error": f"{report.guaranteed_error:.17g}",
        "discounted_total": f"{traj.discounted_total:.17g}",
        "bellman_identity_gap": f"{gap:.17g}",
        "terminal_control": f"{grid.levels[traj.terminal_control]:.17g}",
        "terminal_state": "[" + ", ".join(f"{x:.17g}" for x in traj.states[-1]) + "]",
    }))
    return 0


def cmd_sweep(cfg, out_dir, snap_k) -> int:
    spec = builtin(_read(cfg, "problem"))
    sub = _read(cfg, "sweep", dict)
    k_list = _read(sub, "k_list", lambda ks: [float(k) for k in ks])
    if snap_k:
        k_list = [_snap(spec.domain, k) for k in k_list]
    coupling = _read(sub, "coupling", str, "h=k")
    c = _read(sub, "c", float, None)
    rows = run_sweep(spec, k_list, coupling=coupling, c=c, **_options(cfg))
    try:
        rate = fit_rate_rows(rows)
    except ConfigurationError:
        rate = None
    _write(out_dir, "sweep.csv", sweep_csv(rows, rate))
    _write(out_dir, "report.txt", _report_header(cfg, {
        "rows": len(rows),
        "fitted_rate": "n/a" if rate is None else f"{rate:.17g}",
        "max_guaranteed_error": f"{max(r.guaranteed_error for r in rows):.17g}",
        "all_converged": all(r.converged for r in rows),
    }))
    return 0 if all(r.converged for r in rows) else 2


def cmd_check_mesh(cfg, out_dir, snap_k) -> int:
    spec, k, h, tri, grid = _setup(cfg, snap_k)
    # the step the solver would reject is no mesh the hypotheses can certify
    _check_step(h, spec.discount)
    sub = _read(cfg, "mesh", dict, {})
    compact = _read(sub, "compact", lambda v: np.asarray(v, dtype=float).reshape(2, tri.dim), None)
    dump = _read(sub, "dump", _boolean, False)
    report = check_hypotheses(tri, spec, h, grid.levels, compact=compact)
    ok = report.hip1_ok and report.hip2_ok and report.chi1 > 0 and math.isfinite(report.k_over_d_max)
    if dump:
        _write(out_dir, "mesh.txt", mesh_dump(tri))
    _write(out_dir, "mesh_report.txt", _report_header(cfg, {
        "vertices": tri.n_vertices,
        "simplices": len(tri.simplices),
        "hip1_ok": report.hip1_ok,
        "hip2_ok": report.hip2_ok,
        "hip3_margin": f"{report.hip3_margin:.17g}",
        "chi1": f"{report.chi1:.17g}",
        "k_over_d_max": f"{report.k_over_d_max:.17g}",
        "hypotheses_ok": ok,
    }))
    return 0 if ok else 2


def cmd_oracle_check(cfg, out_dir, snap_k) -> int:
    spec, k, h, tri, grid = _setup(cfg, snap_k)
    sub = _read(cfg, "oracle_check", dict)
    mu = _read(sub, "mu", _integer)
    recursive = solve_finite_horizon(spec, tri, grid, h, mu)
    oracle = brute_force_oracle(spec, tri, grid, h, mu)
    gap = sup_norm_diff(recursive, oracle)
    ok = gap <= 1e-10
    _write(out_dir, "report.txt", _report_header(cfg, {
        "mu": mu,
        "max_abs_gap": f"{gap:.17g}",
        "equivalent": ok,
    }))
    return 0 if ok else 2


def cmd_bounds(cfg, out_dir, snap_k) -> int:
    spec = builtin(_read(cfg, "problem"))
    sub = _read(cfg, "bounds", dict)
    T = _read(sub, "T", float)
    k = _read(cfg, "k", float)
    if snap_k:
        k = _snap(spec.domain, k)
    h = _read(cfg, "h", float, k)
    n = _read(sub, "n", _integer, 0)
    _check_step(h, spec.discount)
    gamma = holder_exponent(spec)
    env = theoretical_envelope(spec, h, k)
    values = {
        "gamma": f"{gamma:.17g}",
        "phi_T": f"{phi_T(spec, T):.17g}",
        "phi_n": f"{phi_n(spec, n, h, T):.17g}",
        "tail_bound": f"{tail_bound(spec, T):.17g}",
        "envelope": f"{env:.17g}",
    }
    for key, val in values.items():
        print(f"{key} = {val}")
    _write(out_dir, "bounds.txt", _report_header(cfg, values))
    return 0


_COMMANDS = {
    "solve": cmd_solve,
    "simulate": cmd_simulate,
    "sweep": cmd_sweep,
    "check-mesh": cmd_check_mesh,
    "oracle-check": cmd_oracle_check,
    "bounds": cmd_bounds,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="monohjb",
        description="Semi-Lagrangian finite-element solver for discounted "
                    "optimal control with monotone controls",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="YAML run configuration")
        p.add_argument("--out", default="out", help="output directory")
        p.add_argument("--snap-k", action="store_true",
                       help="round k to the nearest commensurate value")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _load_config(args.config)
        return _COMMANDS[args.command](cfg, Path(args.out), args.snap_k)
    except (ConfigurationError, UnknownProblemError, MeshConstructionError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (NonConvergenceError, OutOfDomainError, InvalidProblemDataError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

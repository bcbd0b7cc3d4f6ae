import math

import pytest
import yaml

from monohjb.cli import main
from monohjb.harness import run_sweep


def write_config(tmp_path, name="run.yaml", **overrides):
    cfg = {"problem": "paper_example_2d", "k": 0.5, "h": 0.5}
    cfg.update(overrides)
    path = tmp_path / name
    path.write_text(yaml.safe_dump(cfg))
    return path


def run(cmd, cfg_path, out_dir, *extra):
    return main([cmd, "--config", str(cfg_path), "--out", str(out_dir), *extra])


def test_solve_coarse(tmp_path):
    cfg = write_config(tmp_path)
    assert run("solve", cfg, tmp_path / "out") == 0
    report = (tmp_path / "out" / "report.txt").read_text()
    assert "iterations: 1" in report
    assert "evaluation_iterations: []" in report
    assert (tmp_path / "out" / "value.csv").exists()
    assert (tmp_path / "out" / "policy.csv").exists()


def test_solve_zero_iterates_to_zero_costs(tmp_path):
    cfg = write_config(tmp_path)
    run("solve", cfg, tmp_path / "out")
    lines = (tmp_path / "out" / "value.csv").read_text().strip().split("\n")
    assert lines[0] == "node,x1,x2,a,value"
    assert len(lines) == 1 + 9 * 3


def test_invalid_control_step(tmp_path):
    cfg = write_config(tmp_path, h=0.3)
    assert run("solve", cfg, tmp_path / "out") == 1


def test_unknown_config_key(tmp_path):
    cfg = write_config(tmp_path, tpyo=1)
    assert run("solve", cfg, tmp_path / "out") == 1


@pytest.mark.parametrize("key,value", [("eval_tolerance", 1e-6), ("clamp", True)])
def test_removed_keys_are_unknown(tmp_path, key, value):
    cfg = write_config(tmp_path, **{key: value})
    assert run("solve", cfg, tmp_path / "out") == 1


def _register_nan_dynamics(monkeypatch):
    import dataclasses

    import numpy as np

    from monohjb import builtin
    from monohjb.problem import BUILTIN_PROBLEMS

    def nan_dynamics():
        return dataclasses.replace(
            builtin("paper_example_2d"), dynamics=lambda x, a: np.full_like(x, np.nan)
        )

    monkeypatch.setitem(BUILTIN_PROBLEMS, "nan_test", nan_dynamics)


def test_non_finite_problem_data_exit_code(tmp_path, monkeypatch):
    _register_nan_dynamics(monkeypatch)
    cfg = write_config(tmp_path, problem="nan_test")
    assert run("solve", cfg, tmp_path / "out") == 2


def test_check_mesh_non_finite_dynamics_exit_code(tmp_path, monkeypatch):
    _register_nan_dynamics(monkeypatch)
    cfg = write_config(tmp_path, problem="nan_test")
    assert run("check-mesh", cfg, tmp_path / "out") == 2
    assert not (tmp_path / "out" / "mesh_report.txt").exists()


def test_unknown_problem(tmp_path):
    cfg = write_config(tmp_path, problem="nope")
    assert run("solve", cfg, tmp_path / "out") == 1


def test_non_convergence_exit_code(tmp_path):
    cfg = write_config(tmp_path, k=0.1, h=0.1, max_iterations=2)
    assert run("solve", cfg, tmp_path / "out") == 2
    # partial results are still written
    assert (tmp_path / "out" / "value.csv").exists()


def test_snap_k(tmp_path):
    cfg = write_config(tmp_path, k=0.3, h=0.5)
    assert run("solve", cfg, tmp_path / "out") == 1
    assert run("solve", cfg, tmp_path / "out2", "--snap-k") == 0


def test_idempotent_csv(tmp_path):
    cfg = write_config(tmp_path, k=0.2, h=0.2)
    run("solve", cfg, tmp_path / "a")
    run("solve", cfg, tmp_path / "b")
    assert (tmp_path / "a" / "value.csv").read_bytes() == (tmp_path / "b" / "value.csv").read_bytes()
    assert (tmp_path / "a" / "policy.csv").read_bytes() == (tmp_path / "b" / "policy.csv").read_bytes()


def test_workers_flag_rejected(tmp_path):
    cfg = write_config(tmp_path, k=0.1, h=0.1)
    with pytest.raises(SystemExit) as exc:
        run("solve", cfg, tmp_path / "w1", "--workers", "1")
    assert exc.value.code == 2
    assert not (tmp_path / "w1").exists()


def test_config_round_trip(tmp_path):
    cfg = write_config(tmp_path, k=0.2, h=0.2)
    run("solve", cfg, tmp_path / "a")
    report = (tmp_path / "a" / "report.txt").read_text()
    # extract the embedded resolved config and re-run from it
    block = report.split("resolved_config:\n", 1)[1].split("\n\n", 1)[0]
    embedded = yaml.safe_load(block)
    cfg2 = tmp_path / "embedded.yaml"
    cfg2.write_text(yaml.safe_dump(embedded))
    run("solve", cfg2, tmp_path / "b")
    assert (tmp_path / "a" / "value.csv").read_bytes() == (tmp_path / "b" / "value.csv").read_bytes()


def test_simulate(tmp_path):
    cfg = write_config(
        tmp_path, k=0.1, h=0.1,
        simulate={"x0": [0.5, 0.5], "a0": 1.0, "steps": 50},
    )
    assert run("simulate", cfg, tmp_path / "out") == 0
    lines = (tmp_path / "out" / "trajectory.csv").read_text().strip().split("\n")
    assert lines[0] == "step,x1,x2,a,stage_cost,discounted_cumulative"
    assert len(lines) == 51


@pytest.mark.parametrize("x0", [[0.3], [0.3, 0.3, 0.3]])
def test_simulate_wrong_start_size(tmp_path, capsys, x0):
    cfg = write_config(tmp_path, simulate={"x0": x0, "a0": 0.0, "steps": 5})
    assert run("simulate", cfg, tmp_path / "out") == 1
    assert capsys.readouterr().err.startswith("config error: x0 must have shape (2,)")
    assert not (tmp_path / "out" / "trajectory.csv").exists()


@pytest.mark.parametrize("start,code", [
    ({"x0": [0.3]}, 1),
    ({"x0": [5.0, 0.0]}, 1),
    ({"a0": 0.3}, 1),
    ({"steps": -1}, 1),
    ({"x0": [math.nan, 0.0]}, 1),
])
def test_simulate_checks_start_before_solving(tmp_path, monkeypatch, start, code):
    import monohjb.cli

    def no_solve(*args, **kwargs):
        raise AssertionError("solve called before the start was checked")

    monkeypatch.setattr(monohjb.cli, "solve", no_solve)
    cfg = write_config(tmp_path, simulate={"x0": [0.5, 0.5], "a0": 0.0, "steps": 5, **start})
    assert run("simulate", cfg, tmp_path / "out") == code
    assert not (tmp_path / "out").exists()


def test_stop_rule_mapping_rejected(tmp_path):
    cfg = write_config(tmp_path, stop_rule={"target": 1e-3})
    assert run("solve", cfg, tmp_path / "out") == 1


def test_sweep(tmp_path):
    cfg = write_config(tmp_path, sweep={"k_list": [0.5, 0.25], "coupling": "h=k"})
    assert run("sweep", cfg, tmp_path / "out") == 0
    text = (tmp_path / "out" / "sweep.csv").read_text()
    assert text.startswith("k,h,coupling,iterations")
    assert "rate," in text


def test_sweep_report_names_largest_certificate(tmp_path):
    cfg = write_config(tmp_path, sweep={"k_list": [0.5, 0.25]})
    assert run("sweep", cfg, tmp_path / "out") == 0
    rows = (tmp_path / "out" / "sweep.csv").read_text().strip().split("\n")[1:-1]
    largest = max(float(r.split(",")[7]) for r in rows)
    report = (tmp_path / "out" / "report.txt").read_text()
    assert f"max_guaranteed_error: {largest:.17g}\n" in report


def test_policy_csv_bytes(tmp_path):
    """policy.csv holds exactly what the per-element loop wrote."""
    from monohjb import SolveOptions, build_uniform, builtin, control_grid, solve

    cfg = write_config(tmp_path, k=0.1, h=0.1)
    assert run("solve", cfg, tmp_path / "out") == 0
    spec = builtin("paper_example_2d")
    tri = build_uniform(spec.domain, 0.1)
    grid = control_grid(0.1)
    _, policy, _ = solve(spec, tri, grid, SolveOptions(h=0.1))
    lines = ["node,a_index,b_index"]
    for i in range(tri.n_vertices):
        for ai in range(grid.n_levels):
            lines.append(f"{i},{ai},{policy.choice[i, ai]}")
    expected = "\n".join(lines) + "\n"
    assert (tmp_path / "out" / "policy.csv").read_bytes() == expected.encode()


def test_check_mesh_pass(tmp_path):
    cfg = write_config(tmp_path)
    assert run("check-mesh", cfg, tmp_path / "ok") == 0


def test_check_mesh_fail(tmp_path, monkeypatch):
    import numpy as np

    from monohjb import ProblemSpec
    from monohjb.problem import BUILTIN_PROBLEMS

    def expanding():
        return ProblemSpec(
            dynamics=lambda x, a: 2.0 * np.asarray(x, dtype=float),
            cost=lambda x, a: np.zeros(len(x)),
            discount=1.0,
            domain=(np.array([-1.0, -1.0]), np.array([1.0, 1.0])),
            lip_g=2.0, bound_g=2.9, lip_f=0.0, bound_f=0.0,
        )

    monkeypatch.setitem(BUILTIN_PROBLEMS, "expanding_test", expanding)
    cfg = write_config(tmp_path, problem="expanding_test")
    assert run("check-mesh", cfg, tmp_path / "bad") == 2


def test_oracle_check(tmp_path):
    cfg = write_config(tmp_path, oracle_check={"mu": 4})
    assert run("oracle-check", cfg, tmp_path / "out") == 0
    assert "equivalent: True" in (tmp_path / "out" / "report.txt").read_text()


def test_oracle_check_closed_loop(tmp_path):
    """At k = h = 0.25 and mu = 3 the open-loop minimum sits 4.07e-3 above
    the scheme's value; the oracle must take the minimum at every node."""
    cfg = write_config(tmp_path, k=0.25, h=0.25, oracle_check={"mu": 3})
    assert run("oracle-check", cfg, tmp_path / "out") == 0
    assert "equivalent: True" in (tmp_path / "out" / "report.txt").read_text()


def test_oracle_budget_key_removed(tmp_path):
    cfg = write_config(tmp_path, oracle_check={"mu": 4, "budget": 10 ** 6})
    assert run("oracle-check", cfg, tmp_path / "out") == 1


@pytest.mark.parametrize("cmd,overrides", [
    ("solve", {"target": 1e-6}),
    ("sweep", {"sweep": {"k_list": [0.5], "coupling": "h=k", "c": 2.0}}),
])
def test_ineffective_keys_rejected(tmp_path, cmd, overrides):
    cfg = write_config(tmp_path, **overrides)
    assert run(cmd, cfg, tmp_path / "out") == 1
    assert not (tmp_path / "out").exists()


_START = {"x0": [0.5, 0.5], "a0": 0.0}


@pytest.mark.parametrize("cmd,key,overrides", [
    ("solve", "k", {"k": "abc"}),
    ("solve", "h", {"h": None}),
    ("solve", "max_iterations", {"max_iterations": "lots"}),
    ("solve", "max_iterations", {"max_iterations": 2.5}),
    ("simulate", "steps", {"simulate": {**_START, "steps": "many"}}),
    ("simulate", "steps", {"simulate": {**_START, "steps": 2.5}}),
    ("simulate", "x0", {"simulate": {"x0": ["a", 0.5], "a0": 0.0, "steps": 2}}),
    ("simulate", "simulate", {"simulate": None}),
    ("sweep", "k_list", {"sweep": {"k_list": 0.5}}),
    ("oracle-check", "mu", {"oracle_check": {"mu": 1.5}}),
    ("bounds", "T", {"bounds": {"T": "long"}}),
    ("bounds", "n", {"bounds": {"T": 4.0, "n": 0.5}}),
    ("check-mesh", "compact", {"mesh": {"compact": "abc"}}),
    ("check-mesh", "compact", {"mesh": {"compact": [[-0.5, -0.5], [0.5]]}}),
    ("check-mesh", "dump", {"mesh": {"dump": "no"}}),
    ("check-mesh", "dump", {"mesh": {"dump": 1}}),
])
def test_mistyped_value_is_config_error(tmp_path, capsys, cmd, key, overrides):
    cfg = write_config(tmp_path, **overrides)
    assert run(cmd, cfg, tmp_path / "out") == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"config error: config key {key!r} has invalid value")
    assert captured.out == ""
    assert not (tmp_path / "out").exists()


def test_integral_float_is_an_integer(tmp_path):
    cfg = write_config(tmp_path, max_iterations=50.0, simulate={**_START, "steps": 3.0})
    assert run("simulate", cfg, tmp_path / "out") == 0
    lines = (tmp_path / "out" / "trajectory.csv").read_text().strip().split("\n")
    assert len(lines) == 4


def test_bounds(tmp_path, capsys):
    cfg = write_config(tmp_path, k=0.1, h=0.1, bounds={"T": 4.0})
    assert run("bounds", cfg, tmp_path / "out") == 0
    out = capsys.readouterr().out
    assert f"{math.exp(4.0):.17g}"[:10] in out
    text = (tmp_path / "out" / "bounds.txt").read_text()
    assert "tail_bound" in text


def test_check_mesh_compact_box(tmp_path):
    cfg = write_config(tmp_path, mesh={"compact": [[-0.25, -0.25], [0.25, 0.25]]})
    assert run("check-mesh", cfg, tmp_path / "out") == 0
    assert "hip3_margin: 0.25\n" in (tmp_path / "out" / "mesh_report.txt").read_text()


def test_mesh_dump_requested(tmp_path):
    cfg = write_config(tmp_path, mesh={"dump": True})
    assert run("check-mesh", cfg, tmp_path / "out") == 0
    assert (tmp_path / "out" / "mesh.txt").exists()


@pytest.mark.parametrize("dump", [False, None])
def test_mesh_dump_not_requested(tmp_path, dump):
    cfg = write_config(tmp_path, mesh={"dump": dump})
    assert run("check-mesh", cfg, tmp_path / "out") == 0
    assert not (tmp_path / "out" / "mesh.txt").exists()


@pytest.mark.parametrize("cmd,overrides,extra", [
    ("solve", {"k": math.nan}, ()),
    ("solve", {"k": math.nan}, ("--snap-k",)),
    ("solve", {"k": math.inf}, ("--snap-k",)),
    ("solve", {"k": math.inf}, ()),
    ("solve", {"h": math.nan}, ()),
    ("solve", {"h": math.inf}, ()),
    ("check-mesh", {"k": math.nan}, ()),
    ("simulate", {"h": math.nan, "simulate": {**_START, "steps": 2}}, ()),
    ("simulate", {"simulate": {"x0": [0.5, 0.5], "a0": math.nan, "steps": 2}}, ()),
    ("sweep", {"sweep": {"k_list": [math.nan]}}, ()),
    ("sweep", {"sweep": {"k_list": [0.5], "coupling": "h=c*k^(2/3)", "c": math.nan}}, ()),
    ("solve", {"stop_rule": "target_bound", "target": math.nan}, ()),
    ("solve", {"stop_rule": "target_bound", "target": math.inf}, ()),
])
def test_non_finite_value_is_config_error(tmp_path, capsys, cmd, overrides, extra):
    cfg = write_config(tmp_path, **overrides)
    assert run(cmd, cfg, tmp_path / "out", *extra) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("config error:")
    assert "Traceback" not in captured.err
    assert captured.out == ""
    assert not (tmp_path / "out").exists()


def test_sweep_forwards_stop_rule(tmp_path, monkeypatch):
    import monohjb.cli

    rows = []

    def keep_rows(*args, **kwargs):
        rows.extend(run_sweep(*args, **kwargs))
        return rows

    monkeypatch.setattr(monohjb.cli, "run_sweep", keep_rows)
    cfg = write_config(tmp_path, stop_rule="target_bound", target=1e-10,
                       sweep={"k_list": [0.5, 0.25]})
    assert run("sweep", cfg, tmp_path / "out") == 0
    assert len(rows) == 2
    # the paper rule stops after 1 and 3 iterations, certified 0.125 and 0.105
    assert all(r.guaranteed_error <= 1e-10 for r in rows)

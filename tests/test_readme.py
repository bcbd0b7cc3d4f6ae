"""The README's python examples and its CLI config run as written."""

import re
from pathlib import Path

import pytest

from monohjb import ProblemSpec
from monohjb.cli import _COMMANDS, main

README = Path(__file__).resolve().parents[1] / "README.md"
TEXT = README.read_text()
COMMANDS = re.findall(r"^monohjb (\S+) --config run\.yaml --out results/$", TEXT, re.M)


def test_python_blocks_run(capsys):
    blocks = re.findall(r"```python\n(.*?)```", TEXT, re.S)
    assert len(blocks) == 2  # the quickstart, then the custom ProblemSpec
    namespace = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    assert namespace["report"].converged
    assert namespace["traj"].n_steps == 100
    assert isinstance(namespace["spec"], ProblemSpec)
    assert len(capsys.readouterr().out.splitlines()) == 2


def test_every_cli_command_is_listed():
    assert sorted(COMMANDS) == sorted(_COMMANDS)


@pytest.mark.parametrize("command", COMMANDS)
def test_example_config_runs(tmp_path, command):
    (config,) = re.findall(r"```yaml\n(.*?)```", TEXT, re.S)
    path = tmp_path / "run.yaml"
    path.write_text(config)
    assert main([command, "--config", str(path), "--out", str(tmp_path / "results")]) == 0

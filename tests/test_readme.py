"""The README's python examples run as written."""

import re
from pathlib import Path

from monohjb import ProblemSpec

README = Path(__file__).resolve().parents[1] / "README.md"


def test_python_blocks_run(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 2  # the quickstart, then the custom ProblemSpec
    namespace = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    assert namespace["report"].converged
    assert namespace["traj"].n_steps == 100
    assert isinstance(namespace["spec"], ProblemSpec)
    assert len(capsys.readouterr().out.splitlines()) == 2

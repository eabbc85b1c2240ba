"""README examples: every Python block and every ``dimercorr`` command still runs.

The Python blocks run in process with warnings as errors.  Each command
line of the shell blocks runs as ``python -m dimercorr ...`` in a fresh
directory (so ``--output`` files land there) and must exit 0 with nothing
on standard error.
"""

import os
import re
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import dimercorr

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
SRC = Path(dimercorr.__file__).resolve().parent.parent  # the package these tests import


def _blocks(language):
    return re.findall(rf"^```{language}\n(.*?)^```", README, flags=re.DOTALL | re.MULTILINE)


PYTHON_BLOCKS = _blocks("python")
COMMANDS = [
    shlex.split(line, comments=True)
    for block in _blocks("sh")
    for line in block.replace("\\\n", " ").splitlines()
    if line.startswith("dimercorr ")
]


def test_readme_has_examples():
    assert len(PYTHON_BLOCKS) == 2
    assert len(COMMANDS) == 5


@pytest.mark.parametrize("code", PYTHON_BLOCKS, ids=[f"block{i}" for i in range(len(PYTHON_BLOCKS))])
def test_python_block_runs(code, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        exec(compile(code, "README.md", "exec"), {"__name__": "readme"})
    assert capsys.readouterr().out


@pytest.mark.parametrize("argv", COMMANDS, ids=[f"{i}-{argv[1]}" for i, argv in enumerate(COMMANDS)])
def test_command_runs(argv, tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", *argv], cwd=tmp_path, env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert proc.stdout or any(tmp_path.iterdir())

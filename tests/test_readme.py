"""The README's library example runs as written, and each of its `fractalc`
command lines exits as documented."""

import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import fractalc as fc

README = Path(__file__).resolve().parents[1] / "README.md"
_SRC = str(Path(fc.__file__).resolve().parent.parent)

# (line number, line) of every `fractalc` line of the README
_COMMANDS = [
    (number, line)
    for number, line in enumerate(README.read_text(encoding="utf-8").splitlines(), 1)
    if line.startswith("fractalc ")
]


def test_readme_library_block_runs():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.S | re.M)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})


@pytest.mark.parametrize("line", [line for _, line in _COMMANDS],
                         ids=[f"README.md:{number}" for number, _ in _COMMANDS])
def test_readme_command_exits_as_documented(line, tmp_path):
    # a line ending in `# exits N` must exit N, any other line 0, within 20 s
    documented = re.search(r"# exits ([0-9]+)$", line)
    expected = int(documented[1]) if documented else 0
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, env.get("PYTHONPATH")]))
    env.pop("FRACTALC_SEGMENT_BUDGET", None)
    args = shlex.split(line, comments=True)[1:]
    result = subprocess.run([sys.executable, "-m", "fractalc.cli", *args], cwd=tmp_path, env=env,
                            capture_output=True, text=True, timeout=20)
    assert result.returncode == expected, result.stderr

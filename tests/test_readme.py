"""The README's library quickstart and command-line block run as written."""

import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

from gaussmink.cli import main

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")


def test_quickstart_runs():
    blocks = re.findall(r"^```python\n(.*?)^```", README, flags=re.S | re.M)
    assert len(blocks) == 1, "expected one python block in README.md"
    src = str(ROOT / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", blocks[0]], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr


def test_command_line_block_runs(tmp_path, monkeypatch, capsys):
    # each `gaussmink ...` line runs in-process, in order, in one directory;
    # a comment line right under a command is the key=value output it prints
    block = re.search(r"^## Command line\n\n```sh\n(.*?)^```", README,
                      flags=re.S | re.M).group(1)
    lines = block.replace("\\\n", " ").splitlines()
    monkeypatch.chdir(tmp_path)
    commands = 0
    for i, line in enumerate(lines):
        if not line.startswith("gaussmink "):
            continue
        argv = shlex.split(line, comments=True)[1:]
        assert main(argv) == 0, (line, capsys.readouterr().err)
        out = capsys.readouterr().out
        commands += 1
        if i + 1 < len(lines) and lines[i + 1].startswith("# "):
            assert out.split() == lines[i + 1][2:].split(), line
    assert commands == 7

"""The shipped documentation runs: every example script, and README's
``python`` blocks executed in order in one namespace (later blocks use
names the earlier ones define)."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro.portfolio import reset_default_state

ROOT = Path(__file__).resolve().parents[1]
EXAMPLES = sorted((ROOT / "examples").glob("*.py"))


def _env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    return env


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda p: p.stem)
def test_example_runs(script, tmp_path):
    proc = subprocess.run(
        [sys.executable, str(script)],
        cwd=tmp_path,
        env=_env(),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr


def test_examples_found():
    assert len(EXAMPLES) >= 6


def test_readme_python_blocks_run():
    readme = (ROOT / "README.md").read_text()
    blocks = re.findall(r"^```python\n(.*?)^```", readme, re.S | re.M)
    assert len(blocks) == 4
    namespace: dict = {"__name__": "readme"}
    reset_default_state()  # the quickstart learns into the shared state
    try:
        for number, block in enumerate(blocks, 1):
            code = compile(block, f"README.md python block {number}", "exec")
            exec(code, namespace)
    finally:
        reset_default_state()
    assert namespace["multi"].solver.startswith("portfolio[")

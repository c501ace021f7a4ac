"""The demo scripts must run clean and tell the truth."""

import os
import pathlib
import subprocess
import sys

import pytest

REPO = pathlib.Path(__file__).resolve().parent.parent
DEMOS = sorted((REPO / "demos").glob("*.py"))


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.name)
def test_demo_runs(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src") + os.pathsep + env.get("PYTHONPATH", "")
    result = subprocess.run(
        [sys.executable, str(script)],
        capture_output=True,
        text=True,
        env=env,
        cwd=REPO,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip()


def test_demo_claims():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src") + os.pathsep + env.get("PYTHONPATH", "")

    def output_of(name):
        return subprocess.run(
            [sys.executable, str(REPO / "demos" / name)],
            capture_output=True, text=True, env=env, cwd=REPO, timeout=60,
        ).stdout

    assert "obstructed = True" in output_of("build_and_fold.py")
    assert "mismatches: 0 of 100" in output_of("circle_bundles.py")
    assert "all_obstructed = True" in output_of("obstruction_search.py")


def test_readme_library_example_runs():
    readme = (REPO / "README.md").read_text(encoding="utf-8")
    blocks = readme.split("```python\n")[1:]
    assert len(blocks) == 1
    code = blocks[0].split("```", 1)[0]
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env,
                            cwd=REPO, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stderr == ""
    assert result.stdout.splitlines()[-1] == "True"

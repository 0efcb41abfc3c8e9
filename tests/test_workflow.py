"""The CI workflow runs the tier-1 command with the declared dependencies."""

import re
import shlex
from pathlib import Path

import yaml

ROOT = Path(__file__).resolve().parents[1]


def _steps():
    workflow = yaml.safe_load((ROOT / ".github" / "workflows" / "tests.yml").read_text())
    (job,) = workflow["jobs"].values()
    return job, job["steps"]


def _toml_array(text: str, key: str) -> list[str]:
    # The quoted strings of `key = [...]` in pyproject.toml (tomllib needs 3.11).
    match = re.search(rf"^{re.escape(key)} = \[(.*?)\]", text, re.M | re.S)
    assert match, f"{key} not found in pyproject.toml"
    return re.findall(r'"([^"]*)"', match.group(1))


def test_workflow_runs_the_tier1_command():
    roadmap = (ROOT / "ROADMAP.md").read_text()
    (command,) = re.findall(r"^\*\*Tier-1 verify:\*\* `([^`]+)`", roadmap, re.M)
    _, steps = _steps()
    runs = [step["run"].strip() for step in steps if "-m pytest" in step.get("run", "")]
    assert runs == [command]


def test_workflow_installs_every_declared_dependency():
    pyproject = (ROOT / "pyproject.toml").read_text()
    declared = _toml_array(pyproject, "dependencies") + _toml_array(pyproject, "test")
    _, steps = _steps()
    (install,) = [step["run"] for step in steps if "pip install" in step.get("run", "")]
    assert set(declared) <= set(shlex.split(install))


def test_workflow_lowest_python_is_the_requires_python_floor():
    pyproject = (ROOT / "pyproject.toml").read_text()
    (floor,) = re.findall(r'^requires-python = ">=([0-9.]+)"', pyproject, re.M)
    job, _ = _steps()
    versions = job["strategy"]["matrix"]["python-version"]
    assert all(isinstance(v, str) for v in versions)  # unquoted 3.10 would load as 3.1
    lowest = min(versions, key=lambda v: tuple(map(int, v.split("."))))
    assert lowest == floor

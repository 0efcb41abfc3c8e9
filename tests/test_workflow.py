"""The CI workflow runs the tier-1 command with the declared dependencies
and a traced pass of every benchmark workload."""

import json
import re
import shlex
from pathlib import Path

import yaml

ROOT = Path(__file__).resolve().parents[1]


def _jobs():
    workflow = yaml.safe_load((ROOT / ".github" / "workflows" / "tests.yml").read_text())
    return workflow["jobs"]


def _install(job) -> list[str]:
    (install,) = [step["run"] for step in job["steps"] if "pip install" in step.get("run", "")]
    return shlex.split(install)


def _toml_array(text: str, key: str) -> list[str]:
    # The quoted strings of `key = [...]` in pyproject.toml (tomllib needs 3.11).
    match = re.search(rf"^{re.escape(key)} = \[(.*?)\]", text, re.M | re.S)
    assert match, f"{key} not found in pyproject.toml"
    return re.findall(r'"([^"]*)"', match.group(1))


def _python_floor(pyproject: str) -> str:
    (floor,) = re.findall(r'^requires-python = ">=([0-9.]+)"', pyproject, re.M)
    return floor


def test_workflow_has_a_latest_and_a_floor_job():
    assert set(_jobs()) == {"tier1", "floor"}


def test_workflow_runs_the_tier1_command():
    roadmap = (ROOT / "ROADMAP.md").read_text()
    (command,) = re.findall(r"^\*\*Tier-1 verify:\*\* `([^`]+)`", roadmap, re.M)
    for job in _jobs().values():
        runs = [step["run"].strip() for step in job["steps"] if "-m pytest" in step.get("run", "")]
        assert runs == [command]


def test_workflow_installs_every_declared_dependency():
    pyproject = (ROOT / "pyproject.toml").read_text()
    declared = _toml_array(pyproject, "dependencies") + _toml_array(pyproject, "test")
    assert set(declared) <= set(_install(_jobs()["tier1"]))


def test_workflow_lowest_python_is_the_requires_python_floor():
    pyproject = (ROOT / "pyproject.toml").read_text()
    versions = _jobs()["tier1"]["strategy"]["matrix"]["python-version"]
    assert all(isinstance(v, str) for v in versions)  # unquoted 3.10 would load as 3.1
    lowest = min(versions, key=lambda v: tuple(map(int, v.split("."))))
    assert lowest == _python_floor(pyproject)


def test_floor_job_pins_exactly_the_declared_floors():
    pyproject = (ROOT / "pyproject.toml").read_text()
    job = _jobs()["floor"]
    (setup,) = [s for s in job["steps"] if s.get("uses", "").startswith("actions/setup-python")]
    assert setup["with"]["python-version"] == _python_floor(pyproject)
    pinned = set()
    for requirement in _toml_array(pyproject, "dependencies"):
        name, floor = requirement.split(">=")
        pinned.add(f"{name}=={floor}.*")
    # Each runtime dependency only at its floor; the test tools as declared.
    specs = {spec for spec in _install(job) if "=" in spec}
    assert specs == pinned | set(_toml_array(pyproject, "test"))


def test_tier1_job_traces_every_benchmark_workload():
    # A traced pass checks traced against untraced outputs and that the
    # spans a workload exists to exercise fire.
    workloads = {w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]}
    traced, held_out = set(), set()
    for step in _jobs()["tier1"]["steps"]:
        argv = shlex.split(step.get("run", ""))
        if "perfbench/run.py" in argv and argv[argv.index("--trace") + 1] == "1":
            workload = argv[argv.index("--workload") + 1]
            traced.add(workload)
            if argv[argv.index("--seed") + 1] != "1":
                held_out.add(workload)
    assert workloads and workloads <= traced
    # Which tables a batch solves in which round depends on the draws, so
    # the workloads that solve batches (the bootstrap and the oracle) are
    # traced on a held-out seed too.
    assert {"resample", "audit"} <= held_out

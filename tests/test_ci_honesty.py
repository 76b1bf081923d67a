"""CI installs what the code it runs imports, and runs each check once.

A job that runs the library (``PYTHONPATH=src`` or ``repro`` on a
``run:`` line) must pip-install every runtime dependency declared in
``pyproject.toml``; otherwise it passes only on runners that happen to
have them.  No two jobs may run the same verifier invocation: a second
copy gates nothing the first does not.  The workflow is read as text
because CI does not install PyYAML.
"""

import re
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")

ROOT = Path(__file__).resolve().parent.parent
WORKFLOW = ROOT / ".github" / "workflows" / "ci.yml"


def runtime_dependencies() -> list[str]:
    """Distribution names of ``[project] dependencies``."""
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    return [
        re.split(r"[<>=!~;\[ ]", spec, maxsplit=1)[0]
        for spec in project["dependencies"]
    ]


def job_commands(text: str) -> dict[str, list[str]]:
    """Every job's ``run:`` commands, block scalars joined into one."""
    jobs: dict[str, list[str]] = {}
    lines = text.splitlines()
    start = lines.index("jobs:") + 1
    current = None
    index = start
    while index < len(lines):
        line = lines[index]
        index += 1
        job = re.fullmatch(r"  ([\w-]+):", line)
        if job:
            current = jobs.setdefault(job.group(1), [])
            continue
        step = re.fullmatch(r"(\s+)(?:- )?run: (.*)", line)
        if step is None or current is None:
            continue
        indent, value = len(step.group(1)), step.group(2)
        if value.strip() in ("|", ">"):
            block = []
            while index < len(lines) and (
                not lines[index].strip()
                or len(lines[index]) - len(lines[index].lstrip()) > indent
            ):
                block.append(lines[index].strip())
                index += 1
            value = "\n".join(block)
        current.append(value)
    return jobs


def test_jobs_running_the_library_install_its_dependencies():
    dependencies = runtime_dependencies()
    assert dependencies, "pyproject.toml declares no runtime dependency"
    jobs = job_commands(WORKFLOW.read_text())
    assert jobs, "no jobs parsed from the workflow"
    missing = []
    for name, commands in jobs.items():
        if not any("PYTHONPATH=src" in c or "repro" in c for c in commands):
            continue
        installs = " ".join(c for c in commands if "pip install" in c).split()
        for dependency in dependencies:
            if dependency not in installs:
                missing.append(f"{name}: {dependency}")
    assert not missing, f"jobs run the library without installing: {missing}"


def verifier_invocations(commands: list[str]) -> set[str]:
    """Every ``python -m repro.<module> ...`` line, env prefix dropped."""
    found = set()
    for command in commands:
        for line in command.splitlines():
            match = re.search(r"python -m (repro\.\S+.*)$", line.strip())
            if match:
                found.add(" ".join(match.group(1).split()))
    return found


def test_no_two_jobs_run_the_same_verifier_invocation():
    jobs = job_commands(WORKFLOW.read_text())
    seen: dict[str, str] = {}
    duplicates = []
    for name, commands in jobs.items():
        for invocation in sorted(verifier_invocations(commands)):
            if invocation in seen:
                duplicates.append(f"{seen[invocation]} and {name}: {invocation}")
            seen.setdefault(invocation, name)
    assert not duplicates, f"jobs repeat a verifier run word for word: {duplicates}"

"""Run the recorded mutations of `tests/mutations.py`; stdlib only.

    python3 tests/run_mutations.py

Each distinct set of listed tests first runs once on an unmutated copy of
`src/` and `tests/`; then each entry is applied to a fresh copy and its tests
run there.  Every run is a child capped at 2 GB of address space and
TIMEOUT_S seconds, with a fixed Hypothesis seed so that a kill repeats.  One
JSON line per entry reports it as killed (its tests fail or run past the
timeout), survived (they pass) or stale (the `old` snippet does not occur
exactly once, or the tests do not pass on the unmutated copy, or pytest
cannot run the listed node ids), with the seconds taken.  The exit status
is 1 if any entry survived or is stale.
"""
import json
import os
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from mutations import MUTATIONS  # the script's own directory is on sys.path

ROOT = Path(__file__).resolve().parent.parent
# every run (distinct test sets plus entries) must fit a 20-minute CI job
TIMEOUT_S = 60
MAX_MEMORY = 2 << 30
HYPOTHESIS_SEED = 0


def _cap_memory():
    resource.setrlimit(resource.RLIMIT_AS, (MAX_MEMORY, MAX_MEMORY))


def _copy_tree(tmp: Path):
    for part in ("src", "tests"):
        shutil.copytree(ROOT / part, tmp / part, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "pyproject.toml", tmp)


def _pytest(tmp: Path, tests) -> str:
    cmd = [
        sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
        f"--hypothesis-seed={HYPOTHESIS_SEED}", *tests,
    ]
    env = dict(os.environ, PYTHONPATH="src")
    try:
        done = subprocess.run(
            cmd, cwd=tmp, env=env, capture_output=True, timeout=TIMEOUT_S,
            preexec_fn=_cap_memory,
        )
    except subprocess.TimeoutExpired:
        return "timeout"
    # pytest exits 1 when a test failed and 0 when all passed; any other
    # code means the listed node ids could not be run as recorded
    return {0: "passed", 1: "failed"}.get(done.returncode, "error")


def _baselines() -> dict:
    """The unmutated result of each distinct set of listed tests."""
    with tempfile.TemporaryDirectory() as tmp:
        _copy_tree(Path(tmp))
        return {
            tests: _pytest(Path(tmp), tests)
            for tests in {tuple(entry["tests"]) for entry in MUTATIONS}
        }


def _status(entry, baseline: str) -> str:
    if baseline != "passed":
        return "stale"
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        _copy_tree(tmp)
        path = tmp / entry["path"]
        text = path.read_text()
        if text.count(entry["old"]) != 1:
            return "stale"
        path.write_text(text.replace(entry["old"], entry["new"]))
        result = _pytest(tmp, entry["tests"])
    return {"passed": "survived", "error": "stale"}.get(result, "killed")


def main() -> int:
    baselines = _baselines()
    bad = 0
    for entry in MUTATIONS:
        start = time.perf_counter()
        status = _status(entry, baselines[tuple(entry["tests"])])
        seconds = round(time.perf_counter() - start, 1)
        print(json.dumps({"id": entry["id"], "status": status, "seconds": seconds}), flush=True)
        bad += status != "killed"
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())

"""Smoke test of the benchmark: every workload and every check once, tiny.

Run from the repository root with ``python3 -m pytest perfbench -q``. The
benchmark prints its timings; nothing here gates on them.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402


def _bench(root: Path, workload: str, trace: int, *extra):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", str(trace), *extra],
        cwd=root, capture_output=True, text=True, timeout=170)


def _copy_benchmark(dest: Path):
    shutil.copy(run.ROOT / "BENCHMARK.json", dest)
    shutil.copytree(HERE, dest / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_tiny_run_passes_every_check(workload, trace):
    proc = _bench(run.ROOT, workload, trace, "--tiny")
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(last) == ["attempted", "correct", "failed", "metrics"]
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 1
    expected = run.PER_LAYER if trace else run.END_TO_END
    assert {name: m["unit"] for name, m in last["metrics"].items()} == expected


def test_benchmark_json_lists_what_the_benchmark_reports():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_exits_nonzero_without_sources(tmp_path):
    _copy_benchmark(tmp_path)
    proc = _bench(tmp_path, "gradient", 0)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_failed_check_exits_nonzero_without_timings(tmp_path):
    """A store that accepts a corrupted body must fail the run that uses it."""
    _copy_benchmark(tmp_path)
    shutil.copytree(run.ROOT / "src", tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    with open(tmp_path / "src" / "qsnapshot" / "store.py", "a", encoding="utf-8") as fh:
        fh.write(
            "\n\ndef withdraw(identifier, store_path, _withdraw=withdraw):\n"
            "    try:\n"
            "        return _withdraw(identifier, store_path)\n"
            "    except SnapshotIntegrityError:\n"
            "        state = StateVector.computational_basis(1)\n"
            "        return state, mottonen_prepare(state)\n"
        )
    proc = _bench(tmp_path, "qeswap-analytic", 0, "--tiny")
    assert proc.returncode == 1
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert last["correct"] is False and last["failed"] == 1 and last["metrics"] == {}
    assert "corrupted body" in proc.stderr

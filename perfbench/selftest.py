"""Smoke test of the benchmark itself, on the seconds-long ``tiny`` workload.

    python3 perfbench/selftest.py

Checks that the untraced run prints exactly the end-to-end metrics of
BENCHMARK.json and the traced run exactly its per-layer metrics, each with its
declared unit and a finite value, and that a directory holding only
BENCHMARK.json and perfbench/ (no cpfast source) fails without a result.
Exits non-zero on the first failed check.  Not part of the tier-1 tests.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run(root: Path, trace: int) -> subprocess.CompletedProcess:
    cmd = [
        sys.executable, str(root / "perfbench" / "run.py"),
        "--workload", "tiny", "--seed", "3", "--seconds", "1",
        "--trace", str(trace),
    ]  # fmt: skip
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=180)


def check_result(proc, declared: list) -> None:
    if proc.returncode != 0:
        raise AssertionError(f"exit {proc.returncode}: {proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(result) != RESULT_KEYS:
        raise AssertionError(f"result keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0:
        raise AssertionError(f"tiny run not clean: {result}")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        raise AssertionError(f"attempted = {result['attempted']!r}")
    metrics = result["metrics"]
    want = {m["name"]: m["unit"] for m in declared}
    if set(metrics) != set(want):
        missing = sorted(set(want) - set(metrics))
        extra = sorted(set(metrics) - set(want))
        raise AssertionError(f"missing {missing}, undeclared {extra}")
    for name, unit in want.items():
        got = metrics[name]
        if got["unit"] != unit:
            raise AssertionError(f"{name}: unit {got['unit']!r}, declared {unit!r}")
        value = got["value"]
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            raise AssertionError(f"{name}: value {value!r}")


def check_bare_directory_fails(config: Path) -> None:
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        bare = Path(tmp)
        shutil.copy(config, bare / "BENCHMARK.json")
        shutil.copytree(
            HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__")
        )
        proc = run(bare, 0)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode == 0 or (lines and lines[-1].startswith("{")):
        raise AssertionError("a checkout without cpfast source produced a result")


def main() -> int:
    config_path = ROOT / "BENCHMARK.json"
    config = json.loads(config_path.read_text())
    check_result(run(ROOT, 0), config["end_to_end"])
    check_result(run(ROOT, 1), config["per_layer"])
    check_bare_directory_fails(config_path)
    print("perfbench selftest: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())

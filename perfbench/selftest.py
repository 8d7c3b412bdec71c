"""Tiny-size self-test of the benchmark.

    python3 perfbench/selftest.py

Runs every workload (the three ``BENCHMARK.json`` gates and the ungated
``serve-churn``) untraced and traced at a tiny input size and asserts
that each prints every metric ``BENCHMARK.json`` names, with its unit; that the answer checks reject tampered answers; and that the
benchmark refuses to run without the program's sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from oracle import EpochOracle, WrongAnswer, check_join  # noqa: E402

SCALE = "0.05"
SECONDS = "1"


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", SECONDS, "--trace", str(trace), "--scale", SCALE],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def check_workloads(spec: dict) -> None:
    from run import WORKLOADS

    for workload in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = _run(ROOT, workload, trace)
            assert proc.returncode == 0, f"{workload} trace={trace}:\n{proc.stderr}"
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
            assert result["correct"] is True and result["attempted"] >= 1
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            assert got == want, f"{workload} trace={trace}: {got} != {want}"
            for name, m in result["metrics"].items():
                assert isinstance(m["value"], float), (workload, name, m)
                if trace == 0:
                    assert m["value"] > 0, (workload, name, m)
            print(f"ok  {workload:14s} trace={trace}  {len(got)} metrics")


def check_oracles() -> None:
    from repro import JoinConfig, all_nearest_neighbors, tac_surrogate

    # At n <= JOIN_SAMPLE the brute-force sample covers every point.
    points = tac_surrogate(200, seed=3)
    result, __ = all_nearest_neighbors(points, JoinConfig())
    check_join(result, points, 1, seed=0)
    bucket = result.neighbors_of(7)
    dist, s_id = bucket[0]
    bucket[0] = (dist * 1.001, s_id)
    _expect_wrong(lambda: check_join(result, points, 1, seed=0))
    bucket[0] = (dist, s_id)
    bucket.append((dist, s_id))
    _expect_wrong(lambda: check_join(result, points, 1, seed=0))

    oracle = EpochOracle(points)
    oracle.publish(0, np.ones(len(points), dtype=bool))
    query = points[11] + 1e-3
    d = float(np.sqrt(((points - query) ** 2).sum(axis=1)).min())
    nearest = int(np.argmin(((points - query) ** 2).sum(axis=1)))
    assert oracle.check([(query, 0, 0, (nearest,), (d,))], 1) == 1
    _expect_wrong(lambda: oracle.check([(query, 0, 0, (nearest,), (d * 1.01,))], 1))
    gone = np.ones(len(points), dtype=bool)
    gone[nearest] = False
    oracle.publish(1, gone)
    _expect_wrong(lambda: oracle.check([(query, 1, 1, (nearest,), (d,))], 1))
    print("ok  oracles reject tampered answers")


def _expect_wrong(fn) -> None:
    try:
        fn()
    except WrongAnswer:
        return
    raise AssertionError("a tampered answer passed the check")


def check_bare_directory() -> None:
    """Without the program's sources the benchmark fails and prints no result."""
    bare = ROOT / ".perfbench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        proc = _run(bare, "join-tac", 0)
        assert proc.returncode != 0, proc.stdout
        assert '"correct"' not in proc.stdout, proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("ok  refuses to run without the program")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_oracles()
    check_bare_directory()
    check_workloads(spec)
    return 0


if __name__ == "__main__":
    sys.exit(main())

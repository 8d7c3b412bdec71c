"""Wall-clock benchmark of the repro package: joins and serving.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload join-tac --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` makes a
separate traced run that splits the time across ``repro.index``,
``repro.core``, ``repro.storage``, ``repro.service`` and ``repro.serve``
and writes its spans to ``.perfbench_out/``.  Every answer is checked;
a wrong one fails the run.  The last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.

The run is pinned to one CPU, and the timed end-to-end metrics are given
at reference speed: each timing is scaled by a host-speed probe taken on
that CPU beside it (see ``common.HostProbe``); the raw wall times print
on the ``summary`` line.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("join-tac", "join-frontier", "serve-read", "serve-churn")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="input size factor (the self-test uses a tiny one)")
    args = parser.parse_args(argv)
    if args.seconds <= 0 or args.scale <= 0:
        parser.error("--seconds and --scale must be positive")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    # One CPU does all the work (see common.pin_to_one_cpu), so numpy
    # gets one thread; spawned replicas inherit both settings.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"

    from common import END_TO_END, PER_LAYER, HostProbe, host_fingerprint, median, pin_to_one_cpu
    from oracle import WrongAnswer

    cpu = pin_to_one_cpu()
    probe = HostProbe()
    host = host_fingerprint()
    host.update(cpu=cpu, probe_start_ms=probe.ms())
    try:
        if args.workload.startswith("join"):
            import joins

            outcome = joins.run(args.workload, args.seed, args.seconds, args.scale,
                                bool(args.trace), probe)
        else:
            import serving

            workdir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
            outcome = serving.run(args.workload, args.seed, args.seconds, args.scale,
                                  bool(args.trace), workdir, probe)
    except WrongAnswer as exc:
        print(f"error: wrong answer: {exc}", file=sys.stderr)
        return 1
    host.update(probe_end_ms=probe.ms(), probe_median_ms=median(probe.samples),
                probe_samples=len(probe.samples))

    units = PER_LAYER if args.trace else END_TO_END
    if args.trace:
        outcome.metrics["host.calib_ms"] = median(probe.samples)
        outcome.metrics["host.cores"] = float(host["cores"] or 0)
        out_dir = ROOT / ".perfbench_out"
        out_dir.mkdir(exist_ok=True)
        trace_path = out_dir / f"trace-{args.workload}-seed{args.seed}.json"
        trace_path.write_text(json.dumps({"workload": args.workload, "seed": args.seed,
                                          "host": host, "spans": outcome.spans}))
        outcome.summary["trace_file"] = str(trace_path.relative_to(ROOT))
    missing = set(units) - set(outcome.metrics)
    if missing:
        raise RuntimeError(f"workload did not report {sorted(missing)}")

    print(json.dumps({"host": host}))
    print(json.dumps({"summary": outcome.summary}))
    for name, unit in units.items():
        print(f"{name:32s} {outcome.metrics[name]:>16.6g} {unit}")
    print(json.dumps({
        "correct": True,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": float(outcome.metrics[name]), "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    started = time.perf_counter()
    code = main()
    print(f"# wall {time.perf_counter() - started:.1f} s", file=sys.stderr)
    sys.exit(code)

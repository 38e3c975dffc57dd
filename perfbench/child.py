"""One measured sweep, in the fresh interpreter the runner starts.

Usage: ``python3 perfbench/child.py --workload NAME --seed N [--trace]``

Prints one JSON line: host wall and CPU seconds from ``plan()`` to the
merged table, set-up seconds, simulated ops, peak RSS of this process,
a digest of every table row, and the mean host seconds of the
reference slices (:mod:`perfbench.calibrate`) sampled while the sweep
ran; wall and CPU time exclude the slices.  With ``--trace`` the layer wrappers
ride along and the line also carries the per-layer metrics and the
cross-check against the program's counters.  A sweep that raises
prints ``{"ok": false, ...}`` with the traceback.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from perfbench import layers  # noqa: E402
from perfbench.calibrate import SpeedSampler  # noqa: E402
from perfbench.probe import Probe  # noqa: E402
from perfbench.workloads import WORKLOADS, make_plan, table_rows  # noqa: E402


def measure(workload, seed: int, trace: bool) -> dict:
    """Run the workload's sweep once under a probe; returns the record
    the runner reads."""
    from repro import api

    probe = Probe(trace=trace)
    probe.install()
    sampler = SpeedSampler()
    try:
        wall0, cpu0 = time.perf_counter(), time.process_time()
        sampler.start()
        spec = make_plan(workload, seed)
        report = api.run(spec)
        sampler.stop()
        # The slices ran inside the sweep's span; they are not its work.
        wall_s = time.perf_counter() - wall0 - sampler.spent_s
        cpu_s = time.process_time() - cpu0 - sampler.spent_s
    except Exception:
        return {"ok": False, "error": traceback.format_exc()}
    finally:
        sampler.stop()
        probe.uninstall()
    setup_s = probe.setup_s["prepare"] + probe.setup_s["build"]
    record = {
        "ok": True,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "slice_s": sampler.slice_s,
        "slices": len(sampler.slices),
        "setup_s": setup_s,
        "sim_ops": probe.sim_ops,
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "rows": table_rows(workload, report.result),
    }
    if trace:
        record["layers"] = layers.compute(probe)
        record["entries"] = {
            s.name: {"calls": s.calls, "incl_s": s.incl_s,
                     "self_s": s.self_s}
            for s in probe.stats.values() if s.calls}
        record["crosscheck"] = probe.crosscheck()
        record["leftovers"] = probe.leftovers()
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    record = measure(WORKLOADS[args.workload], args.seed, args.trace)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())

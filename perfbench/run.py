"""Host-time benchmark of the exact simulator.

Usage (from the repository root)::

    python3 perfbench/run.py --workload ycsb_read --seed 42 \\
        --seconds 40 --trace 0

Each measured sweep runs in a fresh interpreter (``perfbench/child.py``),
so process-wide caches start empty, set-up pays for stream generation
every time, and peak RSS belongs to that sweep alone.  Load shape: a
closed loop with one client -- one process, one thread, the cells of
the sweep back to back -- repeated until ``--seconds`` is spent (at
least three sweeps); every end-to-end metric is the median over the
sweeps.

End-to-end metrics (``--trace 0``):

* ``wall_ref``: host wall time from ``plan()`` to the merged table,
  divided by the mean time of the fixed reference slices sampled every
  0.1 s during that same sweep (:mod:`perfbench.calibrate`).  On a
  shared 2-vCPU virtual machine the raw seconds of ten runs spread
  10-25% (quartile distance over median), the ratio 3-7%.  ``cpu_ref``
  is the same for process CPU time.
* ``sim_ops_per_ref``: simulated application ops per slice time outside
  set-up, ``sim_ops / ((wall_s - setup_s) / slice_s)``.
* ``setup_s``: host seconds before the first simulated op (stream
  generation, machine build, bulk load or corpus build, attach),
  outermost calls only; ``peak_rss_mb``: ``ru_maxrss`` of the sweep's
  process.  Both as measured.

The raw medians (``host.wall_s`` and friends) are printed, and
reported as per-layer metrics by ``--trace 1``.

``--trace 1`` runs untraced sweeps for half the time, then one traced
sweep with wrappers on every layer entry point, and reports the
per-layer metrics of :mod:`perfbench.layers` plus ``trace.overhead``
(traced ``wall_ref`` over the untraced median).

Correctness: every row of every sweep must match the reference digest
recorded in ``perfbench/references.json`` for this seed; for a seed
with no reference, every sweep -- traced or not -- must produce the
same rows as the first.  A cell fails if its sweep raised or timed out
or its row differs; ``failed``/``attempted`` count cells.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; human-readable detail goes
before it.  Without the program's sources (``src/repro``) next to this
directory the benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from perfbench import layers  # noqa: E402
from perfbench.workloads import WORKLOADS, make_plan  # noqa: E402

#: Hard limit on one invocation; the runner stops starting sweeps so
#: that the last one still ends inside it.
DEADLINE_S = 170.0
MIN_SWEEPS = 3
#: Entry points listed by self time after a traced sweep.
TOP_ENTRIES = 15

END_TO_END_UNITS = {"wall_ref": "ref", "cpu_ref": "ref", "setup_s": "s",
                    "sim_ops_per_ref": "1/ref", "peak_rss_mb": "MB"}


def load_references() -> dict:
    with open(os.path.join(HERE, "references.json")) as fh:
        return json.load(fh)


def run_child(workload: str, seed: int, trace: bool,
              timeout_s: float) -> dict:
    """One sweep in a fresh interpreter; a crash or timeout comes back
    as ``{"ok": False}``."""
    cmd = [sys.executable, os.path.join(HERE, "child.py"),
           "--workload", workload, "--seed", str(seed)]
    if trace:
        cmd.append("--trace")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                              text=True, timeout=timeout_s)
    except subprocess.TimeoutExpired:
        return {"ok": False, "error": f"timed out after {timeout_s:.0f}s"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"ok": False,
                "error": f"exit {proc.returncode}: {proc.stderr[-2000:]}"}
    return json.loads(lines[-1])


class Checker:
    """Counts failed cells against the reference rows (or, for a seed
    without one, against the first sweep that completed)."""

    def __init__(self, reference, ncells: int) -> None:
        self.reference = reference
        self.ncells = ncells
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def check(self, record: dict, label: str) -> bool:
        self.attempted += self.ncells
        if not record.get("ok"):
            self.failed += self.ncells
            self.notes.append(f"{label}: sweep failed: "
                              f"{record.get('error', '?').strip()[-500:]}")
            return False
        rows = record["rows"]
        if self.reference is None:
            self.reference = rows
        expected = self.reference
        bad = sorted(cell for cell in set(expected) | set(rows)
                     if rows.get(cell) != expected.get(cell))
        # A missing or extra row is a failed cell too.
        self.failed += len(bad)
        if bad:
            self.notes.append(f"{label}: rows differ: {', '.join(bad)}")
        return not bad


def timed_sweeps(workload: str, seed: int, budget_s: float,
                 deadline: float, checker: Checker) -> list:
    """Untraced sweeps until ``budget_s`` is spent (at least
    :data:`MIN_SWEEPS`, deadline permitting); returns their records."""
    records = []
    start = time.perf_counter()
    last = 0.0
    while True:
        now = time.perf_counter()
        spent = now - start
        if len(records) >= MIN_SWEEPS and spent + last > budget_s:
            break
        remaining = deadline - now
        if records and remaining < 1.5 * last:
            break
        t0 = time.perf_counter()
        record = run_child(workload, seed, False, max(remaining, 1.0))
        last = time.perf_counter() - t0
        checker.check(record, f"sweep {len(records) + 1}")
        records.append(record)
        print(f"sweep {len(records)}: " + (
            f"wall {record['wall_s']:.3f}s cpu {record['cpu_s']:.3f}s "
            f"setup {record['setup_s']:.3f}s "
            f"slice {record['slice_s'] * 1e3:.3f}ms "
            f"rss {record['peak_rss_mb']:.1f}MB" if record.get("ok")
            else "FAILED"), flush=True)
    return [r for r in records if r.get("ok")]


def end_to_end(records: list) -> dict:
    """Median over sweeps of each end-to-end metric.

    Times are divided by the sweep's own mean reference-slice time
    (``slice_s``, :mod:`perfbench.calibrate`), which cancels most of
    the shared host's speed drift.  ``setup_s`` and ``peak_rss_mb`` are
    as measured.
    """
    def med(values):
        return statistics.median(values)
    return {
        "wall_ref": med(r["wall_s"] / r["slice_s"] for r in records),
        "cpu_ref": med(r["cpu_s"] / r["slice_s"] for r in records),
        "setup_s": med(r["setup_s"] for r in records),
        "sim_ops_per_ref": med(
            r["sim_ops"] * r["slice_s"] / (r["wall_s"] - r["setup_s"])
            for r in records),
        "peak_rss_mb": med(r["peak_rss_mb"] for r in records),
    }


def host_seconds(records: list) -> dict:
    """Median over sweeps of the raw host times, unnormalised."""
    def med(key):
        return statistics.median(r[key] for r in records)
    return {
        "host.wall_s": med("wall_s"),
        "host.cpu_s": med("cpu_s"),
        "host.sim_ops_per_s": statistics.median(
            r["sim_ops"] / (r["wall_s"] - r["setup_s"]) for r in records),
        "host.slice_s": med("slice_s"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Host-time benchmark of the exact simulator.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"no program sources at {os.path.join(ROOT, 'src')}; run "
              f"from a checkout of the repository", file=sys.stderr)
        return 2

    deadline = time.perf_counter() + DEADLINE_S
    workload = WORKLOADS[args.workload]
    reference = load_references().get(args.workload, {}).get(
        str(args.seed))
    ncells = len(make_plan(workload, args.seed).cells)
    checker = Checker(reference, ncells)
    print(f"workload {args.workload}: {ncells} cells, seed {args.seed}, "
          f"reference {'recorded' if reference else 'first sweep'}",
          flush=True)

    budget = args.seconds / 2 if args.trace else args.seconds
    records = timed_sweeps(args.workload, args.seed, budget, deadline,
                           checker)
    metrics: dict = {}
    if args.trace:
        remaining = deadline - time.perf_counter()
        traced = run_child(args.workload, args.seed, True,
                           max(remaining, 1.0))
        checker.check(traced, "traced sweep")
        if traced.get("ok") and records:
            values = dict(traced["layers"])
            values.update(host_seconds(records))
            values["trace.overhead"] = (
                traced["wall_s"] / traced["slice_s"]
                / end_to_end(records)["wall_ref"])
            values["trace.crosscheck_mismatches"] = sum(
                not row["ok"] for row in traced["crosscheck"])
            entries = sorted(traced["entries"].items(),
                             key=lambda item: -item[1]["self_s"])
            for name, entry in entries[:TOP_ENTRIES]:
                print(f"entry {name}: {entry['calls']} calls, self "
                      f"{entry['self_s']:.3f}s, inclusive "
                      f"{entry['incl_s']:.3f}s")
            for row in traced["crosscheck"]:
                print(f"crosscheck {row['counter']}: program "
                      f"{row['program']} wrappers {row['wrappers']} "
                      f"({'ok' if row['ok'] else 'MISSED'}; via "
                      f"{row['via']})")
            if traced["leftovers"]:
                checker.notes.append("wrappers left installed: "
                                     + ", ".join(traced["leftovers"]))
            units = layers.units()
            metrics = {name: {"value": value, "unit": units[name]}
                       for name, value in values.items()}
    elif records:
        metrics = {name: {"value": value, "unit": END_TO_END_UNITS[name]}
                   for name, value in end_to_end(records).items()}
        print(" ".join(f"{name} {value:.4f}" for name, value
                       in host_seconds(records).items()))
    for note in checker.notes:
        print(note)
    correct = (checker.failed == 0 and not checker.notes
               and bool(metrics))
    print(json.dumps({"correct": correct, "attempted": checker.attempted,
                      "failed": checker.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

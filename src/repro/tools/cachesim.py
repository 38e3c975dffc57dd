"""Trace-driven cache simulation.

The paper's closing pitch is that "any publicly available policy can
be used by anyone, lowering the barrier to ... experimenting with
eviction policies on different workloads" (§1).  This module is that
workflow as a library call and a CLI: feed it an access trace — pairs
of ``(file, page)`` or just page numbers — and it replays the trace
against any set of policies on a machine sized to your cache budget.

Trace format (text, one access per line)::

    <file-id> <page-index> [r|w]

Lines starting with ``#`` are ignored.  A bare integer per line is
treated as ``0 <page> r``.  Ids are non-negative integers; a malformed
line is rejected with its line number.

CLI::

    python -m repro.tools.cachesim TRACE --cache-pages 1024 \
        --policies default,lfu,s3fifo,sieve

Each policy replays the parsed trace on its own machine, as one
engine thread stepping one access per turn — the same exact engine
every experiment runs on.
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass, field
from typing import Iterable, Optional, TextIO

from repro.cache_ext import load_policy
from repro.kernel import Machine
from repro.policies import EXTENSION_POLICIES, GENERIC_POLICIES
from repro.policies.lhd import init_lhd, make_lhd_policy


@dataclass
class TraceReport:
    """Replay outcome for one policy."""

    policy: str
    accesses: int = 0
    hits: int = 0
    misses: int = 0
    evictions: int = 0
    disk_pages: int = 0
    elapsed_ms: float = 0.0
    notes: list = field(default_factory=list)

    @property
    def hit_ratio(self) -> float:
        if self.accesses == 0:
            return 0.0
        return self.hits / self.accesses


def parse_trace(lines: Iterable[str]) -> list[tuple]:
    """Parse the text trace format into (file_id, page, is_write).

    Raises :class:`ValueError` naming the line for a non-integer or
    negative id, an access type other than ``r``/``w``, or more than
    three fields.
    """
    out = []
    for lineno, raw in enumerate(lines, 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) == 1:
            parts = ["0"] + parts
        try:
            file_id, page = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise ValueError(f"trace line {lineno}: {line!r}") from exc
        if file_id < 0 or page < 0:
            raise ValueError(
                f"trace line {lineno}: negative id in {line!r}")
        kind = parts[2].lower() if len(parts) > 2 else "r"
        if kind not in ("r", "w") or len(parts) > 3:
            raise ValueError(
                f"trace line {lineno}: expected '<file-id> <page-index> "
                f"[r|w]', got {line!r}")
        out.append((file_id, page, kind == "w"))
    return out


def policy_names() -> list[str]:
    """Every policy name :func:`replay_trace` accepts, each once."""
    factories = dict(GENERIC_POLICIES)
    factories.update(EXTENSION_POLICIES)
    return ["default", "mglru"] + sorted(factories)


def _attach(machine: Machine, cgroup, policy: str,
            cache_pages: int) -> None:
    """Attach ``policy`` to ``cgroup`` (nothing to do for the built-in
    kernel policies)."""
    if policy in ("default", "mglru"):
        return
    map_entries = max(4 * cache_pages, 1024)
    if policy == "lhd":
        ops = make_lhd_policy(map_entries=map_entries)
        machine.attach(cgroup, ops)
        init_lhd(machine, ops)
        return
    factories = dict(GENERIC_POLICIES)
    factories.update(EXTENSION_POLICIES)
    if policy not in factories:
        raise ValueError(
            f"unknown policy {policy!r}; choose from: "
            f"{', '.join(policy_names())}")
    try:
        ops = factories[policy](map_entries=map_entries)
    except TypeError:
        ops = factories[policy]()
    load_policy(machine, cgroup, ops)


def _materialize_files(machine: Machine, trace: list[tuple],
                       readahead: bool) -> dict:
    """Materialize the trace's file universe on one machine."""
    files = {}
    for file_id, page, _w in trace:
        f = files.get(file_id)
        if f is None:
            f = machine.fs.create(f"trace/file-{file_id}")
            f.ra_enabled = readahead
            files[file_id] = f
        if page >= f.npages:
            for idx in range(f.npages, page + 1):
                f.store[idx] = idx
            f.npages = page + 1
    return files


def replay_trace(trace: list[tuple], policy: str,
                 cache_pages: int, readahead: bool = False) -> TraceReport:
    """Replay one parsed trace against one policy: one engine thread
    stepping one access per turn through :meth:`Filesystem.read_page`
    / :meth:`write_page`."""
    if cache_pages <= 0:
        raise ValueError("cache_pages must be positive")
    kernel = "mglru" if policy == "mglru" else "default"
    machine = Machine(kernel_policy=kernel)
    cgroup = machine.new_cgroup("trace", limit_pages=cache_pages)
    _attach(machine, cgroup, policy, cache_pages)
    files = _materialize_files(machine, trace, readahead)

    def step(thread, it=iter(trace)):
        access = next(it, None)
        if access is None:
            return False
        file_id, page, is_write = access
        if is_write:
            machine.fs.write_page(files[file_id], page, "w")
        else:
            machine.fs.read_page(files[file_id], page)
        return True

    thread = machine.spawn("replay", step, cgroup=cgroup)
    machine.run()
    stats = cgroup.stats
    report = TraceReport(policy=policy, accesses=len(trace),
                         hits=stats.hits, misses=stats.misses,
                         evictions=stats.evictions,
                         disk_pages=machine.disk.stats.total_pages,
                         elapsed_ms=thread.clock_us / 1000.0)
    if stats.ext_policy_faults:
        report.notes.append("policy was removed by the watchdog")
    return report


def simulate_policies(trace: list[tuple], policies: Iterable[str],
                      cache_pages: int,
                      readahead: bool = False) -> list[TraceReport]:
    """Replay the trace against each policy; returns one report each."""
    return [replay_trace(trace, policy, cache_pages, readahead)
            for policy in policies]


def format_reports(reports: list[TraceReport]) -> str:
    lines = [f"{'policy':>10s}  {'hit%':>7s}  {'misses':>9s}  "
             f"{'evictions':>9s}  {'disk pages':>10s}  {'time (ms)':>10s}"]
    for r in sorted(reports, key=lambda r: -r.hit_ratio):
        lines.append(
            f"{r.policy:>10s}  {100 * r.hit_ratio:6.2f}%  "
            f"{r.misses:9d}  {r.evictions:9d}  {r.disk_pages:10d}  "
            f"{r.elapsed_ms:10.2f}"
            + ("  (" + "; ".join(r.notes) + ")" if r.notes else ""))
    return "\n".join(lines)


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Replay an access trace against cache_ext policies")
    parser.add_argument("trace", help="trace file ('-' for stdin)")
    parser.add_argument("--cache-pages", type=int, default=1024)
    parser.add_argument("--policies", default="default,lfu,s3fifo",
                        help="comma-separated policy names")
    parser.add_argument("--readahead", action="store_true",
                        help="enable kernel readahead during replay")
    args = parser.parse_args(argv)

    if args.cache_pages <= 0:
        parser.error("--cache-pages must be positive")
    policies = args.policies.split(",")
    known = policy_names()
    unknown = [name for name in policies if name not in known]
    if unknown:
        parser.error(f"unknown policy {unknown[0]!r}; choose from: "
                     f"{', '.join(known)}")

    import sys
    source: TextIO
    try:
        if args.trace == "-":
            source = sys.stdin
            trace = parse_trace(source)
        else:
            with open(args.trace) as source:
                trace = parse_trace(source)
    except ValueError as exc:
        parser.error(str(exc))
    if not trace:
        parser.error("empty trace")
    reports = simulate_policies(trace, policies,
                                args.cache_pages, args.readahead)
    print(format_reports(reports))
    return 0


if __name__ == "__main__":  # pragma: no cover - CLI entry
    raise SystemExit(main())

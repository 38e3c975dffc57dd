"""Block device: the contention model and per-cgroup I/O accounting.

The paper's testbed is a CloudLab c6525-25g node with a 480 GB SATA/SAS
SSD.  We model the device as ``channels`` independent service channels
(an SSD's internal parallelism) with fixed per-page service times.
Requests issued by simulated threads are assigned to the
earliest-available channel; a thread's virtual clock is advanced past
both the queueing delay and the service time, so concurrent workloads
contend exactly as they would on real hardware.

Default service times are loosely calibrated to an enterprise SATA SSD
(~100 us 4 KiB random read, ~30 us write into the device write cache)
but absolute values only scale the results; orderings are driven by hit
ratios.

Every request is attributed to the cgroup of the issuing thread, so
experiments that share one device between cgroups (Figure 11) can still
report per-workload disk traffic (Figure 7's x-axis).
"""

from __future__ import annotations

from repro.snapshot import SnapshotFriendly
from collections import defaultdict
from dataclasses import dataclass
from typing import Optional

from repro.kernel.errors import EIO, ETIMEDOUT
from repro.obs.trace import NULL_TRACEPOINT
from repro.sim.engine import SimThread, current_thread
from repro.sim.resources import DiskStats, IoCompletion


@dataclass
class CgroupIoStats:
    read_pages: int = 0
    write_pages: int = 0

    @property
    def total_pages(self) -> int:
        return self.read_pages + self.write_pages


class BlockDevice(SnapshotFriendly):
    """A multi-channel block device with per-page service times.

    Parameters
    ----------
    read_us / write_us:
        Service time for one 4 KiB page.
    channels:
        Internal parallelism; requests pick the earliest-free channel.
    seq_factor:
        Discount applied to pages after the first in a multi-page
        request, modelling sequential-access efficiency.  Sequential
        scans therefore cost less per page than random reads, as on a
        real SSD.

    Requests keep per-cgroup page counters and emit ``block:io_issue``
    / ``block:io_complete`` tracepoints (the ``block_rq_issue`` /
    ``block_rq_complete`` analogues, with queue depth and experienced
    latency in the payload).
    """

    def __init__(self, read_us: float = 100.0, write_us: float = 30.0,
                 channels: int = 8, seq_factor: float = 0.25) -> None:
        if channels < 1:
            raise ValueError("disk needs at least one channel")
        self.read_us = read_us
        self.write_us = write_us
        self.channels = channels
        self.seq_factor = seq_factor
        self.stats = DiskStats()
        self._free_at = [0.0] * channels
        self.per_cgroup: dict[int, CgroupIoStats] = defaultdict(CgroupIoStats)
        self._tp_issue = NULL_TRACEPOINT
        self._tp_complete = NULL_TRACEPOINT
        self._tp_io_error = NULL_TRACEPOINT
        #: Armed :class:`repro.faults.injector.FaultInjector`, or None.
        #: One load + is-None branch per request when faults are off.
        self._faults = None

    def attach_trace(self, registry) -> None:
        """Cache block tracepoints from a machine's registry."""
        self._tp_issue = registry.tracepoint("block:io_issue")
        self._tp_complete = registry.tracepoint("block:io_complete")
        self._tp_io_error = registry.tracepoint("block:io_error")

    def read(self, thread: Optional[SimThread], npages: int = 1,
             contiguous: bool = False) -> Optional[IoCompletion]:
        """Synchronously read ``npages`` pages; ``contiguous`` marks a
        continuation of a sequential stream (cheaper per page)."""
        return self._request(thread, "read", self.read_us, npages,
                             contiguous)

    def write(self, thread: Optional[SimThread], npages: int = 1,
              contiguous: bool = False) -> Optional[IoCompletion]:
        """Synchronously write ``npages`` pages (see :meth:`read`)."""
        return self._request(thread, "write", self.write_us, npages,
                             contiguous)

    def _request(self, thread, op: str, base_us: float, npages: int,
                 contiguous: bool) -> Optional[IoCompletion]:
        if npages < 1:
            raise ValueError(f"invalid page count: {npages}")
        if thread is None:
            thread = current_thread()
            if thread is None:
                # Outside the engine (unit tests): account, no timing.
                stats = self.stats
                if op == "read":
                    stats.reads += 1
                    stats.read_pages += npages
                else:
                    stats.writes += 1
                    stats.write_pages += npages
                return None
        if contiguous:
            # Continuation of an in-flight sequential stream (e.g.
            # direct-I/O page reads at consecutive offsets): every page
            # is priced at the sequential rate.
            service_us = base_us * self.seq_factor * npages
        else:
            service_us = base_us + base_us * self.seq_factor * (npages - 1)
        faults = self._faults
        if faults is not None:
            return faults.device_io(self, thread, op, npages, service_us)
        return self._submit(thread, op, npages, service_us)

    def _submit(self, thread: SimThread, op: str, npages: int,
                service_us: float, nchannels: Optional[int] = None,
                deadline_us: Optional[float] = None,
                fail: bool = False) -> Optional[IoCompletion]:
        """Queue one request from ``thread`` and block it to completion.

        The request takes the earliest-free of the first ``nchannels``
        channels (all by default).  ``deadline_us`` and ``fail`` are
        fault-plan outcomes (:mod:`repro.faults.injector`):

        * a request whose completion would land past ``issue +
          deadline_us`` unblocks the thread *at* the deadline and
          raises :class:`ETIMEDOUT`, while the channel stays busy until
          the true completion (a stuck request is not cancelled, the
          submitter just stops waiting for it);
        * a ``fail`` request occupies its channel for the full service
          (the device did the work, the transfer failed), the thread
          pays wait + service, then :class:`EIO` is raised.

        Failed requests count in ``stats.errors``, not in the
        read/write counters.  Returns an :class:`IoCompletion` when a
        span or a block tracepoint consumes one, else None.
        """
        issue_us = thread.clock_us
        span = thread.span
        traced = self._tp_issue.enabled or self._tp_complete.enabled
        # Channel scan at C speed: min() finds the earliest-available
        # time, .index() the first channel holding it (same tie-break
        # as a first-min loop).
        free_at = self._free_at
        pool = free_at if nchannels is None else free_at[:nchannels]
        best = min(pool)
        idx = pool.index(best)
        if span is not None or traced:
            depth = self.busy_channels(issue_us)
        start = issue_us if best <= issue_us else best
        done = start + service_us
        free_at[idx] = done
        stats = self.stats
        stats.busy_us += service_us

        if deadline_us is not None and done - issue_us > deadline_us:
            t_end = issue_us + deadline_us
            if t_end > thread.clock_us:
                thread.clock_us = t_end
            if span is not None and span.section is None:
                wait = min(start, t_end) - issue_us
                if wait > 0.0:
                    span.add("device_wait", wait)
                svc = (t_end - issue_us) - wait
                if svc > 0.0:
                    span.add("device_service", svc)
            stats.errors += 1
            tp = self._tp_io_error
            if tp.enabled:
                tp.emit(t_end, self._cgroup_name(thread), thread.tid, op=op,
                        pages=npages, error="ETIMEDOUT",
                        deadline_us=deadline_us)
            raise ETIMEDOUT(
                f"{op} of {npages} page(s) exceeded {deadline_us:.0f}us "
                f"deadline")

        # Inlined thread.wait_until(done).  The thread blocks to
        # completion also on EIO: the error is reported at completion.
        if done > thread.clock_us:
            thread.clock_us = done
        # Latency attribution: charge queueing and service explicitly
        # — unless a section (reclaim/fsync) is open, in which case the
        # I/O folds into that section's stall (repro.obs.spans).
        if span is not None and span.section is None:
            wait = start - issue_us
            if wait > 0.0:
                span.add("device_wait", wait)
            span.add("device_service", service_us)

        if fail:
            stats.errors += 1
            tp = self._tp_io_error
            if tp.enabled:
                tp.emit(done, self._cgroup_name(thread), thread.tid, op=op,
                        pages=npages, error="EIO")
            raise EIO(f"{op} of {npages} page(s) failed")

        cgroup = thread.cgroup
        cgio = self.per_cgroup[cgroup.id if cgroup is not None else 0]
        if op == "read":
            stats.reads += 1
            stats.read_pages += npages
            cgio.read_pages += npages
        else:
            stats.writes += 1
            stats.write_pages += npages
            cgio.write_pages += npages
        if span is None and not traced:
            return None
        completion = IoCompletion(issue_us=issue_us, wait_us=start - issue_us,
                                  service_us=service_us, done_us=done,
                                  queue_depth=depth)
        if traced:
            cgname = self._cgroup_name(thread)
            tp = self._tp_issue
            if tp.enabled:
                tp.emit(issue_us, cgname, thread.tid, op=op, pages=npages,
                        queue_depth=depth)
            tp = self._tp_complete
            if tp.enabled:
                tp.emit(done, cgname, thread.tid, op=op, pages=npages,
                        latency_us=completion.latency_us,
                        wait_us=completion.wait_us, service_us=service_us,
                        queue_depth=depth)
        return completion

    @staticmethod
    def _cgroup_name(thread: SimThread) -> str:
        return thread.cgroup.name if thread.cgroup is not None else "root"

    def busy_channels(self, now_us: float) -> int:
        """Channels still servicing a request at ``now_us`` — the
        instantaneous queue-depth gauge the telemetry sampler records
        (same definition as ``IoCompletion.queue_depth`` at issue)."""
        return sum(1 for t in self._free_at if t > now_us)

    def cgroup_io(self, cgroup_id: int) -> CgroupIoStats:
        return self.per_cgroup[cgroup_id]

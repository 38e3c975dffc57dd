"""One path per request: hook dispatch and block-device requests.

Every cache_ext hook goes through ``CacheExtPolicy._dispatch`` and
every block request through ``BlockDevice._submit``, whether or not
anything observes them.  Observation (hook tracepoints, a hook guard,
spans, block tracepoints, an armed but empty fault plan) must not move
virtual time or any counter.
"""

import pytest

from repro.cache_ext import load_policy
from repro.cache_ext.ops import CacheExtOps
from repro.ebpf.maps import ArrayMap
from repro.ebpf.runtime import bpf_program
from repro.faults.plan import FaultPlan
from repro.kernel import Machine
from repro.kernel.block import BlockDevice
from repro.kernel.folio import Folio
from repro.obs.spans import Span
from repro.sim.engine import Engine
from repro.sim.resources import DiskStats


def _env():
    """A machine with pages 0-3 of one file resident in cgroup ``t``."""
    machine = Machine()
    cg = machine.new_cgroup("t", limit_pages=64)
    f = machine.fs.create("data")
    for i in range(8):
        f.store[i] = i
    f.npages = 8
    f.ra_enabled = False

    def step(thread, it=iter(range(4))):
        idx = next(it, None)
        if idx is None:
            return False
        machine.fs.read_page(f, idx)
        return True

    machine.spawn("warm", step, cgroup=cg)
    machine.run()
    return machine, cg, f


def _program(slot: str):
    """A program for ``slot`` and its fault switch: once the switch
    map holds 1, the program raises at run time (a bad map index,
    which no verifier can see)."""
    switch = ArrayMap(1, name="switch")

    if slot in ("admit", "readahead"):
        @bpf_program
        def prog(mapping_id, index, arg):
            if switch.lookup(0):
                switch.lookup(999)
            return 1
    elif slot == "evict_folios":
        @bpf_program
        def prog(ctx, memcg):
            if switch.lookup(0):
                switch.lookup(999)
            return 0
    else:
        @bpf_program
        def prog(folio):
            if switch.lookup(0):
                switch.lookup(999)
            return 0
    return prog, switch


#: One call per hook method; folios_removed dispatches the
#: folio_removed slot once per folio.
CALLS = {
    "admit": ("admit", lambda p, f: p.admit(f.mapping, 5)),
    "readahead": ("readahead", lambda p, f: p.readahead_hint(f.mapping, 5, 3)),
    "folio_added": ("folio_added",
                    lambda p, f: p.folio_added(Folio(f.mapping, 5, p.memcg))),
    "folio_accessed": ("folio_accessed",
                       lambda p, f: p.folio_accessed(f.mapping.lookup(1))),
    "folio_removed": ("folio_removed",
                      lambda p, f: p.folio_removed(f.mapping.lookup(1))),
    "folios_removed": ("folio_removed",
                       lambda p, f: p.folios_removed(
                           [f.mapping.lookup(1), f.mapping.lookup(2)])),
    "evict_folios": ("evict_folios", lambda p, f: p.propose_candidates(4)),
}

MODES = ("plain", "hook_tracepoints", "guard")


def _run_hook(call: str, mode: str, fault: bool = False) -> dict:
    slot, invoke = CALLS[call]
    machine, cg, f = _env()
    prog, switch = _program(slot)
    ops = CacheExtOps(name="p", **{slot: prog})
    policy = load_policy(machine, cg, ops)
    events = []
    if mode == "hook_tracepoints":
        for name in ("cache_ext:hook_entry", "cache_ext:hook_exit"):
            machine.trace.tracepoint(name).subscribe(events.append)
    elif mode == "guard":
        machine.set_hook_budget(1e9)  # never trips
        assert policy._guard is not None
    if fault:
        switch.update(0, 1)
    out = {}

    def step(thread):
        span = thread.span = Span("test", thread.clock_us)
        clock, cpu = thread.clock_us, thread.cpu_us
        hook_cpu = cg.stats.hook_cpu_us
        invocations = prog.invocations
        invoke(policy, f)
        thread.span = None
        out.update(clock_us=thread.clock_us - clock,
                   cpu_us=thread.cpu_us - cpu,
                   hook_cpu_us=cg.stats.hook_cpu_us - hook_cpu,
                   kfunc_us=span.comps.get("kfunc", 0.0),
                   invocations=prog.invocations - invocations,
                   faults=cg.stats.ext_policy_faults,
                   detaches=cg.stats.watchdog_detaches,
                   attached=cg.ext_policy is policy)
        return False

    machine.spawn("hook", step, cgroup=cg)
    machine.run()
    if mode == "hook_tracepoints" and not fault:
        # Both tracepoints fire once per dispatch.
        assert len(events) == 2 * out["invocations"] > 0
    return out


class TestHookDispatch:
    @pytest.mark.parametrize("call", sorted(CALLS))
    def test_observers_do_not_change_dispatch(self, call):
        plain = _run_hook(call, "plain")
        assert plain["invocations"] == (2 if call == "folios_removed" else 1)
        assert plain["clock_us"] > 0.0
        assert plain["kfunc_us"] == plain["hook_cpu_us"]
        for mode in MODES[1:]:
            assert _run_hook(call, mode) == plain, mode

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("call", sorted(CALLS))
    def test_raising_program_detaches_once(self, call, mode):
        out = _run_hook(call, mode, fault=True)
        assert out["faults"] == 1
        assert out["detaches"] == 1
        assert not out["attached"]
        # The batch stops at the detach: one program run, one dispatch.
        assert out["invocations"] == 1


#: (op, npages, contiguous) issued by each of two threads.
REQUESTS = (("read", 1, False), ("write", 3, False), ("read", 4, True),
            ("write", 1, True), ("read", 2, False), ("read", 1, False))

BLOCK_MODES = ("plain", "span", "tracepoint", "empty_fault_plan")


def _run_block(mode: str):
    machine = Machine(disk=BlockDevice(read_us=95.0, write_us=30.0,
                                       channels=2))
    disk = machine.disk
    events = []
    if mode == "tracepoint":
        machine.trace.tracepoint("block:io_complete").subscribe(events.append)
    elif mode == "empty_fault_plan":
        machine.arm_faults(FaultPlan(seed=3))
    threads = []
    for name in ("a", "b"):
        cg = machine.new_cgroup(name, limit_pages=16)

        def step(thread, it=iter(REQUESTS)):
            req = next(it, None)
            if req is None:
                thread.span = None
                return False
            if mode == "span" and thread.span is None:
                thread.span = Span("test", thread.clock_us)
            op, npages, contiguous = req
            getattr(disk, op)(thread, npages, contiguous)
            return True

        threads.append(machine.spawn(name, step, cgroup=cg))
    machine.run()
    if mode == "tracepoint":
        assert len(events) == 2 * len(REQUESTS)
    # Keyed by cgroup name: cgroup ids differ between machines.
    return ([t.clock_us for t in threads], list(disk._free_at), disk.stats,
            {t.cgroup.name: disk.per_cgroup[t.cgroup.id] for t in threads})


class TestBlockRequestPath:
    def test_consumers_do_not_change_requests(self):
        plain = _run_block("plain")
        clocks, free_at, stats, per_cgroup = plain
        assert stats.reads == 8 and stats.read_pages == 16
        assert stats.writes == 4 and stats.write_pages == 8
        assert sorted(c.total_pages for c in per_cgroup.values()) == [12, 12]
        for mode in BLOCK_MODES[1:]:
            assert _run_block(mode) == plain, mode

    @pytest.mark.parametrize("npages", [0, -3])
    @pytest.mark.parametrize("op", ["read", "write"])
    def test_rejects_non_positive_page_count_outside_engine(self, op,
                                                            npages):
        disk = BlockDevice()
        with pytest.raises(ValueError, match="invalid page count"):
            getattr(disk, op)(None, npages)
        assert disk.stats == DiskStats()

    @pytest.mark.parametrize("armed", [False, True], ids=["plain", "faults"])
    @pytest.mark.parametrize("npages", [0, -3])
    @pytest.mark.parametrize("op", ["read", "write"])
    def test_rejects_non_positive_page_count_in_engine(self, op, npages,
                                                       armed):
        if armed:
            machine = Machine()
            machine.arm_faults(FaultPlan(seed=3))
            disk, engine = machine.disk, machine.engine
        else:
            disk, engine = BlockDevice(), Engine()

        def step(thread):
            getattr(disk, op)(thread, npages)
            return False

        thread = engine.spawn("bad", step)
        with pytest.raises(ValueError, match="invalid page count"):
            engine.run()
        assert thread.clock_us == 0.0
        assert disk.stats == DiskStats()
        assert disk._free_at == [0.0] * disk.channels
        assert not disk.per_cgroup

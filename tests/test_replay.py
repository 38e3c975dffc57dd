"""Deterministic replay: re-running a cell reproduces it bit-for-bit.

The simulator has one exact execution path, so a run is a pure
function of its inputs. Running the same cell twice — in one process,
or split across worker processes — must give the same payload, floats
included. ARC and SIEVE, which are not in the harness registry, are
driven directly on a bare machine. Scales are kept small: equality
at any scale exercises the same code paths.
"""

import pytest

from repro import api, load_policy
from repro.experiments import fig6
from repro.kernel.machine import Machine
from repro.policies.arc import make_arc_policy
from repro.policies.sieve import make_sieve_policy

# One small YCSB scale shared by the fig6-based cases.
YCSB_SCALE = dict(nkeys=2000, cgroup_pages=96, nops=800,
                  warmup_ops=400, nthreads=2, zipf_theta=1.1)


def counters(machine: Machine, cgroup: str = "app") -> dict:
    """Per-cgroup cache counters plus the machine-wide disk totals."""
    metrics = machine.metrics()
    cg = metrics.cgroup(cgroup)
    stats = cg.stats
    return {
        "lookups": stats["lookups"],
        "hits": stats["hits"],
        "misses": stats["misses"],
        "insertions": stats["insertions"],
        "evictions": stats["evictions"],
        "refaults": stats["refaults"],
        "admission_rejects": stats["admission_rejects"],
        "hit_ratio": cg.hit_ratio,
        "disk_pages": metrics.disk["total_pages"],
        "now_us": metrics.now_us,
    }


def run_direct(ops_factory) -> dict:
    """Drive one policy on a bare machine with a mixed hot/scan read
    pattern."""
    machine = Machine()
    cg = machine.new_cgroup("app", limit_pages=48)
    f = machine.fs.create("data")
    for i in range(256):
        f.store[i] = i
    f.npages = 256
    f.ra_enabled = False
    load_policy(machine, cg, ops_factory())

    def step(thread, state={"i": 0}):
        i = state["i"]
        if i >= 4000:
            return False
        # Deterministic mix: hot set + striding scan.
        machine.fs.read_page(f, (i * 7) % 24 if i % 3 else i % 256)
        state["i"] = i + 1
        return True

    machine.spawn("app", step, cgroup=cg)
    machine.run()
    return counters(machine)


class TestDirectPolicies:
    @pytest.mark.parametrize("factory", (make_arc_policy,
                                         make_sieve_policy),
                             ids=("arc", "sieve"))
    def test_counters_bit_identical(self, factory):
        first = run_direct(factory)
        second = run_direct(factory)
        assert first == second
        assert first["lookups"] > 0 and first["evictions"] > 0


class TestDeterminism:
    def test_same_seed_same_counters(self):
        a = fig6.cell(policy="s3fifo", workload="A", **YCSB_SCALE)
        b = fig6.cell(policy="s3fifo", workload="A", **YCSB_SCALE)
        assert a == b

    def test_serial_equals_parallel(self):
        import multiprocessing
        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("no fork on this platform")
        spec = fig6.plan(policies=("fifo", "lfu"), workloads=("B",),
                         scale=YCSB_SCALE)
        serial = api.run(spec)
        parallel = api.run(fig6.plan(policies=("fifo", "lfu"),
                                     workloads=("B",),
                                     scale=YCSB_SCALE),
                           jobs=2)
        assert serial.result.rows == parallel.result.rows


class TestReplayRefusals:
    def test_bounded_run_still_works(self):
        # A windowed run stops at its bound instead of running on.
        machine = Machine()
        ticks = []

        def step(thread):
            ticks.append(thread.clock_us)
            thread.advance(10.0)
            return True

        machine.spawn("t", step)
        machine.run(until_us=100.0)
        assert machine.engine.now_us <= 110.0
        assert len(ticks) >= 5

"""The one-call facade: :class:`repro.api.MachineConfig` and
:func:`repro.api.run`, plus the one-call attach API."""

import warnings

import pytest

from repro import api
from repro.experiments import fig6
from repro.faults.plan import FaultPlan
from repro.kernel.machine import Machine
from repro.kernel.mglru import MgLruPolicy

# One small YCSB scale shared by the fig6-based cases.
YCSB_SCALE = dict(nkeys=2000, cgroup_pages=96, nops=800,
                  warmup_ops=400, nthreads=2, zipf_theta=1.1)


class TestApiFacade:
    def test_machine_config_knobs_apply(self):
        config = api.MachineConfig(
            kernel_policy="mglru",
            disk={"read_us": 50.0, "channels": 4},
            cgroups=(("app", 128), ("side", 64)))
        machine = config.build()
        assert isinstance(machine.cgroup("app").kernel_policy, MgLruPolicy)
        assert machine.disk.read_us == 50.0
        assert machine.cgroup("app").limit_pages == 128
        assert machine.cgroup("side").limit_pages == 64

    def test_machine_config_is_reusable(self):
        config = api.MachineConfig(cgroups=(("app", 32),))
        m1, m2 = config.build(), config.build()
        assert m1 is not m2
        assert m1.cgroup("app") is not m2.cgroup("app")

    def test_run_by_name_end_to_end(self):
        # Name resolution through repro.experiments.<name>.plan().
        report = api.run("table3")
        assert report.result.rows

    def test_run_spec_with_policy_filter(self):
        spec = fig6.plan(policies=("fifo", "lfu"), workloads=("B",),
                         scale=YCSB_SCALE)
        report = api.run(spec, policy="lfu")
        rows = report.result.rows
        assert len(rows) == 1
        assert "lfu" in rows[0][0]

    def test_run_unknown_policy_filter_raises(self):
        spec = fig6.plan(policies=("fifo",), workloads=("B",),
                         scale=YCSB_SCALE)
        with pytest.raises(ValueError, match="no cell"):
            api.run(spec, policy="nonexistent")

    def test_faults_with_trace_raises(self):
        spec = fig6.plan(policies=("fifo",), workloads=("B",),
                         scale=YCSB_SCALE)
        with pytest.raises(ValueError, match="observer"):
            api.run(spec, faults=FaultPlan(seed=1), trace=True)


class TestAttach:
    def test_new_style_attach_does_not_warn(self):
        from repro.policies.lhd import init_lhd, make_lhd_policy
        machine = Machine()
        cg = machine.new_cgroup("app", limit_pages=64)
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            ops = make_lhd_policy(map_entries=512)
            machine.attach(cg, ops)
            init_lhd(machine, ops)
        assert cg.ext_policy is not None

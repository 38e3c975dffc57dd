"""Eviction-list kfuncs: the Table 2 API and its safety properties."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache_ext import load_policy
from repro.cache_ext.kfuncs import (EBUSY, EINVAL, ENOENT, EPERM,
                                    ITER_EVICT, ITER_MOVE, ITER_ROTATE,
                                    ITER_SKIP, ITER_STOP, MODE_SCORING,
                                    MODE_SIMPLE,
                                    ctx_add_candidate, current_tid,
                                    folio_key, ktime_us, list_add,
                                    list_create, list_del, list_iterate,
                                    list_move, list_size)
from repro.cache_ext.ops import (MAX_EVICTION_CANDIDATES, CacheExtOps,
                                 EvictionCtx)
from repro.ebpf.maps import ArrayMap
from repro.ebpf.runtime import bpf_program
from repro.kernel import Machine
from repro.kernel.list import IntrusiveList, ListNode
from repro.sim.resources import CpuCosts


def attach_empty_policy(machine, cg, name="p"):
    """Attach a hook-less policy so kfuncs have a home."""
    ops = CacheExtOps(name=name)
    return load_policy(machine, cg, ops)


def setup():
    machine = Machine()
    cg = machine.new_cgroup("t", limit_pages=256)
    policy = attach_empty_policy(machine, cg)
    f = machine.fs.create("data")
    for i in range(64):
        f.store[i] = i
    f.npages = 64
    f.ra_enabled = False
    return machine, cg, policy, f


def fault_in(machine, f, cg, n):
    def step(thread, state={"i": 0}):
        if state["i"] >= n:
            return False
        machine.fs.read_page(f, state["i"])
        state["i"] += 1
        return True
    machine.spawn("r", step, cgroup=cg)
    machine.run()
    return [f.mapping.lookup(i) for i in range(n)]


class TestListManagement:
    def test_create_returns_positive_id(self):
        machine, cg, policy, f = setup()
        list_id = list_create(cg)
        assert list_id > 0
        assert list_size(list_id) == 0

    def test_create_without_policy_fails(self):
        machine = Machine()
        cg = machine.new_cgroup("bare", limit_pages=16)
        assert list_create(cg) == EINVAL

    def test_add_and_size(self):
        machine, cg, policy, f = setup()
        list_id = list_create(cg)
        folios = fault_in(machine, f, cg, 3)
        for folio in folios:
            assert list_add(list_id, folio, True) == 0
        assert list_size(list_id) == 3

    def test_add_head_vs_tail(self):
        machine, cg, policy, f = setup()
        list_id = list_create(cg)
        a, b = fault_in(machine, f, cg, 2)
        list_add(list_id, a, True)
        list_add(list_id, b, False)  # head
        lst = policy.lists[-1]
        assert lst.folios() == [b, a]

    def test_folio_has_single_node(self):
        """§4.4: the registry stores one list node per folio, so a
        folio lives on at most one list — adding moves it."""
        machine, cg, policy, f = setup()
        l1, l2 = list_create(cg), list_create(cg)
        folio, = fault_in(machine, f, cg, 1)
        list_add(l1, folio, True)
        list_add(l2, folio, True)
        assert list_size(l1) == 0
        assert list_size(l2) == 1

    def test_del(self):
        machine, cg, policy, f = setup()
        list_id = list_create(cg)
        folio, = fault_in(machine, f, cg, 1)
        list_add(list_id, folio, True)
        assert list_del(folio) == 0
        assert list_size(list_id) == 0
        assert list_del(folio) == ENOENT

    def test_move_rotates(self):
        machine, cg, policy, f = setup()
        list_id = list_create(cg)
        a, b = fault_in(machine, f, cg, 2)
        list_add(list_id, a, True)
        list_add(list_id, b, True)
        list_move(list_id, a, True)
        assert policy.lists[-1].folios() == [b, a]

    def test_unregistered_folio_rejected(self):
        machine, cg, policy, f = setup()
        list_id = list_create(cg)
        folio, = fault_in(machine, f, cg, 1)
        machine.page_cache.evict_folio(folio, cg)  # now stale
        assert list_add(list_id, folio, True) == ENOENT

    def test_bad_list_id(self):
        machine, cg, policy, f = setup()
        folio, = fault_in(machine, f, cg, 1)
        assert list_add(999999, folio, True) == EPERM
        assert list_size(999999) == EINVAL


class TestIsolation:
    def test_cross_policy_list_access_denied(self):
        """A policy cannot manipulate another cgroup's lists (§4.3)."""
        machine = Machine()
        cg_a = machine.new_cgroup("a", limit_pages=64)
        cg_b = machine.new_cgroup("b", limit_pages=64)
        attach_empty_policy(machine, cg_a, "pa")
        attach_empty_policy(machine, cg_b, "pb")
        list_b = list_create(cg_b)

        f = machine.fs.create("fa")
        f.store[0] = 0
        f.npages = 1

        def step(thread):
            machine.fs.read_page(f, 0)
            return False

        machine.spawn("r", step, cgroup=cg_a)
        machine.run()
        folio = f.mapping.lookup(0)  # charged to cgroup a
        assert list_add(list_b, folio, True) == EPERM


class TestIterateSimple:
    def _listed(self, machine, cg, policy, f, n):
        list_id = list_create(cg)
        folios = fault_in(machine, f, cg, n)
        for folio in folios:
            list_add(list_id, folio, True)
        return list_id, folios

    def test_evict_all(self):
        machine, cg, policy, f = setup()
        list_id, folios = self._listed(machine, cg, policy, f, 5)

        @bpf_program
        def take(i, folio):
            return ITER_EVICT

        ctx = EvictionCtx(3)
        added = list_iterate(cg, list_id, take, ctx, MODE_SIMPLE)
        assert added == 3
        assert ctx.candidates == folios[:3]
        # Proposed folios rotate to the tail.
        assert policy.lists[-1].folios()[-3:] == folios[:3]

    def test_skip_leaves_in_place(self):
        machine, cg, policy, f = setup()
        list_id, folios = self._listed(machine, cg, policy, f, 4)

        @bpf_program
        def skip_evens(i, folio):
            if i % 2 == 0:
                return ITER_SKIP
            return ITER_EVICT

        ctx = EvictionCtx(4)
        list_iterate(cg, list_id, skip_evens, ctx, MODE_SIMPLE)
        assert ctx.candidates == [folios[1], folios[3]]

    def test_stop_halts_iteration(self):
        machine, cg, policy, f = setup()
        list_id, folios = self._listed(machine, cg, policy, f, 5)
        calls = []

        @bpf_program
        def stop_at_two(i, folio):
            calls.append(i)
            if i >= 2:
                return ITER_STOP
            return ITER_EVICT

        ctx = EvictionCtx(5)
        list_iterate(cg, list_id, stop_at_two, ctx, MODE_SIMPLE)
        assert calls == [0, 1, 2]
        assert len(ctx.candidates) == 2

    def test_move_to_dst_list(self):
        machine, cg, policy, f = setup()
        list_id, folios = self._listed(machine, cg, policy, f, 3)
        dst = list_create(cg)

        @bpf_program
        def promote(i, folio):
            return ITER_MOVE

        ctx = EvictionCtx(3)
        list_iterate(cg, list_id, promote, ctx, MODE_SIMPLE, 0, dst)
        assert list_size(dst) == 3
        assert list_size(list_id) == 0
        assert ctx.nr_candidates_proposed == 0

    def test_move_without_dst_is_einval(self):
        machine, cg, policy, f = setup()
        list_id, folios = self._listed(machine, cg, policy, f, 1)

        @bpf_program
        def promote(i, folio):
            return ITER_MOVE

        ctx = EvictionCtx(1)
        assert list_iterate(cg, list_id, promote, ctx,
                            MODE_SIMPLE) == EINVAL

    def test_rotate_verdict(self):
        machine, cg, policy, f = setup()
        list_id, folios = self._listed(machine, cg, policy, f, 3)

        @bpf_program
        def rotate_first(i, folio):
            if i == 0:
                return ITER_ROTATE
            return ITER_STOP

        ctx = EvictionCtx(1)
        list_iterate(cg, list_id, rotate_first, ctx, MODE_SIMPLE)
        assert policy.lists[-1].folios() == [folios[1], folios[2],
                                             folios[0]]

    def test_nr_scan_bounds_iteration(self):
        machine, cg, policy, f = setup()
        list_id, folios = self._listed(machine, cg, policy, f, 10)
        calls = []

        @bpf_program
        def count(i, folio):
            calls.append(i)
            return ITER_SKIP

        ctx = EvictionCtx(32)
        list_iterate(cg, list_id, count, ctx, MODE_SIMPLE, 4)
        assert len(calls) == 4

    def test_full_ctx_stops_early(self):
        machine, cg, policy, f = setup()
        list_id, folios = self._listed(machine, cg, policy, f, 10)

        @bpf_program
        def take(i, folio):
            return ITER_EVICT

        ctx = EvictionCtx(2)
        assert list_iterate(cg, list_id, take, ctx, MODE_SIMPLE) == 2


class TestIterateScoring:
    def test_lowest_scores_selected(self):
        machine, cg, policy, f = setup()
        list_id = list_create(cg)
        folios = fault_in(machine, f, cg, 6)
        for folio in folios:
            list_add(list_id, folio, True)
        scores = {folios[i].id: s
                  for i, s in enumerate([5, 1, 4, 0, 3, 2])}

        @bpf_program
        def score(i, folio):
            return scores[folio.id]

        ctx = EvictionCtx(2)
        added = list_iterate(cg, list_id, score, ctx, MODE_SCORING, 6)
        assert added == 2
        assert set(ctx.candidates) == {folios[3], folios[1]}
        # Non-selected folios rotated to the tail.
        tail_items = policy.lists[-1].folios()
        assert folios[0] in tail_items

    def test_ties_break_towards_head(self):
        machine, cg, policy, f = setup()
        list_id = list_create(cg)
        folios = fault_in(machine, f, cg, 4)
        for folio in folios:
            list_add(list_id, folio, True)

        @bpf_program
        def flat(i, folio):
            return 7

        ctx = EvictionCtx(2)
        list_iterate(cg, list_id, flat, ctx, MODE_SCORING, 4)
        assert ctx.candidates == [folios[0], folios[1]]

    def test_non_integer_score_is_einval(self):
        machine, cg, policy, f = setup()
        list_id = list_create(cg)
        folio, = fault_in(machine, f, cg, 1)
        list_add(list_id, folio, True)

        @bpf_program
        def bad_score(i, folio):
            return None

        ctx = EvictionCtx(1)
        assert list_iterate(cg, list_id, bad_score, ctx,
                            MODE_SCORING, 1) == EINVAL

    def test_empty_list_returns_zero(self):
        machine, cg, policy, f = setup()
        list_id = list_create(cg)

        @bpf_program
        def score(i, folio):
            return 0

        ctx = EvictionCtx(1)
        assert list_iterate(cg, list_id, score, ctx, MODE_SCORING) == 0

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), n=st.integers(1, 40),
           want=st.integers(1, 32), proposed=st.integers(0, 4))
    def test_matches_naive_reference(self, data, n, want, proposed):
        """Scoring mode equals a naive reference: sort the scanned run
        on ``(score, position)``, take as many of the lowest as the
        context has room for, then rotate every other scanned node to
        the tail with one ``move_to_tail`` each, in scan order.  The
        room is the request, capped at ``MAX_EVICTION_CANDIDATES`` by
        ``EvictionCtx``, minus the candidates already proposed."""
        nr_scan = data.draw(st.one_of(st.integers(1, n),
                                      st.integers(n, n + 8), st.just(0)),
                            label="nr_scan")
        scores = data.draw(st.lists(st.integers(0, 3), min_size=n,
                                    max_size=n), label="scores")
        machine, cg, policy, f = setup()
        list_id = list_create(cg)
        folios = fault_in(machine, f, cg, n + proposed)
        listed, earlier = folios[:n], folios[n:]
        order = data.draw(st.permutations(range(n)), label="order")
        for i in order:
            assert list_add(list_id, listed[i], True) == 0
        lst = policy.lists[-1]
        before = lst.items()
        score_of = {folio.id: score for folio, score in zip(before, scores)}

        ctx = EvictionCtx(proposed + want)
        for folio in earlier:
            assert ctx.add_candidate(folio)

        def score(i, folio):
            assert folio is before[i]
            return score_of[folio.id]

        room = ctx.nr_candidates_requested - proposed
        added = list_iterate(cg, list_id, score, ctx, MODE_SCORING, nr_scan)

        limit = min(nr_scan or len(before), len(before))
        ranked = sorted(range(limit), key=lambda p: (scores[p], p))
        chosen = sorted(ranked[:room])
        reference = IntrusiveList()
        nodes = [ListNode(folio) for folio in before]
        for node in nodes:
            reference.add_tail(node)
        for position in range(limit):
            if position not in chosen:
                reference.move_to_tail(nodes[position])
        assert lst.items() == reference.items()
        assert ctx.candidates == earlier + [before[p] for p in chosen]
        assert added == len(chosen)
        lst.check_consistency()


    def test_request_capped_at_max_candidates(self):
        """A request above MAX_EVICTION_CANDIDATES is capped by the
        context: with 4 candidates already proposed, asking for 36
        selects 32 - 4 = 28 folios, not 36."""
        machine, cg, policy, f = setup()
        list_id = list_create(cg)
        folios = fault_in(machine, f, cg, 44)
        listed, earlier = folios[:40], folios[40:]
        for folio in listed:
            assert list_add(list_id, folio, True) == 0
        before = policy.lists[-1].items()
        ctx = EvictionCtx(36)
        for folio in earlier:
            assert ctx.add_candidate(folio)

        @bpf_program
        def flat(i, folio):
            return 0

        added = list_iterate(cg, list_id, flat, ctx, MODE_SCORING, 40)
        assert ctx.nr_candidates_requested == MAX_EVICTION_CANDIDATES
        assert added == MAX_EVICTION_CANDIDATES - len(earlier) == 28
        assert ctx.candidates == earlier + before[:28]

class TestListLock:
    """While a list_iterate callback runs, the policy's lists are
    locked: the list-mutating kfuncs fail with EBUSY."""

    MODES = pytest.mark.parametrize("mode", [MODE_SIMPLE, MODE_SCORING],
                                    ids=["simple", "scoring"])

    @MODES
    def test_mutating_kfuncs_busy_inside_callback(self, mode):
        machine, cg, policy, f = setup()
        list_id, other = list_create(cg), list_create(cg)
        folios = fault_in(machine, f, cg, 6)
        for folio in folios[:4]:
            list_add(list_id, folio, True)
        list_add(other, folios[4], True)
        results = []

        def callback(i, folio):
            if i == 0:
                results.append((
                    list_add(other, folios[5], True),
                    list_move(other, folio, True),
                    list_del(folios[4]),
                    list_del(folio),
                    list_iterate(cg, other, callback, EvictionCtx(1),
                                 mode)))
            return ITER_SKIP if mode == MODE_SIMPLE else 0

        errors = policy.kfunc_errors
        list_iterate(cg, list_id, callback, EvictionCtx(1), mode)
        assert results == [(EBUSY,) * 5]
        assert policy.kfunc_errors == errors + 5
        assert not policy.lists_locked
        for lst in policy.lists:
            lst.check_consistency()
        assert policy.lists[-1].folios() == [folios[4]]
        assert sorted(folio.id for folio in policy.lists[-2].folios()) \
            == sorted(folio.id for folio in folios[:4])
        # Unlocked again once list_iterate returns.
        assert list_add(other, folios[5], True) == 0
        assert list_del(folios[4]) == 0

    @MODES
    def test_raising_callback_releases_lock(self, mode):
        machine, cg, policy, f = setup()
        list_id = list_create(cg)
        folios = fault_in(machine, f, cg, 3)
        for folio in folios[:2]:
            list_add(list_id, folio, True)

        def callback(i, folio):
            raise ZeroDivisionError

        with pytest.raises(ZeroDivisionError):
            list_iterate(cg, list_id, callback, EvictionCtx(1), mode)
        assert not policy.lists_locked
        assert list_add(list_id, folios[2], True) == 0
        assert list_size(list_id) == 3

    @MODES
    def test_watchdog_detach_then_reattach(self, mode):
        """A callback fault inside evict_folios detaches the policy;
        the detached instance leaves the lock released, and the
        re-attached policy's list_add calls succeed."""
        machine = Machine()
        cg = machine.new_cgroup("t", limit_pages=16)
        f = machine.fs.create("data")
        for i in range(64):
            f.store[i] = i
        f.npages = 64
        f.ra_enabled = False
        list_ids = ArrayMap(1, name="list_ids")
        oob = ArrayMap(1, name="oob")

        @bpf_program
        def init(memcg):
            list_ids.update(0, list_create(memcg))
            return 0

        @bpf_program
        def added(folio):
            return list_add(list_ids.lookup(0), folio, True)

        @bpf_program
        def boom(i, folio):
            return oob.lookup(42)  # out-of-bounds: runtime fault

        @bpf_program
        def evict(ctx, memcg):
            return list_iterate(memcg, list_ids.lookup(0), boom, ctx, mode)

        ops = CacheExtOps(name="boom", policy_init=init,
                          folio_added=added, evict_folios=evict)
        old = load_policy(machine, cg, ops)
        fault_in(machine, f, cg, 40)
        assert cg.ext_policy is None
        assert cg.stats.ext_policy_faults == 1
        assert not old.lists_locked

        new = load_policy(machine, cg, ops)
        resident = cg.charged_pages
        assert resident > 0
        assert list_size(list_ids.lookup(0)) == resident
        assert new.kfunc_errors == 0


class TestKfuncCharges:
    """Each kfunc call, and each folio a list scan visits, advances the
    calling thread's clock and CPU time and the memcg's and machine's
    hook time by exactly ``kfunc_op_us``."""

    #: A dyadic cost on integral baselines keeps every float sum exact.
    KFUNC_US = 0.25

    def _charged(self, op, listed):
        """Run ``op(cg, list_id, folios)`` in a thread of a fresh cgroup.

        With ``listed`` the eight folios are on the list beforehand.
        Returns ``(result, deltas)``: ``op``'s return value and the
        advance of (clock, CPU, memcg hook time, machine hook time)
        across the call.
        """
        machine = Machine(costs=CpuCosts(kfunc_op_us=self.KFUNC_US))
        cg = machine.new_cgroup("t", limit_pages=256)
        attach_empty_policy(machine, cg)
        f = machine.fs.create("data")
        for i in range(8):
            f.store[i] = i
        f.npages = 8
        f.ra_enabled = False
        folios = fault_in(machine, f, cg, 8)
        list_id = list_create(cg)
        if listed:
            for folio in folios:
                assert list_add(list_id, folio, True) == 0
        out = {}

        def step(thread):
            thread.wait_until(math.ceil(thread.clock_us))
            cg.stats.hook_cpu_us = 0.0
            machine.page_cache.stats.hook_cpu_us = 0.0
            clock, cpu = thread.clock_us, thread.cpu_us
            out["result"] = op(cg, list_id, folios)
            out["deltas"] = (thread.clock_us - clock, thread.cpu_us - cpu,
                             cg.stats.hook_cpu_us,
                             machine.page_cache.stats.hook_cpu_us)
            return False

        machine.spawn("kfuncs", step, cgroup=cg)
        machine.run()
        return out["result"], out["deltas"]

    def test_list_add(self):
        def op(cg, list_id, folios):
            return [list_add(list_id, folio, True) for folio in folios]

        result, deltas = self._charged(op, listed=False)
        assert result == [0] * 8
        assert deltas == (8 * self.KFUNC_US,) * 4

    def test_list_del(self):
        def op(cg, list_id, folios):
            return [list_del(folio) for folio in folios]

        result, deltas = self._charged(op, listed=True)
        assert result == [0] * 8
        assert deltas == (8 * self.KFUNC_US,) * 4

    @pytest.mark.parametrize("mode", [MODE_SIMPLE, MODE_SCORING],
                             ids=["simple", "scoring"])
    def test_list_iterate_charges_each_scanned_folio(self, mode):
        @bpf_program
        def callback(i, folio):
            return ITER_SKIP if mode == MODE_SIMPLE else i

        def op(cg, list_id, folios):
            return list_iterate(cg, list_id, callback, EvictionCtx(2),
                                mode, 5)

        added, deltas = self._charged(op, listed=True)
        assert added == (0 if mode == MODE_SIMPLE else 2)
        assert deltas == (5 * self.KFUNC_US,) * 4
        assert callback.invocations == 5


class TestMiscKfuncs:
    def test_ctx_add_candidate(self):
        machine, cg, policy, f = setup()
        folio, = fault_in(machine, f, cg, 1)
        ctx = EvictionCtx(1)
        assert ctx_add_candidate(ctx, folio) == 1
        assert ctx_add_candidate(ctx, folio) == 0  # full
        assert ctx_add_candidate(ctx, "junk") == EINVAL

    def test_folio_key(self):
        machine, cg, policy, f = setup()
        folio, = fault_in(machine, f, cg, 1)
        assert folio_key(folio) == (f.file_id, 0)

    def test_current_tid_inside_engine(self):
        machine, cg, policy, f = setup()
        seen = []

        def step(thread):
            seen.append((current_tid(), thread.tid))
            return False

        machine.spawn("t", step, cgroup=cg)
        machine.run()
        assert seen[0][0] == seen[0][1]

    def test_current_tid_outside_engine(self):
        assert current_tid() == 0

    def test_ktime_monotone(self):
        machine, cg, policy, f = setup()
        times = []

        def step(thread, state={"i": 0}):
            if state["i"] >= 3:
                return False
            thread.advance(10.0)
            times.append(ktime_us())
            state["i"] += 1
            return True

        machine.spawn("t", step, cgroup=cg)
        machine.run()
        assert times == sorted(times)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.sampled_from("AMDR"),
                          st.integers(0, 9)), max_size=50))
def test_list_membership_invariant(ops):
    """Every folio is on at most one eviction list at all times, and
    list sizes always sum to the number of linked folios."""
    machine = Machine()
    cg = machine.new_cgroup("t", limit_pages=256)
    policy = attach_empty_policy(machine, cg)
    l1, l2 = list_create(cg), list_create(cg)
    f = machine.fs.create("d")
    for i in range(10):
        f.store[i] = i
    f.npages = 10
    f.ra_enabled = False

    def step(thread):
        for i in range(10):
            machine.fs.read_page(f, i)
        return False

    machine.spawn("r", step, cgroup=cg)
    machine.run()
    folios = [f.mapping.lookup(i) for i in range(10)]

    for op, idx in ops:
        folio = folios[idx]
        if op == "A":
            list_add(l1, folio, True)
        elif op == "M":
            list_move(l2, folio, idx % 2 == 0)
        elif op == "D":
            list_del(folio)
        elif op == "R":
            list_move(l1, folio, True)
        # Invariant: a folio's node is linked to at most one list.
        linked = sum(1 for lst in policy.lists
                     for item in lst.folios() if item is folio)
        assert linked <= 1
    total_listed = sum(len(lst) for lst in policy.lists)
    nodes = sum(1 for fo in folios
                if policy.registry.get_node(fo) is not None
                and policy.registry.get_node(fo).owner is not None)
    assert total_listed == nodes

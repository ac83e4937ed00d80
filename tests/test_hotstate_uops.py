"""Property tests for the per-uop SoA dispatch state.

Covers the :class:`repro.sim.hotstate.WaiterPool` round-trips (insert /
wake-walk / squash), column growth across in-place array reallocations —
including the *physical length equals logical capacity* invariant the
compiled kernels rely on to derive their bounds from buffer sizes — and
recovery squash draining every waiter slot by the end of a run.
"""

from __future__ import annotations

import random

import pytest

from repro.core.copy_engine import CopyEngine
from repro.fuzz.generate import generate_case
from repro.pipeline.scheduler import IssueQueue
from repro.sim.hotstate import DynTable, WaiterPool, compiled_available
from repro.sim.simulator import HelperClusterSimulator


def _walk_value(pool: WaiterPool, value_uid: int, domain: int) -> list:
    """Drain one (value_uid, domain) waiter list the way wakeup does."""
    lane = value_uid * pool.num_domains + domain
    node = pool.value_heads[lane]
    pool.value_heads[lane] = -1
    pool.value_tails[lane] = -1
    woken = []
    while node >= 0:
        nxt = pool.node_next[node]
        woken.append(pool.node_dyn[node])
        pool.free_node(node)
        node = nxt
    return woken


def _free_list_len(pool: WaiterPool) -> int:
    node = pool.ctrl[0]
    n = 0
    while node >= 0:
        n += 1
        node = pool.node_next[node]
    return n


class TestWaiterPoolRoundTrip:
    def test_fifo_order_per_lane(self):
        pool = WaiterPool(num_domains=3)
        rng = random.Random(0xD15)
        expected: dict = {}
        for dyn_id in range(500):
            uid = rng.randrange(40)
            domain = rng.randrange(3)
            pool.append_value(uid, domain, dyn_id)
            expected.setdefault((uid, domain), []).append(dyn_id)
        for (uid, domain), dyns in expected.items():
            assert _walk_value(pool, uid, domain) == dyns
        assert pool.stranded_nodes() == 0

    def test_interleaved_insert_wake_keeps_node_accounting(self):
        pool = WaiterPool(num_domains=2)
        rng = random.Random(0xACC)
        live: dict = {}
        for step in range(2000):
            if live and rng.random() < 0.4:
                key = rng.choice(list(live))
                assert _walk_value(pool, *key) == live.pop(key)
            else:
                uid = rng.randrange(64)
                domain = rng.randrange(2)
                live.setdefault((uid, domain), []).append(step)
                pool.append_value(uid, domain, step)
            # every node slot is either live or on the free list
            assert pool.stranded_nodes() + _free_list_len(pool) == len(pool.node_dyn)
        for key, dyns in list(live.items()):
            assert _walk_value(pool, *key) == dyns
        assert pool.stranded_nodes() == 0
        assert _free_list_len(pool) == len(pool.node_dyn)

    def test_chunk_chains_round_trip(self):
        pool = WaiterPool(num_domains=1)
        for prev in (3, 2000):          # second key forces ensure_chunk growth
            pool.append_chunk(prev, prev + 1)
            pool.append_chunk(prev, prev + 2)
            node = pool.chunk_heads[prev]
            walked = []
            while node >= 0:
                walked.append(pool.node_dyn[node])
                nxt = pool.node_next[node]
                pool.free_node(node)
                node = nxt
            pool.chunk_heads[prev] = -1
            pool.chunk_tails[prev] = -1
            assert walked == [prev + 1, prev + 2]
        assert pool.stranded_nodes() == 0

    def test_reserve_prevents_node_growth(self):
        pool = WaiterPool(num_domains=2)
        pool.reserve(32)
        slots_before = len(pool.node_dyn)
        assert _free_list_len(pool) == 32
        for i in range(32):
            pool.append_value(i % 5, i % 2, i)
        assert len(pool.node_dyn) == slots_before


class TestColumnGrowth:
    """Growing a column must keep object identity (the compiled kernels
    re-acquire buffers per call but hold the *objects* across calls) and
    must keep the physical element count equal to the logical capacity —
    the kernels derive lane bounds from ``len(buffer)``, so slack elements
    would be read as real (garbage) state."""

    def test_dyn_table_columns_track_cap(self):
        table = DynTable()
        cols = ("seq", "domain", "flags", "value_uid", "pnarrow",
                "kindcol", "opcode", "unit")
        before = {c: id(getattr(table, c)) for c in cols}
        table.ensure(5000)
        assert table.cap >= 5001
        for c in cols:
            col = getattr(table, c)
            assert id(col) == before[c], c
            assert len(col) == table.cap, c

    def test_waiter_pool_lanes_track_caps(self):
        pool = WaiterPool(num_domains=3)
        heads, tails = id(pool.value_heads), id(pool.value_tails)
        pool.ensure_value(9000)
        assert id(pool.value_heads) == heads
        assert id(pool.value_tails) == tails
        assert len(pool.value_heads) == pool.vcap * pool.num_domains
        assert len(pool.value_tails) == pool.vcap * pool.num_domains
        pool.ensure_chunk(9000)
        assert len(pool.chunk_heads) == pool.ccap
        assert len(pool.chunk_tails) == pool.ccap

    def test_copy_engine_lanes_track_cap(self):
        engine = CopyEngine(num_domains=3)
        ids = {n: id(getattr(engine, n)) for n in
               ("avail_lanes", "avail_order_lanes", "avail_count_lanes",
                "pending_lanes", "prefetched_lanes", "copied_lanes")}
        engine.note_produced(7000, 1, ready_cycle=10)
        D = engine.num_domains
        cap = engine.cap_uids
        assert cap >= 7001
        for name, ident in ids.items():
            assert id(getattr(engine, name)) == ident, name
        assert len(engine.avail_lanes) == cap * D
        assert len(engine.avail_order_lanes) == cap * D
        assert len(engine.avail_count_lanes) == cap
        assert len(engine.pending_lanes) == cap * D
        assert len(engine.prefetched_lanes) == cap * D
        assert len(engine.copied_lanes) == cap
        assert engine.availability(7000, 1) == 10

    def test_issue_queue_columns_track_capacity_across_forced_growth(self):
        iq = IssueQueue(size=4, issue_width=2)
        ids = {n: id(getattr(iq, n)) for n in
               ("agekey", "remaining", "mem_flags", "uids")}
        for uid in range(11):           # > 2x architectural size: two growths
            iq.insert_uop(uid, uid, 0, False, None, force=True)
        assert iq._capacity > 4
        for name, ident in ids.items():
            col = getattr(iq, name)
            assert id(col) == ident, name
            assert len(col) == iq._capacity, name
        assert len(iq.payloads) == iq._capacity
        # drain preserves age order over the grown storage
        drained = [e.uid for e in iq.drain()]
        assert drained == sorted(drained)


@pytest.mark.parametrize("backend", [
    "python",
    pytest.param("compiled", marks=pytest.mark.skipif(
        not compiled_available(),
        reason="repro._corekernel extension not built")),
])
class TestRecoveryDrainsWaiters:
    def test_squash_leaves_no_stranded_waiter_slots(self, backend):
        # fuzz seed 319 produces dozens of width-misprediction recoveries
        # across three helper clusters (dense squash + redispatch traffic)
        case = generate_case(319)
        sim = HelperClusterSimulator(case.build_trace(),
                                     config=case.machine_config(),
                                     policy=case.policy.build(),
                                     reference_loop=False, backend=backend)
        result = sim.run()
        assert result.recoveries > 0
        assert sim.hot.waiters.stranded_nodes() == 0
        assert sim.copy_engine.prefetched_active == 0

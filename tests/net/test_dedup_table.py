"""Unit tests for the receiver-side dedup table (repro.net.dedup)."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.datastore.flatfile import FlatFileStore
from repro.datastore.liststore import ListStore
from repro.datastore.predicate import where
from repro.datastore.store import RelationalStore
from repro.datastore.wal import ChangeJournal, attach_journal, replay
from repro.net.dedup import (
    EXECUTE,
    FENCED,
    REPLAY,
    SUPPRESS,
    DedupPersistence,
    DedupTable,
    _SenderState,
)


class TestAdmitRecordReplay:
    def test_first_sighting_executes_then_replays(self):
        table = DedupTable()
        verdict, cached = table.admit("a", 1, 1)
        assert (verdict, cached) == (EXECUTE, None)
        table.record("a", 1, 1, {"result": 42})
        verdict, cached = table.admit("a", 1, 1)
        assert verdict == REPLAY
        assert cached == {"result": 42}
        assert table.hits == 1 and table.executions == 1

    def test_distinct_seqs_are_independent(self):
        table = DedupTable()
        table.record("a", 1, 1, {"result": "x"})
        assert table.admit("a", 1, 2)[0] == EXECUTE

    def test_distinct_senders_are_independent(self):
        table = DedupTable()
        table.record("a", 1, 1, {"result": "x"})
        assert table.admit("b", 1, 1)[0] == EXECUTE

    def test_watermark_advances_contiguously(self):
        table = DedupTable()
        for seq in (1, 2, 3):
            table.record("a", 1, seq, {"result": seq})
        assert table.watermark("a") == (1, 3)

    def test_out_of_order_seqs_park_in_pending_then_drain(self):
        table = DedupTable()
        table.record("a", 1, 1, {"result": 1})
        table.record("a", 1, 3, {"result": 3})  # gap at 2
        assert table.watermark("a") == (1, 1)
        table.record("a", 1, 2, {"result": 2})  # gap fills, 3 drains
        assert table.watermark("a") == (1, 3)

    def test_gap_never_advances_watermark(self):
        # An abandoned seq (request dropped, caller gave up) must stall
        # the contiguous point — seqs above it stay replayable but are
        # never folded into the watermark.
        table = DedupTable()
        table.record("a", 1, 2, {"result": 2})
        table.record("a", 1, 3, {"result": 3})
        assert table.watermark("a") == (1, 0)
        assert table.admit("a", 1, 3)[0] == REPLAY


class TestBounds:
    def test_lru_eviction_at_capacity(self):
        table = DedupTable(capacity=3)
        for seq in range(1, 5):
            table.record("a", 1, seq, {"result": seq})
        assert table.cached_replies() == 3
        assert table.evicted == 1
        # The oldest reply went; admitting its key suppresses (processed,
        # reply gone) instead of replaying or re-executing.
        assert table.admit("a", 1, 1)[0] == SUPPRESS
        assert table.suppressed == 1

    def test_watermark_pruning_below_window(self):
        table = DedupTable(window=2)
        for seq in range(1, 7):
            table.record("a", 1, seq, {"result": seq})
        # contig=6, window=2: seqs <= 4 are pruned.
        assert table.admit("a", 1, 6)[0] == REPLAY
        assert table.admit("a", 1, 1)[0] == SUPPRESS


class TestIncarnationFencing:
    def test_older_incarnation_is_fenced(self):
        table = DedupTable()
        table.record("a", 2, 1, {"result": "new"})
        assert table.admit("a", 1, 9)[0] == FENCED
        assert table.fenced == 1

    def test_new_incarnation_resets_sequence_space(self):
        table = DedupTable()
        table.record("a", 1, 1, {"result": "old"})
        # Seq 1 of incarnation 2 is NOT a duplicate of seq 1 of inc 1.
        assert table.admit("a", 2, 1)[0] == EXECUTE
        # The old-epoch reply was pruned at the transition.
        assert table.cached_replies() == 0

    def test_fencing_leaves_other_senders_alone(self):
        table = DedupTable()
        table.record("a", 1, 1, {"result": "a"})
        table.record("b", 1, 1, {"result": "b"})
        table.admit("a", 2, 1)
        assert table.admit("b", 1, 1)[0] == REPLAY


class TestPersistenceAndRestart:
    def test_restart_without_persistence_forgets_everything(self):
        table = DedupTable()
        table.record("a", 1, 1, {"result": 1})
        table.restart()
        assert table.watermark("a") is None
        assert table.admit("a", 1, 1)[0] == EXECUTE

    def test_watermark_survives_restart_reply_cache_does_not(self):
        store = RelationalStore("n1")
        table = DedupTable(persist=DedupPersistence(store))
        table.record("a", 1, 1, {"result": 1})
        table.restart()
        assert table.watermark("a") == (1, 1)
        assert table.cached_replies() == 0
        # Processed but reply lost with the power-cycle: suppress, never
        # re-execute.
        assert table.admit("a", 1, 1)[0] == SUPPRESS

    def test_persistence_round_trips_pending_set(self):
        store = RelationalStore("n2")
        table = DedupTable(persist=DedupPersistence(store))
        table.record("a", 3, 2, {"result": 2})  # out of order: pending={2}
        reloaded = DedupPersistence(store).load()
        assert reloaded["a"].incarnation == 3
        assert reloaded["a"].contig == 0
        assert reloaded["a"].pending == {2}

    def test_persistence_updates_existing_row(self):
        store = RelationalStore("n3")
        table = DedupTable(persist=DedupPersistence(store))
        table.record("a", 1, 1, {"result": 1})
        table.record("a", 1, 2, {"result": 2})
        assert len(store.select(DedupPersistence.TABLE)) == 1
        assert DedupPersistence(store).load()["a"].contig == 2


class _FullScanDedupTable(DedupTable):
    """Reference model: the original pruning, which scans the whole reply
    LRU on every ``record`` and on every incarnation fence. The indexed
    table must be observably identical to it."""

    def record(self, sender, incarnation, seq, reply):
        self.executions += 1
        state = self._senders.setdefault(sender, _SenderState(incarnation))
        self._replies[(sender, incarnation, seq)] = reply
        self._replies.move_to_end((sender, incarnation, seq))
        while len(self._replies) > self.capacity:
            self._replies.popitem(last=False)
            self.evicted += 1
        if seq == state.contig + 1:
            state.contig = seq
            while state.contig + 1 in state.pending:
                state.pending.discard(state.contig + 1)
                state.contig += 1
        elif seq > state.contig:
            state.pending.add(seq)
        floor = state.contig - self.window
        if floor > 0:
            for key in [
                k
                for k in self._replies
                if k[0] == sender and k[1] == incarnation and k[2] <= floor
            ]:
                del self._replies[key]
        if self.persist is not None:
            self.persist.save(sender, state)

    def _prune_sender(self, sender, incarnation):
        for key in [k for k in self._replies if k[0] == sender and k[1] <= incarnation]:
            del self._replies[key]


_SENDERS = ("a", "b")
_COUNTERS = ("hits", "executions", "suppressed", "fenced", "evicted")


def _pair(persist: bool, capacity: int = 5, window: int = 2):
    def make(cls, name):
        adapter = DedupPersistence(RelationalStore(name)) if persist else None
        return cls(capacity=capacity, window=window, persist=adapter)

    return make(DedupTable, "indexed"), make(_FullScanDedupTable, "reference")


def _assert_same(table: DedupTable, ref: DedupTable) -> None:
    for name in _COUNTERS:
        assert getattr(table, name) == getattr(ref, name), name
    assert list(table._replies.items()) == list(ref._replies.items())
    assert table._senders == ref._senders
    for sender in _SENDERS:
        assert table.watermark(sender) == ref.watermark(sender)
    if table.persist is not None:
        rows = table.persist.store.select(DedupPersistence.TABLE)
        assert rows == ref.persist.store.select(DedupPersistence.TABLE)


def _assert_index_tight(table: DedupTable) -> None:
    """The per-pair seq index covers every cached key and never outlives
    the watermark floor or a fenced incarnation."""
    for sender, incarnation, seq in table._replies:
        assert seq in table._seqs[(sender, incarnation)]
    for (sender, incarnation), heap in table._seqs.items():
        state = table._senders.get(sender)
        assert state is not None, (sender, incarnation)
        assert incarnation >= state.incarnation, (sender, incarnation)
        floor = state.contig - table.window
        if incarnation == state.incarnation and floor > 0 and heap:
            assert min(heap) > floor, (sender, incarnation, heap, floor)


# Listener-protocol steps: a sender either sends its next seq, skips
# some (a gap: the request was lost and abandoned), re-sends an earlier
# seq (duplicate, or an out-of-order fill of a gap), sends under its
# previous incarnation (a delayed pre-restart message), or restarts
# (incarnation bump, seq space reset); the receiver may power-cycle.
_protocol_step = st.one_of(
    st.tuples(st.just("next"), st.sampled_from(_SENDERS)),
    st.tuples(st.just("skip"), st.sampled_from(_SENDERS), st.integers(1, 3)),
    st.tuples(st.just("resend"), st.sampled_from(_SENDERS), st.integers(0, 8)),
    st.tuples(st.just("stale"), st.sampled_from(_SENDERS), st.integers(1, 8)),
    st.tuples(st.just("bump"), st.sampled_from(_SENDERS)),
    st.tuples(st.just("restart")),
)


class TestIndexedPruningMatchesFullScan:
    @settings(max_examples=150, deadline=None)
    @given(
        steps=st.lists(_protocol_step, max_size=60),
        persist=st.booleans(),
        capacity=st.integers(2, 6),
        window=st.integers(0, 3),
    )
    def test_listener_protocol(self, steps, persist, capacity, window):
        table, ref = _pair(persist, capacity, window)
        incarnation = {s: 1 for s in _SENDERS}
        counter = {s: 0 for s in _SENDERS}
        for i, step in enumerate(steps):
            kind, sender = step[0], step[1] if len(step) > 1 else None
            if kind == "restart":
                table.restart()
                ref.restart()
            elif kind == "bump":
                incarnation[sender] += 1
                counter[sender] = 0
            elif kind == "skip":
                counter[sender] += step[2]
            else:
                inc = incarnation[sender]
                if kind == "next":
                    counter[sender] += 1
                    seq = counter[sender]
                elif kind == "resend":
                    seq = max(1, counter[sender] - step[2])
                else:
                    inc, seq = max(1, inc - 1), step[2]
                verdict = table.admit(sender, inc, seq)
                assert verdict == ref.admit(sender, inc, seq)
                if verdict[0] == EXECUTE:
                    reply = (
                        {"__error__": "LockError", "message": str(i)}
                        if i % 5 == 0
                        else {"result": [sender, inc, seq, i]}
                    )
                    table.record(sender, inc, seq, reply)
                    ref.record(sender, inc, seq, reply)
            _assert_same(table, ref)
            _assert_index_tight(table)

    @settings(max_examples=100, deadline=None)
    @given(
        steps=st.lists(
            st.tuples(
                st.sampled_from(("admit", "record", "record", "restart")),
                st.sampled_from(_SENDERS),
                st.integers(1, 3),
                st.integers(0, 10),
            ),
            max_size=60,
        ),
        persist=st.booleans(),
    )
    # seq 0 recorded while the floor is exactly 0: pruning starts only
    # once the floor is positive.
    @example(steps=[("record", "a", 1, 1), ("record", "a", 1, 0)], persist=False)
    def test_arbitrary_calls(self, steps, persist):
        # Off-protocol sequences too: records without an admission, under
        # a stale or future incarnation, for seq 0 and for seqs already
        # pruned. Only equivalence is asserted here.
        table, ref = _pair(persist, capacity=4, window=1)
        for i, (op, sender, inc, seq) in enumerate(steps):
            if op == "restart":
                table.restart()
                ref.restart()
            elif op == "admit":
                assert table.admit(sender, inc, seq) == ref.admit(sender, inc, seq)
            else:
                table.record(sender, inc, seq, {"result": i})
                ref.record(sender, inc, seq, {"result": i})
            _assert_same(table, ref)

    def test_index_stays_the_size_of_the_cache(self):
        # Senders sharing a small LRU: eviction, not the watermark, drops
        # their replies, and the index must let go of them too.
        table = DedupTable(capacity=8, window=64)
        for seq in range(1, 200):
            for sender in "abcd":
                table.record(sender, 1, seq, {"result": seq})
        assert table.cached_replies() == 8
        assert sum(len(heap) for heap in table._seqs.values()) == 8

    def test_record_never_scans_the_reply_cache(self):
        # Fill the cache with another sender's keys (a gap at seq 1 keeps
        # them all), then make every further record prune one key: the
        # per-record cost must not depend on the unrelated entries.
        table = DedupTable(capacity=10_000, window=1)
        for seq in range(2, 5002):
            table.record("other", 1, seq, {"result": seq})
        table.record("a", 1, 1, {"result": 1})

        class _NoIteration(type(table._replies)):
            def __iter__(self):
                raise AssertionError("record iterated the reply cache")

        table._replies = _NoIteration(table._replies)
        for seq in range(2, 50):
            table.record("a", 1, seq, {"result": seq})
        assert table.cached_replies() == 5000 + 1
        table.admit("a", 2, 1)  # fence: drops inc-1 keys, still no scan
        assert table.cached_replies() == 5000


def _ops(journal: ChangeJournal):
    return [(e.op, e.pk) for e in journal.entries()]


class TestPersistenceJournal:
    @pytest.mark.parametrize("store_cls", [RelationalStore, FlatFileStore, ListStore])
    def test_one_write_per_save_in_trigger_order(self, store_cls):
        store = store_cls("n")
        persist = DedupPersistence(store)
        journal = ChangeJournal()
        attach_journal(store, journal)
        table = DedupTable(persist=persist)

        table.record("a", 1, 1, {"result": 1})  # first sighting: insert
        assert _ops(journal) == [("insert", "a")]
        table.record("a", 1, 2, {"result": 2})
        table.record("a", 1, 4, {"result": 4})  # out of order: pending
        table.record("a", 1, 3, {"result": 3})  # gap fills, 4 drains
        assert table.admit("a", 2, 1)[0] == EXECUTE  # sender restarted
        table.record("a", 2, 1, {"result": "new"})
        table.record("b", 1, 1, {"result": "b"})

        assert _ops(journal) == [
            ("insert", "a"),
            ("update", "a"),
            ("update", "a"),
            ("update", "a"),
            ("update", "a"),
            ("insert", "b"),
        ]
        rows = [
            (e.row["incarnation"], e.row["contig"], e.row["pending"])
            for e in journal.entries()
        ]
        assert rows == [(1, 1, []), (1, 2, []), (1, 2, [4]), (1, 4, []), (2, 1, []), (1, 1, [])]
        assert [e.row["sender"] for e in journal.entries()] == ["a"] * 5 + ["b"]

        # An update that matches no row journals nothing.
        before = len(journal)
        fields = {"incarnation": 1, "contig": 0, "pending": []}
        assert store.update(DedupPersistence.TABLE, where("sender") == "zz", fields) == 0
        assert len(journal) == before

        # The journal alone rebuilds the live watermarks.
        fresh = store_cls("copy")
        rebuilt = DedupPersistence(fresh)
        assert replay(journal, fresh) == len(journal)
        assert rebuilt.load() == persist.load() == table._senders
        assert table.watermark("a") == (2, 1) and table.watermark("b") == (1, 1)

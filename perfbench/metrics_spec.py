"""Per-layer metric definitions and the end-to-end effect each predicts.

``PER_LAYER`` maps each metric of the traced run to its unit, the
direction that is better, and the (end-to-end metric, workload) pairs
it should move — written down before any optimisation, so a change to
one layer can be held to the prediction. ``BENCHMARK.json`` repeats the
names, units and directions of all but ``PRINT_ONLY``; the benchmark's
tests keep the two equal.
"""

from __future__ import annotations

import re

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

ALL = ("steady", "lookup", "faults")

#: name -> (unit, better, [(end-to-end metric, workload), ...])
PER_LAYER: dict[str, tuple[str, str, list[tuple[str, str]]]] = {
    # calendar: MeetingManager and CalendarService public methods
    "calendar.calls_per_op": ("call/op", "lower", [("ops_per_s", "steady")]),
    "calendar.self_us_per_op": ("us/op", "lower", [("ops_per_s", "steady")]),
    # txn: NegotiationCoordinator.execute/execute_multi/recover, LockManager
    "txn.negotiations_per_op": (
        "call/op", "lower", [("op_virt_ms.p99", "steady"), ("op_virt_ms.p99", "faults")]
    ),
    "txn.commit_ratio": (
        "ratio", "higher", [("op_virt_ms.p99", "steady"), ("op_virt_ms.p99", "faults")]
    ),
    "txn.lock_calls_per_op": ("call/op", "lower", [("op_virt_ms.p99", "steady")]),
    "txn.self_us_per_op": (
        "us/op", "lower", [("op_virt_ms.p99", "steady"), ("op_virt_ms.p99", "faults")]
    ),
    # kernel: SyDEngine, SyDListener.handle_invoke, directory clients, SyDLinks
    "kernel.engine_calls_per_op": (
        "call/op", "lower", [("msgs_per_op", "lookup"), ("ops_per_s", "lookup")]
    ),
    "kernel.dispatches_per_op": (
        "call/op", "lower", [("msgs_per_op", "lookup"), ("ops_per_s", "lookup")]
    ),
    "kernel.dir_calls_per_op": (
        "call/op", "lower", [("msgs_per_op", "lookup"), ("ops_per_s", "lookup")]
    ),
    "kernel.dircache_hit_ratio": ("ratio", "higher", [("msgs_per_op", "lookup")]),
    "kernel.link_calls_per_op": ("call/op", "lower", [("op_wall_us.p50", "steady")]),
    "kernel.self_us_per_op": (
        "us/op", "lower", [("ops_per_s", "lookup"), ("op_wall_us.p50", "steady")]
    ),
    # net: Transport.rpc/rpc_many/rpc_hedged/send and NetworkStats deltas
    "net.rpc_calls_per_op": ("call/op", "lower", [("ops_per_s", "lookup")]),
    "net.legs_per_batch": ("leg/batch", "higher", [("op_virt_ms.p50", "steady")]),
    "net.self_us_per_msg": ("us/msg", "lower", [("ops_per_s", "lookup")]),
    "net.retries_per_op": (
        "call/op", "lower", [("op_fail_frac", "faults"), ("op_virt_ms.p99", "faults")]
    ),
    "net.retry_success_ratio": ("ratio", "higher", [("op_fail_frac", "faults")]),
    "net.dedup_replays_per_op": ("call/op", "lower", [("op_virt_ms.p99", "faults")]),
    "net.hedge_win_ratio": ("ratio", "higher", [("op_virt_ms.p99", "faults")]),
    # datastore: RelationalStore insert/get/select/update/delete/count
    "datastore.calls_per_op": (
        "call/op", "lower", [("ops_per_s", "steady"), ("op_wall_us.p50", "steady")]
    ),
    "datastore.writes_per_op": ("call/op", "lower", [("ops_per_s", "steady")]),
    "datastore.rows_returned_per_select": (
        "row/call", "lower", [("op_wall_us.p50", "steady")]
    ),
    "datastore.rows_end": ("row", "lower", [("store_kb_per_user", "steady")]),
    "datastore.self_us_per_op": (
        "us/op", "lower", [("ops_per_s", "steady"), ("op_wall_us.p50", "steady")]
    ),
    # sim: EventScheduler.run_until and fired-event deltas
    "sim.events_per_op": ("event/op", "lower", [("episode_wall_s", "faults")]),
    "sim.self_us_per_op": ("us/op", "lower", [("episode_wall_s", "faults")]),
    # obs: Tracer and MetricsRegistry public methods
    "obs.spans_per_op": ("span/op", "lower", [("ops_per_s", "faults")]),
    "obs.self_us_per_op": ("us/op", "lower", [("ops_per_s", "faults")]),
    # gc: the interpreter's collector, via gc.callbacks (untraced repetition)
    "gc.collections_per_kop": ("1/kop", "lower", [("op_wall_us.p99", "steady")]),
    "gc.pause_us_per_op": ("us/op", "lower", [("op_wall_us.p99", "steady")]),
    # virtual time per op by attribution category (program spans)
    "virt.transit_ms_per_op": (
        "ms/op", "lower", [("op_virt_ms.p50", "steady"), ("op_virt_ms.p50", "lookup")]
    ),
    "virt.handler_ms_per_op": ("ms/op", "lower", [("op_virt_ms.p50", "steady")]),
    "virt.backoff_ms_per_op": ("ms/op", "lower", [("op_virt_ms.p99", "faults")]),
    "virt.lock_wait_ms_per_op": ("ms/op", "lower", [("op_virt_ms.p99", "faults")]),
    "virt.stall_ms_per_op": ("ms/op", "lower", [("op_virt_ms.p99", "faults")]),
    "virt.queue_ms_per_op": ("ms/op", "lower", [("op_virt_ms.p99", "faults")]),
    "virt.other_ms_per_op": ("ms/op", "lower", [("op_virt_ms.p99", "faults")]),
    # the benchmark itself: driver time between wrapped calls, and the
    # wall cost of tracing (traced / untraced measured phase)
    "bench.self_us_per_op": ("us/op", "lower", [("ops_per_s", w) for w in ALL]),
    "bench.trace_overhead_x": ("x", "lower", [("ops_per_s", w) for w in ALL]),
}


#: printed by the traced run but left out of its JSON line: zero on every
#: workload by construction. The simulator's lock manager refuses instead
#: of blocking, admission sheds instead of queueing, handlers take no
#: virtual time, attribution leaves nothing uncategorised, and hedged
#: reads need a sharded directory with health on, which no workload has.
PRINT_ONLY = (
    "virt.handler_ms_per_op",
    "virt.lock_wait_ms_per_op",
    "virt.queue_ms_per_op",
    "virt.other_ms_per_op",
    "net.hedge_win_ratio",
)


def check_names(names) -> None:
    """Raise unless every name is a valid, unique metric name."""
    seen = set()
    for name in names:
        if not NAME.fullmatch(name) or name in seen:
            raise ValueError(f"bad or repeated metric name {name!r}")
        seen.add(name)

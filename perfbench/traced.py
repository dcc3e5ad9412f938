"""The traced run: per-layer counts, self times and virtual-time split.

Three repetitions of the same input:

1. plain — the measured configuration, with ``gc.callbacks`` counting
   collections and pause time during the ops;
2. wrapped — timing wrappers on every layer's public functions
   (``layers.py``); its outcome must equal the plain repetition's;
3. spans — only when the workload runs with program tracing off: the
   same input with tracing on, so ``repro.obs.critical.attribute`` can
   split each op's virtual time by category. Tracing adds header bytes,
   so this repetition's virtual times are close to, not equal to, the
   measured ones. Workloads that trace anyway split the plain run.
"""

from __future__ import annotations

import statistics
from collections import Counter

import layers
import metrics_spec
import workloads

VIRT = {
    "net.transit": "virt.transit_ms_per_op",
    "handler": "virt.handler_ms_per_op",
    "retry.backoff": "virt.backoff_ms_per_op",
    "lock.wait": "virt.lock_wait_ms_per_op",
    "stall": "virt.stall_ms_per_op",
    "queue": "virt.queue_ms_per_op",
    "other": "virt.other_ms_per_op",
}


def world_counts(world) -> Counter:
    """Monotonic program counters read through public attributes."""
    stats = world.stats
    counts = Counter(
        msgs=stats.messages,
        batches=stats.concurrent_batches,
        legs=stats.batched_legs,
        retries=stats.retries,
        retry_ok=stats.retry_successes,
        hedges=stats.hedges,
        hedge_wins=stats.hedge_wins,
        fired=world.scheduler.fired,
        spans=len(world.tracer.spans()),
        replays=world.directory_replays(),
    )
    for node in world.nodes.values():
        counts["replays"] += node.listener.replays
        cache = node.directory.cache
        if cache is not None:
            counts["dir_hits"] += cache.hits
            counts["dir_misses"] += cache.misses
    return counts


def stored_rows(world) -> int:
    """Rows held by every device and directory store."""
    stores = [node.store for node in world.nodes.values()]
    if world.directory_topology is not None:
        stores += [shard.service.store for shard in world.directory_topology.shard_list()]
    else:
        stores.append(world.directory_service.store)
    return sum(store.count(table) for store in stores for table in store.table_names())


class LayerProbe(workloads.Probe):
    """Turns the wrappers on for each measured phase; sums world deltas."""

    def __init__(self, profile: layers.Profile):
        self.profile = profile
        self.counts: Counter = Counter()
        self.rows_end: list[int] = []
        self._world = None
        self._before: Counter = Counter()

    def begin(self, world, app) -> None:
        self._world = world
        self._before = world_counts(world)
        self.profile.start()

    def end(self) -> None:
        self.profile.stop()
        self.counts.update(world_counts(self._world) - self._before)
        self.rows_end.append(stored_rows(self._world))


class GcProbe(workloads.Probe):
    def __init__(self, meter: layers.GcMeter):
        self.meter = meter

    def begin(self, world, app) -> None:
        self.meter.active = True

    def end(self) -> None:
        self.meter.active = False


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(profile, probe, meter, plain, wrapped, spans) -> dict[str, float]:
    ops = wrapped.attempted
    calls, self_s, counts = profile.calls, profile.self_s, probe.counts
    values = {
        "calendar.calls_per_op": calls["calendar"] / ops,
        "txn.negotiations_per_op": calls["negotiation"] / ops,
        "txn.commit_ratio": _ratio(profile.committed, calls["negotiation"]),
        "txn.lock_calls_per_op": calls["lock"] / ops,
        "kernel.engine_calls_per_op": calls["engine"] / ops,
        "kernel.dispatches_per_op": calls["dispatch"] / ops,
        "kernel.dir_calls_per_op": calls["dir"] / ops,
        "kernel.dircache_hit_ratio": _ratio(
            counts["dir_hits"], counts["dir_hits"] + counts["dir_misses"]
        ),
        "kernel.link_calls_per_op": calls["link"] / ops,
        "net.rpc_calls_per_op": calls["net"] / ops,
        "net.legs_per_batch": _ratio(counts["legs"], counts["batches"]),
        "net.self_us_per_msg": _ratio(self_s["net"] * 1e6, counts["msgs"]),
        "net.retries_per_op": counts["retries"] / ops,
        "net.retry_success_ratio": _ratio(counts["retry_ok"], counts["retries"]),
        "net.dedup_replays_per_op": counts["replays"] / ops,
        "net.hedge_win_ratio": _ratio(counts["hedge_wins"], counts["hedges"]),
        "datastore.calls_per_op": calls["datastore"] / ops,
        "datastore.writes_per_op": calls["write"] / ops,
        "datastore.rows_returned_per_select": _ratio(profile.select_rows, calls["select"]),
        "datastore.rows_end": statistics.fmean(probe.rows_end),
        "sim.events_per_op": counts["fired"] / ops,
        "obs.spans_per_op": counts["spans"] / ops,
        "gc.collections_per_kop": meter.collections * 1000 / plain.attempted,
        "gc.pause_us_per_op": meter.pause_s * statistics.fmean(plain.host) * 1e6
        / plain.attempted,
        "bench.trace_overhead_x": wrapped.measured_s / plain.measured_s,
    }
    # self times are raw wall; scale them like the end-to-end wall times
    host = statistics.fmean(wrapped.host)
    for layer in layers.LAYERS:
        values[f"{layer}.self_us_per_op"] = self_s[layer] * host * 1e6 / ops
    values["net.self_us_per_msg"] *= host
    for category, name in VIRT.items():
        values[name] = _ratio(spans.virt_split.get(category, 0.0) * 1e3, spans.virt_ops)
    return values


def problems_of(profile, spans) -> list[str]:
    """Accounting checks of the traced run itself."""
    problems = []
    nested = sum(s for layer, s in profile.self_s.items() if layer != "bench")
    if abs(nested - profile.top_s) > 1e-6 * max(1.0, profile.top_s):
        problems.append(f"layer self times {nested} != wrapped wall {profile.top_s}")
    if spans.virt_ops != spans.attempted:
        problems.append(f"{spans.virt_ops} op root spans for {spans.attempted} ops")
    attributed, elapsed = sum(spans.virt_split.values()), sum(spans.op_virt)
    if abs(attributed - elapsed) > 1e-6 * max(1.0, elapsed):
        problems.append(f"attributed virtual time {attributed} != op time {elapsed}")
    return problems


def run(name: str, episodes) -> tuple[list, dict[str, float], dict[str, str], list[str]]:
    cfg = workloads.CONFIGS[name]
    host = workloads.HostSpeed()
    meter = layers.GcMeter()
    with meter:
        plain = workloads.run_rep(
            name, episodes, host, probe=GcProbe(meter), attribute_virt=cfg.tracing
        )
    profile = layers.Profile()
    probe = LayerProbe(profile)
    installed = layers.install(profile)
    try:
        wrapped = workloads.run_rep(name, episodes, host, probe=probe)
    finally:
        layers.uninstall(installed)
    profile.finish()
    spans = (
        plain if cfg.tracing else workloads.run_rep(name, episodes, host, attribute_virt=True)
    )
    values = per_layer(profile, probe, meter, plain, wrapped, spans)
    units = {m: spec[0] for m, spec in metrics_spec.PER_LAYER.items()}
    return [plain, wrapped], values, units, problems_of(profile, spans)

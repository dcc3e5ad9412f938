"""Closed-loop runs: build worlds from generated inputs, apply the ops
one at a time (``drivers.py``), inject the generated faults, check every
output and time it all.

One driver thread issues the next op only when the previous one has
returned — the way callers use this synchronous simulator. Concurrency
inside the simulated world comes from its virtual-time event scheduler
(fault events, lease sweeps, redeliveries fire during think-time gaps
and retry backoffs), not from threads.

Each op is timed twice: wall seconds around the call, and virtual
seconds (the world clock) — the latency the simulated user sees.
"""

from __future__ import annotations

import gc
import random
import statistics
import time
from collections import deque
from dataclasses import dataclass, field
from repro.calendar.app import SyDCalendarApp
from repro.calendar.model import slot_entity
from repro.chaos.invariants import run_invariant_checks
from repro.datastore.snapshot import export_store
from repro.datastore.wal import ChangeJournal, attach_journal
from repro.net.retry import RetryPolicy
from repro.obs.critical import CATEGORIES, attribute
from repro.util.errors import ReproError
from repro.world import SyDWorld

import gen
from drivers import CalendarDriver, FaultInjector, LookupDriver, WrongOutput

#: the retry policy chaos campaigns install (inert without faults)
RETRY = RetryPolicy(max_attempts=4, base_delay=0.2, max_delay=2.0, jitter=0.5)

#: name of the root span each op runs under when program tracing is on
OP_SPAN = "chaos.step"

perf = time.perf_counter


class HostSpeed:
    """How fast the shared host runs plain Python right now.

    A fixed calibration loop — benchmark code, never the program's —
    runs between ops at most every ``EVERY`` wall seconds. It does what
    the program does most: small-dict updates, random reads from a table
    larger than the CPU caches, and small allocations. ``factor`` is
    ``REFERENCE`` over the median of the loop's last ``WINDOW`` timings.
    A wall time multiplied by the factor reads as seconds on a host where
    the loop takes ``REFERENCE`` seconds: a slow stretch of a busy host
    then moves it far less than the raw time, while a change to the
    program moves it fully.
    """

    REFERENCE = 0.003
    EVERY = 0.1
    WINDOW = 5
    TABLE = 200_000

    def __init__(self) -> None:
        # ints only: the table adds no objects for the collector to scan
        self._table = {i: 3 * i for i in range(self.TABLE)}
        self._keys = list(self._table)
        random.Random(0).shuffle(self._keys)
        self._times: deque[float] = deque(maxlen=self.WINDOW)
        self._last = float("-inf")
        self.factor = 1.0
        for _ in range(self.WINDOW):
            self.tick(force=True)

    def _loop(self) -> int:
        counts: dict = {}
        for i in range(1250):
            key = ("k", i % 97)
            row = counts.get(key)
            if row is None:
                row = counts[key] = {"n": 0, "items": []}
            row["n"] += i
            row["items"].append(i)
        table, keys, n = self._table, self._keys, len(self._keys)
        total, rows = 0, []
        for i in range(1500):
            total += table[keys[(i * 7919) % n]]
            rows.append({"id": i, "slot": (i, total), "who": [i, i]})
        return total + len(counts)

    def tick(self, force: bool = False) -> float:
        """Re-measure if due (or forced); returns the current factor."""
        if force or perf() - self._last >= self.EVERY:
            t0 = perf()
            self._loop()
            self._last = perf()
            self._times.append(self._last - t0)
            self.factor = self.REFERENCE / statistics.median(self._times)
        return self.factor


@dataclass
class Tally:
    """Everything one repetition of a workload measured.

    Per-op lists run over every op of every episode, in input order, so
    repetitions of the same input line up index by index. Wall times
    are raw; ``host`` holds the :class:`HostSpeed` factor in force for
    each op.
    """

    #: wall seconds of each op call
    op_wall: list[float] = field(default_factory=list)
    #: wall seconds of the think-time gap (scheduled events) before each op
    gap_wall: list[float] = field(default_factory=list)
    host: list[float] = field(default_factory=list)
    #: virtual seconds of each op: the latency its simulated user saw
    op_virt: list[float] = field(default_factory=list)
    attempted: int = 0
    #: ops that raised ReproError
    errors: int = 0
    #: outputs that disagreed with the program's own state
    wrong: list[str] = field(default_factory=list)
    violations: list[str] = field(default_factory=list)
    msgs: int = 0
    bytes: int = 0
    #: per episode: host-scaled seconds of world build, joins and
    #: pre-population, one entry per build
    setup_s: list[list[float]] = field(default_factory=list)
    #: per episode: host-scaled seconds from world build to invariant check
    episode_s: list[float] = field(default_factory=list)
    #: per episode: mean store bytes per user at episode end
    store_bytes: list[float] = field(default_factory=list)
    #: virtual seconds by attribution category, summed over op roots
    virt_split: dict[str, float] = field(default_factory=dict)
    virt_ops: int = 0

    def scaled(self, walls: list[float]) -> list[float]:
        """Per-op wall times scaled by the host speed at each op."""
        return [w * f for w, f in zip(walls, self.host)]

    @property
    def measured_s(self) -> float:
        """Host-scaled seconds of the measured phases: ops and gaps."""
        return sum(self.scaled(self.op_wall)) + sum(self.scaled(self.gap_wall))

    @property
    def raw_measured_s(self) -> float:
        return sum(self.op_wall) + sum(self.gap_wall)

    def fingerprint(self) -> tuple:
        """Every virtual-time and count outcome; equal across same-seed runs."""
        return (
            tuple(self.op_virt),
            self.attempted,
            self.errors,
            tuple(self.wrong),
            tuple(self.violations),
            self.msgs,
            self.bytes,
            tuple(self.store_bytes),
        )


class Probe:
    """Hooks around the measured phase of each episode (no-op here)."""

    def begin(self, world: SyDWorld, app: SyDCalendarApp) -> None:
        pass

    def end(self) -> None:
        pass


# -- worlds -----------------------------------------------------------------------


def _lease_sweep(world: SyDWorld, app: SyDCalendarApp, user: str):
    def sweep() -> None:
        if not world.is_up(user) or app.node(user).coordinator.busy:
            return
        try:
            app.service(user).terminate_stale_marks()
        except ReproError:
            pass  # the next period retries

    return sweep


@dataclass(frozen=True)
class Config:
    """How a workload builds its worlds (all public constructor options)."""

    days: int
    tracing: bool
    directory_shards: int = 1
    directory_replicas: int = 1
    directory_cache: bool = False
    health: bool = False
    lease_sweep: float | None = None
    journals: bool = False
    settle: float = 0.0
    #: worlds built per episode to time set-up: short set-ups are timed
    #: several times so their median is steady
    setup_builds: int = 3
    driver: type = CalendarDriver


CONFIGS = {
    "steady": Config(days=gen.STEADY["days"], tracing=False),
    "lookup": Config(
        days=gen.LOOKUP["days"],
        tracing=False,
        directory_shards=gen.LOOKUP["shards"],
        directory_replicas=gen.LOOKUP["replicas"],
        directory_cache=True,
        setup_builds=1,
        driver=LookupDriver,
    ),
    "faults": Config(
        days=gen.FAULTS["days"],
        tracing=True,
        directory_cache=True,
        health=True,
        lease_sweep=5.0,
        journals=True,
        settle=gen.FAULTS["settle"],
    ),
}


def build(episode: gen.Episode, cfg: Config, tracing: bool):
    world = SyDWorld(
        seed=episode.world_seed,
        tracing=tracing,
        directory_cache=cfg.directory_cache,
        directory_shards=cfg.directory_shards,
        directory_replicas=cfg.directory_replicas,
        health=cfg.health,
    )
    app = SyDCalendarApp(world, days=cfg.days)
    for user in episode.users:
        app.add_user(user, priority=episode.priorities[user])
    world.set_retry_policy(RETRY)
    for user, slots in episode.blocks.items():
        for day, hour in slots:
            app.service(user).block(slot_entity(day, hour))
    if cfg.lease_sweep:
        for user in episode.users:
            world.node(user).events.monitor_every(
                cfg.lease_sweep, _lease_sweep(world, app, user)
            )
    return world, app


def virt_split(world: SyDWorld) -> tuple[dict[str, float], int]:
    """Virtual seconds per attribution category summed over op roots."""
    by_trace: dict[str, list] = {}
    for span in world.tracer.spans():
        by_trace.setdefault(span.trace_id, []).append(span)
    totals = {cat: 0.0 for cat in CATEGORIES}
    roots = 0
    for spans in by_trace.values():
        root = spans[0]
        if root.name != OP_SPAN or root.parent_id is not None or root.end is None:
            continue
        roots += 1
        for cat, secs in attribute(spans, root).categories.items():
            totals[cat] += secs
    return totals, roots


def run_episode(
    episode: gen.Episode,
    cfg: Config,
    tally: Tally,
    probe: Probe,
    tracing: bool,
    host: HostSpeed,
    attribute_virt: bool = False,
) -> None:
    """World build, ops, heal, settle, reconcile and invariant check.

    The world is built ``cfg.setup_builds`` times, each build timed; the
    last world is the one measured.
    """
    builds = []
    for _ in range(cfg.setup_builds):
        world = app = None
        gc.collect()
        factor = host.tick(force=True)
        t0 = perf()
        world, app = build(episode, cfg, tracing)
        builds.append((perf() - t0) * factor)
    t0 = perf()
    baselines = journals = None
    if cfg.journals:
        baselines = {u: export_store(world.node(u).store) for u in episode.users}
        journals = {}
        for user in episode.users:
            journals[user] = ChangeJournal(metrics=world.metrics, metrics_node=user)
            attach_journal(world.node(user).store, journals[user])
    injector = FaultInjector(app, episode.faults) if episode.faults else None
    if injector is not None:
        injector.arm()
    driver = cfg.driver(app)
    rest = (perf() - t0) * factor
    tally.setup_s.append([b + rest for b in builds])

    # Same heap state before every measured phase.
    gc.collect()
    stats0 = world.stats.snapshot()
    tracer = world.tracer if tracing else None
    probe.begin(world, app)
    phase = 0.0
    for index, (op, gap) in enumerate(zip(episode.ops, episode.gaps)):
        factor = host.tick()
        t0 = perf()
        world.run_for(gap)
        user = driver.origin(op.user)
        v0 = world.now
        t1 = perf()
        check = None
        try:
            if tracer is None:
                check = driver.apply(op, user)
            else:
                with tracer.span(OP_SPAN, user, op=index, action=op.kind):
                    check = driver.apply(op, user)
        except ReproError:
            tally.errors += 1
        t2 = perf()
        tally.gap_wall.append(t1 - t0)
        tally.op_wall.append(t2 - t1)
        tally.host.append(factor)
        tally.op_virt.append(world.now - v0)
        tally.attempted += 1
        phase += (t2 - t0) * factor
        # Checks run untimed: they are the benchmark's work, not the op's.
        if check is not None:
            try:
                check()
            except WrongOutput as exc:
                tally.wrong.append(str(exc))
            except ReproError as exc:
                tally.wrong.append(f"{op.kind}: check raised {type(exc).__name__}")
    probe.end()

    factor = host.factor
    t3 = perf()
    if injector is not None:
        injector.heal_all()
    if cfg.settle:
        world.run_for(cfg.settle)
    stats = world.stats.snapshot().delta(stats0)
    violations = run_invariant_checks(app, world, baselines, journals)
    tail = perf() - t3
    factor = (factor + host.tick(force=True)) / 2
    tally.episode_s.append(builds[-1] + rest + phase + tail * factor)
    tally.msgs += stats.messages
    tally.bytes += stats.bytes
    tally.violations += [str(v) for v in violations]
    sizes = app.total_storage_bytes()
    tally.store_bytes.append(sum(sizes.values()) / len(sizes))
    if attribute_virt:
        split, roots = virt_split(world)
        for cat, secs in split.items():
            tally.virt_split[cat] = tally.virt_split.get(cat, 0.0) + secs
        tally.virt_ops += roots


def run_rep(
    name: str,
    episodes: tuple[gen.Episode, ...],
    host: HostSpeed,
    probe: Probe | None = None,
    attribute_virt: bool = False,
) -> Tally:
    """One repetition: every episode of the workload's input, in order.

    ``attribute_virt`` splits each op's virtual time by category from
    program spans, turning program tracing on if the workload runs
    with it off.
    """
    cfg = CONFIGS[name]
    tally = Tally()
    for episode in episodes:
        run_episode(
            episode,
            cfg,
            tally,
            probe or Probe(),
            cfg.tracing or attribute_virt,
            host,
            attribute_virt,
        )
    return tally

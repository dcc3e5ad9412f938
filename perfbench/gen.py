"""Seeded input generation for every benchmark workload.

One function per workload turns ``--seed`` into the complete input of a
run: the op stream, the think-time gaps between ops, set-up data, and
(for ``faults``) the fault-event list of every episode. The program
under test receives nothing else. Nothing here imports the program, so
a later change to its own workload or schedule generators cannot change
what the benchmark feeds it.

Ops that act on program state (cancel *one of my meetings*, unblock *a
slot I blocked*) carry a draw ``p`` in ``[0, 1)``; the driver resolves
it against the state it finds, always the same way, so a fixed seed
still fixes the whole run.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any


@dataclass(frozen=True)
class Op:
    """One user action: ``kind`` issued by ``user`` with ``args``."""

    kind: str
    user: str
    args: tuple = ()


@dataclass(frozen=True)
class Fault:
    """One fault action at absolute virtual time ``at`` (seconds)."""

    at: float
    kind: str
    params: dict[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class Episode:
    """Everything one episode needs: a world seed, users, ops, faults."""

    world_seed: int
    users: tuple[str, ...]
    priorities: dict[str, int]
    ops: tuple[Op, ...]
    #: virtual seconds the closed-loop user thinks before each op
    gaps: tuple[float, ...]
    faults: tuple[Fault, ...] = ()
    #: per-user (day, hour) slots blocked during set-up
    blocks: dict[str, tuple[tuple[int, int], ...]] = field(default_factory=dict)


# -- workload sizes -----------------------------------------------------------

#: fault-free write-heavy calendar traffic on the single-node directory
STEADY = {"users": 24, "days": 10, "ops": 1000, "gap": (0.2, 1.0)}

#: read-only traffic over a large population on a sharded directory
LOOKUP = {
    "users": 150,
    "days": 5,
    "shards": 4,
    "replicas": 2,
    "ops": 6000,
    "blocked_per_user": 10,
    #: the first ``clients`` users issue every read, so each client's
    #: directory cache sees repeat lookups
    "clients": 20,
    #: share of reads aimed at the ``hot`` most popular users
    "hot": 40,
    "hot_share": 0.7,
    "gap": (0.05, 0.3),
}

#: chaos episodes: fresh 6-user world each, faults at intensity 1
FAULTS = {
    "users": 6,
    "days": 5,
    "episodes": 25,
    "ops": 40,
    "duration": 120.0,
    "windows": 6,
    "settle": 30.0,
}

DAY_START, DAY_END = 9, 17

#: op kind -> weight. Steady keeps cancels close to schedules so the
#: calendars never fill up and no schedule runs out of slots.
STEADY_MIX = (
    ("schedule", 5),
    ("cancel", 4),
    ("confirm", 1),
    ("move", 1),
    ("block", 2),
    ("unblock", 2),
    ("drop_out", 1),
    ("group", 1),
    ("poll", 1),
)

#: the chaos diet developers run: schedule-heavy, light on cancels
FAULTS_MIX = (
    ("schedule", 5),
    ("cancel", 2),
    ("block", 2),
    ("unblock", 1),
    ("move", 1),
    ("confirm", 1),
    ("drop_out", 1),
    ("group", 1),
    ("poll", 1),
)

LOOKUP_MIX = (
    ("get_slot", 6),
    ("free_slots", 3),
    ("dir_lookup", 3),
)

#: one form_group (directory write, cache-epoch churn) every this many ops
LOOKUP_GROUP_EVERY = 1000

#: fault kind -> weight (every kind is a start/stop window)
FAULT_MIX = (
    ("crash", 3),
    ("partition", 2),
    ("drop", 2),
    ("reply_drop", 2),
    ("dup", 2),
    ("slow", 2),
    ("stall", 1),
    ("coord_crash", 2),
)

COORD_CRASH_PHASES = ("after-mark", "after-decide", "after-partial-change")


def user_names(n: int) -> tuple[str, ...]:
    width = len(str(n - 1))
    return tuple(f"u{i:0{width}d}" for i in range(n))


def deck(rng: random.Random, mix, n: int) -> list:
    """``n`` kinds in the exact proportions of ``mix``, shuffled.

    Exact counts instead of independent draws: seeds then differ in
    order and targets, not in how much of each kind of work a run does.
    """
    total = sum(w for _, w in mix)
    counts = [n * w // total for _, w in mix]
    # hand the rounding remainder to the heaviest kinds first
    order = sorted(range(len(mix)), key=lambda i: (-mix[i][1], i))
    for i in order[: n - sum(counts)]:
        counts[i] += 1
    cards = [kind for (kind, _), count in zip(mix, counts) for _ in range(count)]
    rng.shuffle(cards)
    return cards


def _calendar_op(rng: random.Random, users, kind: str, days: int, index: int) -> Op:
    user = rng.choice(users)
    others = [u for u in users if u != user]
    if kind == "schedule":
        k = rng.randint(1, min(3, len(others)))
        return Op(kind, user, (f"m{index}", tuple(sorted(rng.sample(others, k)))))
    if kind == "group":
        k = rng.randint(2, min(4, len(users)))
        members = tuple(sorted(rng.sample(list(users), k)))
        return Op(kind, user, (f"g{index}", members, f"gm{index}"))
    if kind == "poll":
        return Op(
            kind,
            user,
            (rng.choice(others), rng.randrange(days), rng.randrange(DAY_START, DAY_END)),
        )
    # state-resolved ops: cancel / confirm / move / block / unblock / drop_out
    return Op(kind, user, (rng.random(),))


#: user rank -> weight (paper §6: meetings inherit their attendees' rank)
PRIORITY_MIX = ((0, 3), (1, 1), (2, 1), (5, 1))


def _priorities(rng: random.Random, users) -> dict[str, int]:
    return dict(zip(users, deck(rng, PRIORITY_MIX, len(users))))


def steady_inputs(seed: int) -> tuple[Episode, ...]:
    rng = random.Random(f"steady:{seed}")
    users = user_names(STEADY["users"])
    kinds = deck(rng, STEADY_MIX, STEADY["ops"])
    ops = tuple(
        _calendar_op(rng, users, kind, STEADY["days"], i)
        for i, kind in enumerate(kinds)
    )
    lo, hi = STEADY["gap"]
    gaps = tuple(round(rng.uniform(lo, hi), 3) for _ in ops)
    return (Episode(seed, users, _priorities(rng, users), ops, gaps),)


def lookup_inputs(seed: int) -> tuple[Episode, ...]:
    rng = random.Random(f"lookup:{seed}")
    cfg = LOOKUP
    users = user_names(cfg["users"])
    slots = [(d, h) for d in range(cfg["days"]) for h in range(DAY_START, DAY_END)]
    blocks = {u: tuple(sorted(rng.sample(slots, cfg["blocked_per_user"]))) for u in users}
    hot = users[: cfg["hot"]]
    kinds = iter(deck(rng, LOOKUP_MIX, cfg["ops"] - cfg["ops"] // LOOKUP_GROUP_EVERY))
    ops: list[Op] = []
    clients = users[: cfg["clients"]]
    for i in range(cfg["ops"]):
        user = rng.choice(clients)
        if i % LOOKUP_GROUP_EVERY == LOOKUP_GROUP_EVERY - 1:
            members = tuple(sorted(rng.sample(list(users), rng.randint(2, 5))))
            ops.append(Op("form_group", user, (f"lg{i}", members)))
            continue
        kind = next(kinds)
        pool = hot if rng.random() < cfg["hot_share"] else users
        target = rng.choice(pool)
        if kind == "get_slot":
            day, hour = rng.choice(slots)
            ops.append(Op(kind, user, (target, day, hour)))
        elif kind == "free_slots":
            day_from = rng.randrange(cfg["days"])
            day_to = rng.randrange(day_from, cfg["days"])
            ops.append(Op(kind, user, (target, day_from, day_to)))
        else:
            ops.append(Op(kind, user, (target,)))
    lo, hi = cfg["gap"]
    gaps = tuple(round(rng.uniform(lo, hi), 3) for _ in ops)
    return (Episode(seed, users, {u: 0 for u in users}, tuple(ops), gaps, blocks=blocks),)


def _fault_windows(rng: random.Random, users, duration: float, kinds) -> tuple[Fault, ...]:
    events: list[Fault] = []
    for i, kind in enumerate(kinds):
        start = rng.uniform(0.05, 0.72) * duration
        end = min(start + rng.uniform(0.04, 0.18) * duration, 0.92 * duration)
        start, end = round(start, 2), round(end, 2)
        if kind == "crash":
            user = rng.choice(users)
            events += [Fault(start, "crash", {"user": user}), Fault(end, "restart", {"user": user})]
        elif kind == "coord_crash":
            user = rng.choice(users)
            phase = rng.choice(COORD_CRASH_PHASES)
            events += [
                Fault(start, "coord_crash", {"user": user, "phase": phase}),
                Fault(end, "coord_restart", {"user": user}),
            ]
        elif kind == "partition":
            shuffled = rng.sample(list(users), len(users))
            cut = rng.randint(1, len(users) - 1)
            groups = [sorted(shuffled[:cut]), sorted(shuffled[cut:])]
            events += [Fault(start, "partition", {"groups": groups}), Fault(end, "heal")]
        elif kind in ("drop", "reply_drop", "dup"):
            lo, hi = (0.2, 0.5) if kind == "dup" else (0.15, 0.45)
            p = round(rng.uniform(lo, hi), 3)
            wid = f"{kind}{i}"
            events += [
                Fault(start, f"{kind}_start", {"p": p, "id": wid, "seed": rng.getrandbits(32)}),
                Fault(end, f"{kind}_stop", {"id": wid}),
            ]
        elif kind == "slow":
            user = rng.choice(users)
            params = {
                "user": user,
                "scale": round(rng.uniform(0.2, 0.6), 3),
                "shape": round(rng.uniform(1.3, 1.8), 2),
                "seed": rng.getrandbits(32),
            }
            events += [Fault(start, "slow_start", params), Fault(end, "slow_stop", {"user": user})]
        else:  # stall
            user = rng.choice(users)
            delay = round(rng.uniform(30.0, 60.0), 1)
            events += [
                Fault(start, "stall_start", {"user": user, "delay": delay}),
                Fault(end, "stall_stop", {"user": user}),
            ]
    events.sort(key=lambda e: e.at)
    return tuple(events)


def faults_inputs(seed: int) -> tuple[Episode, ...]:
    rng = random.Random(f"faults:{seed}")
    cfg = FAULTS
    users = user_names(cfg["users"])
    mean_gap = cfg["duration"] / cfg["ops"]
    n, w = cfg["ops"], cfg["windows"]
    op_kinds = deck(rng, FAULTS_MIX, cfg["episodes"] * n)
    fault_kinds = deck(rng, FAULT_MIX, cfg["episodes"] * w)
    episodes = []
    for e in range(cfg["episodes"]):
        ops = tuple(
            _calendar_op(rng, users, kind, cfg["days"], i)
            for i, kind in enumerate(op_kinds[e * n : (e + 1) * n])
        )
        gaps = tuple(round(rng.uniform(0.2, 1.8) * mean_gap, 3) for _ in ops)
        faults = _fault_windows(rng, users, cfg["duration"], fault_kinds[e * w : (e + 1) * w])
        episodes.append(
            Episode(
                world_seed=seed * 1000 + e,
                users=users,
                priorities=_priorities(rng, users),
                ops=ops,
                gaps=gaps,
                faults=faults,
            )
        )
    return tuple(episodes)


#: workload name -> seed -> the episodes of one repetition
INPUTS = {"steady": steady_inputs, "lookup": lookup_inputs, "faults": faults_inputs}

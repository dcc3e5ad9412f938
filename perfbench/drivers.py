"""What the simulated users and network do: op drivers and fault injection.

Drivers resolve each generated op against the state they find and
apply it through the public calendar and kernel API; each returns a
check that compares the op's output with the program's own state. The
fault injector applies generated faults through public ``SyDWorld`` and
``FaultPlan`` methods, scheduled on the world's event scheduler.
"""

from __future__ import annotations

import random
from typing import Callable

from repro.calendar.app import SyDCalendarApp
from repro.calendar.model import MeetingStatus, SlotStatus, slot_entity
from repro.util.errors import ReproError

import gen

LIVE = (MeetingStatus.CONFIRMED, MeetingStatus.TENTATIVE)


class WrongOutput(Exception):
    """An op returned, but its result disagrees with the program's state."""


# -- op application -------------------------------------------------------------


class CalendarDriver:
    """Resolves and applies calendar ops against one app; checks results."""

    def __init__(self, app: SyDCalendarApp):
        self.app = app
        self.world = app.world
        self._blocks: dict[str, list[dict[str, int]]] = {u: [] for u in app.users}

    def origin(self, user: str) -> str:
        """A powered-off device originates nothing: its op moves to the
        next user (in name order) whose device is up."""
        if self.world.is_up(user):
            return user
        users = sorted(self.app.users)
        start = users.index(user)
        for step in range(1, len(users)):
            other = users[(start + step) % len(users)]
            if self.world.is_up(other):
                return other
        return user

    @staticmethod
    def _choose(items: list, p: float):
        return items[int(p * len(items))] if items else None

    def _own_live(self, user: str, status: MeetingStatus | None = None) -> list:
        found = [
            m
            for m in self.app.calendar(user).meetings()
            if m.initiator == user and m.status in LIVE
        ]
        if status is not None:
            found = [m for m in found if m.status is status]
        return sorted(found, key=lambda m: m.meeting_id)

    def apply(self, op: gen.Op, user: str) -> Callable[[], None] | None:
        """Run ``op`` as ``user``; returns a check to run untimed, or None."""
        kind, args, app = op.kind, op.args, self.app
        if kind == "schedule":
            title, others = args
            others = [u for u in others if u != user] or [op.user]
            meeting = app.manager(user).schedule_meeting(title, others)
            return lambda: self._check_scheduled(user, meeting)
        if kind == "group":
            gid, members, title = args
            app.node(user).directory.form_group(gid, user, list(members))
            meeting = app.manager(user).schedule_group_meeting(gid, title)
            return lambda: self._check_scheduled(user, meeting)
        if kind == "poll":
            target, day, hour = args
            if target == user:
                target = op.user
            entity = slot_entity(day, hour)
            row = app.node(user).engine.execute(target, "calendar", "get_slot", entity)
            return lambda: _expect(
                row == app.calendar(target).slot_of(entity), f"poll {target} {entity}"
            )
        (p,) = args
        if kind == "cancel":
            meeting = self._choose(self._own_live(user), p)
            if meeting is None:
                return None
            result = app.manager(user).cancel_meeting(meeting.meeting_id)
            return lambda: _expect(
                result.status is MeetingStatus.CANCELLED,
                f"cancel {meeting.meeting_id} left it {result.status.value}",
            )
        if kind == "confirm":
            meeting = self._choose(self._own_live(user, MeetingStatus.TENTATIVE), p)
            if meeting is not None:
                app.manager(user).confirm_tentative(meeting.meeting_id)
            return None
        if kind == "move":
            meeting = self._choose(self._own_live(user, MeetingStatus.CONFIRMED), p)
            if meeting is not None:
                app.manager(user).move_meeting(meeting.meeting_id, None)
            return None
        if kind == "drop_out":
            joined = sorted(
                (
                    m
                    for m in app.calendar(user).meetings()
                    if m.initiator != user and m.status in LIVE and user in m.committed
                ),
                key=lambda m: m.meeting_id,
            )
            meeting = self._choose(joined, p)
            if meeting is not None:
                app.manager(user).drop_out(meeting.meeting_id)
            return None
        if kind == "block":
            row = self._choose(app.calendar(user).free_slots(0, app.days - 1), p)
            if row is None:
                return None
            entity = slot_entity(row["day"], row["hour"])
            app.service(user).block(entity)
            self._blocks[user].append(entity)
            return lambda: _expect(
                app.calendar(user).slot_of(entity)["status"] == SlotStatus.BUSY.value,
                f"block {user} {entity}",
            )
        if kind == "unblock":
            blocked = self._blocks[user]
            if not blocked:
                return None
            entity = blocked.pop(int(p * len(blocked)))
            app.service(user).unblock(entity)
            # A freed slot may be captured at once by a waiting tentative
            # meeting, so the check is only that the block is gone.
            return lambda: _expect(
                app.calendar(user).slot_of(entity)["status"] != SlotStatus.BUSY.value,
                f"unblock {user} {entity}",
            )
        raise ValueError(f"unknown calendar op {kind!r}")

    def _check_scheduled(self, user: str, meeting) -> None:
        copy = self.app.meeting_view(user, meeting.meeting_id)
        _expect(
            meeting.status in LIVE and copy is not None and copy.status is meeting.status,
            f"schedule {meeting.meeting_id} {meeting.status.value}",
        )


def _expect(ok: bool, what: str) -> None:
    if not ok:
        raise WrongOutput(what)


class LookupDriver:
    """Read-only ops: remote slot reads, free-slot queries, directory
    lookups, and the occasional group formation (directory epoch churn)."""

    def __init__(self, app: SyDCalendarApp):
        self.app = app
        self.world = app.world

    def origin(self, user: str) -> str:
        return user

    def apply(self, op: gen.Op, user: str) -> Callable[[], None]:
        kind, args, app = op.kind, op.args, self.app
        node = app.node(user)
        if kind == "get_slot":
            target, day, hour = args
            entity = slot_entity(day, hour)
            row = node.engine.execute(target, "calendar", "get_slot", entity)
            return lambda: _expect(
                row == app.calendar(target).slot_of(entity), f"get_slot {target} {entity}"
            )
        if kind == "free_slots":
            target, day_from, day_to = args
            got = node.engine.execute(target, "calendar", "query_free_slots", day_from, day_to)
            return lambda: _expect(
                got
                == [
                    slot_entity(r["day"], r["hour"])
                    for r in app.calendar(target).free_slots(day_from, day_to)
                ],
                f"free_slots {target} {day_from}-{day_to}",
            )
        if kind == "dir_lookup":
            (target,) = args
            record = node.directory.lookup_user(target)
            service = node.directory.lookup_service(target, "calendar")
            return lambda: _expect(
                record == self.world.directory_service.lookup_user(target)
                and record["node_id"] == app.node(target).node_id
                and service["object_name"] == app.service(target).name,
                f"dir_lookup {target}",
            )
        if kind == "form_group":
            gid, members = args
            node.directory.form_group(gid, user, list(members))
            return lambda: _expect(
                self.world.directory_service.group_members(gid) == list(members),
                f"form_group {gid}",
            )
        raise ValueError(f"unknown lookup op {kind!r}")


# -- fault injection -------------------------------------------------------------


class FaultInjector:
    """Schedules generated faults on the world's event scheduler and
    applies them through public ``SyDWorld`` / ``FaultPlan`` methods."""

    def __init__(self, app: SyDCalendarApp, faults: tuple[gen.Fault, ...]):
        self.app = app
        self.world = app.world
        self.plan = app.world.transport.faults
        self.faults = faults
        self._handles: list = []
        self._removers: dict[str, Callable[[], None]] = {}
        self._dup: dict[str, tuple[float, random.Random]] = {}
        self._duplicated: set[str] = set()
        self._partitioned: set[str] = set()
        self._node_user = {app.node(u).node_id: u for u in app.users}
        #: users that saw a crash, partition, stall or lost reply
        self.disturbed: set[str] = set()

    def arm(self) -> None:
        for fault in self.faults:
            self._handles.append(self.world.scheduler.schedule_at(fault.at, self._fire, fault))
        self.world.transport.taps.append(self._dup_tap)
        self.world.transport.reply_loss_taps.append(self._reply_lost)

    def _fire(self, fault: gen.Fault) -> None:
        getattr(self, f"_{fault.kind}")(fault.params)

    def _node(self, user: str) -> str:
        return self.app.node(user).node_id

    def _reply_lost(self, reply) -> None:
        for node_id in (reply.src, reply.dst):
            if node_id in self._node_user:
                self.disturbed.add(self._node_user[node_id])

    def _dup_tap(self, msg) -> None:
        if not self._dup or msg.is_reply or msg.kind != "invoke" or msg.msg_id in self._duplicated:
            return
        p, rng = max(self._dup.values(), key=lambda v: v[0])
        if rng.random() < p:
            self._duplicated.add(msg.msg_id)
            self._handles.append(
                self.world.scheduler.schedule(
                    rng.uniform(0.1, 4.0), self.world.transport.redeliver, msg
                )
            )

    # appliers, one per fault kind

    def _crash(self, params) -> None:
        self.world.take_down(params["user"])
        self.disturbed.add(params["user"])

    def _restart(self, params) -> None:
        if not self.world.is_up(params["user"]):
            self.world.restart(params["user"])
            self.reconcile(params["user"])

    def _coord_crash(self, params) -> None:
        user = params["user"]
        coordinator = self.app.node(user).coordinator

        def on_crash(txn_id: str, phase: str) -> None:
            self.world.take_down(user)
            self.disturbed.add(user)

        coordinator.on_crash = on_crash
        coordinator.arm_crash(params["phase"])

    def _coord_restart(self, params) -> None:
        coordinator = self.app.node(params["user"]).coordinator
        coordinator.disarm_crash()
        coordinator.on_crash = None
        self._restart(params)

    def _partition(self, params) -> None:
        groups = [[self._node(u) for u in group] for group in params["groups"]]
        self.plan.partition(*groups)
        named = {u for group in params["groups"] for u in group}
        self._partitioned |= named
        self.disturbed |= named

    def _heal(self, params) -> None:
        self.plan.heal_partition()
        for user in sorted(self._partitioned):
            if self.world.is_up(user):
                self.reconcile(user)
        self._partitioned.clear()

    def _drop_rule(self, params, replies: bool) -> None:
        p, rng = params["p"], random.Random(params["seed"])

        def rule(msg) -> bool:
            return msg.is_reply is replies and msg.kind == "invoke" and rng.random() < p

        self._removers[params["id"]] = self.plan.add_drop_rule(rule)

    def _drop_start(self, params) -> None:
        self._drop_rule(params, replies=False)

    def _reply_drop_start(self, params) -> None:
        self._drop_rule(params, replies=True)

    def _stop(self, key: str) -> None:
        remover = self._removers.pop(key, None)
        if remover is not None:
            remover()

    def _drop_stop(self, params) -> None:
        self._stop(params["id"])

    _reply_drop_stop = _drop_stop

    def _dup_start(self, params) -> None:
        self._dup[params["id"]] = (params["p"], random.Random(params["seed"]))

    def _dup_stop(self, params) -> None:
        self._dup.pop(params["id"], None)

    def _slow_start(self, params) -> None:
        key = f"slow:{params['user']}"
        if key not in self._removers:
            self._removers[key] = self.plan.slow_node(
                self._node(params["user"]),
                rng=random.Random(params["seed"]),
                scale=params["scale"],
                shape=params["shape"],
            )

    def _slow_stop(self, params) -> None:
        self._stop(f"slow:{params['user']}")

    def _stall_start(self, params) -> None:
        key = f"stall:{params['user']}"
        if key not in self._removers:
            self._removers[key] = self.plan.stall_node(
                self._node(params["user"]), delay=params["delay"]
            )
            self.disturbed.add(params["user"])

    def _stall_stop(self, params) -> None:
        self._stop(f"stall:{params['user']}")

    def reconcile(self, user: str) -> None:
        if self.app.node(user).coordinator.busy:
            return  # mid-backoff on its own negotiation; heal_all catches up
        try:
            self.app.manager(user).reconcile()
        except ReproError:
            pass  # faults still active; heal_all reconciles on a clean network

    def heal_all(self) -> None:
        """Cancel pending faults, restore the network, restart and
        reconcile every disturbed device."""
        for handle in self._handles:
            handle.cancel()
        self._handles.clear()
        for key in sorted(self._removers):
            self._removers.pop(key)()
        self.plan.heal_gray()
        self._dup.clear()
        for user in self.app.users:
            coordinator = self.app.node(user).coordinator
            coordinator.disarm_crash()
            coordinator.on_crash = None
        self.plan.heal_partition()
        for user in sorted(self.app.users):
            if not self.world.is_up(user):
                self.world.restart(user)
        for user in sorted(self.disturbed):
            self.reconcile(user)
        self._partitioned.clear()

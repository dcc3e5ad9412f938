"""Simulated synchronous transport.

This replaces the paper's TCP-socket layer. Design (see DESIGN.md §5.1):
distributed interaction is *synchronous simulated RPC* — ``rpc()``
advances the shared virtual clock by the modeled request latency, invokes
the destination's registered handler inline, advances the clock again for
the reply, and returns the handler's result. Protocol state machines are
identical to an asynchronous implementation, but execution is
deterministic and message/latency accounting is exact.

Group operations use :meth:`Transport.rpc_many` — the scatter-gather
path modeling the prototype's concurrent Java-RMI invocations: all legs
of a batch are considered in flight simultaneously, so the shared clock
advances by the *max* request+reply delay across the batch while every
leg's delay is still individually charged to :class:`NetworkStats`.
Per-leg failures come back as :class:`RpcOutcome` records instead of
aborting the whole batch.

Failure semantics (``rpc``; per leg for ``rpc_many``):

* destination down / partitioned → :class:`UnreachableError`
* a fault drop-rule matches        → :class:`MessageDropped`
* the remote handler raises        → re-raised locally as the same typed
  exception when it is a library error (via ``ERRORS_BY_NAME``), else as
  :class:`RemoteError`. This mirrors how the prototype surfaced remote
  Java exceptions to the caller.
* the *reply* leg is lost           → :class:`UnreachableError` /
  :class:`MessageDropped` at the caller **after the handler executed and
  its side effects persisted**. This is the at-least-once hazard; the
  receiver-side dedup layer (:mod:`repro.net.dedup`) makes the retry
  safe.

Exactly-once support: the transport stamps every RPC request with an
idempotency key ``(sender_id, incarnation, seq)`` — ``seq`` counts per
(sender, destination) pair so each receiver observes a per-sender
sequence without cross-receiver gaps. Retrying callers allocate the key
once (:meth:`next_dedup` / :meth:`stamp_calls`) and pass it with every
attempt. :meth:`bump_incarnation` fences a restarted sender: its old
keys become stale and its sequence numbering restarts.

One path (DESIGN.md §5.11): every traffic method runs its legs through
the same helpers — reachability/drop, delivery accounting, the handler
invocation primitive (:meth:`Transport._invoke`) and reply accounting.
Their cheapness lives inside that one path: each helper skips the
fault-rule walks while the fault plan is inert, and charges the latency
model's constant (:meth:`LatencyModel.flat_delay`) when it has one. Span
work costs one attribute check per call site while tracing is off.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Sequence

from repro.net.address import NodeAddress
from repro.net.faults import FaultPlan
from repro.net.latency import ConstantLatency, LatencyModel
from repro.net.message import Message
from repro.net.stats import NetworkStats
from repro.util.clock import VirtualClock
from repro.util.errors import (
    ERRORS_BY_NAME,
    DeadlineExceeded,
    MessageDropped,
    NetworkError,
    RemoteError,
    ReproError,
    UnreachableError,
)
from repro.util.idgen import IdGenerator
from repro.util.trace import Tracer, maybe_span

#: A node-side dispatcher: receives (message) and returns a payload dict.
Handler = Callable[[Message], dict[str, Any]]


@dataclass(frozen=True, slots=True)
class RpcCall:
    """One leg of a scatter-gather batch (see :meth:`Transport.rpc_many`).

    ``dedup`` carries a pre-allocated idempotency key; retry wrappers
    stamp legs once (:meth:`Transport.stamp_calls`) so a re-sent leg
    reuses the same key. Unstamped legs are stamped at send time.
    """

    dst: str
    kind: str
    payload: dict[str, Any] = field(default_factory=dict)
    dedup: tuple[str, int, int] | None = None


@dataclass
class RpcOutcome:
    """Per-leg result of a scatter-gather batch.

    Exactly one of ``value`` / ``error`` is set. ``delay`` is the
    request+reply network delay attributed to this leg (0.0 when the leg
    failed before delivery — unreachable destination or fault drop).
    """

    dst: str
    ok: bool
    value: dict[str, Any] | None = None
    error: Exception | None = None
    delay: float = 0.0


class Transport:
    """The one shared network object of a simulated world.

    Nodes register a handler under their address; peers call
    :meth:`rpc` / :meth:`send`. The transport owns clock advancement for
    network delays and all traffic accounting.
    """

    def __init__(
        self,
        clock: VirtualClock | None = None,
        latency: LatencyModel | None = None,
        faults: FaultPlan | None = None,
        stats: NetworkStats | None = None,
        stamp_dedup: bool = True,
        tracer: Tracer | None = None,
    ):
        self.clock = clock or VirtualClock()
        self.latency = latency or ConstantLatency(0.001)
        self.faults = faults or FaultPlan()
        self.stats = stats or NetworkStats()
        #: stamp RPC requests with idempotency keys (off = PR 2 wire format)
        self.stamp_dedup = stamp_dedup
        #: causal-trace recorder; when set (and enabled), RPC/send request
        #: legs are stamped with ``(trace_id, parent_span_id)`` headers and
        #: each call gets a span (see repro.obs)
        self.tracer = tracer
        self._ids = IdGenerator()
        self._handlers: dict[str, Handler] = {}
        self._addresses: dict[str, NodeAddress] = {}
        #: per-sender incarnation epoch (bumped on restart; defaults to 1)
        self._incarnations: dict[str, int] = {}
        #: per-(sender, destination) sequence counters
        self._seqs: dict[tuple[str, str], int] = {}
        #: observers called with every successfully delivered message leg
        #: (used by repro.tools.sequence to draw interaction diagrams)
        self.taps: list[Callable[[Message], None]] = []
        #: observers called with every *lost reply* message (handler ran,
        #: response never reached the requester) — chaos uses this to mark
        #: both endpoints for post-episode reconciliation
        self.reply_loss_taps: list[Callable[[Message], None]] = []
        #: optional phi-accrual detector (repro.net.health): when set, the
        #: transport piggybacks RPC outcomes into it — every successful
        #: round trip is a sign of life with a network-only RTT sample,
        #: every request-leg failure and deadline overrun is evidence
        #: against the destination.
        self.health = None
        #: the latency model's endpoint-independent constant, probed once —
        #: None means the model must be consulted per message
        self._flat_delay = self.latency.flat_delay()

    # -- registration ------------------------------------------------------

    def register(self, address: NodeAddress, handler: Handler) -> None:
        """Attach a node to the network (replaces any previous handler)."""
        self._addresses[address.node_id] = address
        self._handlers[address.node_id] = handler

    def unregister(self, node_id: str) -> None:
        """Detach a node (subsequent traffic to it is unreachable)."""
        self._handlers.pop(node_id, None)
        self._addresses.pop(node_id, None)

    def address_of(self, node_id: str) -> NodeAddress:
        """Address record for a registered node."""
        if node_id not in self._addresses:
            raise UnreachableError(f"unknown node {node_id!r}")
        return self._addresses[node_id]

    def known_nodes(self) -> list[str]:
        """Ids of all registered nodes."""
        return sorted(self._handlers)

    # -- idempotency keys --------------------------------------------------

    def incarnation(self, node_id: str) -> int:
        """Current incarnation epoch of a sender (1 until first restart)."""
        return self._incarnations.get(node_id, 1)

    def bump_incarnation(self, node_id: str) -> int:
        """Fence a restarted sender: new epoch, sequence numbering restarts.

        Pre-restart keys become *stale* at every receiver that has seen
        the new epoch, so a delayed duplicate of a pre-crash request can
        never execute against post-restart state — and post-restart seq
        reuse (1, 2, ...) is never mistaken for a duplicate of the old
        sequence.
        """
        self._incarnations[node_id] = self.incarnation(node_id) + 1
        for pair in [p for p in self._seqs if p[0] == node_id]:
            del self._seqs[pair]
        return self._incarnations[node_id]

    def next_dedup(self, src: str, dst: str) -> tuple[str, int, int] | None:
        """Allocate the next idempotency key for a ``src → dst`` request.

        Retrying callers allocate the key *above* their retry loop and
        pass it to every attempt. Returns None with stamping disabled
        (attempts then go out unstamped, exactly like PR 2).
        """
        if not self.stamp_dedup:
            return None
        pair = (src, dst)
        seq = self._seqs.get(pair, 0) + 1
        self._seqs[pair] = seq
        return (src, self._incarnations.get(src, 1), seq)

    def stamp_calls(
        self, src: str, calls: Sequence[RpcCall | tuple[str, str, dict[str, Any]]]
    ) -> list[RpcCall]:
        """Pre-stamp a batch of legs with idempotency keys.

        Used by ``rpc_many_with_retry`` so a re-sent leg carries the same
        key as the original attempt. Already-stamped legs are kept as-is.
        """
        legs = [c if isinstance(c, RpcCall) else RpcCall(*c) for c in calls]
        if not self.stamp_dedup:
            return legs
        return [
            leg if leg.dedup is not None else replace(leg, dedup=self.next_dedup(src, leg.dst))
            for leg in legs
        ]

    # -- trace stamping ----------------------------------------------------

    def _trace_ctx(self) -> tuple[str, str] | None:
        """Current ``(trace_id, span_id)`` to stamp on a request leg."""
        if self.tracer is None or not self.tracer.enabled:
            return None
        return self.tracer.current_context()

    # -- shared delivery internals ----------------------------------------

    # Every leg of every traffic method runs through these helpers, so a
    # fix here applies to all of them. Each one short-circuits its fault
    # work when the plan is inert (``faults.active`` is False: no rule can
    # match, every registered pair is reachable) and charges the latency
    # model's constant when it has one.

    def _undeliverable(self, msg: Message) -> Exception | None:
        """Why ``msg`` cannot be delivered, or None if it can.

        The one reachability/drop sequence shared by first deliveries
        (:meth:`_deliver`, which raises and counts) and redeliveries
        (:meth:`redeliver`, which silently gives up).
        """
        if msg.dst not in self._handlers:
            return UnreachableError(f"node {msg.dst!r} is not attached to the network")
        faults = self.faults
        if not faults.active:
            return None
        if not faults.reachable(msg.src, msg.dst):
            return UnreachableError(f"node {msg.dst!r} is unreachable from {msg.src!r}")
        if faults.should_drop(msg):
            return MessageDropped(f"message {msg.msg_id} ({msg.kind}) dropped by fault rule")
        return None

    def _account_delivery(self, msg: Message, advance: bool) -> float:
        """Charge one deliverable leg: delay, clock, stats, taps."""
        delay = self._flat_delay
        if delay is None:
            delay = self.latency.delay(self._addresses[msg.src], self._addresses[msg.dst], msg)
        if self.faults.active:
            # Gray inflation: slow-node / degraded-link rules add seeded
            # extra delay on top of the latency model.
            delay += self.faults.gray_delay(msg.src, msg.dst)
        if advance:
            self.clock.advance(delay)
        self.stats.record_delivery(msg.kind, msg.size_bytes, delay, msg.is_reply)
        for tap in self.taps:
            tap(msg)
        return delay

    def _deliver(self, msg: Message, advance: bool = True) -> float:
        """Account one message leg (or raise); returns its delay.

        With ``advance`` the clock moves immediately (an unbounded
        ``rpc``/``send``); deadline-bounded and batched legs pass
        ``advance=False`` and move the clock themselves.
        """
        if msg.src not in self._addresses:
            raise UnreachableError(f"source node {msg.src!r} not attached")
        failure = self._undeliverable(msg)
        if failure is not None:
            if isinstance(failure, MessageDropped):
                self.stats.record_dropped()
            else:
                self.stats.record_unreachable()
            raise failure
        return self._account_delivery(msg, advance)

    def _invoke(
        self, msg: Message, advance: bool, redelivered: bool = False
    ) -> tuple[dict[str, Any] | None, Exception | None, float | None, float]:
        """Run a delivered request's handler and account its reply leg.

        The one handler-invocation primitive behind :meth:`rpc`,
        :meth:`rpc_hedged`, :meth:`rpc_many` and :meth:`redeliver`.
        Returns ``(result, error, reply_delay, stall)``:

        * ``result`` — the handler's payload (None if it raised);
        * ``error`` — what the caller observes: the loss error if the
          reply leg was lost, else the marshalled remote error (library
          errors keep their type, anything else becomes
          :class:`RemoteError`), else None;
        * ``reply_delay`` — the reply leg's delay, None iff it was lost;
        * ``stall`` — the stalled-destination share of ``reply_delay``.

        A successful first delivery may be duplicated by the fault plan
        before its reply is sent. A ``redelivered`` duplicate is never
        duplicated again, and a handler failure on it sends no reply —
        nobody is waiting for it.
        """
        error: Exception | None = None
        try:
            result = self._handlers[msg.dst](msg)
        except Exception as exc:  # noqa: BLE001 - marshal arbitrary remote failure
            if redelivered:
                return None, exc, None, 0.0
            result = None
            if isinstance(exc, ReproError):
                error = type(exc)(*exc.args) if type(exc).__name__ in ERRORS_BY_NAME else exc
            else:
                error = RemoteError(type(exc).__name__, str(exc))
                error.__cause__ = exc
            reply: dict[str, Any] = {"error": str(exc)}
        else:
            if result is None:
                result = {}
            if not redelivered:
                self._maybe_duplicate(msg)
            reply = result
        try:
            delay, stall = self._account_reply(msg, reply, advance)
        except NetworkError as loss:
            return result, loss, None, 0.0
        return result, error, delay, stall

    def send(self, src: str, dst: str, kind: str, payload: dict[str, Any]) -> None:
        """One-way message: deliver to the destination handler, ignore result.

        A remote handler failure is a *remote* failure: it is counted
        (``send_failures``) and swallowed, never raised into the sender's
        stack — a fire-and-forget sender has no reply leg to learn it
        from. Transport-level failures before delivery (unreachable
        destination, fault drop) still raise, since the message
        observably never left. Sends are not dedup-stamped: they carry no
        reply to replay and their seqs would open permanent watermark
        gaps at the receiver.
        """
        with maybe_span(self.tracer, f"send:{kind}", src, dst=dst) as span:
            msg = Message(
                ("msg", self._ids.next_num("msg")),
                src,
                dst,
                kind,
                payload,
                trace=self._trace_ctx(),
            )
            self._deliver(msg)
            span.set(bytes=msg.size_bytes)
            try:
                self._handlers[dst](msg)
            except Exception:  # noqa: BLE001 - remote failure, invisible to sender
                self.stats.record_send_failure()
                span.set(outcome="remote_error")
            else:
                span.set(outcome="ok")

    def rpc(
        self,
        src: str,
        dst: str,
        kind: str,
        payload: dict[str, Any],
        dedup: tuple[str, int, int] | None = None,
        deadline: float | None = None,
    ) -> dict[str, Any]:
        """Request/response round trip; returns the handler's payload.

        Remote library exceptions come back as their own types; anything
        else as :class:`RemoteError`. If the *reply* leg is lost the
        transport raises the loss error (:class:`UnreachableError` /
        :class:`MessageDropped`) instead — the caller cannot distinguish
        a lost request from a lost reply, which is exactly the ambiguity
        the dedup layer resolves on retry.

        ``dedup`` carries a pre-allocated idempotency key (retrying
        callers re-use one key across attempts); without it the request
        is stamped with a fresh key automatically.

        ``deadline`` is an absolute simulated time past which the caller
        stops waiting: the clock never advances beyond it on this call,
        and :class:`DeadlineExceeded` is raised instead of the result.
        The wire traffic is still accounted at its real delay — the
        network was busy whether or not anyone kept listening. A request
        leg that overruns never executes the handler (the caller gave up
        while it was in flight); a reply leg that overruns raises *after*
        the handler's side effects landed — the usual at-least-once
        hazard, resolved by the dedup layer on retry. Only a bounded call
        carries the 8-byte deadline header.
        """
        if dedup is None:
            dedup = self.next_dedup(src, dst)
        health = self.health
        bounded = deadline is not None
        with maybe_span(self.tracer, f"rpc:{kind}", src, dst=dst) as span:
            start = self.clock.now()
            if bounded and start >= deadline:
                span.set(outcome="deadline")
                raise DeadlineExceeded(0.0, 0.0, detail=f"rpc:{kind} to {dst} not sent")
            msg = Message(
                ("msg", self._ids.next_num("msg")),
                src,
                dst,
                kind,
                payload,
                dedup=dedup,
                trace=self._trace_ctx(),
                deadline=deadline,
            )
            try:
                dlv = self._deliver(msg, advance=not bounded)
            except (UnreachableError, MessageDropped):
                if health is not None:
                    health.record_failure(dst)
                raise
            span.set(bytes=msg.size_bytes)
            if bounded:
                if start + dlv > deadline:
                    self.clock.advance(deadline - start)
                    span.set(outcome="deadline")
                    if health is not None:
                        health.record_failure(dst)
                    raise DeadlineExceeded(
                        deadline - start,
                        deadline - start,
                        detail=f"request leg rpc:{kind} to {dst}",
                    )
                self.clock.advance(dlv)
            result, error, rpl, stall = self._invoke(msg, advance=not bounded)
            if rpl is None:  # reply lost after the handler ran
                if result is None:
                    span.set(outcome="remote_error")
                raise error  # type: ignore[misc]
            if error is not None:
                span.set(outcome="remote_error")
            if stall:
                span.set(stall=round(stall, 9))
            if bounded:
                self._advance_within(rpl, start, deadline, span, health, dst, kind)
            if error is not None:
                raise error
            if health is not None:
                health.record_success(dst, dlv + rpl)
            span.set(outcome="ok", delay=round(self.clock.now() - start, 9))
            return result  # type: ignore[return-value]

    def _advance_within(
        self, delay: float, start: float, deadline: float, span, health, dst: str, kind: str
    ) -> None:
        """Advance by ``delay`` but never past ``deadline``; raise on overrun."""
        now = self.clock.now()
        if now + delay > deadline:
            if deadline > now:
                self.clock.advance(deadline - now)
            span.set(outcome="deadline")
            if health is not None:
                health.record_failure(dst)
            raise DeadlineExceeded(
                self.clock.now() - start,
                deadline - start,
                detail=f"reply leg rpc:{kind} from {dst}",
            )
        self.clock.advance(delay)

    def rpc_hedged(
        self,
        src: str,
        primary: str,
        backup: str,
        kind: str,
        payload: dict[str, Any],
        hedge_delay: float,
    ) -> dict[str, Any]:
        """First-wins hedged round trip for idempotent reads.

        The request goes to ``primary`` immediately; if its round trip
        has not completed after ``hedge_delay`` the same request is
        launched at ``backup`` and whichever reply arrives first decides
        (ties favor the primary). The caller's clock advances only to
        the winner's arrival — the loser's reply lands later and is
        discarded, exactly the tail-latency cut hedging buys — while
        stats charge both legs' real traffic.

        Both handlers may execute (the hedge is for *idempotent* reads;
        each leg carries its own fresh idempotency key so the receivers'
        dedup tables never conflate them). A primary failure known
        before the hedge timer (unreachable, drop, typed remote error)
        is raised immediately — hedging cuts latency tails, it is not an
        error-failover mechanism; the caller's replica failover handles
        those. A primary whose *reply* is lost never completes, so the
        hedge always fires for it.
        """
        health = self.health
        with maybe_span(
            self.tracer, f"rpc:{kind}", src, dst=primary, hedge=backup
        ) as span:
            start = self.clock.now()
            msg = Message(
                ("msg", self._ids.next_num("msg")),
                src,
                primary,
                kind,
                payload,
                dedup=self.next_dedup(src, primary),
                trace=self._trace_ctx(),
            )
            try:
                dlv = self._deliver(msg, advance=False)
            except (UnreachableError, MessageDropped):
                if health is not None:
                    health.record_failure(primary)
                span.set(outcome="undeliverable")
                raise
            span.set(bytes=msg.size_bytes)
            # A total of None means the reply was lost: never completes.
            p_result, p_error, rpl, p_stall = self._invoke(msg, advance=False)
            p_total = None if rpl is None else dlv + rpl
            if p_total is not None and p_total <= hedge_delay:
                # The primary answered (or errored) before the hedge
                # timer: no second leg is ever sent.
                self.clock.advance(p_total)
                if p_error is not None:
                    span.set(outcome="remote_error")
                    raise p_error
                if health is not None:
                    health.record_success(primary, p_total)
                if p_stall:
                    span.set(stall=round(p_stall, 9))
                span.set(outcome="ok", delay=round(p_total, 9))
                return p_result  # type: ignore[return-value]

            # Hedge fires: the same request at the backup owner, its
            # round trip starting hedge_delay after the primary's.
            self.stats.record_hedge()
            b_msg = Message(
                ("msg", self._ids.next_num("msg")),
                src,
                backup,
                kind,
                payload,
                dedup=self.next_dedup(src, backup),
                trace=self._trace_ctx(),
            )
            b_result: dict[str, Any] | None = None
            b_stall = 0.0
            try:
                bdlv = self._deliver(b_msg, advance=False)
            except (UnreachableError, MessageDropped) as exc:
                if health is not None:
                    health.record_failure(backup)
                b_error: Exception | None = exc
                b_total: float | None = hedge_delay
            else:
                b_result, b_error, rpl, b_stall = self._invoke(b_msg, advance=False)
                b_total = None if rpl is None else hedge_delay + bdlv + rpl

            # First successful reply wins; ties favor the primary.
            p_ok = p_error is None and p_total is not None
            b_ok = b_error is None and b_total is not None
            winners = []
            if p_ok:
                winners.append((p_total, 0))
            if b_ok:
                winners.append((b_total, 1))
            if winners:
                total, which = min(winners)
                self.clock.advance(total)
                if health is not None:
                    # Both replies eventually arrive; both are RTT samples.
                    if p_ok:
                        health.record_success(primary, p_total)
                    if b_ok:
                        health.record_success(backup, b_total - hedge_delay)
                # The winner's reply is the one the caller's elapsed time
                # followed, so its stall is the span's stall; the loser's
                # reply was discarded (its stall cost nobody anything).
                win_stall = b_stall if which == 1 else p_stall
                if win_stall:
                    span.set(stall=round(min(win_stall, total), 9))
                if which == 1:
                    self.stats.record_hedge_win()
                    span.set(winner="backup", outcome="hedge_win", delay=round(total, 9))
                    return b_result  # type: ignore[return-value]
                span.set(winner="primary", outcome="ok", delay=round(total, 9))
                return p_result  # type: ignore[return-value]

            # Neither leg produced a result: the caller learns of the
            # failure at the later of the two known completion times.
            known = [t for t in (p_total, b_total) if t is not None]
            self.clock.advance(max(known) if known else hedge_delay)
            span.set(outcome="failed", delay=round(self.clock.now() - start, 9))
            raise p_error if p_error is not None else b_error  # type: ignore[misc]

    def rpc_many(
        self,
        src: str,
        calls: Sequence[RpcCall | tuple[str, str, dict[str, Any]]],
        deadline: float | None = None,
    ) -> list[RpcOutcome]:
        """Scatter-gather: issue every call as a concurrent in-flight leg.

        Models the prototype's concurrent RMI invocations: each leg's
        request and reply delays are charged to :class:`NetworkStats`
        individually (message counts and total network busy-time are
        identical to issuing the calls sequentially), but the shared
        clock advances only once, by the **maximum** request+reply delay
        across the batch — a group call costs ~one round trip of virtual
        time instead of the sum.

        Per-leg failures (unreachable destination, fault drop, remote
        handler error, lost reply) are captured as failed
        :class:`RpcOutcome` records rather than raised, so one dead
        device never aborts the batch. Legs that fail before delivery
        contribute zero delay; the clock advance equals the max over
        *attempted* legs. Handlers execute inline in call order (nested
        traffic they cause is accounted as usual), keeping runs
        deterministic.

        Only an unattached *source* raises, since no leg could be sent.

        With a ``deadline``, legs whose request+reply delay would land
        past it come back as failed outcomes carrying
        :class:`DeadlineExceeded`, their clock contribution capped at
        the remaining budget (stats still charge real delays). A leg
        whose *request* overruns never executes its handler; a leg
        whose *reply* overruns already did.
        """
        legs = [c if isinstance(c, RpcCall) else RpcCall(*c) for c in calls]
        if not legs:
            return []
        if src not in self._addresses:
            raise UnreachableError(f"source node {src!r} not attached")
        health = self.health
        outcomes: list[RpcOutcome] = []
        max_delay = 0.0
        #: stall component of the leg that currently owns ``max_delay`` —
        #: the batch's clock advance is that leg's round trip, so its
        #: stall is the batch tail's stall (stamped on the batch span).
        batch_stall = 0.0
        with maybe_span(self.tracer, "net.batch", src, legs=len(legs)) as batch:
            start = self.clock.now()
            remaining = None if deadline is None else max(0.0, deadline - start)
            for call in legs:
                dedup = call.dedup if call.dedup is not None else self.next_dedup(src, call.dst)
                with maybe_span(
                    self.tracer, f"rpc:{call.kind}", src, dst=call.dst
                ) as span:
                    msg = Message(
                        ("msg", self._ids.next_num("msg")),
                        src,
                        call.dst,
                        call.kind,
                        call.payload,
                        dedup=dedup,
                        trace=self._trace_ctx(),
                        deadline=deadline,
                    )
                    try:
                        delay = self._deliver(msg, advance=False)
                    except (UnreachableError, MessageDropped) as exc:
                        span.set(outcome="undeliverable")
                        if health is not None:
                            health.record_failure(call.dst)
                        outcomes.append(RpcOutcome(call.dst, False, error=exc))
                        continue
                    span.set(bytes=msg.size_bytes)
                    if remaining is not None and delay > remaining:
                        # The caller stops waiting while the request is
                        # still in flight: the handler never runs.
                        span.set(outcome="deadline", delay=round(remaining, 9))
                        if health is not None:
                            health.record_failure(call.dst)
                        outcomes.append(
                            RpcOutcome(
                                call.dst,
                                False,
                                error=DeadlineExceeded(
                                    remaining,
                                    remaining,
                                    detail=f"request leg rpc:{call.kind} to {call.dst}",
                                ),
                                delay=remaining,
                            )
                        )
                        if remaining > max_delay:
                            # An abandoned wait is a stall from the
                            # caller's seat, whatever the wire was doing.
                            max_delay = remaining
                            batch_stall = remaining
                        continue
                    result, error, rpl, leg_stall = self._invoke(msg, advance=False)
                    if rpl is not None:
                        delay += rpl
                    if rpl is None and result is not None:
                        # The handler ran; its reply never came home.
                        span.set(outcome="reply_lost", delay=round(delay, 9))
                        outcomes.append(RpcOutcome(call.dst, False, error=error, delay=delay))
                    elif error is not None:
                        if remaining is not None and delay > remaining:
                            error = DeadlineExceeded(
                                remaining,
                                remaining,
                                detail=f"reply leg rpc:{call.kind} from {call.dst}",
                            )
                            delay = remaining
                            leg_stall = min(leg_stall, delay)
                        if leg_stall:
                            span.set(stall=round(leg_stall, 9))
                        span.set(outcome="remote_error", delay=round(delay, 9))
                        outcomes.append(RpcOutcome(call.dst, False, error=error, delay=delay))
                    elif remaining is not None and delay > remaining:
                        # The caller abandons the wait at the deadline:
                        # from its seat the whole remaining budget was a
                        # stall.
                        leg_stall = remaining
                        span.set(outcome="deadline", delay=round(remaining, 9))
                        if health is not None:
                            health.record_failure(call.dst)
                        outcomes.append(
                            RpcOutcome(
                                call.dst,
                                False,
                                error=DeadlineExceeded(
                                    remaining,
                                    remaining,
                                    detail=f"reply leg rpc:{call.kind} from {call.dst}",
                                ),
                                delay=remaining,
                            )
                        )
                    else:
                        if leg_stall:
                            span.set(stall=round(min(leg_stall, delay), 9))
                        span.set(outcome="ok", delay=round(delay, 9))
                        if health is not None:
                            health.record_success(call.dst, delay)
                        outcomes.append(RpcOutcome(call.dst, True, value=result, delay=delay))
                    if delay > max_delay:
                        max_delay = delay
                        batch_stall = leg_stall
            if remaining is not None:
                max_delay = min(max_delay, remaining)
            self.clock.advance(max_delay)
            batch.set(max_delay=round(max_delay, 9))
            if batch_stall:
                batch.set(stall=round(min(batch_stall, max_delay), 9))
        self.stats.record_batch(len(legs), max_delay)
        return outcomes

    # -- duplicate delivery (fault model) ----------------------------------

    def _maybe_duplicate(self, msg: Message) -> None:
        """Inline duplicate: re-dispatch a just-delivered request once."""
        faults = self.faults
        if msg.is_reply or not faults.active or not faults.should_duplicate(msg):
            return
        self.redeliver(msg, advance=False)

    def redeliver(self, msg: Message, advance: bool = False) -> None:
        """Deliver an already-delivered request a second time.

        Fault-model entry point: the chaos injector uses it to model a
        flaky link re-transmitting (possibly long after the original,
        even across a sender restart — which is what incarnation fencing
        exists for). The duplicate's result is discarded and its errors
        are swallowed: the network produced it, no caller is waiting.
        Never cascades (a redelivery is not itself duplicated).

        Shares :meth:`_undeliverable`, :meth:`_account_delivery` and
        :meth:`_invoke` with the first-delivery path; the only
        differences are the silent give-up (no raise, no
        dropped/unreachable counters — nobody is waiting) and the extra
        ``duplicates`` counter.
        """
        if msg.src not in self._addresses or self._undeliverable(msg) is not None:
            return
        self._account_delivery(msg, advance)
        self.stats.record_duplicate()
        # A duplicate belongs to the trace of the original request: re-enter
        # its context (a scheduler-fired redelivery otherwise has no parent).
        activate = (
            self.tracer.activate(msg.trace) if self.tracer is not None else nullcontext()
        )
        # ``deferred`` marks the span as temporally detached from its
        # parent: a scheduler-fired redelivery lands long after the
        # original rpc span closed, so the chrome-trace containment
        # validator (and the attribution partition) must not expect it
        # inside the parent's interval.
        with activate, maybe_span(
            self.tracer, "net.redeliver", msg.src, dst=msg.dst, kind=msg.kind,
            deferred=True,
        ):
            self._invoke(msg, advance=False, redelivered=True)

    # -- reply accounting --------------------------------------------------

    def _account_reply(
        self, request: Message, payload: dict[str, Any], advance: bool = True
    ) -> tuple[float, float]:
        """Account the reply leg of ``request``; raises if it is lost.

        Returns ``(delay, stall)`` — the reply leg's delay and the part
        of it a stalled destination added, so span holders can carve the
        stalled-destination share out of wire transit
        (repro.obs.critical).

        The reply can fail independently of the request: the requester
        went down/partitioned away mid-call (``UnreachableError``) or a
        fault rule drops the reply in flight (``MessageDropped``). In
        both cases the handler has already executed — the side effect is
        persisted, only the acknowledgement is gone. ``reply_lost`` is
        counted (the generic ``dropped``/``unreachable`` counters keep
        meaning "request legs that failed") and reply-loss taps fire so
        chaos can queue both endpoints for reconciliation.
        """
        reply = Message(
            ("msg", self._ids.next_num("msg")),
            request.dst,
            request.src,
            request.kind,
            payload,
            is_reply=True,
        )
        faults = self.faults
        active = faults.active
        if active and not faults.reachable(request.dst, request.src):
            self.stats.record_reply_lost()
            for tap in self.reply_loss_taps:
                tap(reply)
            raise UnreachableError(
                f"reply to {request.src!r} lost: unreachable from {request.dst!r}"
            )
        if active and faults.should_drop(reply):
            self.stats.record_reply_lost()
            for tap in self.reply_loss_taps:
                tap(reply)
            raise MessageDropped(
                f"reply {reply.msg_id} ({reply.kind}) dropped by fault rule"
            )
        delay = self._flat_delay
        if delay is None:
            delay = self.latency.delay(
                self._addresses[request.dst], self._addresses[request.src], reply
            )
        stall = 0.0
        if active:
            # Gray inflation on the reply leg, plus the stall penalty: a
            # stalled node executed the handler (side effects landed, it
            # looks alive to liveness probes) but its reply crawls home.
            # Loopback is exempt (like gray_delay): a self-invocation
            # never traverses the wedged network-facing reply path.
            delay += faults.gray_delay(request.dst, request.src)
            if request.dst != request.src:
                stall = faults.stall_delay(request.dst)
                delay += stall
        if advance:
            self.clock.advance(delay)
        self.stats.record_delivery(reply.kind, reply.size_bytes, delay, True)
        for tap in self.taps:
            tap(reply)
        return delay, stall

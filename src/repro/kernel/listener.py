"""SyDListener — service publication and remote-invocation dispatch.

Paper §3.1(b): "Enables SyD device objects to publish services (server
functionalities) as 'listeners' locally on the device and globally via
directory services. It allows users on SyD network to invoke single or
group services via remote invocations seamlessly."

One listener runs per node. It owns the node's
:class:`~repro.device.registry.MethodRegistry`, handles ``"invoke"``
messages from the transport, optionally enforces §5.4 authentication,
and — when *middleware triggers* are enabled (paper §5.3's proposed
store-portable alternative to Oracle triggers) — notifies post-invoke
hooks such as :meth:`repro.kernel.links.SyDLinks.after_method`.
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Callable

from repro.device.object import SyDDeviceObject
from repro.device.registry import MethodRegistry
from repro.net import dedup as dedup_mod
from repro.net.dedup import DedupTable
from repro.net.message import Message
from repro.obs.metrics import MetricsRegistry
from repro.security.auth import AuthTable
from repro.security.envelope import unseal
from repro.util.errors import (
    ERRORS_BY_NAME,
    AuthenticationError,
    RemoteError,
    ReproError,
    StaleMessageError,
)
from repro.util.trace import NULL_SPAN, Tracer

#: Hook signature: (object_name, method, args, kwargs, result) -> None
PostInvokeHook = Callable[[str, str, list, dict, Any], None]


class SyDListener:
    """Per-node invocation endpoint."""

    def __init__(
        self,
        node_id: str,
        directory=None,
        dedup: DedupTable | None = None,
        tracer: Tracer | None = None,
        metrics: MetricsRegistry | None = None,
    ):
        self.node_id = node_id
        self.registry = MethodRegistry()
        self.directory = directory  # DirectoryClient or None (directory node itself)
        #: receiver-side exactly-once table (None = PR 2 at-least-once)
        self.dedup = dedup
        #: causal tracer: dispatch re-enters the context stamped on the
        #: message, so handler work nests under the remote caller's span
        self.tracer = tracer
        #: per-node metrics sink (dispatch latency, replay/reject counts)
        self.metrics = metrics
        self._post_hooks: list[PostInvokeHook] = []
        # Authentication (off until enable_authentication is called).
        self._auth_passphrase: str | None = None
        self._auth_table: AuthTable | None = None
        self._protected: set[str] | None = None  # None = protect everything
        self.invocations = 0
        self.rejected = 0
        self.replays = 0
        #: side-effect executions per idempotency key — the chaos
        #: ``no_double_application`` checker's ground truth. Incremented
        #: immediately before the target method runs, never cleared (a
        #: restart must not hide a pre-crash execution from the checker).
        self.effects: Counter = Counter()
        #: trace_id of the last *execution* per idempotency key (replays
        #: excluded) — lets invariant violations name the offending trace.
        #: Observability state, never cleared, like ``effects``.
        self.effect_traces: dict[tuple[str, int, int], str] = {}

    # -- publication ----------------------------------------------------------

    def publish_object(
        self,
        obj: SyDDeviceObject,
        *,
        user_id: str | None = None,
        service: str | None = None,
    ) -> list[str]:
        """Register an object's exported methods locally, and globally when
        ``user_id``/``service`` are given and a directory client is wired.

        Returns the published method names.
        """
        methods = obj.publish(self.registry)
        if user_id is not None and service is not None and self.directory is not None:
            self.directory.register_service(user_id, service, obj.name, methods)
        return methods

    def unpublish_object(self, obj: SyDDeviceObject) -> None:
        """Remove an object's methods from the local registry."""
        obj.unpublish(self.registry)

    # -- middleware-trigger hooks -------------------------------------------------

    def add_post_invoke_hook(self, hook: PostInvokeHook) -> Callable[[], None]:
        """Run ``hook`` after every successful invocation; returns remover."""
        self._post_hooks.append(hook)

        def remove() -> None:
            if hook in self._post_hooks:
                self._post_hooks.remove(hook)

        return remove

    # -- authentication ---------------------------------------------------------

    def enable_authentication(
        self,
        passphrase: str,
        auth_table: AuthTable,
        protected_objects: set[str] | None = None,
    ) -> None:
        """Require a valid credential envelope on invocations.

        ``protected_objects`` limits enforcement to the named objects
        (None = every object on this node). Built-in kernel objects
        (names starting with ``_syd``) are always exempt — kernel-to-
        kernel traffic such as link cascades is trusted infrastructure,
        like the prototype's intra-middleware RMI.
        """
        self._auth_passphrase = passphrase
        self._auth_table = auth_table
        self._protected = protected_objects

    def _check_auth(self, object_name: str, payload: dict[str, Any]) -> None:
        if self._auth_passphrase is None or object_name.startswith("_syd"):
            return
        if self._protected is not None and object_name not in self._protected:
            return
        envelope = payload.get("auth")
        if not envelope:
            raise AuthenticationError(
                f"object {object_name!r} requires credentials and none were sent"
            )
        creds = unseal(envelope, self._auth_passphrase)
        assert self._auth_table is not None
        self._auth_table.check(creds.user_id, creds.password)

    # -- dispatch -----------------------------------------------------------------

    def handle_invoke(self, msg: Message) -> dict[str, Any]:
        """Transport handler for ``"invoke"`` messages.

        With a dedup table wired, the request's idempotency key is
        admitted first: duplicates replay the cached outcome (result *or*
        typed error) without re-executing; keys from fenced sender
        incarnations or below the pruned watermark are refused with
        :class:`StaleMessageError`. First sightings execute and their
        outcome is recorded.

        With a tracer wired, dispatch re-enters the context stamped on
        the message, so everything below — including the dedup verdict —
        lands as a child span of the caller's RPC span. A disabled tracer
        and an unstamped message skip both context managers: they would
        only push and pop a NULL frame.
        """
        tracer = self.tracer
        if tracer is None or (not tracer.enabled and msg.trace is None):
            return self._dispatch(msg, NULL_SPAN)
        payload = msg.payload
        name = f"handle:{payload.get('object', '?')}.{payload.get('method', '?')}"
        with tracer.activate(msg.trace):
            with tracer.span(name, self.node_id, src=msg.src) as span:
                return self._dispatch(msg, span)

    def _dispatch(self, msg: Message, span) -> dict[str, Any]:
        key = msg.dedup
        if key is not None and self.dedup is not None:
            verdict, cached = self.dedup.admit(*key)
            span.set(verdict=verdict)
            if verdict == dedup_mod.REPLAY:
                self.replays += 1
                self._metric("kernel.replays")
                assert cached is not None
                return self._replay(cached)
            if verdict == dedup_mod.FENCED:
                self._metric("kernel.fenced")
                raise StaleMessageError(
                    f"invocation {key} refused: sender incarnation is fenced"
                )
            if verdict == dedup_mod.SUPPRESS:
                self._metric("kernel.suppressed")
                raise StaleMessageError(
                    f"invocation {key} refused: already processed, reply pruned"
                )
        try:
            reply = self._execute(msg, key)
        except ReproError as exc:
            # Deterministic library errors are part of the invocation's
            # outcome: cache them so a duplicate raises the same error
            # without re-running the handler. (RemoteError never
            # originates in a handler, so single-arg reconstruction in
            # _replay is always possible.)
            if key is not None and self.dedup is not None and not isinstance(exc, RemoteError):
                self.dedup.record(
                    *key, {"__error__": type(exc).__name__, "message": str(exc)}
                )
            raise
        if key is not None and self.dedup is not None:
            self.dedup.record(*key, reply)
        return reply

    def _metric(self, name: str, value: float = 1) -> None:
        if self.metrics is not None:
            self.metrics.inc(self.node_id, name, value)

    def _execute(self, msg: Message, key) -> dict[str, Any]:
        """Authenticate, look up and run the target method."""
        payload = msg.payload
        object_name = payload["object"]
        method = payload["method"]
        args = payload.get("args", [])
        kwargs = payload.get("kwargs", {})
        try:
            self._check_auth(object_name, payload)
        except AuthenticationError:
            self.rejected += 1
            self._metric("kernel.rejected")
            raise
        fn = self.registry.lookup(object_name, method)
        if key is not None:
            self.effects[key] += 1
            # A disabled tracer has no context to name (the skipped
            # handle span would have put a NULL frame on top).
            if self.tracer is not None and self.tracer.enabled:
                ctx = self.tracer.current_context()
                if ctx is not None:
                    self.effect_traces[key] = ctx[0]
        metrics = self.metrics
        if metrics is not None:
            # Inline MetricsRegistry.timer: same histogram and clock,
            # observed on return and on raise, without a generator frame.
            clock = metrics.clock
            start = clock.now()
            try:
                result = fn(*args, **kwargs)
            finally:
                metrics.observe(
                    self.node_id, f"kernel.dispatch.{method}", clock.now() - start
                )
        else:
            result = fn(*args, **kwargs)
        self.invocations += 1
        self._metric("kernel.invocations")
        for hook in list(self._post_hooks):
            hook(object_name, method, list(args), dict(kwargs), result)
        return {"result": result}

    def _replay(self, cached: dict[str, Any]) -> dict[str, Any]:
        """Re-issue a cached outcome: return a reply copy or raise the error."""
        if "__error__" in cached:
            cls = ERRORS_BY_NAME.get(cached["__error__"])
            if cls is None or cls is RemoteError:
                raise ReproError(cached["message"])
            raise cls(cached["message"])
        return dict(cached)

    def restart(self) -> None:
        """Node power-cycle: volatile dedup state is lost, watermarks reload."""
        if self.dedup is not None:
            self.dedup.restart()

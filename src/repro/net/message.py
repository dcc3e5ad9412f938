"""Message representation for the simulated transport.

Messages carry a ``kind`` (dispatch discriminator), a JSON-like payload
dict, and an estimated wire size used by byte-sensitive latency models.
The size estimator approximates what a compact binary encoding of the
payload would cost; it exists so experiments can report bytes moved, not
to be an exact serializer.

Hot-path notes (DESIGN.md §5.11): :class:`Message` is a ``__slots__``
class, its wire size is computed **eagerly at construction** (a lazy
cache would go stale if a payload dict were mutated after first access),
and the transport may pass the id as a ``(prefix, counter)`` pair so the
``"msg-1234"`` string is only formatted if something actually reads
``msg_id`` (error messages, chaos dup tracking, diagrams). Size
estimation walks containers with an explicit stack instead of recursion,
so deeply nested payloads cannot hit the interpreter recursion limit. It
sizes ASCII strings by ``len`` (UTF-8 length equals code-point count
there) and encodes only non-ASCII ones, and it costs the scalar entries
of every dict inline; there is no separate flat-dict pre-scan.
"""

from __future__ import annotations

from typing import Any

#: fixed per-message framing cost: ids, kind, length fields
_HEADER_BYTES = 32

def estimate_size(value: Any) -> int:
    """Rough wire size in bytes of a JSON-like value.

    Iterative (explicit work stack) so arbitrarily deep payloads are
    safe; every node contributes a fixed local cost and addition
    commutes, so the total does not depend on visit order. A string
    costs 2 plus its UTF-8 length; an exact ``str`` that
    :meth:`str.isascii` (a constant-time flag check) has UTF-8 length
    ``len(s)``, so only non-ASCII strings are encoded. Dict entries with
    exact ``str`` keys and scalar values are costed inline instead of
    being pushed on the stack; any other key or value is pushed. The
    branch chain tests exact types inline (no dispatch-table calls);
    exact-type tests keep bool (an int subclass) in its own 1-byte
    branch, and subclasses of the builtin types fall through to the
    isinstance ladder and its ``repr`` fallback.
    """
    total = 0
    stack = [value]
    while stack:
        v = stack.pop()
        t = v.__class__
        if t is dict:
            total += 2
            for k, x in v.items():
                if k.__class__ is str:
                    total += 2 + (len(k) if k.isascii() else len(k.encode("utf-8")))
                else:
                    stack.append(k)
                tx = x.__class__
                if tx is str:
                    total += 2 + (len(x) if x.isascii() else len(x.encode("utf-8")))
                elif tx is int or tx is float:
                    total += 8
                elif x is None or tx is bool:
                    total += 1
                else:
                    stack.append(x)
        elif t is str:
            total += 2 + (len(v) if v.isascii() else len(v.encode("utf-8")))
        elif t is int or t is float:
            total += 8
        elif v is None or t is bool:
            total += 1
        elif t is list or t is tuple:
            total += 2
            stack.extend(v)
        elif t is bytes:
            total += 2 + len(v)
        elif isinstance(v, bool):
            total += 1
        elif isinstance(v, (int, float)):
            total += 8
        elif isinstance(v, str):
            total += 2 + len(v.encode("utf-8"))
        elif isinstance(v, bytes):
            total += 2 + len(v)
        elif isinstance(v, (list, tuple)):
            total += 2
            stack.extend(v)
        elif isinstance(v, dict):
            total += 2
            stack.extend(v.keys())
            stack.extend(v.values())
        else:
            # Fallback for dataclasses / misc objects: use repr length.
            total += 2 + len(repr(v))
    return total


#: wire size of an idempotency key, interned per sender id. A dedup key
#: is always ``(sender_id, incarnation, seq)`` and sender ids form a
#: small bounded set, so the per-message cost collapses to one dict get.
_DEDUP_SRC_SIZES: dict[str, int] = {}


class Message:
    """One unit of simulated network traffic.

    Attributes:
        msg_id: unique id assigned by the transport. Constructed either
            from a ready string or from a ``(prefix, counter)`` tuple;
            the latter defers the f-string cost until the id is read.
        src: sender node id.
        dst: destination node id.
        kind: dispatch discriminator (``"invoke"``, ``"directory"`` ...).
        payload: JSON-like body.
        is_reply: True for RPC response legs (they are counted separately).
        dedup: idempotency key ``(sender_id, incarnation, seq)`` stamped by
            the transport on RPC requests (None for replies, one-way sends
            and transports with stamping disabled). A retried attempt
            carries the *same* key, which is what lets the receiver's
            dedup table replay the cached reply instead of re-executing.
        trace: causal-context header ``(trace_id, parent_span_id)`` stamped
            on requests when tracing is on; the receiving listener
            re-enters that context so remote handler work lands as child
            spans of the caller's span. None for replies, unstamped legs
            and disabled/sampled-out tracers.
        deadline: absolute simulated time by which the *caller* stops
            waiting for this call chain (None = unbounded). Stamped on
            request legs by deadline-budgeted callers; downstream hops
            inherit the same absolute value, so the remaining budget
            shrinks naturally as the clock advances across hops.
        size_bytes: estimated wire size, fixed at construction. Mutating
            the payload afterwards does not change it — the size models
            what was put on the wire, not the dict's later life.
    """

    __slots__ = (
        "_msg_id",
        "_id_pair",
        "src",
        "dst",
        "kind",
        "payload",
        "is_reply",
        "dedup",
        "trace",
        "deadline",
        "size_bytes",
    )

    def __init__(
        self,
        msg_id: str | tuple[str, int],
        src: str,
        dst: str,
        kind: str,
        payload: dict[str, Any] | None = None,
        is_reply: bool = False,
        dedup: tuple[str, int, int] | None = None,
        trace: tuple[str, str] | None = None,
        deadline: float | None = None,
    ):
        if type(msg_id) is tuple:
            self._msg_id = None
            self._id_pair = msg_id
        else:
            self._msg_id = msg_id
            self._id_pair = None
        self.src = src
        self.dst = dst
        self.kind = kind
        self.payload = payload if payload is not None else {}
        self.is_reply = is_reply
        self.dedup = dedup
        self.trace = trace
        self.deadline = deadline
        size = _HEADER_BYTES + estimate_size(self.payload)
        if deadline is not None:
            size += 8  # one float header field
        if dedup is not None:
            # Fast branch for the canonical (str, int, int) key shape:
            # list(2) + str(2 + utf8) + 8 + 8 — identical to the general
            # estimator, minus the walk.
            sender = dedup[0]
            if (
                len(dedup) == 3
                and type(sender) is str
                and type(dedup[1]) is int
                and type(dedup[2]) is int
            ):
                extra = _DEDUP_SRC_SIZES.get(sender)
                if extra is None:
                    extra = _DEDUP_SRC_SIZES[sender] = 20 + len(sender.encode("utf-8"))
                size += extra
            else:
                size += estimate_size(list(dedup))
        if trace is not None:
            size += estimate_size(list(trace))
        self.size_bytes = size

    @property
    def msg_id(self) -> str:
        """The message id, formatted on first access for lazy pairs."""
        mid = self._msg_id
        if mid is None:
            prefix, num = self._id_pair
            mid = f"{prefix}-{num}"
            self._msg_id = mid
        return mid

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Message(msg_id={self.msg_id!r}, src={self.src!r}, dst={self.dst!r}, "
            f"kind={self.kind!r}, payload={self.payload!r}, is_reply={self.is_reply!r}, "
            f"dedup={self.dedup!r}, trace={self.trace!r})"
        )

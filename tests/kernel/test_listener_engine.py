"""Tests for SyDListener dispatch, SyDEngine execution and aggregation."""

import pytest

from repro import SyDWorld
from repro.device.object import SyDDeviceObject, exported
from repro.kernel.aggregate import (
    collect_all,
    count_success,
    first_success,
    intersect_lists,
    merge_lists,
    quorum,
    require_all,
)
from repro.obs.metrics import MetricsRegistry
from repro.util.errors import (
    AuthenticationError,
    SlotUnavailableError,
    TransactionError,
    UnknownServiceError,
    UnreachableError,
)


class Echo(SyDDeviceObject):
    @exported
    def ping(self, x=None):
        return {"pong": x, "via": self.name}

    @exported
    def fail(self):
        raise SlotUnavailableError("nope")

    @exported
    def free_slots(self):
        return self._slots

    def set_slots(self, slots):
        self._slots = slots


def setup_users(world, names):
    out = {}
    for name in names:
        node = world.add_node(name)
        obj = Echo(f"{name}_echo")
        obj.set_slots([])
        node.listener.publish_object(obj, user_id=name, service="echo")
        out[name] = (node, obj)
    return out


class TestSingleExecution:
    def test_execute_resolves_through_directory(self, world):
        users = setup_users(world, ["a", "b"])
        node_a = users["a"][0]
        assert node_a.engine.execute("b", "echo", "ping", 1) == {
            "pong": 1,
            "via": "b_echo",
        }

    def test_execute_self_call_goes_through_network(self, world):
        users = setup_users(world, ["a"])
        node = users["a"][0]
        before = world.stats.messages
        node.engine.execute("a", "echo", "ping")
        assert world.stats.messages > before

    def test_remote_typed_error_propagates(self, world):
        users = setup_users(world, ["a", "b"])
        with pytest.raises(SlotUnavailableError):
            users["a"][0].engine.execute("b", "echo", "fail")

    def test_unknown_method(self, world):
        users = setup_users(world, ["a", "b"])
        with pytest.raises(UnknownServiceError):
            users["a"][0].engine.execute("b", "echo", "bogus")

    def test_unreachable_without_proxy_raises(self, world):
        users = setup_users(world, ["a", "b"])
        world.take_down("b")
        with pytest.raises(UnreachableError):
            users["a"][0].engine.execute("b", "echo", "ping")

    def test_invocation_counter(self, world):
        users = setup_users(world, ["a", "b"])
        listener_b = users["b"][0].listener
        before = listener_b.invocations
        users["a"][0].engine.execute("b", "echo", "ping")
        assert listener_b.invocations == before + 1


class TestGroupExecution:
    def test_group_by_list(self, world):
        users = setup_users(world, ["a", "b", "c"])
        result = users["a"][0].engine.execute_group(["a", "b", "c"], "echo", "ping", 5)
        assert result.all_ok
        assert result.value_of("b")["pong"] == 5

    def test_group_by_directory_group(self, world):
        users = setup_users(world, ["a", "b", "c"])
        node = users["a"][0]
        node.directory.form_group("team", "a", ["b", "c"])
        result = node.engine.execute_group("team", "echo", "ping")
        assert [r.member for r in result.results] == ["b", "c"]

    def test_dead_member_captured_not_raised(self, world):
        users = setup_users(world, ["a", "b", "c"])
        world.take_down("c")
        result = users["a"][0].engine.execute_group(["b", "c"], "echo", "ping")
        assert not result.all_ok
        assert result.failed[0].member == "c"
        assert result.failed[0].error_type == "UnreachableError"
        with pytest.raises(TransactionError):
            result.value_of("c")

    def test_per_user_args(self, world):
        users = setup_users(world, ["a", "b"])
        result = users["a"][0].engine.execute_group(
            ["a", "b"], "echo", "ping", per_user_args=lambda u: (u.upper(),)
        )
        assert result.value_of("a")["pong"] == "A"
        assert result.value_of("b")["pong"] == "B"

    def test_aggregator_applied(self, world):
        users = setup_users(world, ["a", "b"])
        out = users["a"][0].engine.execute_group(
            ["a", "b"], "echo", "ping", 3, aggregator=collect_all
        )
        assert out["a"]["pong"] == 3


class TestAggregators:
    def _results(self, world, slots_by_user):
        users = setup_users(world, list(slots_by_user))
        for name, slots in slots_by_user.items():
            users[name][1].set_slots(slots)
        engine = users[list(slots_by_user)[0]][0].engine
        return engine.execute_group(list(slots_by_user), "echo", "free_slots")

    def test_intersect_lists(self, world):
        group = self._results(
            world, {"a": [1, 2, 3, 4], "b": [2, 3, 5], "c": [3, 2, 9]}
        )
        assert group.aggregate(intersect_lists) == [2, 3]

    def test_intersect_empty_on_failure(self):
        world = SyDWorld()
        users = setup_users(world, ["a", "b"])
        users["a"][1].set_slots([1, 2])
        users["b"][1].set_slots([1, 2])
        world.take_down("b")
        group = users["a"][0].engine.execute_group(["a", "b"], "echo", "free_slots")
        assert group.aggregate(intersect_lists) == []

    def test_merge_lists(self, world):
        group = self._results(world, {"a": [1], "b": [2, 3]})
        assert group.aggregate(merge_lists) == [1, 2, 3]

    def test_first_success_and_count(self, world):
        group = self._results(world, {"a": [7], "b": [8]})
        assert group.aggregate(first_success) == [7]
        assert group.aggregate(count_success) == 2

    def test_require_all_raises_on_failure(self, world):
        users = setup_users(world, ["a", "b"])
        world.take_down("b")
        group = users["a"][0].engine.execute_group(["a", "b"], "echo", "ping")
        with pytest.raises(TransactionError, match="b\\(UnreachableError\\)"):
            group.aggregate(require_all)

    def test_quorum(self, world):
        users = setup_users(world, ["a", "b", "c"])
        world.take_down("c")
        group = users["a"][0].engine.execute_group(["a", "b", "c"], "echo", "ping")
        assert group.aggregate(quorum(0.5)) is True
        assert group.aggregate(quorum(0.9)) is False

    def test_quorum_validates_fraction(self):
        with pytest.raises(ValueError):
            quorum(0.0)
        with pytest.raises(ValueError):
            quorum(1.5)

    def test_first_success_raises_when_all_fail(self, world):
        users = setup_users(world, ["a", "b"])
        world.take_down("b")
        group = users["a"][0].engine.execute_group(["b"], "echo", "ping")
        with pytest.raises(TransactionError):
            group.aggregate(first_success)


class TestAuthentication:
    def make_auth_world(self):
        world = SyDWorld(seed=1, auth_passphrase="net-secret")
        a = world.add_node("a", password="pw-a")
        b = world.add_node("b", password="pw-b")
        for name, node in [("a", a), ("b", b)]:
            obj = Echo(f"{name}_echo")
            obj.set_slots([])
            node.listener.publish_object(obj, user_id=name, service="echo")
        # b authorizes a.
        b.auth_table.grant("a", "pw-a")
        return world, a, b

    def test_authorized_call_succeeds(self):
        world, a, b = self.make_auth_world()
        assert a.engine.execute("b", "echo", "ping", 1)["pong"] == 1

    def test_unauthorized_caller_rejected(self):
        world, a, b = self.make_auth_world()
        # a has not granted b.
        with pytest.raises(AuthenticationError):
            b.engine.execute("a", "echo", "ping")
        assert world.node("a").listener.rejected == 1

    def test_wrong_password_rejected(self):
        world, a, b = self.make_auth_world()
        b.auth_table.grant("a", "different-password")
        with pytest.raises(AuthenticationError):
            a.engine.execute("b", "echo", "ping")

    def test_missing_credentials_rejected(self):
        world, a, b = self.make_auth_world()
        a.engine.credentials = None  # strip credentials
        with pytest.raises(AuthenticationError, match="requires credentials"):
            a.engine.execute("b", "echo", "ping")

    def test_kernel_objects_exempt_from_auth(self):
        world, a, b = self.make_auth_world()
        # _syd_links calls carry no app credentials but must work.
        rows = a.engine.execute("b", "_syd_links", "list_link_rows")
        assert rows == []


class Timed(SyDDeviceObject):
    """Handler that spends virtual time, timed by a reference registry's
    ``MetricsRegistry.timer`` over exactly the interval the listener's
    dispatch histogram should see."""

    def __init__(self, name, clock, node_id, ref):
        super().__init__(name)
        self.clock = clock
        self.node_id = node_id
        self.ref = ref

    @exported
    def work(self, delay, fail=False):
        with self.ref.timer(self.node_id, "kernel.dispatch.work"):
            self.clock.advance(delay)
            if fail:
                raise SlotUnavailableError("busy")
        return delay


class _RecordingStack(list):
    """Span stack that counts every push and pop."""

    ops = 0

    def append(self, item):
        self.ops += 1
        super().append(item)

    def pop(self, *args):
        self.ops += 1
        return super().pop(*args)


class TestDispatchObservability:
    def test_disabled_tracer_dispatch_opens_no_span(self):
        world = SyDWorld(seed=1, tracing=False)
        users = setup_users(world, ["a", "b"])
        tracer = world.tracer
        started = []
        start_span = tracer.start_span
        tracer.start_span = lambda *a, **kw: started.append(a) or start_span(*a, **kw)
        stack = tracer._stack = _RecordingStack()
        listener_b = users["b"][0].listener
        before = listener_b.invocations
        assert users["a"][0].engine.execute("b", "echo", "ping", 1)["pong"] == 1
        assert listener_b.invocations == before + 1
        assert started == []
        assert tracer._stack is stack and stack == [] and stack.ops == 0
        assert tracer.spans() == []
        assert listener_b.effect_traces == {}

    def test_dispatch_paused_inside_open_span_names_no_trace(self):
        world = SyDWorld(seed=1)
        users = setup_users(world, ["a", "b"])
        listener_b = users["b"][0].listener
        users["a"][0].engine.execute("b", "echo", "ping", 1)
        traced = dict(listener_b.effect_traces)
        assert traced  # tracing on: the execution names its trace
        with world.tracer.span("op", "a"):
            world.tracer.enabled = False
            users["a"][0].engine.execute("b", "echo", "ping", 2)
            world.tracer.enabled = True
        assert listener_b.effect_traces == traced

    @pytest.mark.parametrize("tracing", [False, True])
    def test_dispatch_histogram_matches_metrics_timer(self, tracing):
        world = SyDWorld(seed=1, tracing=tracing)
        a = world.add_node("a")
        b = world.add_node("b")
        ref = MetricsRegistry(world.clock)
        b.listener.publish_object(
            Timed("b_timed", world.clock, b.listener.node_id, ref), user_id="b", service="timed"
        )
        for delay in (0.0, 0.0004, 0.003, 0.75, 2.5):
            assert a.engine.execute("b", "timed", "work", delay) == delay
        for delay in (0.002, 1.3):
            with pytest.raises(SlotUnavailableError):
                a.engine.execute("b", "timed", "work", delay, fail=True)
        node_id = b.listener.node_id
        got = world.metrics.histogram(node_id, "kernel.dispatch.work")
        want = ref.histogram(node_id, "kernel.dispatch.work")
        assert got["count"] == want["count"] == 7
        assert got == want

    def test_tracing_enabled_mid_run_nests_handler_under_caller(self):
        world = SyDWorld(seed=1, tracing=False)
        users = setup_users(world, ["a", "b"])
        a = users["a"][0]
        a.engine.execute("b", "echo", "ping", 1)
        tracer = world.tracer
        assert tracer.spans() == []
        tracer.enabled = True
        with tracer.span("op", "a") as root:
            a.engine.execute("b", "echo", "ping", 2)
        spans = tracer.spans()
        by_id = {s.span_id: s for s in spans}
        [handle] = [s for s in spans if s.name == "handle:b_echo.ping"]
        assert handle.node == users["b"][0].listener.node_id
        assert handle.trace_id == root.trace_id
        caller = by_id[handle.parent_id]
        assert caller.name.startswith("rpc:") and caller.node == a.listener.node_id
        while caller.parent_id is not None:
            caller = by_id[caller.parent_id]
        assert caller is root

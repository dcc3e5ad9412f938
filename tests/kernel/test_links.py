"""Tests for SyDLinks — the six operations of paper §4.2."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import SyDWorld
from repro.kernel.linktypes import Link, LinkRef, LinkSubtype, LinkType
from repro.txn.coordinator import AND
from repro.util.errors import UnknownLinkError

REF_B = LinkRef("b", "slot1", "res", on_change="on_peer_change")


def sub_link(node, refs=None, **kw):
    return node.links.create_link(
        LinkType.SUBSCRIPTION, refs or [LinkRef("b", "slot1", "res", on_change=None)], **kw
    )


def neg_link(node, refs=None, **kw):
    kw.setdefault("constraint", AND)
    return node.links.create_link(
        LinkType.NEGOTIATION, refs or [LinkRef("b", "slot1", "res")], **kw
    )


class TestOp1LinkDatabase:
    def test_tables_created(self, trio):
        store = trio["a"].store
        for t in ["SyD_Links", "SyD_WaitingLink", "SyD_LinkMethod"]:
            assert store.has_table(t)

    def test_idempotent_on_existing_tables(self, trio, world):
        from repro.kernel.links import SyDLinks

        node = trio["a"]
        again = SyDLinks("a", node.store, node.engine, world.clock)
        assert again.all_links() == node.links.all_links()


class TestOp2Creation:
    def test_create_and_get(self, trio):
        link = neg_link(trio["a"], priority=3, context={"meeting_id": "m1"})
        got = trio["a"].links.get_link(link.link_id)
        assert got == link
        assert got.priority == 3

    def test_created_event_published(self, trio):
        seen = []
        trio["a"].events.on_local("link.created", lambda t, p: seen.append(p["link"]))
        link = neg_link(trio["a"])
        assert seen == [link]

    def test_links_by_context_and_entity(self, trio):
        a = trio["a"]
        l1 = neg_link(a, source_entity="slotX", context={"meeting_id": "m1"})
        neg_link(a, source_entity="slotY", context={"meeting_id": "m2"})
        assert [ln.link_id for ln in a.links.links_by_context("meeting_id", "m1")] == [l1.link_id]
        assert [ln.link_id for ln in a.links.links_for_entity("slotX")] == [l1.link_id]

    def test_unknown_link(self, trio):
        with pytest.raises(UnknownLinkError):
            trio["a"].links.get_link("nope")

    def test_ttl_sets_expiry(self, trio, world):
        link = neg_link(trio["a"], ttl=50.0)
        assert link.expires_at == pytest.approx(world.now + 50.0)


class TestOp3Promotion:
    def test_waiting_link_promoted_on_delete(self, trio):
        a = trio["a"]
        blocking = neg_link(a)
        waiting = neg_link(
            a, subtype=LinkSubtype.TENTATIVE, waiting_on=blocking.link_id, priority=1
        )
        assert len(a.links.waiting_entries(blocking.link_id)) == 1

        promoted = a.links.delete_link(blocking.link_id)
        assert promoted == [waiting.link_id]
        got = a.links.get_link(waiting.link_id)
        assert got.subtype is LinkSubtype.PERMANENT
        assert got.waiting_on is None
        assert a.links.waiting_entries() == []

    def test_highest_priority_waiter_wins(self, trio):
        a = trio["a"]
        blocking = neg_link(a)
        low = neg_link(a, subtype=LinkSubtype.TENTATIVE, waiting_on=blocking.link_id, priority=1)
        high = neg_link(a, subtype=LinkSubtype.TENTATIVE, waiting_on=blocking.link_id, priority=5)
        promoted = a.links.delete_link(blocking.link_id)
        assert promoted == [high.link_id]
        assert a.links.get_link(high.link_id).subtype is LinkSubtype.PERMANENT
        # The low-priority waiter stays tentative (its entry was not for the top priority).
        assert a.links.get_link(low.link_id).subtype is LinkSubtype.TENTATIVE

    def test_group_promotion(self, trio):
        a = trio["a"]
        blocking = neg_link(a)
        g1 = neg_link(
            a,
            subtype=LinkSubtype.TENTATIVE,
            waiting_on=blocking.link_id,
            priority=5,
            waiting_group="grp",
        )
        g2 = neg_link(
            a,
            subtype=LinkSubtype.TENTATIVE,
            waiting_on=blocking.link_id,
            priority=2,
            waiting_group="grp",
        )
        promoted = set(a.links.delete_link(blocking.link_id))
        # Whole group promoted together because its top member won.
        assert promoted == {g1.link_id, g2.link_id}

    def test_remote_waiter_promoted_via_engine(self, trio):
        a, b = trio["a"], trio["b"]
        blocking = neg_link(a)
        remote_wait = b.links.create_link(
            LinkType.NEGOTIATION,
            [LinkRef("a", "slot1", "res")],
            constraint=AND,
            subtype=LinkSubtype.TENTATIVE,
        )
        a.links.register_waiting(blocking.link_id, "b", remote_wait.link_id, priority=1)
        a.links.delete_link(blocking.link_id)
        assert b.links.get_link(remote_wait.link_id).subtype is LinkSubtype.PERMANENT
        assert b.links.promoted == 1

    def test_promoted_event_published(self, trio):
        a = trio["a"]
        seen = []
        a.events.on_local("link.promoted", lambda t, p: seen.append(p["link"].link_id))
        blocking = neg_link(a)
        waiting = neg_link(a, subtype=LinkSubtype.TENTATIVE, waiting_on=blocking.link_id)
        a.links.delete_link(blocking.link_id)
        assert seen == [waiting.link_id]

    def test_down_waiter_skipped(self, trio, world):
        a = trio["a"]
        blocking = neg_link(a)
        remote_wait = trio["b"].links.create_link(
            LinkType.NEGOTIATION,
            [LinkRef("a", "slot1", "res")],
            constraint=AND,
            subtype=LinkSubtype.TENTATIVE,
        )
        a.links.register_waiting(blocking.link_id, "b", remote_wait.link_id, priority=1)
        world.take_down("b")
        promoted = a.links.delete_link(blocking.link_id)
        assert promoted == []  # waiter unreachable, entry dropped


class TestOp4Deletion:
    def test_delete_removes_row(self, trio):
        a = trio["a"]
        link = neg_link(a)
        a.links.delete_link(link.link_id)
        assert not a.links.has_link(link.link_id)
        assert a.links.deleted == 1

    def test_cascade_deletes_associated_links_at_peers(self, trio):
        a, b, c = trio["a"], trio["b"], trio["c"]
        ctx = {"cascade_id": "meeting-7"}
        la = a.links.create_link(
            LinkType.NEGOTIATION,
            [LinkRef("b", "slot1", "res"), LinkRef("c", "slot1", "res")],
            constraint=AND,
            context=ctx,
        )
        lb = b.links.create_link(
            LinkType.NEGOTIATION, [LinkRef("a", "slot1", "res")], constraint=AND, context=ctx
        )
        lc = c.links.create_link(
            LinkType.NEGOTIATION, [LinkRef("a", "slot1", "res")], constraint=AND, context=ctx
        )
        a.links.delete_link(la.link_id)
        assert not b.links.has_link(lb.link_id)
        assert not c.links.has_link(lc.link_id)
        assert b.links.cascades_received == 1

    def test_cascade_terminates_on_cycles(self, trio):
        a, b = trio["a"], trio["b"]
        ctx = {"cascade_id": "cyc"}
        la = a.links.create_link(
            LinkType.NEGOTIATION, [LinkRef("b", "slot1", "res")], constraint=AND, context=ctx
        )
        b.links.create_link(
            LinkType.NEGOTIATION, [LinkRef("a", "slot1", "res")], constraint=AND, context=ctx
        )
        a.links.delete_link(la.link_id)  # must not recurse forever
        assert a.links.links_by_context("cascade_id", "cyc") == []
        assert b.links.links_by_context("cascade_id", "cyc") == []

    def test_cascade_skips_down_peer(self, trio, world):
        a, b = trio["a"], trio["b"]
        ctx = {"cascade_id": "x"}
        la = a.links.create_link(
            LinkType.NEGOTIATION, [LinkRef("b", "slot1", "res")], constraint=AND, context=ctx
        )
        lb = b.links.create_link(
            LinkType.NEGOTIATION, [LinkRef("a", "slot1", "res")], constraint=AND, context=ctx
        )
        world.take_down("b")
        a.links.delete_link(la.link_id)
        assert not a.links.has_link(la.link_id)
        world.bring_up("b")
        assert b.links.has_link(lb.link_id)  # cleanup deferred to expiry

    def test_delete_without_cascade(self, trio):
        a, b = trio["a"], trio["b"]
        ctx = {"cascade_id": "nc"}
        la = a.links.create_link(
            LinkType.NEGOTIATION, [LinkRef("b", "slot1", "res")], constraint=AND, context=ctx
        )
        lb = b.links.create_link(
            LinkType.NEGOTIATION, [LinkRef("a", "slot1", "res")], constraint=AND, context=ctx
        )
        a.links.delete_link(la.link_id, cascade=False)
        assert b.links.has_link(lb.link_id)


class TestOp5MethodInvocation:
    def test_after_method_fires_mapped_destination(self, trio):
        a, b = trio["a"], trio["b"]
        a.links.add_link_method("a_res", "change", "b", "res", "on_peer_change")
        # Emulate the listener hook after a local 'change' execution.
        fired = a.links.after_method("a_res", "change", ["slot1", "t"], {}, None)
        assert fired == 1
        assert b.res_obj.notifications[0][0]["source_method"] == "change"

    def test_unmapped_method_fires_nothing(self, trio):
        a = trio["a"]
        assert a.links.after_method("a_res", "read", [], {}, None) == 0

    def test_middleware_trigger_mode_end_to_end(self, trio):
        """enable_middleware_triggers wires after_method into the listener."""
        a, b = trio["a"], trio["b"]
        a.enable_middleware_triggers()
        a.links.add_link_method("a_res", "set_status", "b", "res", "on_peer_change")
        # Remote invocation of a's set_status must propagate to b.
        trio["c"].engine.execute("a", "res", "set_status", "slot1", "busy")
        assert len(b.res_obj.notifications) == 1
        assert b.res_obj.notifications[0][0]["args"] == ["slot1", "busy"]

    def test_down_destination_skipped(self, trio, world):
        a = trio["a"]
        a.links.add_link_method("a_res", "change", "b", "res", "set_status")
        world.take_down("b")
        assert a.links.after_method("a_res", "change", [], {}, None) == 0

    def test_broken_mapping_does_not_fail_source_invocation(self, trio):
        """Regression: a SyD_LinkMethod entry naming a method the
        destination never registered must not surface an error to the
        *source* caller (the hook runs inside that invocation)."""
        a, c = trio["a"], trio["c"]
        a.enable_middleware_triggers()
        a.links.add_link_method("a_res", "set_status", "b", "res", "no_such_method")
        # The triggering call itself must still succeed.
        assert c.engine.execute("a", "res", "set_status", "slot1", "busy") == 1


class TestOp6Expiry:
    def test_expired_links_deleted_by_sweep(self, trio, world):
        a = trio["a"]
        neg_link(a, ttl=10.0)
        keeper = neg_link(a, ttl=1000.0)
        a.start_expiry_sweep(interval=5.0)
        world.run_for(20.0)
        assert [ln.link_id for ln in a.links.all_links()] == [keeper.link_id]
        assert a.links.expired == 1

    def test_expire_links_direct_call(self, trio):
        a = trio["a"]
        doomed = neg_link(a, ttl=0.0)
        assert a.links.expire_links(a.links.clock.now() + 0.1) == [doomed.link_id]

    def test_expiry_cascades(self, trio, world):
        a, b = trio["a"], trio["b"]
        ctx = {"cascade_id": "exp"}
        neg_link(a, ttl=5.0, context=ctx)
        lb = b.links.create_link(
            LinkType.NEGOTIATION, [LinkRef("a", "slot1", "res")], constraint=AND, context=ctx
        )
        a.links.expire_links(world.now + 10.0)
        assert not b.links.has_link(lb.link_id)


class TestSubscriptionFiring:
    def test_subscription_notifies_peers(self, trio):
        a, b = trio["a"], trio["b"]
        a.links.create_link(
            LinkType.SUBSCRIPTION,
            [LinkRef("b", "slot1", "res", on_change="on_peer_change")],
            source_entity="slot1",
        )
        delivered = a.links.fire_subscriptions("slot1", {"status": "busy"})
        assert delivered == 1
        assert b.res_obj.notifications == [("slot1", {"status": "busy"})]

    def test_tentative_subscription_does_not_fire(self, trio):
        a = trio["a"]
        blocking = neg_link(a)
        a.links.create_link(
            LinkType.SUBSCRIPTION,
            [LinkRef("b", "slot1", "res", on_change="on_peer_change")],
            source_entity="slot1",
            subtype=LinkSubtype.TENTATIVE,
            waiting_on=blocking.link_id,
        )
        assert a.links.fire_subscriptions("slot1", {}) == 0

    def test_negotiation_links_not_fired_as_subscriptions(self, trio):
        a = trio["a"]
        neg_link(a, source_entity="slot1")
        assert a.links.fire_subscriptions("slot1", {}) == 0

    def test_down_subscriber_skipped(self, trio, world):
        a = trio["a"]
        a.links.create_link(
            LinkType.SUBSCRIPTION,
            [LinkRef("b", "slot1", "res", on_change="on_peer_change")],
            source_entity="slot1",
        )
        world.take_down("b")
        assert a.links.fire_subscriptions("slot1", {}) == 0


class TestRemoteFacade:
    def test_create_link_row_remotely(self, trio):
        a, b = trio["a"], trio["b"]
        link_id = a.engine.execute(
            "b",
            "_syd_links",
            "create_link_row",
            {
                "ltype": "negotiation",
                "refs": [{"user": "a", "entity": "slot1", "service": "res"}],
                "constraint": "and",
                "priority": 4,
                "context": {"cascade_id": "m1"},
            },
        )
        link = b.links.get_link(link_id)
        assert link.owner == "b"
        assert link.priority == 4

    def test_get_link_row_and_list(self, trio):
        a, b = trio["a"], trio["b"]
        link = b.links.create_link(
            LinkType.NEGOTIATION, [LinkRef("a", "slot1", "res")], constraint=AND
        )
        row = a.engine.execute("b", "_syd_links", "get_link_row", link.link_id)
        assert row["link_id"] == link.link_id
        rows = a.engine.execute("b", "_syd_links", "list_link_rows")
        assert len(rows) == 1

    def test_delete_link_remote(self, trio):
        a, b = trio["a"], trio["b"]
        link = b.links.create_link(
            LinkType.NEGOTIATION, [LinkRef("a", "slot1", "res")], constraint=AND
        )
        assert a.engine.execute("b", "_syd_links", "delete_link_remote", link.link_id)
        assert not b.links.has_link(link.link_id)
        assert not a.engine.execute("b", "_syd_links", "delete_link_remote", link.link_id)

    def test_register_waiting_remotely(self, trio):
        a, b = trio["a"], trio["b"]
        blocking = b.links.create_link(
            LinkType.NEGOTIATION, [LinkRef("a", "slot1", "res")], constraint=AND
        )
        mine = a.links.create_link(
            LinkType.NEGOTIATION,
            [LinkRef("b", "slot1", "res")],
            constraint=AND,
            subtype=LinkSubtype.TENTATIVE,
        )
        a.engine.execute(
            "b", "_syd_links", "register_waiting", blocking.link_id, "a", mine.link_id, 2
        )
        b.links.delete_link(blocking.link_id)
        assert a.links.get_link(mine.link_id).subtype is LinkSubtype.PERMANENT


# -- filtered reads agree with the Link-level filters they replaced ---------------

#: source entities every backend round-trips. FlatFileStore stores a JSON
#: cell as ``json.dumps`` only for lists and dicts, so a bare str or tuple
#: does not survive it; nested tuples come back as lists.
COMMON_ENTITIES = [
    None, 7, 7.0, True, {"day": 1, "hour": 2}, {"day": 1, "hour": (2, 3)},
    [1, 2], [(1, 2)], [[1, 2]],
]
ENTITIES = {
    "relational": COMMON_ENTITIES + ["s1", "s2", (1, 2)],
    "list": COMMON_ENTITIES + ["s1", "s2", (1, 2)],
    "flatfile": COMMON_ENTITIES,
}
QUERY_ENTITIES = ENTITIES["relational"] + [1, 1.5, False, {"day": 1, "hour": [2, 3]}]
CTX_KEYS = ["meeting_id", "cascade_id"]
CTX_VALUES = ["m1", "m2", 1, True, None, [1], (1,), {"x": 1}]
TTLS = [None, 0.0, 5.0, 50.0]

create_steps = st.tuples(
    st.just("create"),
    st.integers(0, 20),                                      # entity
    st.dictionaries(st.sampled_from(CTX_KEYS), st.integers(0, len(CTX_VALUES) - 1), max_size=2),
    st.sampled_from(TTLS),
    st.booleans(),                                           # tentative
    st.booleans(),                                           # waits on a live link
    st.integers(0, 3),                                       # priority
    st.booleans(),                                           # refs a peer
    st.booleans(),                                           # negotiation
)
steps = st.lists(
    st.one_of(
        create_steps,
        create_steps,
        st.tuples(st.just("promote"), st.integers(0, 20)),
        st.tuples(st.just("delete"), st.integers(0, 20), st.booleans()),
    ),
    min_size=1,
    max_size=14,
)


def _old_links_for_entity(links, entity):
    return [ln for ln in links.all_links() if ln.source_entity == entity]


def _old_links_by_context(links, key, value):
    return [ln for ln in links.all_links() if ln.context.get(key) == value]


def _old_expired(links, now):
    return [ln for ln in links.all_links() if ln.is_expired(now)]


def _old_cascade_doomed(links, cascade_id):
    return _old_links_by_context(links, "cascade_id", cascade_id) + [
        ln for ln in links.all_links() if ln.link_id == cascade_id
    ]


def _live_ids(links):
    return [ln.link_id for ln in links.all_links()]


def _build(store_kind, plan):
    world = SyDWorld(seed=3)
    a = world.add_node("a", store_kind=store_kind)
    world.add_node("b", store_kind=store_kind)
    entities = ENTITIES[store_kind]
    for step in plan:
        live = _live_ids(a.links)
        if step[0] == "create":
            _, ent, ctx, ttl, tentative, waits, priority, peer, negotiation = step
            refs = [LinkRef("a", "x", "res")] + ([LinkRef("b", "y", "res")] if peer else [])
            wait_on = live[priority % len(live)] if waits and tentative and live else None
            a.links.create_link(
                LinkType.NEGOTIATION if negotiation else LinkType.SUBSCRIPTION,
                refs,
                subtype=LinkSubtype.TENTATIVE if tentative else LinkSubtype.PERMANENT,
                source_entity=entities[ent % len(entities)],
                constraint=AND if negotiation else None,
                priority=priority,
                ttl=ttl,
                waiting_on=wait_on,
                context={k: CTX_VALUES[v] for k, v in ctx.items()},
            )
        elif live and step[0] == "promote":
            a.links.promote_link(live[step[1] % len(live)])
        elif live and step[0] == "delete":
            a.links.delete_link(live[step[1] % len(live)], cascade=step[2])
    return world, a.links


class _CountFromRow:
    """Counts ``Link.from_row`` calls while installed."""

    def __init__(self, mp):
        self.calls = 0
        original = Link.from_row

        def counting(row):
            self.calls += 1
            return original(row)

        mp.setattr(Link, "from_row", staticmethod(counting))


@pytest.mark.parametrize("store_kind", ["relational", "flatfile", "list"])
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    plan=steps,
    cascade_pick=st.integers(0, 40),
    expire_offset=st.sampled_from([0.0, 4.9, 5.0, 50.0, 1e6]),
)
def test_filtered_reads_match_link_level_filters(store_kind, plan, cascade_pick, expire_offset):
    world, links = _build(store_kind, plan)

    for entity in QUERY_ENTITIES:
        want = _old_links_for_entity(links, entity)
        with pytest.MonkeyPatch.context() as mp:
            count = _CountFromRow(mp)
            got = links.links_for_entity(entity)
        assert got == want
        assert count.calls == len(got)
    for key in CTX_KEYS + ["absent"]:
        for value in CTX_VALUES + ["m3"]:
            want = _old_links_by_context(links, key, value)
            with pytest.MonkeyPatch.context() as mp:
                count = _CountFromRow(mp)
                got = links.links_by_context(key, value)
            assert got == want
            assert count.calls == len(got)

    # cascade_delete deletes exactly the links the old scan named
    candidates = ["m1", "m2", [1], 1, "nope"] + _live_ids(links)
    cascade_id = candidates[cascade_pick % len(candidates)]
    before = set(_live_ids(links))
    want_deleted = {ln.link_id for ln in _old_cascade_doomed(links, cascade_id)}
    assert links.cascade_delete(cascade_id, []) == len(want_deleted)
    assert before - set(_live_ids(links)) == want_deleted

    # expire_links returns (and deletes) the ids the old scan named, in order
    now = world.now + expire_offset
    before = set(_live_ids(links))
    want_ids = [ln.link_id for ln in _old_expired(links, now)]
    assert links.expire_links(now) == want_ids
    assert before - set(_live_ids(links)) == set(want_ids)


def test_expire_links_rehydrates_nothing_when_nothing_expired(trio):
    links = trio["a"].links
    for ttl in (None, 10.0, 20.0):
        neg_link(trio["a"], ttl=ttl)
    with pytest.MonkeyPatch.context() as mp:
        count = _CountFromRow(mp)
        assert links.expire_links(links.clock.now() + 1.0) == []
    assert count.calls == 0

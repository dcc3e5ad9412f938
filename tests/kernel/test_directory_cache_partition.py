"""DirectoryCache epoch behaviour across a partition and its heal.

A partitioned node keeps serving (stale) cached records it cannot
validate — and must converge with the directory service once the
partition heals and the next lookup revalidates the epoch.
"""

import pytest

from repro.util.errors import NetworkError
from repro.world import SyDWorld

USERS = ["phil", "andy", "suzy"]


@pytest.fixture
def world():
    world = SyDWorld(seed=17, directory_cache=True)
    for user in USERS:
        world.add_node(user)
    return world


def cut_off(world, user):
    """Partition ``user``'s node away from everyone (directory included)."""
    node_id = world.node(user).node_id
    others = [world.node(u).node_id for u in USERS if u != user]
    others.append(world.directory_node)
    world.transport.faults.partition([node_id], others)


def test_epoch_change_behind_a_partition_converges_after_heal(world):
    phil = world.node("phil")
    phil.directory.lookup_user("andy")  # fill the cache
    filled_epoch = phil.directory.cache.filled_epochs()[""]
    assert filled_epoch == world.directory_service.epoch

    cut_off(world, "phil")
    # Behind the partition, andy's binding changes: the service epoch
    # bumps, phil's cache is now stale and cannot revalidate.
    world.node("andy").directory.set_proxy("andy", "proxy-9")
    assert world.directory_service.epoch > filled_epoch

    world.transport.faults.heal_partition()
    record = phil.directory.lookup_user("andy")
    assert record["proxy_node"] == "proxy-9"
    assert phil.directory.cache.filled_epochs()[""] == world.directory_service.epoch


def test_partitioned_lookup_of_uncached_user_fails(world):
    phil = world.node("phil")
    cut_off(world, "phil")
    with pytest.raises(NetworkError):
        phil.directory.lookup_user("suzy")
    world.transport.faults.heal_partition()
    assert phil.directory.lookup_user("suzy")["user_id"] == "suzy"


def test_group_formation_behind_partition_invalidates_peer_caches(world):
    phil, andy = world.node("phil"), world.node("andy")
    phil.directory.lookup_user("suzy")
    cut_off(world, "phil")
    andy.directory.form_group("biology", "andy", ["andy", "suzy"])
    world.transport.faults.heal_partition()
    # phil's next lookup revalidates against the bumped epoch and sees
    # the new group through a fresh cache fill.
    assert phil.directory.group_members("biology") == ["andy", "suzy"]
    assert phil.directory.cache.filled_epochs()[""] == world.directory_service.epoch

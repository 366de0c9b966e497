"""Unit tests for DES resources: Resource, Store."""

import pytest

from repro.sim import Environment, Resource, Store


def test_resource_capacity_validation():
    env = Environment()
    with pytest.raises(ValueError):
        Resource(env, capacity=0)


def test_resource_grants_up_to_capacity():
    env = Environment()
    res = Resource(env, capacity=2)
    grants = []

    def user(name):
        with res.request() as req:
            yield req
            grants.append((env.now, name))
            yield env.timeout(10)

    env.process(user("a"))
    env.process(user("b"))
    env.process(user("c"))
    env.run(until=5)
    assert [g[1] for g in grants] == ["a", "b"]
    env.run()
    assert [g[1] for g in grants] == ["a", "b", "c"]
    assert grants[2][0] == 10


def test_resource_fifo_order():
    env = Environment()
    res = Resource(env, capacity=1)
    order = []

    def user(name, arrive):
        yield env.timeout(arrive)
        with res.request() as req:
            yield req
            order.append(name)
            yield env.timeout(1)

    for i, name in enumerate("abcd"):
        env.process(user(name, i * 0.1))
    env.run()
    assert order == list("abcd")


def test_resource_release_is_idempotent():
    env = Environment()
    res = Resource(env, capacity=1)

    def user():
        req = res.request()
        yield req
        res.release(req)
        res.release(req)  # double release must not free someone else's slot

    env.process(user())
    env.run()
    assert res.count == 0


def test_resource_cancel_queued_request():
    env = Environment()
    res = Resource(env, capacity=1)
    held = res.request()  # immediately granted
    assert held.triggered
    queued = res.request()
    assert not queued.triggered
    res.release(queued)  # cancel before grant
    res.release(held)
    assert res.count == 0
    assert not queued.triggered


def test_resource_count_property():
    env = Environment()
    res = Resource(env, capacity=3)
    reqs = [res.request() for _ in range(3)]
    assert res.count == 3
    res.release(reqs[0])
    assert res.count == 2


def test_store_put_get_fifo():
    env = Environment()
    store = Store(env)
    got = []

    def producer():
        for i in range(3):
            yield store.put(i)
            yield env.timeout(1)

    def consumer():
        for _ in range(3):
            item = yield store.get()
            got.append(item)

    env.process(producer())
    env.process(consumer())
    env.run()
    assert got == [0, 1, 2]


def test_store_get_blocks_until_item():
    env = Environment()
    store = Store(env)
    got_at = []

    def consumer():
        yield store.get()
        got_at.append(env.now)

    def producer():
        yield env.timeout(4)
        yield store.put("x")

    env.process(consumer())
    env.process(producer())
    env.run()
    assert got_at == [4]


def test_store_capacity_blocks_put():
    env = Environment()
    store = Store(env, capacity=1)
    put_done = []

    def producer():
        yield store.put("a")
        put_done.append(env.now)
        yield store.put("b")
        put_done.append(env.now)

    def consumer():
        yield env.timeout(5)
        yield store.get()

    env.process(producer())
    env.process(consumer())
    env.run()
    assert put_done == [0, 5]


def test_store_len_tracks_items():
    env = Environment()
    store = Store(env)

    def proc():
        yield store.put("a")
        yield store.put("b")

    env.process(proc())
    env.run()
    assert len(store) == 2


def test_store_invalid_capacity():
    env = Environment()
    with pytest.raises(ValueError):
        Store(env, capacity=0)


def test_store_multiple_consumers_each_get_one():
    env = Environment()
    store = Store(env)
    got = []

    def consumer(name):
        item = yield store.get()
        got.append((name, item))

    env.process(consumer("c1"))
    env.process(consumer("c2"))

    def producer():
        yield store.put("i1")
        yield store.put("i2")

    env.process(producer())
    env.run()
    assert sorted(got) == [("c1", "i1"), ("c2", "i2")]

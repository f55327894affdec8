"""Unit tests for resources, containers and stores."""

import pytest

from repro.sim import Container, Environment, PriorityResource, Resource, Store


def test_resource_capacity_enforced():
    env = Environment()
    resource = Resource(env, capacity=2)
    order = []

    def worker(tag, hold):
        request = resource.request()
        yield request
        order.append((tag, env.now))
        yield env.timeout(hold)
        resource.release(request)

    for tag in ("a", "b", "c"):
        env.process(worker(tag, 10.0))
    env.run()
    started = dict((tag, when) for tag, when in order)
    assert started["a"] == 0.0
    assert started["b"] == 0.0
    assert started["c"] == 10.0


def test_resource_context_manager_releases():
    env = Environment()
    resource = Resource(env, capacity=1)

    def worker():
        with resource.request() as request:
            yield request
            yield env.timeout(1.0)

    def follower():
        yield env.timeout(0.5)
        with resource.request() as request:
            yield request
            return env.now

    env.process(worker())
    follower_process = env.process(follower())
    assert env.run(until=follower_process) == 1.0


def test_resource_double_release_is_noop():
    env = Environment()
    resource = Resource(env, capacity=1)
    request = resource.request()
    env.run()
    resource.release(request)
    resource.release(request)
    assert resource.count == 0


def test_resource_invalid_capacity():
    env = Environment()
    with pytest.raises(ValueError):
        Resource(env, capacity=0)


def test_resource_cancel_pending_request():
    env = Environment()
    resource = Resource(env, capacity=1)
    first = resource.request()
    second = resource.request()
    second.cancel()
    resource.release(first)
    assert resource.count == 0
    assert not second.triggered


def test_cancel_spares_granted_requests_and_keeps_fifo_order():
    env = Environment()
    resource = Resource(env, capacity=1)
    held, first, dropped, last = (resource.request() for _ in range(4))
    dropped.cancel()
    held.cancel()  # already granted: a no-op
    assert resource.count == 1 and resource.queue_length == 2
    resource.release(held)
    assert first.triggered and not last.triggered
    resource.release(first)
    assert last.triggered and not dropped.triggered
    assert resource.queue_length == 0


def test_priority_resource_orders_waiters():
    env = Environment()
    resource = PriorityResource(env, capacity=1)
    served = []

    def worker(tag, priority, arrive):
        yield env.timeout(arrive)
        request = resource.request(priority=priority)
        yield request
        served.append(tag)
        yield env.timeout(10.0)
        resource.release(request)

    env.process(worker("holder", 0, 0.0))
    env.process(worker("low", 5, 1.0))
    env.process(worker("high", 1, 2.0))
    env.run()
    assert served == ["holder", "high", "low"]


def test_container_blocks_get_until_available():
    env = Environment()
    container = Container(env, capacity=100, init=0)

    def producer():
        yield env.timeout(5.0)
        yield container.put(10)

    def consumer():
        yield container.get(10)
        return env.now

    env.process(producer())
    consumer_process = env.process(consumer())
    assert env.run(until=consumer_process) == 5.0
    assert container.level == 0


def test_container_blocks_put_at_capacity():
    env = Environment()
    container = Container(env, capacity=10, init=10)

    def producer():
        yield container.put(5)
        return env.now

    def consumer():
        yield env.timeout(3.0)
        yield container.get(5)

    producer_process = env.process(producer())
    env.process(consumer())
    assert env.run(until=producer_process) == 3.0


def test_container_rejects_bad_init():
    env = Environment()
    with pytest.raises(ValueError):
        Container(env, capacity=5, init=6)


def test_container_rejects_negative_amounts():
    env = Environment()
    container = Container(env)
    with pytest.raises(ValueError):
        container.put(-1)
    with pytest.raises(ValueError):
        container.get(-1)


def test_store_fifo_order():
    env = Environment()
    store = Store(env)
    received = []

    def producer():
        for item in ("first", "second", "third"):
            yield store.put(item)
            yield env.timeout(1.0)

    def consumer():
        for _ in range(3):
            item = yield store.get()
            received.append(item)

    env.process(producer())
    env.process(consumer())
    env.run()
    assert received == ["first", "second", "third"]


def test_store_capacity_blocks_put():
    env = Environment()
    store = Store(env, capacity=1)

    def producer():
        yield store.put("a")
        yield store.put("b")
        return env.now

    def consumer():
        yield env.timeout(4.0)
        yield store.get()

    producer_process = env.process(producer())
    env.process(consumer())
    assert env.run(until=producer_process) == 4.0


def test_store_len():
    env = Environment()
    store = Store(env)
    store.put("x")
    env.run()
    assert len(store) == 1

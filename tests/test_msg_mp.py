"""Tests for matched send/receive endpoints."""

import pytest

from repro.machine.config import NetworkConfig
from repro.machine.network import Network
from repro.msg.mp import make_endpoints
from repro.sim import Simulator


def build(p=3):
    sim = Simulator()
    net = Network(sim, NetworkConfig(), p)
    return sim, net, make_endpoints(net)


def test_send_recv_round_trip():
    sim, net, eps = build(2)

    def sender():
        yield from eps[0].send(1, "hello", 16, payload={"k": 1})

    def receiver():
        msg = yield from eps[1].recv(src=0, tag="hello")
        return msg.payload

    sim.process(sender())
    r = sim.process(receiver())
    sim.run()
    assert r.value == {"k": 1}


def test_recv_wildcards():
    sim, net, eps = build(3)

    def sender(pid, tag):
        yield from eps[pid].send(0, tag, 8)

    def receiver():
        first = yield from eps[0].recv()  # any src, any tag
        second = yield from eps[0].recv(tag="b")
        return (first.tag, second.src)

    sim.process(sender(1, "a"))
    sim.process(sender(2, "b"))
    r = sim.process(receiver())
    sim.run()
    assert r.value[0] in ("a", "b")
    assert r.value[1] == 2


def test_out_of_order_matching_buffers_nonmatching():
    sim, net, eps = build(2)
    log = []

    def sender():
        yield from eps[0].send(1, "first", 8)
        yield from eps[0].send(1, "second", 8)

    def receiver():
        msg2 = yield from eps[1].recv(tag="second")
        log.append(msg2.tag)
        msg1 = yield from eps[1].recv(tag="first")
        log.append(msg1.tag)

    sim.process(sender())
    sim.process(receiver())
    sim.run()
    assert log == ["second", "first"]


def test_recv_before_send_blocks():
    sim, net, eps = build(2)
    times = []

    def receiver():
        yield from eps[1].recv(src=0)
        times.append(sim.now)

    def sender():
        yield sim.timeout(5000)
        yield from eps[0].send(1, "x", 8)

    sim.process(receiver())
    sim.process(sender())
    sim.run()
    assert times and times[0] > 5000


def test_two_receivers_same_endpoint_fifo():
    sim, net, eps = build(2)
    got = []

    def receiver(tag):
        msg = yield from eps[1].recv(tag=tag)
        got.append((tag, sim.now))

    def sender():
        yield from eps[0].send(1, "r1", 1024)
        yield from eps[0].send(1, "r2", 8)

    sim.process(receiver("r1"))
    sim.process(receiver("r2"))
    sim.process(sender())
    sim.run()
    assert [g[0] for g in sorted(got, key=lambda g: g[1])] == ["r1", "r2"]

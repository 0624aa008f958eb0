"""Positions, link delays, and the delay-gated connectivity test."""

import math

import numpy as np
import pytest

from dfedsim.topology import (
    DeviceNode,
    LinkModel,
    Position,
    can_connect,
    distance_m,
    random_step,
    transmission_delay,
)


def make_node(node_id=0, x=0.0, y=0.0, **kw):
    return DeviceNode(id=node_id, pos=Position(x, y), **kw)


def test_distance_345_triangle():
    assert distance_m(Position(0.0, 0.0), Position(3.0, 4.0)) == 5.0


def test_delay_zero_distance():
    link = LinkModel()
    assert transmission_delay(link, make_node(), Position(0.0, 0.0)) == 0.0


def test_delay_120m_at_default_rate():
    # 120 m at 1e-3 s/m.
    link = LinkModel()
    delay = transmission_delay(link, make_node(), Position(120.0, 0.0))
    assert delay == pytest.approx(0.12, rel=1e-12)


def test_override_dominates_distance():
    link = LinkModel()
    node = make_node(x=500.0, y=500.0)
    assert transmission_delay(link, node, Position(0.0, 0.0), override_latency_s=0.05) == 0.05


def test_delay_symmetry():
    link = LinkModel()
    rng = np.random.default_rng(101)
    for _ in range(200):
        ax, ay, bx, by = rng.uniform(-300, 300, size=4)
        d_ab = transmission_delay(link, make_node(0, ax, ay), Position(bx, by))
        d_ba = transmission_delay(link, make_node(1, bx, by), Position(ax, ay))
        assert d_ab == d_ba


def test_delay_scales_with_coordinates():
    link = LinkModel()
    rng = np.random.default_rng(102)
    for _ in range(200):
        ax, ay, bx, by = rng.uniform(-300, 300, size=4)
        c = 2.0  # power of two keeps the scaling exact in float
        base = transmission_delay(link, make_node(0, ax, ay), Position(bx, by))
        scaled = transmission_delay(link, make_node(0, c * ax, c * ay), Position(c * bx, c * by))
        assert scaled == pytest.approx(c * base, rel=1e-12)


def test_can_connect_below_cutoff():
    assert can_connect(LinkModel(), 0.05)


def test_can_connect_above_cutoff():
    assert not can_connect(LinkModel(), 0.12)


def test_can_connect_boundary_inclusive():
    assert can_connect(LinkModel(), 0.1)


def test_can_connect_monotone():
    link = LinkModel()
    rng = np.random.default_rng(103)
    for _ in range(500):
        d = rng.uniform(0.0, 0.3)
        if can_connect(link, d):
            assert can_connect(link, rng.uniform(0.0, d))


def test_device_node_validation():
    with pytest.raises(ValueError):
        make_node(battery=120.0)
    with pytest.raises(ValueError):
        make_node(battery=-1.0)
    with pytest.raises(ValueError):
        make_node(bs_latency_s=-0.1)
    with pytest.raises(ValueError):
        DeviceNode(id=0, pos=Position(float("nan"), 0.0))


def test_link_model_validation():
    with pytest.raises(ValueError):
        LinkModel(max_transmission_time_s=0.0)
    with pytest.raises(ValueError):
        LinkModel(delay_per_meter_s=-1e-3)


def test_random_step_stays_within_radius():
    rng = np.random.default_rng(104)
    origin = Position(10.0, -4.0)
    for _ in range(500):
        new = random_step(origin, rng, max_step_m=5.0)
        assert distance_m(origin, new) <= 5.0 + 1e-12


def test_random_step_with_a_zero_bound_stays_put():
    # a config file may spell the bound -0.0, which numpy rejects
    for bound in (0.0, -0.0):
        rng = np.random.default_rng(0)
        assert random_step(Position(1.0, 2.0), rng, max_step_m=bound) == Position(1.0, 2.0)


def test_random_step_deterministic():
    a = random_step(Position(0.0, 0.0), np.random.default_rng(42), max_step_m=5.0)
    b = random_step(Position(0.0, 0.0), np.random.default_rng(42), max_step_m=5.0)
    assert (a.x, a.y) == (b.x, b.y)


def test_random_step_actually_moves():
    # not a hard guarantee, but with 100 draws at least one should move > 1 m
    rng = np.random.default_rng(105)
    moved = [distance_m(Position(0, 0), random_step(Position(0, 0), rng)) for _ in range(100)]
    assert max(moved) > 1.0

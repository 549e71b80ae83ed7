"""Tests for the routing model."""

import pytest

from repro.errors import NetlistError
from repro.fpga.netlist import Netlist
from repro.fpga.placement import Pblock, Placer
from repro.fpga.primitives import FDRE, LUT
from repro.fpga.routing import (
    RoutedConnection,
    Router,
    l_shaped_path,
)
from repro.timing.paths import ROUTING_DELAY_BASE, ROUTING_DELAY_PER_TILE


class TestLShapedPath:
    def test_same_tile(self):
        assert l_shaped_path((3, 4), (3, 4)) == [(3, 4)]

    def test_horizontal(self):
        assert l_shaped_path((0, 0), (3, 0)) == [(0, 0), (1, 0), (2, 0), (3, 0)]

    def test_vertical(self):
        assert l_shaped_path((2, 5), (2, 3)) == [(2, 5), (2, 4), (2, 3)]

    def test_l_shape(self):
        path = l_shaped_path((0, 0), (2, 2))
        assert path[0] == (0, 0)
        assert path[-1] == (2, 2)
        assert len(path) == 5  # 2 horizontal + 2 vertical + start

    def test_negative_direction(self):
        path = l_shaped_path((3, 3), (1, 1))
        assert path[0] == (3, 3)
        assert path[-1] == (1, 1)

    def test_manhattan_length(self):
        path = l_shaped_path((1, 2), (6, 9))
        assert len(path) - 1 == abs(6 - 1) + abs(9 - 2)


class TestRoutedConnection:
    def test_delay_formula(self):
        conn = RoutedConnection("sink", [(0, 0), (1, 0), (2, 0)])
        assert conn.wirelength == 2
        assert conn.delay == pytest.approx(
            ROUTING_DELAY_BASE + 2 * ROUTING_DELAY_PER_TILE
        )


@pytest.fixture()
def routed_pair(basys3_device):
    nl = Netlist("pair")
    nl.add_port("x", "in")
    nl.add_cell(LUT.inverter("a"))
    nl.add_cell(FDRE("b"))
    nl.connect("n_in", ("x", "O"), [("a", "I0")])
    nl.connect("n_ab", ("a", "O"), [("b", "D")])
    placer = Placer(basys3_device)
    placement = placer.place(nl, pblock=Pblock("p", 1, 0, 13, 40))
    routing = Router(basys3_device).route(nl, placement)
    return nl, placement, routing


class TestRouter:
    def test_cell_to_cell_net_routed(self, routed_pair):
        _nl, placement, routing = routed_pair
        net = routing.net("n_ab")
        assert net.driver_cell == "a"
        src = placement.site_of("a")
        dst = placement.site_of("b")
        assert net.connections[0].path[0] == (src.x, src.y)
        assert net.connections[0].path[-1] == (dst.x, dst.y)

    def test_port_nets_skipped(self, routed_pair):
        _nl, _placement, routing = routed_pair
        with pytest.raises(NetlistError):
            routing.net("n_in")

    def test_delay_to_unknown_sink_raises(self, routed_pair):
        _nl, _placement, routing = routed_pair
        with pytest.raises(NetlistError):
            routing.net("n_ab").delay_to("ghost")

    def test_utilization_in_unit_interval(self, routed_pair):
        _nl, _p, routing = routed_pair
        assert 0 < routing.utilization() < 1

    def test_virus_covers_substantial_routing(self, basys3_device):
        """The paper sizes 8,000 virus instances as covering over a
        third of the board's routing; our model's bank lands in that
        regime."""
        from repro.victims.power_virus import PowerVirusBank

        virus = PowerVirusBank(basys3_device, 8000, 8)
        placer = Placer(basys3_device)
        half = basys3_device.width // 2
        placement = virus.place(
            placer,
            [
                Pblock("l", 0, 0, half - 1, 59),
                Pblock("r", half, 0, basys3_device.width - 1, 59),
            ],
        )
        routing = Router(basys3_device).route(virus.netlist(), placement)
        assert routing.utilization() > 0.3

    def test_fanout_net_has_one_connection_per_sink(self, basys3_device):
        nl = Netlist("fan")
        nl.add_cell(LUT.inverter("src"))
        for i in range(5):
            nl.add_cell(FDRE(f"ff{i}"))
        nl.connect(
            "n_fan", ("src", "O"), [(f"ff{i}", "D") for i in range(5)]
        )
        placement = Placer(basys3_device).place(nl)
        routing = Router(basys3_device).route(nl, placement)
        assert len(routing.net("n_fan").connections) == 5

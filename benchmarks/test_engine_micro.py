"""Microbenchmarks of the simulation substrate itself.

These use pytest-benchmark's statistics properly (multiple rounds) since
they are cheap, and guard against performance regressions in the event
loop and link pipeline that would make the figure benchmarks intractable.
"""

from repro.net.network import Network, install_static_routes
from repro.net.packet import Packet
from repro.sim import Simulator
from repro.app.bulk import BulkTransfer
from repro.topologies.dumbbell import DumbbellSpec
from repro.util.units import MBPS


def test_event_loop_throughput(benchmark):
    """Schedule/dispatch cost of the bare event loop (10k events)."""

    def run():
        sim = Simulator()
        count = 0

        def tick():
            nonlocal count
            count += 1
            if count < 10_000:
                sim.schedule_in(0.001, tick)

        sim.schedule(0.0, tick)
        sim.run()
        return count

    assert benchmark(run) == 10_000


def test_link_pipeline_throughput(benchmark):
    """Packets through a 2-hop store-and-forward pipeline (2k packets)."""

    def run():
        net = Network()
        net.add_nodes("a", "b", "c")
        net.add_duplex_link("a", "b", bandwidth=1e9, delay=1e-4, queue=4000)
        net.add_duplex_link("b", "c", bandwidth=1e9, delay=1e-4, queue=4000)
        install_static_routes(net)
        received = []

        class Sink:
            def receive(self, packet):
                received.append(packet.uid)

        net.node("c").agents[1] = Sink()

        def burst():
            for i in range(2000):
                net.node("a").send(Packet("data", "a", "c", flow_id=1, seq=i))

        net.sim.schedule(0.0, burst)
        net.run(until=10.0)
        return len(received)

    assert benchmark(run) == 2000


def test_tcp_pr_flow_simulation_rate(benchmark):
    """A 5-second TCP-PR flow over a dumbbell (end-to-end stack cost)."""

    def run():
        net = DumbbellSpec(
            num_pairs=1, bottleneck_bandwidth=10 * MBPS, seed=1
        ).build().network
        flow = BulkTransfer(net, "tcp-pr", "s0", "d0", flow_id=1)
        net.run(until=5.0)
        return flow.delivered_segments

    delivered = benchmark(run)
    assert delivered > 1000


def test_sack_flow_simulation_rate(benchmark):
    """The same end-to-end cost for the SACK baseline."""

    def run():
        net = DumbbellSpec(
            num_pairs=1, bottleneck_bandwidth=10 * MBPS, seed=1
        ).build().network
        flow = BulkTransfer(net, "sack", "s0", "d0", flow_id=1)
        net.run(until=5.0)
        return flow.delivered_segments

    delivered = benchmark(run)
    assert delivered > 1000

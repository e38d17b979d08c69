#!/usr/bin/env python3
"""Quickstart: a single TCP-PR flow over one bottleneck link.

Builds the smallest possible scenario — two hosts, one router pair, one
bottleneck — runs a TCP-PR bulk transfer for ten seconds, and prints the
throughput plus the sender's internal statistics, so you can see the
timer-based machinery (ewrtt/mxrtt, window cuts) at work.

Run:
    python examples/quickstart.py
"""

from repro import BulkTransfer, DumbbellSpec
from repro.obs import CwndMonitor
from repro.util.units import MBPS, fmt_bandwidth, fmt_time

DURATION = 10.0


def main() -> None:
    # A 10 Mbps / 10 ms bottleneck with one sender/receiver pair.
    spec = DumbbellSpec(
        num_pairs=1,
        bottleneck_bandwidth=10 * MBPS,
        bottleneck_delay=0.010,
        seed=42,
    )
    net = spec.build().network

    flow = BulkTransfer(net, "tcp-pr", "s0", "d0", flow_id=1)
    cwnd_monitor = CwndMonitor(net.sim, flow.sender, interval=0.1)

    net.run(until=DURATION)

    sender = flow.sender
    print("TCP-PR quickstart")
    print(f"  simulated time     : {DURATION:.0f} s")
    print(f"  bottleneck         : {fmt_bandwidth(spec.bottleneck_bandwidth)}, "
          f"{fmt_time(spec.bottleneck_delay)} one-way")
    print(f"  segments delivered : {flow.delivered_segments}")
    print(f"  goodput            : {fmt_bandwidth(flow.throughput_bps(DURATION))}")
    print(f"  utilization        : "
          f"{flow.throughput_bps(DURATION) / spec.bottleneck_bandwidth:.1%}")
    print("sender state")
    print(f"  cwnd               : {sender.cwnd:.1f} segments "
          f"(peak {cwnd_monitor.max_cwnd():.0f})")
    print(f"  mode               : {sender.mode}")
    print(f"  ewrtt / mxrtt      : {fmt_time(sender.ewrtt)} / {fmt_time(sender.mxrtt)}")
    print(f"  drops detected     : {sender.stats.drops_detected}")
    print(f"  window cuts        : {sender.stats.window_cuts}")
    print(f"  retransmissions    : {sender.stats.retransmits}")
    print(f"  extreme-loss events: {sender.stats.extreme_events}")


if __name__ == "__main__":
    main()

"""Tie-order pin for the routing layer's own Dijkstra.

``tests/golden/routing_tables.json`` was generated once at the last
commit that routed through networkx (3.6.1).  For every topology below
it holds each node's ``routes`` as an *ordered* list of ``[dst, hop]``
pairs (dict order is settle order, and equal-cost ties decide both the
order and the hop) and the ``PathSet`` of ``discover_paths`` for every
sender/receiver pair that resolves.  ``repro.net.network.dijkstra`` must
reproduce all of it exactly; nothing here imports networkx.  The
differential against a live networkx is ``test_routing_differential.py``.

The k=8 fat-tree alone is 790 KB of tables (20592 routes, 4032 path
sets), so the file keeps only their SHA-256; the k=4 trees have the same
tie structure and stay readable.

Regenerate (only ever to add a topology, never to paper over a diff)::

    PYTHONPATH=src python tests/test_routing_golden.py
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Any, Dict

import pytest

from repro.routing.multipath import discover_paths
from repro.sim.errors import SimulationError
from repro.topologies import (
    DumbbellSpec,
    FatTreeSpec,
    MultipathMeshSpec,
    ParkingLotSpec,
    WanMeshSpec,
)

GOLDEN_PATH = Path(__file__).parent / "golden" / "routing_tables.json"

#: Topologies whose tables are committed as a digest, not in full.
DIGEST_ONLY = ("fat-tree-k8",)

SPECS: Dict[str, Any] = {
    "dumbbell": DumbbellSpec(),
    "parking-lot": ParkingLotSpec(),
    "multipath-mesh": MultipathMeshSpec(),
    "fat-tree-k4": FatTreeSpec(k=4),
    "fat-tree-k8": FatTreeSpec(k=8),
    "fat-tree-k4-jitter": FatTreeSpec(k=4, delay_jitter=0.1, seed=5),
    **{f"wan-mesh-seed{seed}": WanMeshSpec(seed=seed) for seed in range(8)},
}


def routing_tables(spec: Any) -> Dict[str, Any]:
    """Everything the shortest-path code decides on one built topology."""
    topology = spec.build()
    network = topology.network
    peels = {}
    for src in topology.senders:
        for dst in topology.receivers:
            if src == dst:
                continue
            try:
                path_set = discover_paths(network, src, dst)
            except SimulationError:
                continue
            peels[f"{src}->{dst}"] = {
                "paths": [list(path) for path in path_set.paths],
                "costs": path_set.costs,
            }
    return {
        "routes": {
            name: [list(pair) for pair in node.routes.items()]
            for name, node in network.nodes.items()
        },
        "path_sets": peels,
    }


def _digest(tables: Dict[str, Any]) -> Dict[str, Any]:
    text = json.dumps(tables, separators=(",", ":"), sort_keys=True)
    return {
        "sha256": hashlib.sha256(text.encode()).hexdigest(),
        "routes": sum(len(row) for row in tables["routes"].values()),
        "path_sets": len(tables["path_sets"]),
    }


@pytest.mark.parametrize("name", list(SPECS))
def test_routing_tables_match_networkx_golden(name):
    golden = json.loads(GOLDEN_PATH.read_text())[name]
    # Through JSON and back, so floats and containers normalize exactly
    # the way the committed file did; lists keep the order under test.
    produced = json.loads(json.dumps(routing_tables(SPECS[name]), sort_keys=True))
    if name in DIGEST_ONLY:
        assert _digest(produced) == golden
    else:
        assert produced["routes"] == golden["routes"]
        assert produced["path_sets"] == golden["path_sets"]


if __name__ == "__main__":
    tables = {name: routing_tables(spec) for name, spec in SPECS.items()}
    for name in DIGEST_ONLY:
        tables[name] = _digest(tables[name])
    GOLDEN_PATH.write_text(
        json.dumps(tables, separators=(",", ":"), sort_keys=True) + "\n"
    )
    print(f"wrote {GOLDEN_PATH}")

"""The scaling-topology study: spec grid, trial cells, and the campaign.

Runs the real trial function at a deliberately small node count — the
full 1k/10k sweep lives in ``benchmarks/`` and CI's scale-routes-memory
job — and pins the properties the campaign gates on: networkx/CSR digests
agree (bit-identity), structure bytes favour the CSR + entry-run arm, and
the outcome summary carries the ratio the CI assertion reads.
"""

from __future__ import annotations

import pytest

from repro.experiments.config import scale_by_name
from repro.experiments.scaling_topology import (
    MODES,
    ScalingTopologyResult,
    ScalingTopologyRow,
    merge_scaling_topology,
    run_scaling_topology,
    scaling_topology_specs,
)
from repro.runner.campaign import CAMPAIGNS


@pytest.fixture(scope="module")
def result() -> ScalingTopologyResult:
    return run_scaling_topology(
        scale_by_name("tiny"), seed=17, sizes=[200], workers=1, executor=None
    )


def test_specs_cover_every_size_and_mode():
    specs = scaling_topology_specs(scale_by_name("tiny"), seed=17)
    assert [spec.params["num_nodes"] for spec in specs] == [200, 200, 500, 500]
    assert [spec.params["mode"] for spec in specs] == list(MODES) * 2
    assert all(spec.campaign == "scaling-topology" for spec in specs)
    # Explicit sizes override the scale's defaults.
    small = scaling_topology_specs(scale_by_name("paper"), seed=17, sizes=[64])
    assert [spec.params["num_nodes"] for spec in small] == [64, 64]


def test_cells_are_bit_identical_and_sparse_is_lighter(result):
    assert result.bit_identical()
    dense = result.cell(200, "dense")
    sparse = result.cell(200, "sparse")
    assert dense.route_digest == sparse.route_digest
    assert dense.estimate_digest == sparse.estimate_digest
    # Same derived system in both modes.
    assert dense.num_links == sparse.num_links
    assert dense.num_paths == sparse.num_paths
    assert dense.num_equations == sparse.num_equations
    # The tentpole: construction + equation storage shrink together.
    assert dense.construction_bytes > sparse.construction_bytes
    assert dense.equation_storage_bytes > sparse.equation_storage_bytes
    assert result.memory_ratios()[200] >= 3.0
    assert dense.peak_traced_bytes > 0 and sparse.peak_traced_bytes > 0


def test_table_and_campaign_summary_expose_the_gate(result):
    table = result.to_table()
    assert "struct MB" in table and "estimate digest" in table
    definition = CAMPAIGNS["scaling-topology"]
    summary = definition.summarize(result)
    assert summary["bit_identical"] is True
    assert summary["memory_ratios"]["200"] >= 3.0
    (dense_row, sparse_row) = summary["rows"]
    assert dense_row["structure_bytes"] > sparse_row["structure_bytes"]
    rendered = definition.render(result)
    assert "bit-identical across modes: True" in rendered


def test_bit_identical_requires_both_modes():
    row = ScalingTopologyRow(
        num_nodes=10,
        mode="dense",
        num_links=1,
        num_paths=1,
        num_unknowns=1,
        num_equations=1,
        build_seconds=0.0,
        fit_seconds=0.0,
        construction_bytes=1,
        equation_storage_bytes=1,
        peak_traced_bytes=1,
        rss_bytes=1.0,
        route_digest="a",
        estimate_digest="b",
    )
    lonely = ScalingTopologyResult(rows=[row])
    assert not lonely.bit_identical()  # nothing was actually compared
    assert lonely.memory_ratios() == {}


def test_merge_orders_rows(result):
    class _Trial:
        def __init__(self, payload):
            self.payload = payload

    shuffled = merge_scaling_topology(
        [_Trial(row) for row in reversed(result.rows)]
    )
    assert [(r.num_nodes, r.mode) for r in shuffled.rows] == [
        (200, "dense"),
        (200, "sparse"),
    ]

"""Tests for named campaigns, JSON sweep specs, and on-disk results."""

from __future__ import annotations

import json
import os

import pytest

from repro.runner.campaign import (
    CAMPAIGNS,
    CampaignSpec,
    load_campaign_spec,
    run_campaign,
    validate_output_dir,
    write_outcome,
)


def test_registry_contents():
    assert set(CAMPAIGNS) == {
        "figure3",
        "figure4",
        "scaling",
        "ablation",
        "realworld",
        "mitigation",
        "scaling-topology",
    }
    for definition in CAMPAIGNS.values():
        assert definition.description


def test_spec_validation():
    with pytest.raises(ValueError, match="unknown campaign"):
        CampaignSpec(campaign="figure9")
    with pytest.raises(ValueError, match="replicates"):
        CampaignSpec(campaign="scaling", replicates=0)
    with pytest.raises(ValueError, match="serve_port"):
        CampaignSpec(campaign="scaling", serve_port=99999)
    with pytest.raises(ValueError, match="serve_port"):
        CampaignSpec(campaign="scaling", serve_port=0)
    assert CampaignSpec(campaign="scaling", serve_port=9109).serve_port == 9109


def test_load_spec(tmp_path):
    path = tmp_path / "sweep.json"
    path.write_text(
        json.dumps({"campaign": "scaling", "scale": "small", "seed": 9, "workers": 2})
    )
    spec = load_campaign_spec(path)
    assert spec.campaign == "scaling"
    assert spec.seed == 9
    assert spec.workers == 2
    assert spec.replicates == 1


def test_load_spec_rejects_unknown_keys(tmp_path):
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps({"campaign": "scaling", "bogus": 1}))
    with pytest.raises(ValueError, match="unknown keys"):
        load_campaign_spec(path)


def test_load_spec_requires_campaign(tmp_path):
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps({"scale": "small"}))
    with pytest.raises(ValueError, match="missing 'campaign'"):
        load_campaign_spec(path)


def test_load_spec_rejects_non_object(tmp_path):
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(["scaling"]))
    with pytest.raises(ValueError, match="JSON object"):
        load_campaign_spec(path)


@pytest.fixture(scope="module")
def scaling_outcome():
    """A replicated scaling campaign, sharded over two processes."""
    spec = CampaignSpec(campaign="scaling", seed=3, workers=2, replicates=2)
    return run_campaign(spec)


def test_run_campaign_replicates(scaling_outcome):
    outcome = scaling_outcome
    assert len(outcome.replicates) == 2
    assert len(set(outcome.seeds)) == 2
    assert outcome.num_trials == 6
    assert outcome.elapsed > 0.0
    for replicate in outcome.replicates:
        assert "naive bound" in replicate.rendered
        assert len(replicate.summary["rows"]) == 3
        assert replicate.result.num_paths > 0


def test_run_campaign_reports_shards(scaling_outcome):
    reported = [name for report in scaling_outcome.shards for name, _ in report.trials]
    assert len(reported) == 6
    assert all(name.startswith("scaling") for name in reported)


def test_replicates_match_direct_runs(scaling_outcome):
    """Replicate results equal a direct run at the replicate's seed."""
    from repro.experiments.config import SMALL
    from repro.experiments.scaling import run_algorithm1_scaling

    for replicate in scaling_outcome.replicates:
        direct = run_algorithm1_scaling(SMALL, seed=replicate.seed)
        assert [row.num_equations for row in direct.rows] == [
            row.num_equations for row in replicate.result.rows
        ]
        assert [row.rank for row in direct.rows] == [
            row.rank for row in replicate.result.rows
        ]


def test_write_outcome(scaling_outcome, tmp_path):
    path = write_outcome(scaling_outcome, tmp_path / "results")
    assert path.exists()
    payload = json.loads(path.read_text())
    assert payload["campaign"] == "scaling"
    assert payload["num_trials"] == 6
    assert len(payload["replicates"]) == 2
    assert payload["shards"]
    for shard in payload["shards"]:
        assert shard["trials"]
        assert shard["elapsed_s"] >= 0.0


def test_spec_executor_validation():
    assert CampaignSpec(campaign="scaling").executor == "process"
    for mode in ("thread", "process"):
        assert CampaignSpec(campaign="scaling", executor=mode).executor == mode
    for mode in ("auto", "greenlet"):
        with pytest.raises(ValueError, match="unknown executor"):
            CampaignSpec(campaign="scaling", executor=mode)


def test_load_spec_with_executor(tmp_path):
    path = tmp_path / "sweep.json"
    path.write_text(
        json.dumps({"campaign": "scaling", "workers": 2, "executor": "thread"})
    )
    assert load_campaign_spec(path).executor == "thread"


def test_load_spec_rejects_auto_executor(tmp_path):
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps({"campaign": "scaling", "executor": "auto"}))
    with pytest.raises(ValueError, match="unknown executor 'auto'"):
        load_campaign_spec(path)


def test_thread_campaign_matches_process_campaign():
    thread = run_campaign(
        CampaignSpec(campaign="scaling", scale="tiny", workers=2, executor="thread")
    )
    process = run_campaign(
        CampaignSpec(campaign="scaling", scale="tiny", workers=2, executor="process")
    )

    def stable(outcome):
        # Everything but each point's own wall clock is deterministic.
        return [
            {key: value for key, value in row.items() if key != "seconds"}
            for row in outcome.replicates[0].summary["rows"]
        ]

    assert stable(thread) == stable(process)


def test_outcome_json_records_executor(scaling_outcome, tmp_path):
    payload = json.loads(
        write_outcome(scaling_outcome, tmp_path / "results").read_text()
    )
    assert payload["executor"] == scaling_outcome.spec.executor


def test_validate_output_dir_creates_nested_path(tmp_path):
    target = tmp_path / "a" / "b" / "results"
    assert validate_output_dir(target) == target
    assert target.is_dir()
    # Idempotent on an existing directory.
    assert validate_output_dir(target) == target


def test_validate_output_dir_rejects_file(tmp_path):
    clobber = tmp_path / "occupied"
    clobber.write_text("{}")
    with pytest.raises(ValueError, match="not a directory"):
        validate_output_dir(clobber)
    # A parent that is a file blocks creation, too.
    with pytest.raises(ValueError, match="cannot create"):
        validate_output_dir(clobber / "nested")


def test_validate_output_dir_rejects_unwritable(tmp_path):
    if os.geteuid() == 0:
        pytest.skip("root bypasses permission bits")
    locked = tmp_path / "locked"
    locked.mkdir(mode=0o500)
    try:
        with pytest.raises(ValueError, match="not writable"):
            validate_output_dir(locked)
    finally:
        locked.chmod(0o700)

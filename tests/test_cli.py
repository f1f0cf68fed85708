"""Tests for the command-line interface."""

import hashlib

import pytest

from repro.cli import build_parser, main


def test_parser_has_subcommands():
    parser = build_parser()
    args = parser.parse_args(["memcached", "--cores", "4", "--fixed"])
    assert args.cores == 4
    assert args.fixed
    args = parser.parse_args(["apache", "--period", "18000", "--admission", "8"])
    assert args.period == 18000
    assert args.admission == 8
    args = parser.parse_args(["diagnose"])
    assert args.command == "diagnose"


def test_missing_command_errors():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


@pytest.mark.slow
def test_cli_memcached_stock_runs(capsys):
    rc = main(["memcached", "--cores", "4", "--duration", "250000"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "throughput:" in out
    assert "Data profile view" in out
    assert "size-1024" in out
    assert "Lock statistics" in out


@pytest.mark.slow
def test_cli_memcached_fixed_runs(capsys):
    rc = main(["memcached", "--cores", "4", "--duration", "250000", "--fixed"])
    assert rc == 0
    assert "fixed (local TX queues)" in capsys.readouterr().out


def test_bad_fault_spec_exits_with_usage_error():
    with pytest.raises(SystemExit, match="unknown fault model"):
        main(
            [
                "memcached",
                "--cores",
                "2",
                "--duration",
                "100000",
                "--inject-faults",
                "cosmic_rays=0.5",
            ]
        )


@pytest.mark.slow
@pytest.mark.filterwarnings("ignore::repro.errors.DegradedDataWarning")
def test_cli_faulted_run_reports_quality_and_degraded_exit(capsys):
    rc = main(
        [
            "memcached",
            "--cores",
            "4",
            "--duration",
            "250000",
            "--interval",
            "50",
            "--inject-faults",
            "ibs_drop=0.1,seed=7",
        ]
    )
    assert rc == 3
    out = capsys.readouterr().out
    assert "Data quality report" in out
    assert "FaultPlan(seed=7" in out
    assert "confidence:" in out


#: stdout SHA-256 and exit code of ``repro diagnose`` at its default
#: flags and under heavy injected faults (exit 4: poor data).
DIAGNOSE_PINS = {
    (): ("a147653fe9fd5891960ecb0e5b4e7387f4ec60608f96f10769fa1b42d25a2b31", 0),
    ("--inject-faults", "ibs_drop=0.6,trap_miss=0.6,history_truncation=0.6"): (
        "1345e4e57c1fda4757fc7b6ed7d44eaeb70998c496b6730cbf97b248816aebd6",
        4,
    ),
}


@pytest.mark.slow
@pytest.mark.filterwarnings("ignore::repro.errors.DegradedDataWarning")
@pytest.mark.parametrize("flags", sorted(DIAGNOSE_PINS), ids=["default", "faulted"])
def test_cli_diagnose_output_is_pinned(capsys, flags):
    rc = main(["diagnose", *flags])
    out = capsys.readouterr().out
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert (digest, rc) == DIAGNOSE_PINS[flags]


@pytest.mark.slow
def test_cli_apache_runs(capsys):
    rc = main(
        ["apache", "--cores", "4", "--duration", "400000", "--period", "25000"]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "apache on 4 cores" in out
    assert "mean accept wait" in out


def test_cli_version_flag(capsys):
    from repro import __version__

    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert __version__ in capsys.readouterr().out


def test_cli_list_scenarios(capsys):
    rc = main(["list-scenarios"])
    assert rc == 0
    out = capsys.readouterr().out
    for name in ("memcached", "apache", "synthetic"):
        assert name in out
    assert "duration" in out  # header with per-scenario defaults


def test_parser_has_service_subcommands():
    parser = build_parser()
    args = parser.parse_args(["serve", "--workers", "3", "--queue-size", "9"])
    assert args.workers == 3
    assert args.queue_size == 9
    args = parser.parse_args(
        ["submit", "--port", "7777", "memcached", "--seed", "3", "--wait"]
    )
    assert args.port == 7777
    assert args.wait
    args = parser.parse_args(["fetch", "--port", "7777", "job-1", "--view", "quality"])
    assert args.view == "quality"
    args = parser.parse_args(["run-once", "synthetic", "--seed", "2"])
    assert args.command == "run-once"


def test_cli_run_once_executes_and_stores(tmp_path, capsys):
    rc = main(
        [
            "run-once", "synthetic",
            "--seed", "5",
            "--duration", "80000",
            "--store", str(tmp_path),
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "ok" in out
    assert "archive" in out
    assert list(tmp_path.glob("*.session.json"))


def test_cli_submit_rejects_bad_spec():
    with pytest.raises(SystemExit, match="bad job spec"):
        main(
            [
                "run-once", "synthetic",
                "--seed", "1",
                "--inject-faults", "warp_drive=1",
            ]
        )


# ----------------------------------------------------------------------
# Client-side resilience: _rpc_resilient retry/backoff behavior
# ----------------------------------------------------------------------


def _client_args(retry=3, timeout=5.0):
    import argparse

    return argparse.Namespace(
        host="127.0.0.1", port=1, timeout=timeout, retry=retry
    )


class _FixedJitter:
    def random(self):
        return 1.0  # full ceiling, no randomness in the schedule


def _patch_rpc(monkeypatch, responses):
    """request_once returns/raises the next scripted item per call."""
    calls = []

    def fake_request_once(host, port, message, timeout=30.0):
        calls.append(dict(message))
        item = responses.pop(0)
        if isinstance(item, Exception):
            raise item
        return item

    monkeypatch.setattr(
        "repro.serve.protocol.request_once", fake_request_once
    )
    return calls


def test_rpc_resilient_retries_queue_full_then_succeeds(monkeypatch):
    from repro.cli import _rpc_resilient

    calls = _patch_rpc(
        monkeypatch,
        [
            {"ok": False, "code": "queue_full", "retry_after_s": 0.5},
            {"ok": False, "code": "queue_full", "retry_after_s": 0.5},
            {"ok": True, "job_id": "job-1"},
        ],
    )
    slept = []
    response = _rpc_resilient(
        _client_args(retry=3),
        {"op": "submit"},
        sleep=slept.append,
        clock=lambda: 0.0,
        rng=_FixedJitter(),
    )
    assert response["ok"] and response["job_id"] == "job-1"
    assert len(calls) == 3
    # The server's retry_after_s hint drives the backoff ceiling.
    assert slept == [0.5, 0.5]


def test_rpc_resilient_retries_connection_errors(monkeypatch):
    from repro.cli import _rpc_resilient

    _patch_rpc(
        monkeypatch,
        [ConnectionRefusedError("down"), {"ok": True, "job_id": "job-2"}],
    )
    response = _rpc_resilient(
        _client_args(retry=2),
        {"op": "submit"},
        sleep=lambda s: None,
        clock=lambda: 0.0,
        rng=_FixedJitter(),
    )
    assert response["ok"]


def test_rpc_resilient_gives_up_after_budget(monkeypatch):
    from repro.cli import _rpc_resilient

    calls = _patch_rpc(
        monkeypatch,
        [{"ok": False, "code": "queue_full", "retry_after_s": 0.1}] * 3,
    )
    with pytest.raises(SystemExit, match="giving up after 3 attempt"):
        _rpc_resilient(
            _client_args(retry=2),
            {"op": "submit"},
            sleep=lambda s: None,
            clock=lambda: 0.0,
            rng=_FixedJitter(),
        )
    assert len(calls) == 3


def test_rpc_resilient_does_not_retry_hard_rejects(monkeypatch):
    from repro.cli import _rpc_resilient

    calls = _patch_rpc(
        monkeypatch, [{"ok": False, "code": "draining", "error": "draining"}]
    )
    response = _rpc_resilient(
        _client_args(retry=5),
        {"op": "submit"},
        sleep=lambda s: None,
        clock=lambda: 0.0,
    )
    assert response["code"] == "draining"
    assert len(calls) == 1  # a reject retrying cannot fix is immediate


def test_rpc_resilient_stops_at_deadline(monkeypatch):
    from repro.cli import _rpc_resilient

    calls = _patch_rpc(
        monkeypatch,
        [{"ok": False, "code": "queue_full", "retry_after_s": 60.0}] * 10,
    )
    now = [0.0]

    def sleep(seconds):
        now[0] += seconds

    # Budget is timeout x (retry+1) = 10 s; the 60 s hint is capped to
    # the 5 s max delay, so the deadline cuts the run to 3 of 10 tries.
    with pytest.raises(SystemExit, match="giving up after 3 attempt"):
        _rpc_resilient(
            _client_args(retry=9, timeout=1.0),
            {"op": "submit"},
            sleep=sleep,
            clock=lambda: now[0],
            rng=_FixedJitter(),
        )
    assert len(calls) == 3


def test_rpc_resilient_zero_retries_is_fail_fast(monkeypatch):
    from repro.cli import _rpc_resilient

    def refuse(host, port, message, timeout=30.0):
        raise ConnectionRefusedError("down")

    monkeypatch.setattr("repro.serve.protocol.request_once", refuse)
    with pytest.raises(SystemExit, match="cannot reach server"):
        _rpc_resilient(_client_args(retry=0), {"op": "submit"})


def test_submit_wait_stops_on_a_status_error(monkeypatch, capsys):
    # A restarted server no longer knows the job: its status reply is an
    # error with no "job", which polling again cannot fix.
    polls = []

    def status(args, message):
        assert not polls, "polled again after an error reply"
        polls.append(message)
        return {"ok": False, "error": "unknown job 'job-1'"}

    monkeypatch.setattr(
        "repro.cli._rpc_resilient",
        lambda args, message: {"ok": True, "job_id": "job-1"},
    )
    monkeypatch.setattr("repro.cli._rpc", status)
    rc = main(
        ["submit", "--port", "1", "synthetic", "--wait", "--poll-interval", "0"]
    )
    assert rc == 1
    assert polls == [{"op": "status", "job_id": "job-1"}]
    assert "unknown job 'job-1'" in capsys.readouterr().err


def test_cluster_parser_flags():
    parser = build_parser()
    args = parser.parse_args(
        [
            "cluster", "--node-id", "n1",
            "--heartbeat-interval", "0.2",
            "--suspect-after", "0.8",
            "--dead-after", "1.6",
            "--lease-timeout", "1.6",
            "--workers", "2",
        ]
    )
    assert args.command == "cluster"
    assert args.node_id == "n1"
    assert args.heartbeat_interval == 0.2
    assert args.lease_timeout == 1.6
    args = parser.parse_args(["submit", "--port", "1", "--retry", "4", "synthetic"])
    assert args.retry == 4


def test_cli_list_scenarios_shows_params_and_kernel_families(capsys):
    rc = main(["list-scenarios"])
    assert rc == 0
    out = capsys.readouterr().out
    from repro.workloads import SCENARIO_DEFAULTS

    for name, defaults in SCENARIO_DEFAULTS.items():
        assert name in out
        assert defaults.params in out
    # One params: line per scenario, indented under its row.
    assert out.count("params:") == len(SCENARIO_DEFAULTS)
    for family in ("kernel-strided", "kernel-pingpong", "kernel-ring"):
        assert family in out


def test_parser_metrics_and_fetch_metrics_view():
    parser = build_parser()
    args = parser.parse_args(["metrics", "--port", "7777", "job-1"])
    assert args.target == "job-1"
    assert args.port == 7777
    args = parser.parse_args(["metrics", "kernel-ring", "--run", "--seed", "3"])
    assert args.run and args.seed == 3
    args = parser.parse_args(
        ["fetch", "--port", "7777", "job-1", "--view", "metrics"]
    )
    assert args.view == "metrics"


def test_cli_metrics_requires_a_source():
    with pytest.raises(SystemExit, match="metrics needs --port"):
        main(["metrics"])
    with pytest.raises(SystemExit, match="needs a scenario name"):
        main(["metrics", "--run"])


def test_cli_metrics_archive_path_matches_inline_run(tmp_path, capsys):
    # Path A: run-once lands an archive in the store...
    rc = main(
        [
            "run-once", "kernel-counters",
            "--seed", "11",
            "--store", str(tmp_path),
        ]
    )
    assert rc == 0
    capsys.readouterr()
    (archive,) = tmp_path.glob("*.session.json")
    rc = main(["metrics", str(archive)])
    assert rc == 0
    from_archive = capsys.readouterr().out

    # ...Path B: the same spec executed inline by `metrics --run`.
    rc = main(["metrics", "kernel-counters", "--run", "--seed", "11"])
    assert rc == 0
    from_run = capsys.readouterr().out

    assert from_archive.startswith("== top-down metrics ")
    assert from_archive == from_run
    assert "MPKI" in from_archive and "sharing" in from_archive

"""Golden archive digests: the bytes a (scenario, seed) exports, pinned.

Session archives are a pure function of (scenario, seed, duration): the
simulator, the profiler's sampling and the JSON encoding are all
seed-driven and order-stable.  These SHA-256 values were generated once
and must never change; a refactor that moves one has changed what the
simulator or the profiler records, not just how fast it does so.

Two shapes are pinned:

- one ``execute_job`` session per builtin scenario and per generated
  kernel family (the serve / ``run-once`` path: IBS samples, counters,
  layout, no histories);
- one history-collecting session per case study
  (``collect_history_session``: IBS samples plus pairwise skbuff
  debug-register histories, the input of every path-trace view).
"""

import hashlib
import json

import pytest

from repro.api import (
    JobSpec,
    collect_history_session,
    execute_job,
    export_session,
)

SEED = 11
DURATION = 100_000

JOB_ARCHIVES = {
    "memcached": "e123f9ffbcd7312f64a99b59c63a6ec85c0cc14625d34ba705f73fbe7b3f0177",
    "apache": "21ad49f872cd5c641f8f12f6573d5ed6442fc6a35414d68dddb211c8db69dd44",
    "synthetic": "aefa07d86797944b417c7f4e99bf9c4b7a168b3a2cf5d01028e615cadf8b36c4",
    "kernel-chase": "a1b5e4ba4edec73d3c22ef5aa6ea2091ef5be6f2f49a969bcdaa5f9b708c006a",
    "kernel-counters": "d4f3fa94dfb74029cc241dac80a872951ad557d2f7aa8f367dbaa72047408203",
    "kernel-pingpong": "a49678ef06c2fc6c8c1359b018c35dc02e12ff4ce66011eeff7d8938e63665e8",
    "kernel-ring": "c52114ccaf67869e3725902077600a0f57959d735dfd3995ffd6f36a17ebc89a",
    "kernel-stream": "30ff0502ec77033eb3b8f368dc1d81b9c95bde6af3605a4a3efc09fea89d682a",
    "kernel-strided": "0ea40898ce3ea76c2cfed4298ce4e58c69713ef9e2d1d0aeecee88beab663cf1",
}

HISTORY_ARCHIVES = {
    "memcached": "456191fd31f6d81756e661b0f6557b4824dfd75de7c592592b56c7f760378e0a",
    "apache": "1ec37fa05020279705748349cb91721590019b7084f913ebc1c3b4c2db5fff8e",
}


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("scenario", sorted(JOB_ARCHIVES))
def test_job_archive_matches_golden(scenario):
    spec = JobSpec.create(scenario=scenario, seed=SEED, duration=DURATION)
    _status, archive_text, _info = execute_job(spec)
    assert _sha256(archive_text) == JOB_ARCHIVES[scenario]


@pytest.mark.parametrize("scenario", sorted(HISTORY_ARCHIVES))
def test_history_archive_matches_golden(scenario):
    dprof = collect_history_session(scenario, ncores=4, seed=SEED)
    archive_text = json.dumps(export_session(dprof))
    assert _sha256(archive_text) == HISTORY_ARCHIVES[scenario]

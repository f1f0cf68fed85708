"""Golden view digests: the text every view renders from a golden archive.

The archives of ``tests/test_golden_archives.py`` (seed 11, every
builtin scenario and kernel family, plus the two history-collecting
case studies) are stored and rendered as all six DProf views through
``SessionStore.render_view(..., use_cache=False)``.  The SHA-256 of each
rendered text is pinned here, so a change to decoding, path-trace
building, the offline cache simulation or a view's rendering that
alters what a user reads fails this file, even when the archive bytes
stay the same.

``miss-class`` and ``data-flow`` are rendered for ``skbuff``, as the
benchmark and the case studies do; the job archives carry no
histories, so those two views are the same empty rendering for each.

The four views a detached ``DProf`` builds itself are pinned as well,
from the same history-collecting sessions before they are exported:
what the in-process user reads is held fixed just like what a served
archive renders.
"""

import hashlib
import json

import pytest

from repro.api import (
    JobSpec,
    SessionStore,
    collect_history_session,
    execute_job,
    export_session,
)
from tests.test_golden_archives import DURATION, HISTORY_ARCHIVES, JOB_ARCHIVES, SEED

#: (view, type) in the order a full render asks for them.
VIEWS = (
    ("data-profile", None),
    ("working-set", None),
    ("miss-class", "skbuff"),
    ("data-flow", "skbuff"),
    ("quality", None),
    ("metrics", None),
)

# Renderings several archives share.
NO_HISTORY_MISS_CLASS = "5e68eebdd95a866bf5f1948620db7f9752082141e0f4aa6387c7df3002ebeb16"
NO_HISTORY_DATA_FLOW = "598a2dbff2666ee18c139d08c9b9845309f38887f71bfaaf79caeeb94813337d"
EMPTY_WORKING_SET = "0473f7fa42db4d730117d83fd8de7b7f26f55e56d56a50ab340c466d405175e9"
EMPTY_DATA_PROFILE = "854050595ee7cae201320ac8c620c1cee9e0ec3876ce3f234224492c5fc4c67a"
NO_SAMPLES_QUALITY = "e3928021c01dd5c09cb87f31248edcc1b14e7536bae54ff3d42e1a38df745b84"

JOB_VIEWS = {
    "memcached": {
        "data-profile": "39414f5d38b42bfa79c96ba5ac6a258c3951df01117980f5442fcd915bf0e4bb",
        "working-set": "b9973688accc3f02854db7de1af5a999b50f2b299f44b4bc927d6956b1131d1f",
        "miss-class": NO_HISTORY_MISS_CLASS,
        "data-flow": NO_HISTORY_DATA_FLOW,
        "quality": "253c70414f9c767e2c8d7fcec914b593508e81727a8c1cc5f9cb2ff8ff81b5c3",
        "metrics": "f63e075026c5fdf975ae56e501a7376375409cd1b798002f61b7a405a2ea8886",
    },
    "apache": {
        "data-profile": "2fcfabfa95ef3267d8a0b12ddbb070c2b9b98608d5c00ace93648afa30c72306",
        "working-set": "ad16f0a53c58e980e6676cf0175e28f076eb8c3d3aed6b17b24784d396dc4156",
        "miss-class": NO_HISTORY_MISS_CLASS,
        "data-flow": NO_HISTORY_DATA_FLOW,
        "quality": "d621197dc1bcc73fa686997ee0f67d16b3c4cb2ccd602f1858867b32baa0b5bb",
        "metrics": "bb763a4e05114f0541cb62bc52643789e20d735261e89aeab922c5c9b2347903",
    },
    "synthetic": {
        "data-profile": "57d1b0ceabd5ec9dc0f16883dff5eda145d959756b06e491a755691091ba6249",
        "working-set": EMPTY_WORKING_SET,
        "miss-class": NO_HISTORY_MISS_CLASS,
        "data-flow": NO_HISTORY_DATA_FLOW,
        "quality": "f78c124b7f1af09dfb41ad46fb640cab3bb948a804bfd8d06598c72cc6e671d9",
        "metrics": "4d1651228816dc3f281f7d15374b2fec48c5e73e7a45191f21309d66b49f1f87",
    },
    "kernel-chase": {
        "data-profile": EMPTY_DATA_PROFILE,
        "working-set": EMPTY_WORKING_SET,
        "miss-class": NO_HISTORY_MISS_CLASS,
        "data-flow": NO_HISTORY_DATA_FLOW,
        "quality": NO_SAMPLES_QUALITY,
        "metrics": "9a126eab79a93e0e9afe589661a3f2f995bf46cd9ced5889c297f9dc22883df4",
    },
    "kernel-counters": {
        "data-profile": EMPTY_DATA_PROFILE,
        "working-set": EMPTY_WORKING_SET,
        "miss-class": NO_HISTORY_MISS_CLASS,
        "data-flow": NO_HISTORY_DATA_FLOW,
        "quality": NO_SAMPLES_QUALITY,
        "metrics": "e8b4ddb6ccbb7cf722a40e1316732bba9a1bf067e9c67d72cf0ce9bc5f46f658",
    },
    "kernel-pingpong": {
        "data-profile": EMPTY_DATA_PROFILE,
        "working-set": EMPTY_WORKING_SET,
        "miss-class": NO_HISTORY_MISS_CLASS,
        "data-flow": NO_HISTORY_DATA_FLOW,
        "quality": NO_SAMPLES_QUALITY,
        "metrics": "ae35c73fca863277200b1f4fe9831b2158c4ca34c251a7242587dc7ff7954154",
    },
    "kernel-ring": {
        "data-profile": EMPTY_DATA_PROFILE,
        "working-set": EMPTY_WORKING_SET,
        "miss-class": NO_HISTORY_MISS_CLASS,
        "data-flow": NO_HISTORY_DATA_FLOW,
        "quality": "613b95dc4e58ed8c67e37e71f79b2d4e09e9adf685d94dbdb282648706bedf9f",
        "metrics": "ca23fea8e7032a88aafd58e7b7bc825c4c2e840f8df5d39ee439030103757de6",
    },
    "kernel-stream": {
        "data-profile": "d6b3a0b85ab3d506b82108c7405e74126b4198f1362e4eb8de31aee95fe27884",
        "working-set": EMPTY_WORKING_SET,
        "miss-class": NO_HISTORY_MISS_CLASS,
        "data-flow": NO_HISTORY_DATA_FLOW,
        "quality": "53c0fcd6023b19955ff50677875817df6ea650688f2d9d695712dd918a70b3d8",
        "metrics": "fa37088c54b86195f3c9eb7e3cd3d825b91c3ed0ec1101abd3328ca83173e26f",
    },
    "kernel-strided": {
        "data-profile": "56dcfe48b84af001d81daf314c9489faee1cc5b71778ef6d9472c61b7efa90bf",
        "working-set": EMPTY_WORKING_SET,
        "miss-class": NO_HISTORY_MISS_CLASS,
        "data-flow": NO_HISTORY_DATA_FLOW,
        "quality": "3de5e0b15ee625705da896965e80af2576197020f69833dafb10ffbc1375876d",
        "metrics": "01d7bdf2999c7829b10a599a6230ef42f46e7975d8f0137a997aec21a85e3008",
    },
}

HISTORY_VIEWS = {
    "memcached": {
        "data-profile": "dbea21b17e94f5f90e5f1d02a2963809c05ee19b1cbeb16bb0f0ca3d72280e86",
        "working-set": "5abb915d9cac4742f7c951caea850021a7f4e803055d08f419e16dfb5b8dc62b",
        "miss-class": "ab2c8b3fb38cab13d92f73eda16f0acf21829ce2e48381f42b154b578e9321cf",
        "data-flow": "aef97eb37e9aa88a21bdae879ceb6f2ebed7c78625865de5a7aba9414c28d363",
        "quality": "7867aab1c8a680e38bba5f09839e6e1dff24ee584cb6ec8fb78884c6d79868a9",
        "metrics": "26bc646564ee4e21fbff5b74e686185793c0e81710b8e743dd9be0e16a74e7d6",
    },
    "apache": {
        "data-profile": "dde1122f9937bf288a2ae90ce7f8029720eb9669876335ec161e825a72202818",
        "working-set": "6e9b772f0aa144ff669aa196fa3dc0ae63924e8419b28ce847e736e71dd0ac56",
        "miss-class": "9a306e0429026b45513aea4276a721f5ba1a0f478d30af88df8309f38fb662a1",
        "data-flow": "16bbe88c58c864dda1cf62aa3c9295c4ae8eb30c4c759b2de1105809ba6c0cb5",
        "quality": "0abde35222a7bae399bb40b7e17a66cf94b928bba8ff351c8ab84b46d8df16a5",
        "metrics": "1eb5124a0d473903b4d26c77a087e857922d7ecb673dd18699b406be373c1a66",
    },
}


#: The live ``DProf`` renders of the history sessions: the data profile
#: and working set at their top 10, the two per-type views for skbuff.
#: The working-set, miss-class and data-flow digests equal the served
#: ones: live and served analysis replay one cache-simulation stream.
LIVE_VIEWS = {
    "memcached": {
        "data-profile": "1e2833b7a0783690e40cb6d326b55f4bb0995fc4c4a965ea077a34eb88601914",
        "working-set": "5abb915d9cac4742f7c951caea850021a7f4e803055d08f419e16dfb5b8dc62b",
        "miss-class": "ab2c8b3fb38cab13d92f73eda16f0acf21829ce2e48381f42b154b578e9321cf",
        "data-flow": "aef97eb37e9aa88a21bdae879ceb6f2ebed7c78625865de5a7aba9414c28d363",
    },
    "apache": {
        "data-profile": "789c46568b972faec3656f103e4368603e99f884824928fe275ca3533a10d1e0",
        "working-set": "6e9b772f0aa144ff669aa196fa3dc0ae63924e8419b28ce847e736e71dd0ac56",
        "miss-class": "9a306e0429026b45513aea4276a721f5ba1a0f478d30af88df8309f38fb662a1",
        "data-flow": "16bbe88c58c864dda1cf62aa3c9295c4ae8eb30c4c759b2de1105809ba6c0cb5",
    },
}


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.fixture(scope="module")
def history_sessions():
    """The detached history-collecting profilers: scenario -> DProf."""
    return {
        scenario: collect_history_session(scenario, ncores=4, seed=SEED)
        for scenario in HISTORY_VIEWS
    }


@pytest.fixture(scope="module")
def golden_store(tmp_path_factory, history_sessions):
    """Every golden archive in one store: label -> digest."""
    store = SessionStore(tmp_path_factory.mktemp("golden-views"))
    digests = {}
    for scenario in JOB_VIEWS:
        spec = JobSpec.create(scenario=scenario, seed=SEED, duration=DURATION)
        _status, archive_text, _info = execute_job(spec)
        digests[f"job:{scenario}"] = store.put_text(archive_text)
    for scenario, dprof in history_sessions.items():
        digests[f"history:{scenario}"] = store.put_text(
            json.dumps(export_session(dprof))
        )
    return store, digests


def _render_live(dprof) -> dict[str, str]:
    return {
        "data-profile": _sha256(dprof.data_profile().render(10)),
        "working-set": _sha256(dprof.working_set().render(10)),
        "miss-class": _sha256(dprof.miss_classification("skbuff").render()),
        "data-flow": _sha256(dprof.data_flow("skbuff").render_text()),
    }


def _render(store, digest, views=VIEWS) -> dict[str, str]:
    return {
        view: _sha256(
            store.render_view(digest, view, type_name=type_name, use_cache=False)
        )
        for view, type_name in views
    }


def test_every_golden_archive_has_pinned_views():
    assert set(JOB_VIEWS) == set(JOB_ARCHIVES)
    assert set(HISTORY_VIEWS) == set(HISTORY_ARCHIVES)
    assert set(LIVE_VIEWS) == set(HISTORY_ARCHIVES)


@pytest.mark.parametrize("scenario", sorted(JOB_VIEWS))
def test_job_views_match_golden(golden_store, scenario):
    store, digests = golden_store
    assert _render(store, digests[f"job:{scenario}"]) == JOB_VIEWS[scenario]


@pytest.mark.parametrize("scenario", sorted(HISTORY_VIEWS))
def test_history_views_match_golden(golden_store, scenario):
    store, digests = golden_store
    assert _render(store, digests[f"history:{scenario}"]) == HISTORY_VIEWS[scenario]


@pytest.mark.parametrize("scenario", sorted(HISTORY_VIEWS))
def test_history_views_do_not_depend_on_render_order(golden_store, scenario):
    # Per-type views first: path traces are built one type at a time
    # before the working-set simulation asks for all of them.
    store, digests = golden_store
    rendered = _render(store, digests[f"history:{scenario}"], VIEWS[::-1])
    assert rendered == HISTORY_VIEWS[scenario]


@pytest.mark.parametrize("scenario", sorted(LIVE_VIEWS))
def test_live_views_match_golden(history_sessions, scenario):
    assert _render_live(history_sessions[scenario]) == LIVE_VIEWS[scenario]

"""The committed ``benchmarks/out/`` matches its SHA-256 manifest.

The benchmarks themselves check each artifact as they write it
(``conftest.write_artifact``); this file checks the committed tree: the
manifest names exactly the files in ``benchmarks/out/``, and each file
holds the bytes its row pins.
"""

from benchmarks.conftest import OUT_DIR, artifact_digest, pinned_artifact_hashes


def test_manifest_lists_every_artifact():
    on_disk = {path.name for path in OUT_DIR.glob("*.txt")}
    assert set(pinned_artifact_hashes()) == on_disk


def test_committed_artifacts_match_manifest():
    mismatched = [
        name
        for name, pinned in pinned_artifact_hashes().items()
        if artifact_digest(OUT_DIR / name) != pinned
    ]
    assert mismatched == []

"""Atomic file replacement, shared by archives, traces and cluster files."""

from __future__ import annotations

import os
from pathlib import Path


def atomic_write_text(path: str | Path, text: str) -> Path:
    """Write *text* via a same-directory temp file + ``os.replace``.

    Archives are written by concurrent worker processes into shared
    store directories (:mod:`repro.serve.store`), and cluster nodes
    rewrite each other's lease files, so a plain ``write_text`` would let
    two writers -- or one writer and a crash -- interleave and produce
    exactly the torn files the checksums exist to catch.  The
    same-directory temp file keeps source and destination on one
    filesystem, which is what makes ``os.replace`` atomic: readers see
    the old bytes, the new bytes, or no file, never a hybrid.  The temp
    name starts with ``.tmp-`` (what ``SessionStore.sweep_tmp`` removes)
    and ends with the writer's pid, so it never matches a ``*.json`` scan.
    """
    path = Path(path)
    tmp = path.parent / f".tmp-{path.name}.{os.getpid()}"
    tmp.write_text(text)
    os.replace(tmp, path)
    return path

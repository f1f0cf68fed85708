"""Property tests for the address-set codec of session archives.

Decode formats the ``address_set`` section's canonical encoding and
rebuilds its entries in one pass, for rows of exactly the exported
shape; any other section takes the generic path (``section_checksum``
plus ``AddressSet.record_interval``).  These tests check that the fast
encoding equals the generic encoder's and that the verdict and the
rebuilt entries are the generic path's for every input.
"""

import copy
import dataclasses
import json
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.dprof import session_io
from repro.dprof.session_io import (
    CHECKSUMMED_SECTIONS,
    OfflineSession,
    _canonical_address_rows,
    section_checksum,
)

ROW_KEYS = ("type", "base", "size", "alloc", "alloc_cpu", "free", "free_cpu")

#: Negative ints, ints past 2**63 and the ordinary small ones.
ints = st.one_of(
    st.integers(-(2**70), 2**80),
    st.integers(0, 1 << 16),
    st.sampled_from([0, -1, 2**63 - 1, 2**63, 2**64 + 7, -(2**63) - 1]),
)

#: Every code point, lone surrogates included, plus names that need
#: escaping in JSON.
type_names = st.one_of(
    st.text(st.characters(blacklist_categories=()), max_size=12),
    st.sampled_from(["skbuff", 'a"b', "back\\slash", "tab\tnl\n", "café", "\U0001f600"]),
)


@st.composite
def exported_rows(draw):
    """One row of exactly the exported shape, keys in any order."""
    values = {
        "type": draw(type_names),
        "base": draw(ints),
        "size": draw(ints),
        "alloc": draw(ints),
        "alloc_cpu": draw(ints),
        "free": None,
        "free_cpu": None,
    }
    if draw(st.booleans()):
        values["free"] = draw(ints)
        values["free_cpu"] = draw(ints)
    order = draw(st.permutations(ROW_KEYS))
    return {key: values[key] for key in order}


sections = st.lists(exported_rows(), max_size=12)


#: Damage that keeps the JSON valid but leaves the exported shape, as
#: (how, key): retyping applies to each key, the rest to the row.
DAMAGE = [
    (how, key) for how in ("bool", "float", "numeric-string", "missing-key")
    for key in ROW_KEYS
] + [(how, None) for how in ("extra-key", "non-dict", "free-only", "free-cpu-only")]

CHECKSUMS = ("match", "stale", "v1")


def _damage(row: dict, how: str, key: str, draw):
    row = dict(row)
    if how == "bool":
        row[key] = draw(st.booleans())
    elif how == "float":
        value = row[key]
        row[key] = float(value) if isinstance(value, int) else 5.0
    elif how == "numeric-string":
        key = "base" if key == "type" else key
        row[key] = str(row[key] if row[key] is not None else 5)
    elif how == "extra-key":
        row[draw(st.sampled_from(["extra", "cookie", "Type"]))] = draw(ints)
    elif how == "missing-key":
        del row[key]
    elif how == "non-dict":
        return draw(st.sampled_from([[], [1, 2], 5, "row", None, list(row.values())]))
    elif how == "free-only":
        row["free"], row["free_cpu"] = 7, None
    else:
        row["free"], row["free_cpu"] = None, 7
    return row


def _blob(rows, checksum: str) -> dict:
    """A minimal archive around *rows*.

    *checksum* is ``match`` (the stored checksum is the section's own),
    ``stale`` (it is not) or ``v1`` (no checksums at all).
    """
    blob = {
        "version": 1 if checksum == "v1" else 2,
        "window": [0, 1000],
        "sim_geometry": [65536, 8, 64],
        "chunk_size": 8,
        "stats": [],
        "histories": [],
        "symbols": {},
        "address_set": rows,
    }
    if checksum != "v1":
        blob["checksums"] = {
            name: section_checksum(blob[name]) for name in CHECKSUMMED_SECTIONS
        }
        if checksum == "stale":
            blob["checksums"]["address_set"] = "0" * 64
    return blob


def _decoded(rows, checksum: str, generic: bool):
    blob = copy.deepcopy(_blob(rows, checksum))
    if not generic:
        return OfflineSession(blob)
    with mock.patch.object(session_io, "_canonical_address_rows", return_value=None):
        return OfflineSession(blob)


def _entries(session) -> list[str]:
    """Every rebuilt entry, with the types of its fields (5 != 5.0)."""
    return [repr(dataclasses.astuple(e)) for e in session.address_set.entries]


def _assert_same_as_generic(rows, checksum: str):
    fast = _decoded(rows, checksum, generic=False)
    generic = _decoded(rows, checksum, generic=True)
    assert fast.data_quality.sections_failed == generic.data_quality.sections_failed
    assert _entries(fast) == _entries(generic)
    assert list(fast.address_set.by_type()) == list(generic.address_set.by_type())


@settings(max_examples=300, deadline=None)
@given(sections)
@example([])
def test_fast_encoding_equals_the_generic_encoding(rows):
    entries: list = []
    encoded = _canonical_address_rows(rows, entries)
    assert encoded == json.dumps(rows, sort_keys=True, separators=(",", ":")).encode()
    assert [e.type_name for e in entries] == [row["type"] for row in rows]
    assert [(e.alloc_cycle, e.free_cycle, e.free_cpu) for e in entries] == [
        (row["alloc"], row["free"], row["free_cpu"]) for row in rows
    ]


@settings(max_examples=150, deadline=None)
@given(sections, st.sampled_from(CHECKSUMS))
def test_well_formed_sections_decode_as_the_generic_path(rows, checksum):
    _assert_same_as_generic(rows, checksum)
    if checksum == "match":
        session = _decoded(rows, checksum, generic=False)
        assert session.data_quality.sections_failed == ()
        assert len(session.address_set.entries) == len(rows)


@pytest.mark.parametrize(("how", "key"), DAMAGE)
@settings(max_examples=10, deadline=None)
@given(rows=st.lists(exported_rows(), min_size=1, max_size=6), data=st.data())
def test_ill_typed_sections_decode_as_the_generic_path(how, key, rows, data):
    index = data.draw(st.integers(0, len(rows) - 1))
    rows[index] = _damage(rows[index], how, key, data.draw)
    assert _canonical_address_rows(rows) is None
    for checksum in CHECKSUMS:
        _assert_same_as_generic(rows, checksum)


@settings(max_examples=50, deadline=None)
@given(
    st.one_of(
        st.none(),
        st.integers(),
        st.text(max_size=3),
        st.dictionaries(st.text(max_size=3), ints, max_size=3),
    )
)
def test_non_list_sections_decode_as_the_generic_path(section):
    assert _canonical_address_rows(section) is None
    for checksum in CHECKSUMS:
        _assert_same_as_generic(section, checksum)


def test_an_int_too_long_to_print_takes_the_generic_path():
    row = {"type": "t", "base": 10**5000, "size": 8, "alloc": 1, "alloc_cpu": 0,
           "free": None, "free_cpu": None}
    assert _canonical_address_rows([row]) is None
    session = _decoded([row], "v1", generic=False)
    assert session.data_quality.sections_failed == ()
    assert session.address_set.entries[0].base == 10**5000

"""A catalog record's JSONL line is ``json.dumps`` of its payload, byte for byte."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iasi import CheckRecord, check_one_graph, enumerate_connected_graphs, probe_k3_three_index
from iasi.catalog import _witness_encoder

# the record writer's witness encoder on the C accelerator's path and on the
# pure-Python one taken where the accelerator is missing
_ENCODERS = (_witness_encoder(json.encoder.c_make_encoder), _witness_encoder(None))


def reference_line(record: CheckRecord) -> str:
    payload = {
        "graph": record.graph_id,
        "check": record.check,
        "outcome": record.outcome,
        "witness": record.witness,
    }
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


@pytest.fixture(scope="module")
def n4_sweep_records():
    records = [
        record
        for graph in enumerate_connected_graphs(4)
        for policy in ("fixed", "random", "maximal")
        for record in check_one_graph(graph, policy, 0)
    ]
    records.append(probe_k3_three_index())
    return records


def test_every_n4_sweep_record_line_is_json_dumps(n4_sweep_records):
    records = n4_sweep_records
    assert len({r.outcome for r in records}) > 1 and any(r.witness for r in records)
    for record in records:
        assert record.json_line() == reference_line(record)


# any code point, lone surrogates included, with quotes, backslashes,
# control characters and non-ASCII drawn often
_TEXT = st.text(
    st.one_of(
        st.characters(blacklist_categories=()),
        st.sampled_from(['"', "\\", "\x00", "\n", "\x1f", "\x7f", "é", " ", "\ud800", "\udfff"]),
    )
)
_WITNESS = st.dictionaries(
    _TEXT,
    st.recursive(
        st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | _TEXT,
        lambda children: st.lists(children, max_size=4) | st.dictionaries(_TEXT, children, max_size=4),
        max_leaves=12,
    ),
    max_size=4,
)


@settings(max_examples=300)
@given(check=_TEXT, graph_id=_TEXT, outcome=_TEXT, witness=_WITNESS)
def test_record_line_is_json_dumps_for_any_strings(check, graph_id, outcome, witness):
    record = CheckRecord(graph_id, check, outcome, witness)
    assert record.json_line() == reference_line(record)


def dumps(witness) -> str:
    return json.dumps(witness, sort_keys=True, separators=(",", ":"))


def test_both_witness_encoders_are_json_dumps_on_the_n4_sweep(n4_sweep_records):
    assert json.encoder.c_make_encoder is not None  # else both would be pure Python
    witnesses = [r.witness for r in n4_sweep_records]
    for encode in _ENCODERS:
        assert [encode(w) for w in witnesses] == [dumps(w) for w in witnesses]


@settings(max_examples=300)
@given(witness=_WITNESS)
def test_both_witness_encoders_are_json_dumps_for_any_witness(witness):
    for encode in _ENCODERS:
        assert encode(witness) == dumps(witness)

"""Fuzzing the parse door: bad input is a format error (exit 2), never a traceback."""

import json
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from vlqc.cli import main
from vlqc.ensemble_io import EnsembleFormatError, parse_ensemble

KEYS = ["k", "ambientDim", "normalize", "messages", "id", "p", "amps"]

numbers = st.integers() | st.floats()
scalars = st.none() | st.booleans() | numbers | st.text(max_size=8)
json_values = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(KEYS) | st.text(max_size=4), inner, max_size=5),
    max_leaves=20,
)
# well-typed documents, so that fuzzing reaches past the schema checks into the
# numeric ones; ``json_values`` covers the type errors
messages = st.fixed_dictionaries(
    {
        "id": st.sampled_from("abc"),
        "p": st.sampled_from([1.0, 0.5]) | st.floats(0, 1) | numbers,
        "amps": st.lists(st.lists(numbers, min_size=2, max_size=2), min_size=1, max_size=3),
    }
)
documents = st.fixed_dictionaries(
    {"k": st.integers(0, 40), "ambientDim": st.integers(0, 3), "messages": st.lists(messages, max_size=3)},
    optional={"normalize": st.booleans()},
)
texts = st.text() | (json_values | documents).map(json.dumps)


@given(texts)
@settings(max_examples=100, deadline=None)
def test_every_text_parses_or_is_a_format_error(text):
    try:
        parse_ensemble(text)
    except EnsembleFormatError:
        pass


@given(st.binary(max_size=64) | texts.map(lambda t: t.encode("utf-8", "surrogatepass")))
@settings(max_examples=50, deadline=None)
def test_analyze_on_any_file_exits_0_2_or_3(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "ensemble.json"
        path.write_bytes(data)
        assert main(["analyze", "--ensemble", str(path)]) in (0, 2, 3)

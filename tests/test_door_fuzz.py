"""Fuzzing the parse door: bad input is a format error (exit 2), never a traceback,
through every command that reads an ensemble file."""

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
amp_values = st.sampled_from([0, 1, -1, 0.0, -0.0, 1e-9, 1e-300, 5e-324, 1e300, -1e300]) | st.floats(-2, 2)


@st.composite
def parsable_documents(draw):
    """Documents that pass the parse, so that a command reaches its numeric checks:
    zero, subnormal, huge and dependent amplitudes under probabilities summing to 1."""
    d, m = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    amps = st.lists(st.lists(amp_values, min_size=2, max_size=2), min_size=d, max_size=d)
    messages = [{"id": str(i), "p": 1 / m, "amps": draw(amps)} for i in range(m)]
    return json.dumps({"k": draw(st.integers(2, 5)), "ambientDim": d, "messages": messages})


@given(texts)
@settings(max_examples=100, deadline=None)
def test_every_text_parses_or_is_a_format_error(text):
    try:
        parse_ensemble(text)
    except EnsembleFormatError:
        pass


files = st.one_of(
    st.binary(max_size=64),
    texts.map(lambda t: t.encode("utf-8", "surrogatepass")),
    parsable_documents().map(str.encode),
)


def _exit_code(data: bytes, command: list[str]) -> int:
    """``main(command)`` with ``{ensemble}`` and ``{out}`` paths in a fresh
    directory, the ensemble file holding ``data``."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "ensemble.json"
        path.write_bytes(data)
        return main([arg.format(ensemble=path, out=Path(tmp) / "out.txt") for arg in command])


@given(files)
@settings(max_examples=50, deadline=None)
def test_analyze_on_any_file_exits_0_2_or_3(data):
    assert _exit_code(data, ["analyze", "--ensemble", "{ensemble}"]) in (0, 2, 3)


@given(files)
@settings(max_examples=30, deadline=None)
def test_simulate_on_any_file_exits_0_to_3(data):
    command = ["simulate", "--ensemble", "{ensemble}", "--n", "5", "--seed", "0", "--out", "{out}"]
    assert _exit_code(data, command) in (0, 1, 2, 3)


# a file that parses runs the Huffman grid, about 70 ms, so few examples
@given(files)
@settings(max_examples=40, deadline=None)
def test_verify_on_any_file_exits_0_to_3(data):
    assert _exit_code(data, ["verify", "--ensemble", "{ensemble}", "--trials", "0"]) in (0, 1, 2, 3)

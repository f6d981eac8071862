"""Ensemble description files: parsing, serialization, canonical hashing.

The on-disk format is a single JSON document::

    {
      "k": 2,
      "ambientDim": 4,
      "normalize": true,
      "messages": [
        {"id": "a", "p": 0.6, "amps": [[1, 0], [1, 0], [1, 0], [1, 0]]},
        ...
      ]
    }

Amplitudes are always [re, im] pairs, even when purely real. With
``normalize`` (the default) amplitude vectors are scaled to unit norm on
load; probabilities are rescaled to an exact unit sum when they are off by
more than 1e-9 but within the acceptance window of 1e-6.
"""

from __future__ import annotations

import hashlib
import json
import sys
from dataclasses import dataclass
from itertools import chain
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np

from . import linalg
from .codec import SourceEnsemble, SourceMessage
from .message_space import DIGIT_ALPHABET
from .workers import start_worker, worker_count

PROBABILITY_FILE_TOL = 1e-6
MAX_K = len(DIGIT_ALPHABET)  # one printable digit (0-9, A-Z) per k-ary value


class EnsembleFormatError(ValueError):
    """Malformed ensemble file or stored transcript record; the message carries location context."""


@dataclass(frozen=True)
class EnsembleFile:
    """A parsed ensemble file: the ensemble plus the channel parameters it declared."""

    ensemble: SourceEnsemble
    k: int
    normalize: bool


def _is_finite_number(x) -> bool:
    # bool is excluded by the exact type test; the magnitude test rejects NaN,
    # infinities and integers too large for a float
    return type(x) in (int, float) and abs(x) <= sys.float_info.max


def require_key(doc: dict, key: str, kind, where: str):
    """``doc[key]``, refused unless present and a ``kind`` (float: a finite number; int: not a bool)."""
    if key not in doc:
        raise EnsembleFormatError(f"{where}: missing key {key!r}")
    value = doc[key]
    if kind is float:
        if not _is_finite_number(value):
            raise EnsembleFormatError(f"{where}.{key}: expected a finite number")
        return float(value)
    if kind is int and (isinstance(value, bool) or not isinstance(value, int)):
        raise EnsembleFormatError(f"{where}.{key}: expected an integer")
    if not isinstance(value, kind):
        raise EnsembleFormatError(f"{where}.{key}: expected {kind.__name__}")
    return value


def parse_amps(raw, count: int, where: str) -> np.ndarray:
    """``count`` stored [re, im] pairs of finite numbers as a complex vector."""
    if not isinstance(raw, list) or len(raw) != count:
        raise EnsembleFormatError(f"{where}: expected {count} [re, im] pairs")
    block = _pair_block([raw])
    if block is None:
        # the per-pair scan only locates the refusal
        pos = next(
            pos for pos, pair in enumerate(raw)
            if not (type(pair) is list and len(pair) == 2 and all(map(_is_finite_number, pair)))
        )
        raise EnsembleFormatError(f"{where}[{pos}]: expected an [re, im] pair of finite numbers")
    return block[0]


def _pair_block(raws: list) -> np.ndarray | None:
    """The stored pairs of ``raws``, lists of one length, as a complex array
    with a row per list; None unless every pair is an [re, im] pair of finite
    numbers. Whole-list passes in C and one np.array over all the pairs."""
    pairs = list(chain.from_iterable(raws))
    if set(map(type, pairs)) != {list} or set(map(len, pairs)) != {2}:
        return None
    flat = list(chain.from_iterable(pairs))
    del pairs  # the floats are all in flat now
    if not set(map(type, flat)) <= {int, float}:
        return None
    try:
        block = np.array(flat, dtype=float)
    except OverflowError:
        return None
    if not np.isfinite(block).all():
        return None
    return block.view(complex).reshape(len(raws), -1)


def _amplitude_block(raw_messages: list, count: int) -> np.ndarray | None:
    """Every message's ``amps`` as one (m, count) block, with the bits
    :func:`parse_amps` gives each, when it accepts all of them; else None."""
    if set(map(type, raw_messages)) != {dict}:
        return None
    raws = [raw.get("amps") for raw in raw_messages]
    if set(map(type, raws)) != {list} or set(map(len, raws)) != {count}:
        return None
    return _pair_block(raws)


def parse_ensemble(text: str) -> EnsembleFile:
    # the decoded document is acyclic and dies with _parse's frame, inside the pause
    with linalg.gc_paused():
        return _parse(text)


def _parse(text: str) -> EnsembleFile:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise EnsembleFormatError(
            f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from None
    except (ValueError, RecursionError) as exc:
        # an integer literal beyond the int-conversion digit limit, or nesting too deep
        raise EnsembleFormatError(f"invalid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise EnsembleFormatError("top level: expected an object")
    k = require_key(doc, "k", int, "top level")
    if not 2 <= k <= MAX_K:
        raise EnsembleFormatError(f"top level.k: must be >= 2 and <= {MAX_K}, got {k}")
    ambient_dim = require_key(doc, "ambientDim", int, "top level")
    if ambient_dim < 1:
        raise EnsembleFormatError("top level.ambientDim: must be >= 1")
    normalize = require_key(doc, "normalize", bool, "top level") if "normalize" in doc else True
    raw_messages = require_key(doc, "messages", list, "top level")
    if not raw_messages:
        raise EnsembleFormatError("messages: must be nonempty")

    block = _amplitude_block(raw_messages, ambient_dim)
    messages = []
    with np.errstate(over="ignore"):
        for pos, raw in enumerate(raw_messages):
            where = f"messages[{pos}]"
            if not isinstance(raw, dict):
                raise EnsembleFormatError(f"{where}: expected an object")
            msg_id = require_key(raw, "id", str, where)
            p = require_key(raw, "p", float, where)
            if block is not None:
                amps = block[pos]
            else:  # some message is refused: read each on its own, so that the first fault raises
                amps = parse_amps(raw.get("amps"), ambient_dim, f"{where}.amps")
            try:
                stored = linalg.normalize_finite(amps) if normalize else amps
                messages.append(SourceMessage.of_finite(msg_id, stored, p))
            except ValueError as exc:
                raise EnsembleFormatError(f"{where}: {exc}") from None

    total = sum(m.probability for m in messages)
    if abs(total - 1.0) > PROBABILITY_FILE_TOL:
        raise EnsembleFormatError(f"probabilities sum to {total!r}, expected 1 within 1e-6")
    if abs(total - 1.0) > linalg.PROBABILITY_SUM_TOL:
        messages = [m.with_probability(m.probability / total) for m in messages]
    try:
        return EnsembleFile(SourceEnsemble(tuple(messages), ambient_dim), k=k, normalize=normalize)
    except ValueError as exc:
        raise EnsembleFormatError(f"messages: {exc}") from None


def load_ensemble(path) -> EnsembleFile:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise EnsembleFormatError(f"not UTF-8 text: {exc}") from None
    return parse_ensemble(text)


def dump_ensemble(ensemble: SourceEnsemble, k: int, path) -> None:
    """Write ``ensemble`` as an ensemble file with ``normalize`` set: each message's
    stored amplitudes as :func:`vlqc.linalg.complex_pairs`'s (re, im) tuples, which
    json writes as [re, im] arrays, and its float probability."""
    messages = [{"id": m.id, "p": m.probability, "amps": linalg.complex_pairs(m.amps)} for m in ensemble.messages]
    doc = {"k": k, "normalize": True, "ambientDim": ensemble.ambient_dim, "messages": messages}
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _message_tail(m: SourceMessage) -> str:
    """``"id":...,"p":...}``: the id escaped as json.dumps escapes it and the
    probability, always a float, as its repr, which is the JSON encoder's float text."""
    return '"id":' + encode_basestring_ascii(m.id) + ',"p":' + float.__repr__(m.probability) + "}"


_OPEN, _CLOSE = b'{"ambientDim":%d,"messages":[', b"]}"


def _message_pieces(ensemble: SourceEnsemble, start: int, stop: int):
    """The canonical bytes of messages ``start`` to ``stop - 1``, one message at a time.

    "amps" sorts before "id" and "p", and %r of a finite float is the float
    repr the JSON encoder writes, so each message is written straight from
    its stored row.
    """
    d = ensemble.ambient_dim
    message = '{"amps":[' + ",".join(["[%r,%r]"] * d) + "],%s"
    for pos, m in enumerate(ensemble.messages[start:stop], start):
        piece = message % (*m.amps.view(np.float64).tolist(), _message_tail(m))
        yield (piece if pos == 0 else "," + piece).encode("utf-8")


def _message_block(ensemble: SourceEnsemble, start: int, stop: int) -> bytes:
    return b"".join(_message_pieces(ensemble, start, stop))


# Floats (2 m d amplitude floats, plus those of a transcript's payloads) from
# which the hash formats blocks of messages in forked workers; below it,
# forking costs more than it saves.
_FORK_FLOATS = 1 << 16


def ensemble_hash(ensemble: SourceEnsemble) -> str:
    """Hex digest identifying the ensemble, stable across runs and formatting:
    the sha256 of its canonical bytes, the compact sorted-key json.dumps of
    the ``dump_ensemble`` document without its "k" and "normalize" keys,
    written here one message at a time and never held whole.

    From _FORK_FLOATS amplitude floats up, the messages are split into
    contiguous blocks, about one per CPU in the affinity mask, as
    :func:`ensemble_hash_beside` splits them.
    """
    return ensemble_hash_beside(ensemble, lambda: None, 0)[0]


def ensemble_hash_beside(ensemble: SourceEnsemble, work, floats: int):
    """``(ensemble_hash(ensemble), work())``, where ``work`` formats about
    ``floats`` floats (a transcript's payload text) in this process while
    forked workers format blocks of the hash's messages.

    From _FORK_FLOATS floats in all (the hash's H = 2 m d and ``floats``) up,
    and with W >= 2 processes, one per CPU in the affinity mask but at most
    one per message plus this one, each process gets a share of
    s = (H + floats) / W floats. This process runs ``work`` first, then
    formats the first max(0, s - floats) hash floats, rounded half up to
    whole messages; the workers split the remaining messages evenly, in
    contiguous blocks. When ``floats`` >= s, this process formats no message
    and the split is not balanced, only correct. sha256 takes the blocks in
    message order, so the digest does not depend on the CPU count. Each
    worker's bytes come back in pieces (``workers.start_worker``). An
    exception in a worker re-raises here, the earliest block's; one raised
    here, by ``work`` too, first kills and waits for every worker.
    """
    d, count = ensemble.ambient_dim, len(ensemble.messages)
    total = 2 * count * d + floats
    processes = worker_count(count + 1) if total >= _FORK_FLOATS else 1
    first = int(max(0.0, total / processes - floats) / (2 * d) + 0.5)
    blocks = min(processes - 1, count - first)
    bounds = [first + (count - first) * i // max(blocks, 1) for i in range(blocks + 1)]
    digest = hashlib.sha256(_OPEN % d)
    finishes = []
    try:
        for start, stop in zip(bounds, bounds[1:]):
            finishes.append(start_worker(_message_block, ensemble, start, stop))
        result = work()
        for piece in _message_pieces(ensemble, 0, first):
            digest.update(piece)
        raised = []
        while finishes:
            raised.append(finishes.pop(0)(digest.update))
    finally:
        for finish in finishes:  # left only when this process raised
            finish(None)
    for exc in raised:
        if exc is not None:
            raise exc
    digest.update(_CLOSE)
    return digest.hexdigest(), result

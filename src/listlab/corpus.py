"""Turn raw corpus files into request sequences and initial lists, plus
seeded synthetic workloads for property testing.

Preprocessing strips exactly spaces, carriage returns and line feeds by
default; tabs and all other bytes survive. Every remaining byte becomes one
request, so the returned ``bytes`` object is itself a request sequence.
"""

import math
import os
import random
from enum import Enum
from typing import Iterable, Sequence

from .listcore import ListLabError, ListState, RequestSequence, Symbol, _Frozen, _Record

DEFAULT_STRIP_BYTES = frozenset((0x20, 0x0D, 0x0A))


class EmptyAfterPreprocessing(ListLabError):
    """Nothing was left of the input once the stripped bytes were removed."""


class EmptySequence(ListLabError):
    pass


class EmptyAlphabet(ListLabError):
    pass


class CorpusText(_Record):
    _fields = ("data", "source_name")

    def __init__(self, data: bytes, source_name: str = "") -> None:
        self.data, self.source_name = data, source_name


class ListOrderPolicy(Enum):
    """Initial ordering of the derived list: order of first appearance in
    the sequence, or ascending byte value."""

    FIRST_OCCURRENCE = "first-occurrence"
    BYTE_VALUE = "byte-value"


def load_file(path: str | os.PathLike) -> CorpusText:
    with open(path, "rb") as f:  # not pathlib, which imports urllib before Python 3.13
        return CorpusText(f.read(), os.path.basename(path))


def preprocess(
    text: CorpusText | bytes,
    strip: Iterable[int] = DEFAULT_STRIP_BYTES,
) -> bytes:
    """Drop the stripped bytes, keeping everything else in order."""
    if isinstance(text, CorpusText):
        data, name = text.data, text.source_name
    else:
        data, name = bytes(text), "input"
    remaining = data.translate(None, bytes(sorted(set(strip))))
    if not remaining:
        raise EmptyAfterPreprocessing(f"{name or 'input'}: nothing left after stripping")
    return remaining


def derive_list(
    sequence: RequestSequence,
    policy: ListOrderPolicy = ListOrderPolicy.FIRST_OCCURRENCE,
) -> ListState:
    """List of the sequence's distinct symbols, all counters zero.

    A byte sequence sorts them by first ``index``, at most 256 memchr scans;
    on another sequence, with no bound on its symbols, that is quadratic."""
    if len(sequence) == 0:
        raise EmptySequence("cannot derive a list from an empty sequence")
    if policy is ListOrderPolicy.FIRST_OCCURRENCE:
        if isinstance(sequence, (bytes, bytearray)):
            distinct = sorted(set(sequence), key=sequence.index)
        else:
            distinct = list(dict.fromkeys(sequence))
    else:
        distinct = sorted(set(sequence))
    return ListState.from_order(distinct)


class Uniform(_Frozen):
    pass


class Zipf(_Frozen):
    """Rank-weighted sampling: the r-th alphabet symbol gets weight
    1 / (r + 1) ** exponent. ``exponent`` must be finite and positive."""

    _fields = ("exponent",)

    def __init__(self, exponent: float = 1.0) -> None:
        vars(self)["exponent"] = exponent


class RunLengths(_Frozen):
    """Bursty workload: each run repeats one symbol for a geometrically
    distributed length with mean ``mean_run``. Exercises the
    batched-lookahead branch of VFC.

    The first run's symbol is drawn uniformly from the alphabet. When the
    alphabet has more than one symbol, every later run's symbol is drawn
    uniformly from the symbols other than the previous run's, so neighbouring
    runs never merge and the observed mean run equals ``mean_run``, apart
    from the last run being cut short at the requested length. Every symbol
    is still drawn equally often overall. ``mean_run`` must be finite and at
    least 1."""

    _fields = ("mean_run",)

    def __init__(self, mean_run: float = 4.0) -> None:
        vars(self)["mean_run"] = mean_run


Distribution = Uniform | Zipf | RunLengths


def generate_sequence(
    alphabet: Sequence[Symbol],
    length: int,
    distribution: Distribution = Uniform(),
    seed: int = 0,
) -> list[Symbol]:
    """Seeded synthetic request sequence over ``alphabet``."""
    symbols = list(alphabet)
    if not symbols:
        raise EmptyAlphabet("alphabet must contain at least one symbol")
    if len(set(symbols)) != len(symbols):
        raise ValueError("alphabet symbols must be distinct")
    if length < 0:
        raise ValueError("length must be non-negative")
    rng = random.Random(seed)

    if isinstance(distribution, Uniform):
        return rng.choices(symbols, k=length)

    if isinstance(distribution, Zipf):
        s = distribution.exponent
        if not math.isfinite(s):
            raise ValueError(f"Zipf exponent must be finite, got {s}")
        if s <= 0:
            raise ValueError("Zipf exponent must be positive")
        weights = [(r + 1) ** -s for r in range(len(symbols))]
        return rng.choices(symbols, weights=weights, k=length)

    mean = distribution.mean_run
    if not math.isfinite(mean):
        raise ValueError(f"mean run length must be finite, got {mean}")
    if mean < 1:
        raise ValueError("mean run length must be at least 1")
    p = 1.0 / mean
    log_q = math.log(1.0 - p) if p < 1.0 else None
    if log_q == 0.0:
        raise ValueError(f"mean run length {mean} is too large for a geometric draw")
    k = len(symbols)
    index = None
    out: list[Symbol] = []
    while len(out) < length:
        if index is None:
            index = rng.randrange(k)
        elif k > 1:
            # any symbol but the previous run's, so neighbouring runs never merge
            draw = rng.randrange(k - 1)
            index = draw + 1 if draw >= index else draw
        if log_q is None:
            run = 1
        else:
            # geometric via inversion; always >= 1
            run = int(math.log(1.0 - rng.random()) / log_q) + 1
        out.extend([symbols[index]] * min(run, length - len(out)))
    return out

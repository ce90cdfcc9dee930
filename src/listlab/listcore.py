"""List state, cost models, and the per-step trace record.

Positions are 1-based throughout: the head of the list is position 1, and
accessing it costs 1 under the full cost model (0 under the partial model).
Every engine reorganizes by free exchanges only: after a step it may move
the requested element any number of positions toward the front at zero
cost, and every other symbol keeps its relative order. The oracle's
dominance check relies on this, and a property test over the snapshots of
``run_algorithm`` checks it for every engine and policy. Paid exchanges
(unit cost for swapping two adjacent elements) exist in the cost-model
vocabulary but are used by none of the shipped engines: even the transpose
engine's single adjacent swap moves the just-accessed element forward and
is therefore free.

Symbols are plain ints: byte values 0..255 for corpus-derived lists, small
integers for synthetic ones. A request sequence is any int sequence, so a
``bytes`` object can be fed to the engines directly.
"""

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Mapping, Sequence

Symbol = int
RequestSequence = Sequence[Symbol]


class ListLabError(Exception):
    """Base class for every error raised by this package."""


class SymbolNotInList(ListLabError):
    """A request named a symbol outside the list's alphabet."""

    def __init__(self, symbol: Symbol, request_index: int | None = None):
        self.symbol = symbol
        self.request_index = request_index
        where = "" if request_index is None else f" (request index {request_index})"
        super().__init__(f"symbol {symbol!r} is not in the list{where}")


class PositionOutOfRange(ListLabError):
    pass


class InvalidListState(ListLabError, ValueError):
    """A list repeats a symbol or lacks a non-negative counter for one."""


class CostModel(Enum):
    """FULL charges i for accessing position i; PARTIAL charges i - 1."""

    FULL = "full"
    PARTIAL = "partial"


@dataclass
class ListState:
    """An ordered list of distinct symbols plus per-symbol access counters.

    ``order`` holds the symbols from front (position 1) to back (position m).
    ``freq`` maps every listed symbol to a non-negative access counter. The
    engines never insert or delete symbols, so ``order`` stays a permutation
    of whatever it started as.
    """

    order: list[Symbol]
    freq: dict[Symbol, int]

    def __post_init__(self) -> None:
        if len(set(self.order)) != len(self.order):
            raise InvalidListState("list symbols must be pairwise distinct")
        for s in self.order:
            if self.freq.get(s, -1) < 0:
                raise InvalidListState(f"symbol {s!r} needs a non-negative counter entry")

    @classmethod
    def from_order(cls, order: Iterable[Symbol], freq: Sequence[int] | None = None) -> "ListState":
        """Build a state from front-to-back symbols.

        ``freq`` is a per-position sequence of counters aligned with
        ``order``, or None for all-zero counters. To give the counters as a
        symbol-to-counter dict, call ``ListState(order, freq)`` directly.
        """
        if isinstance(freq, Mapping):
            raise TypeError("from_order takes counters by position; give a dict to ListState(order, freq)")
        symbols = list(order)
        if freq is None:
            counters = dict.fromkeys(symbols, 0)
        else:
            counters = dict(zip(symbols, freq, strict=True))
        return cls(symbols, counters)

    def copy(self) -> "ListState":
        # a copy of a valid state is valid: skip __post_init__'s O(m) checks
        new = object.__new__(type(self))
        new.order, new.freq = list(self.order), dict(self.freq)
        return new

    def __len__(self) -> int:
        return len(self.order)

    def frequencies_in_order(self) -> tuple[int, ...]:
        """Counters read off front to back; handy for sortedness checks."""
        return tuple(map(self.freq.__getitem__, self.order))


@dataclass
class StepRecord:
    """One engine step: the request served, its pre-access position, the cost
    charged, and how many requests the step consumed (batched lookahead steps
    consume more than one). Snapshots are filled in only when asked for."""

    request: Symbol
    position_before: int
    cost_charged: int
    requests_consumed: int = 1
    list_after: tuple[Symbol, ...] | None = None
    freq_after: tuple[int, ...] | None = None


def access_cost(model: CostModel, position: int) -> int:
    """Cost of accessing the element at ``position`` under ``model``."""
    if position < 1:
        raise PositionOutOfRange(f"positions are 1-based, got {position}")
    return position if model is CostModel.FULL else position - 1

"""List state, cost models, and the primitive reorganization moves.

Positions are 1-based throughout: the head of the list is position 1, and
accessing it costs 1 under the full cost model (0 under the partial model).
The only reorganization primitive offered here is the free exchange, which
moves an element any number of positions toward the front at zero cost.
Paid exchanges (unit cost for swapping two adjacent elements) exist in the
cost-model vocabulary but are used by none of the shipped engines: even the
transpose engine's single adjacent swap moves the just-accessed element
forward and is therefore free.

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


class BackwardMove(ListLabError):
    """Free exchanges only move elements toward the front."""


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
            raise ValueError("list symbols must be pairwise distinct")
        for s in self.order:
            if self.freq.get(s, -1) < 0:
                raise ValueError(f"symbol {s!r} needs a non-negative counter entry")

    @classmethod
    def from_order(
        cls,
        order: Iterable[Symbol],
        freq: Mapping[Symbol, int] | Sequence[int] | None = None,
    ) -> "ListState":
        """Build a state from front-to-back symbols.

        ``freq`` may be a mapping, a per-position sequence aligned with
        ``order``, or None for all-zero counters.
        """
        symbols = list(order)
        if freq is None:
            counters = dict.fromkeys(symbols, 0)
        elif isinstance(freq, Mapping):
            counters = dict(freq)
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

    @property
    def head(self) -> Symbol:
        return self.order[0]

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


def position_of(state: ListState, symbol: Symbol) -> int:
    """1-based position of ``symbol`` in the list."""
    try:
        return state.order.index(symbol) + 1
    except ValueError:
        raise SymbolNotInList(symbol) from None


def access_cost(model: CostModel, position: int) -> int:
    """Cost of accessing the element at ``position`` under ``model``."""
    if position < 1:
        raise PositionOutOfRange(f"positions are 1-based, got {position}")
    return position if model is CostModel.FULL else position - 1


def move_forward(state: ListState, from_pos: int, to_pos: int) -> ListState:
    """Free exchange: a new state with the element at ``from_pos`` moved to
    ``to_pos``; the elements in between shift back by one. Zero cost."""
    new = state.copy()
    _move_forward_inplace(new, from_pos, to_pos)
    return new


def _move_forward_inplace(state: ListState, from_pos: int, to_pos: int) -> None:
    m = len(state.order)
    if not 1 <= from_pos <= m:
        raise PositionOutOfRange(f"from_pos {from_pos} not in 1..{m}")
    if not 1 <= to_pos <= m:
        raise PositionOutOfRange(f"to_pos {to_pos} not in 1..{m}")
    if to_pos > from_pos:
        raise BackwardMove(f"cannot move from {from_pos} back to {to_pos}")
    if to_pos != from_pos:
        state.order.insert(to_pos - 1, state.order.pop(from_pos - 1))

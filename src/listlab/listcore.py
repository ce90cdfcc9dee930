"""List state, cost models, and the per-step trace record.

Positions are 1-based throughout: the head of the list is position 1, and
accessing it costs 1 under the full cost model (0 under the partial model).
Every engine reorganizes by free exchanges only: after a step it may move
the requested element any number of positions toward the front at zero
cost, and every other symbol keeps its relative order. The oracle's
dominance check relies on this, and a property test over the snapshots of
``run_algorithm`` checks it for every engine and policy. Neither cost model
prices paid exchanges (unit cost for swapping two adjacent elements), and no
engine makes one: even the transpose engine's single adjacent swap moves the
just-accessed element forward and is therefore free.

Symbols are plain ints: byte values 0..255 for corpus-derived lists, small
integers for synthetic ones. A request sequence is any int sequence, so a
``bytes`` object can be fed to the engines directly.
"""

from enum import Enum
from typing import Iterable, Sequence

Symbol = int
RequestSequence = Sequence[Symbol]


class ListLabError(Exception):
    """Base class for every error raised by this package."""


class SymbolNotInList(ListLabError):
    """A request named a symbol outside the list's alphabet."""

    def __init__(self, symbol: Symbol, request_index: int):
        self.symbol = symbol
        self.request_index = request_index
        super().__init__(f"symbol {symbol!r} is not in the list (request index {request_index})")


class InvalidListState(ListLabError, ValueError):
    """A list repeats a symbol or lacks a non-negative counter for one."""


class CostModel(Enum):
    """FULL charges i for accessing position i; PARTIAL charges i - 1."""

    FULL = "full"
    PARTIAL = "partial"


class _Record:
    """Field-wise ``==`` and ``Name(field=value, ...)`` repr over ``_fields``, and no
    hash, as ``@dataclass`` makes them, without the start-up cost of importing ``dataclasses``."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        return self._values() == other._values() if other.__class__ is self.__class__ else NotImplemented

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}({', '.join(f'{n}={getattr(self, n)!r}' for n in self._fields)})"


class _Frozen(_Record):
    """A hashable record whose ``__init__`` sets its fields in ``vars(self)``."""

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name, *_):
        raise AttributeError(f"{type(self).__name__} is frozen: cannot set or delete {name!r}")

    __delattr__ = __setattr__


class ListState(_Record):
    """An ordered list of distinct symbols plus per-symbol access counters.

    ``order`` holds the symbols from front (position 1) to back (position m).
    ``freq`` maps every listed symbol to a non-negative access counter. The
    engines never insert or delete symbols, so ``order`` stays a permutation
    of whatever it started as.
    """

    _fields = ("order", "freq")

    def __init__(self, order: list[Symbol], freq: dict[Symbol, int]) -> None:
        self.order, self.freq = order, freq
        if len(set(order)) != len(order):
            raise InvalidListState("list symbols must be pairwise distinct")
        for s in order:
            if freq.get(s, -1) < 0:
                raise InvalidListState(f"symbol {s!r} needs a non-negative counter entry")

    @classmethod
    def from_order(cls, order: Iterable[Symbol]) -> "ListState":
        """Build a state from front-to-back symbols, every counter zero. For
        other counters, call ``ListState(order, freq)`` with a dict."""
        symbols = list(order)
        return cls(symbols, dict.fromkeys(symbols, 0))

    def __len__(self) -> int:
        return len(self.order)


class StepRecord(_Record):
    """One engine step, as ``run_algorithm`` records it: the request served,
    its pre-access position, the cost charged, and how many requests the step
    consumed (batched lookahead steps consume more than one). The snapshot of
    the order and the counters, front to back, after the step is given only
    when the run is asked for one."""

    __slots__ = _fields = ("request", "position_before", "cost_charged", "requests_consumed", "list_after",
                           "freq_after")

    def __init__(self, request: Symbol, position_before: int, cost_charged: int, requests_consumed: int = 1,
                 list_after: tuple[Symbol, ...] | None = None, freq_after: tuple[int, ...] | None = None) -> None:
        self.request, self.position_before, self.cost_charged = request, position_before, cost_charged
        self.requests_consumed, self.list_after, self.freq_after = requests_consumed, list_after, freq_after


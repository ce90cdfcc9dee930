"""The four list-accessing engines: MTF, TRANS, FC, and VFC.

MTF moves the requested element to the front after each access; TRANS swaps
it with its immediate predecessor. FC increments the requested element's
counter to f and then moves the element (a free exchange) to the first
prefix position i it now beats: f > f_i, or f == f_i with f strictly greater
than the counter at i+1. The tie rule can consult the accessed element's own
updated counter (when i+1 == j), which blocks the move and keeps
equal-counter neighbors stable.

VFC serves runs of repeated requests in one batched step. When the current
request's counter g is at least the head's counter, it behaves exactly like
FC. Otherwise it computes a window budget ``|g - f_head| + 1`` and peeks at
the budgeted-minus-one requests after the current one. If the batch trigger
fires (see :class:`VfcPolicy`), the whole block of ``B = min(budget,
requests remaining)`` requests is consumed at once: the counter grows by B,
the charge is the access cost at the pre-access position plus one unit per
extra consumed request, and a single reorganization follows. Requests inside
a consumed block are never served individually; under the LITERAL policy a
block may swallow requests for other symbols.

FC and VFC require counters that never increase along the list; each run
checks this once, in O(m), and raises :class:`UnsortedCounters` otherwise.
Lists from ``derive_list`` and the oracle start all zero, and FC and VFC
steps keep the property (the verifier checks it after every step). MTF and
TRANS ignore counters. On such a list no scan is needed: with the counters
kept negated (so ascending) beside the order, a binary search finds c, the
first prefix index whose counter is below f. Every counter before c is at
least f, so the strict rule cannot fire before c, and the tie rule only at
c - 1, whose successor is below f when c < j and is the accessed element
itself when c == j. So the element stays put when c == j, and otherwise goes
to c - 1 if that counter equals f and to c if it does not.

``run_algorithm`` is the one run loop. Each engine is a step over the order
and the negated counters (FC and VFC keep their counters there alone until
the run ends): it serves the request at a cursor, any window clipped at a
given end, and returns the accessed index j and the requests consumed. The
loop charges the access cost at position j + 1 plus one unit per extra
consumed request, and keeps the trace; the verifier drives the same steps.
"""

from bisect import bisect_right
from dataclasses import dataclass
from enum import Enum
from typing import Callable

from .listcore import (
    CostModel,
    ListLabError,
    ListState,
    RequestSequence,
    StepRecord,
    Symbol,
    SymbolNotInList,
    access_cost,
)

# (order, negated counters, sequence, cursor, window clip) -> (accessed index, requests consumed)
Step = Callable[[list[Symbol], list[int], RequestSequence, int, int], tuple[int, int]]


class UnsortedCounters(ListLabError):
    """FC or VFC was given a list whose counters increase from front to back."""


class AlgorithmKind(Enum):
    MTF = "mtf"
    TRANS = "trans"
    FC = "fc"
    VFC = "vfc"


class VfcPolicy(Enum):
    """How VFC's batch trigger reads the lookahead window.

    LITERAL batches when the current symbol occurs anywhere in the window,
    so a consumed block may swallow requests for other symbols.
    STRICT_HOMOGENEOUS batches only when the window is non-empty and every
    request in it repeats the current symbol. The two policies coincide
    whenever every window encountered is homogeneous.
    """

    LITERAL = "literal"
    STRICT_HOMOGENEOUS = "strict"


@dataclass
class RunReport:
    """Trace and total access cost of one engine run.

    ``label`` names the engine that ran: ``mtf``, ``trans``, ``fc``,
    ``vfc[literal]`` or ``vfc[strict]``; every output keys its totals by it.
    """

    label: str
    total_cost: int
    steps: list[StepRecord]
    final_state: ListState

    @property
    def step_costs(self) -> list[int]:
        return [s.cost_charged for s in self.steps]

    @property
    def consumed_counts(self) -> list[int]:
        return [s.requests_consumed for s in self.steps]


def _promote(order: list[Symbol], neg: list[int], j: int, f: int) -> None:
    """Give ``order[j]`` the counter ``f`` and move it where the FC rule
    puts it; ``neg`` holds the negated counters aligned with ``order``."""
    c = bisect_right(neg, -f, 0, j)
    if c == j:
        neg[j] = -f
        return
    if c and neg[c - 1] == -f:
        c -= 1
    order.insert(c, order.pop(j))
    del neg[j]
    neg.insert(c, -f)


def _window_end(neg: list[int], g: int, cursor: int) -> int:
    """One past the VFC window of a request with counter ``g`` at ``cursor``,
    before the clip at the sequence's end: the budget |g - f_head| + 1."""
    return cursor - neg[0] - g + 1


def _mtf(order: list[Symbol], neg: list[int], sequence: RequestSequence, cursor: int, n: int) -> tuple[int, int]:
    j = order.index(sequence[cursor])
    if j:
        order.insert(0, order.pop(j))
    return j, 1


def _trans(order: list[Symbol], neg: list[int], sequence: RequestSequence, cursor: int, n: int) -> tuple[int, int]:
    j = order.index(sequence[cursor])
    if j:
        order[j - 1], order[j] = order[j], order[j - 1]
    return j, 1


def _counting(lookahead: VfcPolicy | None) -> Step:
    """FC's step when ``lookahead`` is None, VFC's under that policy otherwise."""

    def step(order: list[Symbol], neg: list[int], sequence: RequestSequence, cursor: int, n: int) -> tuple[int, int]:
        request = sequence[cursor]
        j = order.index(request)
        g = -neg[j]
        consumed = 1
        if lookahead is not None and -neg[0] > g:
            start = cursor + 1
            stop = min(_window_end(neg, g, cursor), n)
            if lookahead is VfcPolicy.LITERAL:
                # bytes, list and tuple all expose bounded index()
                try:
                    sequence.index(request, start, stop)  # type: ignore[attr-defined]
                    consumed = stop - cursor
                except ValueError:
                    pass
            # the last request is the cheapest one to rule a window out by
            elif stop > start and sequence[stop - 1] == request and sequence[start:stop].count(request) == stop - start:
                consumed = stop - cursor
        _promote(order, neg, j, g + consumed)
        return j, consumed

    return step


_STEPS = {AlgorithmKind.MTF: _mtf, AlgorithmKind.TRANS: _trans, AlgorithmKind.FC: _counting(None)}
_STEPS |= {policy: _counting(policy) for policy in VfcPolicy}  # VFC's steps are keyed by policy


def _engine_step(kind: AlgorithmKind, policy: VfcPolicy) -> Step:
    return _STEPS[policy if kind is AlgorithmKind.VFC else kind]


def _access_costs(model: CostModel, m: int) -> list[int]:
    """The charge at each list index, one lookup a step; ``access_cost`` states the model."""
    return [access_cost(model, p) for p in range(1, m + 1)]


def run_algorithm(
    kind: AlgorithmKind,
    state: ListState,
    sequence: RequestSequence,
    model: CostModel = CostModel.FULL,
    policy: VfcPolicy = VfcPolicy.LITERAL,
    *,
    keep_trace: bool = True,
    snapshots: bool = False,
) -> RunReport:
    """Run one engine over a whole request sequence.

    Every request is consumed exactly once across steps. ``keep_trace=False``
    drops the per-step records (corpus-scale runs only need totals);
    ``snapshots=True`` additionally captures the list order and counters
    after every step.
    """
    order = list(state.order)
    neg = [-state.freq[s] for s in order]
    counting = kind is AlgorithmKind.FC or kind is AlgorithmKind.VFC
    if counting and neg != sorted(neg):
        raise UnsortedCounters(
            f"counters {tuple(-c for c in neg)} increase along the list; FC and VFC "
            "need them non-increasing from front to back"
        )
    # FC and VFC keep their counters in neg alone; MTF and TRANS keep the input's
    freq = state.freq
    counters = (lambda: tuple([-c for c in neg])) if counting else (lambda: tuple([freq[s] for s in order]))
    step = _engine_step(kind, policy)
    costs = _access_costs(model, len(order))
    steps: list[StepRecord] = []
    total = 0
    n = len(sequence)
    cursor = 0
    while cursor < n:
        try:
            j, consumed = step(order, neg, sequence, cursor, n)
        except ValueError:
            raise SymbolNotInList(sequence[cursor], cursor) from None
        cost = costs[j] + consumed - 1
        total += cost
        if keep_trace:
            snapshot = (tuple(order), counters()) if snapshots else ()
            steps.append(StepRecord(sequence[cursor], j + 1, cost, consumed, *snapshot))
        cursor += consumed

    label = f"vfc[{policy.value}]" if kind is AlgorithmKind.VFC else kind.value
    return RunReport(label, total, steps, ListState(order, dict(zip(order, counters()))))

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
to c - 1 if that counter equals f and to c if it does not. The kernels test
c == j before any search: the counters are sorted, so c == j exactly when
j == 0 or the counter at j - 1 is at least f, and such a step only writes
the new counter. Most steps are of this kind (97% of FC's and of strict
VFC's on the surrogate corpus), so only a step that moves the element calls
the search.

Once VFC has served a step for s, a request for s right after it cannot
fire a batch, under either policy:

- after an uncut batch, s's counter is f_head + 1, so s is at the head,
  and the head never opens a window (a cut batch ends the sequence);
- after a step with no window (g = f_head), s also moves to the head;
- after a rejected literal window, s is not in the window, so the next
  request is not s;
- after a rejected strict window, the window's end ``cursor + f_head - g``
  stays where it is as s climbs by one a step, so the window still holds
  the request that is not s, unless s reaches the head.

So a call looks up and tests for a window only a request other than the
one it served last, and serves a repeat as an FC step at the index j the
last step left, which ``_promote`` returns when that step moved s.

One range kernel per engine; VFC's policies share one, built per policy,
whose batch trigger is its only branch on the policy. A kernel,
``serve(order, neg, sequence, cursor, stop, costs, trace) -> (cursor,
total)``, works over the order and the negated counters (FC and VFC keep
their counters there alone until the run ends). It serves every step that
starts before ``stop``, windows clipped at the sequence's end, charging
``costs[j]`` for an access at index j plus one unit per extra consumed
request and appending a ``StepRecord`` per step to a ``trace`` that is not
None; it returns the cursor after its last step and the cost charged.
``run_algorithm`` calls it once per run, or once per step to take snapshots;
the verifier drives the same kernels a step at a time. A one-step call never
takes VFC's repeat branch; the verifier's whole runs of ``(m,) * k`` do.
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

Kernel = Callable[[list[Symbol], list[int], RequestSequence, int, int, list[int], list[StepRecord] | None],
                  tuple[int, int]]  # a range kernel, see the module docstring


class UnsortedCounters(ListLabError):
    """FC or VFC was given a list whose counters increase from front to back."""


class AlgorithmKind(Enum):
    MTF = "mtf"
    TRANS = "trans"
    FC = "fc"
    VFC = "vfc"


class VfcPolicy(Enum):
    """How VFC's batch trigger reads the lookahead window: the policies share
    one kernel, and this trigger is all that differs between them.

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


def _promote(order: list[Symbol], neg: list[int], j: int, f: int) -> int:
    """Give ``order[j]`` the counter ``f``, move it where the FC rule puts
    it and return its new index; ``neg`` holds the counters negated.

    The element must move: ``j > 0`` and ``neg[j - 1] > -f``, that is, the
    counter before it is below ``f``. The kernels write the counter of an
    element that stays put themselves."""
    c = bisect_right(neg, -f, 0, j)
    if c and neg[c - 1] == -f:
        c -= 1
    order.insert(c, order.pop(j))
    del neg[j]
    neg.insert(c, -f)
    return c


def _mtf(order, neg, sequence, cursor, stop, costs, trace):
    total = 0
    try:
        for request in sequence[cursor:stop]:
            j = order.index(request)
            if j:
                order.insert(0, order.pop(j))
            total += costs[j]
            if trace is not None:
                trace.append(StepRecord(request, j + 1, costs[j]))
    except ValueError:  # every earlier request was served, so this is its first occurrence
        raise SymbolNotInList(request, sequence.index(request, cursor)) from None
    return stop, total


def _trans(order, neg, sequence, cursor, stop, costs, trace):
    total = 0
    try:
        for request in sequence[cursor:stop]:
            j = order.index(request)
            if j:
                order[j - 1], order[j] = order[j], order[j - 1]
            total += costs[j]
            if trace is not None:
                trace.append(StepRecord(request, j + 1, costs[j]))
    except ValueError:
        raise SymbolNotInList(request, sequence.index(request, cursor)) from None
    return stop, total


def _fc(order, neg, sequence, cursor, stop, costs, trace):
    total = 0
    try:
        for request in sequence[cursor:stop]:
            j = order.index(request)
            f = 1 - neg[j]
            if j and neg[j - 1] > -f:
                _promote(order, neg, j, f)
            else:
                neg[j] = -f
            total += costs[j]
            if trace is not None:
                trace.append(StepRecord(request, j + 1, costs[j]))
    except ValueError:
        raise SymbolNotInList(request, sequence.index(request, cursor)) from None
    return stop, total


def _vfc(strict: bool) -> Kernel:
    """VFC's range kernel under one batch trigger (see :class:`VfcPolicy`)."""

    def serve(order, neg, sequence, cursor, stop, costs, trace):
        n = len(sequence)
        total = 0
        previous = None  # the request this call served last; a repeat keeps its index j (module docstring)
        try:
            while cursor < stop:
                request = sequence[cursor]
                consumed = 1
                if request != previous:
                    previous = request
                    j = order.index(request)
                    # a window opens when the head's counter is above the request's; a homogeneous
                    # one starts and ends with a repeat, so strict tests both before slicing it
                    if (not strict or cursor + 1 < n and sequence[cursor + 1] == request) and neg[0] < neg[j]:
                        end = min(cursor - neg[0] + neg[j] + 1, n)
                        if not strict:
                            try:  # bytes, list and tuple all expose bounded index()
                                sequence.index(request, cursor + 1, end)  # type: ignore[attr-defined]
                                consumed = end - cursor
                            except ValueError:
                                pass
                        elif sequence[end - 1] == request and sequence[cursor:end].count(request) == end - cursor:
                            consumed = end - cursor
                f = consumed - neg[j]
                cost = costs[j] + consumed - 1
                total += cost
                if trace is not None:
                    trace.append(StepRecord(request, j + 1, cost, consumed))
                cursor += consumed
                if j and neg[j - 1] > -f:
                    j = _promote(order, neg, j, f)
                else:
                    neg[j] = -f
        except ValueError:
            raise SymbolNotInList(request, cursor) from None
        return cursor, total

    return serve


_KERNELS: dict[str, Kernel] = {
    "mtf": _mtf, "trans": _trans, "fc": _fc, "vfc[literal]": _vfc(False), "vfc[strict]": _vfc(True),
}


def _label(kind: AlgorithmKind, policy: VfcPolicy) -> str:
    """The configuration's name in every output and its key in ``_KERNELS``; see :class:`RunReport`."""
    return f"vfc[{policy.value}]" if kind is AlgorithmKind.VFC else kind.value


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
    ``snapshots=True`` keeps them whatever ``keep_trace`` says, and also
    captures the list order and counters after every step.
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
    label = _label(kind, policy)
    serve = _KERNELS[label]
    costs = _access_costs(model, len(order))
    trace: list[StepRecord] = []
    if snapshots:  # one step a call, to read the state after each
        cursor = total = 0
        while cursor < len(sequence):
            cursor, cost = serve(order, neg, sequence, cursor, cursor + 1, costs, trace)
            total += cost
            trace[-1].list_after, trace[-1].freq_after = tuple(order), counters()
    else:
        total = serve(order, neg, sequence, 0, len(sequence), costs, trace if keep_trace else None)[1]

    return RunReport(label, total, trace, ListState(order, dict(zip(order, counters()))))

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
the new counter. Most steps are of this kind on the surrogate corpus, so
only a step that moves the element calls the search.

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

Only calls of more than one step (untraced runs, the verifier's whole
reruns) meet repeats. FC's request loop serves a repeat of the request it
served last at the index j the last step left (``_promote`` returns it), with
no lookup. FC's run loop serves a run of L requests for s in O(moves) steps:
s moves only once its counter ties its predecessor's, so the next ``neg[j] -
neg[j - 1] + 1`` requests cost ``costs[j]`` each, the last moving s. VFC's
lookahead loop looks up and tests every request: in a whole call a repeat
finds s at the head, by the list above, as a whole strict call serves there
only its last run, which rejects no window.

A strict batch leaves FC's state unless it is cut: it fires only when s's
counter g is below the head's f_head, on B = f_head - g + 1 repeats of s,
and gives s the counter f_head + 1, above every other, so VFC puts s at the
head as FC does serving the B requests one by one, and neither moves
another element. A batch cut at the sequence's end jumps s with a smaller
counter, which may meet the tie rule differently from FC's climbs: list
(1,2,3), requests (1,1,1,3,3,3). So a strict call of more than one step
serves each run before the one holding ``stop - 1`` through FC's loop, and
a run of L >= B requests costs ``costs[j] + (B - 1) + (L - B) * costs[0]``:
its first step, the batch's other B - 1 requests at one unit each, and the
rest at the head. The run loop reads B before the run's first step, as
``neg[j] - neg[0] + 1``, and moves s to the head at once; the request loop
reads it from the state the first step left, and settles when s's counter
reaches f_head. Such a run is never cut, and one begun in the previous call
is shorter than B, by the list above.

A call is bytewise, as ``_bytewise`` decides for every kernel, when it serves
more requests than the list has symbols, its requests are ``bytes`` or a
``bytearray`` (a corpus file after ``preprocess``, or a list or tuple of byte
values that ``run_algorithm`` converts) and every symbol is an int in 0..255.
Bytewise, TRANS and FC's loop (so FC, and strict VFC's hand-off to it) read a
request's index j from a 256-slot list, ``None`` where no symbol sits. The
requests must be bytes, as a list read at -1 would serve 255, and the symbols
must fit a slot, as a move rewrites theirs: TRANS the two it swaps, FC's loop
those of ``order[c:j + 1]`` after ``_promote`` moves the element from j to c,
which few steps do. MTF's move to the head shifts every symbol before it,
too many to rewrite, so a bytewise MTF call packs the order into a
``bytearray``, written back at the end: ``index`` is a memchr, and a move
shifts bytes; TRANS and FC are slower packed than slotted. A packed
``index`` costs more than the list's at the head, where MTF left the request
it served last, so a repeat costs ``costs[0]`` with no lookup. Every other
call scans: a one-step call makes one lookup, too few to pay for slots or
packing, and a literal VFC promotion's block holds too many symbols to
rewrite their slots for the scan they save.

A bytewise call of FC's loop takes the run loop when at least half of its
first 4,096 requests repeat the one before (a few microseconds to count), and
the request loop otherwise: a run costs more Python steps than a request,
and the two loops measured even on geometric runs of mean 2, where half the
requests repeat (CHANGES.md). ``_runs`` finds the runs in C: with the
requests read as one integer a, the bytes of ``a ^ a >> 8`` are 0 exactly at
repeats, and as line ends they let ``splitlines`` cut after each run.

One range kernel per engine; VFC's policies share one, built per policy,
whose batch trigger and strict's hand-off to FC's loop are its only
branches on the policy. A kernel,
``serve(order, neg, sequence, cursor, stop, costs) -> (cursor, total)``,
works over the order and the negated counters (FC and VFC keep their
counters there alone until the run ends). It serves every step that starts
before ``stop``, windows clipped at the sequence's end, charging
``costs[j]`` for an access at index j plus one unit per extra consumed
request, and returns the cursor after its last step and the cost charged.
A kernel only serves; ``run_algorithm`` records the steps.
"""

from bisect import bisect_right
from contextlib import suppress
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
    _Record,
)

# a range kernel, see the module docstring
Kernel = Callable[[list[Symbol], list[int], RequestSequence, int, int, list[int]], tuple[int, int]]


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


class RunReport(_Record):
    """The step records and total access cost of one engine run.

    ``label`` names the engine that ran: ``mtf``, ``trans``, ``fc``,
    ``vfc[literal]`` or ``vfc[strict]``; every output keys its totals by it.
    """

    _fields = ("label", "total_cost", "steps", "final_state")

    def __init__(self, label: str, total_cost: int, steps: list[StepRecord], final_state: ListState) -> None:
        self.label, self.total_cost, self.steps, self.final_state = label, total_cost, steps, final_state


def _promote(order: list[Symbol], neg: list[int], j: int, f: int) -> int:
    """Give ``order[j]`` the counter ``f``, move it where the FC rule puts
    it and return its new index; ``neg`` holds the counters negated.

    The element must move: ``j > 0`` and ``neg[j - 1] > -f``, that is, the
    counter before it is below ``f``. The kernels write the counter of an
    element that stays put themselves. Moving it to c shifts ``order[c:j]``
    one place back, so a caller that maps symbols to indices rewrites the
    entries of ``order[c:j + 1]``."""
    c = bisect_right(neg, -f, 0, j)
    if c and neg[c - 1] == -f:
        c -= 1
    order.insert(c, order.pop(j))
    del neg[j]
    neg.insert(c, -f)
    return c


def _bytewise(order: list[Symbol], sequence: RequestSequence, cursor: int, stop: int) -> bool:
    """Whether a call is bytewise: MTF then packs the list, and TRANS and FC's loop slot it (module docstring)."""
    return stop - cursor > len(order) and isinstance(sequence, (bytes, bytearray)) and all(
        type(s) is int and 0 <= s <= 255 for s in order)


def _slots(order: list[Symbol]) -> list[int | None]:
    """Each byte's index in ``order``, ``None`` where no symbol sits."""
    slots: list[int | None] = [None] * 256
    for i, s in enumerate(order):
        slots[s] = i
    return slots


# FC's loop serves a bytewise call run by run when at least this share of its first _SAMPLE requests repeat
_SAMPLE = 4096
_REPEATS = 0.5
_ENDS = bytes([0]) + b"\n" * 255  # a change mark to a line end


def _changes(sequence: bytes, cursor: int, stop: int) -> bytes:
    """A byte per request of ``sequence[cursor:stop]``, 0 where it repeats the one before; the first is the request."""
    a = int.from_bytes(sequence[cursor:stop], "big")
    return (a ^ a >> 8).to_bytes(stop - cursor, "big")


def _runs(sequence: bytes, cursor: int, stop: int) -> list[int] | None:
    """The length of each maximal run of one request in ``sequence[cursor:stop]``
    if the call is worth serving run by run, ``None`` if not (module docstring)."""
    sample = min(stop - cursor, _SAMPLE)
    if _changes(sequence, cursor, cursor + sample).count(0, 1) < _REPEATS * sample:
        return None
    # request i ends its run where request i + 1 starts one, and the last ends the last
    return list(map(len, (_changes(sequence, cursor, stop)[1:] + b"\0").translate(_ENDS).splitlines(True)))


def _mtf(order, neg, sequence, cursor, stop, costs):
    total = 0
    packed = bytearray(order) if _bytewise(order, sequence, cursor, stop) else order
    previous = object()  # the request this call served last, now at the head; none yet, not even None
    try:
        for request in sequence[cursor:stop]:
            if request == previous:
                total += costs[0]
                continue
            previous = request
            j = packed.index(request)
            packed.insert(0, packed.pop(j))  # j is 0 only on a call's first request
            total += costs[j]
    except ValueError:  # every earlier request was served, so this is its first occurrence
        raise SymbolNotInList(request, sequence.index(request, cursor)) from None
    finally:
        if packed is not order:
            order[:] = packed
    return stop, total


def _trans(order, neg, sequence, cursor, stop, costs):
    total = 0
    try:
        if _bytewise(order, sequence, cursor, stop):
            pos = _slots(order)
            for request in sequence[cursor:stop]:
                j = pos[request]
                if j:
                    other = order[j - 1]
                    order[j - 1], order[j] = request, other
                    pos[request], pos[other] = j - 1, j
                total += costs[j]
        else:
            for request in sequence[cursor:stop]:
                j = order.index(request)
                if j:
                    order[j - 1], order[j] = order[j], order[j - 1]
                total += costs[j]
    except (TypeError, ValueError):  # TypeError: an unlisted byte reads None
        raise SymbolNotInList(request, sequence.index(request, cursor)) from None
    return stop, total


def _counting(batching: bool) -> Kernel:
    """FC's range kernel; with ``batching``, strict VFC's over runs another request follows (module docstring)."""

    def serve(order, neg, sequence, cursor, stop, costs):
        total = 0
        pos = _slots(order) if _bytewise(order, sequence, cursor, stop) else None
        lengths = _runs(sequence, cursor, stop) if pos else None
        try:
            if lengths:
                at = cursor
                for rest in lengths:  # a run of L = rest requests for s = request, at index j
                    request = sequence[at]
                    at += rest
                    j = pos[request]
                    if batching and 0 < (b := neg[j] - neg[0]) < rest:  # b = B - 1, and the run settles its batch
                        total += costs[j] + b + (rest - 1 - b) * costs[0]
                        _promote(order, neg, j, rest - neg[j])
                        for i in range(j + 1):
                            pos[order[i]] = i
                        continue
                    while j and (gap := neg[j] - neg[j - 1]) < rest:  # s moves on the request after the gap
                        total += costs[j] * (gap + 1)
                        rest -= gap + 1
                        neg[j] = g = neg[j - 1]  # as the moving request finds it
                        c = _promote(order, neg, j, 1 - g)
                        for i in range(c, j + 1):
                            pos[order[i]] = i
                        j = c
                    total += costs[j] * rest
                    neg[j] -= rest
                return stop, total
            previous = object()  # the request this call served last, none yet; a repeat keeps its index j
            for request in sequence[cursor:stop]:
                if request != previous:
                    previous = request
                    j = pos[request] if pos else order.index(request)
                    head = batching  # True until the run's first repeat reads its window
                elif head:  # strict VFC settles the run's batch on the request that finds s at f_head
                    if head is True:  # -f_head, or 0 when the run's first step opened no window
                        head = neg[0] if j or neg[1:2] == neg[:1] else 0
                        settled = total + neg[j] - head + 1  # the total after the first step, plus B - 1
                    if neg[j] == head:  # the B-th request
                        total, head = settled - costs[j], 0
                g = neg[j]
                total += costs[j]
                if j and neg[j - 1] == g:
                    c = _promote(order, neg, j, 1 - g)
                    if pos:  # order[c:j + 1] moved
                        for i in range(c, j + 1):
                            pos[order[i]] = i
                    j = c
                else:
                    neg[j] = g - 1
        except (TypeError, ValueError):  # TypeError: an unlisted byte reads None
            raise SymbolNotInList(request, sequence.index(request, cursor)) from None
        return stop, total

    return serve


def _vfc(strict: bool) -> Kernel:
    """VFC's range kernel under one batch trigger (see :class:`VfcPolicy`)."""
    batched = _counting(True)

    def serve(order, neg, sequence, cursor, stop, costs):
        n = len(sequence)
        total = 0
        if strict and stop - cursor > 1:  # FC's loop serves every run but the one that holds stop - 1
            r = stop - 1
            while r > cursor and sequence[r - 1] == sequence[stop - 1]:
                r -= 1
            cursor, total = batched(order, neg, sequence, cursor, r, costs)
        try:
            while cursor < stop:
                request = sequence[cursor]
                consumed = 1
                j = order.index(request)
                # a window opens when the head's counter is above the request's; a homogeneous
                # one starts and ends with a repeat, so strict tests both before slicing it
                if (not strict or cursor + 1 < n and sequence[cursor + 1] == request) and neg[0] < neg[j]:
                    end = min(cursor - neg[0] + neg[j] + 1, n)
                    if not strict:
                        if request in sequence[cursor + 1:end]:
                            consumed = end - cursor
                    elif sequence[end - 1] == request and sequence[cursor:end].count(request) == end - cursor:
                        consumed = end - cursor
                f = consumed - neg[j]
                total += costs[j] + consumed - 1
                cursor += consumed
                if j and neg[j - 1] > -f:
                    _promote(order, neg, j, f)
                else:
                    neg[j] = -f
        except ValueError:
            raise SymbolNotInList(request, cursor) from None
        return cursor, total

    return serve


_KERNELS: dict[str, Kernel] = {
    "mtf": _mtf, "trans": _trans, "fc": _counting(False), "vfc[literal]": _vfc(False), "vfc[strict]": _vfc(True),
}


def _label(kind: AlgorithmKind, policy: VfcPolicy) -> str:
    """The configuration's name in every output and its key in ``_KERNELS``; see :class:`RunReport`."""
    return f"vfc[{policy.value}]" if kind is AlgorithmKind.VFC else kind.value


def _access_costs(model: CostModel | str, m: int) -> list[int]:
    """The charge at each list index, one lookup a step (see :class:`CostModel`); another model raises ValueError."""
    head = 1 if CostModel(model) is CostModel.FULL else 0
    return list(range(head, m + head))


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
    drops the per-step records and serves the sequence in one kernel call, as
    ``bytes`` if a list or tuple of ints in 0..255, so the call can be bytewise
    (module docstring); a run that records steps calls the kernel once a step,
    and reads each record's position back from that step's charge.
    ``snapshots=True`` keeps the records whatever ``keep_trace`` says, and also
    captures the order and counters after each.
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
    if keep_trace or snapshots:  # one step a call, to record each
        cursor = total = 0
        while cursor < len(sequence):
            after, cost = serve(order, neg, sequence, cursor, cursor + 1, costs)
            total += cost
            consumed = after - cursor  # the step charged costs[j] + consumed - 1 for position j + 1
            trace.append(StepRecord(sequence[cursor], cost - costs[0] - consumed + 2, cost, consumed,
                                    tuple(order) if snapshots else None, counters() if snapshots else None))
            cursor = after
    else:
        if isinstance(sequence, (list, tuple)):  # bytes() of another buffer copies its raw memory
            with suppress(TypeError, ValueError):  # a request that is no int in 0..255: not bytewise
                sequence = bytes(sequence)
        total = serve(order, neg, sequence, 0, len(sequence), costs)[1]
    final = dict(zip(order, counters()))
    if len(final) != len(order):  # the input state's symbols were distinct, so a kernel broke it
        raise RuntimeError(f"{label} left the list {order}, which repeats a symbol")
    return RunReport(label, total, trace, ListState(order, final))

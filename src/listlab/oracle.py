"""Reference implementations for validating the engines on small instances.

``naive_fc_step_costs`` re-implements the frequency-count service loop
directly over (symbol, counter) pairs; it shares no state or helpers with
the engine it cross-checks. ``opt_free_exchange_cost`` is the offline
optimum restricted to free exchanges (after each access the accessed element
may move closer to the front at zero cost), computed by the forward dynamic
program of Reingold & Westbrook (IPL 1996) over the list orders, each order
a row of a transition table cached per starting list. The unrestricted
optimum could also use paid exchanges and is never larger, so the value
computed here upper-bounds it. That is the safe direction for every check
in :func:`verify_engines`: the engines use free exchanges only, hence cost
at least the free-exchange optimum, and the move-to-front bound
``MTF <= 2 * OPT`` only gets weaker when OPT is replaced by an upper bound.

One deliberate exception: dominance over the optimum is a theorem only for
engines that actually serve every request. A LITERAL-policy VFC batch may
swallow requests for other symbols at one unit each without ever visiting
their list positions, and that can legitimately land below the optimum of
any true serving strategy (requests (1,1,2,1,2) on list (1,2,3) cost 6
against an optimum of 7). Strict-policy batches consume only repeats of the
accessed symbol, and their charge ``p + (B - 1)`` is exactly realizable by
accessing at p, moving to the front for free, and serving the remaining
B - 1 repeats at the head, so dominance holds for them unconditionally.
The dominance check therefore covers MTF, TRANS, FC and strict VFC on every
instance, and literal VFC only on runs whose batches swallowed nothing.

The instances come in lexicographic order, so the one before each instance
is its parent (the instance one request shorter) or extends it. Rather than
rerun the engines per instance, the verifier keeps what serving each prefix
of the current instance left and extends the parent's state by one request,
driving the kernels of ``run_algorithm`` one step a call. MTF, TRANS and FC
are online, so that state holds for every extension. A VFC step reads a
window of later requests, clipped at the sequence's end, so only steps whose
unclipped window lies in the prefix hold for every extension; the chain
commits those, and each instance serves the rest over its own end. Both
references are online as well, so each prefix also keeps the FC reference's
(symbol, counter) entries and total and OPT's ``reach``, moved one request
forward by the step that ``naive_fc_step_costs`` and
``opt_free_exchange_cost`` take per request. A slip in the chain's
bookkeeping would feed both sides of every check, so the per-instance
functions stay the chain's oracle: the tests compare the two on every
instance at small bounds, and on the last instance of each length,
``(m,) * k``, the walk recomputes both from scratch and runs each
configuration whole, reaching VFC's repeat branch, which one-step calls
never take, at every VFC step after the first.
"""

import heapq
import itertools
from bisect import insort
from dataclasses import dataclass
from functools import lru_cache
from types import MappingProxyType
from typing import Iterator, Mapping

from .algorithms import _KERNELS, AlgorithmKind, Kernel, VfcPolicy, _access_costs, _label, run_algorithm
from .listcore import CostModel, InvalidListState, ListLabError, ListState, RequestSequence, Symbol, SymbolNotInList

MAX_INSTANCE_LIST = 5
MAX_INSTANCE_SEQ = 10
MAX_ENUM_LIST = 5
MAX_ENUM_SEQ = 9
# counterexamples kept per check; later ones are dropped
FAILURE_LIMIT = 5
# the free exchanges from every order of one list, built by _exchanges
_Table = Mapping[Symbol, tuple[tuple[int, tuple[int, ...]], ...]]


class InstanceTooLarge(ListLabError):
    """The brute-force oracle only accepts tiny instances."""


class BoundsExceeded(ListLabError):
    """Exhaustive enumeration was asked for more than it can afford."""


@dataclass(frozen=True)
class SmallInstance:
    """A tiny benchmark case: initial list order (all counters zero), the
    request sequence, and the cost model (a ``CostModel`` or its value)."""

    order: tuple[Symbol, ...]
    sequence: tuple[Symbol, ...]
    model: CostModel = CostModel.FULL

    def __post_init__(self) -> None:
        object.__setattr__(self, "order", tuple(self.order))
        object.__setattr__(self, "sequence", tuple(self.sequence))
        object.__setattr__(self, "model", CostModel(self.model))
        if len(self.order) > MAX_INSTANCE_LIST:
            raise InstanceTooLarge(f"list size {len(self.order)} exceeds {MAX_INSTANCE_LIST}")
        if len(self.sequence) > MAX_INSTANCE_SEQ:
            raise InstanceTooLarge(f"sequence length {len(self.sequence)} exceeds {MAX_INSTANCE_SEQ}")
        if len(set(self.order)) != len(self.order):  # the two oracles would disagree on the list
            raise InvalidListState("list symbols must be pairwise distinct")

    def to_state(self) -> ListState:
        return ListState.from_order(self.order)


def naive_fc_step_costs(instance: SmallInstance) -> list[int]:
    """Per-request costs of frequency count, evaluated by the direct rule."""
    head = _head_cost(instance.model)
    entries = [(s, 0) for s in instance.order]
    return [_fc_step(entries, request, index, head) for index, request in enumerate(instance.sequence)]


def naive_fc_cost(instance: SmallInstance) -> int:
    """Total frequency-count cost per the independent reference loop."""
    return sum(naive_fc_step_costs(instance))


def opt_free_exchange_cost(instance: SmallInstance) -> int:
    """Minimum total cost over all free-exchange serving strategies.

    One pass over the requests; ``reach`` maps each list order (by index)
    some strategy can hold after the requests so far to its least cost.
    """
    head = _head_cost(instance.model)
    table = _exchanges(instance.order)
    reach = {0: 0}
    for index, request in enumerate(instance.sequence):
        reach = _opt_step(reach, table, request, index, head)
    return min(reach.values())


def _head_cost(model: CostModel) -> int:
    """What both references charge at the front; they share no cost helper with the engines."""
    return 1 if model is CostModel.FULL else 0


def _fc_step(entries: list[tuple[Symbol, int]], request: Symbol, index: int, head: int) -> int:
    """Serve ``request``, the one at ``index``, on the (symbol, counter)
    ``entries`` in place by the direct rule; return its cost."""
    k = next((i for i, e in enumerate(entries) if e[0] == request), None)
    if k is None:
        raise SymbolNotInList(request, index)
    f = entries[k][1] + 1
    entries[k] = (request, f)
    for i in range(k):
        # entries[i + 1] may be the accessed entry itself, counter updated
        if f > entries[i][1] or (f == entries[i][1] and f > entries[i + 1][1]):
            entries.insert(i, entries.pop(k))
            break
    return k + head


def _opt_step(reach: dict[int, int], table: _Table, request: Symbol, index: int, head: int) -> dict[int, int]:
    """``reach`` after serving ``request``, the one at ``index``, then making
    each free exchange that ``table`` lists for it."""
    rows = table.get(request)
    if rows is None:
        raise SymbolNotInList(request, index)
    after: dict[int, int] = {}
    for at, cost in reach.items():
        i, targets = rows[at]
        cost += i + head
        for to in targets:
            if to not in after or cost < after[to]:
                after[to] = cost
    return after


@lru_cache(maxsize=32)  # a verify run reads one list order
def _exchanges(order: tuple[Symbol, ...]) -> _Table:
    """Per symbol, a row per permutation of ``order`` (by index, ``order``
    first): the symbol's index there and the permutations its free exchanges leave."""
    orders = list(itertools.permutations(order))
    index = {o: k for k, o in enumerate(orders)}
    table: dict[Symbol, list] = {s: [] for s in order}
    for o in orders:
        for i, s in enumerate(o):
            rest = o[:i] + o[i + 1 :]
            table[s].append((i, tuple(index[rest[:to] + (s,) + rest[to:]] for to in range(i + 1))))
    return MappingProxyType({s: tuple(rows) for s, rows in table.items()})


def enumerate_instances(m: int, n_max: int, model: CostModel = CostModel.FULL) -> Iterator[SmallInstance]:
    """Every sequence over the alphabet {1..m} up to length ``n_max``, each
    paired with the identity-ordered zero-counter list, in lexicographic
    order, each after its proper prefixes: (), (1,), (1, 1), ..., (m,) * n_max."""
    if not 1 <= m <= MAX_ENUM_LIST:
        raise BoundsExceeded(f"list size {m} not in 1..{MAX_ENUM_LIST}")
    if not 0 <= n_max <= MAX_ENUM_SEQ:
        raise BoundsExceeded(f"sequence bound {n_max} not in 0..{MAX_ENUM_SEQ}")
    alphabet = tuple(range(1, m + 1))
    streams = (itertools.product(alphabet, repeat=n) for n in range(n_max + 1))
    return (SmallInstance(alphabet, seq, model) for seq in heapq.merge(*streams))


CHECKS = (
    "fc-matches-reference",
    "opt-dominates-engines",
    "mtf-within-twice-opt",
    "fc-vfc-conservation",
    "full-model-lower-bound",
    "frequencies-non-increasing",
    "batch-promotes-to-head",
)
# the checks that hold only when accessing the head costs one
FULL_MODEL_CHECKS = ("mtf-within-twice-opt", "full-model-lower-bound")
# the engine configurations verify walks: mtf, trans, fc, vfc[literal], vfc[strict]
RUNS = (*((kind, VfcPolicy.LITERAL) for kind in AlgorithmKind), (AlgorithmKind.VFC, VfcPolicy.STRICT_HOMOGENEOUS))


@dataclass
class CheckResult:
    name: str
    instances: int
    failures: list[str]

    @property
    def passed(self) -> bool:
        return not self.failures


@dataclass
class VerificationReport:
    checks: list[CheckResult]
    instances: int

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def summary_lines(self) -> list[str]:
        lines = []
        for check in self.checks:
            status = "PASS" if check.passed else "FAIL"
            lines.append(f"{status} {check.name} ({check.instances} instances)")
            lines.extend(f"  counterexample: {f}" for f in check.failures)
        return lines


def verify_engines(
    max_list_size: int = 3,
    max_seq_len: int = 6,
    model: CostModel | str = CostModel.FULL,
) -> VerificationReport:
    """Exhaustive cross-check of every engine against the oracles.

    Per instance: the FC engine must match the independent reference total;
    the free-exchange optimum must not exceed the total of any engine that
    served every request (see the module docstring for why a swallowing
    literal-VFC run is exempt); MTF must stay within twice the optimum; FC
    and VFC runs must conserve counters and list membership and consume each
    request exactly once; totals must be at least the request count;
    counters along the list must be non-increasing after every step; an
    uncut batched step must leave the batched symbol at the head. The checks
    in ``FULL_MODEL_CHECKS`` run only under the full model. Each check keeps
    its ``FAILURE_LIMIT`` shortest counterexamples, those of one length in
    the walk's order and those of one instance in ``_failures`` order.

    The engines' states and both references come from one walk over the
    instances' prefixes (see the module docstring); the walk reruns both only
    on the last instance of each length, and raises ``RuntimeError`` if the
    chain disagrees with a rerun.
    """
    model = CostModel(model)
    failures: dict[str, list[tuple[int, str]]] = {name: [] for name in CHECKS}  # (length, line)
    total = 0
    for instance, runs in _prefix_runs(max_list_size, max_seq_len, model):
        total += 1
        n = len(instance.sequence)
        for name, detail in _failures(instance, runs, runs.reference, runs.opt):
            kept = failures[name]
            if len(kept) < FAILURE_LIMIT or n < kept[-1][0]:  # insort puts it after every kept line of length n
                insort(kept, (n, f"order={instance.order} seq={instance.sequence}: {detail}"), key=lambda k: k[0])
                del kept[FAILURE_LIMIT:]
    skipped = () if model is CostModel.FULL else FULL_MODEL_CHECKS
    checks = [CheckResult(name, 0 if name in skipped else total, [f for _, f in failures[name]]) for name in CHECKS]
    return VerificationReport(checks, total)


@dataclass(slots=True)
class _Run:
    """An engine configuration after the requests it consumed, and what the
    step checks found; a prefix's run is shared, so serving copies it."""

    label: str
    serve: Kernel
    lookahead: bool
    order: list[Symbol]
    neg: list[int]  # negated counters, aligned with order
    cursor: int = 0  # requests consumed
    total: int = 0
    unsorted: str | None = None  # the first step after which the counters increase
    batches: tuple[tuple[int, str], ...] = ()  # (cursor after, detail) per batch that left another head
    swallowed: bool = False  # a batch consumed a request for another symbol

    def served(self, sequence: RequestSequence, costs: list[int], committed: bool) -> "_Run":
        """The run after ``sequence``, its kernel driven one step a call, so
        windows clip at the end; ``committed`` stops at the first window
        reaching past the end, so every step taken holds for any extension."""
        run, order, neg, end = self, self.order, self.neg, len(sequence)
        while run.cursor < end:
            cursor = run.cursor
            request = sequence[cursor]
            # the unclipped window ends at cursor + |g - f_head| + 1; a step
            # with no window (head counter <= g) ends by cursor + 1 <= end
            if committed and self.lookahead and cursor - neg[0] + neg[order.index(request)] + 1 > end:
                break
            if run is self:
                run = _Run(self.label, self.serve, self.lookahead, order[:], neg[:], cursor, self.total,
                           self.unsorted, self.batches, self.swallowed)
                order, neg = run.order, run.neg
            after, cost = self.serve(order, neg, sequence, cursor, cursor + 1, costs, None)
            run.cursor = after
            run.total += cost
            if run.unsorted is None and neg != sorted(neg):
                run.unsorted = f"{self.label} counters {tuple(-c for c in neg)} after serving {request}"
            if after - cursor > 1:
                if order[0] != request:
                    run.batches += ((after, f"{self.label} batch on {request} left head {order[0]}"),)
                run.swallowed |= sequence[cursor:after].count(request) != after - cursor
        return run


class _Prefix(list):
    """What serving a prefix leaves: the runs of ``RUNS`` (the list itself),
    the FC reference's (symbol, counter) entries and total, and OPT's ``reach``."""

    __slots__ = ("entries", "reference", "reach")

    def __init__(self, runs: list[_Run], entries: list[tuple[Symbol, int]], reference: int, reach: dict[int, int]):
        super().__init__(runs)
        self.entries, self.reference, self.reach = entries, reference, reach

    @property
    def opt(self) -> int:
        return min(self.reach.values())

    def extended(self, sequence: RequestSequence, costs: list[int], table: _Table, head: int) -> "_Prefix":
        """What serving ``sequence``, one request longer than this prefix, leaves, each run committed."""
        index = len(sequence) - 1
        request = sequence[index]
        entries = self.entries[:]
        reference = self.reference + _fc_step(entries, request, index, head)
        runs = [run.served(sequence, costs, True) for run in self]
        return _Prefix(runs, entries, reference, _opt_step(self.reach, table, request, index, head))


def _prefix_runs(m: int, n_max: int, model: CostModel) -> Iterator[tuple[SmallInstance, _Prefix]]:
    """Yield each instance of ``enumerate_instances`` with what serving it leaves;
    ``chain[k]`` holds what the first k requests of the previous instance left."""
    costs = _access_costs(model, m)
    head = _head_cost(model)
    chain: list[_Prefix] = []
    for instance in enumerate_instances(m, n_max, model):
        sequence = instance.sequence
        if chain:
            del chain[len(sequence) :]
            chain.append(chain[-1].extended(sequence, costs, table, head))
        else:  # the empty instance comes first; every instance starts from its list, all counters zero
            table = _exchanges(instance.order)
            runs = [_Run(label := _label(kind, policy), _KERNELS[label], kind is AlgorithmKind.VFC,
                         list(instance.order), [0] * m) for kind, policy in RUNS]
            chain.append(_Prefix(runs, [(s, 0) for s in instance.order], 0, {0: 0}))
        last = chain[-1]
        runs = [run.served(sequence, costs, False) for run in last]
        if sequence == (m,) * len(sequence):  # the last instance of its length: see the module docstring
            chained = (last.reference, last.opt)
            expected = (naive_fc_cost(instance), opt_free_exchange_cost(instance))
            if chained != expected:
                raise RuntimeError(f"{instance}: the prefix chain gives (reference, opt) {chained}, "
                                   f"a pass from scratch {expected}")
            for (kind, policy), run in zip(RUNS, runs):
                whole = run_algorithm(kind, instance.to_state(), sequence, model, policy, keep_trace=False)
                walked = ListState(run.order, dict(zip(run.order, [-c for c in run.neg])))
                if (run.total, walked) != (whole.total_cost, whole.final_state):
                    raise RuntimeError(f"{instance}: {run.label} walks to total {run.total}, {walked}; "
                                       f"a whole run to total {whole.total_cost}, {whole.final_state}")
        yield instance, _Prefix(runs, last.entries, last.reference, last.reach)


def _failures(instance: SmallInstance, runs: list[_Run], reference: int, opt: int) -> Iterator[tuple[str, str]]:
    """Yield (check, detail) for every check ``instance`` fails, given the runs after
    serving it, the FC reference's total and OPT."""
    n = len(instance.sequence)
    mtf, trans, fc, literal, strict = runs

    if fc.total != reference:
        yield "fc-matches-reference", f"engine {fc.total} != reference {reference}"

    for run in (fc, literal, strict):
        if sum(run.neg) != -n:
            yield "fc-vfc-conservation", f"{run.label} counter sum != {n}"
        if sorted(run.order) != sorted(instance.order):
            yield "fc-vfc-conservation", f"{run.label} lost or invented symbols"
        if run.unsorted is not None:
            yield "frequencies-non-increasing", run.unsorted
        # a cut-short batch always ends the run, so any batched step with
        # requests left behind it used its whole window
        for after, detail in run.batches:
            if after < n:
                yield "batch-promotes-to-head", detail
        if run.cursor != n:
            yield "fc-vfc-conservation", f"{run.label} consumed {run.cursor} of {n}"

    for run in (mtf, trans, fc, strict) if literal.swallowed else (mtf, trans, fc, strict, literal):
        if run.total < opt:
            yield "opt-dominates-engines", f"{run.label} total {run.total} < opt {opt}"

    if instance.model is CostModel.FULL:
        if mtf.total > 2 * opt:
            yield "mtf-within-twice-opt", f"mtf {mtf.total} > 2*opt {2 * opt}"
        for run in runs:
            if run.total < n:
                yield "full-model-lower-bound", f"{run.label} total {run.total} < n {n}"

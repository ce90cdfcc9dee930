"""Reference implementations for validating the engines on small instances.

``naive_fc_step_costs`` re-implements the frequency-count service loop
directly over (symbol, counter) pairs; it shares no state or helpers with
the engine it cross-checks. ``opt_free_exchange_cost`` is the offline
optimum restricted to free exchanges (after each access the accessed element
may move closer to the front at zero cost), computed by the forward dynamic
program of Reingold & Westbrook (IPL 1996) over the reachable list orders.
The unrestricted optimum could also use paid exchanges and is never larger,
so the value computed here upper-bounds it. That is the safe direction for
every check in :func:`verify_engines`: the engines use free exchanges only,
hence cost at least the free-exchange optimum, and the move-to-front bound
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
instance, and literal VFC only on runs whose batches swallowed nothing, as
read off the run's trace in the same walk that checks its counters.
"""

import itertools
from dataclasses import dataclass
from typing import Iterator

from .algorithms import AlgorithmKind, VfcPolicy, run_algorithm
from .listcore import CostModel, ListLabError, ListState, Symbol, SymbolNotInList

MAX_INSTANCE_LIST = 5
MAX_INSTANCE_SEQ = 10
MAX_ENUM_LIST = 4
MAX_ENUM_SEQ = 8
# counterexamples kept per check; later ones are dropped
FAILURE_LIMIT = 5


class InstanceTooLarge(ListLabError):
    """The brute-force oracle only accepts tiny instances."""


class BoundsExceeded(ListLabError):
    """Exhaustive enumeration was asked for more than it can afford."""


@dataclass(frozen=True)
class SmallInstance:
    """A tiny benchmark case: initial list order (all counters zero), the
    request sequence, and the cost model."""

    order: tuple[Symbol, ...]
    sequence: tuple[Symbol, ...]
    model: CostModel = CostModel.FULL

    def __post_init__(self) -> None:
        object.__setattr__(self, "order", tuple(self.order))
        object.__setattr__(self, "sequence", tuple(self.sequence))
        if len(self.order) > MAX_INSTANCE_LIST:
            raise InstanceTooLarge(f"list size {len(self.order)} exceeds {MAX_INSTANCE_LIST}")
        if len(self.sequence) > MAX_INSTANCE_SEQ:
            raise InstanceTooLarge(f"sequence length {len(self.sequence)} exceeds {MAX_INSTANCE_SEQ}")
        self.to_state()  # rejects a repeated symbol, so the two oracles agree on the list

    def to_state(self) -> ListState:
        return ListState.from_order(self.order)


def naive_fc_step_costs(instance: SmallInstance) -> list[int]:
    """Per-request costs of frequency count, evaluated by the direct rule."""
    full = instance.model is CostModel.FULL
    entries: list[list[int]] = [[s, 0] for s in instance.order]
    costs: list[int] = []
    for index, request in enumerate(instance.sequence):
        k = next((i for i, e in enumerate(entries) if e[0] == request), None)
        if k is None:
            raise SymbolNotInList(request, index)
        costs.append(k + 1 if full else k)
        entries[k][1] += 1
        f = entries[k][1]
        for i in range(k):
            # entries[i + 1] may be the accessed entry itself, counter updated
            if f > entries[i][1] or (f == entries[i][1] and f > entries[i + 1][1]):
                entries.insert(i, entries.pop(k))
                break
    return costs


def naive_fc_cost(instance: SmallInstance) -> int:
    """Total frequency-count cost per the independent reference loop."""
    return sum(naive_fc_step_costs(instance))


def opt_free_exchange_cost(instance: SmallInstance) -> int:
    """Minimum total cost over all free-exchange serving strategies.

    One pass over the requests; ``reach`` maps each list order some strategy
    can hold after the requests so far to the least cost of reaching it.
    """
    full = instance.model is CostModel.FULL
    reach = {instance.order: 0}
    for k, request in enumerate(instance.sequence):
        if request not in instance.order:
            raise SymbolNotInList(request, k)
        after: dict[tuple[Symbol, ...], int] = {}
        for order, cost in reach.items():
            i = order.index(request)
            cost += i + 1 if full else i
            rest = order[:i] + order[i + 1 :]
            for to in range(i + 1):
                moved = rest[:to] + (request,) + rest[to:]
                if cost < after.get(moved, cost + 1):
                    after[moved] = cost
        reach = after
    return min(reach.values())


def enumerate_instances(
    m: int,
    n_max: int,
    model: CostModel = CostModel.FULL,
) -> Iterator[SmallInstance]:
    """Every sequence over the alphabet {1..m} up to length ``n_max``, each
    paired with the identity-ordered zero-counter list."""
    if not 1 <= m <= MAX_ENUM_LIST:
        raise BoundsExceeded(f"list size {m} not in 1..{MAX_ENUM_LIST}")
    if not 0 <= n_max <= MAX_ENUM_SEQ:
        raise BoundsExceeded(f"sequence bound {n_max} not in 0..{MAX_ENUM_SEQ}")
    alphabet = tuple(range(1, m + 1))

    def instances() -> Iterator[SmallInstance]:
        for n in range(n_max + 1):
            for seq in itertools.product(alphabet, repeat=n):
                yield SmallInstance(alphabet, seq, model)

    return instances()


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
# verify's reruns: the traceless engines, then the counting engines with snapshots
TRACELESS_RUNS = (AlgorithmKind.MTF, AlgorithmKind.TRANS)
COUNTING_RUNS = (
    (AlgorithmKind.FC, VfcPolicy.LITERAL),
    (AlgorithmKind.VFC, VfcPolicy.LITERAL),
    (AlgorithmKind.VFC, VfcPolicy.STRICT_HOMOGENEOUS),
)


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
    model: CostModel = CostModel.FULL,
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
    its first ``FAILURE_LIMIT`` counterexamples.
    """
    failures: dict[str, list[str]] = {name: [] for name in CHECKS}
    total = 0
    for instance in enumerate_instances(max_list_size, max_seq_len, model):
        total += 1
        for name, detail in _failures(instance, model):
            if len(failures[name]) < FAILURE_LIMIT:
                failures[name].append(f"order={instance.order} seq={instance.sequence}: {detail}")
    skipped = () if model is CostModel.FULL else FULL_MODEL_CHECKS
    checks = [CheckResult(name, 0 if name in skipped else total, failures[name]) for name in CHECKS]
    return VerificationReport(checks, total)


def _failures(instance: SmallInstance, model: CostModel) -> Iterator[tuple[str, str]]:
    """Yield (check, detail) for every check ``instance`` fails.

    One walk over each counting run's steps yields its consumed-sum, counter
    and batch-head checks, and tells whether the literal run swallowed a
    request for another symbol.
    """
    state, sequence, n = instance.to_state(), instance.sequence, len(instance.sequence)
    reference = naive_fc_cost(instance)
    opt = opt_free_exchange_cost(instance)
    mtf, trans = (run_algorithm(kind, state, sequence, model, keep_trace=False) for kind in TRACELESS_RUNS)
    fc, literal, strict = counting = [
        run_algorithm(kind, state, sequence, model, policy, snapshots=True) for kind, policy in COUNTING_RUNS
    ]

    if fc.total_cost != reference:
        yield "fc-matches-reference", f"engine {fc.total_cost} != reference {reference}"

    swallowed = False
    for report in counting:
        label = report.label
        if sum(report.final_state.freq.values()) != n:
            yield "fc-vfc-conservation", f"{label} counter sum != {n}"
        if sorted(report.final_state.order) != sorted(instance.order):
            yield "fc-vfc-conservation", f"{label} lost or invented symbols"
        sorted_so_far = True
        cursor = 0
        for step in report.steps:
            start, cursor = cursor, cursor + step.requests_consumed
            freqs = step.freq_after
            if sorted_so_far and list(freqs) != sorted(freqs, reverse=True):
                sorted_so_far = False
                yield "frequencies-non-increasing", f"{label} counters {freqs} after serving {step.request}"
            if report is fc or step.requests_consumed == 1:
                continue
            # a cut-short batch always ends the run, so any batched step
            # with requests left behind it used its whole window
            if cursor < n and step.list_after[0] != step.request:
                yield "batch-promotes-to-head", f"{label} batch on {step.request} left head {step.list_after[0]}"
            if report is literal and sequence[start:cursor].count(step.request) != cursor - start:
                swallowed = True
        if cursor != n:
            yield "fc-vfc-conservation", f"{label} consumed {cursor} of {n}"

    for report in (mtf, trans, fc, strict) if swallowed else (mtf, trans, fc, strict, literal):
        if report.total_cost < opt:
            yield "opt-dominates-engines", f"{report.label} total {report.total_cost} < opt {opt}"

    if model is CostModel.FULL:
        if mtf.total_cost > 2 * opt:
            yield "mtf-within-twice-opt", f"mtf {mtf.total_cost} > 2*opt {2 * opt}"
        for report in (mtf, trans, *counting):
            if report.total_cost < n:
                yield "full-model-lower-bound", f"{report.label} total {report.total_cost} < n {n}"

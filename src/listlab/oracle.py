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
instance, and literal VFC only on runs whose batches swallowed nothing.
"""

import itertools
from dataclasses import dataclass, field
from typing import Iterator

from .algorithms import AlgorithmKind, RunReport, VfcPolicy, run_algorithm
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


@dataclass
class CheckResult:
    name: str
    instances: int = 0
    failures: list[str] = field(default_factory=list)

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


def _describe(instance: SmallInstance, detail: str) -> str:
    return f"order={instance.order} seq={instance.sequence}: {detail}"


def verify_engines(
    max_list_size: int = 3,
    max_seq_len: int = 6,
    model: CostModel = CostModel.FULL,
) -> VerificationReport:
    """Exhaustive cross-check of every engine against the oracles.

    Per instance: the FC engine must match the independent reference total;
    the free-exchange optimum must not exceed the total of any engine that
    served every request (see the module docstring for why a swallowing
    literal-VFC run is exempt); MTF must stay within twice the optimum
    (full model); FC and VFC runs must conserve counters and list membership
    and consume each request exactly once; full-model totals must be at
    least the request count; counters along the list must be non-increasing
    after every step; an uncut batched step must leave the batched symbol at
    the head.
    """
    checks = {
        name: CheckResult(name)
        for name in (
            "fc-matches-reference",
            "opt-dominates-engines",
            "mtf-within-twice-opt",
            "fc-vfc-conservation",
            "full-model-lower-bound",
            "frequencies-non-increasing",
            "batch-promotes-to-head",
        )
    }

    def record(name: str, instance: SmallInstance, detail: str) -> None:
        failures = checks[name].failures
        if len(failures) < FAILURE_LIMIT:
            failures.append(_describe(instance, detail))

    total_instances = 0
    full = model is CostModel.FULL
    for instance in enumerate_instances(max_list_size, max_seq_len, model):
        total_instances += 1
        state = instance.to_state()
        n = len(instance.sequence)
        reference = naive_fc_cost(instance)
        opt = opt_free_exchange_cost(instance)

        mtf = run_algorithm(AlgorithmKind.MTF, state, instance.sequence, model, keep_trace=False)
        trans = run_algorithm(AlgorithmKind.TRANS, state, instance.sequence, model, keep_trace=False)
        fc = run_algorithm(AlgorithmKind.FC, state, instance.sequence, model, snapshots=True)
        vfc_lit = run_algorithm(
            AlgorithmKind.VFC, state, instance.sequence, model, VfcPolicy.LITERAL, snapshots=True
        )
        vfc_strict = run_algorithm(
            AlgorithmKind.VFC, state, instance.sequence, model, VfcPolicy.STRICT_HOMOGENEOUS, snapshots=True
        )
        engines: list[RunReport] = [mtf, trans, fc, vfc_lit, vfc_strict]

        checks["fc-matches-reference"].instances += 1
        if fc.total_cost != reference:
            record("fc-matches-reference", instance, f"engine {fc.total_cost} != reference {reference}")

        checks["opt-dominates-engines"].instances += 1
        dominated = [mtf, trans, fc, vfc_strict]
        if not _swallowed_anything(vfc_lit, instance.sequence):
            dominated.append(vfc_lit)
        for report in dominated:
            if report.total_cost < opt:
                record(
                    "opt-dominates-engines",
                    instance,
                    f"{report.label} total {report.total_cost} < opt {opt}",
                )

        if full:
            checks["mtf-within-twice-opt"].instances += 1
            if mtf.total_cost > 2 * opt:
                record("mtf-within-twice-opt", instance, f"mtf {mtf.total_cost} > 2*opt {2 * opt}")

            checks["full-model-lower-bound"].instances += 1
            for report in engines:
                if report.total_cost < n:
                    record(
                        "full-model-lower-bound",
                        instance,
                        f"{report.label} total {report.total_cost} < n {n}",
                    )

        checks["fc-vfc-conservation"].instances += 1
        for report in (fc, vfc_lit, vfc_strict):
            label = report.label
            if sum(report.final_state.freq.values()) != n:
                record("fc-vfc-conservation", instance, f"{label} counter sum != {n}")
            if sorted(report.final_state.order) != sorted(instance.order):
                record("fc-vfc-conservation", instance, f"{label} lost or invented symbols")
            if sum(report.consumed_counts) != n:
                record("fc-vfc-conservation", instance, f"{label} consumed {sum(report.consumed_counts)} of {n}")

        checks["frequencies-non-increasing"].instances += 1
        for report in (fc, vfc_lit, vfc_strict):
            for step in report.steps:
                freqs = step.freq_after
                if any(freqs[i] < freqs[i + 1] for i in range(len(freqs) - 1)):
                    record(
                        "frequencies-non-increasing",
                        instance,
                        f"{report.label} counters {freqs} after serving {step.request}",
                    )
                    break

        checks["batch-promotes-to-head"].instances += 1
        for report in (vfc_lit, vfc_strict):
            cursor = 0
            for step in report.steps:
                cursor += step.requests_consumed
                # a cut-short batch always ends the run, so any batched step
                # with requests left behind it used its whole window
                if step.requests_consumed > 1 and cursor < n and step.list_after[0] != step.request:
                    record(
                        "batch-promotes-to-head",
                        instance,
                        f"{report.label} batch on {step.request} left head {step.list_after[0]}",
                    )

    return VerificationReport(list(checks.values()), total_instances)


def _swallowed_anything(report: RunReport, sequence: tuple[Symbol, ...]) -> bool:
    """True when a batched step consumed a request for some other symbol."""
    cursor = 0
    for step in report.steps:
        block = sequence[cursor : cursor + step.requests_consumed]
        cursor += step.requests_consumed
        if step.requests_consumed > 1 and block.count(step.request) != len(block):
            return True
    return False

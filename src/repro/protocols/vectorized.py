"""NumPy whole-grid round kernel for the threshold protocols.

The flat engines (:mod:`repro.protocols.flat`) removed per-delivery
dispatch but still step Python per sender and per slot. This module
removes the per-node loop entirely: one :class:`VectorThresholdKernel`
round is a handful of array operations over the grid's CSR neighbor
table — gather each sender's neighbor segment, ``bincount`` the copies
per receiver, compare against the ``t*mf + 1`` threshold, and flip the
decided bitmap — which is what lets a 10^6-node torus broadcast finish
in seconds (the ``megatorus`` preset).

Engagement rules (:func:`try_vector_run`)
-----------------------------------------

NumPy stays an *optional accelerator*: the kernel only takes a run it
can reproduce bit-for-bit, and everything else falls through to the
flat/reference path untouched. A run is eligible when

- the run is at ``Tier.VECTOR`` (:func:`repro.scenario.run` calls the
  kernel at no other tier) and NumPy is importable;
- the protocol registered a ``vector_build`` hook (the threshold family:
  ``b``, ``koo``, ``heter`` — CPA's endorsement sets are slot-order
  dependent, so it keeps the flat engine);
- no ``adversary_override`` (an observation hook into per-slot
  execution, which the kernel does not perform; a traced run never gets
  here because tracing runs at ``Tier.REFERENCE``);
- the adversary can never transmit (``mf == 0`` or no bad nodes) *and*
  skipping its ``observe`` is unobservable (``observe_stateless``,
  ``observe_inert_when_broke``, or an un-overridden ``observe``).

Under those rules every message in the run carries ``vtrue`` (nobody
else can inject values), so within-round slot order is irrelevant:
per-receiver copy counts commute, and a threshold crossing in round k
enables relays starting in round k+1 exactly like the slotted driver's
bucket construction. The triple-differential suite
(``tests/test_scenario_fastpath.py``, ``repro.fuzz``) pins kernel runs
against both the flat and reference engines, node state included.

Reports come back with a :class:`LazyNodeMap`: per-node
:class:`~repro.protocols.base.ThresholdNode` views materialized from the
kernel's arrays on first access, so a million-node run never builds a
million node objects just to be thrown away.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterator, Mapping

try:  # optional accelerator; kernel paths are gated on availability
    import numpy as np
except ImportError:  # pragma: no cover - exercised by the no-numpy CI leg
    np = None

from repro.errors import ConfigurationError
from repro.protocols.base import BroadcastParams, ThresholdNode
from repro.radio.budget import BudgetLedger
from repro.radio.messages import MessageKind
from repro.scenario.registries import default_threshold_max_rounds
from repro.types import NodeId, Role, Value


def available() -> bool:
    """Whether the NumPy backend can run at all in this process."""
    return np is not None


@dataclass(frozen=True)
class ThresholdProgram:
    """A threshold protocol compiled to arrays for the kernel.

    ``relay``/``honest_budget`` are per-node int64 arrays carrying what
    the protocol's ``build`` would have handed each
    :class:`~repro.protocols.base.ThresholdNode` and the ledger; the
    kernel applies source/bad overrides itself. ``assignment`` rides
    along for the report and for rebuilding the exact ledger.
    """

    relay: Any
    honest_budget: Any
    assignment: Any
    max_rounds: int


def homogeneous_program(ctx: Any, *, relay: int, good_budget: int) -> ThresholdProgram | None:
    """Program for a uniform-relay, uniform-budget threshold protocol."""
    if np is None:
        return None
    if relay < 0:
        # The per-node build rejects this in the ThresholdNode
        # constructor; fail identically before the kernel engages.
        raise ConfigurationError(f"negative relay count: {relay}")
    from repro.analysis.budgets import homogeneous_assignment

    n = ctx.grid.n
    assignment = homogeneous_assignment(ctx.grid, ctx.source, good_budget)
    return ThresholdProgram(
        relay=np.full(n, relay, dtype=np.int64),
        honest_budget=np.full(n, good_budget, dtype=np.int64),
        assignment=assignment,
        # assignment.maximum == good_budget for a homogeneous assignment;
        # using the scalar avoids its O(n) scan.
        max_rounds=default_threshold_max_rounds(
            ctx.spec.grid, ctx.params.source_sends, max(good_budget, 1)
        ),
    )


def assignment_program(ctx: Any, assignment: Any) -> ThresholdProgram | None:
    """Program for per-node relay == per-node budget (protocol B_heter)."""
    if np is None:
        return None
    budgets = np.asarray(assignment.budgets, dtype=np.int64)
    if budgets.size and int(budgets.min()) < 0:
        raise ConfigurationError(f"negative relay count: {int(budgets.min())}")
    return ThresholdProgram(
        relay=budgets,
        honest_budget=budgets,
        assignment=assignment,
        max_rounds=default_threshold_max_rounds(
            ctx.spec.grid, ctx.params.source_sends, max(assignment.maximum, 1)
        ),
    )


def _ledger_for(assignment: Any, table: Any, mf: int) -> BudgetLedger:
    """The exact ledger the normal path builds, without the dict pass.

    The scenario runner folds ``assignment.overrides()`` (every node's
    budget, source unbounded) plus per-bad ``mf`` caps into a
    :class:`BudgetLedger`; at 10^6 nodes that dict costs more than the
    run, so the resolved budget list is written directly.
    """
    ledger = BudgetLedger(len(assignment.budgets), default_budget=None)
    budget: list[int | None] = list(assignment.budgets)
    budget[assignment.source] = None  # the source is never budget-limited
    for bad in table.bad_ids:
        budget[bad] = mf
    ledger._budget = budget
    return ledger


def _observe_safe(adversary: Any) -> bool:
    """True when skipping ``observe`` is unobservable for a broke adversary."""
    cls = type(adversary)
    if getattr(cls, "observe_stateless", False):
        return True
    if getattr(cls, "observe_inert_when_broke", False):
        return True
    from repro.adversary.base import Adversary

    return getattr(cls, "observe", None) is Adversary.observe


class VectorThresholdKernel:
    """Whole-grid array execution of the threshold broadcast round loop.

    State is one int64/bool array per node attribute (pending sends,
    remaining budget, receive counts per value, decided bitmap). Each
    round:

    1. ``active = pending > 0 and budget > 0`` — the senders;
    2. every sender emits ``k = min(pending, budget, batch_per_slot)``
       copies (slot order within the round is irrelevant: only honest
       ``vtrue`` traffic exists under the eligibility rules);
    3. one CSR gather + ``bincount`` accumulates copies per receiver;
    4. undecided receivers crossing ``t*mf + 1`` decide this round and
       arm their relay quota — visible to step 1 of the *next* round,
       exactly like the slotted driver's start-of-round buckets.

    Multiple concurrent values are handled per-value for defense in
    depth, but under the eligibility rules only ``vtrue`` ever
    circulates (nobody can inject anything else), so the per-value loop
    runs exactly once per round.
    """

    def __init__(
        self,
        grid: Any,
        table: Any,
        params: BroadcastParams,
        source: NodeId,
        program: ThresholdProgram,
        adversary: Any,
        *,
        batch_per_slot: int,
    ) -> None:
        n = grid.n
        self.grid = grid
        self.table = table
        self.params = params
        self.source = source
        self.adversary = adversary
        self.n = n
        self.batch = batch_per_slot
        self.threshold = params.threshold
        starts, ids = grid.csr_arrays()
        self.indptr = starts
        self.indices = ids
        self.deg = starts[1:] - starts[:-1]
        honest = np.ones(n, dtype=bool)
        bad_ids = table.bad_ids
        if bad_ids:
            honest[np.asarray(bad_ids, dtype=np.int64)] = False
        self.honest = honest
        self.has_bad = bool(bad_ids)
        budget = program.honest_budget.copy()
        budget[source] = 1 << 62  # effectively unbounded (ledger: None)
        if bad_ids:
            budget[~honest] = 0  # bad nodes never transmit in the kernel
        self.budget = budget
        self.relay = program.relay
        self.pending = np.zeros(n, dtype=np.int64)
        self.decided = np.zeros(n, dtype=bool)
        self.decide_round = np.full(n, -1, dtype=np.int64)
        self.received = np.zeros(n, dtype=np.int64)
        self.sent = np.zeros(n, dtype=np.int64)
        # Value interning: counts live in one array per distinct value;
        # accepted_idx indexes _values where decided.
        self._values: list[Value] = [params.vtrue]
        self._counts: dict[int, Any] = {}
        self.accepted_idx = np.zeros(n, dtype=np.int64)
        # The source decides at construction time, round 0, and owes the
        # paper's 2*t*mf + 1 source broadcasts.
        self.decided[source] = True
        self.decide_round[source] = 0
        self.pending[source] = params.source_sends
        self._data_total = 0
        # Sparse frontier: the ids with pending > 0 and budget > 0,
        # maintained incrementally so each round costs O(frontier * deg)
        # instead of O(n). Invariant: pending only becomes positive at
        # construction (the source) or when a node decides, and budget
        # never increases, so membership can only be gained by newly
        # decided nodes and lost by exhaustion.
        self._active = np.nonzero((self.pending > 0) & (self.budget > 0))[0]
        self._newly_armed: list[Any] = []

    # -- round execution -----------------------------------------------------

    def run(self, max_rounds: int, stats: Any) -> Any:
        """Replicates ``RoundDriver.run`` termination exactly."""
        adversary = self.adversary
        for round_index in range(max_rounds):
            transmitted = self._step(round_index, stats)
            stats.rounds = round_index + 1
            if not transmitted:
                stats.idle_rounds += 1
            honest_active = self._active.size > 0
            if not honest_active and not adversary.has_pending():
                stats.quiescent = True
                break
            if not transmitted and not honest_active:
                stats.quiescent = True
                break
        stats.per_kind_honest[MessageKind.DATA] += self._data_total
        return stats

    def _step(self, round_index: int, stats: Any) -> bool:
        senders = self._active
        if senders.size == 0:
            return False
        k = np.minimum(self.pending[senders], self.batch)
        np.minimum(k, self.budget[senders], out=k)
        self.pending[senders] -= k
        self.budget[senders] -= k
        self.sent[senders] += k
        total_sent = int(k.sum())
        stats.honest_transmissions += total_sent
        self._data_total += total_sent
        # The driver counts every receiver of a delivery batch — bad
        # ones included — so deliveries is tallied before masking.
        stats.deliveries += int((k * self.deg[senders]).sum())
        sender_values = self.accepted_idx[senders]
        self._newly_armed = []
        for value_index in np.unique(sender_values):
            sel = sender_values == value_index
            self._scatter(int(value_index), senders[sel], k[sel], round_index)
        # Next round's frontier: this round's survivors plus nodes armed
        # by a decision (always disjoint — senders are already decided).
        still = (self.pending[senders] > 0) & (self.budget[senders] > 0)
        parts = [senders[still], *self._newly_armed]
        self._active = np.concatenate(parts) if len(parts) > 1 else parts[0]
        return True

    def _scatter(self, value_index: int, senders: Any, k: Any, round_index: int) -> None:
        """Deliver ``k[i]`` copies of one value from each ``senders[i]``."""
        lens = self.deg[senders]
        total = int(lens.sum())
        if total == 0:
            return  # degenerate shapes: a 1x1 bounded grid has no edges
        ends = np.cumsum(lens)
        receivers = self.indices[
            np.repeat(self.indptr[senders], lens)
            + np.arange(total, dtype=np.int64)
            - np.repeat(ends - lens, lens)
        ]
        weights = np.repeat(k, lens)
        if self.has_bad:
            keep = self.honest[receivers]
            receivers = receivers[keep]
            weights = weights[keep]
            if receivers.size == 0:
                return
        # Collapse to (unique receiver, copies delivered) pairs so every
        # update below is O(frontier), never O(n). float64 bincount is
        # exact here (counts stay far below 2^53).
        touched, inverse = np.unique(receivers, return_inverse=True)
        add = np.bincount(inverse, weights=weights).astype(np.int64)
        self.received[touched] += add
        counts = self._counts.get(value_index)
        if counts is None:
            counts = self._counts[value_index] = np.zeros(self.n, dtype=np.int64)
        before = counts[touched]
        crossing = (
            (~self.decided[touched])
            & (before < self.threshold)
            & (before + add >= self.threshold)
        )
        counts[touched] = before + add
        newly = touched[crossing]
        if newly.size:
            self.decided[newly] = True
            self.decide_round[newly] = round_index
            self.accepted_idx[newly] = value_index
            # Relays become visible to the next round's active mask —
            # the slotted driver builds its sender buckets at round
            # start, so a decision in round k first transmits in k+1.
            self.pending[newly] = self.relay[newly]
            armed = newly[(self.pending[newly] > 0) & (self.budget[newly] > 0)]
            if armed.size:
                self._newly_armed.append(armed)

    # -- report assembly -----------------------------------------------------

    def finalize_ledger(self, ledger: BudgetLedger) -> None:
        """Write the kernel's per-node send counts into the live ledger."""
        ledger._sent[:] = self.sent.tolist()

    def outcome(self, stats: Any, vtrue: Value) -> Any:
        """Twin of :func:`repro.analysis.verify.collect_outcome`."""
        from repro.analysis.metrics import BroadcastOutcome

        mask = self.honest.copy()
        mask[self.source] = False
        total_good = int(mask.sum())
        decided_mask = mask & self.decided
        decided_good = int(decided_mask.sum())
        correct_good = 0
        for idx, value in enumerate(self._values):
            if value == vtrue:
                correct_good += int((decided_mask & (self.accepted_idx == idx)).sum())
        return BroadcastOutcome(
            total_good=total_good,
            decided_good=decided_good,
            correct_good=correct_good,
            wrong_good=decided_good - correct_good,
            rounds=stats.rounds,
            quiescent=stats.quiescent,
        )

    def costs(self) -> Any:
        """Twin of :func:`repro.analysis.verify.collect_costs`."""
        from repro.analysis.metrics import MessageCosts

        mask = self.honest.copy()
        mask[self.source] = False
        good_sent = self.sent[mask]
        good_total = int(good_sent.sum())
        size = int(good_sent.size)
        return MessageCosts(
            good_total=good_total,
            good_max=int(good_sent.max()) if size else 0,
            good_avg=good_total / size if size else 0.0,
            source_sent=int(self.sent[self.source]),
            bad_total=0,  # eligibility: the adversary never transmits
        )


class LazyNodeMap(Mapping):
    """``report.nodes`` for kernel runs: ThresholdNode views on demand.

    Mapping-identical to the dict the per-node path builds (same keys,
    ascending honest ids; same node state, pinned by the differential
    suites) — but a node object only exists once something looks at it.
    """

    def __init__(self, kernel: VectorThresholdKernel, params: BroadcastParams) -> None:
        self._kernel = kernel
        self._params = params
        self._cache: dict[NodeId, ThresholdNode] = {}

    def __getitem__(self, node_id: NodeId) -> ThresholdNode:
        node = self._cache.get(node_id)
        if node is None:
            node = self._cache[node_id] = self._materialize(node_id)
        return node

    def __iter__(self) -> Iterator[NodeId]:
        kernel = self._kernel
        return iter(np.nonzero(kernel.honest)[0].tolist())

    def __len__(self) -> int:
        return int(self._kernel.honest.sum())

    def _materialize(self, node_id: NodeId) -> ThresholdNode:
        kernel = self._kernel
        try:
            # Negative ids would hit numpy's wraparound indexing; the
            # dict the per-node path builds raises KeyError for them.
            if node_id < 0 or not kernel.honest[node_id]:
                raise KeyError(node_id)
        except (IndexError, TypeError):
            raise KeyError(node_id) from None
        role = Role.SOURCE if node_id == kernel.source else Role.GOOD
        node = ThresholdNode(
            node_id, role, self._params, relay_count=int(kernel.relay[node_id])
        )
        node._received_total = int(kernel.received[node_id])
        value_counts = node._value_counts
        for idx, counts in kernel._counts.items():
            copies = int(counts[node_id])
            if copies:
                value_counts[kernel._values[idx]] = copies
        if kernel.decided[node_id] and role is not Role.SOURCE:
            node._current_round = int(kernel.decide_round[node_id])
            node._decide(kernel._values[int(kernel.accepted_idx[node_id])])
        if node._decided:
            node._pending_count = int(kernel.pending[node_id])
        return node


def try_vector_run(
    spec: Any,
    protocol: Any,
    grid: Any,
    table: Any,
    source: NodeId,
    params: BroadcastParams,
    *,
    adversary_override: Callable[..., Any] | None,
) -> Any | None:
    """Run the scenario on the whole-grid kernel, or ``None`` if ineligible.

    Called by :func:`repro.scenario.runner.run` at ``Tier.VECTOR`` before
    per-node protocol assembly; a ``None`` return falls through to the
    flat/reference path with nothing consumed (the adversary, if one was
    built to check observe-safety, is rebuilt there — constructors are
    cheap and deterministic in ``spec.seed``).
    """
    if np is None or adversary_override is not None:
        return None
    vector_build = getattr(protocol, "vector_build", None)
    if vector_build is None:
        return None
    if spec.mf != 0 and table.bad_ids:
        return None  # the adversary could actually transmit
    from repro.scenario.registries import BehaviorContext, BuildContext, behaviors
    from repro.sim.rng import RngRegistry
    from repro.sim.trace import NULL_TRACER

    program = vector_build(
        BuildContext(spec=spec, grid=grid, table=table, source=source, params=params)
    )
    if program is None:
        return None
    ledger = _ledger_for(program.assignment, table, spec.mf)
    behavior = behaviors.get(spec.behavior or protocol.default_behavior)
    adversary = behavior.build(
        BehaviorContext(
            spec=spec,
            grid=grid,
            table=table,
            ledger=ledger,
            params=params,
            rngs=RngRegistry(spec.seed),
            tracer=NULL_TRACER,
        )
    )
    if not _observe_safe(adversary):
        return None
    from repro.radio.mac import RunLimits, RunStats
    from repro.runner.report import BroadcastReport

    max_rounds = spec.max_rounds if spec.max_rounds is not None else program.max_rounds
    limits = RunLimits(max_rounds=max_rounds)  # same validation as the driver
    kernel = VectorThresholdKernel(
        grid,
        table,
        params,
        source,
        program,
        adversary,
        batch_per_slot=spec.batch_per_slot,
    )
    nodes = LazyNodeMap(kernel, params)
    binder = getattr(adversary, "bind_decided", None)
    if callable(binder):
        binder(nodes)
    bits_binder = getattr(adversary, "bind_decided_bits", None)
    if callable(bits_binder):
        bits_binder(kernel.decided)
    stats = kernel.run(limits.max_rounds, RunStats())
    kernel.finalize_ledger(ledger)
    return BroadcastReport(
        outcome=kernel.outcome(stats, spec.vtrue),
        costs=kernel.costs(),
        stats=stats,
        grid=grid,
        table=table,
        nodes=nodes,
        adversary=adversary,
        ledger=ledger,
        assignment=program.assignment,
    )


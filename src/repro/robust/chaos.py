"""Deterministic, seedable fault injection for the robust synthesis cascade.

``tests/test_failure_injection.py`` corrupts *data* structures and asserts
the validators notice; this module extends that philosophy to *control
flow*: a :class:`ChaosHarness` hooks the stage boundaries of
:func:`repro.robust.synthesize` and injects three fault classes —

* ``"exception"`` — raise a :class:`ChaosFault` (deliberately **not** a
  :class:`~repro.errors.ReproError`, proving the cascade survives arbitrary
  exception types, not just its own);
* ``"deadline"`` — force the attempt's :class:`~repro.robust.SolverBudget`
  into exhaustion so the *solver's own cooperative checkpoint* raises
  mid-search (stages without a budget raise directly);
* ``"corruption"`` — silently corrupt the stage's output structure (a tap
  binding's shift, a netlist output wire) so only the end-to-end
  convolution self-check can catch it.

Injection is driven by a seeded :class:`random.Random`, so a given seed
replays the exact same fault sequence; ``injections`` records every fault
actually fired for test assertions.

Beyond in-process stage faults, :class:`ProcessFaultPlan` describes
*process-level* fault schedules for the sweep engine
(:mod:`repro.eval.parallel`): seeded worker SIGKILLs, injected slow tasks,
and cache-write corruption / ENOSPC simulation.  Decisions are pure
functions of ``(seed, task key, attempt)`` via SHA-256 — independent of
execution order, interning, or ``PYTHONHASHSEED`` — so a fault sequence
replays identically across processes and runs.
"""

from __future__ import annotations

import errno
import hashlib
import os
import random
import signal
import time
from dataclasses import dataclass, replace
from typing import List, Optional, Tuple

from ..arch.netlist import ShiftAddNetlist
from ..arch.nodes import Node, Ref
from ..core.sidc import TapBinding
from ..errors import BudgetExceeded, ReproError
from .budget import SolverBudget
from .degrade import STAGES

__all__ = [
    "FAULT_CLASSES",
    "MUTATION_OPERATORS",
    "PROCESS_FAULT_CLASSES",
    "CacheFaultInjector",
    "ChaosFault",
    "ChaosHarness",
    "Injection",
    "NetlistMutator",
    "ProcessFaultPlan",
    "ServiceFaultPlan",
    "StoreFaultInjector",
    "clone_netlist",
]

FAULT_CLASSES = ("exception", "deadline", "corruption")

#: Fault classes a :class:`ProcessFaultPlan` can schedule.
PROCESS_FAULT_CLASSES = ("kill", "slow", "cache_truncate", "cache_enospc")


class ChaosFault(RuntimeError):
    """An injected failure — intentionally outside the ReproError hierarchy."""


@dataclass(frozen=True)
class Injection:
    """One fault that actually fired: where, what, and in which order."""

    index: int
    stage: str
    fault: str


class ChaosHarness:
    """Injects faults at the stage boundaries of the robust cascade.

    ``rate`` is the per-stage-visit injection probability; ``max_injections``
    caps the total faults fired (``None`` = unlimited, which with
    ``rate=1.0`` guarantees every attempt fails and the cascade must raise
    :class:`~repro.errors.DegradationError`).  ``stages`` and ``faults``
    restrict where and what to inject, enabling the exhaustive
    stage × fault-class test matrix.
    """

    def __init__(
        self,
        seed: int = 0,
        stages: Tuple[str, ...] = STAGES,
        faults: Tuple[str, ...] = FAULT_CLASSES,
        rate: float = 1.0,
        max_injections: Optional[int] = None,
    ) -> None:
        unknown = [s for s in stages if s not in STAGES]
        if unknown:
            raise ReproError(f"unknown stages {unknown!r}; choose from {STAGES}")
        unknown = [f for f in faults if f not in FAULT_CLASSES]
        if unknown:
            raise ReproError(
                f"unknown fault classes {unknown!r}; choose from {FAULT_CLASSES}"
            )
        if not stages or not faults:
            raise ReproError("need at least one stage and one fault class")
        if not 0.0 <= rate <= 1.0:
            raise ReproError(f"rate must be in [0, 1], got {rate}")
        self.stages = tuple(stages)
        self.faults = tuple(faults)
        self.rate = rate
        self.max_injections = max_injections
        self.injections: List[Injection] = []
        self._rng = random.Random(seed)
        self._pending_corruption: Optional[str] = None

    def _draw(self, stage: str) -> Optional[str]:
        if stage not in self.stages:
            return None
        armed = 1 if self._pending_corruption is not None else 0
        if (
            self.max_injections is not None
            and len(self.injections) + armed >= self.max_injections
        ):
            return None
        if self._rng.random() >= self.rate:
            return None
        return self.faults[self._rng.randrange(len(self.faults))]

    def _record(self, stage: str, fault: str) -> None:
        self.injections.append(
            Injection(index=len(self.injections), stage=stage, fault=fault)
        )

    def before(self, stage: str, budget: Optional[SolverBudget] = None) -> None:
        """Stage-entry hook: may raise, exhaust the budget, or arm corruption."""
        fault = self._draw(stage)
        if fault is None:
            return
        if fault == "corruption":
            # Fires in transform() on this stage's output.
            self._pending_corruption = stage
            return
        self._record(stage, fault)
        if fault == "exception":
            raise ChaosFault(f"injected exception at stage {stage!r}")
        # fault == "deadline"
        if budget is not None:
            budget.exhaust(f"chaos-injected deadline at stage {stage!r}")
            # The solver's own cooperative checkpoint will raise mid-search;
            # stages that never consult the budget must still fail, so check
            # once here too.
            budget.checkpoint()
        else:
            raise BudgetExceeded(f"injected deadline at stage {stage!r}")

    def transform(self, stage: str, value):
        """Stage-exit hook: corrupt the stage's output if armed."""
        if self._pending_corruption != stage:
            return value
        self._pending_corruption = None
        self._record(stage, "corruption")
        if stage == "plan":
            return _corrupt_plan(value)
        return _corrupt_architecture(value)


def _corrupt_plan(plan):
    """Bump one tap binding's shift, bypassing its consistency check.

    The corrupted plan still lowers cleanly — the netlist simply computes the
    wrong coefficient for that tap — so only the convolution self-check in
    the robust cascade can catch it.
    """
    for i, binding in enumerate(plan.bindings):
        if binding.is_zero:
            continue
        broken = TapBinding.__new__(TapBinding)
        object.__setattr__(broken, "index", binding.index)
        object.__setattr__(broken, "coefficient", binding.coefficient)
        object.__setattr__(broken, "vertex", binding.vertex)
        object.__setattr__(broken, "shift", binding.shift + 1)
        object.__setattr__(broken, "sign", binding.sign)
        bindings = plan.bindings[:i] + (broken,) + plan.bindings[i + 1:]
        return replace(plan, bindings=bindings)
    raise ChaosFault("no corruptible binding: every tap is zero")


def _corrupt_architecture(architecture):
    """Re-wire one netlist output with an extra shift (silent data fault)."""
    netlist = architecture.netlist
    for name, ref in netlist.outputs.items():
        if ref is None:
            continue
        netlist._outputs[name] = Ref(
            node=ref.node, shift=ref.shift + 1, sign=ref.sign
        )
        return architecture
    raise ChaosFault("no corruptible output: every tap is zero")


# --- netlist mutation (verifier hardening) ----------------------------------

#: Mutation operators :class:`NetlistMutator` can draw from.  The first
#: group leaves the declared fundamentals stale (the structural audit must
#: catch them); the ``output_*`` and ``consistent_*`` groups produce
#: structurally immaculate netlists that compute the wrong filter (only
#: functional equivalence checking can catch them).
MUTATION_OPERATORS = (
    "operand_shift",
    "operand_sign",
    "operand_rewire",
    "node_value",
    "fundamental_entry",
    "output_shift",
    "output_sign",
    "output_rewire",
    "consistent_shift",
    "consistent_sign",
)


def _raw_ref(node: int, shift: int, sign: int) -> Ref:
    """Build a Ref bypassing its __post_init__ (mutants must not self-heal)."""
    ref = Ref.__new__(Ref)
    object.__setattr__(ref, "node", node)
    object.__setattr__(ref, "shift", shift)
    object.__setattr__(ref, "sign", sign)
    return ref


def _raw_node(node_id: int, value: int, a, b, label: str) -> Node:
    """Build a Node bypassing its __post_init__ consistency checks."""
    node = Node.__new__(Node)
    object.__setattr__(node, "id", node_id)
    object.__setattr__(node, "value", value)
    object.__setattr__(node, "a", a)
    object.__setattr__(node, "b", b)
    object.__setattr__(node, "label", label)
    return node


def clone_netlist(netlist: ShiftAddNetlist) -> ShiftAddNetlist:
    """Independent shallow-structure copy of a netlist.

    Nodes and refs are immutable, so sharing them is safe; the node list,
    fundamental table, and output map are fresh containers a mutation can
    rewrite without touching the original.
    """
    clone = ShiftAddNetlist.__new__(ShiftAddNetlist)
    clone._nodes = list(netlist.nodes)
    clone._fundamentals = netlist.fundamentals()
    clone._outputs = netlist.outputs
    return clone


def _recomputed_values(netlist: ShiftAddNetlist):
    """Actual value of every node from the wiring alone (None if unreadable)."""
    nodes = netlist.nodes
    computed = [0] * len(nodes)
    computed[0] = 1
    try:
        for node in nodes[1:]:
            computed[node.id] = node.a.value(computed[node.a.node]) + (
                node.b.value(computed[node.b.node])
            )
    except (IndexError, TypeError, AttributeError):
        return None
    return computed


def _invariants_hold(netlist: ShiftAddNetlist) -> bool:
    """Light structural re-check mirroring the verify-layer audit."""
    nodes = netlist.nodes
    computed = _recomputed_values(netlist)
    if computed is None:
        return False
    for node in nodes[1:]:
        for operand in (node.a, node.b):
            if operand is None or not 0 <= operand.node < node.id:
                return False
            if operand.shift < 0 or operand.sign not in (-1, 1):
                return False
        if node.value != computed[node.id] or computed[node.id] == 0:
            return False
    for odd, node_id in netlist.fundamentals().items():
        if not 0 <= node_id < len(nodes) or computed[node_id] != odd:
            return False
        if odd <= 0 or odd % 2 == 0:
            return False
    for ref in netlist.outputs.values():
        if ref is not None and not 0 <= ref.node < len(nodes):
            return False
    return True


def _output_signature(netlist: ShiftAddNetlist):
    """Actual integer carried by each output, from recomputed wiring."""
    computed = _recomputed_values(netlist)
    if computed is None:
        return None
    signature = {}
    for name, ref in netlist.outputs.items():
        signature[name] = None if ref is None else ref.value(computed[ref.node])
    return signature


class NetlistMutator:
    """Seeded single-fault mutant generator for verifier hardening.

    Every mutant is guaranteed *observably* faulty: either a structural
    invariant is broken (stale fundamentals, dangling wiring, corrupt
    table) or the output coefficient vector actually changes.  Draws that
    happen to produce a functionally equivalent, structurally valid
    netlist (e.g. rewiring an operand to a node of identical value) are
    discarded and redrawn — such a mutant is not a fault, and counting it
    would poison the kill-rate gate's denominator.

    The same seed replays the identical mutant sequence, so an escaped
    mutant reported by the gate is exactly reproducible.
    """

    def __init__(
        self,
        seed: int = 0,
        operators: Tuple[str, ...] = MUTATION_OPERATORS,
    ) -> None:
        unknown = [op for op in operators if op not in MUTATION_OPERATORS]
        if unknown:
            raise ReproError(
                f"unknown mutation operators {unknown!r}; choose from "
                f"{MUTATION_OPERATORS}"
            )
        if not operators:
            raise ReproError("need at least one mutation operator")
        self.operators = tuple(operators)
        self._rng = random.Random(seed)

    # -- single-operator applications (each on a fresh clone) --------------

    def _apply(self, operator: str, clone: ShiftAddNetlist) -> Optional[str]:
        """Apply ``operator`` in place; return a description or None if
        inapplicable to this netlist's shape."""
        rng = self._rng
        nodes = clone._nodes
        adder_ids = [node.id for node in nodes[1:]]
        live_outputs = [
            name for name, ref in clone._outputs.items() if ref is not None
        ]

        def pick_operand(node):
            side = rng.choice(("a", "b"))
            return side, getattr(node, side)

        if operator in ("operand_shift", "operand_sign", "consistent_shift",
                        "consistent_sign"):
            if not adder_ids:
                return None
            node_id = rng.choice(adder_ids)
            node = nodes[node_id]
            side, ref = pick_operand(node)
            if operator.endswith("shift"):
                new_ref = _raw_ref(ref.node, ref.shift + rng.randint(1, 3),
                                   ref.sign)
                change = f"shift {ref.shift}->{new_ref.shift}"
            else:
                new_ref = _raw_ref(ref.node, ref.shift, -ref.sign)
                change = f"sign {ref.sign}->{-ref.sign}"
            replacement = _raw_node(
                node.id, node.value,
                new_ref if side == "a" else node.a,
                new_ref if side == "b" else node.b,
                node.label,
            )
            nodes[node_id] = replacement
            if operator.startswith("consistent"):
                self._rebuild_consistency(clone)
                return (f"{operator}: node {node_id} operand {side} {change}, "
                        "values and fundamentals rebuilt to match")
            return f"{operator}: node {node_id} operand {side} {change}"

        if operator == "operand_rewire":
            candidates = [i for i in adder_ids if i >= 2]
            if not candidates:
                return None
            node_id = rng.choice(candidates)
            node = nodes[node_id]
            side, ref = pick_operand(node)
            targets = [i for i in range(node_id) if i != ref.node]
            if not targets:
                return None
            target = rng.choice(targets)
            new_ref = _raw_ref(target, ref.shift, ref.sign)
            nodes[node_id] = _raw_node(
                node.id, node.value,
                new_ref if side == "a" else node.a,
                new_ref if side == "b" else node.b,
                node.label,
            )
            return (f"operand_rewire: node {node_id} operand {side} "
                    f"node {ref.node}->{target}")

        if operator == "node_value":
            if not adder_ids:
                return None
            node_id = rng.choice(adder_ids)
            node = nodes[node_id]
            delta = rng.choice((-2, -1, 1, 2))
            nodes[node_id] = _raw_node(
                node.id, node.value + delta, node.a, node.b, node.label
            )
            return (f"node_value: node {node_id} declared "
                    f"{node.value}->{node.value + delta}")

        if operator == "fundamental_entry":
            if len(nodes) < 2:
                return None
            entries = list(clone._fundamentals.items())
            odd, nid = rng.choice(sorted(entries))
            targets = [i for i in range(len(nodes)) if i != nid]
            if not targets:
                return None
            target = rng.choice(targets)
            clone._fundamentals[odd] = target
            return f"fundamental_entry: {odd} repointed node {nid}->{target}"

        if operator in ("output_shift", "output_sign", "output_rewire"):
            if not live_outputs:
                return None
            name = rng.choice(sorted(live_outputs))
            ref = clone._outputs[name]
            if operator == "output_shift":
                new_ref = _raw_ref(ref.node, ref.shift + rng.randint(1, 3),
                                   ref.sign)
                change = f"shift {ref.shift}->{new_ref.shift}"
            elif operator == "output_sign":
                new_ref = _raw_ref(ref.node, ref.shift, -ref.sign)
                change = f"sign {ref.sign}->{-ref.sign}"
            else:
                targets = [i for i in range(len(nodes)) if i != ref.node]
                if not targets:
                    return None
                target = rng.choice(targets)
                new_ref = _raw_ref(target, ref.shift, ref.sign)
                change = f"node {ref.node}->{target}"
            clone._outputs[name] = new_ref
            return f"{operator}: output {name!r} {change}"

        raise ReproError(f"unknown mutation operator {operator!r}")

    @staticmethod
    def _rebuild_consistency(clone: ShiftAddNetlist) -> None:
        """Make declared values and the fundamental table match the (now
        corrupted) wiring, producing a structurally immaculate wrong filter."""
        nodes = clone._nodes
        computed = [0] * len(nodes)
        computed[0] = 1
        for node in nodes[1:]:
            value = node.a.value(computed[node.a.node]) + node.b.value(
                computed[node.b.node]
            )
            computed[node.id] = value
            if value != node.value:
                nodes[node.id] = _raw_node(
                    node.id, value, node.a, node.b, node.label
                )
        fundamentals = {1: 0}
        for node in nodes[1:]:
            value = computed[node.id]
            if value > 0 and value % 2 == 1 and value not in fundamentals:
                fundamentals[value] = node.id
        clone._fundamentals = fundamentals

    # -- public API ---------------------------------------------------------

    def mutate(
        self, netlist: ShiftAddNetlist, max_tries: int = 64
    ) -> Tuple[str, ShiftAddNetlist]:
        """One observably faulty mutant of ``netlist`` (which is untouched)."""
        baseline = _output_signature(netlist)
        for _ in range(max_tries):
            operator = self.operators[self._rng.randrange(len(self.operators))]
            clone = clone_netlist(netlist)
            description = self._apply(operator, clone)
            if description is None:
                continue
            if not _invariants_hold(clone):
                return description, clone
            if _output_signature(clone) != baseline:
                return description, clone
            # Functionally equivalent and structurally valid — not a fault.
        raise ChaosFault(
            f"could not derive an observable mutant in {max_tries} draws "
            f"(netlist of {len(netlist)} nodes, operators {self.operators!r})"
        )

    def mutants(self, netlist: ShiftAddNetlist, count: int):
        """Yield ``count`` independent ``(description, mutant)`` pairs."""
        if count < 0:
            raise ReproError(f"mutant count must be >= 0, got {count}")
        for _ in range(count):
            yield self.mutate(netlist)


# --- process-level fault schedules ------------------------------------------


def _stable_unit(seed: int, salt: str, key: str) -> float:
    """A uniform draw in [0, 1) that is a pure function of its arguments.

    SHA-256 based so the same (seed, salt, key) triple draws the same value
    in every process — the property that makes process-level fault
    sequences replayable regardless of worker scheduling.
    """
    digest = hashlib.sha256(f"{seed}\x00{salt}\x00{key}".encode()).digest()
    return int.from_bytes(digest[:8], "big") / 2**64


@dataclass(frozen=True)
class ProcessFaultPlan:
    """A deterministic schedule of process-level faults for one sweep.

    Picklable (sent to pool workers via the task tuple) and stateless:
    every decision is a pure function of ``(seed, task key, attempt)``, so
    the parent and any worker agree on what fails where, and a rerun with
    the same plan replays the identical fault sequence.

    ``kill_rate`` selects tasks whose first ``kills_per_task`` attempts
    SIGKILL their worker (recoverable: retries succeed); ``poison_tasks``
    lists task keys that kill on *every* attempt (the supervisor must
    quarantine them).  ``slow_rate``/``slow_s`` injects sleeps to simulate
    stragglers, and the ``cache_*_rate`` knobs arm a
    :class:`CacheFaultInjector` that corrupts or ENOSPC-fails disk-cache
    writes.
    """

    seed: int = 0
    kill_rate: float = 0.0
    kills_per_task: int = 1
    poison_tasks: Tuple[str, ...] = ()
    slow_rate: float = 0.0
    slow_s: float = 0.05
    cache_truncate_rate: float = 0.0
    cache_enospc_rate: float = 0.0

    def __post_init__(self) -> None:
        for name in ("kill_rate", "slow_rate", "cache_truncate_rate",
                     "cache_enospc_rate"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ReproError(f"{name} must be in [0, 1], got {value}")
        if self.kills_per_task < 0:
            raise ReproError(
                f"kills_per_task must be >= 0, got {self.kills_per_task}"
            )
        if self.slow_s < 0.0:
            raise ReproError(f"slow_s must be >= 0, got {self.slow_s}")

    def should_kill(self, key: str, attempt: int) -> bool:
        """Whether this attempt of task ``key`` SIGKILLs its worker."""
        if key in self.poison_tasks:
            return True
        if attempt >= self.kills_per_task:
            return False
        return _stable_unit(self.seed, "kill", key) < self.kill_rate

    def slow_delay(self, key: str) -> float:
        """Seconds of injected straggler delay for task ``key`` (0 = none)."""
        if _stable_unit(self.seed, "slow", key) < self.slow_rate:
            return self.slow_s
        return 0.0

    def apply_worker_faults(self, key: str, attempt: int) -> None:
        """Fire this task's worker-side faults: sleep, then maybe die.

        Called at task entry inside the worker.  The kill is a genuine
        ``SIGKILL`` of the worker's own process — the supervisor under test
        sees a real :class:`~concurrent.futures.process.BrokenProcessPool`,
        not a simulated exception.
        """
        delay = self.slow_delay(key)
        if delay > 0.0:
            time.sleep(delay)
        if self.should_kill(key, attempt):
            os.kill(os.getpid(), signal.SIGKILL)

    def cache_injector(self) -> Optional["CacheFaultInjector"]:
        """The cache-write fault injector this plan calls for, if any."""
        if self.cache_truncate_rate <= 0.0 and self.cache_enospc_rate <= 0.0:
            return None
        return CacheFaultInjector(
            seed=self.seed,
            truncate_rate=self.cache_truncate_rate,
            enospc_rate=self.cache_enospc_rate,
        )


@dataclass(frozen=True)
class CacheFaultInjector:
    """Deterministic write-fault decisions for :class:`~repro.eval.cache.DiskCache`.

    Installed via :func:`repro.eval.cache.install_fault_injector`; consulted
    once per ``put``.  ``"truncate"`` persists a torn JSON body (simulating
    filesystem corruption under a crash), ``"enospc"`` raises
    ``OSError(ENOSPC)`` before any byte is written (simulating a full disk).
    Draws are keyed by the cache key, so the same entry fails the same way
    in every process.
    """

    seed: int = 0
    truncate_rate: float = 0.0
    enospc_rate: float = 0.0

    def __post_init__(self) -> None:
        for name in ("truncate_rate", "enospc_rate"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ReproError(f"{name} must be in [0, 1], got {value}")

    def draw_put(self, key: str) -> Optional[str]:
        """``"truncate"``, ``"enospc"``, or ``None`` for this cache write."""
        if _stable_unit(self.seed, "cache_enospc", key) < self.enospc_rate:
            return "enospc"
        if _stable_unit(self.seed, "cache_truncate", key) < self.truncate_rate:
            return "truncate"
        return None

    def enospc_error(self, key: str) -> OSError:
        """The ENOSPC ``OSError`` to raise for ``key``'s write."""
        return OSError(
            errno.ENOSPC, f"chaos: no space left on device (cache key {key})"
        )


@dataclass(frozen=True)
class StoreFaultInjector:
    """Deterministic WAL-append fault decisions for the service job store.

    Installed via ``JobStore(..., fault_injector=...)``; consulted once per
    append.  ``"enospc"`` raises ``OSError(ENOSPC)`` *before* the record
    reaches the log, exercising the store's rollback path: the job must
    surface as a 503 with ``Retry-After`` and never be acknowledged, not
    crash the server or leave a phantom in-memory job.  Draws are keyed by
    ``(job_id, append ordinal)`` so the same job can fail its first append
    and succeed its retry — the shape a client-visible 503-then-retry
    certification needs.
    """

    seed: int = 0
    enospc_rate: float = 0.0
    #: Fail at most this many appends in total (None = unlimited).
    max_faults: Optional[int] = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.enospc_rate <= 1.0:
            raise ReproError(
                f"enospc_rate must be in [0, 1], got {self.enospc_rate}"
            )
        # Mutable bookkeeping on a frozen dataclass: ordinals and the
        # fault count live in a plain dict slipped past __setattr__.
        object.__setattr__(self, "_state", {"ordinals": {}, "fired": 0})

    def draw_append(self, job_id: str) -> Optional[str]:
        """``"enospc"`` or ``None`` for this append of ``job_id``."""
        state = self._state
        ordinal = state["ordinals"].get(job_id, 0)
        state["ordinals"][job_id] = ordinal + 1
        if self.max_faults is not None and state["fired"] >= self.max_faults:
            return None
        key = f"{job_id}#{ordinal}"
        if _stable_unit(self.seed, "store_enospc", key) < self.enospc_rate:
            state["fired"] += 1
            return "enospc"
        return None

    def enospc_error(self, job_id: str) -> OSError:
        """The ENOSPC ``OSError`` to raise for ``job_id``'s append."""
        return OSError(
            errno.ENOSPC, f"chaos: no space left on device (job {job_id})"
        )


@dataclass(frozen=True)
class ServiceFaultPlan:
    """A deterministic fault schedule for the job service under test.

    Composes the process-level plan (worker kills, cache faults — threaded
    into every sweep the service runs) with *service-level* load patterns:
    :meth:`flood_specs` enumerates a deterministic set of distinct job
    specs for request-flood tests, spread round-robin across
    ``flood_tenants`` synthetic tenants so the fairness and per-tenant
    shedding paths are exercised, not just the global depth cap.

    Like every chaos schedule in this module the plan is a pure function
    of its fields — two test processes (e.g. a killed server and its
    restarted successor) derive the identical flood, so invariants can be
    asserted across the restart boundary.
    """

    seed: int = 0
    process: Optional[ProcessFaultPlan] = None
    flood_jobs: int = 8
    flood_tenants: int = 2

    #: The distinct (filter_index, wordlength) design points floods draw
    #: from — small filters × small widths so a flood is cheap to absorb.
    _FLOOD_FILTERS = (0, 1, 2, 3)
    _FLOOD_WIDTHS = (6, 7, 8)

    def __post_init__(self) -> None:
        if self.flood_jobs < 0:
            raise ReproError(
                f"flood_jobs must be >= 0, got {self.flood_jobs}"
            )
        if self.flood_tenants < 1:
            raise ReproError(
                f"flood_tenants must be >= 1, got {self.flood_tenants}"
            )
        limit = len(self._FLOOD_FILTERS) * len(self._FLOOD_WIDTHS)
        if self.flood_jobs > limit:
            raise ReproError(
                f"flood_jobs must be <= {limit} (distinct design points), "
                f"got {self.flood_jobs}"
            )

    def flood_specs(self) -> Tuple[dict, ...]:
        """Deterministic distinct job specs for a request-flood test.

        Every spec names a different (filter, wordlength) design point, so
        the service's idempotent-submission collapse cannot shrink the
        flood; tenants cycle ``tenant-0..tenant-N`` so per-tenant limits
        and round-robin draining both come into play.  The *order* is
        seed-shuffled (deterministically) so depth limits are not always
        hit by the same tenant.
        """
        points = [
            (f, w) for f in self._FLOOD_FILTERS for w in self._FLOOD_WIDTHS
        ]
        points.sort(
            key=lambda p: _stable_unit(self.seed, "flood", f"{p[0]}:{p[1]}")
        )
        specs = []
        for index, (filter_index, wordlength) in enumerate(
            points[: self.flood_jobs]
        ):
            specs.append({
                "experiments": ["fig6"],
                "filters": [filter_index],
                "wordlengths": [wordlength],
                "tenant": f"tenant-{index % self.flood_tenants}",
            })
        return tuple(specs)

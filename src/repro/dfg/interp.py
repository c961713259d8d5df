"""Untimed DFG interpreter.

Executes a dataflow graph with unbounded token FIFOs and zero-latency
memory. This is the compiler's functional oracle: it must agree with the
IR interpreter on final memory for every kernel (and the timed simulator
must agree with both).

Each node's input FIFOs are one :func:`repro.dfg.ops.input_queues` row,
which :func:`repro.dfg.ops.decide` reads directly.

The scheduling ``order`` is configurable ('fifo', 'lifo', 'random') so tests
can shake out ordering races: a correctly lowered graph produces identical
results under every admissible firing order.
"""

from __future__ import annotations

import random as _random
from collections import deque

from repro.dfg.graph import DFG
from repro.dfg.ops import (
    NO_EMIT,
    decide,
    fresh_state,
    input_queues,
    unfinished,
)
from repro.errors import DFGError

#: Safety net against graphs that never quiesce.
MAX_FIRINGS = 100_000_000


class InterpResult:
    """Final memory plus execution statistics."""

    def __init__(
        self,
        memory: dict[str, list],
        firings: dict[str, int],
        node_firings: dict[int, int] | None = None,
    ):
        self.memory = memory
        #: Firing counts per op kind.
        self.firings = firings
        #: Firing counts per node id (the profile used by profile-guided
        #: criticality analysis).
        self.node_firings = node_firings or {}

    @property
    def total_firings(self) -> int:
        return sum(self.firings.values())


def run_dfg(
    dfg: DFG,
    params: dict[str, int | float] | None = None,
    arrays: dict[str, list] | None = None,
    order: str = "fifo",
    seed: int = 0,
    max_firings: int = MAX_FIRINGS,
) -> InterpResult:
    """Execute ``dfg`` to quiescence and return final memory + stats.

    Raises :class:`DFGError` if tokens remain in flight at quiescence or if
    any node is left mid-protocol (a carry outside its INIT phase, a held
    invariant) — both indicate a lowering bug.
    """
    params = dict(params or {})
    memory: dict[str, list] = {}
    for name, size in dfg.arrays.items():
        if arrays and name in arrays:
            data = list(arrays[name])
            if len(data) != size:
                raise DFGError(
                    f"array {name!r}: got {len(data)} words, declared {size}"
                )
        else:
            zero = 0 if dfg.array_dtypes.get(name, "i") == "i" else 0.0
            data = [zero] * size
        memory[name] = data

    inputs = {nid: input_queues(node) for nid, node in dfg.nodes.items()}
    states = {nid: fresh_state(node) for nid, node in dfg.nodes.items()}
    consumers = dfg.consumers()
    rng = _random.Random(seed)

    pending: deque[int] = deque(sorted(dfg.nodes))
    in_pending = set(pending)
    firings: dict[str, int] = {}
    node_firings: dict[int, int] = {}
    fired_total = 0

    def wake(nid: int) -> None:
        if nid not in in_pending:
            pending.append(nid)
            in_pending.add(nid)

    while pending:
        if order == "fifo":
            nid = pending.popleft()
        elif order == "lifo":
            nid = pending.pop()
        elif order == "random":
            index = rng.randrange(len(pending))
            pending[index], pending[-1] = pending[-1], pending[index]
            nid = pending.pop()
        else:
            raise DFGError(f"unknown scheduling order {order!r}")
        in_pending.discard(nid)
        node = dfg.nodes[nid]
        row = inputs[nid]
        decision = decide(node, states[nid], row, params)
        if decision is None:
            continue
        fired_total += 1
        if fired_total > max_firings:
            raise DFGError("DFG exceeded the firing safety limit")
        firings[node.op] = firings.get(node.op, 0) + 1
        node_firings[nid] = node_firings.get(nid, 0) + 1
        for index in decision.pops:
            row[index].popleft()
        if decision.state is not None:
            states[nid].update(decision.state)
        emit = decision.emit
        if decision.mem is not None:
            request = decision.mem
            data = memory[request.array]
            if not 0 <= request.index < len(data):
                raise DFGError(
                    f"node {nid}: index {request.index} out of bounds for "
                    f"array {request.array!r} of size {len(data)}"
                )
            if request.kind == "load":
                emit = data[request.index]
            else:
                data[request.index] = request.value
                emit = 0  # the store's ordering token
        if emit is not NO_EMIT:
            for consumer, index in consumers[nid]:
                inputs[consumer][index].append(emit)
                wake(consumer)
        # The node may be ready again immediately (queued tokens).
        wake(nid)

    _check_quiescent(dfg, inputs, states)
    return InterpResult(memory, firings, node_firings)


def _check_quiescent(dfg: DFG, inputs: dict, states: dict) -> None:
    residue = [
        (nid, index, len(queue))
        for nid, row in inputs.items()
        for index, queue in enumerate(row)
        if queue
    ]
    if residue:
        nid, idx, depth = residue[0]
        node = dfg.nodes[nid]
        raise DFGError(
            f"token leak: {len(residue)} FIFOs non-empty at quiescence; "
            f"first: node {nid} ({node.op} {node.tag!r}) port "
            f"{node.port_name(idx)} holds {depth} token(s)"
        )
    for nid, node in dfg.nodes.items():
        reason = unfinished(node, states[nid])
        if reason is not None:
            raise DFGError(f"node {nid} ({node.tag!r}): {reason}")

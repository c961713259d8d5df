"""Firing semantics for DFG operations.

Both the untimed interpreter (:mod:`repro.dfg.interp`) and the timed Monaco
simulator (:mod:`repro.sim.engine`) decide node firings through
:func:`decide`, so the *functional* semantics of every op are defined in
exactly one place; the two executors differ only in when a ready node gets
to fire and how long memory takes.

Each executor holds a node's input FIFOs as one row built by
:func:`input_queues` — a ``deque`` per port input, ``None`` per immediate
— and :func:`decide` reads that row directly. A decision is computed from
the queue heads without mutating anything; the caller applies it (pop
inputs, update state, emit / issue the memory request) once it has
checked machine-specific constraints such as downstream buffer space.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from repro.dfg.graph import Node, PortRef
from repro.errors import DFGError
from repro.isa import apply_binop, apply_unop, truthy


class _NoEmit:
    def __repr__(self):
        return "NO_EMIT"


#: Sentinel: the firing consumes tokens but produces no output token.
NO_EMIT = _NoEmit()


@dataclass(frozen=True)
class MemRequest:
    """A memory access produced by firing a load or store node."""

    kind: str  # "load" or "store"
    array: str
    index: int
    value: int | float | None = None  # store data


@dataclass
class Decision:
    """What firing a node does: pop these inputs, emit, touch memory."""

    pops: list[int] = field(default_factory=list)
    emit: object = NO_EMIT
    mem: MemRequest | None = None
    state: dict | None = None  # replacement node state, if changed


def input_queues(node: Node) -> list[deque | None]:
    """A node's input row: an empty token FIFO per port, None per immediate."""
    return [
        deque() if isinstance(inp, PortRef) else None for inp in node.inputs
    ]


def fresh_state(node: Node) -> dict:
    """Initial private state for a node."""
    if node.op == "source":
        return {"fired": False}
    if node.op == "carry":
        return {"phase": "init"}
    if node.op == "invariant":
        return {"held": False, "value": None}
    return {}


def unfinished(node: Node, state: dict) -> str | None:
    """Why ``node`` is left mid-protocol at quiescence, or None if at rest."""
    if node.op == "carry" and state["phase"] != "init":
        return "carry left in RUN phase"
    if node.op == "invariant" and state["held"]:
        return "invariant left holding a value"
    return None


def _ready(inputs: list, index: int) -> bool:
    queue = inputs[index]
    return queue is None or bool(queue)


def _value(node: Node, inputs: list, index: int, params: dict):
    queue = inputs[index]
    if queue is None:
        return node.inputs[index].resolve(params)
    return queue[0]


def _pops(inputs: list, *indices: int) -> list[int]:
    """Only port inputs are actually popped; immediates are persistent."""
    return [i for i in indices if inputs[i] is not None]


def decide(
    node: Node, state: dict, inputs: list, params: dict
) -> Decision | None:
    """Return the firing decision for ``node``, or None if not ready.

    ``inputs`` is the node's :func:`input_queues` row.
    """
    op = node.op
    if op == "source":
        if state["fired"]:
            return None
        return Decision(emit=0, state={"fired": True})

    if op == "inject":
        if not _ready(inputs, 0):
            return None
        value = node.attrs["value"].resolve(params)
        return Decision(pops=_pops(inputs, 0), emit=value)

    if op in ("binop", "unop"):
        if not all(_ready(inputs, i) for i in range(len(inputs))):
            return None
        if op == "binop":
            result = apply_binop(
                node.attrs["opname"],
                _value(node, inputs, 0, params),
                _value(node, inputs, 1, params),
            )
            return Decision(pops=_pops(inputs, 0, 1), emit=result)
        result = apply_unop(
            node.attrs["opname"], _value(node, inputs, 0, params)
        )
        return Decision(pops=_pops(inputs, 0), emit=result)

    if op == "steer":
        if not (_ready(inputs, 0) and _ready(inputs, 1)):
            return None
        dec = truthy(_value(node, inputs, 0, params))
        value = _value(node, inputs, 1, params)
        emit = value if dec == node.attrs["polarity"] else NO_EMIT
        return Decision(pops=_pops(inputs, 0, 1), emit=emit)

    if op == "invariant":
        # Port 0: val (once per region activation); port 1: dec.
        if not state["held"]:
            if not (_ready(inputs, 0) and _ready(inputs, 1)):
                return None
            dec = truthy(_value(node, inputs, 1, params))
            value = _value(node, inputs, 0, params)
            if dec:
                return Decision(
                    pops=_pops(inputs, 0, 1),
                    emit=value,
                    state={"held": True, "value": value},
                )
            return Decision(pops=_pops(inputs, 0, 1), emit=NO_EMIT)
        if not _ready(inputs, 1):
            return None
        dec = truthy(_value(node, inputs, 1, params))
        if dec:
            return Decision(pops=_pops(inputs, 1), emit=state["value"])
        return Decision(
            pops=_pops(inputs, 1),
            emit=NO_EMIT,
            state={"held": False, "value": None},
        )

    if op == "carry":
        # Ports: init, back, dec.
        if state["phase"] == "init":
            if not _ready(inputs, 0):
                return None
            value = _value(node, inputs, 0, params)
            return Decision(
                pops=_pops(inputs, 0), emit=value, state={"phase": "run"}
            )
        if not _ready(inputs, 2):
            return None
        dec = truthy(_value(node, inputs, 2, params))
        if not dec:
            return Decision(
                pops=_pops(inputs, 2), emit=NO_EMIT, state={"phase": "init"}
            )
        if not _ready(inputs, 1):
            return None
        value = _value(node, inputs, 1, params)
        return Decision(pops=_pops(inputs, 1, 2), emit=value)

    if op == "merge":
        # Ports: dec, t, f. Peek the decider, then wait for the chosen arm.
        if not _ready(inputs, 0):
            return None
        dec = truthy(_value(node, inputs, 0, params))
        chosen = 1 if dec else 2
        if not _ready(inputs, chosen):
            return None
        value = _value(node, inputs, chosen, params)
        return Decision(pops=_pops(inputs, 0, chosen), emit=value)

    if op == "select":
        # Eager ternary: both arms are computed unconditionally; consume
        # all three inputs and forward the chosen value.
        if not all(_ready(inputs, i) for i in range(3)):
            return None
        dec = truthy(_value(node, inputs, 0, params))
        value = _value(node, inputs, 1 if dec else 2, params)
        return Decision(pops=_pops(inputs, 0, 1, 2), emit=value)

    if op in ("load", "store"):
        arity = len(inputs)
        if not all(_ready(inputs, i) for i in range(arity)):
            return None
        index = _value(node, inputs, 0, params)
        if index != int(index):
            raise DFGError(
                f"node {node.nid}: non-integer index {index!r} into "
                f"{node.attrs['array']!r}"
            )
        if op == "load":
            request = MemRequest("load", node.attrs["array"], int(index))
        else:
            request = MemRequest(
                "store",
                node.attrs["array"],
                int(index),
                _value(node, inputs, 1, params),
            )
        # The emitted token (loaded value, or 0 for a store's ordering
        # token) is produced by the executor when the access completes.
        return Decision(pops=_pops(inputs, *range(arity)), mem=request)

    if op == "join":
        if not all(_ready(inputs, i) for i in range(len(inputs))):
            return None
        return Decision(pops=_pops(inputs, *range(len(inputs))), emit=0)

    raise DFGError(f"unknown op {op!r}")

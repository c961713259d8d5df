"""Unit tests for DFG firing semantics (the decide() state machines)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.dfg.graph import DFG, ImmRef, Node, PortRef
from repro.dfg.ops import NO_EMIT, decide, fresh_state, input_queues
from repro.isa import apply_binop


def feed(inputs, index, *values):
    """Hand-feed tokens into port ``index`` of an input row."""
    inputs[index].extend(values)


def apply(node, state, inputs, decision):
    for index in decision.pops:
        inputs[index].popleft()
    if decision.state is not None:
        state.update(decision.state)


def node_of(op, inputs, **attrs):
    return Node(0, op, inputs, attrs)


SRC = PortRef(99)


class TestSource:
    def test_fires_once(self):
        node = node_of("source", [])
        state = fresh_state(node)
        inputs = input_queues(node)
        d = decide(node, state, inputs, {})
        assert d.emit == 0
        apply(node, state, inputs, d)
        assert decide(node, state, inputs, {}) is None


class TestInject:
    def test_emits_value_per_trigger(self):
        node = node_of("inject", [SRC], value=ImmRef("param", "n"))
        state = fresh_state(node)
        inputs = input_queues(node)
        assert decide(node, state, inputs, {"n": 7}) is None
        feed(inputs, 0, 0, 0)
        d = decide(node, state, inputs, {"n": 7})
        assert d.emit == 7 and d.pops == [0]


class TestBinop:
    def test_port_port(self):
        node = node_of("binop", [SRC, PortRef(98)], opname="-")
        inputs = input_queues(node)
        feed(inputs, 0, 10)
        assert decide(node, {}, inputs, {}) is None
        feed(inputs, 1, 4)
        d = decide(node, {}, inputs, {})
        assert d.emit == 6 and sorted(d.pops) == [0, 1]

    def test_port_imm(self):
        node = node_of("binop", [SRC, ImmRef("const", 3)], opname="*")
        inputs = input_queues(node)
        feed(inputs, 0, 5)
        d = decide(node, {}, inputs, {})
        assert d.emit == 15 and d.pops == [0]

    @given(
        op=st.sampled_from(["+", "-", "*", "min", "max", "<", "=="]),
        a=st.integers(-100, 100),
        b=st.integers(-100, 100),
    )
    def test_matches_isa(self, op, a, b):
        node = node_of("binop", [SRC, PortRef(98)], opname=op)
        inputs = input_queues(node)
        feed(inputs, 0, a)
        feed(inputs, 1, b)
        assert decide(node, {}, inputs, {}).emit == apply_binop(op, a, b)


class TestUnop:
    def test_negation(self):
        node = node_of("unop", [SRC], opname="-")
        inputs = input_queues(node)
        feed(inputs, 0, 4)
        assert decide(node, {}, inputs, {}).emit == -4


class TestSteer:
    def test_true_polarity_forwards_on_true(self):
        node = node_of("steer", [SRC, PortRef(98)], polarity=True)
        inputs = input_queues(node)
        feed(inputs, 0, 1)
        feed(inputs, 1, 42)
        d = decide(node, {}, inputs, {})
        assert d.emit == 42

    def test_true_polarity_drops_on_false(self):
        node = node_of("steer", [SRC, PortRef(98)], polarity=True)
        inputs = input_queues(node)
        feed(inputs, 0, 0)
        feed(inputs, 1, 42)
        d = decide(node, {}, inputs, {})
        assert d.emit is NO_EMIT and sorted(d.pops) == [0, 1]

    def test_false_polarity(self):
        node = node_of("steer", [SRC, PortRef(98)], polarity=False)
        inputs = input_queues(node)
        feed(inputs, 0, 0)
        feed(inputs, 1, 7)
        assert decide(node, {}, inputs, {}).emit == 7

    def test_imm_value_operand(self):
        node = node_of(
            "steer", [SRC, ImmRef("const", 5)], polarity=True
        )
        inputs = input_queues(node)
        feed(inputs, 0, 1)
        d = decide(node, {}, inputs, {})
        assert d.emit == 5 and d.pops == [0]


class TestCarry:
    def make(self):
        node = node_of("carry", [SRC, PortRef(98), PortRef(97)])
        return node, fresh_state(node), input_queues(node)

    def test_full_loop_protocol(self):
        node, state, inputs = self.make()
        # INIT: emits the init value.
        feed(inputs, 0, 100)
        d = decide(node, state, inputs, {})
        assert d.emit == 100 and d.state == {"phase": "run"}
        apply(node, state, inputs, d)
        # RUN, dec true: forwards the back value.
        feed(inputs, 2, 1)
        assert decide(node, state, inputs, {}) is None  # back missing
        feed(inputs, 1, 101)
        d = decide(node, state, inputs, {})
        assert d.emit == 101 and d.state is None
        apply(node, state, inputs, d)
        # RUN, dec false: resets without emitting.
        feed(inputs, 2, 0)
        d = decide(node, state, inputs, {})
        assert d.emit is NO_EMIT and d.state == {"phase": "init"}
        apply(node, state, inputs, d)
        # Next activation re-reads init.
        feed(inputs, 0, 200)
        assert decide(node, state, inputs, {}).emit == 200

    def test_zero_trip_loop(self):
        node, state, inputs = self.make()
        feed(inputs, 0, 9)
        apply(node, state, inputs, decide(node, state, inputs, {}))
        feed(inputs, 2, 0)
        d = decide(node, state, inputs, {})
        assert d.emit is NO_EMIT and d.state == {"phase": "init"}


class TestInvariant:
    def make(self):
        node = node_of("invariant", [SRC, PortRef(98)])
        return node, fresh_state(node), input_queues(node)

    def test_holds_and_replays(self):
        node, state, inputs = self.make()
        feed(inputs, 0, 77)
        assert decide(node, state, inputs, {}) is None  # no dec yet
        feed(inputs, 1, 1)
        d = decide(node, state, inputs, {})
        assert d.emit == 77 and d.state["held"]
        apply(node, state, inputs, d)
        feed(inputs, 1, 1)
        d = decide(node, state, inputs, {})
        assert d.emit == 77 and d.state is None
        apply(node, state, inputs, d)
        feed(inputs, 1, 0)
        d = decide(node, state, inputs, {})
        assert d.emit is NO_EMIT and not d.state["held"]

    def test_zero_trip_discards_value(self):
        node, state, inputs = self.make()
        feed(inputs, 0, 77)
        feed(inputs, 1, 0)
        d = decide(node, state, inputs, {})
        assert d.emit is NO_EMIT
        assert sorted(d.pops) == [0, 1]
        apply(node, state, inputs, d)
        assert not state["held"]


class TestMerge:
    def make(self):
        node = node_of("merge", [SRC, PortRef(98), PortRef(97)])
        return node, input_queues(node)

    def test_waits_for_chosen_arm_only(self):
        node, inputs = self.make()
        feed(inputs, 0, 1)  # choose t
        feed(inputs, 2, 500)  # f arm present but not chosen
        assert decide(node, {}, inputs, {}) is None
        feed(inputs, 1, 400)
        d = decide(node, {}, inputs, {})
        assert d.emit == 400 and sorted(d.pops) == [0, 1]

    def test_false_chooses_f(self):
        node, inputs = self.make()
        feed(inputs, 0, 0)
        feed(inputs, 2, 500)
        assert decide(node, {}, inputs, {}).emit == 500

    def test_imm_arm(self):
        node = node_of(
            "merge", [SRC, ImmRef("const", 7), PortRef(97)]
        )
        inputs = input_queues(node)
        feed(inputs, 0, 1)
        d = decide(node, {}, inputs, {})
        assert d.emit == 7 and d.pops == [0]


class TestMemoryOps:
    def test_load_produces_request(self):
        node = node_of("load", [SRC], array="A", has_ord=False)
        inputs = input_queues(node)
        feed(inputs, 0, 3)
        d = decide(node, {}, inputs, {})
        assert d.emit is NO_EMIT
        assert d.mem.kind == "load" and d.mem.index == 3

    def test_load_with_ord_waits_for_token(self):
        node = node_of("load", [SRC, PortRef(98)], array="A", has_ord=True)
        inputs = input_queues(node)
        feed(inputs, 0, 3)
        assert decide(node, {}, inputs, {}) is None
        feed(inputs, 1, 0)
        assert decide(node, {}, inputs, {}).mem is not None

    def test_store_request_carries_value(self):
        node = node_of(
            "store", [SRC, PortRef(98)], array="A", has_ord=False
        )
        inputs = input_queues(node)
        feed(inputs, 0, 2)
        feed(inputs, 1, 55)
        d = decide(node, {}, inputs, {})
        assert d.mem.kind == "store"
        assert d.mem.index == 2 and d.mem.value == 55

    def test_non_integer_index_raises(self):
        from repro.errors import DFGError

        node = node_of("load", [SRC], array="A", has_ord=False)
        inputs = input_queues(node)
        feed(inputs, 0, 2.5)
        with pytest.raises(DFGError, match="non-integer"):
            decide(node, {}, inputs, {})


class TestJoin:
    def test_waits_for_all(self):
        node = node_of("join", [SRC, PortRef(98), PortRef(97)])
        inputs = input_queues(node)
        feed(inputs, 0, 0)
        feed(inputs, 1, 0)
        assert decide(node, {}, inputs, {}) is None
        feed(inputs, 2, 0)
        d = decide(node, {}, inputs, {})
        assert d.emit == 0 and sorted(d.pops) == [0, 1, 2]

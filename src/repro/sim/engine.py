"""Cycle-accurate two-value simulator for circuits.

The simulator evaluates the combinational DAG once per cycle in topological
order, then commits all register next-values simultaneously — standard
synchronous semantics.  Values are Python ints masked to their width.

The DAG is decoded once per simulator into a flat slot program: every node
gets an index into a per-cycle value list, and every interior node one small
closure that reads its children's slots.  A cycle is then a single pass over
that program, with no per-node operator dispatch or ``id()`` lookups.
``eval`` decodes the cone of the probed expression the same way, so both
paths share one copy of the operator semantics.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.errors import SimulationError
from repro.hdl.analysis import circuit_roots, topo_order
from repro.hdl.circuit import Circuit
from repro.hdl.expr import (
    OP_ADD,
    OP_AND,
    OP_CAT,
    OP_CONST,
    OP_EQ,
    OP_INPUT,
    OP_LSHR,
    OP_MUX,
    OP_NE,
    OP_NOT,
    OP_OR,
    OP_REDAND,
    OP_REDOR,
    OP_REG,
    OP_SHL,
    OP_SLICE,
    OP_SUB,
    OP_ULE,
    OP_ULT,
    OP_XOR,
    Expr,
    Reg,
    mask,
)


def _node_program(node: Expr, slot: Dict[int, int]) -> Callable[[List[int]], int]:
    """One interior node as a closure over the per-cycle slot list."""
    op = node.op
    args = [slot[id(a)] for a in node.args]
    m = mask(node.width)
    if op == OP_NOT:
        a, = args
        return lambda v: v[a] ^ m
    if op == OP_AND:
        a, b = args
        return lambda v: v[a] & v[b]
    if op == OP_OR:
        a, b = args
        return lambda v: v[a] | v[b]
    if op == OP_XOR:
        a, b = args
        return lambda v: v[a] ^ v[b]
    if op == OP_ADD:
        a, b = args
        return lambda v: (v[a] + v[b]) & m
    if op == OP_SUB:
        a, b = args
        return lambda v: (v[a] - v[b]) & m
    if op == OP_EQ:
        a, b = args
        return lambda v: 1 if v[a] == v[b] else 0
    if op == OP_NE:
        a, b = args
        return lambda v: 1 if v[a] != v[b] else 0
    if op == OP_ULT:
        a, b = args
        return lambda v: 1 if v[a] < v[b] else 0
    if op == OP_ULE:
        a, b = args
        return lambda v: 1 if v[a] <= v[b] else 0
    if op == OP_MUX:
        c, a, b = args
        return lambda v: v[a] if v[c] else v[b]
    if op == OP_CAT:
        parts = []
        shift = 0
        for child, a in zip(node.args, args):
            parts.append((a, shift))
            shift += child.width
        if len(parts) == 2:
            (a, _), (b, s) = parts
            return lambda v: v[a] | (v[b] << s)

        def cat(v: List[int]) -> int:
            acc = 0
            for a, s in parts:
                acc |= v[a] << s
            return acc

        return cat
    if op == OP_SLICE:
        a, = args
        lo, hi = node.params
        sm = mask(hi - lo)
        return lambda v: (v[a] >> lo) & sm
    if op == OP_SHL:
        a, = args
        amount = node.params[0]
        return lambda v: (v[a] << amount) & m
    if op == OP_LSHR:
        a, = args
        amount = node.params[0]
        return lambda v: v[a] >> amount
    if op == OP_REDOR:
        a, = args
        return lambda v: 1 if v[a] != 0 else 0
    if op == OP_REDAND:
        a, = args
        am = mask(node.args[0].width)
        return lambda v: 1 if v[a] == am else 0

    def unknown(v: List[int]) -> int:
        raise SimulationError(f"unknown operator {op!r}")

    return unknown


def _missing_input(name: str) -> Callable[[List[int]], int]:
    def missing(v: List[int]) -> int:
        raise SimulationError(f"missing value for input {name!r}")

    return missing


class _SlotProgram:
    """A topological order laid out as a slot program.

    Every node gets an index into a value list; constants are preset in
    ``template``, registers are read from the state, the ``bound`` inputs
    are filled by the caller, and every other node is computed by one
    closure in ``program``.  An input that is not bound raises when read.
    """

    def __init__(self, order: Sequence[Expr],
                 bound: Mapping[str, Expr]) -> None:
        self.slot = {id(node): i for i, node in enumerate(order)}
        slot = self.slot
        self.template = [0] * len(order)
        self.input_slots: List[Tuple[str, int, int]] = [
            (name, slot[id(node)], mask(node.width))
            for name, node in bound.items() if id(node) in slot
        ]
        bound_ids = {id(node) for node in bound.values()}
        self.reg_slots: List[Tuple[int, Expr]] = []
        self.program: List[Tuple[int, Callable[[List[int]], int]]] = []
        for i, node in enumerate(order):
            op = node.op
            if op == OP_CONST:
                self.template[i] = node.params[0]
            elif op == OP_REG:
                self.reg_slots.append((i, node))
            elif op == OP_INPUT:
                if id(node) not in bound_ids:
                    self.program.append((i, _missing_input(node.params[0])))
            else:
                self.program.append((i, _node_program(node, slot)))

    def run(self, inputs: Mapping[str, int],
            state: Mapping[Reg, int]) -> List[int]:
        """Every node's value for one cycle; ``inputs`` must hold every
        bound input."""
        values = self.template[:]
        for name, i, m in self.input_slots:
            values[i] = inputs[name] & m
        for i, reg in self.reg_slots:
            values[i] = state[reg]  # type: ignore[index]
        for i, fn in self.program:
            values[i] = fn(values)
        return values


class Simulator:
    """Simulate a finalized circuit cycle by cycle.

    Registers with symbolic init (``init=None``) start from
    ``init_overrides`` when given, otherwise from 0.
    """

    def __init__(
        self,
        circuit: Circuit,
        init_overrides: Optional[Mapping[str, int]] = None,
    ) -> None:
        if not circuit.finalized:
            circuit.finalize()
        self.circuit = circuit
        self.cycle = 0
        self._order: List[Expr] = topo_order(circuit_roots(circuit))
        self.state: Dict[Reg, int] = {}
        overrides = dict(init_overrides or {})
        for name, reg in circuit.regs.items():
            if name in overrides:
                value = overrides.pop(name) & mask(reg.width)
            elif reg.init is not None:
                value = reg.init
            else:
                value = 0
            self.state[reg] = value
        if overrides:
            unknown = ", ".join(sorted(overrides))
            raise SimulationError(f"init override for unknown register(s): {unknown}")
        self._program = _SlotProgram(self._order, circuit.inputs)
        self._slot = self._program.slot
        self._output_slots = [(name, self._slot[id(expr)])
                              for name, expr in circuit.outputs.items()]
        self._next_slots = [(reg, self._slot[id(reg.next)])
                            for reg in circuit.regs.values()]
        #: slot values of the last ``step`` (None before the first one)
        self._values: Optional[List[int]] = None
        self._last_inputs: Dict[str, int] = {}

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def _evaluate(self, inputs: Mapping[str, int]) -> List[int]:
        circ_inputs = self.circuit.inputs
        for name in circ_inputs:
            if name not in inputs:
                raise SimulationError(f"missing value for input {name!r}")
        if len(inputs) != len(circ_inputs):
            extra = set(inputs) - set(circ_inputs)
            raise SimulationError(f"unknown input(s): {', '.join(sorted(extra))}")
        return self._program.run(inputs, self.state)

    def step(self, inputs: Optional[Mapping[str, int]] = None) -> Dict[str, int]:
        """Advance one clock cycle; returns the outputs sampled this cycle."""
        inputs = dict(inputs or {})
        values = self._evaluate(inputs)
        self._values = values
        self._last_inputs = inputs
        outputs = {name: values[i] for name, i in self._output_slots}
        self.state = {reg: values[i] for reg, i in self._next_slots}
        self.cycle += 1
        return outputs

    def run(
        self,
        cycles: int,
        inputs: Optional[Mapping[str, int]] = None,
        until: Optional[Callable[["Simulator"], bool]] = None,
    ) -> int:
        """Run for up to ``cycles`` cycles; stop early when ``until`` holds.

        Returns the number of cycles actually executed.
        """
        executed = 0
        for _ in range(cycles):
            self.step(inputs)
            executed += 1
            if until is not None and until(self):
                break
        return executed

    # ------------------------------------------------------------------
    # Observation
    # ------------------------------------------------------------------
    def peek(self, target: "Expr | str") -> int:
        """Current value of a register (pre-clock) or, for other
        expressions/output names, the value computed in the last step."""
        if isinstance(target, str):
            if target in self.circuit.regs:
                return self.state[self.circuit.regs[target]]
            if target in self.circuit.outputs:
                target = self.circuit.outputs[target]
                if self._values is not None:
                    return self._values[self._slot[id(target)]]
            else:
                raise SimulationError(f"unknown signal {target!r}")
        if isinstance(target, Reg):
            return self.state[target]
        if self._values is not None and id(target) in self._slot:
            return self._values[self._slot[id(target)]]
        return self.eval(target)

    def eval(self, expr: Expr, inputs: Optional[Mapping[str, int]] = None) -> int:
        """Evaluate an arbitrary expression against the *current* state.

        Inputs default to the values supplied in the last ``step``.
        """
        merged = dict(self._last_inputs)
        merged.update(inputs or {})
        bound = {name: node for name, node in self.circuit.inputs.items()
                 if name in merged}
        program = _SlotProgram(topo_order([expr]), bound)
        return program.run(merged, self.state)[program.slot[id(expr)]]

    def poke(self, reg: "Reg | str", value: int) -> None:
        """Force a register to a value (testing aid)."""
        if isinstance(reg, str):
            if reg not in self.circuit.regs:
                raise SimulationError(f"unknown register {reg!r}")
            reg = self.circuit.regs[reg]
        self.state[reg] = value & mask(reg.width)

    def snapshot(self) -> Dict[str, int]:
        """Copy of the full register state, keyed by register name."""
        return {reg.name: value for reg, value in self.state.items()}

"""The IDA-PBC law traced on expression nodes and compiled into one function.

A `_Node` records one float operation; arithmetic on nodes and the math
backend `_NODES` build a hash-consed `_Graph`. Running `controller._law` once
on nodes (formulas run on `_NODES`, constants as floats) records every float
operation of the law in its order, and `_Graph.function` writes them out as
straight-line Python: the same operations on the same floats, so the same
values bit for bit. The trace records the law's guards, the predicates
`_singular` and `controller._rank_deficient`, and the function calls them.
"""

from __future__ import annotations

import math
from collections import Counter
from functools import partial
from types import SimpleNamespace

from . import controller
from .smalllinalg import _apply, _dot, _inverse, _singular

#: the `math` functions of a formula's backend, and `fsum`
_MATH = ("sqrt", "sin", "cos", "tan", "tanh", "asinh", "atanh", "log", "pow", "fsum")
#: precedence in the emitted source: + and - bind loosest, then * and /, unary
#: minus, **, and calls, names and literals
_BINARY = {"+": 1, "-": 1, "*": 2, "/": 2, "**": 4}
_UNARY, _ATOM = 3, 5


class _Node:
    """One float operation of a trace: `op` on `args`, nodes or floats.

    Arithmetic on a node records a node; a truth value or a comparison raises
    TypeError, so a formula that branches on a value does not trace.
    """

    __slots__ = ("graph", "op", "args")
    __array_ufunc__ = None  # a numpy scalar operand defers to the reflected operator

    def __init__(self, graph, op, args):
        self.graph, self.op, self.args = graph, op, args

    def _no_value(self, *other):
        raise TypeError("a traced value has no truth value and no order")

    __bool__ = __eq__ = __ne__ = __lt__ = __le__ = __gt__ = __ge__ = _no_value
    __hash__ = object.__hash__


def _operator(op: str, reflected: bool):
    def method(self, other):
        return self.graph.node(op, other, self) if reflected else self.graph.node(op, self, other)
    return method


for _op, _name in (("+", "add"), ("-", "sub"), ("*", "mul"), ("/", "truediv"), ("**", "pow")):
    setattr(_Node, f"__{_name}__", _operator(_op, False))
    setattr(_Node, f"__r{_name}__", _operator(_op, True))
_Node.__neg__ = lambda self: self.graph.node("-", self)
_Node.__abs__ = lambda self: self.graph.node("abs", self)


def _is(x, value: float) -> bool:
    """Whether `x` is the float `value`, sign of zero included."""
    return not isinstance(x, _Node) and x.hex() == value.hex()


class _Graph:
    """The nodes of one trace, in the order they were made, and its guards.

    Nodes are hash-consed on their operation and their arguments' identity (a
    float argument by its bits), so an operation repeated on the same values is
    one node, evaluated once by the emitted function.
    """

    def __init__(self):
        self.nodes, self.guards, self._table = [], [], {}

    def inputs(self, prefix: str, count: int) -> list:
        """`count` input nodes, named prefix0, prefix1, ..."""
        made = [_Node(self, "input", (f"{prefix}{i}",)) for i in range(count)]
        self.nodes += made
        return made

    def node(self, op: str, *args):
        args = tuple(a if isinstance(a, _Node) else float(a) for a in args)
        if len(args) == 2:  # x * 1, 1 * x, x / 1, x - 0, x + -0 and -0 + x are x, bit for bit
            a, b = args
            if (op in ("*", "/") and _is(b, 1.0) or op == "-" and _is(b, 0.0)
                    or op == "+" and _is(b, -0.0)):
                return a
            if op == "*" and _is(a, 1.0) or op == "+" and _is(a, -0.0):
                return b
        key = (op,) + tuple(id(a) if isinstance(a, _Node) else a.hex() for a in args)
        node = self._table.get(key)
        if node is None:
            node = self._table[key] = _Node(self, op, args)
            self.nodes.append(node)
        return node

    def guard(self, failing, *args) -> None:
        """Where the predicate failing(*args) is true, the emitted function
        returns None instead of its outputs. On constant arguments it is
        decided now: a failure there fails the trace."""
        if any(isinstance(a, _Node) for a in args):
            self.guards.append((failing, args))
        elif failing(*args):
            raise ValueError("a guard fails on constants")

    def function(self, inputs: list, outputs: tuple) -> tuple:
        """(source, namespace) of `law(inputs) -> outputs`, a tuple of entry tuples.

        Each node used more than once is named once, each used once is written
        into its user (up to a depth of 16) and each unused one still
        evaluated, so the function performs every recorded operation. It
        returns None where a guard fails or an operation raises
        ArithmeticError or ValueError. The graph is emptied.
        """
        uses = Counter(id(a) for node in self.nodes for a in node.args if isinstance(a, _Node))
        for group in list(outputs) + [args for _, args in self.guards]:
            uses.update(id(a) for a in group if isinstance(a, _Node))
        text, lines = {}, []  # id -> (source, precedence, depth) of a named or written-in node

        def term(a, bound=0) -> str:
            """`a` as an operand that binds at least as tightly as `bound`."""
            if isinstance(a, _Node):
                source, level, _ = text[id(a)]
            else:
                source = repr(a)
                level = _UNARY if source[0] == "-" else _ATOM
            return source if level >= bound else f"({source})"

        for k, node in enumerate(self.nodes):
            key, op, args = id(node), node.op, node.args
            if op == "input":
                text[key] = (args[0], _ATOM, 0)
                continue
            if len(args) == 2 and op in _BINARY:  # left-associative; ** on atoms only
                level = _BINARY[op]
                left, right = (_ATOM, _ATOM) if op == "**" else (level, level + 1)
                expr = f"{term(args[0], left)} {op} {term(args[1], right)}"
            elif op == "-":
                level, expr = _UNARY, f"-{term(args[0], _ATOM)}"
            else:  # a call; fsum takes its arguments as one tuple
                listed = ", ".join(map(term, args))
                level, expr = _ATOM, f"fsum(({listed},))" if op == "fsum" else f"{op}({listed})"
            depth = 1 + max((text[id(a)][2] for a in args if isinstance(a, _Node)), default=0)
            if uses[key] == 1 and depth < 16:
                text[key] = (expr, level, depth)
            elif uses[key] == 0:
                lines.append(expr)
            else:
                text[key] = (f"t{k}", _ATOM, 0)
                lines.append(f"t{k} = {expr}")
        namespace = {name: getattr(math, name) for name in _MATH}
        namespace.update(abs=abs, inf=math.inf, nan=math.nan)
        checks = []
        for failing, args in self.guards:
            namespace[failing.__name__] = failing
            checks.append(f"{failing.__name__}({', '.join(map(term, args))})")
        if checks:
            lines += [f"if {' or '.join(checks)}:", "    return None"]
        lines.append("return " + ", ".join(f"({', '.join(map(term, group))},)"
                                           for group in outputs))
        source = (f"def law({', '.join(map(term, inputs))}):\n    try:\n"
                  + "".join(f"        {line}\n" for line in lines)
                  + "    except (ArithmeticError, ValueError):\n        return None\n")
        self.nodes, self.guards, self._table = [], [], {}
        return source, namespace


def _on_nodes(name: str):
    """math.`name` on floats, and a node of the trace on any node argument;
    fsum takes one iterable."""
    fn = getattr(math, name)

    def call(*args):
        items = list(args[0]) if name == "fsum" else args
        graph = next((a.graph for a in items if isinstance(a, _Node)), None)
        if graph is None:
            return fn(*args) if name != "fsum" else fn(items)
        return graph.node(name, *items)

    return call


#: The math backend of a formula on expression nodes.
_NODES = SimpleNamespace(**{name: _on_nodes(name) for name in _MATH})


def _traced(fn, *args) -> list:
    """The entries of `fn`'s output at node arguments, nested as its rows: its
    formula run on `_NODES`, or its constant value as floats."""
    if hasattr(fn, "value"):
        return fn.value.tolist()
    entries = [e if isinstance(e, _Node) else float(e) for e in fn.formula(_NODES, *args)]
    if len(entries) != math.prod(fn.shape):
        raise ValueError("a formula's entries do not fill its shape")
    for size in reversed(fn.shape[1:]):
        entries = [entries[i:i + size] for i in range(0, len(entries), size)]
    return entries


def _law_source(sys, tgt, damping_mode: str) -> tuple:
    """(source, namespace) of the law of (sys, tgt) traced on expression nodes:
    rows as lists, and each guard predicate recorded with its arguments."""
    graph = _Graph()
    q, p = graph.inputs("q", sys.n), graph.inputs("p", sys.n)

    def on_nodes(obj, fields, **more):  # each callable giving its entries on nodes
        return SimpleNamespace(**{f: partial(_traced, getattr(obj, f)) for f in fields}, **more)

    def sigma_min(g):  # smallest_singular_value for one column
        col = [row[0] for row in g]
        return _NODES.sqrt(_dot(col, col))

    carrier = SimpleNamespace(
        rows=list, vec=list, sqrt=_NODES.sqrt, tanh=_NODES.tanh, fsum=_NODES.fsum,
        inverse=lambda a, exc: partial(_apply, _inverse(a, partial(graph.guard, _singular), exc)),
        rank_guard=partial(graph.guard, controller._rank_deficient), sigma_min=sigma_min)
    outputs = controller._law(
        on_nodes(sys, controller._PLANT_FIELDS),
        on_nodes(tgt, controller._TARGET_FIELDS, damping_gain=tgt.damping_gain),
        q, p, damping_mode, carrier)
    return graph.function(q + p, outputs)


def _law_function(sys, tgt, damping_mode: str):
    """The law of (sys, tgt) as one straight-line function (q0.., p0..) ->
    (tau, field, ptilde) entry tuples, or None where a guard fails or an
    operation raises. Raises where the formulas do not trace."""
    source, namespace = _law_source(sys, tgt, damping_mode)  # the graph is freed here
    exec(compile(source, "<traced law>", "exec"), namespace)
    return namespace.pop("law")

"""Symbolic factor-operation cost arithmetic.

No probability values are ever computed.  A factor is just a set of node
dimensions; its table size is the product of the state counts of those
dimensions.  Multiplying factors costs one multiplication per cell of the
resulting table, marginalizing a node costs (states - 1) additions per cell
of the shrunken table, and an elementwise ratio costs one division per cell.

The product step ``fold`` and its sum-out ``marginalize_away`` carry table
sizes as integers instead of resizing a table per operation; each charge
equals the one ``multiply_cost`` or ``marginalize_cost`` makes.
``inference.cluster_inference_cost`` sums their charges without building
any steps.

Schedules are explicit step lists over named accumulators, so the realized
operation order is always recorded; total chain cost depends on multiply
order, which is therefore never inferred.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Union

from .dag import Dag, LayerAssignment, ValidationError


@dataclass(frozen=True)
class OpCostWeights:
    """Relative costs of scalar addition, multiplication, and division."""

    add: float = 0.6
    mul: float = 1.0
    div: float = 3.0

    def __post_init__(self):
        if not all(0 < w < math.inf for w in (self.add, self.mul, self.div)):
            raise ValidationError("operation cost weights must be finite and strictly positive")


DEFAULT_WEIGHTS = OpCostWeights()


def table_size(dims: Iterable[int], states: Mapping[int, int]) -> int:
    """Number of cells in a table over ``dims``; the empty set is a scalar."""
    size = 1
    for d in dims:
        size *= states[d]
    return size


def multiply_cost(
    acc: frozenset[int],
    factor: frozenset[int],
    states: Mapping[int, int],
    w: OpCostWeights = DEFAULT_WEIGHTS,
) -> tuple[frozenset[int], float]:
    """Multiply a factor into an accumulator: one mul per cell of the union."""
    out = acc | factor
    return out, table_size(out, states) * w.mul


def marginalize_cost(
    acc: frozenset[int],
    node: int,
    states: Mapping[int, int],
    w: OpCostWeights = DEFAULT_WEIGHTS,
) -> tuple[frozenset[int], float]:
    """Sum a node out of the accumulator.

    Each cell of the shrunken table is the sum of ``states[node]`` values,
    i.e. states-1 additions.
    """
    if node not in acc:
        raise ValidationError(f"cannot marginalize node {node}: not in accumulator dims")
    out = acc - {node}
    return out, (states[node] - 1) * table_size(out, states) * w.add


def divide_cost(
    dims: frozenset[int],
    states: Mapping[int, int],
    w: OpCostWeights = DEFAULT_WEIGHTS,
) -> float:
    """Elementwise ratio over a table (new sepset over old)."""
    return table_size(dims, states) * w.div


def marginalize_away(
    dims: frozenset[int],
    keep: frozenset[int],
    states: Mapping[int, int],
    w: OpCostWeights = DEFAULT_WEIGHTS,
    cost: float = 0.0,
) -> tuple[frozenset[int], float]:
    """Sum ``dims - keep`` out of a table, in ascending id order.

    ``cost`` is the running total of the step so far.  Each charge is the
    one ``marginalize_cost`` makes, added to it in turn, so a step's float
    total does not depend on how its work is split between calls.  The
    table size is carried as an integer and divided by each node's state
    count before that node is charged on the shrunken table.
    """
    drop = dims - keep
    if not drop:
        return dims, cost
    size = table_size(dims, states)
    for d in sorted(drop):
        n = states[d]
        size //= n
        cost += (n - 1) * size * w.add
    return dims - drop, cost


def fold(
    parts: Iterable[tuple[frozenset[int], int, int]],
    keep: frozenset[int] | None,
    tables: Iterable[frozenset[int]],
    states: Mapping[int, int],
    w: OpCostWeights = DEFAULT_WEIGHTS,
) -> tuple[frozenset[int], float]:
    """The product step of the cluster calculus; returns (dims, cost).

    Each ``(dims, layer, cluster)`` part is a partial result flowing in from
    another cluster-layer.  The parts are cut down to ``keep`` in the order
    given (``None`` keeps everything), then multiplied into an empty table
    smallest first, ties broken by layer and then cluster, and the
    ``tables`` are multiplied in after them in order.
    """
    cost = 0.0
    cut = []
    for dims, layer, cluster in parts:
        if keep is not None:
            dims, cost = marginalize_away(dims, keep, states, w, cost)
        cut.append((table_size(dims, states), layer, cluster, dims))
    cut.sort(key=lambda t: t[:3])
    # Each multiply charges mul per cell of the grown accumulator, whose
    # size is carried as an integer, as ``multiply_cost`` would price it.
    acc: frozenset[int] = frozenset()
    size = 1
    for dims in [t[3] for t in cut] + list(tables):
        new = dims - acc
        if new:
            acc = acc | new
            for d in new:
                size *= states[d]
        cost += size * w.mul
    return acc, cost


# ---------------------------------------------------------------------------
# Schedules


@dataclass(frozen=True)
class Load:
    """Seed an accumulator with a factor without charging anything.

    Used where a product starts *from* a stored table (bucket products,
    copies of an existing potential) rather than multiplying into one.
    """

    acc: str
    dims: frozenset[int]
    note: str = ""


@dataclass(frozen=True)
class Multiply:
    acc: str
    dims: frozenset[int]
    note: str = ""


@dataclass(frozen=True)
class Marginalize:
    acc: str
    node: int
    note: str = ""


@dataclass(frozen=True)
class Divide:
    acc: str
    dims: frozenset[int]
    note: str = ""


Step = Union[Load, Multiply, Marginalize, Divide]
Schedule = list  # list[Step]


@dataclass(frozen=True)
class StepCost:
    index: int
    op: str
    acc: str
    dims: frozenset[int]
    cost: float
    note: str


def eval_schedule(
    schedule: Iterable[Step],
    states: Mapping[int, int],
    w: OpCostWeights = DEFAULT_WEIGHTS,
) -> tuple[float, list[StepCost]]:
    """Run a schedule, tracking accumulator dims, and return (total, rows)."""
    accs: dict[str, frozenset[int]] = {}
    rows: list[StepCost] = []
    total = 0.0
    for idx, step in enumerate(schedule):
        if isinstance(step, Load):
            accs[step.acc] = frozenset(step.dims)
            rows.append(StepCost(idx, "load", step.acc, accs[step.acc], 0.0, step.note))
            continue
        if isinstance(step, Multiply):
            acc = accs.get(step.acc, frozenset())
            out, cost = multiply_cost(acc, frozenset(step.dims), states, w)
            accs[step.acc] = out
            rows.append(StepCost(idx, "multiply", step.acc, out, cost, step.note))
        elif isinstance(step, Marginalize):
            acc = accs.get(step.acc)
            if acc is None:
                raise ValidationError(f"step {idx}: unknown accumulator {step.acc!r}")
            try:
                out, cost = marginalize_cost(acc, step.node, states, w)
            except ValidationError as exc:
                raise ValidationError(f"step {idx}: {exc}") from None
            accs[step.acc] = out
            rows.append(StepCost(idx, "marginalize", step.acc, out, cost, step.note))
        elif isinstance(step, Divide):
            cost = divide_cost(frozenset(step.dims), states, w)
            rows.append(StepCost(idx, "divide", step.acc, frozenset(step.dims), cost, step.note))
        else:
            raise ValidationError(f"step {idx}: unknown step type {type(step).__name__}")
        total += cost
    return total, rows


# ---------------------------------------------------------------------------
# Bucket elimination


def default_elimination_order(dag: Dag, layers: LayerAssignment, target: int) -> list[int]:
    """Ascending layer, descending node id, target excluded."""
    rest = [i for i in dag.node_ids() if i != target]
    return sorted(rest, key=lambda i: (layers.of(i), -i))


def bucket_elimination_schedule(
    dag: Dag,
    layers: LayerAssignment,
    target: int,
    order: list[int] | None = None,
) -> Schedule:
    """Build the bucket-elimination step list for one target node's marginal.

    Each bucket collects the factors whose scope mentions its variable and
    multiplies them pairwise, smallest table first; a single-factor bucket is
    a nominal multiply-by-one at full table cost.  The bucket variable is
    then summed out and the result dropped into the bucket of its earliest
    remaining variable.
    """
    if order is None:
        order = default_elimination_order(dag, layers, target)
    if sorted(order) != sorted(i for i in dag.node_ids() if i != target):
        raise ValidationError("elimination order must cover every node except the target")
    position = {x: r for r, x in enumerate(order)}

    def bucket_of(dims: frozenset[int]) -> int | None:
        live = [d for d in dims if d in position]
        if not live:
            return None
        return min(live, key=position.get)

    buckets: dict[int, list[frozenset[int]]] = {x: [] for x in order}
    for x in sorted(dag.node_ids()):
        scope = dag.scope(x)
        b = bucket_of(scope)
        if b is not None:
            buckets[b].append(scope)

    schedule: Schedule = []
    states = dag.states
    for var in order:
        factors = buckets[var]
        if not factors:
            continue
        factors = sorted(factors, key=lambda f: (table_size(f, states), sorted(f)))
        acc = f"bucket:{dag.name(var)}"
        if len(factors) == 1:
            schedule.append(Multiply(acc, factors[0], note="1 x only factor"))
            dims = factors[0]
        else:
            schedule.append(Load(acc, factors[0], note="bucket product seed"))
            dims = factors[0]
            for f in factors[1:]:
                dims = dims | f
                schedule.append(Multiply(acc, f))
        schedule.append(Marginalize(acc, var, note=f"sum out {dag.name(var)}"))
        dims = dims - {var}
        b = bucket_of(dims)
        if b is not None:
            buckets[b].append(dims)
    # Remaining factors form the target marginal; assembling it is not charged.
    return schedule


def bucket_elimination_cost(
    dag: Dag,
    layers: LayerAssignment,
    target: int,
    order: list[int] | None = None,
    w: OpCostWeights = DEFAULT_WEIGHTS,
) -> tuple[float, list[StepCost]]:
    schedule = bucket_elimination_schedule(dag, layers, target, order)
    return eval_schedule(schedule, dag.states, w)


# ---------------------------------------------------------------------------
# Jointree propagation fixture for the seven-node example


def _is_seven_node_example(dag: Dag) -> bool:
    if dag.n != 7 or tuple(dag.names) != tuple("ABCDEFG"):
        return False
    want = {("A", "F"), ("A", "D"), ("B", "D"), ("C", "E"), ("D", "G"), ("E", "G")}
    have = {(dag.name(p), dag.name(c)) for p, c in dag.arcs}
    return have == want and all(dag.states[i] == 2 for i in dag.node_ids())


def jointree_fixture_schedule(dag: Dag) -> Schedule:
    """Hand-coded jointree full-propagation step list for the 7-node example.

    The jointree itself (clusters AF, ABD, CE, DEG with sepsets A, D, E) is a
    fixture: triangulation is out of scope here.  The step list covers
    initialization, forward-backward project/absorb along the tree, and one
    per-node posterior extraction.
    """
    if not _is_seven_node_example(dag):
        raise ValidationError("jointree fixture only applies to the 7-node example graph")
    ids = {dag.name(i): i for i in dag.node_ids()}

    def d(names: str) -> frozenset[int]:
        return frozenset(ids[c] for c in names)

    s: Schedule = []
    # Initialization: multiply each cluster's assigned tables together.
    s.append(Multiply("AF", d("A"), note="init: P(A)"))
    s.append(Multiply("AF", d("AF"), note="init: P(F|A)"))
    s.append(Multiply("ABD", d("ABD"), note="init: P(D|A,B)"))
    s.append(Multiply("CE", d("C"), note="init: P(C)"))
    s.append(Multiply("CE", d("CE"), note="init: P(E|C)"))
    s.append(Multiply("DEG", d("DEG"), note="init: P(G|D,E)"))

    def project_absorb(src: str, dst: str, sep: str, drop: str):
        tmp = f"sep:{src}->{dst}"
        s.append(Load(tmp, d(src), note=f"copy {src}"))
        for x in drop:
            s.append(Marginalize(tmp, ids[x], note=f"project onto {sep}"))
        s.append(Divide(tmp, d(sep), note="sepset ratio"))
        s.append(Multiply(dst, d(sep), note=f"absorb into {dst}"))

    project_absorb("AF", "ABD", "A", "F")
    project_absorb("CE", "DEG", "E", "C")
    project_absorb("ABD", "DEG", "D", "AB")
    project_absorb("DEG", "ABD", "D", "GE")
    project_absorb("ABD", "AF", "A", "DB")
    project_absorb("DEG", "CE", "E", "DG")

    def posterior(node: str, cluster: str, drop: str):
        tmp = f"post:{node}"
        s.append(Load(tmp, d(cluster), note=f"copy {cluster}"))
        for x in drop:
            s.append(Marginalize(tmp, ids[x], note=f"posterior of {node}"))

    posterior("A", "AF", "F")
    posterior("F", "AF", "A")
    posterior("C", "CE", "E")
    posterior("E", "CE", "C")
    # The three-dimensional clusters each give up one dimension per the
    # worked accounting; the complementary marginal is already held by a
    # sepset after full propagation.
    posterior("B", "ABD", "A")
    posterior("D", "ABD", "B")
    posterior("G", "DEG", "E")
    return s


def jointree_fixture_cost(
    dag: Dag, w: OpCostWeights = DEFAULT_WEIGHTS
) -> tuple[float, list[StepCost]]:
    return eval_schedule(jointree_fixture_schedule(dag), dag.states, w)

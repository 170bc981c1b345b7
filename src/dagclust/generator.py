"""Seeded random DAG generator with a small-world flavour.

Nodes are spread over levels; every non-leaf gets at least one child at a
lower level, extra arcs attach preferentially to already-popular children,
and a rewiring probability re-targets tree arcs.  Preferential attachment
gives the heavy-tailed in/out-degree profile typical of real networks; a
final pass guarantees weak connectivity so the result always validates.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass

from .dag import Dag, weak_components


@dataclass(frozen=True)
class GeneratorSpec:
    n: int
    layers: int = 0  # 0: pick ~sqrt(n)
    rewire: float = 0.1
    max_in: int = 7
    max_out: int = 9
    extra_arc_rate: float = 0.5  # expected extra arcs per non-leaf node
    states: tuple[int, int] = (2, 2)  # inclusive state-count range
    seed: int = 0

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("need at least one node")
        if self.layers < 0:
            raise ValueError("layers must not be negative")
        if not (0.0 <= self.rewire <= 1.0):
            raise ValueError("rewire must lie in [0, 1]")
        if self.max_in < 1 or self.max_out < 1:
            raise ValueError("max_in and max_out must be at least 1")
        if not self.extra_arc_rate >= 0.0:
            raise ValueError("extra_arc_rate must not be negative")
        if self.states[0] < 1 or self.states[1] < self.states[0]:
            raise ValueError("bad state-count range")


def generate_dag(spec: GeneratorSpec) -> Dag:
    rng = random.Random(spec.seed)
    n = spec.n
    levels_n = spec.layers or max(1, round(n ** 0.5))
    levels_n = min(levels_n, n)
    names = [f"n{i}" for i in range(1, n + 1)]

    # Level per node; level 0 must be populated.
    level = {i: rng.randrange(levels_n) for i in range(1, n + 1)}
    level[1] = 0

    arcs: set[tuple[int, int]] = set()
    in_deg: Counter = Counter()
    out_deg: Counter = Counter()

    def lower_pool(i: int) -> list[int]:
        return [j for j in range(1, n + 1) if level[j] < level[i]]

    def pick_child(pool: list[int]) -> int:
        weights = [1 + in_deg[j] for j in pool]
        return rng.choices(pool, weights=weights, k=1)[0]

    def add(p: int, c: int) -> bool:
        if p == c or (p, c) in arcs:
            return False
        if out_deg[p] >= spec.max_out or in_deg[c] >= spec.max_in:
            return False
        arcs.add((p, c))
        in_deg[c] += 1
        out_deg[p] += 1
        return True

    for i in range(1, n + 1):
        pool = lower_pool(i)
        if not pool:
            continue
        child = pick_child(pool)
        if rng.random() < spec.rewire:
            child = rng.choice(pool)
        add(i, child)
        extras = 0
        while rng.random() < spec.extra_arc_rate and extras < spec.max_out:
            add(i, pick_child(pool))
            extras += 1

    # Stitch together weak components, highest-level donor into lowest target.
    # These arcs ignore max_in and max_out.  Each arc joins the first two
    # components, so the merged one stays first by smallest member.
    comps = weak_components(n, arcs)
    while len(comps) > 1:
        a, b = comps[0], comps[1]
        donors = sorted(a | b, key=lambda i: (-level[i], i))
        for p in donors:
            other = b if p in a else a
            targets = sorted(j for j in other if level[j] < level[p])
            if targets:
                arcs.add((p, rng.choice(targets)))
                break
        else:
            # All nodes share one level across the two components; flatten one.
            x = min(b)
            level[x] = max(level.values()) + 1
            arcs.add((x, min(a)))
        comps = [a | b, *comps[2:]]

    states = {
        i: rng.randint(spec.states[0], spec.states[1]) for i in range(1, n + 1)
    }
    return Dag(names, sorted(arcs), states)


def degree_histogram(dag: Dag) -> tuple[dict[int, int], dict[int, int]]:
    """(in-degree histogram, out-degree histogram): degree -> node count."""
    ins = Counter(len(dag.parents(i)) for i in dag.node_ids())
    outs = Counter(len(dag.children(i)) for i in dag.node_ids())
    return dict(sorted(ins.items())), dict(sorted(outs.items()))

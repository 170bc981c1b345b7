import random

import pytest

from dagclust import BnComputationCost, assign_layers, seven_node_example
from dagclust.generator import GeneratorSpec, generate_dag


@pytest.fixture(scope="session")
def fig1():
    return seven_node_example()


@pytest.fixture(scope="session")
def fig1_layers(fig1):
    return assign_layers(fig1)


@pytest.fixture(scope="session")
def fig1_model(fig1, fig1_layers):
    return BnComputationCost(fig1, fig1_layers)


def name_mapping(dag, named: dict[str, int]) -> dict[int, int]:
    return {dag.id_of(n): k for n, k in named.items()}


def random_test_dag(seed: int, n: int | None = None):
    rng = random.Random(seed)
    size = n or rng.randint(3, 10)
    return generate_dag(
        GeneratorSpec(n=size, seed=seed, rewire=0.2, extra_arc_rate=0.4)
    )


def assert_stored_once(memo) -> None:
    """A ``StepMemo`` holds one object per distinct frozenset and per
    ``(dims, layer, cluster)`` part across its stored keys and results."""
    ids: dict = {}

    def visit(x):
        if type(x) is frozenset:
            ids.setdefault(x, set()).add(id(x))
        elif isinstance(x, tuple):
            if list(map(type, x)) == [frozenset, int, int]:
                ids.setdefault(x, set()).add(id(x))
            for y in x:
                visit(y)

    for key, value in memo.steps.items():
        visit(key)
        visit(value)
    assert any(type(x) is tuple for x in ids) and any(type(x) is frozenset for x in ids)
    assert all(len(same) == 1 for same in ids.values())

"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro.core import DiscoveryConfig
from repro.datasets import load_figure1, yago2_like
from repro.graph import Graph, GraphBuilder
from repro.parallel import make_backend


@pytest.fixture
def figure1():
    """The paper's Example 1 artifacts."""
    return load_figure1()


@pytest.fixture
def cover_backend():
    """``cover_backend(n, name="serial")``: a started graph-free backend
    for ``parallel_cover`` / ``parallel_cover_ungrouped``, shut down when
    the test ends."""
    started = []

    def start(num_workers, name="serial"):
        backend = make_backend(name, num_workers, None, None)
        started.append(backend)
        return backend

    yield start
    for backend in started:
        backend.shutdown()


@pytest.fixture
def film_graph() -> Graph:
    """A tiny clean film KB with mineable regularities.

    60 producers each create one film; 60 actors each create one book;
    80 acyclic parent edges.  Rules that hold: create(person, film) implies
    producer; create(person, book) implies actor; no mutual parents.
    """
    graph = Graph()
    producers, actors, films, books = [], [], [], []
    for index in range(60):
        producers.append(
            graph.add_node("person", {"type": "producer", "name": f"p{index}"})
        )
    for index in range(60):
        actors.append(
            graph.add_node("person", {"type": "actor", "name": f"a{index}"})
        )
    for index in range(60):
        films.append(
            graph.add_node("product", {"type": "film", "title": f"f{index}"})
        )
    for index in range(60):
        books.append(
            graph.add_node("product", {"type": "book", "title": f"b{index}"})
        )
    for index in range(60):
        graph.add_edge(producers[index], films[index], "create")
        graph.add_edge(actors[index], books[index], "create")
    people = producers + actors
    for index in range(80):
        graph.add_edge(people[index], people[index + 20], "parent")
    return graph


@pytest.fixture
def film_config() -> DiscoveryConfig:
    """Discovery settings matched to :func:`film_graph`."""
    return DiscoveryConfig(
        k=2,
        sigma=30,
        max_lhs_size=1,
        active_attributes=["type", "name", "title"],
    )


@pytest.fixture(scope="session")
def yago_small() -> Graph:
    """A small YAGO2-shaped graph shared by integration tests."""
    return yago2_like(scale=0.35, seed=7)


@pytest.fixture(scope="session")
def yago_config() -> DiscoveryConfig:
    """Discovery settings matched to :func:`yago_small`."""
    return DiscoveryConfig(
        k=3,
        sigma=25,
        max_lhs_size=2,
        active_attributes=["type", "name", "familyname", "country", "gender"],
    )

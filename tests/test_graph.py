import random

import pytest

from gridtopo.graph import build_grid, voltage_class

from helpers import random_connected_dataset, toy_dataset


def test_two_buses_one_line():
    grid = build_grid(toy_dataset([("a", 240), ("b", 138)], [("l1", "a", "b", 240)]))
    assert grid.adjacency["a"] == (grid.lines["l1"],)
    assert grid.adjacency["b"] == (grid.lines["l1"],)
    assert len(grid.adjacency["a"]) == len(grid.adjacency["b"]) == 1


def test_triangle_degrees():
    grid = build_grid(
        toy_dataset(
            [("a", 138), ("b", 138), ("c", 138)],
            [("l1", "a", "b", 138), ("l2", "b", "c", 138), ("l3", "a", "c", 138)],
        )
    )
    assert all(len(lines) == 2 for lines in grid.adjacency.values())


def test_parallel_lines_stay_distinct():
    grid = build_grid(
        toy_dataset(
            [("a", 240), ("b", 240)],
            [("l1", "a", "b", 240), ("l2", "a", "b", 240)],
        )
    )
    assert grid.adjacency["a"] == (grid.lines["l1"], grid.lines["l2"])
    assert len(grid.adjacency["a"]) == 2 and len(grid.adjacency["b"]) == 2
    assert len(grid.lines) == 2


def test_iteration_order_is_sorted():
    grid = build_grid(
        toy_dataset([("z", 138), ("a", 138), ("m", 138)], [("l9", "z", "a", 138), ("l1", "m", "z", 138)])
    )
    assert tuple(grid.adjacency) == ("a", "m", "z")
    assert tuple(grid.lines) == ("l1", "l9")


def test_degree_sum_equals_twice_line_count():
    rng = random.Random(99)
    for _ in range(25):
        grid = build_grid(random_connected_dataset(rng, max_buses=30))
        degree_sum = sum(len(lines) for lines in grid.adjacency.values())
        assert degree_sum == 2 * len(grid.lines)


def test_adjacency_lists_each_bus_own_line_records_in_neighbor_order():
    rng = random.Random(26)
    datasets = [random_connected_dataset(rng, max_buses=30) for _ in range(25)]
    # Parallel circuits in both endpoint orders, their ids out of neighbor order.
    datasets.append(
        toy_dataset(
            [("a", 240), ("b", 240), ("c", 138)],
            [
                ("l3", "a", "b", 240),
                ("l1", "a", "c", 138),
                ("l2", "b", "a", 240),
                ("l0", "c", "a", 138),
                ("l4", "a", "b", 240),
            ],
        )
    )
    for dataset in datasets:
        grid = build_grid(dataset)
        listed = []
        for bus, lines in grid.adjacency.items():
            assert all(line is grid.lines[line.id] for line in lines)
            listed += [(line.id, bus) for line in lines]
            ends = [
                (line.endpoint_b if line.endpoint_a == bus else line.endpoint_a, line.id)
                for line in grid.lines.values()
                if bus in (line.endpoint_a, line.endpoint_b)
            ]
            assert [line.id for line in lines] == [line_id for _, line_id in sorted(ends)]
        assert sorted(listed) == sorted(
            (line.id, end) for line in grid.lines.values() for end in (line.endpoint_a, line.endpoint_b)
        )


# --- voltage classes -------------------------------------------------------

def test_240_and_500_share_a_rank():
    assert voltage_class(240) == voltage_class(500)


def test_class_order_follows_kv_otherwise():
    assert voltage_class(138) < voltage_class(240)
    assert voltage_class(138) < voltage_class(500)
    assert voltage_class(25) < voltage_class(69)
    assert voltage_class(69) < voltage_class(138)


def test_class_total_order_matches_kv_after_merge():
    levels = [25.0, 69.0, 72.0, 138.0, 144.0, 240.0, 500.0]
    ranked = sorted(levels, key=lambda kv: (voltage_class(kv), kv))
    assert ranked == levels


def test_voltage_class_rejects_nonpositive():
    with pytest.raises(ValueError):
        voltage_class(0)
    with pytest.raises(ValueError):
        voltage_class(-138)

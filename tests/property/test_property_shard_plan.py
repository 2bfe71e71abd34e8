"""Property-based tests for :class:`~repro.exec.backends.ShardPlan`.

Over generated cells, shard sizes and completion orders, ``finish`` must
return each cell's merged outcome exactly once — when the cell's last
shard lands, whatever order the units land in — and the merged records
must equal executing the whole cell at once.  That is the contract every
executor (inline, ``pool.imap``, service worker threads) relies on.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exec import ExecutionCell, execute_cell_batched
from repro.exec.backends import ShardPlan
from repro.experiments.config import GraphSpec, ProtocolSpecConfig

SETTINGS = settings(max_examples=40, deadline=None)

cells = st.lists(
    st.builds(
        lambda family, n, seeds: ExecutionCell(
            protocol=ProtocolSpecConfig(name="bfw"),
            graph=GraphSpec(family=family, n=n),
            seeds=tuple(seeds),
            max_rounds=2000,
        ),
        family=st.sampled_from(["cycle", "path"]),
        n=st.integers(min_value=3, max_value=10),
        seeds=st.lists(
            st.integers(min_value=0, max_value=2**20),
            min_size=1,
            max_size=6,
            unique=True,
        ),
    ),
    min_size=1,
    max_size=3,
)

shard_sizes = st.one_of(
    st.none(), st.just("auto"), st.integers(min_value=1, max_value=7)
)


@SETTINGS
@given(
    cells=cells,
    shard_size=shard_sizes,
    workers=st.integers(min_value=1, max_value=4),
    data=st.data(),
)
def test_finish_merges_each_cell_once_in_any_completion_order(
    cells, shard_size, workers, data
):
    plan = ShardPlan(cells, "test", shard_size, workers).split_all()
    assert [unit.cell_index for unit in plan.units] == sorted(
        unit.cell_index for unit in plan.units
    )
    executed = [execute_cell_batched(unit.cell) for unit in plan.units]
    order = data.draw(st.permutations(range(len(plan.units))))
    merged = {}
    for unit_index in order:
        outcome = plan.finish(unit_index, executed[unit_index])
        if outcome is None:
            continue
        cell_index = plan.units[unit_index].cell_index
        assert cell_index not in merged, "a cell was merged twice"
        # Only the cell's last unit to land completes it.
        landed = order[: order.index(unit_index) + 1]
        assert all(
            index in landed
            for index, unit in enumerate(plan.units)
            if unit.cell_index == cell_index
        )
        merged[cell_index] = outcome
    assert sorted(merged) == list(range(len(cells)))
    for cell_index, cell in enumerate(cells):
        assert merged[cell_index].cell == cell
        assert (
            merged[cell_index].to_records()
            == execute_cell_batched(cell).to_records()
        )

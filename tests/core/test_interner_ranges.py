"""NodeInterner blocks: a bulk fleet is one index range, not a dict.

A block interns the ids ``{prefix}{first + k}`` as a range; its ids are
formatted on demand and recognised only in canonical decimal form, and
only ids interned one by one hold dict entries.
"""

import pytest

from repro.core.census import NodeInterner
from repro.core.provider import NetworkDescriptor
from repro.core.system import OddCISystem


def test_block_rows_round_trip():
    interner = NodeInterner()
    assert interner.intern("solo") == 0
    lo = interner.intern_block("pna-", 5, 10)
    assert lo == 1 and len(interner) == 11
    for k in range(10):
        node_id = f"pna-{5 + k}"
        assert interner.id_of(lo + k) == node_id
        assert interner.index_of(node_id) == lo + k
        assert node_id in interner
        assert interner.intern(node_id) == lo + k  # covered: no new row
    assert len(interner) == 11
    assert interner.id_of(0) == "solo"
    # only the one-by-one id holds dict entries
    assert interner._index == {"solo": 0} and interner._ids == {0: "solo"}
    with pytest.raises(IndexError):
        interner.id_of(11)


@pytest.mark.parametrize("node_id", [
    "pna-007", "pna-07", "pna-+7", "pna--7", "pna-7 ", " pna-7", "pna-7.0",
    "pna-\N{ARABIC-INDIC DIGIT SEVEN}", "pna-4", "pna-15", "pna-", "pna",
    "PNA-7", "pna-" + "9" * 40,
])
def test_non_canonical_or_out_of_range_ids_miss(node_id):
    interner = NodeInterner()
    interner.intern_block("pna-", 5, 10)  # pna-5 .. pna-14
    assert interner.index_of(node_id) is None
    assert node_id not in interner
    assert interner.intern(node_id) == 10  # a new one-by-one id
    assert interner.id_of(10) == node_id


def test_zero_is_canonical():
    interner = NodeInterner()
    interner.intern_block("n", 0, 3)
    assert interner.index_of("n0") == 0 and interner.index_of("n00") is None


def test_one_by_one_intern_of_a_covered_id_returns_the_block_row():
    interner = NodeInterner()
    interner.intern("a")
    lo = interner.intern_block("pna-", 0, 100)
    assert interner.intern("pna-42") == lo + 42
    assert len(interner) == 101 and "pna-42" not in interner._index


def test_intern_block_refuses_present_ids():
    interner = NodeInterner()
    interner.intern("pna-20")
    with pytest.raises(ValueError):
        interner.intern_block("pna-", 15, 10)  # covers the one-by-one id
    interner.intern_block("pna-", 0, 10)
    for first, n in ((9, 1), (0, 10), (5, 2), (8, 5)):
        with pytest.raises(ValueError):
            interner.intern_block("pna-", first, n)  # overlaps the block
    # a non-canonical one-by-one id is a different string
    interner.intern("pna-021")
    assert interner.intern_block("pna-", 21, 3) == 12
    with pytest.raises(ValueError):
        interner.intern_block("pna-1", 0, 5)  # prefix ends in a digit
    assert len(interner) == 15


def test_adjacent_blocks_merge_and_keep_rows():
    interner = NodeInterner()
    assert interner.intern_block("pna-", 0, 4) == 0
    assert interner.intern_block("pna-", 4, 3) == 4
    assert len(interner._blocks) == 1
    interner.intern("x")
    assert interner.intern_block("pna-", 7, 2) == 8  # rows jump: new range
    assert len(interner._blocks) == 2
    assert [interner.id_of(i) for i in range(10)] == [
        "pna-0", "pna-1", "pna-2", "pna-3", "pna-4", "pna-5", "pna-6", "x",
        "pna-7", "pna-8"]
    assert interner.index_of("pna-8") == 9


def test_federation_shards_keep_contiguous_id_slices():
    nets = [NetworkDescriptor(name="east", capacity=40,
                              device_mix={"tv": 0.5, "box": 0.25}),
            NetworkDescriptor(name="west", capacity=30)]
    fed = OddCISystem(networks=nets, seed=3)
    fed.build_fleets({"east": 40, "west": 30})
    east, west = fed.shard("east"), fed.shard("west")
    assert east.id_range == (0, 40) and west.id_range == (40, 70)
    interner = fed.interner
    assert len(interner) == 70
    for shard in (east, west):
        lo, hi = shard.id_range
        ids = [p.pna_id for p in shard.pnas]
        assert [interner.index_of(i) for i in ids] == list(range(lo, hi))
        assert [interner.id_of(i) for i in range(lo, hi)] == ids
    assert east.pnas[0].pna_id == "east:pna-0"
    assert west.pnas[-1].pna_id == "west:pna-29"
    assert [p.capabilities.get("device_class") for p in east.pnas[19:31]] \
        == ["tv"] + ["box"] * 10 + [None]

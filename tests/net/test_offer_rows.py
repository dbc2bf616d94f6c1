"""The batch link kernel ``offer_rows`` is :meth:`Link.offer`, row by row.

Both universes are built from the same seed: one reserves a batch of
rows through :func:`offer_rows` / :func:`count_deliveries`, the other
calls ``Link.offer`` / ``Link.count_delivery`` on the same rows in the
same order.  Every observable must be bit-identical: delivery times,
serializer state, counters, RNG stream positions and the order of the
``net.dropped`` trace events.  The kernels take the rows as an index
array or, through ``as_index``, as a slice over a contiguous ascending
run; both forms are checked.  The column helpers those kernels rest
on, ``column_view``, ``all_distinct`` and ``as_index``, have their
cases at the end.
"""

import math
from array import array

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.link import (Link, LinkTable, all_distinct, as_index,
                            column_view, count_deliveries, offer_rows)
from repro.sim import Simulator
from repro.telemetry.trace import Tracer, active

# (rate, latency, loss, up, prior reservations)
LINK = st.tuples(
    st.sampled_from((1e3, 1.5e5, 1e6, 3.3e7)),
    st.sampled_from((0.0, 0.01, 0.25)),
    st.sampled_from((0.0, 0.0, 0.3, 0.9)),
    st.sampled_from((True, True, True, False)),
    st.integers(0, 3),
)
SIZES = (512.0, 1024.0, 4608.0, 8.0e5)


def _universe(specs, seed, now):
    """Links in one table at rows 0..n-1; some reserved past ``now``
    (busy-until after now), the rest idle since t=0 (before now)."""
    sim = Simulator(seed=seed)
    table = LinkTable()
    links = []
    for row, (rate, latency, loss, up, prior) in enumerate(specs):
        link = Link(sim, rate, latency, loss=loss, name=f"l{row}")
        link.move_to(table, row)
        for _ in range(prior):
            link.offer(SIZES[2])
        links.append(link)
    sim.run(until=now)
    for link, (_rate, _latency, _loss, up, _prior) in zip(links, specs):
        if not up:
            link.set_up(False)
    return sim, table, links


def _observe(sim, table, links, tracer):
    rng_states = {}
    for link in links:
        if link.loss > 0.0:
            rng_states[link.name] = sim.rng(link._rng_stream) \
                .bit_generator.state
    return {
        "busy": list(table.busy),
        "bits": [link.bits_sent for link in links],
        "delivered": [link.delivered for link in links],
        "dropped": [link.dropped for link in links],
        "refused": [link.refused for link in links],
        "rng": rng_states,
        "trace": [(ev[0], ev[2], dict(ev[3])) for ev in tracer.events()],
    }


def _same(batch, scalar):
    assert len(batch) == len(scalar)
    for got, want in zip(batch.tolist(), scalar):
        if want is None:
            assert math.isnan(got)
        else:
            assert type(want) is float
            assert got == want  # bit-identical, not approximately


def _check(specs, rows, sizes, seed, now, distinct, index=False):
    """``index``: hand the kernels ``as_index`` of the rows."""
    rows = np.array(rows, dtype=np.int64)
    size_arg = np.array(sizes) if sizes is not None else SIZES[1]
    form = as_index if index else (lambda r: r)

    batch_tracer = Tracer(("net",))
    with active(batch_tracer):
        sim, table, links = _universe(specs, seed, now)
        got = offer_rows(table, form(rows), size_arg, sim.now,
                         distinct=distinct)
        count_deliveries(table, form(rows[~np.isnan(got)]))
    batch = _observe(sim, table, links, batch_tracer)

    scalar_tracer = Tracer(("net",))
    with active(scalar_tracer):
        sim, table, links = _universe(specs, seed, now)
        want = []
        for k, row in enumerate(rows.tolist()):
            size = float(sizes[k]) if sizes is not None else SIZES[1]
            want.append(links[row].offer(size))
        for row, deliver_at in zip(rows.tolist(), want):
            if deliver_at is not None:
                links[row].count_delivery()
    scalar = _observe(sim, table, links, scalar_tracer)

    _same(got, want)
    assert batch == scalar


@st.composite
def _case(draw, distinct):
    specs = draw(st.lists(LINK, min_size=1, max_size=12))
    row = st.integers(0, len(specs) - 1)
    rows = draw(st.lists(row, max_size=30, unique=distinct))
    sizes = draw(st.one_of(
        st.none(),
        st.lists(st.sampled_from(SIZES), min_size=len(rows),
                 max_size=len(rows))))
    seed = draw(st.integers(0, 2**16))
    now = draw(st.sampled_from((0.0, 0.004, 0.05, 3.0)))
    return specs, rows, sizes, seed, now


@settings(max_examples=150, deadline=None)
@given(_case(distinct=False))
def test_offer_rows_equals_sequential_offer_with_repeats(case):
    specs, rows, sizes, seed, now = case
    _check(specs, rows, sizes, seed, now, distinct=False)


@settings(max_examples=100, deadline=None)
@given(_case(distinct=True))
def test_offer_rows_equals_sequential_offer_on_distinct_rows(case):
    specs, rows, sizes, seed, now = case
    _check(specs, rows, sizes, seed, now, distinct=True)


@pytest.mark.parametrize("rows, down, lossy", [
    ([0, 1, 2, 3, 4, 5], (), ()),          # ascending, the whole table
    ([2, 3, 4], (), ()),                   # ascending, inside it
    ([1, 2, 3, 4], (3,), ()),              # a range holding a down row
    ([0, 1, 2, 3, 4, 5], (), (2, 4)),      # ... and lossy rows
    ([0, 2, 1, 3], (), (1, 2)),            # a range's endpoints, permuted
    ([5, 4, 3, 2], (), (3,)),              # descending
    ([4], (), ()),                         # one row
])
def test_offer_rows_on_a_row_index(rows, down, lossy):
    """The kernels on ``as_index`` of the rows ≡ sequential
    ``Link.offer`` and ``count_delivery``: a slice exactly when the rows
    are a contiguous ascending run."""
    specs = [(1e6 if r % 2 else 1.5e5, 0.01, 0.3 if r in lossy else 0.0,
              r not in down, r % 3) for r in range(6)]
    ranged = rows == list(range(rows[0], rows[0] + len(rows)))
    assert (type(as_index(np.array(rows))) is slice) is ranged
    for sizes in (None, [SIZES[k % 4] for k in range(len(rows))]):
        for seed in range(4):
            _check(specs, rows, sizes, seed, 0.004, distinct=True,
                   index=True)


def _filled(sim, n, rates):
    """A table of ``n`` rows written by ``fill`` (no links yet), a
    share of them at each of ``rates``, whose links are built over their
    rows on first use, as a Router's fleet is; and each row's rate."""
    table = LinkTable()

    def make(r):
        state = table.row(r)
        link = Link(sim, state[5], state[6], name=f"l{r}")
        link._init = state
        link.move_to(table, r)
        return link

    table._make = make
    table.reserve(n)
    row_rates = []
    for k, rate in enumerate(rates):
        lo, hi = k * n // len(rates), (k + 1) * n // len(rates)
        table.fill(lo, hi, (sim.now, 0.0, 0, 1, 0.0, rate, 0.01))
        row_rates += [rate] * (hi - lo)
    return table, row_rates


@st.composite
def _passes(draw):
    n = draw(st.integers(1, 40))
    rates = draw(st.sampled_from(((1e6,), (1e6, 1.5e5))))
    rows = st.one_of(st.just(None), st.lists(st.integers(0, n - 1),
                                             min_size=1, max_size=n,
                                             unique=True))
    op = st.one_of(
        st.tuples(st.just("offer"), rows,
                  st.sampled_from(("one", "equal", "mixed"))),
        st.tuples(st.just("count"), rows),
        st.tuples(st.just("link"), st.integers(0, n - 1)),
        st.tuples(st.just("advance"), st.sampled_from((0.0, 0.003, 1.0))),
    )
    return n, rates, draw(st.lists(op, min_size=1, max_size=12))


@settings(max_examples=150, deadline=None)
@given(_passes())
def test_held_columns_under_mixed_passes(case):
    """A filled table's ``busy``, ``bits`` and ``delivered`` are held as
    one value while whole-table passes write one value, and grown with
    it by a subset pass or a link's scalar ``offer``: delivery times and
    every row's state equal plain links offered row by row, and a
    lockstep sequence (whole-table passes of one size on one rate)
    leaves every column held."""
    n, rates, ops = case
    sim, ref_sim = Simulator(seed=0), Simulator(seed=0)
    table, row_rates = _filled(sim, n, rates)
    refs = [Link(ref_sim, rate, 0.01, name=f"l{r}")
            for r, rate in enumerate(row_rates)]
    for kind, *args in ops:
        if kind == "advance":
            sim.run(until=sim.now + args[0])
            ref_sim.run(until=ref_sim.now + args[0])
        elif kind == "link":
            (r,) = args
            assert table.link(r).offer(SIZES[0]) == refs[r].offer(SIZES[0])
        else:
            rows = np.arange(n) if args[0] is None else np.array(args[0])
            if kind == "count":
                count_deliveries(table, as_index(rows))
                for r in rows.tolist():
                    refs[r].count_delivery()
                continue
            sizes = {"one": SIZES[1], "equal": np.full(len(rows), SIZES[2]),
                     "mixed": np.array([SIZES[r % 4]
                                        for r in rows.tolist()])}[args[1]]
            got = offer_rows(table, as_index(rows), sizes, sim.now)
            _same(got, [refs[r].offer(float(np.broadcast_to(
                sizes, len(rows))[k])) for k, r in enumerate(rows.tolist())])
    lockstep = len(rates) == 1 and all(
        kind == "advance" or kind in ("offer", "count") and args[0] is None
        and args[-1] != "mixed" for kind, *args in ops)
    if lockstep:
        assert not (table.busy or table.bits or table.delivered)
    for r, ref in enumerate(refs):
        assert table.row(r)[:3] == (ref._t.busy[ref._row], ref.bits_sent,
                                    ref.delivered)


def test_scalar_link_state_reads_are_python_floats():
    sim = Simulator(seed=1)
    link = Link(sim, 1e6, 0.01)
    assert type(link.offer(1000.0)) is float
    assert type(link.bits_sent) is float
    assert type(link.utilization_horizon) is float
    assert type(link.rate_bps) is float and type(link.delivered) is int


def test_int64_column_view_counts_repeated_deliveries():
    """A ``'q'`` column is viewed as ``np.int64`` (the dtype ``ufunc.at``
    has its indexed fast loop for), and ``count_deliveries`` counts a
    repeated row once per occurrence, as a per-row loop does."""
    assert column_view(array("q", [1, 2])).dtype.type is np.int64
    rows = np.array([3, 0, 3, 3, 5, 0, 1], dtype=np.int64)
    table = LinkTable()
    table.reserve(6)
    table.grown().delivered[2] = 7
    count_deliveries(table, rows)
    want = [0, 0, 7, 0, 0, 0]
    for row in rows.tolist():
        want[row] += 1
    assert list(table.delivered) == want
    view = column_view(table.delivered)
    assert view.dtype.type is np.int64 and view.tolist() == want


@pytest.mark.parametrize("values, distinct", [
    ([], True),
    ([4], True),
    ([1, 2, 5, 9], True),           # ascending
    ([9, 1, 5, 2], True),           # unsorted, distinct
    ([3, 3, 5, 9], False),          # ascending, repeat at the start
    ([1, 2, 9, 9], False),          # ascending, repeat at the end
    ([9, 1, 5, 1], False),          # unsorted, the smallest twice
    ([9, 1, 5, 9], False),          # unsorted, the largest twice
])
def test_all_distinct(values, distinct):
    assert all_distinct(np.array(values, dtype=np.int64)) is distinct


@pytest.mark.parametrize("values, index", [
    ([], []),
    ([4], slice(4, 5)),
    ([3, 4, 5], slice(3, 6)),
    ([3, 5, 6], [3, 5, 6]),      # ascending, not contiguous
    ([0, 2, 1, 3], [0, 2, 1, 3]),  # a range's endpoints, permuted
    ([5, 4, 3], [5, 4, 3]),      # descending
    ([3, 3, 4], [3, 3, 4]),      # a repeat
])
def test_as_index(values, index):
    got = as_index(np.array(values, dtype=np.int64))
    if type(index) is slice:
        assert got == index
    else:
        assert got.tolist() == index

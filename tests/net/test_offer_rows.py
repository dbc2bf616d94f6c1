"""The batch link kernel ``offer_rows`` is :meth:`Link.offer`, row by row.

Both universes are built from the same seed: one reserves a batch of
rows through :func:`offer_rows` / :func:`count_deliveries`, the other
calls ``Link.offer`` / ``Link.count_delivery`` on the same rows in the
same order.  Every observable must be bit-identical: delivery times,
serializer state, counters, RNG stream positions and the order of the
``net.dropped`` trace events.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.link import Link, LinkTable, count_deliveries, offer_rows
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


def _check(specs, rows, sizes, seed, now, distinct):
    rows = np.array(rows, dtype=np.int64)
    size_arg = np.array(sizes) if sizes is not None else SIZES[1]

    batch_tracer = Tracer(("net",))
    with active(batch_tracer):
        sim, table, links = _universe(specs, seed, now)
        got = offer_rows(table, rows, size_arg, sim.now, distinct=distinct)
        count_deliveries(table, rows[~np.isnan(got)])
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


def test_scalar_link_state_reads_are_python_floats():
    sim = Simulator(seed=1)
    link = Link(sim, 1e6, 0.01)
    assert type(link.offer(1000.0)) is float
    assert type(link.bits_sent) is float
    assert type(link.utilization_horizon) is float
    assert type(link.rate_bps) is float and type(link.delivered) is int

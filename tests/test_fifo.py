"""Tests for the ordered read-write lock FIFO — the core ORWL semantics."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.orwl.fifo import AccessMode, FifoError, OrwlFifo, RequestState

R, W = AccessMode.READ, AccessMode.WRITE


def make(log=None):
    log = log if log is not None else []
    fifo = OrwlFifo(on_grant=lambda req: log.append(req.tag), name="loc")
    return fifo, log


class TestBasicGrants:
    def test_first_write_granted_immediately(self):
        fifo, log = make()
        req = fifo.insert(W, "w1")
        assert req.state is RequestState.GRANTED
        assert log == ["w1"]

    def test_second_write_waits(self):
        fifo, log = make()
        fifo.insert(W, "w1")
        r2 = fifo.insert(W, "w2")
        assert r2.state is RequestState.PENDING
        assert log == ["w1"]

    def test_write_granted_after_release(self):
        fifo, log = make()
        r1 = fifo.insert(W, "w1")
        r2 = fifo.insert(W, "w2")
        fifo.release(r1)
        assert r2.state is RequestState.GRANTED
        assert log == ["w1", "w2"]

    def test_consecutive_readers_share(self):
        fifo, log = make()
        a = fifo.insert(R, "r1")
        b = fifo.insert(R, "r2")
        c = fifo.insert(R, "r3")
        assert all(x.state is RequestState.GRANTED for x in (a, b, c))

    def test_reader_behind_writer_waits(self):
        fifo, log = make()
        fifo.insert(W, "w")
        r = fifo.insert(R, "r")
        assert r.state is RequestState.PENDING

    def test_writer_behind_readers_waits_for_all(self):
        fifo, log = make()
        r1 = fifo.insert(R, "r1")
        r2 = fifo.insert(R, "r2")
        w = fifo.insert(W, "w")
        fifo.release(r1)
        assert w.state is RequestState.PENDING
        fifo.release(r2)
        assert w.state is RequestState.GRANTED

    def test_strict_fifo_reader_does_not_jump_writer(self):
        """A reader arriving behind a pending writer must not share with
        the currently granted readers (ordered semantics, no reordering)."""
        fifo, log = make()
        r1 = fifo.insert(R, "r1")
        w = fifo.insert(W, "w")
        r2 = fifo.insert(R, "r2")
        assert r1.state is RequestState.GRANTED
        assert w.state is RequestState.PENDING
        assert r2.state is RequestState.PENDING
        fifo.release(r1)
        assert w.state is RequestState.GRANTED
        assert r2.state is RequestState.PENDING
        fifo.release(w)
        assert r2.state is RequestState.GRANTED

    def test_grant_order_matches_insertion(self):
        fifo, log = make()
        reqs = [fifo.insert(W, f"w{k}") for k in range(4)]
        for req in reqs[:-1]:
            fifo.release(req)
        assert log == ["w0", "w1", "w2", "w3"]


class TestRelease:
    def test_release_pending_rejected(self):
        fifo, _ = make()
        fifo.insert(W, "w1")
        r2 = fifo.insert(W, "w2")
        with pytest.raises(FifoError):
            fifo.release(r2)

    def test_double_release_rejected(self):
        fifo, _ = make()
        r = fifo.insert(W, "w")
        fifo.release(r)
        with pytest.raises(FifoError):
            fifo.release(r)

    def test_foreign_request_rejected(self):
        fifo, _ = make()
        other, _ = make()
        r = other.insert(W, "w")
        with pytest.raises(FifoError):
            fifo.release(r)

    def test_release_middle_reader(self):
        fifo, _ = make()
        r1 = fifo.insert(R, "r1")
        r2 = fifo.insert(R, "r2")
        w = fifo.insert(W, "w")
        fifo.release(r1)
        assert r2.state is RequestState.GRANTED
        assert w.state is RequestState.PENDING


class TestCancel:
    def test_cancel_pending_removes(self):
        fifo, log = make()
        fifo.insert(W, "w1")
        r2 = fifo.insert(W, "w2")
        fifo.cancel(r2)
        assert r2.state is RequestState.CANCELLED
        assert len(fifo) == 1

    def test_cancel_unblocks_successor(self):
        fifo, log = make()
        r1 = fifo.insert(W, "w1")
        r2 = fifo.insert(W, "w2")
        r3 = fifo.insert(W, "w3")
        fifo.release(r1)
        fifo.cancel(r3)  # cancel a pending one behind the new head
        fifo.release(r2)
        assert log == ["w1", "w2"]
        assert len(fifo) == 0

    def test_cancel_granted_acts_as_release(self):
        fifo, log = make()
        r1 = fifo.insert(W, "w1")
        r2 = fifo.insert(W, "w2")
        fifo.cancel(r1)
        assert r2.state is RequestState.GRANTED

    def test_cancel_twice_noop(self):
        fifo, _ = make()
        fifo.insert(W, "w1")
        r2 = fifo.insert(W, "w2")
        fifo.cancel(r2)
        fifo.cancel(r2)  # no error
        assert r2.state is RequestState.CANCELLED


class TestInvariants:
    def test_granted_is_prefix(self):
        fifo, _ = make()
        reqs = [fifo.insert(R if k % 2 else W, f"x{k}") for k in range(6)]
        for _ in range(4):
            states = [r.state for r in fifo.queue]
            granted = [s is RequestState.GRANTED for s in states]
            # all granted entries precede all pending entries
            assert granted == sorted(granted, reverse=True)
            # release the head
            fifo.release(fifo.queue[0])

    def test_holder_modes_never_mixed(self):
        fifo, _ = make()
        import random

        rng = random.Random(42)
        live = []
        for k in range(50):
            if live and rng.random() < 0.4:
                req = live.pop(rng.randrange(len(live)))
                if req.state is RequestState.GRANTED:
                    fifo.release(req)
                else:
                    fifo.cancel(req)
            else:
                live.append(fifo.insert(rng.choice([R, W]), f"q{k}"))
            modes = fifo.holder_modes()
            if AccessMode.WRITE in modes:
                assert len(modes) == 1

    def test_inserted_counter(self):
        fifo, _ = make()
        for k in range(5):
            fifo.insert(R, f"r{k}")
        assert fifo.inserted == 5


@settings(max_examples=40, deadline=None)
@given(st.lists(st.sampled_from(["R", "W", "release"]), min_size=1, max_size=40))
def test_random_protocol_liveness(script):
    """Property: after any sequence of inserts/releases, if the queue is
    non-empty its head is granted (no lost wakeups)."""
    fifo = OrwlFifo(name="prop")
    for action in script:
        if action == "release":
            granted = [r for r in fifo.queue if r.state is RequestState.GRANTED]
            if granted:
                fifo.release(granted[0])
        else:
            fifo.insert(R if action == "R" else W, action)
        if len(fifo):
            assert fifo.queue[0].state is RequestState.GRANTED


def _assert_counters_match_scan(fifo):
    """The O(1) granted-prefix counters against a full queue scan."""
    queue = fifo.queue
    prefix = 0
    for req in queue:
        if req.state is not RequestState.GRANTED:
            break
        prefix += 1
    assert all(r.state is RequestState.PENDING for r in queue[prefix:])
    writes = sum(r.mode is W for r in queue[:prefix])
    assert fifo._n_granted == prefix == fifo.granted_count()
    assert fifo._n_granted_writes == writes
    assert writes == 0 or prefix == 1  # a write is only ever granted alone
    assert fifo.holder_modes() == [
        r.mode for r in queue if r.state is RequestState.GRANTED
    ]
    if prefix < len(queue):  # maximal: the first pending request must wait
        assert prefix > 0 and (writes or queue[prefix].mode is W)


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.sampled_from([R, W]), min_size=1, max_size=6),
    st.lists(
        st.tuples(
            st.sampled_from(["insert", "release", "next", "cancel"]),
            st.integers(0, 5),
        ),
        max_size=60,
    ),
)
def test_granted_prefix_counters_match_scan(modes, script):
    """Property: after every insert / release / ``orwl_next`` / cancel,
    the FIFO's counters equal a rescan of the queue, and every request
    is granted at most once.  Each slot of *live* is one handle's live
    request."""
    grants = []
    fifo = OrwlFifo(grants.append, "loc")
    live = [None] * len(modes)
    for action, k in script:
        i = k % len(modes)
        req = live[i]
        granted = req is not None and req.state is RequestState.GRANTED
        if action == "insert" and req is None:
            live[i] = fifo.insert(modes[i], f"op{i}")
        elif action == "release" and granted:
            fifo.release(req)
            live[i] = None
        elif action == "next" and granted:
            live[i] = fifo.release(req, True, f"op{i}")
        elif action == "cancel" and req is not None:
            fifo.cancel(req)
            live[i] = None
        _assert_counters_match_scan(fifo)
    assert len({id(r) for r in grants}) == len(grants)
    assert all(r.state is not RequestState.PENDING for r in grants)


def _fifo_view(fifo, reqs):
    """Everything ``orwl_next`` must agree on with its two-step oracle."""
    return (
        [(r.tag, r.mode, r.state, r.waiter) for r in reqs],
        [r.tag for r in fifo.queue],
        fifo.granted_count(),
        fifo.inserted,
        fifo.holder_modes(),
    )


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.sampled_from(["insert-R", "insert-W", "release", "cancel", "next"]),
            st.integers(0, 11),
        ),
        min_size=1,
        max_size=60,
    )
)
def test_requeue_matches_insert_then_release(script):
    """Property: ``release(old, again=True)`` (``orwl_next``) gives the
    same grant-callback sequence, request states and counters as
    ``insert()`` then ``release(old)`` — the two-step form, kept here as
    the oracle — over random mixed READ/WRITE queues with holders,
    pending entries and cancels."""
    one, one_log = make()
    two, two_log = make()
    one_reqs, two_reqs = [], []  # same index = the same logical request
    for step, (action, k) in enumerate(script):
        live = [
            i for i, r in enumerate(one_reqs)
            if r.state in (RequestState.PENDING, RequestState.GRANTED)
        ]
        granted = [i for i in live if one_reqs[i].state is RequestState.GRANTED]
        if action.startswith("insert"):
            mode = R if action == "insert-R" else W
            one_reqs.append(one.insert(mode, f"q{step}", waiter=step))
            two_reqs.append(two.insert(mode, f"q{step}", waiter=step))
        elif action == "release" and granted:
            i = granted[k % len(granted)]
            one.release(one_reqs[i])
            two.release(two_reqs[i])
        elif action == "cancel" and live:
            i = live[k % len(live)]
            one.cancel(one_reqs[i])
            two.cancel(two_reqs[i])
        elif action == "next" and granted:
            i = granted[k % len(granted)]
            old = two_reqs[i]
            one_reqs.append(one.release(one_reqs[i], True, f"q{step}", waiter=step))
            two_reqs.append(two.insert(old.mode, f"q{step}", waiter=step))
            two.release(old)
        assert one_log == two_log
        assert _fifo_view(one, one_reqs) == _fifo_view(two, two_reqs)


def test_requeue_of_ungranted_request_raises_and_changes_nothing():
    fifo, log = make()
    fifo.insert(W, "w1")
    r2 = fifo.insert(R, "r2")
    with pytest.raises(FifoError):
        fifo.release(r2, True, "r2-next")
    assert [r.tag for r in fifo.queue] == ["w1", "r2"]
    assert fifo.inserted == 2 and log == ["w1"]

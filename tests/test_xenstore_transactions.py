"""Unit tests: Xenstore transactions (the xs_transaction_t of Fig 2).

The manager keeps per-path conflict generations only while a
transaction is open; a hypothesis state machine checks that against a
verbatim copy of the never-pruning manager (the oracle).
"""

import itertools
from dataclasses import dataclass, field

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.sim import CostModel, VirtualClock
from repro.xenstore.client import XsHandle
from repro.xenstore.clone import XsCloneOp, xs_clone
from repro.xenstore.store import XenstoreDaemon, XenstoreError
from repro.xenstore.transactions import TransactionConflict


@pytest.fixture
def daemon(clock, costs):
    return XenstoreDaemon(clock, costs)


@pytest.fixture
def handle(daemon):
    return XsHandle(daemon)


def test_commit_applies_writes(handle, daemon):
    tid = handle.transaction_start()
    handle.t_write(tid, "/a/b", "1")
    handle.t_write(tid, "/a/c", "2")
    assert not daemon.exists("/a/b")  # buffered, not applied
    handle.transaction_end(tid)
    assert daemon.read_node("/a/b") == "1"
    assert daemon.read_node("/a/c") == "2"


def test_abort_discards_writes(handle, daemon):
    tid = handle.transaction_start()
    handle.t_write(tid, "/a/b", "1")
    handle.transaction_end(tid, commit=False)
    assert not daemon.exists("/a/b")
    assert daemon.transactions.stats["aborts"] == 1


def test_read_your_writes(handle):
    tid = handle.transaction_start()
    handle.t_write(tid, "/a/b", "draft")
    assert handle.t_read(tid, "/a/b") == "draft"


def test_read_sees_committed_state(handle, daemon):
    daemon.write_node("/a/b", "old")
    tid = handle.transaction_start()
    assert handle.t_read(tid, "/a/b") == "old"


def test_remove_inside_transaction(handle, daemon):
    daemon.write_node("/a/b", "x")
    tid = handle.transaction_start()
    handle.t_rm(tid, "/a/b")
    with pytest.raises(XenstoreError):
        handle.t_read(tid, "/a/b")
    assert daemon.exists("/a/b")  # still there until commit
    handle.transaction_end(tid)
    assert not daemon.exists("/a/b")


def test_conflicting_write_aborts_with_eagain(handle, daemon):
    daemon.write_node("/a/b", "old")
    tid = handle.transaction_start()
    handle.t_read(tid, "/a/b")
    daemon.write_node("/a/b", "concurrent")  # racing mutation
    with pytest.raises(TransactionConflict):
        handle.transaction_end(tid)
    assert daemon.read_node("/a/b") == "concurrent"
    assert daemon.transactions.stats["conflicts"] == 1


def test_disjoint_transactions_do_not_conflict(handle, daemon):
    t1 = handle.transaction_start()
    t2 = handle.transaction_start()
    handle.t_write(t1, "/a/one", "1")
    handle.t_write(t2, "/b/two", "2")
    handle.transaction_end(t1)
    handle.transaction_end(t2)
    assert daemon.read_node("/a/one") == "1"
    assert daemon.read_node("/b/two") == "2"


def test_overlapping_transactions_conflict(handle, daemon):
    t1 = handle.transaction_start()
    t2 = handle.transaction_start()
    handle.t_write(t1, "/shared", "from-t1")
    handle.t_write(t2, "/shared", "from-t2")
    handle.transaction_end(t1)
    with pytest.raises(TransactionConflict):
        handle.transaction_end(t2)
    assert daemon.read_node("/shared") == "from-t1"


def test_closed_transaction_rejected(handle):
    tid = handle.transaction_start()
    handle.transaction_end(tid)
    with pytest.raises(XenstoreError):
        handle.t_write(tid, "/x", "1")
    with pytest.raises(XenstoreError):
        handle.transaction_end(tid)


def test_retry_after_conflict_succeeds(handle, daemon):
    daemon.write_node("/counter", "0")
    tid = handle.transaction_start()
    value = int(handle.t_read(tid, "/counter"))
    daemon.write_node("/counter", "5")  # race
    handle.t_write(tid, "/counter", str(value + 1))
    with pytest.raises(TransactionConflict):
        handle.transaction_end(tid)
    # Client retry loop, as with real oxenstored.
    tid = handle.transaction_start()
    value = int(handle.t_read(tid, "/counter"))
    handle.t_write(tid, "/counter", str(value + 1))
    handle.transaction_end(tid)
    assert daemon.read_node("/counter") == "6"


def test_transactional_xs_clone(handle, daemon):
    base = "/local/domain/0/backend/vif/5/0"
    daemon.write_node(f"{base}/frontend-id", "5")
    daemon.write_node(f"{base}/state", "4")
    tid = handle.transaction_start()
    created = handle.clone(5, 9, XsCloneOp.DEV_VIF,
                           "/local/domain/0/backend/vif/5",
                           "/local/domain/0/backend/vif/9", tid=tid)
    assert created >= 3
    assert not daemon.exists("/local/domain/0/backend/vif/9")
    handle.transaction_end(tid)
    cloned = "/local/domain/0/backend/vif/9/0"
    assert daemon.read_node(f"{cloned}/frontend-id") == "9"
    assert daemon.read_node(f"{cloned}/state") == "4"


def test_open_count(daemon, handle):
    t1 = handle.transaction_start()
    assert daemon.transactions.open_count == 1
    handle.transaction_end(t1)
    assert daemon.transactions.open_count == 0


# ----------------------------------------------------------------------
# the oracle: the never-pruning manager, kept verbatim
# ----------------------------------------------------------------------

@dataclass
class _OracleOp:
    kind: str  # "write" | "rm"
    path: str
    value: str = ""


@dataclass
class _OracleTransaction:
    tid: int
    start_generation: int
    ops: list = field(default_factory=list)
    footprint: set = field(default_factory=set)
    pending: dict = field(default_factory=dict)
    closed: bool = False


class _OracleManager:
    """The manager before pruning: every generation record kept forever."""

    def __init__(self, daemon):
        self.daemon = daemon
        self._tids = itertools.count(1)
        self._open = {}
        self.generation = 0
        self._path_generation = {}
        self._prefix_generation = {}
        self.stats = {"commits": 0, "aborts": 0, "conflicts": 0}

    def start(self):
        transaction = _OracleTransaction(tid=next(self._tids),
                                         start_generation=self.generation)
        self._open[transaction.tid] = transaction
        return transaction

    def write(self, transaction, path, value):
        transaction.ops.append(_OracleOp("write", path, value))
        transaction.footprint.add(path)
        transaction.pending[path] = value

    def remove(self, transaction, path):
        transaction.ops.append(_OracleOp("rm", path))
        transaction.footprint.add(path)
        transaction.pending[path] = None

    def read(self, transaction, path):
        transaction.footprint.add(path)
        if path in transaction.pending:
            value = transaction.pending[path]
            if value is None:
                raise XenstoreError(f"ENOENT: {path!r} (removed in txn)")
            return value
        return self.daemon.read_node(path)

    def commit(self, transaction):
        if transaction.closed:
            raise XenstoreError(f"transaction {transaction.tid} is closed")
        try:
            self.daemon.faults.fire("xenstore.txn_commit",
                                    tid=transaction.tid)
        except TransactionConflict:
            self.stats["conflicts"] += 1
            self._close(transaction)
            raise
        start = transaction.start_generation
        prefix_generation = self._prefix_generation
        for path in transaction.footprint:
            if self._path_generation.get(path, 0) > start:
                self.stats["conflicts"] += 1
                self._close(transaction)
                raise TransactionConflict(
                    f"EAGAIN: {path!r} changed during transaction "
                    f"{transaction.tid}")
            if prefix_generation:
                prefix = path.rstrip("/") or "/"
                while True:
                    if prefix_generation.get(prefix, 0) > start:
                        self.stats["conflicts"] += 1
                        self._close(transaction)
                        raise TransactionConflict(
                            f"EAGAIN: {path!r} changed during transaction "
                            f"{transaction.tid}")
                    if prefix == "/":
                        break
                    cut = prefix.rfind("/")
                    prefix = prefix[:cut] or "/"
        for op in transaction.ops:
            self.generation += 1
            self._path_generation[op.path] = self.generation
            if op.kind == "write":
                self.daemon.write_node(op.path, op.value)
            else:
                if self.daemon.exists(op.path):
                    self.daemon.remove_node(op.path)
        self.stats["commits"] += 1
        self._close(transaction)

    def record_external_write(self, path):
        self.generation += 1
        self._path_generation[path] = self.generation

    def record_subtree_write(self, path, nodes):
        self.generation += nodes
        self._prefix_generation[path.rstrip("/") or "/"] = self.generation

    def abort(self, transaction):
        self.stats["aborts"] += 1
        self._close(transaction)

    def _close(self, transaction):
        transaction.closed = True
        self._open.pop(transaction.tid, None)


# ----------------------------------------------------------------------
# the differential machine
# ----------------------------------------------------------------------

#: Footprint and mutation targets: plain nodes, graft roots (``/g/N``)
#: and nodes under them, so both the per-path and the subtree check run.
#: Few paths on purpose: footprints and racing writes must overlap often.
PATHS = ["/a", "/a/b", "/g/0", "/g/0/k", "/g/1/k"]
paths = st.sampled_from(PATHS)
values = st.sampled_from(["0", "1", "2"])


class PruningMachine(RuleBasedStateMachine):
    """Random transactions racing external writes, removes and xs_clone
    grafts, on the pruning manager and on the oracle in lockstep."""

    def __init__(self):
        super().__init__()
        self.daemons = []
        for oracle in (False, True):
            daemon = XenstoreDaemon(VirtualClock(), CostModel())
            if oracle:
                daemon.transactions = _OracleManager(daemon)
            daemon.write_node("/src/k", "v")
            daemon.write_node("/src/j", "w")
            self.daemons.append(daemon)
        #: Open transactions as (real, oracle) pairs.
        self.open = []

    def both(self, call):
        """Run ``call(daemon)`` on both sides; outcomes must match."""
        outcomes = []
        for daemon in self.daemons:
            try:
                outcomes.append(("ok", call(daemon)))
            except XenstoreError as error:
                outcomes.append((type(error).__name__, None))
        assert outcomes[0] == outcomes[1]
        return outcomes[0]

    def pick(self, data):
        return data.draw(st.integers(0, len(self.open) - 1))

    @precondition(lambda self: len(self.open) < 3)
    @rule()
    def start(self):
        self.open.append(tuple(d.transactions.start() for d in self.daemons))

    @precondition(lambda self: self.open)
    @rule(data=st.data(), path=paths, value=values)
    def t_write(self, data, path, value):
        pair = self.open[self.pick(data)]
        for daemon, txn in zip(self.daemons, pair):
            daemon.transactions.write(txn, path, value)

    @precondition(lambda self: self.open)
    @rule(data=st.data(), path=paths)
    def t_read(self, data, path):
        pair = self.open[self.pick(data)]
        side = iter(pair)
        self.both(lambda d: d.transactions.read(next(side), path))

    @precondition(lambda self: self.open)
    @rule(data=st.data(), path=paths)
    def t_rm(self, data, path):
        pair = self.open[self.pick(data)]
        for daemon, txn in zip(self.daemons, pair):
            daemon.transactions.remove(txn, path)

    @rule(path=paths, value=values)
    def external_write(self, path, value):
        for daemon in self.daemons:
            daemon.write_node(path, value)

    @rule(path=paths)
    def external_rm(self, path):
        self.both(lambda d: d.remove_node(path))

    @rule(index=st.integers(0, 1))
    def graft(self, index):
        self.both(lambda d: xs_clone(d, 1, 2, XsCloneOp.BASIC, "/src",
                                     f"/g/{index}"))

    @precondition(lambda self: self.open)
    @rule(data=st.data())
    def commit(self, data):
        pair = self.open.pop(self.pick(data))
        side = iter(pair)
        self.both(lambda d: d.transactions.commit(next(side)))

    @precondition(lambda self: self.open)
    @rule(data=st.data())
    def abort(self, data):
        pair = self.open.pop(self.pick(data))
        for daemon, txn in zip(self.daemons, pair):
            daemon.transactions.abort(txn)

    @invariant()
    def same_generation_stats_and_store(self):
        real, oracle = (d.transactions for d in self.daemons)
        assert real.generation == oracle.generation
        assert real.stats == oracle.stats
        assert self.daemons[0].walk("/") == self.daemons[1].walk("/")

    @invariant()
    def no_generations_kept_while_idle(self):
        real = self.daemons[0].transactions
        assert real.open_count == len(self.open)
        if not self.open:
            assert not real._path_generation
            assert not real._prefix_generation


TestPruningMachine = PruningMachine.TestCase
TestPruningMachine.settings = settings(max_examples=60,
                                       stateful_step_count=40,
                                       deadline=None)

"""One chaos suite for every content-addressed store namespace.

Each of the six stores binds a codec to :class:`repro.store.
ContentStore`; the layout, atomic writes, counters and failure policy
are shared, so every test below runs once per namespace: round trips,
truncated and wrong-shape entries, an unwritable root, housekeeping,
and concurrent writers racing a reader on one key.
"""

import ast
import json
import pickle
import sys
import threading
import warnings
from dataclasses import dataclass
from typing import Any, Callable

import pytest

from repro.check.dataflow import SummaryCache, summarize_module
from repro.check.analyzer import Finding
from repro.check.project import AstCache, FindingsCache, Project
from repro.core.results import NetPipePoint, NetPipeResult
from repro.exec import SweepCache
from repro.scenario.result import FlowResult, ScenarioResult
from repro.scenario.runner import ScenarioStore
from repro.store import ContentStore
from repro.verify import VerdictCache

pytestmark = pytest.mark.faults

KEY = "ab" * 32
OTHER_KEY = "cd" * 32

_CURVE = NetPipeResult(
    library="raw TCP",
    config="PC / Netgear GA620",
    points=[NetPipePoint(size=1, oneway_time=3.1e-05),
            NetPipePoint(size=1024, oneway_time=5.9e-05)],
)


def _summaries():
    project = Project.from_source(
        "async def go(q):\n    await q.get()\n",
        module="repro.serve.fixture_flow",
        derive=False,
    )
    ctx = project.modules[0]
    return summarize_module(ctx, project.imports_of(ctx))


@dataclass
class Namespace:
    cls: type
    value: Callable[[], Any]
    #: Bytes that decode, but not to this namespace's value type.
    wrong_shape: bytes
    same: Callable[[Any, Any], bool] = lambda a, b: a == b


NAMESPACES = {
    "sweep": Namespace(
        SweepCache, lambda: _CURVE, b'{"format": "something-else"}'),
    "scenario": Namespace(
        ScenarioStore,
        lambda: ScenarioResult(
            name="two-rank", fingerprint=KEY, library="raw TCP",
            config="PC / Netgear GA620", nranks=2, topology="crossbar",
            workload_kind="pingpong", completion_time=0.25,
            events_processed=1234, curve=_CURVE,
            flows=(FlowResult("bg", "constant", 100.0, 7, 7000, 52.5),),
            quiet_completion_time=0.2,
        ),
        b"[]",
    ),
    "verdict": Namespace(
        VerdictCache,
        lambda: {"library": "mpich", "path_pairs": 12, "witnesses": []},
        b'["a verdict", "must be an object"]',
    ),
    "ast": Namespace(
        AstCache,
        lambda: ast.parse("x = 40 + 2\n"),
        pickle.dumps({"not": "an ast"}),
        lambda a, b: ast.dump(a) == ast.dump(b),
    ),
    "summary": Namespace(
        SummaryCache, _summaries, b'{"version": "other", "functions": []}'),
    "findings": Namespace(
        FindingsCache,
        lambda: [Finding("src/repro/sim/x.py", 3, 5, "det-wallclock",
                         "use of 'time.time'")],
        b'{"findings": [{"path": "x.py", "line": "3", "col": 1, '
        b'"rule": "r", "message": "m"}]}',
    ),
}


@pytest.fixture(params=sorted(NAMESPACES))
def ns(request) -> Namespace:
    return NAMESPACES[request.param]


def test_every_namespace_is_a_content_store(ns):
    assert issubclass(ns.cls, ContentStore)
    # get/put live in each class body (ScenarioStore inherits get).
    assert "put" in vars(ns.cls)
    assert "get" in vars(ns.cls) or ns.cls is ScenarioStore


def test_round_trip(tmp_path, ns):
    store = ns.cls(tmp_path)
    value = ns.value()
    assert store.get(KEY) is None
    path = store.put(KEY, value)
    assert path == store.path_for(KEY) and path.is_file()
    assert path.parent.name == KEY[:2]
    assert path.name == KEY + store.suffix
    assert ns.same(store.get(KEY), value)
    assert (store.hits, store.misses, store.corrupt) == (1, 1, 0)
    # A fresh instance over the same root reads the same entry.
    assert ns.same(ns.cls(tmp_path).get(KEY), value)


def test_truncated_entry_is_a_counted_miss_and_put_repairs_it(tmp_path, ns):
    store = ns.cls(tmp_path)
    value = ns.value()
    path = store.put(KEY, value)
    whole = path.read_bytes()
    path.write_bytes(whole[: len(whole) // 2])
    assert store.get(KEY) is None
    assert store.corrupt == 1 and store.misses == 1
    assert store.put(KEY, value) == path
    assert path.read_bytes() == whole
    assert ns.same(store.get(KEY), value)


def test_wrong_shape_payload_is_a_miss(tmp_path, ns):
    store = ns.cls(tmp_path)
    path = store.path_for(KEY)
    path.parent.mkdir(parents=True)
    for n, payload in enumerate((ns.wrong_shape, b"{not json"), start=1):
        path.write_bytes(payload)
        assert store.get(KEY) is None
        assert store.corrupt == n and store.misses == n and store.hits == 0


def test_unwritable_root_is_harmless(tmp_path, ns):
    blocked = tmp_path / "file-not-dir"
    blocked.write_text("")
    store = ns.cls(blocked / "nested")  # parent is a file
    value = ns.value()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert store.put(KEY, value) is None
        assert store.put(OTHER_KEY, value) is None
        assert store.get(KEY) is None
    assert store.write_errors == 2
    assert store.misses == 1 and store.corrupt == 0
    assert len(store) == 0
    assert [w.category for w in caught] == [RuntimeWarning]
    assert ns.cls.__name__ in str(caught[0].message)


def test_invalidate_clear_and_len(tmp_path, ns):
    store = ns.cls(tmp_path)
    value = ns.value()
    store.put(KEY, value)
    store.put(OTHER_KEY, value)
    assert len(store) == 2
    assert store.shard_counts() == {KEY[:2]: 1, OTHER_KEY[:2]: 1}
    assert store.invalidate(KEY) is True
    assert store.invalidate(KEY) is False
    assert store.get(KEY) is None
    assert len(store) == 1
    stats = store.stats()
    assert stats["entries"] == 1 and stats["misses"] == 1
    assert stats["root"] == str(tmp_path)
    assert store.clear() == 1
    assert len(store) == 0 and store.shard_counts() == {}


def test_concurrent_writers_and_a_reader_never_tear(tmp_path, ns):
    """Four threads put and get one key while a fifth reads it: no
    write fails, no read sees a torn entry, no counter update is lost."""
    store = ns.cls(tmp_path)
    value = ns.value()
    store.put(KEY, value)
    errors: list[BaseException] = []
    wrong: list[Any] = []
    reads = [0]
    stop = threading.Event()

    def check(got):
        if got is None or not ns.same(got, value):
            wrong.append(got)

    def writer():
        try:
            for _ in range(100):
                store.put(KEY, value)
                check(store.get(KEY))
        except BaseException as exc:  # surfaced below, not swallowed
            errors.append(exc)

    def reader():
        while not stop.is_set():
            check(store.get(KEY))
            reads[0] += 1

    writers = [threading.Thread(target=writer) for _ in range(4)]
    watcher = threading.Thread(target=reader)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        watcher.start()
        for t in writers:
            t.start()
        for t in writers:
            t.join(timeout=60)
        stop.set()
        watcher.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in writers + [watcher])
    assert errors == []
    assert store.write_errors == 0
    assert store.corrupt == 0 and wrong == []
    # Five threads bumped ``hits``; a lost update would show here.
    assert store.hits == 4 * 100 + reads[0]
    # Every temp file was renamed into place: only the entry remains.
    assert [p.name for p in store.path_for(KEY).parent.iterdir()] == [
        KEY + store.suffix
    ]


def test_entry_bytes_match_the_established_encodings(tmp_path):
    """Stores keep the encodings earlier releases wrote, so caches
    filled before stay warm."""
    from repro.core.io import result_to_dict

    sweep = SweepCache(tmp_path / "s").put(KEY, _CURVE)
    assert sweep.read_bytes() == json.dumps(
        result_to_dict(_CURVE), separators=(",", ":")).encode()
    verdict = {"library": "mpich", "ok": True}
    path = VerdictCache(tmp_path / "v").put(KEY, verdict)
    assert path.read_bytes() == b'{"library":"mpich","ok":true}'
    assert path.parent.parent.name.startswith("repro-verify-v1-py")
    scenario = NAMESPACES["scenario"].value()
    path = ScenarioStore(tmp_path / "c").put(KEY, scenario)
    assert path.read_bytes() == (json.dumps(
        scenario.to_jsonable(), indent=2, sort_keys=True) + "\n").encode()


def test_indented_sweep_entries_still_hit(tmp_path):
    """Sweep entries written indented (as releases before the compact
    encoding did) decode to the same curve."""
    from repro.core.io import result_to_dict

    store = SweepCache(tmp_path)
    path = store.path_for(KEY)
    path.parent.mkdir(parents=True)
    path.write_text(json.dumps(result_to_dict(_CURVE), indent=2))
    assert store.get(KEY) == _CURVE
    assert store.hits == 1 and store.misses == 0


@pytest.mark.parametrize("points", [
    [{"size": 1}],                          # a point without its time
    [{"size": "one", "oneway_time": 1.0}],  # a size that is no number
    {"size": 1, "oneway_time": 1.0},        # points not a list
    17,
])
def test_wrong_shape_sweep_points_are_a_miss(tmp_path, points):
    from repro.core.io import result_to_dict

    store = SweepCache(tmp_path)
    path = store.path_for(KEY)
    path.parent.mkdir(parents=True)
    path.write_text(json.dumps({**result_to_dict(_CURVE), "points": points}))
    assert store.get(KEY) is None
    assert store.corrupt == 1 and store.misses == 1 and store.hits == 0


def test_ast_and_summary_entries_share_one_generation(tmp_path):
    asts, sums = AstCache(tmp_path), SummaryCache(tmp_path)
    assert asts.generation == sums.generation != tmp_path
    asts.put(KEY, ast.parse("x = 1\n"))
    sums.put(KEY, _summaries())
    assert sorted(p.name for p in asts.path_for(KEY).parent.iterdir()) == [
        KEY + ".ast", KEY + ".sum.json"
    ]
    # Each namespace counts only its own suffix.
    assert len(asts) == 1 and len(sums) == 1

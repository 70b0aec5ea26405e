"""Unit tests of the interprocedural layer itself.

The rule-family tests prove the async-*/fp-* verdicts; these prove the
machinery under them: call-graph resolution across packages, the
per-function summaries, the path-sensitive race walk's exemptions, and
the content-digest summary cache (a single-file edit re-summarizes
exactly that file).
"""

from pathlib import Path

import pytest

from repro.check import Project
from repro.check.dataflow import Dataflow
from repro.check.project import AstCache
from repro.check.rules.asyncsafety import is_blocking_primitive

pytestmark = pytest.mark.check


def _flow(source, module="repro.serve.fixture_flow"):
    project = Project.from_source(source, module=module, derive=False)
    return project.dataflow()


def _summary(source, qualname, module="repro.serve.fixture_flow"):
    flow = _flow(source, module=module)
    return flow.functions[(module, qualname)]


# -- call graph across packages -----------------------------------------------

def _write_tree(root: Path) -> Path:
    pkg = root / "repro"
    (pkg / "gamma").mkdir(parents=True)
    (pkg / "alpha.py").write_text(
        "import time\n"
        "def helper():\n"
        "    time.sleep(1)\n"
    )
    (pkg / "beta.py").write_text(
        "from repro.alpha import helper\n"
        "async def go():\n"
        "    helper()\n"
    )
    (pkg / "gamma" / "__init__.py").write_text("")
    (pkg / "gamma" / "deep.py").write_text(
        "from repro.beta import go\n"
        "class Runner:\n"
        "    def kick(self):\n"
        "        return self.prep()\n"
        "    def prep(self):\n"
        "        return go\n"
    )
    return root


def test_call_graph_resolves_across_packages(tmp_path):
    project = Project.from_paths([_write_tree(tmp_path)])
    flow = project.dataflow()

    go = flow.functions[("repro.beta", "go")]
    # The import map canonicalizes the bare call to its home module...
    assert [c[0] for c in go.calls] == ["repro.alpha.helper"]
    # ...and resolution lands on the actual summary in that module.
    callee = flow.resolve_call("repro.beta", go, "repro.alpha.helper")
    assert callee is not None
    assert (callee.module, callee.qualname) == ("repro.alpha", "helper")

    # self.method() resolves within the class, one package deeper.
    kick = flow.functions[("repro.gamma.deep", "Runner.kick")]
    prep = flow.resolve_call("repro.gamma.deep", kick, "self.prep")
    assert prep is not None and prep.qualname == "Runner.prep"


def test_transitive_blocking_closure(tmp_path):
    project = Project.from_paths([_write_tree(tmp_path)])
    flow = project.dataflow()
    helper = flow.functions[("repro.alpha", "helper")]
    hit = flow.first_blocking("repro.alpha", helper, is_blocking_primitive)
    assert hit == ("helper", "time.sleep")
    # A function with no blocking reach resolves to None (memoized).
    prep = flow.functions[("repro.gamma.deep", "Runner.prep")]
    assert (
        flow.first_blocking("repro.gamma.deep", prep, is_blocking_primitive)
        is None
    )


def test_unresolvable_calls_are_skipped_not_guessed():
    flow = _flow(
        "async def go(conn):\n"
        "    conn.send(1)\n"
        "    helper_nowhere()\n"
    )
    go = flow.functions[("repro.serve.fixture_flow", "go")]
    assert flow.resolve_call(
        "repro.serve.fixture_flow", go, "conn.send"
    ) is None
    assert flow.resolve_call(
        "repro.serve.fixture_flow", go, "helper_nowhere"
    ) is None


# -- summary contents ---------------------------------------------------------

def test_summary_records_awaits_writes_and_env():
    s = _summary(
        "import os\n"
        "class C:\n"
        "    async def m(self, q):\n"
        "        self.n = os.environ.get('X')\n"
        "        await q.get()\n",
        "C.m",
    )
    assert s.is_async and s.cls == "C"
    assert s.params == ("self", "q")
    assert s.awaits == (5,)
    assert ("n", 4) in s.attr_writes
    assert any(name.startswith("os.environ") for name, _, _ in s.env_reads)


def test_race_walk_flags_stale_read_modify_write():
    s = _summary(
        "class C:\n"
        "    async def bump(self):\n"
        "        seen = self.total\n"
        "        await self.pause()\n"
        "        self.total = seen + 1\n"
        "    async def pause(self):\n"
        "        pass\n",
        "C.bump",
    )
    assert len(s.races) == 1
    race = s.races[0]
    assert (race.attr, race.read_line, race.await_line, race.write_line) == (
        "total", 3, 4, 5
    )


def test_race_walk_exempts_return_paths_and_constant_writes():
    # The serve-core idioms: the probe branch returns before the
    # leader's write, and cleanup resets an awaited attribute to None.
    s = _summary(
        "class C:\n"
        "    async def answer(self, key, fut):\n"
        "        waiter = self.inflight.get(key)\n"
        "        if waiter is not None:\n"
        "            return await waiter\n"
        "        self.inflight[key] = fut\n"
        "    async def aclose(self):\n"
        "        if self.task is not None:\n"
        "            await self.task\n"
        "            self.task = None\n",
        "C.answer",
    )
    assert s.races == ()
    s2 = _summary(
        "class C:\n"
        "    async def aclose(self):\n"
        "        if self.task is not None:\n"
        "            await self.task\n"
        "            self.task = None\n",
        "C.aclose",
    )
    assert s2.races == ()


def test_cache_put_slices_track_key_value_and_control_roots():
    s = _summary(
        "def fp(config):\n"
        "    return ('v1', config)\n"
        "def warm(cache, config, tuning, mode):\n"
        "    value = (config, tuning)\n"
        "    if mode:\n"
        "        cache.put(fp(config), value)\n",
        "warm",
        module="repro.exec.fixture_flow",
    )
    (put,) = s.cache_puts
    assert put.recv == "cache" and put.method == "put"
    assert put.key_roots == ("config",)
    assert set(put.value_roots) == {"config", "tuning"}
    assert put.control_roots == ("mode",)


# -- summary cache ------------------------------------------------------------

def test_single_file_edit_resummarizes_only_that_module(tmp_path):
    src = _write_tree(tmp_path / "t")
    cache = AstCache(tmp_path / "cache")

    p1 = Project.from_paths([src], cache=cache)
    p1.dataflow()
    assert p1.stats.summaries_computed == p1.stats.files
    assert p1.stats.summaries_reused == 0

    p2 = Project.from_paths([src], cache=cache)
    p2.dataflow()
    assert p2.stats.summaries_computed == 0
    assert p2.stats.summaries_reused == p2.stats.files
    assert p2.changed_paths == set()

    edited = src / "repro" / "alpha.py"
    edited.write_text(edited.read_text() + "\n# touched\n")
    p3 = Project.from_paths([src], cache=cache)
    p3.dataflow()
    assert p3.changed_paths == {str(edited)}
    assert p3.stats.summaries_computed == 1
    assert p3.stats.summaries_reused == p3.stats.files - 1


def test_dataflow_is_memoized_per_project():
    project = Project.from_source(
        "def f():\n    return 1\n", module="repro.exec.x", derive=False
    )
    assert project.dataflow() is project.dataflow()
    assert isinstance(project.dataflow(), Dataflow)

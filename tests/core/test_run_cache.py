"""Content-addressed run cache: hits replay byte-identically, for free.

The contract under test (the ISSUE's acceptance criteria): a repeated
(scenario, variable assignment, seed) point is served from the cache
with *zero* simulator runs executed and a byte-identical artifact tree
— sequentially, under ``--jobs`` and under ``--agents`` alike — while
an empty ``POS_RUN_CACHE_DIR`` configures none, fault plans disable it, corrupt
entries degrade to misses, and the only trace a warm execution leaves
is the ``cache.jsonl`` evidence sidecar (the deterministic artifacts
must not know the cache exists).
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import shutil

import pytest

import repro.core.scheduler as _scheduler
from repro.cache import CODE_EPOCH, RunCache, _canonical
from repro.casestudy import run_case_study
from repro.cli.main import main as cli_main
from repro.core.scheduler import AttemptResult, RunOutcome
from repro.telemetry.criticalpath import analyze
from repro.telemetry.diff import load_side
from repro.telemetry.report import load_report
from tests.conftest import tree as tree_of

CLOCK = lambda: 1_600_000_000.0  # noqa: E731 - fixed clock => fixed tree paths

SWEEP = dict(
    rates=[100_000, 200_000],
    sizes=(64, 1500),
    duration_s=0.05,
    interval_s=0.02,
    clock=CLOCK,
)


#: A warm tree equals a cold one but for the evidence sidecars.
tree = functools.partial(tree_of, exclude=("cache.jsonl", "dispatch.jsonl"))


def find_result_dir(root):
    for dirpath, __, filenames in os.walk(root):
        if "journal.jsonl" in filenames:
            return dirpath
    raise AssertionError(f"no journal found under {root}")


def cache_events(root):
    path = os.path.join(find_result_dir(root), "cache.jsonl")
    if not os.path.isfile(path):
        return []
    with open(path, "r", encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


@pytest.fixture()
def counted_runs(monkeypatch):
    """Count (and still perform) every in-process run execution."""
    calls = []
    original = _scheduler.execute_run

    def counting(*args, **kwargs):
        calls.append(args[4])  # the run index
        return original(*args, **kwargs)

    monkeypatch.setattr(_scheduler, "execute_run", counting)
    # The controller module imported the scheduler module, not the
    # function, so patching the module attribute covers both callers.
    return calls


class CrashRequested(RuntimeError):
    """Simulated controller death: NOT a PosError, nothing handles it."""


def crashing_progress(after):
    def callback(done, total):
        if done >= after:
            raise CrashRequested(f"killed after {after} runs")

    return callback


# --------------------------------------------------------------------------
# the core contract: warm runs execute nothing, byte-identically
# --------------------------------------------------------------------------

class TestWarmReplay:
    def test_warm_run_executes_nothing_and_matches(
        self, tmp_path, monkeypatch, counted_runs,
    ):
        cache = tmp_path / "cache"
        monkeypatch.setenv("POS_RUN_CACHE_DIR", str(cache))
        run_case_study("pos", str(tmp_path / "cold"), **SWEEP)
        assert sorted(counted_runs) == [0, 1, 2, 3]
        counted_runs.clear()
        handle = run_case_study("pos", str(tmp_path / "warm"), **SWEEP)
        assert counted_runs == []  # zero simulator runs executed
        assert handle.completed_runs == 4
        assert tree(tmp_path / "warm") == tree(tmp_path / "cold")

    def test_cache_evidence_sidecar(self, tmp_path, monkeypatch):
        cache = tmp_path / "cache"
        monkeypatch.setenv("POS_RUN_CACHE_DIR", str(cache))
        run_case_study("pos", str(tmp_path / "cold"), **SWEEP)
        cold = cache_events(tmp_path / "cold")
        assert [e["event"] for e in cold if e["event"] == "cache.miss"]
        assert [e["event"] for e in cold if e["event"] == "cache.store"]
        run_case_study("pos", str(tmp_path / "warm"), **SWEEP)
        warm = cache_events(tmp_path / "warm")
        assert [e["event"] for e in warm] == ["cache.hit"] * 4

    def test_deterministic_artifacts_never_mention_the_cache(
        self, tmp_path, monkeypatch,
    ):
        # The byte-identity contract hinges on this: controller.log,
        # trace.jsonl and telemetry.json must be identical whether the
        # run executed or replayed, so no cache marker may leak there.
        cache = tmp_path / "cache"
        monkeypatch.setenv("POS_RUN_CACHE_DIR", str(cache))
        run_case_study("pos", str(tmp_path / "cold"), **SWEEP)
        monkeypatch.delenv("POS_RUN_CACHE_DIR")
        run_case_study("pos", str(tmp_path / "off"), **SWEEP)
        assert tree(tmp_path / "cold") == tree(tmp_path / "off")
        assert cache_events(tmp_path / "off") == []

    def test_warm_parallel_jobs_matches_cold_serial(
        self, tmp_path, monkeypatch, counted_runs,
    ):
        cache = tmp_path / "cache"
        monkeypatch.setenv("POS_RUN_CACHE_DIR", str(cache))
        run_case_study("pos", str(tmp_path / "cold"), jobs=1, **SWEEP)
        counted_runs.clear()
        handle = run_case_study("pos", str(tmp_path / "warm"), jobs=2, **SWEEP)
        assert counted_runs == []  # hits never reach a worker process
        assert handle.completed_runs == 4
        assert tree(tmp_path / "warm") == tree(tmp_path / "cold")

    def test_warm_distributed_agents_matches_cold_serial(
        self, tmp_path, monkeypatch, counted_runs,
    ):
        cache = tmp_path / "cache"
        monkeypatch.setenv("POS_RUN_CACHE_DIR", str(cache))
        run_case_study("vpos", str(tmp_path / "cold"), **SWEEP)
        counted_runs.clear()
        handle = run_case_study(
            "vpos", str(tmp_path / "warm"), agents=2, **SWEEP
        )
        assert counted_runs == []  # hits never reach an agent
        assert handle.completed_runs == 4
        assert tree(tmp_path / "warm") == tree(tmp_path / "cold")

    def test_cold_parallel_fills_cache_for_warm_serial(
        self, tmp_path, monkeypatch, counted_runs,
    ):
        cache = tmp_path / "cache"
        monkeypatch.setenv("POS_RUN_CACHE_DIR", str(cache))
        run_case_study("pos", str(tmp_path / "cold"), jobs=2, **SWEEP)
        counted_runs.clear()
        run_case_study("pos", str(tmp_path / "warm"), **SWEEP)
        assert counted_runs == []
        assert tree(tmp_path / "warm") == tree(tmp_path / "cold")


# --------------------------------------------------------------------------
# invalidation: anything that changes the run's inputs must miss
# --------------------------------------------------------------------------

class TestInvalidation:
    def test_kill_switch_disables_cache(
        self, tmp_path, monkeypatch, counted_runs,
    ):
        monkeypatch.setenv("POS_RUN_CACHE_DIR", str(tmp_path / "cache"))
        run_case_study("pos", str(tmp_path / "cold"), **SWEEP)
        counted_runs.clear()
        monkeypatch.setenv("POS_RUN_CACHE_DIR", "")
        run_case_study("pos", str(tmp_path / "again"), **SWEEP)
        assert sorted(counted_runs) == [0, 1, 2, 3]  # everything re-ran
        assert cache_events(tmp_path / "again") == []

    def test_different_seed_misses(self, tmp_path, monkeypatch, counted_runs):
        monkeypatch.setenv("POS_RUN_CACHE_DIR", str(tmp_path / "cache"))
        run_case_study("pos", str(tmp_path / "cold"), seed=1, **SWEEP)
        counted_runs.clear()
        run_case_study("pos", str(tmp_path / "other"), seed=2, **SWEEP)
        assert sorted(counted_runs) == [0, 1, 2, 3]

    def test_different_assignment_misses(
        self, tmp_path, monkeypatch, counted_runs,
    ):
        monkeypatch.setenv("POS_RUN_CACHE_DIR", str(tmp_path / "cache"))
        kwargs = dict(SWEEP)
        run_case_study("pos", str(tmp_path / "cold"), **kwargs)
        counted_runs.clear()
        kwargs["rates"] = [150_000, 250_000]
        run_case_study("pos", str(tmp_path / "other"), **kwargs)
        assert sorted(counted_runs) == [0, 1, 2, 3]

    def test_fault_plan_disables_cache(
        self, tmp_path, monkeypatch, counted_runs,
    ):
        from repro.faults.plan import FaultPlan, FaultSpec

        monkeypatch.setenv("POS_RUN_CACHE_DIR", str(tmp_path / "cache"))
        run_case_study("pos", str(tmp_path / "cold"), **SWEEP)
        counted_runs.clear()
        plan = FaultPlan([FaultSpec(kind="script", runs=(1,), times=1)], seed=5)
        run_case_study(
            "pos", str(tmp_path / "faulty"), fault_plan=plan,
            on_error="recover", **SWEEP,
        )
        assert sorted(set(counted_runs)) == [0, 1, 2, 3]
        assert cache_events(tmp_path / "faulty") == []

    def test_corrupt_entry_degrades_to_miss(
        self, tmp_path, monkeypatch, counted_runs,
    ):
        cache_dir = tmp_path / "cache"
        monkeypatch.setenv("POS_RUN_CACHE_DIR", str(cache_dir))
        run_case_study("pos", str(tmp_path / "cold"), **SWEEP)
        for entry in RunCache(str(cache_dir)).entries():
            with open(os.path.join(entry.path, "outcome.pkl"), "wb") as f:
                f.write(b"garbage")
        counted_runs.clear()
        run_case_study("pos", str(tmp_path / "warm"), **SWEEP)
        assert sorted(counted_runs) == [0, 1, 2, 3]
        assert tree(tmp_path / "warm") == tree(tmp_path / "cold")


# --------------------------------------------------------------------------
# resume interplay: journal adoption beats the cache, cache fills the rest
# --------------------------------------------------------------------------

class TestResumeInterplay:
    def test_crash_resume_fills_cache_then_warm_replays(
        self, tmp_path, monkeypatch, counted_runs,
    ):
        monkeypatch.setenv("POS_RUN_CACHE_DIR", str(tmp_path / "cache"))
        probed = []
        original_key = RunCache.key

        def counting_key(self, describe, index, loop_instance):
            probed.append(index)
            return original_key(self, describe, index, loop_instance)

        monkeypatch.setattr(RunCache, "key", counting_key)
        with pytest.raises(CrashRequested):
            run_case_study(
                "pos", str(tmp_path / "crashed"),
                progress=crashing_progress(2), **SWEEP,
            )
        executed_before_crash = list(counted_runs)
        result_dir = find_result_dir(str(tmp_path / "crashed"))
        counted_runs.clear()
        handle = run_case_study(
            "pos", str(tmp_path / "crashed"), resume_path=result_dir, **SWEEP,
        )
        assert handle.completed_runs == 4
        assert handle.resumed_runs == len(executed_before_crash)
        # Journal adoption beats the cache: resumed runs are not even
        # probed, only the remainder shows up as cache traffic.
        resumed = set(executed_before_crash)
        remainder = {0, 1, 2, 3} - resumed
        assert set(counted_runs) == remainder
        events = cache_events(tmp_path / "crashed")
        assert not any(e["event"] == "cache.hit" for e in events)
        stores = [e["run"] for e in events if e["event"] == "cache.store"]
        assert sorted(stores) == [0, 1, 2, 3]  # each run stored exactly once
        misses = [e["run"] for e in events if e["event"] == "cache.miss"]
        # Runs are probed when they are reached: the crashed execution
        # probed only the runs it delivered, the resume only the
        # remainder (journal-adopted runs never reach the cache again),
        # so each run was probed exactly once across the two.
        assert sorted(probed) == [0, 1, 2, 3]
        assert misses == [0, 1, 2, 3]
        # A fresh execution is now fully warm: zero runs executed.
        counted_runs.clear()
        run_case_study("pos", str(tmp_path / "warm"), **SWEEP)
        assert counted_runs == []
        warm = cache_events(tmp_path / "warm")
        assert [e["event"] for e in warm] == ["cache.hit"] * 4


# --------------------------------------------------------------------------
# the store itself
# --------------------------------------------------------------------------

def _ok_outcome(index=0, loop=None):
    return RunOutcome(
        index=index, loop_instance=loop or {"pkt_rate": 1},
        attempts=[AttemptResult(ok=True)],
    )


class TestRunCacheUnit:
    def test_key_is_canonical_and_scope_sensitive(self, tmp_path):
        a = RunCache(str(tmp_path), scope={"seed": 1})
        b = RunCache(str(tmp_path), scope={"seed": 1})
        c = RunCache(str(tmp_path), scope={"seed": 2})
        describe = {"roles": ["x"], "name": "exp"}
        assert a.key(describe, 0, {"r": 1}) == b.key(describe, 0, {"r": 1})
        assert a.key(describe, 0, {"r": 1}) != c.key(describe, 0, {"r": 1})
        assert a.key(describe, 0, {"r": 1}) != a.key(describe, 1, {"r": 1})
        assert a.key(describe, 0, {"r": 1}) != a.key(describe, 0, {"r": 2})

    def test_key_matches_whole_fingerprint_serialisation(self, tmp_path):
        # Keys splice memoised fragments; they must equal the digest of
        # the whole canonical fingerprint, or existing cache
        # directories would stop hitting.
        scope = {"code_epoch": CODE_EPOCH, "seed": 7,
                 "testbed": {"nodes": ["dut", "lg"], "mtu": 1500.5}}
        cache = RunCache(str(tmp_path), scope=scope)
        describe = {
            "name": "exp-ü→",
            "roles": [{"node": "dut", "params": {"z": None, "a": [1, 2.5]}}],
            "nested": {"b": {"y": True, "x": "Grüße"}, "a": []},
        }
        loops = [{}, {"pkt_rate": 100_000, "pkt_sz": 64},
                 {"pkt_sz": 1500, "pkt_rate": 2.5e5},
                 {"name": "naïve", "opts": {"b": [1, {"c": "é"}], "a": 0}}]
        for index, loop in enumerate(loops * 2):
            fingerprint = {"scope": cache.scope, "experiment": describe,
                           "index": index, "loop": dict(loop)}
            whole = hashlib.sha256(
                _canonical(fingerprint).encode("utf-8")
            ).hexdigest()
            assert cache.key(describe, index, loop) == whole
        # A different description object is serialised afresh.
        other = dict(describe, name="other")
        fingerprint = {"scope": cache.scope, "experiment": other,
                       "index": 0, "loop": {}}
        assert cache.key(other, 0, {}) == hashlib.sha256(
            _canonical(fingerprint).encode("utf-8")
        ).hexdigest()

    def test_store_lookup_roundtrip(self, tmp_path):
        cache = RunCache(str(tmp_path))
        key = cache.key({"name": "e"}, 3, {"r": 5})
        outcome = _ok_outcome(3, {"r": 5})
        assert cache.store(key, outcome)
        loaded = cache.lookup(key)
        assert loaded is not None
        assert loaded.index == 3
        assert loaded.loop_instance == {"r": 5}
        assert not cache.store(key, outcome)  # idempotent

    def test_only_boring_outcomes_are_storable(self, tmp_path):
        cache = RunCache(str(tmp_path))
        failed = RunOutcome(0, {}, attempts=[AttemptResult(ok=False)])
        retried = RunOutcome(
            0, {}, attempts=[AttemptResult(ok=False), AttemptResult(ok=True)]
        )
        faulted = RunOutcome(
            0, {}, attempts=[AttemptResult(ok=True)], fault_events=["boom"]
        )
        for outcome in (failed, retried, faulted):
            assert not cache.storable(outcome)
            assert not cache.store(cache.key({}, 0, {}), outcome)
        assert cache.storable(_ok_outcome())

    def test_verify_flags_corruption(self, tmp_path):
        cache = RunCache(str(tmp_path))
        good = cache.key({}, 0, {"r": 1})
        bad = cache.key({}, 1, {"r": 2})
        cache.store(good, _ok_outcome(0))
        cache.store(bad, _ok_outcome(1))
        with open(os.path.join(cache._entry_dir(bad), "outcome.pkl"), "ab") as f:
            f.write(b"tail")
        report = cache.verify()
        assert report["ok"] == [good] or report["ok"] == sorted([good])
        assert report["corrupt"] == [bad]
        assert cache.lookup(bad) is None  # corrupt = miss, never garbage

    def test_gc_removes_corrupt_and_stale_epochs(self, tmp_path):
        cache = RunCache(str(tmp_path))
        keep = cache.key({}, 0, {"r": 1})
        cache.store(keep, _ok_outcome(0))
        stale = RunCache(str(tmp_path), scope={"code_epoch": CODE_EPOCH - 1})
        old = stale.key({}, 1, {"r": 2})
        stale.store(old, _ok_outcome(1))
        result = cache.gc()
        assert keep in result["kept"]
        assert old in result["removed"]
        assert cache.lookup(old) is None

    def test_unpicklable_blob_is_a_miss(self, tmp_path):
        cache = RunCache(str(tmp_path))
        key = cache.key({}, 0, {})
        cache.store(key, _ok_outcome())
        # Replace the payload with a hash-consistent but unpicklable
        # blob: rewrite both the outcome and its manifest hash.
        import hashlib

        blob = b"\x80\x05not-a-pickle"
        entry_dir = cache._entry_dir(key)
        with open(os.path.join(entry_dir, "outcome.pkl"), "wb") as f:
            f.write(blob)
        manifest_path = os.path.join(entry_dir, "manifest.json")
        with open(manifest_path) as f:
            manifest = json.load(f)
        manifest["outcome_sha256"] = hashlib.sha256(blob).hexdigest()
        with open(manifest_path, "w") as f:
            json.dump(manifest, f)
        assert cache.lookup(key) is None


# --------------------------------------------------------------------------
# CLI and report surfaces
# --------------------------------------------------------------------------

class TestSurfaces:
    def test_cli_cache_ls_verify_gc(self, tmp_path, capsys, monkeypatch):
        cache_dir = tmp_path / "cache"
        monkeypatch.setenv("POS_RUN_CACHE_DIR", str(cache_dir))
        run_case_study("pos", str(tmp_path / "cold"), **SWEEP)
        assert cli_main(["cache", "ls", "--cache", str(cache_dir)]) == 0
        out = capsys.readouterr().out
        assert "4 cached run(s)" in out
        assert "pkt_rate=" in out
        assert cli_main(["cache", "verify", "--cache", str(cache_dir)]) == 0
        assert "4 ok, 0 corrupt" in capsys.readouterr().out
        # Corrupt one entry: verify fails, gc sweeps it.
        entry = next(iter(RunCache(str(cache_dir)).entries()))
        with open(os.path.join(entry.path, "outcome.pkl"), "wb") as f:
            f.write(b"junk")
        assert cli_main(["cache", "verify", "--cache", str(cache_dir)]) == 1
        assert cli_main(["cache", "gc", "--cache", str(cache_dir)]) == 0
        assert "1 removed, 3 kept" in capsys.readouterr().out

    def test_report_shows_cache_provenance(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("POS_RUN_CACHE_DIR", str(tmp_path / "cache"))
        run_case_study("pos", str(tmp_path / "cold"), **SWEEP)
        run_case_study("pos", str(tmp_path / "warm"), **SWEEP)
        warm_dir = find_result_dir(str(tmp_path / "warm"))
        assert cli_main(["report", "--results", warm_dir]) == 0
        out = capsys.readouterr().out
        assert "run cache: 4 hit(s), 0 miss(es)" in out
        assert "cache.hit" in out
        cold_dir = find_result_dir(str(tmp_path / "cold"))
        assert cli_main(["report", "--results", cold_dir]) == 0
        out = capsys.readouterr().out
        assert "4 miss(es)" in out and "4 store(s)" in out

    def test_every_reader_counts_cold_misses(self, tmp_path, monkeypatch):
        # pos trace, pos report and pos diff fold cache.jsonl the same
        # way: a cold sweep is one miss and one store per run.
        monkeypatch.setenv("POS_RUN_CACHE_DIR", str(tmp_path / "cache"))
        run_case_study("pos", str(tmp_path / "cold"), **SWEEP)
        cold_dir = find_result_dir(str(tmp_path / "cold"))
        cache = analyze(cold_dir)["cache"]
        assert (cache["hits"], cache["misses"], cache["stores"]) == (0, 4, 4)
        assert load_report(cold_dir)["cache"] == load_side(cold_dir)["cache"]

    def test_cache_sidecar_identical_under_jobs_and_agents(
        self, tmp_path, capsys,
    ):
        # The evidence sidecar must tell the same story, record for
        # record, no matter which execution plane served the sweep:
        # each run's probe evidence is written when the run is
        # delivered, in index order, directly before its store.
        full = str(tmp_path / "full")
        run_case_study("pos", str(tmp_path / "fill"), cache_dir=full, **SWEEP)

        def prefilled(name, keep):
            cache_dir = str(tmp_path / f"cache-{name}")
            shutil.copytree(full, cache_dir)
            for entry in RunCache(cache_dir).entries():
                if entry.manifest["index"] not in keep:
                    shutil.rmtree(entry.path)
            return cache_dir

        executors = {"serial": {}, "jobs": {"jobs": 2}, "agents": {"agents": 2}}
        expected = {
            "cold": [(event, run) for run in range(4)
                     for event in ("cache.miss", "cache.store")],
            "warm": [("cache.hit", run) for run in range(4)],
            "mixed": [("cache.hit", 0), ("cache.miss", 1), ("cache.store", 1),
                      ("cache.hit", 2), ("cache.miss", 3), ("cache.store", 3)],
        }
        for state, keep in (("cold", ()), ("warm", (0, 1, 2, 3)),
                            ("mixed", (0, 2))):
            sidecars = {}
            for name, kwargs in executors.items():
                root = tmp_path / f"{state}-{name}"
                run_case_study(
                    "pos", str(root),
                    cache_dir=prefilled(f"{state}-{name}", keep),
                    **kwargs, **SWEEP,
                )
                path = os.path.join(find_result_dir(str(root)), "cache.jsonl")
                with open(path, "rb") as handle:
                    sidecars[name] = handle.read()
            assert sidecars["jobs"] == sidecars["serial"], state
            assert sidecars["agents"] == sidecars["serial"], state
            events = cache_events(tmp_path / f"{state}-serial")
            assert [(e["event"], e["run"]) for e in events] == expected[state]

        for name in ("jobs", "agents"):
            warm_dir = find_result_dir(str(tmp_path / f"warm-{name}"))
            assert cli_main(["report", "--results", warm_dir]) == 0
            out = capsys.readouterr().out
            assert "run cache: 4 hit(s), 0 miss(es)" in out

    def test_first_result_costs_one_lookup(self, tmp_path, monkeypatch):
        # A warm sweep probes each run when it is reached: the first
        # run is delivered after one lookup, not after all of them.
        cache_dir = str(tmp_path / "cache")
        run_case_study("pos", str(tmp_path / "cold"), cache_dir=cache_dir,
                       **SWEEP)
        lookups = []
        original_lookup = RunCache.lookup

        def counting_lookup(self, key):
            lookups.append(key)
            return original_lookup(self, key)

        monkeypatch.setattr(RunCache, "lookup", counting_lookup)
        at_progress = []

        def progress(done, total):
            at_progress.append(len(lookups))

        run_case_study("pos", str(tmp_path / "warm"), cache_dir=cache_dir,
                       progress=progress, **SWEEP)
        assert at_progress[0] == 1
        assert len(lookups) == 4

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_corrupt_record_sits_before_its_miss(self, tmp_path, jobs):
        cache_dir = str(tmp_path / "cache")
        run_case_study("pos", str(tmp_path / "cold"), cache_dir=cache_dir,
                       **SWEEP)
        victim = next(
            entry for entry in RunCache(cache_dir).entries()
            if entry.manifest["index"] == 2
        )
        with open(os.path.join(victim.path, "outcome.pkl"), "wb") as f:
            f.write(b"garbage")
        run_case_study("pos", str(tmp_path / "warm"), cache_dir=cache_dir,
                       jobs=jobs, **SWEEP)
        events = cache_events(tmp_path / "warm")
        assert [(e["event"], e.get("run")) for e in events
                if e["event"] != "cache.store"] == [
            ("cache.hit", 0), ("cache.hit", 1), ("cache.corrupt", None),
            ("cache.miss", 2), ("cache.hit", 3),
        ]
        corrupt = next(
            position for position, event in enumerate(events)
            if event["event"] == "cache.corrupt"
        )
        miss = events[corrupt + 1]
        assert (miss["event"], miss["run"]) == ("cache.miss", 2)
        assert events[corrupt]["key"] == miss["key"] == victim.key
        # The corrupt entry was set aside, so the miss is stored afresh
        # and the next execution is served from the cache in full.
        store = events[corrupt + 2]
        assert (store["event"], store["run"]) == ("cache.store", 2)
        assert RunCache(cache_dir).verify() == {
            "ok": sorted(entry.key for entry in RunCache(cache_dir).entries()),
            "corrupt": [],
        }
        run_case_study("pos", str(tmp_path / "third"), cache_dir=cache_dir,
                       jobs=jobs, **SWEEP)
        assert [(e["event"], e["run"]) for e in cache_events(tmp_path / "third")] == [
            ("cache.hit", run) for run in range(4)
        ]

    def test_run_cli_cache_flag(self, tmp_path, capsys, counted_runs):
        cache_dir = str(tmp_path / "cache")
        args = [
            "run", "--platform", "pos", "--rates", "100000",
            "--sizes", "64", "--duration", "0.05", "--max-runs", "1",
            "--epoch", "1600000000", "--cache", cache_dir,
        ]
        assert cli_main(args + ["--results", str(tmp_path / "cold")]) == 0
        assert counted_runs == [0]
        counted_runs.clear()
        assert cli_main(args + ["--results", str(tmp_path / "warm")]) == 0
        assert counted_runs == []
        capsys.readouterr()
        assert tree(tmp_path / "warm") == tree(tmp_path / "cold")

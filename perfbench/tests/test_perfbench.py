"""The benchmark's own tests: tiny runs pass, tampering is caught.

Run from the repository root:  python -m pytest perfbench/tests -q
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import common  # noqa: E402
import ingest  # noqa: E402
import query  # noqa: E402
import recover  # noqa: E402
from common import CheckFailed, History  # noqa: E402

TINY = {
    "ingest": ingest.Sizes(docs=2, versions=3, group=1, setups=1),
    "query": query.Sizes(docs=3, versions=3, group=2, setups=1, rounds=1),
    "recover": recover.Sizes(dirs=2, docs=1, versions=3, group=1,
                             checkpoint_after=2, setups=1, probe_words=6),
}
MODULES = {"ingest": ingest, "query": query, "recover": recover}

with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
    SPEC = json.load(handle)
E2E = {m["name"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"] for m in SPEC["per_layer"]}


def run_tiny(workload, seed, tmp_path, trace=False):
    return MODULES[workload].run(seed, 0.3, trace, str(tmp_path),
                                 sizes=TINY[workload])


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("workload", sorted(MODULES))
def test_tiny_run_passes_every_check(workload, seed, tmp_path):
    result = run_tiny(workload, seed, tmp_path)
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == E2E
    assert all(value > 0 for value, _unit in result["metrics"].values())


@pytest.mark.parametrize("workload", sorted(MODULES))
def test_traced_run_names_only_declared_layers(workload, tmp_path):
    layers = run_tiny(workload, 1, tmp_path, trace=True)["layers"]
    assert set(layers) <= PER_LAYER


def test_ingest_layers_add_up_to_the_group_time(tmp_path):
    """The layers' self times, added up, match the group latency that the
    loop clocked apart from the tracer: no time lost, none counted twice."""
    layers = run_tiny("ingest", 1, tmp_path, trace=True)["layers"]
    per_group = {
        "xmlcore.parse_ms_per_commit", "diff.ms_per_commit",
        "repository.ms_per_commit", "fti.ms_per_commit",
        "lifetime.ms_per_commit", "journal.stage_ms_per_commit",
    }
    group = TINY["ingest"].group
    total = (sum(layers[k] for k in per_group) * group
             + layers["journal.write_ms_per_group"]
             + layers["journal.fsync_ms_per_group"]
             + layers["store.self_ms_per_group"]
             + layers["trace.unattributed_ms_per_group"]
             + layers["runtime.gc_pause_ms_per_op"])
    assert total == pytest.approx(layers["trace.group_ms"], rel=0.05)
    assert layers["journal.fsyncs_per_group"] == 1.0
    assert layers["trace.unattributed_ms_per_group"] < (
        0.05 * layers["trace.group_ms"])


def tampered(history):
    """The same history with one word changed in every version."""
    return History([
        common.Op(op.kind, op.name, op.version,
                  op.text.replace("w0001", "w0999"), op.ts)
        for op in history.ops
    ])


def test_ingest_check_catches_a_tampered_expectation(tmp_path):
    sizes = TINY["ingest"]
    ops = common.generate_ops(1, sizes.docs, sizes.versions)
    db = common.open_db(str(tmp_path / "db"))
    for group in common.groups_of(ops, sizes.group):
        common.commit_group(db, group)
    history = History(ops)
    ingest.verify(db, history)
    with pytest.raises(CheckFailed):
        ingest.verify(db, tampered(history))
    common.drop(db)


def test_query_checks_catch_a_tampered_expectation(tmp_path):
    sizes = TINY["query"]
    built = query.setup(1, sizes, str(tmp_path))
    honest = query.make_rounds(1, built, 1)[0]
    for q in honest:
        q.verify(q.run(built.db, query.TemporalKeywordScorer(built.db.fti)))
    liar = query.Built(built.db, tampered(built.history), built.path)
    caught = 0
    for q in query.make_rounds(1, liar, 1)[0]:
        try:
            q.verify(q.run(built.db, query.TemporalKeywordScorer(built.db.fti)))
        except CheckFailed:
            caught += 1
    assert caught > 0
    built.discard()


def test_recover_check_catches_a_tampered_expectation(tmp_path):
    sizes = TINY["recover"]
    built = recover.setup(1, sizes, str(tmp_path))
    db = common.open_db(built.paths[0])
    recover.check_report(db.recovery, sizes, built)
    recover.verify(db, built.histories[0], 1, sizes.probe_words)
    with pytest.raises(CheckFailed):
        recover.verify(db, tampered(built.histories[0]), 1,
                       sizes.probe_words)
    common.drop(db)


def test_a_failed_check_reports_the_operations_attempted(
        monkeypatch, capsys):
    import run

    def tampered_verify(db, history):
        raise CheckFailed("tampered expectation")

    monkeypatch.setattr(ingest, "Sizes", lambda: TINY["ingest"])
    monkeypatch.setattr(ingest, "verify", tampered_verify)
    monkeypatch.chdir(ROOT)
    code = run.main(["--workload", "ingest", "--seed", "1",
                     "--seconds", "0.3", "--trace", "0"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert result["correct"] is False and result["failed"] == 1
    assert result["attempted"] >= TINY["ingest"].min_groups


def test_percentile_refuses_a_tail_without_ten_samples_beyond():
    assert common.percentile(list(range(1, 101)), 0.9) == 90
    with pytest.raises(ValueError):
        common.percentile(list(range(1, 100)), 0.9)


def test_command_fails_without_program_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ingest",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert out.stdout.strip() == ""

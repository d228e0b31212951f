"""``ingest``: fsync-durable group-commit ingestion into a fresh directory.

One operation is one commit group.  A round commits the whole
pre-generated corpus into a fresh data directory; the closed loop runs
whole rounds back to back (the clock paused while a directory is
swapped) until the run length is reached.  Only the write path works here; the
query layers sit idle.
"""

from __future__ import annotations

import gc
import os
import time
from dataclasses import dataclass

from common import (
    Deadline,
    History,
    Tally,
    check,
    commit_group,
    dir_mb,
    drop,
    fresh_dir,
    generate_ops,
    end_to_end,
    groups_of,
    median_setup,
    open_db,
)
from layers import FsyncCounter, LayerTrace, per
from oracle import Oracle, canonical
from repro.xmlcore.serializer import serialize


@dataclass
class Sizes:
    docs: int = 32
    versions: int = 5
    group: int = 4
    setups: int = 3
    min_groups: int = 100


@dataclass
class Inputs:
    history: History
    groups: list

    def discard(self):
        pass


def setup(seed, sizes, workdir):
    """Generate and serialize the corpus; open (and close) a fresh
    directory, so set-up also covers creating an empty database."""
    ops = generate_ops(seed, sizes.docs, sizes.versions)
    path = fresh_dir(os.path.join(workdir, "setup"))
    drop(open_db(path))
    return Inputs(History(ops), groups_of(ops, sizes.group))


def run(seed, seconds, trace, workdir, sizes=None, tally=None):
    sizes = sizes or Sizes()
    tally = tally or Tally()
    inputs, setup_s = median_setup(
        lambda: setup(seed, sizes, workdir), sizes.setups
    )
    deadline = Deadline(seconds, min_samples=sizes.min_groups)
    layers = LayerTrace() if trace else None
    latencies = []
    rounds = 0
    elapsed = 0.0
    journal_bytes = 0
    fti_postings = 0
    with FsyncCounter() as fsyncs:
        while True:
            path = fresh_dir(os.path.join(workdir, "round"))
            fsyncs.count = 0
            db = open_db(path)
            opened_before = db.fti.stats.postings_opened
            if layers:
                layers.install()
            try:
                t_round = time.perf_counter()
                for group in inputs.groups:
                    tally.attempted += 1
                    t0 = time.perf_counter()
                    if layers:
                        with layers.span("group"):
                            commit_group(db, group)
                    else:
                        commit_group(db, group)
                    latencies.append(time.perf_counter() - t0)
                    if layers:
                        layers.collect()
                elapsed += time.perf_counter() - t_round
            finally:
                if layers:
                    layers.restore()
            groups = len(inputs.groups)
            check(fsyncs.count == groups + 1,
                  f"{fsyncs.count} fsyncs for {groups} commit groups "
                  "(expected one per group plus the journal header)")
            journal_bytes += db.journal.stats.bytes_written
            fti_postings += db.fti.stats.postings_opened - opened_before
            rounds += 1
            if deadline.done(elapsed, len(latencies)):
                break
            # Close and collect this round's database before the next.
            db.close()
            db = None
            gc.collect()
        disk = dir_mb(path)
        verify(db, inputs.history)
        drop(db)
    commits = rounds * len(inputs.history.ops)

    metrics = end_to_end(setup_s, commits / elapsed, latencies, disk)
    result = {"attempted": tally.attempted, "failed": 0, "metrics": metrics}
    if layers:
        result["layers"] = layer_metrics(
            layers, commits, latencies, journal_bytes, fti_postings
        )
    return result


def layer_metrics(layers, commits, latencies, journal_bytes, fti_postings):
    """Per-layer split of the traced groups.  ``trace.group_ms`` is the
    groups' mean latency as the loop clocked it, apart from the tracer, so
    the layer times can be checked against it."""
    ms = layers.self_ms
    groups = len(latencies)
    return {
        "xmlcore.parse_ms_per_commit": per(ms["xmlcore.parse"], commits),
        "diff.ms_per_commit": per(ms["diff"], commits),
        "diff.script_ops_per_commit": per(layers.script_ops, commits),
        "repository.ms_per_commit": per(ms["repository"], commits),
        "fti.ms_per_commit": per(ms["fti"], commits),
        "fti.postings_per_commit": per(fti_postings, commits),
        "lifetime.ms_per_commit": per(ms["lifetime"], commits),
        "journal.stage_ms_per_commit": per(ms["journal.stage"], commits),
        "journal.write_ms_per_group": per(ms["journal.write"], groups),
        "journal.fsync_ms_per_group": per(ms["journal.fsync"], groups),
        "journal.fsyncs_per_group": per(layers.calls["journal.fsync"],
                                        groups),
        "journal.bytes_per_commit": per(journal_bytes, commits),
        "store.self_ms_per_group": per(ms["store"], groups),
        "trace.group_ms": per(sum(latencies) * 1000.0, groups),
        "trace.unattributed_ms_per_group": per(ms["group"], groups),
        "runtime.gc_pause_ms_per_op": per(ms["runtime.gc"], groups),
        "runtime.gen2_collections": layers.gen2,
    }


def verify(db, history):
    """Every committed version reads back equal to the generated text."""
    oracle = Oracle(history)
    for name in history.names:
        for index, (ts, _text) in enumerate(history.versions[name]):
            tree = db.snapshot(name, ts)
            check(tree is not None, f"{name} v{index + 1} missing")
            check(canonical(serialize(tree)) == oracle.canonical_version(
                name, index), f"{name} v{index + 1} differs from its input")

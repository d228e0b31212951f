"""``recover``: repeated cold opens of durable data directories.

Set-up builds several small directories through the durable
group-commit path and checkpoints each partway, so each holds a
checkpoint, the rolled ``journal.bin.prev`` (every record of which the
checkpoint already covers) and a journal tail to replay.  Each operation
is one ``TemporalXMLDatabase.open``; a round opens every directory once,
and the previous database is closed, dropped and collected before each
timed open.  The directories are small so that a run holds the hundred
opens a p90 needs, and several so that the work per run does not hang on
the sizes a few generated documents happen to reach.
"""

from __future__ import annotations

import gc
import os
import random
import time
from collections import Counter
from dataclasses import dataclass

from common import (
    Deadline,
    History,
    Tally,
    TREE_SHAPE,
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
from ingest import verify as verify_versions
from layers import LayerTrace, per
from oracle import Oracle
from repro.workload import TDocGenerator


@dataclass
class Sizes:
    dirs: int = 8
    docs: int = 2  # per directory
    versions: int = 4
    group: int = 1
    checkpoint_after: int = 5  # commit groups before the checkpoint
    setups: int = 3
    probe_words: int = 24
    min_opens: int = 100


@dataclass
class Built:
    paths: list
    histories: list
    groups: int  # commit groups per directory

    def discard(self):
        pass


def setup(seed, sizes, workdir):
    """One corpus of ``dirs * docs`` documents, ``docs`` to a directory."""
    ops = generate_ops(seed, sizes.dirs * sizes.docs, sizes.versions)
    names = list(dict.fromkeys(op.name for op in ops))
    paths, histories = [], []
    for k in range(sizes.dirs):
        mine = set(names[k * sizes.docs:(k + 1) * sizes.docs])
        own = [op for op in ops if op.name in mine]
        path = fresh_dir(os.path.join(workdir, f"recover{k}"))
        db = open_db(path)
        groups = groups_of(own, sizes.group)
        for number, group in enumerate(groups, 1):
            commit_group(db, group)
            if number == sizes.checkpoint_after:
                db.checkpoint()
        drop(db)
        paths.append(path)
        histories.append(History(own))
    return Built(paths, histories, len(groups))


def run(seed, seconds, trace, workdir, sizes=None, tally=None):
    sizes = sizes or Sizes()
    tally = tally or Tally()
    built, setup_s = median_setup(
        lambda: setup(seed, sizes, workdir), sizes.setups
    )
    disk = sum(dir_mb(path) for path in built.paths)
    layers = LayerTrace() if trace else None
    deadline = Deadline(seconds, min_samples=sizes.min_opens)
    opens = []
    records = Counter()
    elapsed = 0.0
    first_round = True
    while not deadline.done(elapsed, len(opens)):
        for path, history in zip(built.paths, built.histories):
            tally.attempted += 1
            t0 = time.perf_counter()
            if layers:
                layers.install()
                try:
                    with layers.span("open"):
                        db = open_db(path)
                    layers.collect()
                finally:
                    layers.restore()
            else:
                db = open_db(path)
            opens.append(time.perf_counter() - t0)
            elapsed += opens[-1]
            report = db.recovery
            records["scanned"] += report.records_scanned
            records["skipped"] += report.records_skipped
            check_report(report, sizes, built)
            if first_round:
                verify(db, history, seed, sizes.probe_words)
            # Close and collect this database before the next timed open,
            # so no earlier store sits in the heap the collector walks.
            db.close()
            db = report = None
            gc.collect()
        first_round = False

    metrics = end_to_end(setup_s, len(opens) / elapsed, opens, disk)
    result = {"attempted": tally.attempted, "failed": 0, "metrics": metrics}
    if layers:
        result["layers"] = layer_metrics(layers, len(opens), records)
    return result


def layer_metrics(layers, opens, records):
    ms = layers.self_ms
    commits = layers.calls["fti"]  # commit events replayed into the FTI
    return {
        "persistence.checkpoint_load_ms": per(
            ms["persistence.checkpoint_load"], opens),
        "persistence.checksum_ms": per(ms["persistence.checksum"], opens),
        "persistence.index_rebuild_ms": per(
            ms["persistence.index_rebuild"], opens),
        "journal.scan_ms": per(ms["journal.scan"], opens),
        "journal.parse_ms": per(ms["journal.parse"], opens),
        "recover.replay_ms": per(ms["open"], opens),
        "recover.records_scanned": per(records["scanned"], opens),
        "recover.records_skipped": per(records["skipped"], opens),
        "xmlcore.parse_ms_per_commit": per(
            ms["xmlcore.parse"] + ms["journal.parse"], commits),
        "fti.ms_per_commit": per(ms["fti"], commits),
        "lifetime.ms_per_commit": per(ms["lifetime"], commits),
        "repository.ms_per_commit": per(ms["repository"], commits),
        "runtime.gc_pause_ms_per_op": per(ms["runtime.gc"], opens),
        "runtime.gen2_collections": layers.gen2,
    }


def check_report(report, sizes, built):
    """The directory's layout fixes what recovery must find: every
    ``.prev`` record is covered by the checkpoint, the tail is not."""
    tail = built.groups - sizes.checkpoint_after
    check(report.checkpoint_source == "checkpoint",
          f"recovered from {report.checkpoint_source!r}")
    check(report.records_scanned == built.groups
          and report.records_skipped == sizes.checkpoint_after
          and report.records_replayed == tail and not report.torn_tail,
          f"recovery scanned {report.records_scanned}, skipped "
          f"{report.records_skipped}, replayed {report.records_replayed}")


def verify(db, history, seed, probe_words):
    """Recovered versions equal the generated ones, and FTI lookups after
    recovery find exactly the oracle's word occurrences."""
    verify_versions(db, history)
    oracle = Oracle(history)
    rng = random.Random(seed)
    words = TDocGenerator(seed=seed, **TREE_SHAPE).vocab.words
    probes = rng.sample(words, probe_words // 2) + words[:probe_words // 2]
    instants = [op.ts + 1 for op in history.ops]
    for word in probes:
        ts = rng.choice(instants)
        got = Counter(db.store.name_of(p.doc_id)
                      for p in db.fti.lookup_t(word, ts))
        expected = Counter()
        for name in history.names:
            index = history.version_at(name, ts)
            if index is not None:
                count = oracle.word_counts(name, index)[word]
                if count:
                    expected[name] = count
        check(got == expected,
              f"FTI lookup_t({word!r}, {ts}) after recovery differs")

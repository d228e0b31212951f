"""Inputs, the oracle's copy of them, and measurement helpers.

Every workload draws its documents from TDocGen in the BENCH_scale tree
shape and keeps its own copy of each generated version text and commit
instant (:class:`History`).  The expected answers are computed from that
copy by :mod:`oracle`, never from the program's own state.
"""

from __future__ import annotations

import gc
import math
import os
import resource
import shutil
import statistics
import time
from dataclasses import dataclass

from repro import TemporalXMLDatabase
from repro.clock import SECONDS_PER_HOUR, parse_date
from repro.workload import TDocGenerator
from repro.xmlcore.serializer import serialize

#: First commit instant; commits follow one hour apart.
START = parse_date("01/01/2001")
HOUR = SECONDS_PER_HOUR

#: The BENCH_scale tree shape: ~200-250 elements per version, with the
#: insert/delete tilt that keeps trees from shrinking round over round.
TREE_SHAPE = {"fanout": (7, 9), "depth": 3, "p_insert": 0.065,
              "p_delete": 0.035}
FIRST_VERSION_ELEMENTS = 210
FIRST_VERSION_DRAWS = 8


class CheckFailed(AssertionError):
    """An output of the program disagrees with the oracle."""


class Tally:
    """Operations attempted so far, kept outside the workload's result so
    that a run that dies mid-operation can still report them."""

    def __init__(self):
        self.attempted = 0


def check(condition, message):
    if not condition:
        raise CheckFailed(message)


@dataclass(frozen=True)
class Op:
    """One staged commit: create or update ``name`` with ``text`` at ``ts``."""

    kind: str
    name: str
    version: int  # 1-based version number this commit produces
    text: str
    ts: int


class History:
    """The oracle's own copy of every generated version and its instant."""

    def __init__(self, ops):
        self.ops = list(ops)
        self.versions = {}  # name -> [(ts, text)] in version order
        for op in self.ops:
            self.versions.setdefault(op.name, []).append((op.ts, op.text))
        self.names = list(self.versions)
        self.now = self.ops[-1].ts

    def instants(self, name):
        return [ts for ts, _text in self.versions[name]]

    def version_at(self, name, ts):
        """0-based index of ``name``'s version valid at ``ts`` (or None)."""
        found = None
        for index, (commit_ts, _text) in enumerate(self.versions[name]):
            if commit_ts <= ts:
                found = index
            else:
                break
        return found

    def interval(self, name, index):
        """Validity ``(start, end)`` of a version; ``end`` None while open."""
        versions = self.versions[name]
        end = versions[index + 1][0] if index + 1 < len(versions) else None
        return versions[index][0], end


def generate_ops(seed, n_docs, versions):
    """Pre-generated, pre-serialized commits, interleaved round-robin.

    Document ``i`` gets version ``r`` at ``START + (r * n_docs + i)``
    hours, the way a warehouse receives updates.  Each document starts
    from the one of :data:`FIRST_VERSION_DRAWS` generated candidates whose
    size is nearest :data:`FIRST_VERSION_ELEMENTS`: the generator's sizes
    spread widely, and without this the work per run would depend more on
    the seed than on the program.  A fixed number of draws also keeps the
    generation time itself independent of the seed."""
    gen = TDocGenerator(seed=seed, **TREE_SHAPE)
    names = [f"doc{i}.xml" for i in range(1, n_docs + 1)]
    texts = {}
    for name in names:
        drafts = {f"{name}#{k}": gen.document(f"{name}#{k}")
                  for k in range(FIRST_VERSION_DRAWS)}
        chosen = min(drafts, key=lambda key: abs(
            sum(1 for _ in drafts[key].iter_elements())
            - FIRST_VERSION_ELEMENTS))
        trees = [drafts[chosen]] + [gen.evolve(chosen)
                                    for _ in range(versions - 1)]
        texts[name] = [serialize(tree) for tree in trees]
    ops = []
    for r in range(versions):
        for name in names:
            ops.append(Op("create" if r == 0 else "update", name, r + 1,
                          texts[name][r], START + len(ops) * HOUR))
    return ops


def commit_group(db, ops):
    """Stage ``ops`` and commit them as one group (one journal fsync)."""
    with db.batch() as batch:
        for op in ops:
            if op.kind == "create":
                batch.put(op.name, op.text, ts=op.ts)
            else:
                batch.update(op.name, op.text, ts=op.ts)


def groups_of(ops, size):
    return [ops[i:i + size] for i in range(0, len(ops), size)]


def open_db(directory):
    return TemporalXMLDatabase.open(directory, durability="fsync")


def fresh_dir(path):
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def dir_mb(path):
    total = 0
    for root, _dirs, files in os.walk(path):
        for name in files:
            total += os.path.getsize(os.path.join(root, name))
    return total / (1024 * 1024)


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def drop(db):
    """Close a database and collect it before the next timed step."""
    if db is not None:
        db.close()
    gc.collect()


def median_setup(build, times):
    """Run ``build`` ``times`` times; return (last result, median seconds).

    Each earlier result is closed and collected before the next build, so
    no two set-ups are alive at once."""
    durations = []
    result = None
    for _ in range(times):
        if result is not None:
            result.discard()
            result = None
            gc.collect()
        t0 = time.perf_counter()
        result = build()
        durations.append(time.perf_counter() - t0)
    return result, statistics.median(durations)


def percentile(values, fraction):
    """Nearest-rank percentile; refuses a tail with < 10 samples beyond."""
    ordered = sorted(values)
    rank = max(1, math.ceil(fraction * len(ordered)))
    if fraction > 0.5 and len(ordered) - rank < 10:
        raise ValueError(
            f"p{fraction * 100:g} needs 10 samples beyond it; "
            f"have {len(ordered)} samples"
        )
    return ordered[rank - 1]


def end_to_end(setup_s, throughput, latencies, disk):
    """Every end-to-end metric, in the same terms on every workload.

    ``throughput`` is the workload's unit of work per second (versions
    made durable, queries, opens); ``latencies`` are the seconds one
    operation took (a commit group, a query, an open); ``disk`` is the
    size of the data directory written or opened, in MiB."""
    lat_ms = [x * 1000.0 for x in latencies]
    return {
        "setup_s": (setup_s, "s"),
        "throughput_per_s": (throughput, "1/s"),
        "latency_p50_ms": (percentile(lat_ms, 0.5), "ms"),
        "latency_p90_ms": (percentile(lat_ms, 0.9), "ms"),
        "peak_rss_mb": (peak_rss_mb(), "MiB"),
        "disk_mb": (disk, "MiB"),
    }


class Deadline:
    """The closed loop's stop rule: run for ``seconds`` of timed work and
    until there are ``min_samples`` operations (so the reported tail has
    ten samples beyond it), but never past ``cap`` seconds: three times
    the run length, and at least 30 s past it."""

    def __init__(self, seconds, min_samples):
        self.seconds = seconds
        self.min_samples = min_samples
        self.cap = max(3 * seconds, seconds + 30)

    def done(self, elapsed, samples):
        if elapsed >= self.cap:
            if samples < self.min_samples:
                raise RuntimeError(
                    f"only {samples} operations after {elapsed:.0f}s; "
                    f"need {self.min_samples}"
                )
            return True
        return elapsed >= self.seconds and samples >= self.min_samples

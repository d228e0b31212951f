"""``query``: a read-only stream of TXQL and keyword queries.

Set-up builds a fixed history through the same durable group-commit
path as ``ingest``.  The stream is a sequence of rounds; each round holds
a fixed number of every query shape (so the shares are exact in every
run), with documents picked Zipf-skewed and instants biased toward
recent history.  The shapes:

* point queries: as-of snapshot path, PREVIOUS / CREATE TIME
  navigation, keyword instant search, current-value ``=`` lookup;
* scans: ``[EVERY]`` with a predicate, ``COUNT`` over all versions,
  ``COALESCE``, ``GROUP BY DAY``, keyword window search.

Every distinct query is executed once untimed, which warms its shape and
checks its answer against the oracle; timed executions must then return
the same number of rows.
"""

from __future__ import annotations

import os
import random
import time
from collections import Counter
import xml.etree.ElementTree as ET
from dataclasses import dataclass

from common import (
    HOUR,
    START,
    Deadline,
    History,
    Tally,
    TREE_SHAPE,
    check,
    commit_group,
    dir_mb,
    drop,
    end_to_end,
    fresh_dir,
    generate_ops,
    groups_of,
    median_setup,
    open_db,
)
from layers import LayerTrace, per
from oracle import Oracle, canonical, canonical_element, text_value, tokens
from repro.index.relevance import TemporalKeywordScorer
from repro.workload import TDocGenerator
from repro.xmlcore.serializer import serialize

#: Queries of each shape in one round of 50, in increasing typical
#: latency.  The counts put each percentile inside one band of latencies
#: rather than on the boundary between two: the keyword searches (under
#: 3 ms) take ranks 1-10, the as-of paths (0.5-2.5 ms) ranks 11-34, so
#: the p50 (rank 25) is an as-of path; the ``=`` and navigation queries
#: (1-8 ms) take ranks 35-40 and the scans (11-40 ms, their bands
#: overlapping) ranks 41-50, so the p90 (rank 45) is the middle scan.
ROUND = (("keyword", 4), ("window", 6), ("asof", 24), ("equal", 2),
         ("nav", 4), ("every", 2), ("coalesce", 2), ("group", 3),
         ("count", 3))

LIMIT = 10


@dataclass
class Sizes:
    docs: int = 16
    versions: int = 6
    group: int = 4
    setups: int = 3
    rounds: int = 10
    min_samples: int = 100


@dataclass
class Built:
    db: object
    history: History
    path: str

    def discard(self):
        drop(self.db)


@dataclass
class Query:
    shape: str
    run: object  # callable(db, scorer) -> result
    verify: object  # callable(result) -> None, raises CheckFailed
    rows: int = None  # row count the verified execution returned


def setup(seed, sizes, workdir):
    ops = generate_ops(seed, sizes.docs, sizes.versions)
    path = fresh_dir(os.path.join(workdir, "history"))
    db = open_db(path)
    for group in groups_of(ops, sizes.group):
        commit_group(db, group)
    return Built(db, History(ops), path)


class QueryMaker:
    """Seeded query parameters over the oracle's view of the history."""

    def __init__(self, seed, history, db):
        self.rng = random.Random(seed * 7919 + 17)
        self.history = history
        self.oracle = Oracle(history)
        self.db = db
        self.words = TDocGenerator(seed=seed, **TREE_SHAPE).vocab.words
        names = list(history.names)
        self.rng.shuffle(names)  # Zipf rank order
        self.tags = {e.tag for name in names
                     for index in self.oracle.version_indexes(name)
                     for e in self.oracle.descendants(name, index, "*")}
        # The first four ranks draw two thirds of the picks, so ranks go
        # by how near a document's size over all its versions lies to
        # the median (ties in the shuffled order): otherwise the queries'
        # cost hangs on how large a few random documents grew (from 850
        # to 1,440 elements across seeds).
        size = {name: sum(len(self.oracle.descendants(name, index, "*"))
                          for index in self.oracle.version_indexes(name))
                for name in names}
        median = sorted(size.values())[len(names) // 2]
        names.sort(key=lambda name: abs(size[name] - median))
        self.cycles = {}
        self.names = names
        self.weights = [1.0 / (rank ** 1.1)
                        for rank in range(1, len(names) + 1)]

    # -- parameter draws -------------------------------------------------------

    def doc(self):
        return self.rng.choices(self.names, self.weights)[0]

    def instant(self, shape, name=None):
        """A half-hour instant, biased toward recent history.

        The age is ``u**2`` of the history with ``u`` taken from the
        shape's own shuffled cycle of ten strata, so each shape meets old
        and recent versions in the same proportions in every run."""
        first = self.history.ops[0].ts
        if name is not None:
            first = self.history.instants(name)[0]
        hours = (self.history.now - first) // HOUR
        u = self._next(("age", shape), [(k + 0.5) / 10 for k in range(10)])
        return self.history.now - int(hours * u * u) * HOUR + HOUR // 2

    def terms(self):
        n = self.rng.randint(1, 3)
        size = len(self.words)
        return [self.words[min(size - 1, int(size ** self.rng.random()) - 1)]
                for _ in range(n)]

    def tag(self, shape):
        """The next tag of ``shape``'s own shuffled cycle over the tag pool.

        A scan's cost follows how common its tag is; cycling every shape
        through the whole pool keeps the mix of cheap and dear scans the
        same in every run, whatever the seed."""
        return self._next(("tag", shape), sorted(self.tags))

    def _next(self, key, pool):
        cycle = self.cycles.get(key)
        if not cycle:
            cycle = list(pool)
            self.rng.shuffle(cycle)
            self.cycles[key] = cycle
        return cycle.pop()

    def leaf(self, name, index, tag):
        """A text leaf of that version, with ``tag`` when it has one."""
        leaves = [e for e in self.oracle.descendants(name, index, "*")
                  if len(e) == 0 and text_value(e)]
        tagged = [e for e in leaves if e.tag == tag]
        return self.rng.choice(tagged or leaves)

    # -- shapes ----------------------------------------------------------------

    def make(self, shape):
        return Query(shape, *getattr(self, "_" + shape)())

    def _asof(self):
        name = self.doc()
        ts = self.instant("asof", name)
        root = self.oracle.root(name, self.history.version_at(name, ts))
        parent = self.rng.choice(list(root))
        steps = [parent.tag]
        if len(parent):
            steps.append(self.rng.choice(list(parent)).tag)
        text = (f'SELECT R FROM doc("{name}")[{when(ts)}]/'
                f'{"/".join(steps)} R')
        expected = sorted(self.oracle.select_path(name, ts, steps))

        def verify(result):
            # Index scans bind in XID order, not document order.
            got = sorted(canonical_element(r[0]) for r in ET.fromstring(
                result.to_xml_string(indent=None)))
            check(got == expected, f"as-of answer differs: {text}")
        return txql(text), verify

    def _nav(self):
        name = self.doc()
        ts = self.instant("nav", name)
        index = self.history.version_at(name, ts)
        # Prefer a tag that binds one element, so the navigation cost per
        # query does not swing with how many siblings share the tag.
        present = Counter(e.tag for e in self.oracle.root(name, index))
        tag = self.tag("nav")
        fewest = min(present.values())
        if present[tag] != fewest:
            tag = self.rng.choice(sorted(
                t for t in present if present[t] == fewest))
        text = (f'SELECT TIME(R), CREATE TIME(R), PREVIOUS(R) '
                f'FROM doc("{name}")[{when(ts)}]/{tag} R')
        expected = len(self.oracle.select_path(name, ts, [tag]))
        instants = self.history.instants(name)
        doc_id = self.db.store.doc_id(name)
        oracle = self.oracle

        def verify(result):
            check(len(result) == expected, f"row count differs: {text}")
            for row in result.rows:
                at = int(row["TIME(R)"])
                created = int(row["CREATE_TIME(R)"])
                check(at == instants[index], f"TIME(R) wrong: {text}")
                check(created in instants and created <= at,
                      f"CREATE TIME(R) not a commit instant <= TIME(R): "
                      f"{text}")
                prev = row["PREVIOUS(R)"]
                if prev is None:
                    continue
                prev_ts = prev.teid.timestamp
                check(prev.teid.doc_id == doc_id and prev_ts in instants
                      and prev_ts < at,
                      f"PREVIOUS(R) not in an earlier version: {text}")
                kept = {canonical_element(e) for e in oracle.descendants(
                    name, instants.index(prev_ts), tag)}
                check(canonical(serialize(prev.tree)) in kept,
                      f"PREVIOUS(R) is not an element of that version: "
                      f"{text}")
        return txql(text), verify

    def _equal(self):
        name = self.doc()
        last = len(self.history.versions[name]) - 1
        leaf = self.leaf(name, last, self.tag("equal"))
        value = text_value(leaf)
        text = (f'SELECT TIME(R) FROM doc("{name}")//{leaf.tag} R '
                f'WHERE R = "{value}"')
        expected = self.oracle.current_equal_count(name, leaf.tag, value)
        now = self.history.instants(name)[-1]

        def verify(result):
            check(len(result) == expected, f"row count differs: {text}")
            check(all(int(t) == now for t in result.scalars()),
                  f"TIME(R) is not the current version: {text}")
        return txql(text), verify

    def _every(self):
        name = self.doc()
        index = self.rng.randrange(len(self.history.versions[name]))
        leaf = self.leaf(name, index, self.tag("every"))
        value = text_value(leaf)
        text = (f'SELECT TIME(R), R FROM doc("{name}")[EVERY]//{leaf.tag} R '
                f'WHERE R = "{value}"')
        expected = self.oracle.every_equal(name, leaf.tag, value)

        def verify(result):
            got = sorted((int(row["TIME(R)"]), canonical(serialize(
                row["R"].tree))) for row in result.rows)
            check(got == expected, f"[EVERY] answer differs: {text}")
        return txql(text), verify

    def _count(self):
        tag = self.tag("count")
        text = f'SELECT COUNT(R) FROM doc("*.xml")[EVERY]//{tag} R'
        expected = self.oracle.count_every(tag)

        def verify(result):
            check(result.scalar() == expected, f"COUNT differs: {text}")
        return txql(text), verify

    def _coalesce(self):
        name = self.doc()
        tag = self.tag("coalesce")
        text = f'SELECT COALESCE R FROM doc("{name}")[EVERY]//{tag} R'
        expected = self.oracle.coalesced(name, tag)
        open_end = self.history.now + 1

        def verify(result):
            got = {}
            for row in result.rows:
                end = row["VALID"].end
                got.setdefault(canonical(serialize(row["R"].tree)), []).append(
                    (row["VALID"].start, None if end > open_end else end)
                )
            got = {k: sorted(v, key=lambda i: i[0]) for k, v in got.items()}
            check(got == expected, f"COALESCE answer differs: {text}")
        return txql(text), verify

    def _group(self):
        name = self.doc()
        tag = self.tag("group")
        text = (f'SELECT DAY(R), COUNT(R) FROM doc("{name}")[EVERY]//{tag} R '
                f'GROUP BY DAY(R)')
        expected = self.oracle.day_counts(name, tag)

        def verify(result):
            got = {int(row["DAY(R)"]): row["COUNT(R)"] for row in result.rows}
            check(got == expected, f"GROUP BY DAY answer differs: {text}")
        return txql(text), verify

    def _keyword(self):
        terms = self.terms()
        ts = self.instant("keyword")
        expected = self.oracle.docs_with_terms_at(unique_tokens(terms), ts)
        return (
            lambda db, scorer: scorer.search_t(terms, ts, limit=LIMIT),
            self._hits_check(expected, f"search_t({terms}, {ts})"),
        )

    def _window(self):
        terms = self.terms()
        start = self.instant("window")
        end = start + self.rng.randint(6, 36) * HOUR
        expected = self.oracle.docs_with_terms_during(
            unique_tokens(terms), start, end
        )
        return (
            lambda db, scorer: scorer.search_window(terms, start, end,
                                                    limit=LIMIT),
            self._hits_check(expected,
                             f"search_window({terms}, {start}, {end})"),
        )

    def _hits_check(self, expected, label):
        name_of = self.db.store.name_of

        def verify(hits):
            check(len(hits) == min(LIMIT, len(expected)),
                  f"{len(hits)} hits, expected "
                  f"{min(LIMIT, len(expected))}: {label}")
            for hit in hits:
                name = name_of(hit.doc_id)
                check(expected.get(name) == hit.matched_terms,
                      f"hit {name} does not hold its terms: {label}")
        return verify


def when(ts):
    """A TXQL instant: the first commit's date plus an offset."""
    return f"01/01/2001 + {(ts - START) // 60} MINUTES"


def txql(text):
    return lambda db, scorer: db.query(text)


def unique_tokens(terms):
    return list(dict.fromkeys(t for term in terms for t in tokens(term)))


def make_rounds(seed, built, count):
    maker = QueryMaker(seed, built.history, built.db)
    rounds = []
    for _ in range(count):
        queries = [maker.make(shape)
                   for shape, n in ROUND for _ in range(n)]
        maker.rng.shuffle(queries)
        rounds.append(queries)
    return rounds


def run(seed, seconds, trace, workdir, sizes=None, tally=None):
    sizes = sizes or Sizes()
    tally = tally or Tally()
    built, setup_s = median_setup(
        lambda: setup(seed, sizes, workdir), sizes.setups
    )
    db = built.db
    scorer = TemporalKeywordScorer(db.fti)
    rounds = make_rounds(seed, built, sizes.rounds)
    for queries in rounds:  # untimed warm-up, checked against the oracle
        for query in queries:
            result = query.run(db, scorer)
            query.verify(result)
            query.rows = len(result)

    layers = LayerTrace() if trace else None
    latencies = []
    counts = Counters()
    deadline = Deadline(seconds, min_samples=sizes.min_samples)
    elapsed = 0.0
    done = 0
    if layers:
        layers.install()
        layers.attach(db.engine)
    try:
        while not deadline.done(elapsed, len(latencies)):
            t_round = time.perf_counter()
            for query in rounds[done % len(rounds)]:
                tally.attempted += 1
                t0 = time.perf_counter()
                if layers:
                    before = db.fti.stats.postings_scanned
                    lookups = db.fti.stats.lookups
                    result = query.run(db, scorer)
                    layers.collect()
                    counts.add(query, result,
                               db.fti.stats.postings_scanned - before,
                               db.fti.stats.lookups - lookups)
                else:
                    result = query.run(db, scorer)
                latencies.append(time.perf_counter() - t0)
                check(len(result) == query.rows,
                      f"{query.shape} query returned {len(result)} rows, "
                      f"{query.rows} when checked")
            elapsed += time.perf_counter() - t_round
            done += 1
    finally:
        if layers:
            db.engine.detach_tracer()
            layers.restore()
    disk = dir_mb(built.path)
    built.discard()

    metrics = end_to_end(setup_s, len(latencies) / elapsed, latencies, disk)
    result = {"attempted": tally.attempted, "failed": 0, "metrics": metrics}
    if layers:
        result["layers"] = counts.metrics(layers, len(latencies))
    return result


class Counters:
    """Per-query registry deltas (``ResultSet.stats``) and FTI counters."""

    def __init__(self):
        self.txql = 0
        self.searches = 0
        self.txql_rows = 0
        self.results = 0
        self.lookups = 0
        self.scanned = 0
        self.search_scanned = 0
        self.delta_reads = 0
        self.probed = 0
        self.matches = 0

    def add(self, query, result, scanned, lookups):
        self.results += len(result)
        self.lookups += lookups
        self.scanned += scanned
        stats = getattr(result, "stats", None)
        if stats is None:  # a keyword search
            self.searches += 1
            self.search_scanned += scanned
            return
        self.txql += 1
        self.txql_rows += len(result)
        self.delta_reads += stats.get("store.delta_reads", 0)
        self.probed += stats.get("join.candidates_probed", 0)
        self.matches += stats.get("join.matches_emitted", 0)

    def metrics(self, layers, queries):
        ms = layers.self_ms
        q = self.txql
        return {
            "query.parse_ms": per(ms["query.parse"], q),
            "query.rewrite_ms": per(ms["query.rewrite"], q),
            "query.plan_ms": per(ms["query.plan"], q),
            "query.engine_ms": per(ms["query.engine"], q),
            "operators.scan_ms": per(ms["operators.scan"], q),
            "operators.lifetime_ms": per(ms["operators.lifetime"], q),
            "pattern.join_ms": per(ms["pattern.join"], q),
            "pattern.join_probed_per_match": per(self.probed, self.matches),
            "fti.lookup_ms": per(ms["fti.lookup"], queries),
            "fti.lookups_per_query": per(self.lookups, queries),
            "fti.postings_scanned_per_query": per(self.scanned, queries),
            "fti.postings_per_result": per(self.scanned, self.results),
            "repository.delta_reads_per_query": per(self.delta_reads, q),
            "repository.reconstruct_ms": per(ms["repository.reconstruct"], q),
            "relevance.ms_per_search": per(ms["relevance"], self.searches),
            "relevance.postings_per_search": per(self.search_scanned,
                                                 self.searches),
            "executor.filter_ms": per(ms["executor.filter"], q),
            "executor.aggregate_ms": per(ms["executor.aggregate"], q),
            "executor.project_ms": per(ms["executor.project"], q),
            "query.rows_examined_per_result": per(layers.rows_examined,
                                                  self.txql_rows),
            "runtime.gc_pause_ms_per_op": per(ms["runtime.gc"], queries),
            "runtime.gen2_collections": layers.gen2,
        }

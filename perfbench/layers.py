"""The traced run: per-layer self time, timed from outside the program.

:class:`LayerTrace` wraps each layer's public functions at the name its
caller looks them up by (``repro.storage.store.diff``, the journal's
``fs.fsync``, ``repro.storage.recover.load_store``, ...) in spans of one
:class:`repro.obs.Tracer`.  On the read path the same tracer is attached
to the query engine, so the engine's own operator spans and these
wrapper spans nest in one tree and every millisecond is charged to
exactly one layer (the tracer's exclusive attribution).  The plain run
installs none of this.
"""

from __future__ import annotations

import functools
import gc
import inspect
from collections import Counter

import repro.query.executor as executor_mod
import repro.storage.journal as journal_mod
import repro.storage.persistence as persistence_mod
import repro.storage.recover as recover_mod
import repro.storage.store as store_mod
from repro.index.fti import TemporalFullTextIndex
from repro.index.lifetime import LifetimeIndex
from repro.index.relevance import TemporalKeywordScorer
from repro.obs import MetricsRegistry, Tracer
from repro.storage.faults import REAL_FS
from repro.storage.journal import CommitJournal
from repro.storage.repository import Repository
from repro.storage.store import CommitBatch

_REPOSITORY_WRITE = ("create", "commit_initial", "commit_version",
                     "begin_group", "end_group", "mark_deleted")
_REPOSITORY_READ = ("reconstruct", "reconstruct_at", "read_current",
                    "derive_version", "reconstruct_range")

#: (owner, attribute, layer) for every wrapped function.
TARGETS = (
    [(store_mod, "parse", "xmlcore.parse"),
     (journal_mod, "parse", "journal.parse"),
     (persistence_mod, "parse", "xmlcore.parse"),
     (store_mod, "diff", "diff"),
     (TemporalFullTextIndex, "document_committed", "fti"),
     (LifetimeIndex, "document_committed", "lifetime"),
     (CommitJournal, "document_committed", "journal.stage"),
     (CommitJournal, "commit_group", "journal.write"),
     (REAL_FS, "fsync", "journal.fsync"),
     (CommitBatch, "commit", "store"),
     (CommitBatch, "put", "store"),
     (CommitBatch, "update", "store"),
     (recover_mod, "load_store", "persistence.checkpoint_load"),
     (persistence_mod, "document_checksum", "persistence.checksum"),
     (recover_mod, "replay_history", "persistence.index_rebuild"),
     (recover_mod, "scan_journal", "journal.scan"),
     (executor_mod, "parse_query", "query.parse"),
     (TemporalKeywordScorer, "search_t", "relevance"),
     (TemporalKeywordScorer, "search_window", "relevance")]
    + [(Repository, name, "repository") for name in _REPOSITORY_WRITE]
    + [(Repository, name, "repository.reconstruct")
       for name in _REPOSITORY_READ]
    + [(TemporalFullTextIndex, name, "fti.lookup")
       for name in ("lookup", "lookup_t", "lookup_h", "lookup_w")]
)

#: Query-engine span names -> layer.
ENGINE_SPANS = {
    "Query": "query.engine",
    "Rewrite": "query.rewrite",
    "Plan": "query.plan",
    "PatternScan": "operators.scan",
    "TPatternScan": "operators.scan",
    "TPatternScanAll": "operators.scan",
    "NavScan": "operators.scan",
    "StructuralJoin": "pattern.join",
    "FTILookup": "fti.lookup",
    "Reconstruct": "repository.reconstruct",
    "CreTime": "operators.lifetime",
    "DelTime": "operators.lifetime",
    "Filter": "executor.filter",
    "GroupBy": "executor.aggregate",
    "Aggregate": "executor.aggregate",
    "Coalesce": "executor.aggregate",
    "Project": "executor.project",
}

SCAN_SPANS = ("PatternScan", "TPatternScan", "TPatternScanAll", "NavScan")


class LayerTrace:
    """Installs the wrappers; accumulates self time and calls per layer.

    While installed it also hooks ``gc.callbacks``: each collector pause
    becomes a ``runtime.gc`` span, so the pause is not charged to the
    layer that happened to allocate when it struck, and generation-2
    collections are counted."""

    def __init__(self):
        self.tracer = Tracer()
        self.self_ms = Counter()
        self.calls = Counter()
        self.script_ops = 0
        self.rows_examined = 0
        self.gen2 = 0
        self._saved = []
        self._gc_span = None

    def install(self):
        for owner, name, layer in TARGETS:
            original = (owner.__dict__[name] if isinstance(owner, type)
                        else getattr(owner, name))
            self._saved.append((owner, name, owner.__dict__.get(name)))
            setattr(owner, name, self._wrap(original, layer))
        gc.callbacks.append(self._on_gc)
        return self

    def restore(self):
        gc.callbacks.remove(self._on_gc)
        for owner, name, original in reversed(self._saved):
            if original is None:
                delattr(owner, name)
            else:
                setattr(owner, name, original)
        self._saved = []

    def _on_gc(self, phase, info):
        if phase == "start":
            self._gc_span = self.tracer.span("runtime.gc")
            self._gc_span.__enter__()
        elif self._gc_span is not None:
            self._gc_span.__exit__(None, None, None)
            self._gc_span = None
            if info["generation"] == 2:
                self.gen2 += 1

    def _wrap(self, fn, layer):
        tracer = self.tracer
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def generator(*args, **kwargs):
                return tracer.traced_iter(layer, fn(*args, **kwargs))
            return generator
        counts_ops = layer == "diff"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with tracer.span(layer):
                result = fn(*args, **kwargs)
            if counts_ops:
                self.script_ops += len(result)
            return result
        return wrapper

    def attach(self, engine):
        """Put the engine's operator spans into the same span tree.

        The tracer keeps an empty registry, so a span step costs two clock
        reads rather than two snapshots of every engine counter; the
        per-query counters come from ``ResultSet.stats`` instead."""
        engine.attach_tracer(self.tracer)
        self.tracer.registry = MetricsRegistry()

    def span(self, name):
        """A benchmark-side region (a commit group, an open)."""
        return self.tracer.span(name)

    def collect(self):
        """Fold the finished spans into the per-layer totals."""
        for root in self.tracer.roots:
            for span in root.walk():
                layer = ENGINE_SPANS.get(span.name, span.name)
                self.self_ms[layer] += span.wall_ms
                self.calls[layer] += 1
                if span.name in SCAN_SPANS:
                    self.rows_examined += span.rows or 0
        self.tracer.reset()


class FsyncCounter:
    """Counts the journal's ``fs.fsync`` calls (plain and traced runs)."""

    def __init__(self):
        self.count = 0
        self._original = None

    def __enter__(self):
        original = REAL_FS.fsync
        self._original = REAL_FS.__dict__.get("fsync")

        def counted(handle):
            self.count += 1
            return original(handle)

        REAL_FS.fsync = counted
        return self

    def __exit__(self, *exc):
        if self._original is None:
            del REAL_FS.fsync
        else:
            REAL_FS.fsync = self._original
        return False


def per(total, count):
    return total / count if count else 0.0

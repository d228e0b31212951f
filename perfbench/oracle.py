"""Expected answers from the benchmark's own copy of the inputs.

Everything here parses the generated version texts with the standard
library's ``xml.etree.ElementTree`` and tokenizes with its own rule, so
no expectation depends on ``repro.xmlcore`` or the program's indexes.
"""

from __future__ import annotations

import re
import xml.etree.ElementTree as ET
from collections import Counter

DAY = 86400

_WORD = re.compile(r"[^\s!\"#$%&'()*+,./:;<=>?@\[\\\]^`{|}~-]+")


def tokens(text):
    """Lowercase words; punctuation, hyphens and whitespace break them."""
    return _WORD.findall(text.lower())


def canonical(xml_text):
    """C14N form of an XML text (attribute order and quoting normalized)."""
    return ET.canonicalize(xml_data=xml_text)


def canonical_element(element):
    return canonical(ET.tostring(element, encoding="unicode"))


def text_value(element):
    """The scalar an element compares as under ``=``: its stripped text."""
    return "".join(element.itertext()).strip()


class Oracle:
    """Expected answers over a :class:`~common.History`."""

    def __init__(self, history):
        self.history = history
        self._roots = {}
        self._words = {}

    # -- versions --------------------------------------------------------------

    def root(self, name, index):
        key = (name, index)
        root = self._roots.get(key)
        if root is None:
            root = ET.fromstring(self.history.versions[name][index][1])
            self._roots[key] = root
        return root

    def canonical_version(self, name, index):
        return canonical(self.history.versions[name][index][1])

    def version_indexes(self, name):
        return range(len(self.history.versions[name]))

    # -- words (what a full-text index must hold) ---------------------------

    def word_counts(self, name, index):
        """Occurrences per word: tag names, attribute values and text,
        counted at the element that holds them."""
        key = (name, index)
        counts = self._words.get(key)
        if counts is None:
            counts = Counter()
            for element in self.root(name, index).iter():
                counts.update(tokens(element.tag))
                for value in element.attrib.values():
                    counts.update(tokens(value))
                if element.text:
                    counts.update(tokens(element.text))
                for child in element:
                    if child.tail:
                        counts.update(tokens(child.tail))
            self._words[key] = counts
        return counts

    def docs_with_terms_at(self, terms, ts):
        """name -> number of distinct ``terms`` present at instant ``ts``."""
        out = {}
        for name in self.history.names:
            index = self.history.version_at(name, ts)
            if index is None:
                continue
            held = sum(1 for t in terms if self.word_counts(name, index)[t])
            if held:
                out[name] = held
        return out

    def docs_with_terms_during(self, terms, start, end):
        """Like :meth:`docs_with_terms_at`, over versions overlapping
        ``[start, end)``."""
        out = {}
        for name in self.history.names:
            held = set()
            for index in self.version_indexes(name):
                v_start, v_end = self.history.interval(name, index)
                if v_start >= end or (v_end is not None and v_end <= start):
                    continue
                counts = self.word_counts(name, index)
                held.update(t for t in terms if counts[t])
            if held:
                out[name] = len(held)
        return out

    # -- TXQL expectations ---------------------------------------------------

    def select_path(self, name, ts, steps):
        """Canonical elements at child path ``steps`` below the root of
        ``name``'s version valid at ``ts``, in document order."""
        index = self.history.version_at(name, ts)
        if index is None:
            return []
        return [canonical_element(e)
                for e in self.root(name, index).findall("/".join(steps))]

    def descendants(self, name, index, tag):
        root = self.root(name, index)
        return [e for e in root.iter(tag) if e is not root]

    def every_equal(self, name, tag, value):
        """Sorted ``(version instant, canonical element)`` rows of
        ``[EVERY]//tag R WHERE R = value``."""
        rows = []
        for index in self.version_indexes(name):
            ts = self.history.versions[name][index][0]
            for element in self.descendants(name, index, tag):
                if text_value(element) == value:
                    rows.append((ts, canonical_element(element)))
        return sorted(rows)

    def current_equal_count(self, name, tag, value):
        index = len(self.history.versions[name]) - 1
        return sum(1 for e in self.descendants(name, index, tag)
                   if text_value(e) == value)

    def count_every(self, tag):
        """``COUNT(R)`` over ``doc("*.xml")[EVERY]//tag R``."""
        return sum(
            len(self.descendants(name, index, tag))
            for name in self.history.names
            for index in self.version_indexes(name)
        )

    def coalesced(self, name, tag):
        """canonical element -> maximal validity intervals (``end`` None
        while open) over ``[EVERY]//tag``."""
        spans = {}
        for index in self.version_indexes(name):
            interval = self.history.interval(name, index)
            for element in self.descendants(name, index, tag):
                spans.setdefault(canonical_element(element), []).append(
                    interval
                )
        return {key: _merge(intervals) for key, intervals in spans.items()}

    def day_counts(self, name, tag):
        """Day bucket start -> ``COUNT(R)`` for ``GROUP BY DAY(R)``; open
        intervals end just after the last commit (``NOW``)."""
        counts = Counter()
        clip = self.history.now + 1
        for index in self.version_indexes(name):
            start, end = self.history.interval(name, index)
            end = clip if end is None else min(end, clip)
            hits = len(self.descendants(name, index, tag))
            if not hits:
                continue
            day = start - start % DAY
            while day < end:
                counts[day] += hits
                day += DAY
        return dict(counts)


def _merge(intervals):
    merged = []
    for start, end in sorted(intervals, key=lambda i: i[0]):
        if merged and (merged[-1][1] is None or start <= merged[-1][1]):
            last_start, last_end = merged[-1]
            if last_end is not None and (end is None or end > last_end):
                merged[-1] = (last_start, end)
        else:
            merged.append((start, end))
    return merged

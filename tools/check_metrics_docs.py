#!/usr/bin/env python3
"""Lint: keep the metrics surface and docs/METRICS.md in lockstep.

Checks, failing CI on the first violation:

1. Every counter of the `RSJ_STATISTICS_COUNTERS` list
   (src/storage/statistics.h) has a backticked entry in docs/METRICS.md.
   The struct fields, merge, dump and descriptor table all expand from
   that list, so it is the only place counter names are read from.
2. Every `MemoryGovernor` category name (src/engine/memory_governor.cc)
   has a backticked entry in docs/METRICS.md.
3. Reverse direction: every backticked identifier in the first column of
   a docs/METRICS.md table exists somewhere under src/ — documentation
   cannot name counters that no longer exist.

Run from anywhere: paths resolve relative to the repository root.
"""

import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
STATISTICS_H = REPO / "src" / "storage" / "statistics.h"
GOVERNOR_CC = REPO / "src" / "engine" / "memory_governor.cc"
METRICS_MD = REPO / "docs" / "METRICS.md"

IDENT = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")


def statistics_counters():
    """Counter names of the RSJ_STATISTICS_COUNTERS X-macro list."""
    text = STATISTICS_H.read_text()
    macro = re.search(
        r"#define RSJ_STATISTICS_COUNTERS\(X\)(.*?)(?<!\\)\n", text,
        re.DOTALL)
    if not macro:
        sys.exit(f"{STATISTICS_H}: cannot find RSJ_STATISTICS_COUNTERS")
    return re.findall(
        r"X\(\s*(?:uint64_t|ComparisonCounter)\s*,\s*(\w+)\s*,",
        macro.group(1))


def governor_categories():
    """The MemoryCategoryName strings."""
    text = GOVERNOR_CC.read_text()
    fn = re.search(r"MemoryCategoryName\(.*?\n\}", text, re.DOTALL)
    if not fn:
        sys.exit(f"{GOVERNOR_CC}: cannot find MemoryCategoryName")
    names = re.findall(r'return "(\w+)";', fn.group(0))
    return [n for n in names if n != "unknown"]


def doc_backticked_tokens(markdown):
    """All backticked identifier-like tokens anywhere in the doc."""
    return {
        token
        for token in re.findall(r"`([^`]+)`", markdown)
        if IDENT.match(token)
    }


def doc_first_column_tokens(markdown):
    """Backticked identifiers in the first column of any table row."""
    tokens = set()
    for line in markdown.splitlines():
        if not line.startswith("|"):
            continue
        first = line.split("|")[1]
        for token in re.findall(r"`([^`]+)`", first):
            if IDENT.match(token):
                tokens.add(token)
    return tokens


def src_identifiers():
    """Every identifier appearing in any src/ source file."""
    idents = set()
    for path in (REPO / "src").rglob("*"):
        if path.suffix in (".h", ".cc"):
            idents.update(re.findall(r"[A-Za-z_][A-Za-z0-9_]*",
                                     path.read_text()))
    return idents


def main():
    failures = []
    counters = statistics_counters()
    if len(counters) < 20:
        failures.append(
            f"parsed only {len(counters)} Statistics counters — parser "
            f"broken?")
    # Fenced code blocks would break inline-backtick pairing; drop them.
    markdown = re.sub(r"```.*?```", "", METRICS_MD.read_text(),
                      flags=re.DOTALL)
    documented = doc_backticked_tokens(markdown)

    # 1. Statistics counters documented.
    for counter in counters:
        if counter not in documented:
            failures.append(
                f"Statistics counter `{counter}` has no backticked entry in "
                f"docs/METRICS.md")

    # 2. Governor categories documented.
    categories = governor_categories()
    if len(categories) != 5:
        failures.append(
            f"parsed {len(categories)} governor categories, expected 5")
    for category in categories:
        if category not in documented:
            failures.append(
                f"MemoryGovernor category `{category}` has no backticked "
                f"entry in docs/METRICS.md")

    # 3. Documented first-column names still exist in the source.
    known = src_identifiers()
    for token in sorted(doc_first_column_tokens(markdown)):
        if token not in known:
            failures.append(
                f"docs/METRICS.md documents `{token}` but it appears "
                f"nowhere under src/")

    if failures:
        for failure in failures:
            print(f"check_metrics_docs: {failure}")
        return 1
    print(
        f"check_metrics_docs: OK ({len(counters)} Statistics counters, "
        f"{len(categories)} governor categories)")
    return 0


if __name__ == "__main__":
    sys.exit(main())

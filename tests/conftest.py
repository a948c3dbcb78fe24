import pathlib
import sys
from collections import Counter

import pytest

sys.path.insert(0, str(pathlib.Path(__file__).parent))

from pisotile import (
    Substitution,
    TilingSystem,
    compute_level_n,
    group_G,
    multiple_strong_coincidence,
    overlap,
    overlap_coincidence,
    stable_overlap_graph,
)

CORPUS_RULES = {
    "fibonacci": (2, ((1, 2), (1,))),
    "thue_morse": (2, ((1, 2), (2, 1))),
    "period_doubling": (2, ((1, 2), (1, 1))),
    "tribonacci": (3, ((1, 2), (1, 3), (1,))),
    "s112": (2, ((1, 1, 2), (1, 2))),
}

# The cubic-closure inputs of the benchmark.
CUBIC_RULES = {
    "1->2,2->3,3->12": (3, ((2,), (3,), (1, 2))),
    "1->13,2->1,3->2": (3, ((1, 3), (1,), (2,))),
    "1->231,2->323,3->13": (3, ((2, 3, 1), (3, 2, 3), (1, 3))),
}

_cache: dict[str, dict] = {}


def _run_pipeline(name: str) -> dict:
    """The pipeline of ``analyze``; "inflations" counts the inflations of
    each overlap class key during the run."""
    if name not in _cache:
        m, rules = CORPUS_RULES[name]
        system = TilingSystem(Substitution(m, rules))
        inflations = Counter()
        inflate = overlap.OverlapClosure._inflate

        def counting(closure, key):
            inflations[key] += 1
            return inflate(closure, key)

        overlap.OverlapClosure._inflate = counting
        try:
            graph, radius = stable_overlap_graph(system)
            oc, cert = overlap_coincidence(graph)
            n = compute_level_n(graph)
            group = group_G(system)
            msc = multiple_strong_coincidence(system, n, group=group)
        finally:
            overlap.OverlapClosure._inflate = inflate
        _cache[name] = {
            "system": system,
            "graph": graph,
            "radius": radius,
            "oc": oc,
            "cert": cert,
            "n": n,
            "group": group,
            "msc": msc,
            "inflations": inflations,
        }
    return _cache[name]


@pytest.fixture(scope="session")
def pipeline():
    """Cached full pipeline per corpus substitution (the slow computations
    run once per test session)."""
    return _run_pipeline


def pytest_terminal_summary(terminalreporter):
    try:
        import test_acceptance
    except ImportError:
        return
    lines = getattr(test_acceptance, "CRITERION_LINES", [])
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in sorted(lines):
            terminalreporter.write_line(line)

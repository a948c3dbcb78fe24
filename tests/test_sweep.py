"""A seeded differential sweep: ``pisotile analyze`` in process on generated
2-3 letter inputs, against the independent oracles of oracles.py and the
brute-force references for the stuck part of the overlap graph and n0."""

import json
import random
import signal
from collections import Counter
from itertools import islice

from oracles import (
    balanced_pair_coincidence,
    closed_walk_level,
    column_check_applies,
    first_letter_cycle_ok,
    is_unimodular,
    random_substitutions,
    stuck_reference,
)
from pisotile import Substitution, cli, dekking_column_check
from pisotile.cli import main

SEED, COUNT = 4, 90
# Some inputs of this shape take seconds to seed (radius doubling); past
# this wall time an input counts as undecided.
LIMIT_S = 0.25


class _TimeLimit(BaseException):
    """Raised by the alarm; no handler of the library catches it."""


def _expire(signum, frame):
    raise _TimeLimit


def _text(m, rules) -> str:
    return json.dumps({"alphabet": [str(a) for a in range(1, m + 1)],
                       "rules": {str(a): [str(b) for b in w] for a, w in enumerate(rules, 1)}})


def test_analyze_sweep_agrees_with_oracles(monkeypatch, capsys):
    # Each input exits 0, 2 or 3 (never 1, the verdict mismatch, and never
    # a traceback).  On exit 0 the verdict matches the column check where
    # it applies, and else the balanced-pair oracle on unimodular inputs it
    # can seed; the graph's stuck components and n0 match brute force.
    graphs = []
    build = cli.stable_overlap_graph

    def recording(*args, **kwargs):
        out = build(*args, **kwargs)
        graphs.append(out[0])
        return out

    monkeypatch.setattr(cli, "stable_overlap_graph", recording)
    outcomes = Counter()
    previous = signal.signal(signal.SIGALRM, _expire)
    try:
        for m, rules in islice(random_substitutions(random.Random(SEED)), COUNT):
            graphs.clear()
            signal.setitimer(signal.ITIMER_REAL, LIMIT_S)
            try:
                rc = main(["analyze", _text(m, rules)])
            except _TimeLimit:
                rc = "undecided"
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            out = capsys.readouterr().out
            outcomes[rc] += 1
            assert rc in (0, 2, 3, "undecided"), rules
            if rc != 0:
                continue
            report = json.loads(out)
            oc = report["overlap"]["verdict"]
            outcomes["oc false"] += not oc
            g = graphs[-1]
            assert {tuple(comp): mat for comp, mat in g.stuck} == stuck_reference(g), rules
            assert report["msc"]["level"] == closed_walk_level(g), rules
            if column_check_applies(m, rules):
                assert oc == dekking_column_check(Substitution(m, rules)), rules
                outcomes["column check"] += 1
            elif is_unimodular(m, rules) and first_letter_cycle_ok(m, rules):
                try:
                    reference = balanced_pair_coincidence(m, [list(w) for w in rules])
                except RuntimeError:  # the oracle's caps: it abstains
                    continue
                assert oc == reference, rules
                outcomes["balanced pair"] += 1
    finally:
        signal.signal(signal.SIGALRM, previous)
    assert outcomes[0] >= 40 and outcomes["oc false"] >= 8, outcomes
    assert outcomes["column check"] >= 20 and outcomes["balanced pair"] >= 5, outcomes

"""Acceptance gate: one test (and one printed pass/fail line) per criterion.

All verdict checks are exact (no numerical tolerance); the only tolerances
are the stated runtime budgets (< 5 s) for criteria 1 and 2, and the
100-digit working precision used by the independent numerical sign oracle in
criterion 7 (the library side of that comparison is exact).
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction

import mpmath
import pytest

from oracles import (
    balanced_pair_coincidence,
    canonical_cycle,
    field_tiles,
    functional_cycles,
    inflate_tiles,
    tile_map_targets,
    word_strong_coincidence_all,
)
from pisotile import (
    NumberField,
    Patch,
    Substitution,
    TileMap,
    TilingSystem,
    compute_level_n,
    cycle_extension,
    dekking_column_check,
    extract_witness,
    group_G,
    multiple_strong_coincidence,
    overlap_coincidence,
    seed_overlaps,
    solve_control_points,
    stable_overlap_graph,
    strong_coincidence,
    stuck_scc_indices,
)
from pisotile.overlap import build_graph
from pisotile.strongcoin import _family_in_group, enumerate_tile_maps
from conftest import CORPUS_RULES

from test_graphkit import _succ_array, random_case


# One verdict line per acceptance criterion, echoed in the terminal summary
# (pytest's fd-level capture swallows direct writes even to sys.__stdout__).
CRITERION_LINES: list[str] = []


@contextmanager
def criterion(num: int, summary: str):
    try:
        yield
    except BaseException:
        CRITERION_LINES.append(f"FAIL: criterion {num} — {summary}")
        raise
    CRITERION_LINES.append(f"PASS: criterion {num} — {summary}")


def _fresh_pipeline(name):
    m, rules = CORPUS_RULES[name]
    system = TilingSystem(Substitution(m, rules))
    g, radius = stable_overlap_graph(system)
    oc, cert = overlap_coincidence(g)
    n = compute_level_n(g)
    group = group_G(system)
    msc = multiple_strong_coincidence(system, n, group=group)
    return system, g, radius, oc, cert, n, group, msc


def test_criterion_1_fibonacci():
    with criterion(1, "Fibonacci: OC true, MSC(n) true, < 5 s, word/balanced-pair oracle agrees"):
        t0 = time.monotonic()
        system, g, radius, oc, cert, n, group, msc = _fresh_pipeline("fibonacci")
        elapsed = time.monotonic() - t0
        assert oc is True
        assert msc.verdict is True
        assert elapsed < 5.0, f"took {elapsed:.2f}s"
        # Independent word-combinatorial oracles.
        assert balanced_pair_coincidence(2, CORPUS_RULES["fibonacci"][1]) is True
        assert word_strong_coincidence_all(2, CORPUS_RULES["fibonacci"][1]) is True


def test_criterion_2_thue_morse():
    with criterion(2, "Thue-Morse: OC false with stuck cycle {(1,2,0),(2,1,0)}, MSC false, sound witness, Dekking false, < 5 s"):
        t0 = time.monotonic()
        system, g, radius, oc, cert, n, group, msc = _fresh_pipeline("thue_morse")
        elapsed = time.monotonic() - t0
        assert oc is False
        labels = {g.vertices[i].label() for i in cert}
        assert {"(1,2,0)", "(2,1,0)"} <= labels
        assert msc.verdict is False
        sccs = stuck_scc_indices(g)
        tm_map, cp, pair = extract_witness(system, g, sccs[0], group)
        assert pair == (1, 2)
        assert cp.admissible
        assert _family_in_group(cp, group)
        rep = strong_coincidence(system, cp, group)
        assert not rep.ok
        assert any((p.i, p.j) in {(1, 2), (2, 1)} and not p.ok for p in rep.pairs)
        s = Substitution(*CORPUS_RULES["thue_morse"])
        assert dekking_column_check(s) is False
        assert elapsed < 5.0, f"took {elapsed:.2f}s"


def test_criterion_3_period_doubling():
    with criterion(3, "Period doubling: OC true, Dekking oracle true, MSC agrees"):
        system, g, radius, oc, cert, n, group, msc = _fresh_pipeline("period_doubling")
        assert oc is True
        assert msc.verdict is True
        s = Substitution(*CORPUS_RULES["period_doubling"])
        assert dekking_column_check(s) is True


def test_criterion_4_tribonacci(pipeline):
    with criterion(4, "Tribonacci: OC true, MSC agrees, exact cubic-field arithmetic end-to-end"):
        data = pipeline("tribonacci")
        assert data["oc"] is True
        assert data["msc"].verdict is True
        system = data["system"]
        assert system.field.min_poly == (-1, -1, -1, 1)
        assert system.field.degree == 3
        b = system.beta
        assert b**3 == b**2 + b + system.field.one()
        # Cubic coordinates genuinely occur in the computed data.
        assert any(
            any(c != 0 for c in v.shift.coeffs[1:]) for v in data["graph"].vertices
        )


def test_criterion_5_equivalence_harness(pipeline):
    with criterion(5, "corpus of 5: overlap_coincidence == multiple_strong_coincidence(compute_level_n), zero disagreements"):
        assert len(CORPUS_RULES) >= 5
        for name in CORPUS_RULES:
            data = pipeline(name)
            assert data["oc"] == data["msc"].verdict, name


def test_criterion_6_cycle_extension_suite():
    with criterion(6, "100 random strongly connected digraphs: cycle extension is total, out-degree 1, exact cycle set"):
        rng = random.Random(424242)
        for _ in range(100):
            g, cycles = random_case(rng)
            out = cycle_extension(g, cycles)
            g_edges = {(u, v) for u, v, _ in g.edges}
            assert all((u, v) in g_edges for u, v, _ in out.edges)
            succ = _succ_array(out)  # full vertex set, out-degree exactly 1
            assert set(functional_cycles(succ)) == {canonical_cycle(c) for c in cycles}


def test_criterion_7_exactness_suite():
    with criterion(7, "10^4 exact field-axiom triples, 10^3 signs vs 100-digit numerics, exact measure identity on 100 patches, zero control-point residuals"):
        rng = random.Random(99)
        golden = NumberField((-1, -1, 1), (Fraction(1), Fraction(2)))
        cubic = NumberField((-1, -1, -1, 1), (Fraction(1), Fraction(2)))

        def rand_elem(field):
            return field.element(
                [Fraction(rng.randint(-30, 30), rng.randint(1, 9)) for _ in range(field.degree)]
            )

        for i in range(10**4):
            field = golden if i % 2 else cubic
            a, b, c = rand_elem(field), rand_elem(field), rand_elem(field)
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a - a == field.zero()
            if not b.is_zero():
                assert (a / b) * b == a

        mpmath.mp.dps = 100
        roots = {
            golden: (mpmath.mpf(1) + mpmath.sqrt(5)) / 2,
            cubic: mpmath.findroot(lambda x: x**3 - x**2 - x - 1, 1.8),
        }
        for i in range(10**3):
            field = golden if i % 2 else cubic
            a = rand_elem(field)
            num = sum(
                mpmath.mpf(c.numerator) / c.denominator * roots[field] ** k
                for k, c in enumerate(a.coeffs)
            )
            expected = 0 if num == 0 else (1 if num > 0 else -1)
            assert a.sign() == expected

        systems = [
            TilingSystem(Substitution(*CORPUS_RULES[n]))
            for n in ("fibonacci", "tribonacci")
        ]
        def measure(system, p):
            total = system.field.zero()
            for color, _ in p.tiles:
                total = total + system.length(color)
            return total

        for k in range(100):
            # The identity does not depend on positions: random integer
            # vectors over den.
            system = systems[k % 2]
            m, d = system.substitution.m, system.field.degree
            p = Patch(tuple(
                (rng.randint(1, m), tuple(rng.randint(-40, 40) for _ in range(d)))
                for _ in range(rng.randint(1, 10))
            ))
            q = system.inflate_patch(p)
            assert measure(system, q) == system.beta * measure(system, p)
            assert field_tiles(system, q) == inflate_tiles(system, field_tiles(system, p))

        for system in systems:
            for n in (1, 2):
                lam = system.beta**n
                for tm in enumerate_tile_maps(system, n):
                    cp = solve_control_points(system, tm)
                    for i, (j, u) in enumerate(tile_map_targets(system, tm)):
                        assert (lam * cp.c[i] - cp.c[j - 1] - u).is_zero()


def test_criterion_8_radius_stability(pipeline):
    with criterion(8, "doubling the seeding radius changes no verdict and no closed vertex set on the corpus"):
        for name in CORPUS_RULES:
            data = pipeline(name)
            system = data["system"]
            radius = data["radius"]
            half = radius / system.field.from_rational(2) if hasattr(radius, "coeffs") else radius / 2
            patch = system.central_patch(half)
            g_half = build_graph(
                system, seed_overlaps(system, patch, system.return_vectors(patch)),
            )
            assert overlap_coincidence(g_half)[0] == data["oc"], name
            assert {c.key() for c in g_half.vertices} == {
                c.key() for c in data["graph"].vertices
            }, name

"""Workload inputs for the benchmark: fixed lists plus a seeded generator.

Every input carries why it was chosen, the minimal polynomial of its
expansion factor and its reference verdict with the source of that
reference.  References come from, in order of preference:

- ``metadata.expected`` of a shipped corpus file;
- the balanced-pair oracle of ``tests/oracles.py`` (unimodular inputs only);
- ``dekking_column_check`` (constant-length inputs whose fixed point is
  aperiodic only -- ``1->121, 2->212`` is periodic and has OC true while the
  column check says false);
- otherwise none: the verdict then has to pass the OC = MSC agreement that
  ``analyze`` enforces.

The program itself only ever sees the JSON files written by
``write_inputs``.  The references are computed in a child process
(``load_inputs`` runs this file as a script), so that the sympy and oracle
work they take leaves neither warm caches nor its memory peak in the
process that times the program.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import random
import signal
import subprocess
import sys
from dataclasses import asdict, dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
CORPUS_DIR = ROOT / "src" / "pisotile" / "corpus"

# Generated share of pisot-sweep: one pick from each of this many cost strata
# of the 2-letter pool, plus one from each of this many cost strata of the
# constant-length inputs whose column check fails (so that several reference
# verdicts are false).
SWEEP_STRATA = 28
SWEEP_FALSE_PICKS = 4


@dataclass
class Input:
    id: str
    rules: tuple[str, ...]  # rules[i] is the image of letter i+1, as digits
    why: str
    command: str = "analyze"  # or "msc"
    map_level: int | None = None
    reference: bool | None = None
    reference_source: str = "OC = MSC agreement"
    min_poly: str = ""

    def data(self) -> dict:
        letters = [str(i + 1) for i in range(len(self.rules))]
        return {
            "alphabet": letters,
            "rules": {a: list(w) for a, w in zip(letters, self.rules)},
            "metadata": {"name": self.id},
        }

    def argv(self, path: Path) -> list[str]:
        if self.command == "msc":
            return ["msc", str(path), "--map-level", str(self.map_level)]
        return ["analyze", str(path)]

    def record(self) -> dict:
        return {
            "id": self.id,
            "rules": ",".join(f"{i + 1}->{w}" for i, w in enumerate(self.rules)),
            "command": self.command if self.map_level is None
            else f"{self.command} --map-level {self.map_level}",
            "why": self.why,
            "min_poly": self.min_poly,
            "reference": self.reference,
            "reference_source": self.reference_source,
        }


# -- word combinatorics used to pick references --------------------------------


def _words(rules) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(int(c) for c in w) for w in rules)


def _apply(words, w):
    return tuple(b for a in w for b in words[a - 1])


def _matrix(words):
    m = len(words)
    return [[w.count(i + 1) for w in words] for i in range(m)]


def _det(M):
    if len(M) == 2:
        return M[0][0] * M[1][1] - M[0][1] * M[1][0]
    import sympy

    return int(sympy.Matrix(M).det())


def _poly_str(coeffs) -> str:
    """x**2 - 3*x + 1 style text for descending integer coefficients."""
    deg = len(coeffs) - 1
    out = ""
    for k, c in enumerate(coeffs):
        if not c:
            continue
        e = deg - k
        mono = "" if e == 0 else ("x" if e == 1 else f"x**{e}")
        mag = str(abs(c)) if e == 0 or abs(c) != 1 else ""
        body = mag + ("*" if mag and mono else "") + mono
        if not out:
            out = ("-" if c < 0 else "") + body
        else:
            out += f" {'-' if c < 0 else '+'} {body}"
    return out


def min_poly(words) -> str:
    """Minimal polynomial of the Perron root of the substitution matrix."""
    M = _matrix(words)
    if len(M) == 2:
        t, D = M[0][0] + M[1][1], _det(M)
        s = math.isqrt(max(t * t - 4 * D, 0))
        if s * s == t * t - 4 * D:
            return _poly_str([1, -((t + s) // 2)])
        return _poly_str([1, -t, D])
    import sympy

    x = sympy.Symbol("x")
    chi = sympy.Matrix(_matrix(words)).charpoly(x).as_expr()
    best = None
    for fac, _ in sympy.factor_list(chi)[1]:
        roots = sympy.Poly(fac, x).real_roots()
        if roots and (best is None or roots[-1] > best[0]):
            best = (roots[-1], fac)
    return str(sympy.expand(best[1]))


def fixed_point_is_aperiodic(words, n_max: int = 16, length: int = 3000) -> bool:
    """Factor complexity test on a long prefix of a fixed point of a power of
    the substitution: by Morse-Hedlund, p(n) <= n for some n means periodic.
    A prefix can only under-count factors, so an error here errs towards
    'periodic', which drops the column-check reference."""
    m = len(words)
    power = words
    for _ in range(m):
        starts = [a for a in range(1, m + 1) if power[a - 1][0] == a and len(power[a - 1]) > 1]
        if starts:
            break
        power = tuple(_apply(words, w) for w in power)
    else:
        return False
    w = (starts[0],)
    while len(w) < length:
        w = _apply(power, w)
    w = w[:length]
    for n in range(1, n_max + 1):
        if len({w[i:i + n] for i in range(len(w) - n)}) <= n:
            return False
    return True


def _first_letter_cycle_ok(words) -> bool:
    """The balanced-pair oracle looks for a fixed point of sigma^(2^k); that
    exists only if the first-letter map has a cycle whose length is a power
    of two.  Otherwise the oracle's search never ends."""
    m = len(words)
    first = [w[0] for w in words]
    for a in range(1, m + 1):
        seen = []
        b = a
        while b not in seen:
            seen.append(b)
            b = first[b - 1]
        k = len(seen) - seen.index(b)
        if k & (k - 1) == 0:
            return True
    return False


class _OracleTimeout(Exception):
    pass


def _raise_timeout(signum, frame):
    raise _OracleTimeout()


def _balanced_pair(words, limit_s: float = 10.0):
    sys.path.insert(0, str(ROOT / "tests"))
    try:
        from oracles import balanced_pair_coincidence
    except ImportError:
        return None
    finally:
        sys.path.pop(0)
    old = signal.signal(signal.SIGALRM, _raise_timeout)
    signal.setitimer(signal.ITIMER_REAL, limit_s)
    try:
        return balanced_pair_coincidence(len(words), [list(w) for w in words])
    except (RuntimeError, _OracleTimeout):
        return None  # the oracle abstains (cap or time limit)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


def assign_reference(inp: Input, expected: bool | None = None) -> None:
    """Fill in the minimal polynomial and the reference verdict."""
    words = _words(inp.rules)
    inp.min_poly = min_poly(words)
    if expected is not None:
        inp.reference, inp.reference_source = expected, "corpus metadata.expected"
        return
    lengths = {len(w) for w in words}
    if len(lengths) == 1:
        if fixed_point_is_aperiodic(words):
            from pisotile.substitution import Substitution, dekking_column_check

            inp.reference = dekking_column_check(Substitution(len(words), words))
            inp.reference_source = "dekking_column_check (constant length, aperiodic)"
        else:
            inp.reference_source = "OC = MSC agreement (periodic fixed point)"
        return
    if abs(_det(_matrix(words))) == 1:
        if not _first_letter_cycle_ok(words):
            inp.reference_source = (
                "OC = MSC agreement (unimodular, but the balanced-pair oracle "
                "finds no fixed point of sigma^(2^k))"
            )
            return
        verdict = _balanced_pair(words)
        if verdict is None:
            inp.reference_source = "OC = MSC agreement (balanced-pair oracle abstained)"
        else:
            inp.reference, inp.reference_source = verdict, "balanced-pair oracle (unimodular)"


# -- the 2-letter pool -------------------------------------------------------------


def enumerate_pool() -> list[tuple[str, str]]:
    """Every 2-letter primitive Pisot substitution with rules of length 1..4.

    Exact tests on the matrix [[a, b], [c, d]] with char poly
    p(x) = x^2 - t x + D: an integer Perron root is always Pisot; otherwise the
    conjugate lies in (-1, 1) iff p(1) < 0 < p(-1)."""
    words = ["".join(w) for n in range(1, 5) for w in itertools.product("12", repeat=n)]
    out = []
    for r1, r2 in itertools.product(words, words):
        a, b, c, d = r1.count("1"), r2.count("1"), r1.count("2"), r2.count("2")
        sq = [[a * a + b * c, a * b + b * d], [c * a + d * c, c * b + d * d]]
        if not (min(a, b, c, d) > 0 or min(min(row) for row in sq) > 0):
            continue
        t, D = a + d, a * d - b * c
        disc = t * t - 4 * D
        s = math.isqrt(disc) if disc >= 0 else -1
        if s * s == disc:
            if (t + s) % 2 == 0 and (t + s) // 2 >= 2:
                out.append((r1, r2))
        elif disc > 0 and 1 - t + D < 0 < 1 + t + D:
            out.append((r1, r2))
    return out


def load_pool() -> list[tuple[str, str, float]]:
    data = json.loads((BENCH_DIR / "pool2.json").read_text())
    return [(r1, r2, float(s)) for r1, r2, s in data["pool"]]


def _stratified(rng, entries, strata: int):
    """One pick from each of `strata` equal slices of entries sorted by cost:
    (entry, 1-based stratum)."""
    entries = sorted(entries, key=lambda e: (e[2], e[0], e[1]))
    n = len(entries)
    return [(rng.choice(entries[k * n // strata:(k + 1) * n // strata]), k + 1)
            for k in range(strata)]


def generated_sweep_inputs(seed: int) -> list[Input]:
    """Seeded 2-letter inputs: one pick from each of SWEEP_FALSE_PICKS cost
    strata of the constant-length rules whose column check fails, and one
    from each of SWEEP_STRATA cost strata of the rest of the pool.
    Stratifying by cost keeps the cost mix of a pass, and so the timing
    percentiles, nearly the same from seed to seed."""
    from pisotile.substitution import Substitution, dekking_column_check

    rng = random.Random(seed)
    pool = load_pool()
    failing, rest = [], []
    for r1, r2, s in pool:
        words = _words((r1, r2))
        if len(r1) == len(r2) and not dekking_column_check(Substitution(2, words)):
            failing.append((r1, r2, s))
        else:
            rest.append((r1, r2, s))
    picks = [(e, f"constant length, column check fails; cost stratum {k}/{SWEEP_FALSE_PICKS}")
             for e, k in _stratified(rng, failing, SWEEP_FALSE_PICKS)]
    picks += [(e, f"cost stratum {k}/{SWEEP_STRATA} of the 2-letter pool")
              for e, k in _stratified(rng, rest, SWEEP_STRATA)]
    out = []
    for (r1, r2, _), why in picks:
        inp = Input(f"gen-{r1}-{r2}", (r1, r2), f"seeded 2-letter input; {why}")
        assign_reference(inp)
        out.append(inp)
    return out


# -- the three workloads -----------------------------------------------------------


def _corpus(name: str) -> tuple[tuple[str, ...], dict]:
    data = json.loads((CORPUS_DIR / f"{name}.json").read_text())
    alphabet = data["alphabet"]
    index = {a: str(i + 1) for i, a in enumerate(alphabet)}
    rules = tuple("".join(index[b] for b in data["rules"][a]) for a in alphabet)
    return rules, data["metadata"]["expected"]


CORPUS = ("fibonacci", "period_doubling", "s112", "thue_morse", "tribonacci")

ROADMAP_INPUTS = (
    (("2", "3", "12"), "smallest Pisot number, x^3-x-1; about 16 s on the seed commit"),
    (("1112", "12"), "non-unit quadratic named by the ROADMAP"),
    (("231", "12", "2"), "unit cubic x^3-2x^2-1; its vertex set still grows after minutes"),
    (("132", "33", "31"), "non-unit cubic x^3-2x^2-2"),
)

CUBIC_INPUTS = (
    (("2", "3", "12"), "x^3-x-1: 16 s, 13 s of it seeding over 6 radius rounds"),
    (("13", "1", "2"), "x^3-x^2-1: 3.3 s, 2.0 s of it seeding"),
    (("231", "323", "13"), "non-unit x^3-3x^2+2x-2: closure-bound (595 vertices), seeding 0.13 s"),
)

MSC_INPUTS = (
    ("tribonacci", 3, "168 tile maps, 81 families, about 12 s"),
    ("thue_morse", 3, "40 families; pair closures run to exhaustion"),
    ("fibonacci", 4, "deep level on the smallest alphabet"),
    ("s112", 2, "non-constant quadratic at level 2"),
)

# Per-input limit of each workload (seconds).  pisot-sweep uses the ROADMAP's
# 5 s target; the others only a safety limit.
LIMITS = {"pisot-sweep": 5.0, "cubic-closure": 60.0, "msc-deep": 60.0}


def _rules_id(rules) -> str:
    return "-".join(rules)


def workload_inputs(name: str, seed: int) -> list[Input]:
    """The inputs of one workload, in a seeded order."""
    out: list[Input] = []
    if name == "pisot-sweep":
        for c in CORPUS:
            rules, expected = _corpus(c)
            inp = Input(c, rules, "shipped corpus file")
            assign_reference(inp, expected["overlap_coincidence"])
            out.append(inp)
        for rules, why in ROADMAP_INPUTS:
            inp = Input(f"roadmap-{_rules_id(rules)}", rules, why)
            assign_reference(inp)
            out.append(inp)
        out += generated_sweep_inputs(seed)
    elif name == "cubic-closure":
        for rules, why in CUBIC_INPUTS:
            inp = Input(f"cubic-{_rules_id(rules)}", rules, why)
            assign_reference(inp)
            out.append(inp)
    elif name == "msc-deep":
        for c, level, why in MSC_INPUTS:
            rules, expected = _corpus(c)
            inp = Input(f"{c}@{level}", rules, why, command="msc", map_level=level)
            assign_reference(inp, expected["msc"])
            inp.reference_source = "corpus metadata.expected.msc"
            out.append(inp)
    else:
        raise ValueError(f"unknown workload {name!r}")
    random.Random(seed).shuffle(out)
    return out


def load_inputs(name: str, seed: int, timeout_s: float) -> list[Input]:
    """workload_inputs(name, seed), computed in a child process."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(seed)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout_s, check=True)
    return [Input(**dict(d, rules=tuple(d["rules"]))) for d in json.loads(proc.stdout)]


def write_inputs(inputs: list[Input], directory: Path) -> dict[str, Path]:
    directory.mkdir(parents=True, exist_ok=True)
    paths = {}
    for k, inp in enumerate(inputs):
        p = directory / f"{k:03d}.json"
        p.write_text(json.dumps(inp.data()))
        paths[inp.id] = p
    return paths


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description="Print a workload's inputs as JSON.")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    args = ap.parse_args()
    print(json.dumps([asdict(i) for i in workload_inputs(args.workload, args.seed)]))

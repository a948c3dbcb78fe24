"""The standing mutation ledger: each entry breaks the program in one place
and names the tests that must then fail, so that a later edit of those
tests cannot let the fault pass unnoticed.

    python3 tests/mutations.py [NAME ...]

For each entry (or each one named), the tree is copied to a temporary
directory, where each old text of the entry, which must occur exactly once
in its file, is replaced by its new text.  Then only the entry's tests run
(pytest, standard library otherwise).  The mutation is caught when every
one of them fails, and survived otherwise.  The exit status is 1 when a
mutation survives or its old text is missing, else 0.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]


class Mutation(NamedTuple):
    name: str
    file: str
    edits: tuple[tuple[str, str], ...]  # (old text, new text)
    tests: tuple[str, ...]  # pytest node ids that must fail


MUTATIONS = [
    # -- the root locator of the number field --
    Mutation(
        "isolate: the first interval taken from a disk that straddles the interval",
        "src/pisotile/algebra.py",
        (("        if len(meets) == 1 and (found or inside):\n",
          "        if len(meets) == 1:\n"),),
        ("tests/test_algebra.py::test_isolate_matches_sympy",),
    ),
    Mutation(
        "NumberField.refine: the copies share one place in the spans",
        "src/pisotile/numberfield.py",
        (("        at = self._at + 1\n", "        at = len(self._spans)\n"),),
        ("tests/test_numberfield.py::test_copies_refine_on_their_own",),
    ),
    Mutation(
        "isolate: a handed stream of disks ignored for one of its own",
        "src/pisotile/algebra.py",
        (("    found = False\n    for s, units in disks:\n",
          "    found = False\n    for s, units in conjugate_disks(p):\n"),),
        ("tests/test_algebra.py::test_one_disk_stream_per_root",),
    ),
    Mutation(
        "isolate: a degree-1 root not checked against the interval",
        "src/pisotile/algebra.py",
        (("        if not lo <= root <= hi:\n"
          "            raise ValueError(\"the interval holds no root\")\n", ""),),
        ("tests/test_algebra.py::test_isolate_matches_sympy",),
    ),
    # -- the inclusion disks --
    Mutation(
        "_disks: a pair's disk not checked against its mirror image",
        "src/pisotile/algebra.py",
        (("        if 0 < b <= r or any(", "        if any("),),
        ("tests/test_algebra.py::test_conjugate_disks_hold_mpmath_roots",
         "tests/test_algebra.py::test_float_roots_only_propose",
         "tests/test_algebra.py::test_pisot_verdict_float_roots_only_propose"),
    ),
    Mutation(
        "_minimal_factor: no exact-division check",
        "src/pisotile/algebra.py",
        (("        if not pdivmod(p, q)[1] and _geval(", "        if _geval("),),
        ("tests/test_algebra.py::test_float_roots_only_propose",
         "tests/test_algebra.py::test_pisot_verdict_float_roots_only_propose"),
    ),
    Mutation(
        "conjugate_disks: no restart past the grid limit without a proof",
        "src/pisotile/algebra.py",
        (("            if proven or step >= restart:\n", "            if True:\n"),),
        ("tests/test_algebra.py::test_pisot_verdict_float_roots_only_propose",),
    ),
    Mutation(
        "_disks: overlapping disks accepted",
        "src/pisotile/algebra.py",
        (("if 0 < b <= r or any((a - c) ** 2 + (b - d) ** 2 <= (r + t) ** 2 for c, d, t in units[:i]):",
          "if 0 < b <= r:"),),
        ("tests/test_algebra.py::test_conjugate_disks_hold_mpmath_roots",),
    ),
    # -- overlap seeding --
    Mutation(
        "seed_overlaps: the mirrored class keeps s instead of -s",
        "src/pisotile/overlap.py",
        (("(cv, cu, tuple(map(neg, x[1])))", "(cv, cu, x[1])"),),
        ("tests/test_overlap.py::test_seed_symmetry",
         "tests/test_overlap.py::test_seeds_equal_two_window_seeding[1->1112,2->12-rules1]"),
    ),
    Mutation(
        "seed_overlaps: the window slack drops the difference's float error",
        "src/pisotile/overlap.py",
        (("errs, lens = 2 * (enclose.bound(2 * norm, den) + ys.err + elu + elv)",
          "errs, lens = 2 * (ys.err + elu + elv)"),),
        ("tests/test_overlap.py::test_seed_overlaps_near_edge_differences[2-rules0]",
         "tests/test_overlap.py::test_seed_overlaps_near_edge_differences[3-rules1]"),
    ),
    Mutation(
        "Packing.midpoints: the digits read without the packing bias",
        "src/pisotile/tiling.py",
        (("            q, m = p + bias, 0.0\n", "            q, m = p, 0.0\n"),),
        ("tests/test_tiling.py::test_module_vector_floats_are_enclosure_midpoints[rules0]",
         "tests/test_tiling.py::test_module_vector_floats_are_enclosure_midpoints[rules3]"),
    ),
    # -- one inflation per mirror pair, one pair test per unordered pair --
    Mutation(
        "_mirrored: the mirrored children keep s instead of -s",
        "src/pisotile/overlap.py",
        (("        kids = [((b, a, den, tuple(map(neg, v))), mult)",
          "        kids = [((b, a, den, v), mult)"),),
        ("tests/test_overlap.py::test_mirrored_successors_equal_inflation[tribonacci]",
         "tests/test_cli.py::test_golden_output[msc tribonacci --map-level 3]"),
    ),
    Mutation(
        "_mirrored: the mirrored successors left unsorted",
        "src/pisotile/overlap.py",
        (("        kids.sort(key=lambda kid: kid[0][:2])\n", ""),),
        ("tests/test_overlap.py::test_mirrored_successors_equal_inflation[tribonacci]",
         "tests/test_overlap.py::test_mirrored_successors_equal_inflation[1->231,2->323,3->13]"),
    ),
    Mutation(
        "distance: the answer not kept for the mirror class",
        "src/pisotile/overlap.py",
        (("            dist[i] = dist[self._id(self._mirror(i))] = best\n",
          "            dist[i] = best\n"),),
        ("tests/test_cli.py::test_small_class_cap_with_mirrored_pair_tests",
         "tests/test_cli.py::test_one_inflation_per_mirror_pair[analyze 1->231,2->323,3->13]"),
    ),
    Mutation(
        "_pair_test: the (j, i) certificate copied from (i, j) without relabelling",
        "src/pisotile/strongcoin.py",
        (("for a, b, classes in ((i, j, reached), (j, i, mirrored))",
          "for a, b, classes in ((i, j, reached), (j, i, reached))"),),
        ("tests/test_strongcoin.py::test_mirrored_pairs_match_pair_closure",),
    ),
    Mutation(
        "_inflate: the float placement trusted at a threshold without the exact check",
        "src/pisotile/overlap.py",
        (("        above = compare(thresholds[k], x) if k < n else 1\n        if above < 0",
          "        above = (mids[k] > x[2]) - (mids[k] < x[2]) if k < n else 1\n        if above < 0"),),
        ("tests/test_overlap.py::test_int_inflation_near_touching[2-rules0]",
         "tests/test_overlap.py::test_int_inflation_near_touching[3-rules2]"),
    ),
    # -- families decided by their pair classes, one parser per command --
    Mutation(
        "pair_class: the window tested on one side only",
        "src/pisotile/tiling.py",
        (("window = compare(self.ends[j - 1][0], x) < 0 and compare(x, self.ends[i - 1][1]) < 0",
          "window = compare(x, self.ends[i - 1][1]) < 0"),),
        ("tests/test_tiling.py::test_control_points_match_field_solve[rules0-3]",
         "tests/test_cli.py::test_golden_output[msc fibonacci --map-level 4]"),
    ),
    Mutation(
        "_family_in_group: only the pair class (1, 2) tested",
        "src/pisotile/strongcoin.py",
        (("for key, _ in cp.pairs[:len(cp.points) - 1])", "for key, _ in cp.pairs[:1])"),),
        ("tests/test_strongcoin.py::test_msc_matches_per_family_reference",
         "tests/test_cli.py::test_golden_output[msc tribonacci --map-level 3]"),
    ),
    Mutation(
        "_pair_test: a result kept without its class cap",
        "src/pisotile/strongcoin.py",
        (("    out = system._pair_results.get((key, cap_classes))\n",
          "    out = system._pair_results.get(key)\n"),
         ("        system._pair_results[key, cap_classes] = out\n",
          "        system._pair_results[key] = out\n")),
        ("tests/test_strongcoin.py::test_pair_results_kept_per_cap",),
    ),
    Mutation(
        "COMMANDS: msc built without --cap-maps",
        "src/pisotile/cli.py",
        (('help="level n (default: computed from the overlap graph)")), *_CAPS)),',
          'help="level n (default: computed from the overlap graph)")), _CAPS[0])),'),),
        ("tests/test_cli.py::test_help_bytes[msc]",),
    ),
    # -- the stuck part, the Perron lengths and the witness --
    Mutation(
        "OverlapGraph.stuck: trivial components kept",
        "src/pisotile/overlap.py",
        (("            if len(comp) > 1 or mat[0][0]:\n", "            if True:\n"),),
        ("tests/test_strongcoin.py::test_level_search_equals_closed_walk_loop",),
    ),
    Mutation(
        "_left_eigenvector: read from a column of the adjugate",
        "src/pisotile/substitution.py",
        (("                v = (v[0] + B[i][j],) + v[1:]\n",
          "                v = (v[0] + B[j][i],) + v[1:]\n"),),
        ("tests/test_tiling.py::test_measure_identity",
         "tests/test_cli.py::test_golden_output[analyze period_doubling]"),
    ),
    Mutation(
        "extract_witness: the module not checked",
        "src/pisotile/strongcoin.py",
        (("    if not _family_in_group(cp, group_G(system)):\n"
          "        raise RuntimeError(\"extracted witness is not in the translation module\")\n", ""),),
        ("tests/test_strongcoin.py::test_witness_is_checked_against_the_module",),
    ),
    # -- one translation module per system --
    Mutation(
        "group_G: the sigma^k(y) block not shifted by |sigma^k(x)|",
        "src/pisotile/strongcoin.py",
        (("offsets[x - 1] + tuple((b, tuple(map(add, width, off)))\n"
          "                                          for b, off in offsets[y - 1])",
          "offsets[x - 1] + offsets[y - 1]"),),
        ("tests/test_strongcoin.py::test_group_from_return_words_equals_patch_group",),
    ),
    Mutation(
        "group_G: a new module per call",
        "src/pisotile/strongcoin.py",
        (("    if system._group is None:\n", "    if True:\n"),),
        ("tests/test_strongcoin.py::test_one_module_per_system",
         "tests/test_cli.py::test_one_module_per_call"),
    ),
    # -- records without dataclasses --
    Mutation(
        "graphkit: dataclasses imported again",
        "src/pisotile/graphkit.py",
        (("from .algebra import char_poly", "from dataclasses import dataclass\nfrom .algebra import char_poly"),),
        ("tests/test_record.py::test_import_loads_no_dataclasses_inspect_or_typing",),
    ),
    Mutation(
        "Substitution: no letter-range check",
        "src/pisotile/substitution.py",
        (("            for a in word:\n"
          "                if not 1 <= a <= m:\n"
          "                    raise SubstitutionError(f\"letter {a} out of range in rule {i + 1}\")\n",
          ""),),
        ("tests/test_substitution.py::test_validation",),
    ),
]


def _failed(output: str) -> set[str]:
    """The node ids that pytest's short summary (-rf) reports as failed."""
    return {line[len("FAILED "):].split(" - ")[0] for line in output.splitlines()
            if line.startswith("FAILED ")}


def run(mutation: Mutation) -> tuple[bool, str]:
    """(caught, detail) for one mutation, in a fresh copy of the tree."""
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp) / "tree"
        shutil.copytree(ROOT, tree, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", "*.egg-info"))
        path = tree / mutation.file
        text = path.read_text()
        for old, new in mutation.edits:
            if text.count(old) != 1:
                return False, f"old text found {text.count(old)} times in {mutation.file}: {old!r}"
            text = text.replace(old, new)
        path.write_text(text)
        env = dict(os.environ, PYTHONPATH=str(tree / "src"))
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-rf", "-p", "no:cacheprovider", *mutation.tests],
            cwd=tree, env=env, capture_output=True, text=True)
    if proc.returncode not in (0, 1):
        return False, f"pytest exited {proc.returncode}:\n{proc.stdout[-2000:]}{proc.stderr[-2000:]}"
    passed = [t for t in mutation.tests if t not in _failed(proc.stdout)]
    return not passed, "passed: " + ", ".join(passed) if passed else "every named test failed"


def main(names: list[str]) -> int:
    unknown = set(names) - {m.name for m in MUTATIONS}
    if unknown:
        print(f"unknown mutations: {sorted(unknown)}", file=sys.stderr)
        return 2
    survived = 0
    for mutation in MUTATIONS:
        if names and mutation.name not in names:
            continue
        start = time.perf_counter()
        caught, detail = run(mutation)
        survived += not caught
        print(f"{'caught' if caught else 'SURVIVED'} ({time.perf_counter() - start:.1f} s): "
              f"{mutation.name} -- {detail}", flush=True)
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

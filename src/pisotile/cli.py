"""Command-line front end: substitution file parsing, analysis orchestration,
DOT/JSON emission, and the corpus verification harness.

Exit codes: 0 success, 1 verdict mismatch, 2 gate or input failure,
3 cap exhaustion.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from json.encoder import encode_basestring_ascii as _quote
from pathlib import Path

from .overlap import (
    CapExceededError,
    overlap_coincidence,
    stable_overlap_graph,
    stuck_scc_indices,
    expansive_sccs,
    to_dot,
)
from .strongcoin import (
    RodHypothesisError,
    StrongCoincidenceReport,
    compute_level_n,
    extract_witness,
    group_G,
    multiple_strong_coincidence,
    strong_coincidence,
)
from .substitution import (
    NotPisotError,
    Substitution,
    SubstitutionError,
    dekking_column_check,
    is_irreducible,
    is_primitive,
    matrix,
)
from .tiling import TileMap, TileMapError, TilingSystem, solve_control_points


class ParseError(ValueError):
    """Malformed substitution file."""


class VerdictMismatch(RuntimeError):
    """Computed verdicts disagree with each other or with expectations."""


def _is_path(source) -> bool:
    """Whether source names an existing file or directory; a name the
    operating system refuses as a path (too long, say) is inline JSON."""
    try:
        return Path(source).exists()
    except (OSError, ValueError):
        return False


def parse(source) -> tuple[Substitution, list[str], dict]:
    """Parse a substitution file (path, JSON text, or dict) into a
    Substitution plus the letter names and any metadata."""
    if isinstance(source, (str, Path)) and _is_path(source):
        try:
            data = json.loads(Path(source).read_text())
        except (OSError, UnicodeDecodeError, json.JSONDecodeError) as e:
            raise ParseError(f"{source}: not a readable JSON file: {e}") from e
    elif isinstance(source, str):
        try:
            data = json.loads(source)
        except json.JSONDecodeError as e:
            raise ParseError(f"not a file and not valid JSON: {e}") from e
    else:
        data = source
    if not isinstance(data, dict):
        raise ParseError("top-level value must be an object")
    alphabet = data.get("alphabet")
    rules = data.get("rules")
    if not isinstance(alphabet, list) or not alphabet:
        raise ParseError("field 'alphabet' must be a nonempty list")
    if not all(isinstance(a, str) for a in alphabet):
        raise ParseError("letters must be strings, as the keys of 'rules' are")
    if len(set(alphabet)) != len(alphabet):
        raise ParseError("duplicate letters in alphabet")
    if not isinstance(rules, dict):
        raise ParseError("field 'rules' must be an object")
    index = {a: i + 1 for i, a in enumerate(alphabet)}
    words = []
    for a in alphabet:
        if a not in rules:
            raise ParseError(f"missing rule for letter {a!r}")
        word = rules[a]
        if not isinstance(word, list) or not word:
            raise ParseError(f"empty rule for letter {a!r}")
        for b in word:
            if not isinstance(b, str) or b not in index:
                raise ParseError(f"rule for {a!r} uses undeclared letter {b!r}")
        words.append(tuple(index[b] for b in word))
    extra = set(rules) - set(alphabet)
    if extra:
        raise ParseError(f"rules for undeclared letters: {sorted(extra)}")
    return Substitution(len(alphabet), tuple(words)), list(alphabet), data.get("metadata", {})


# -- exact serialization ---------------------------------------------------------


_SPECIAL_FLOATS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _write_json(x, nl: str = "\n", written: dict | None = None) -> str:
    """json.dumps(x, indent=2, sort_keys=True), byte for byte: with indent,
    the json module runs its pure-Python encoder, which is slower than this
    one recursive function.  nl is the line break and indent before x.
    written keeps the text of each list and dict by (id, nl) for the length
    of one call, so that an object met again is written once."""
    if isinstance(x, str):
        return _quote(x)
    if isinstance(x, (dict, list, tuple)):
        if not x:
            return "{}" if isinstance(x, dict) else "[]"
        if written is None:
            written = {}
        text = written.get((id(x), nl))
        if text is None:
            inner = nl + "  "
            if isinstance(x, dict):
                text = "{" + inner + ("," + inner).join([
                    _quote(k) + ": " + _write_json(v, inner, written)
                    for k, v in sorted(x.items())]) + nl + "}"
            else:
                text = "[" + inner + ("," + inner).join([
                    _write_json(v, inner, written) for v in x]) + nl + "]"
            written[id(x), nl] = text
        return text
    if x is None:
        return "null"
    if x is True:
        return "true"
    if x is False:
        return "false"
    if isinstance(x, int):
        return int.__repr__(x)
    if isinstance(x, float):
        text = float.__repr__(x)
        return _SPECIAL_FLOATS.get(text, text)
    raise TypeError(f"{type(x).__name__} is not JSON serializable")


def _vec(x) -> list[str]:
    return [str(c) for c in x.coeffs]  # a Fraction prints as n/d, or n when d = 1


def _graph_json(system, g) -> dict:
    order, edges = g.canonical()
    return {
        "vertices": [
            {
                "color_u": g.vertices[i].color_u,
                "color_v": g.vertices[i].color_v,
                "shift": _vec(g.vertices[i].shift),
                "coincidence": g.vertices[i].is_coincidence,
            }
            for i in order
        ],
        "edges": edges,
    }


# -- pipeline --------------------------------------------------------------------


def _checked(s: Substitution) -> tuple[dict, TilingSystem]:
    """The gates and the tiling system.  The Perron root's minimal
    polynomial is proved once, by perron_data inside TilingSystem, and the
    irreducibility gate reads its degree."""
    if not is_primitive(matrix(s)):
        raise SubstitutionError("primitivity gate failed")
    try:
        system = TilingSystem(s)
    except NotPisotError as e:
        raise NotPisotError(f"Pisot gate failed: {e}") from e
    gates = {"primitive": True, "irreducible": is_irreducible(s, system.field.min_poly),
             "pisot": True}
    return gates, system


def analyze(s: Substitution, opts) -> dict:
    """Full pipeline: gates, overlap graph, OC verdict, level n, MSC(n),
    agreement assertion, and witness extraction on failure."""
    t0 = time.monotonic()
    gates, system = _checked(s)
    g, radius = stable_overlap_graph(system, cap=opts.cap_classes)
    oc, cert = overlap_coincidence(g)
    t_overlap = time.monotonic() - t0
    n = compute_level_n(g)
    group_G(system)  # the translation module: made here, its own phase, and kept
    msc = multiple_strong_coincidence(system, n, cap_maps=opts.cap_maps,
                                      cap_classes=opts.cap_classes)
    report = {
        "substitution": {str(i + 1): "".join(map(str, w)) for i, w in enumerate(s.rules)},
        "gates": gates,
        "min_poly": list(system.field.min_poly),
        "lengths": [_vec(l) for l in system.lengths],
        "overlap": {
            "verdict": oc,
            "radius": _vec(radius),
            "vertices": len(g.vertices),
            "certificate": (
                sorted(cert.values()) if oc else [g.vertices[i].label() for i in cert]
            ),
        },
        "msc": msc.to_json(),
        "agreement": oc == msc.verdict,
        "timings": {"overlap_s": round(t_overlap, 3), "total_s": None},
    }
    if not oc:
        sccs = stuck_scc_indices(g)
        report["overlap"]["stuck_sccs"] = [
            [g.vertices[v].label() for v in comp] for comp in sccs
        ]
        report["overlap"]["expansive_sccs"] = [
            {"size": len(d["vertices"]), "matrix": d["matrix"],
             "perron_is_expansion": d["perron_is_expansion"]}
            for d in expansive_sccs(system, g)
        ]
        try:
            tm, cp, pair = extract_witness(system, g, sccs[0])
            report["witness"] = {
                "level": tm.n,
                "choice": list(tm.choice),
                "control_points": [_vec(c) for c in cp.c],
                "failing_pair": list(pair),
            }
        except RodHypothesisError as e:
            report["witness"] = {"error": str(e)}
    report["timings"]["total_s"] = round(time.monotonic() - t0, 3)
    if not report["agreement"]:
        raise VerdictMismatch(
            f"overlap coincidence = {oc} but multiple strong coincidence({n}) = {msc.verdict}"
        )
    return report


# -- commands ---------------------------------------------------------------------


def _level(text: str) -> int:
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"level must be >= 1, got {text}")
    return n


def _count(text: str) -> int:
    n = int(text)
    if n < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {text}")
    return n


def _choice(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"choice must be comma-separated integers, got {text!r}") from None


def cmd_analyze(args) -> int:
    s, _, _ = parse(args.file)
    report = analyze(s, args)
    print(_write_json(report))
    return 0


def cmd_overlaps(args) -> int:
    s, _, _ = parse(args.file)
    _, system = _checked(s)
    g, radius = stable_overlap_graph(system, cap=args.cap_classes)
    oc, cert = overlap_coincidence(g)
    dot = to_dot(g, None if oc else cert)
    if args.dot:
        try:
            Path(args.dot).write_text(dot)
        except OSError as e:
            print(f"error: cannot write {args.dot}: {e.strerror}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(dot)
    summary = {
        "verdict": oc,
        "radius": _vec(radius),
        "graph": _graph_json(system, g),
    }
    if not oc:
        summary["stuck"] = [g.vertices[i].label() for i in cert]
    print(_write_json(summary))
    return 0


def cmd_strong(args) -> int:
    s, _, _ = parse(args.file)
    _, system = _checked(s)
    n = args.map_level
    tm = TileMap(n, args.choice or (0,) * s.m)
    cp = solve_control_points(system, tm)
    group_G(system)  # the translation module: made here, its own phase, and kept
    if cp.admissible:
        rep = strong_coincidence(system, cp, args.cap_classes)
    else:
        rep = StrongCoincidenceReport(tm, cp, False, None, [])
    print(_write_json(rep.to_json()))
    return 0


def cmd_msc(args) -> int:
    s, _, _ = parse(args.file)
    _, system = _checked(s)
    if args.map_level is not None:
        n = args.map_level
    else:
        g, _ = stable_overlap_graph(system, cap=args.cap_classes)
        n = compute_level_n(g)
    group_G(system)  # the translation module: made here, its own phase, and kept
    msc = multiple_strong_coincidence(system, n, cap_maps=args.cap_maps,
                                      cap_classes=args.cap_classes)
    print(_write_json(msc.to_json()))
    return 0


def cmd_verify(args) -> int:
    """Check every corpus file against its metadata.expected, one line per
    file: a gate error or a cap hit on one file does not stop the others.
    Exit 1 if a file FAILs, else 2 on a fixture or gate error, else 3 if a
    cap was hit, else 0."""
    corpus = Path(args.corpus) if args.corpus else Path(__file__).parent / "corpus"
    if not corpus.is_dir():
        print(f"error: {corpus} is not a directory", file=sys.stderr)
        return 2
    files = sorted(corpus.glob("*.json"))
    if not files:
        print(f"error: no *.json corpus files in {corpus}", file=sys.stderr)
        return 2
    failures = errors = caps = 0
    for f in files:
        try:
            s, _, meta = parse(f)
            expected = meta.get("expected") if isinstance(meta, dict) else None
            if not isinstance(expected, dict) or "overlap_coincidence" not in expected:
                raise ParseError("missing or malformed 'metadata.expected'")
            if not isinstance(expected["overlap_coincidence"], bool):
                raise ParseError("'expected.overlap_coincidence' must be a boolean")
        except ParseError as e:
            print(f"{f.name}: FIXTURE ERROR ({e})")
            errors += 1
            continue
        try:
            report = analyze(s, args)
            oc = report["overlap"]["verdict"]
            mv = report["msc"]["verdict"]
            n = report["msc"]["level"]
            ok = oc == expected["overlap_coincidence"] and oc == mv
            status = "PASS" if ok else "FAIL"
            if not ok:
                failures += 1
            print(
                f"{f.name}: OC={oc} MSC(n={n})={mv} "
                f"expected OC={expected['overlap_coincidence']} -> {status}"
            )
        except VerdictMismatch as e:
            failures += 1
            print(f"{f.name}: FAIL ({e})")
        except SubstitutionError as e:
            errors += 1
            print(f"{f.name}: GATE ERROR ({e})")
        except CapExceededError as e:
            caps += 1
            print(f"{f.name}: CAP EXHAUSTED ({e})")
    if failures:
        return 1
    if errors:
        return 2
    return 3 if caps else 0


def cmd_oracle_dekking(args) -> int:
    s, _, _ = parse(args.file)
    result = dekking_column_check(s)
    print(json.dumps({"dekking_coincidence": result}))
    return 0


_CAPS = (("--cap-classes", dict(type=_count, default=10**4)),
         ("--cap-maps", dict(type=_count, default=10**5)))

# name: (help, function, its arguments as (name, add_argument keywords) in help order)
COMMANDS = {
    "analyze": ("full pipeline with equivalence check", cmd_analyze, (("file", {}), *_CAPS)),
    "overlaps": ("overlap graph, verdict, and DOT export", cmd_overlaps, (
        ("file", {}), ("--dot", dict(default=None, help="write DOT to this path")), *_CAPS)),
    "strong": ("strong coincidence for one tile map", cmd_strong, (
        ("file", {}),
        ("--map-level", dict(type=_level, default=1, help="tile-map inflation level n")),
        ("--choice", dict(type=_choice, default=None,
                          help="comma-separated 0-based subtile choices")), *_CAPS)),
    "msc": ("multiple strong coincidence of level n", cmd_msc, (
        ("file", {}),
        ("--map-level", dict(type=_level, default=None,
                             help="level n (default: computed from the overlap graph)")), *_CAPS)),
    "verify": ("run the corpus and check expectations", cmd_verify, (
        ("corpus", dict(nargs="?", default=None,
                        help="directory of corpus files (default: shipped corpus)")), *_CAPS)),
    "oracle-dekking": ("column coincidence oracle (constant-length substitutions)",
                       cmd_oracle_dekking, (("file", {}),)),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every command, or of the named one alone, made anew on
    each call.  Its usage line lists every command either way (the metavar
    argparse derives from them all), so top-level errors read the same."""
    p = argparse.ArgumentParser(
        prog="pisotile",
        description="Exact overlap-coincidence and strong-coincidence analysis "
        "of one-dimensional Pisot substitution tilings",
    )
    sub = p.add_subparsers(dest="command", required=True,
                           metavar=command and "{" + ",".join(COMMANDS) + "}")
    for name, (text, func, arguments) in COMMANDS.items():
        if command in (None, name):
            sp = sub.add_parser(name, help=text)
            for arg, options in arguments:
                sp.add_argument(arg, **options)
            sp.set_defaults(func=func)
    return p


def main(argv=None) -> int:
    """Run one command, building only its parser when the first argument
    names one (help and a missing or unknown command build them all)."""
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser(argv[0] if argv and argv[0] in COMMANDS else None).parse_args(argv)
    try:
        return args.func(args)
    except VerdictMismatch as e:
        print(f"verdict mismatch: {e}", file=sys.stderr)
        return 1
    except (ParseError, SubstitutionError, TileMapError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except CapExceededError as e:
        print(f"cap exhausted: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

"""Command-line interface: parsing, exit codes, determinism, round-trips."""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from conftest import CUBIC_RULES
from pisotile import algebra, cli, overlap, tiling
from pisotile.cli import ParseError, main, parse

CORPUS = Path(__file__).resolve().parents[1] / "src" / "pisotile" / "corpus"

FIB = CORPUS / "fibonacci.json"
TM = CORPUS / "thue_morse.json"
PD = CORPUS / "period_doubling.json"
TRIB = CORPUS / "tribonacci.json"


def test_parse_fibonacci():
    s, letters, meta = parse(FIB)
    assert s.m == 2
    assert s.rules == ((1, 2), (1,))
    assert letters == ["1", "2"]
    assert meta["name"] == "fibonacci"


def test_parse_letter_names():
    s, _, _ = parse({"alphabet": ["a", "b"], "rules": {"a": ["a", "b"], "b": ["a"]}})
    assert s.rules == ((1, 2), (1,))


@pytest.mark.parametrize(
    "data,needle",
    [
        ({"alphabet": [], "rules": {}}, "alphabet"),
        ({"alphabet": ["a", "a"], "rules": {"a": ["a"]}}, "duplicate"),
        ({"alphabet": ["a"], "rules": {}}, "missing rule"),
        ({"alphabet": ["a"], "rules": {"a": []}}, "empty rule"),
        ({"alphabet": ["a"], "rules": {"a": ["b"]}}, "undeclared letter 'b'"),
        ({"alphabet": ["a"], "rules": {"a": ["a"], "b": ["a"]}}, "undeclared"),
        ([1, 2], "object"),
        ({"alphabet": [1, 2], "rules": {"1": [1, 2], "2": [1]}}, "letters must be strings"),
    ],
)
def test_parse_errors(data, needle):
    with pytest.raises(ParseError, match=needle):
        parse(data)


def test_parse_garbage_text():
    with pytest.raises(ParseError):
        parse("not json at all {")


def test_analyze_exit_zero(capsys):
    assert main(["analyze", str(FIB)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["overlap"]["verdict"] is True
    assert report["msc"]["verdict"] is True
    assert report["agreement"] is True
    assert report["min_poly"] == [-1, -1, 1]


def test_analyze_report_roundtrip(capsys):
    main(["analyze", str(FIB)])
    out = capsys.readouterr().out
    report = json.loads(out)
    assert json.loads(json.dumps(report, indent=2, sort_keys=True)) == report


def test_analyze_witness_on_failure(capsys):
    assert main(["analyze", str(TM)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["overlap"]["verdict"] is False
    assert report["msc"]["verdict"] is False
    assert report["witness"]["failing_pair"] == [1, 2]
    assert {"(1,2,0)", "(2,1,0)"} <= set(report["overlap"]["certificate"])


def test_gate_failure_exit_two(tmp_path, capsys):
    f = tmp_path / "np.json"
    f.write_text(json.dumps(
        {"alphabet": ["1", "2"], "rules": {"1": ["1", "2"], "2": ["1", "1", "1"]}}
    ))
    assert main(["analyze", str(f)]) == 2
    assert "Pisot gate failed" in capsys.readouterr().err


_NO_SYMPY_SCRIPT = """
import contextlib, io, json, sys
sys.modules["sympy"] = None  # every import of sympy now fails
from pisotile.cli import main

results = []
for argv in json.loads(sys.argv[1]):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        results.append([main(argv), err.getvalue()])
print(json.dumps(results))
"""


def _inline(rules) -> str:
    letters = [str(i + 1) for i in range(len(rules))]
    return json.dumps({"alphabet": letters, "rules": {
        a: [str(b) for b in w] for a, w in zip(letters, rules)}})


def test_runs_without_sympy():
    # sympy is only a test oracle.  In a fresh interpreter where importing it
    # fails, analyze decides fibonacci and thue_morse (whose characteristic
    # polynomial x^2 - 2x is reducible), and a non-Pisot quartic, a non-Pisot
    # quadratic and a non-primitive input exit 2 with their messages.
    jobs = [["analyze", str(FIB)], ["analyze", str(TM)]]
    jobs += [["analyze", _inline(rules)] for rules in (
        ((1, 2), (3,), (4,), (1, 1, 1)), ((1, 2), (1, 1, 1)), ((1,), (2, 1)))]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(CORPUS.parents[1]), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", _NO_SYMPY_SCRIPT, json.dumps(jobs)],
                          env=env, capture_output=True, text=True, timeout=300, check=True)
    assert json.loads(proc.stdout) == [
        [0, ""], [0, ""],
        [2, "error: Pisot gate failed: Perron root of 1->12, 2->3, 3->4, 4->111 "
            "(min poly x**4 - x**3 - 3) is not Pisot\n"],
        [2, "error: Pisot gate failed: Perron root of 1->12, 2->111 "
            "(min poly x**2 - x - 3) is not Pisot\n"],
        [2, "error: primitivity gate failed\n"],
    ]


def test_parse_failure_exit_two(tmp_path, capsys):
    f = tmp_path / "bad.json"
    f.write_text('{"alphabet": ["a"], "rules": {"a": []}}')
    assert main(["analyze", str(f)]) == 2


@pytest.mark.parametrize("argv", [
    ["strong", str(FIB), "--map-level", "2", "--choice", "3,1"],  # out of range
    ["strong", str(FIB), "--choice", "0"],  # one entry for two colors
    ["strong", str(FIB), "--choice", "a,b"],
    ["msc", str(FIB), "--map-level", "0"],
    ["analyze", str(FIB), "--radius", "5"],  # the option is gone: rejected
    ["msc", str(FIB), "--map-level", "2", "--kmax", "5"],  # gone: membership is exact
    ["analyze", str(TM), "--kmax", "20"],
    ["analyze", str(FIB), "--cap-classes", "-1"],
    ["overlaps", str(FIB), "--cap-maps", "-1"],
    ["analyze", '{"alphabet": ["1"], "rules": {"1": ["1"]}}'],  # beta = 1 is not Pisot
    ["analyze", '{"alphabet": ["1", "2"], "rules": {"1": ["2", "2"], "2": ["1", "2", "2", "1"]}}'],
    ["analyze", str(CORPUS)],  # a directory
    ["analyze", str(CORPUS.parents[2] / "README.md")],  # a file that is not JSON
    ["analyze", '{"alphabet": [[1]], "rules": {}}'],  # a letter that is a list
    ["analyze", '{"alphabet": ["1"], "rules": {"1": [[1]]}}'],
    ["overlaps", str(FIB), "--dot", str(CORPUS / "no-such-dir" / "g.dot")],
    ["verify", str(CORPUS / "no-such-dir")],  # a mistyped corpus path
    ["analyze", '{"alphabet": [1, 2], "rules": {"1": [1, 2], "2": [1]}}'],  # numeric letters
])
def test_input_errors_exit_two(argv, capsys):
    try:
        rc = main(argv)
    except SystemExit as e:  # argparse rejects the value itself
        rc = e.code
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_cap_failure_exit_three(monkeypatch, tmp_path, capsys):
    assert main(["analyze", str(FIB), "--cap-classes", "2"]) == 3
    assert "cap" in capsys.readouterr().err
    # The word cap of sigma^n and the tile cap of a patch are caps too: a
    # map cap that lets level 30 through meets the word cap.
    assert main(["msc", str(FIB), "--map-level", "30", "--cap-maps", str(10**13)]) == 3
    assert capsys.readouterr().err == "cap exhausted: rule words exceed cap 1000000\n"
    monkeypatch.setattr(tiling, "_TILE_CAP", 10)
    assert main(["analyze", str(FIB)]) == 3
    assert capsys.readouterr().err == "cap exhausted: patch exceeds tile cap 10\n"
    (tmp_path / FIB.name).write_text(FIB.read_text())
    assert main(["verify", str(tmp_path)]) == 3
    assert capsys.readouterr().out == "fibonacci.json: CAP EXHAUSTED (patch exceeds tile cap 10)\n"
    # The refinement limit of the inclusion disks that prove the Perron
    # root's minimal polynomial: a cap, not a traceback, and verify goes on
    # to the next file.
    monkeypatch.setattr(algebra, "_MAX_STEPS", 0)
    assert main(["analyze", str(TRIB)]) == 3
    assert capsys.readouterr().err == "cap exhausted: the inclusion disks were not proven disjoint\n"
    (tmp_path / TRIB.name).write_text(TRIB.read_text())
    assert main(["verify", str(tmp_path)]) == 3
    assert capsys.readouterr().out == "".join(
        f"{name}: CAP EXHAUSTED (the inclusion disks were not proven disjoint)\n"
        for name in ("fibonacci.json", "tribonacci.json"))


def test_deep_seed_exits_early(capsys):
    # 1->4433, 2->1141, 3->2224, 4->3231 seeds its fixed point at k = 12:
    # msc at level 1 decides without the 4^12-letter words, and analyze
    # stops at the tile cap before it builds the patch.
    quartic = _inline(((4, 4, 3, 3), (1, 1, 4, 1), (2, 2, 2, 4), (3, 2, 3, 1)))
    assert main(["msc", quartic, "--map-level", "1"]) == 0
    capsys.readouterr()
    assert main(["analyze", quartic]) == 3
    assert capsys.readouterr().err == "cap exhausted: patch exceeds tile cap 1000000\n"


def test_long_inline_json_is_parsed(capsys):
    # Inline JSON longer than a file name may be: parsed, not looked up as
    # a path, with the report of the corpus file.
    data = json.loads(FIB.read_text())
    data["metadata"]["name"] = "f" * 300
    text = json.dumps(data)
    assert len(text.encode()) > 255

    def report(source):
        assert main(["analyze", source]) == 0
        out = json.loads(capsys.readouterr().out)
        del out["timings"]
        return out

    assert report(text) == report(str(FIB))


def test_analyze_derives_the_stuck_part_once(monkeypatch, capsys):
    # One distance search into the coincidences per analyze, and one Tarjan
    # run, only when overlap coincidence fails: the verdict, the level n0,
    # the stuck and expansive components and the witness share them.
    counts = Counter()
    for name in ("distances_to", "scc"):
        def counting(*args, name=name, fn=getattr(overlap, name)):
            counts[name] += 1
            return fn(*args)

        monkeypatch.setattr(overlap, name, counting)
    for f, expected in ((FIB, (1, 0)), (TM, (1, 1))):
        counts.clear()
        assert main(["analyze", str(f)]) == 0
        assert (counts["distances_to"], counts["scc"]) == expected
    capsys.readouterr()


def test_analyze_inflates_each_class_once(monkeypatch, capsys):
    counts = Counter()
    inflate = overlap.OverlapClosure._inflate

    def counting(closure, key):
        counts[key] += 1
        return inflate(closure, key)

    monkeypatch.setattr(overlap.OverlapClosure, "_inflate", counting)
    for f in (FIB, TM):  # the witness path runs on Thue-Morse
        counts.clear()
        assert main(["analyze", str(f)]) == 0
        assert counts and max(counts.values()) == 1
    capsys.readouterr()


def test_no_inflation_outlives_a_call(monkeypatch, capsys):
    # Every memo lives on the call's TilingSystem: a second call on the same
    # input inflates as many classes as the first.
    calls = []
    inflate = overlap.OverlapClosure._inflate

    def counting(closure, key):
        calls.append(key)
        return inflate(closure, key)

    monkeypatch.setattr(overlap.OverlapClosure, "_inflate", counting)
    for argv in (["msc", str(CORPUS / "tribonacci.json"), "--map-level", "3"], ["analyze", str(TM)]):
        counts = []
        for _ in range(2):
            calls.clear()
            assert main(argv) == 0
            counts.append(len(calls))
        assert counts[0] == counts[1] > 0, argv
    capsys.readouterr()


def test_write_json_matches_json_dumps():
    values = [
        {}, [], [[]], [{}], {"a": {}, "b": [], "c": [[], {}]},
        "caf\u00e9 \u2603 \U0001f600 \"quoted\" back\\slash\n\ttab\x00",
        {"\u00e9": "k", "b": [True, 1, False, 0, None]},
        [1.0, -0.0, 0.1, 1e300, 2.5e-310, float("nan"), float("inf"), float("-inf"), 10**40, -7],
        (1, (2, 3)), {"z": 0.012, "a": {"y": [1, [2, [3, {}]]]}},
    ]
    for x in values:
        assert cli._write_json(x) == json.dumps(x, indent=2, sort_keys=True), x
    with pytest.raises(TypeError):
        cli._write_json({1, 2})


def test_overlaps_dot_deterministic(tmp_path, capsys):
    d1 = tmp_path / "a.dot"
    d2 = tmp_path / "b.dot"
    assert main(["overlaps", str(TM), "--dot", str(d1)]) == 0
    capsys.readouterr()
    assert main(["overlaps", str(TM), "--dot", str(d2)]) == 0
    capsys.readouterr()
    assert d1.read_bytes() == d2.read_bytes()
    assert b"doublecircle" in d1.read_bytes()


def test_strong_command(capsys):
    assert main(["strong", str(FIB), "--choice", "0,0"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert all(p["status"] == "shared" for p in data["pairs"])


def test_msc_command(capsys):
    assert main(["msc", str(PD), "--map-level", "1"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["verdict"] is True
    assert data["level"] == 1


def test_oracle_dekking_command(capsys):
    assert main(["oracle-dekking", str(PD)]) == 0
    assert json.loads(capsys.readouterr().out) == {"dekking_coincidence": True}
    assert main(["oracle-dekking", str(TM)]) == 0
    assert json.loads(capsys.readouterr().out) == {"dekking_coincidence": False}
    assert main(["oracle-dekking", str(FIB)]) == 2  # not constant length


def test_map_cap_exits_three(tmp_path, capsys):
    # The tile-map cap of the MSC enumeration is a cap like the others:
    # main exits 3, and verify reports it on the file's own line.
    assert main(["analyze", str(FIB), "--cap-maps", "1"]) == 3
    assert capsys.readouterr().err == (
        "cap exhausted: 2 tile maps at level 1 exceed cap 1; lower the level\n")
    (tmp_path / FIB.name).write_text(FIB.read_text())
    assert main(["verify", str(tmp_path), "--cap-maps", "1"]) == 3
    assert capsys.readouterr().out == (
        "fibonacci.json: CAP EXHAUSTED (2 tile maps at level 1 exceed cap 1; lower the level)\n")


@pytest.mark.parametrize("n", [29, 40])
def test_map_cap_counts_before_words(n, capsys):
    # The tile maps of Fibonacci at level n number F(n+2) F(n+1), counted
    # from the rules: the cap names that count instead of stopping at the
    # word cap while sigma^n's words are built.
    fib = [0, 1]
    while len(fib) < n + 3:
        fib.append(fib[-1] + fib[-2])
    assert main(["msc", str(FIB), "--map-level", str(n)]) == 3
    assert capsys.readouterr().err == (
        f"cap exhausted: {fib[n + 2] * fib[n + 1]} tile maps at level {n} exceed cap 100000; "
        "lower the level\n")


def test_verify_small_corpus(tmp_path, capsys):
    for f in (FIB, TM, PD):
        (tmp_path / f.name).write_text(f.read_text())
    assert main(["verify", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 3


def test_verify_continues_past_gate_and_cap_errors(tmp_path, capsys):
    # A non-Pisot file between two good ones is reported on its own line and
    # the file after it is still checked: exit 2.  A cap hit is reported the
    # same way: exit 3 when nothing worse happened.
    for f in (FIB, CORPUS / "s112.json"):
        (tmp_path / f.name).write_text(f.read_text())
    (tmp_path / "np.json").write_text(json.dumps({
        "alphabet": ["1", "2"], "rules": {"1": ["1", "2"], "2": ["1", "1", "1"]},
        "metadata": {"expected": {"overlap_coincidence": True}}}))
    assert main(["verify", str(tmp_path)]) == 2
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines] == ["fibonacci.json", "np.json", "s112.json"]
    assert lines[0].endswith("PASS") and lines[2].endswith("PASS")
    assert lines[1].startswith("np.json: GATE ERROR (Pisot gate failed: ")
    (tmp_path / "np.json").unlink()
    assert main(["verify", str(tmp_path), "--cap-classes", "2"]) == 3
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2 and all(": CAP EXHAUSTED (" in line for line in lines)


def test_verify_empty_corpus(tmp_path, capsys):
    # A corpus path that exists but holds no *.json file is an input error,
    # not a clean run.
    (tmp_path / "notes.txt").write_text("no corpus here")
    assert main(["verify", str(tmp_path)]) == 2
    assert "error:" in capsys.readouterr().err


def test_verify_wrong_expectation(tmp_path, capsys):
    data = json.loads(FIB.read_text())
    data["metadata"]["expected"]["overlap_coincidence"] = False
    (tmp_path / "wrong.json").write_text(json.dumps(data))
    assert main(["verify", str(tmp_path)]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_verify_corrupted_expectation(tmp_path, capsys):
    data = json.loads(FIB.read_text())
    data["metadata"]["expected"] = {"overlap_coincidence": "yes"}
    (tmp_path / "bad.json").write_text(json.dumps(data))
    assert main(["verify", str(tmp_path)]) == 2
    assert "FIXTURE ERROR" in capsys.readouterr().out


def test_verify_metadata_not_an_object(tmp_path, capsys):
    data = json.loads(FIB.read_text())
    data["metadata"] = [data["metadata"]]
    (tmp_path / "listed.json").write_text(json.dumps(data))
    assert main(["verify", str(tmp_path)]) == 2
    assert "FIXTURE ERROR" in capsys.readouterr().out


# -- help and usage errors ---------------------------------------------------------
#
# The bytes these printed when every call built the parsers of all commands,
# at a terminal width of 80 columns.

_TOP_USAGE = "usage: pisotile [-h] {analyze,overlaps,strong,msc,verify,oracle-dekking} ...\n"
_USAGE = {
    "analyze": (
        "usage: pisotile analyze [-h] [--cap-classes CAP_CLASSES] [--cap-maps CAP_MAPS]\n"
        "                        file\n"),
    "overlaps": (
        "usage: pisotile overlaps [-h] [--dot DOT] [--cap-classes CAP_CLASSES]\n"
        "                         [--cap-maps CAP_MAPS]\n"
        "                         file\n"),
    "strong": (
        "usage: pisotile strong [-h] [--map-level MAP_LEVEL] [--choice CHOICE]\n"
        "                       [--cap-classes CAP_CLASSES] [--cap-maps CAP_MAPS]\n"
        "                       file\n"),
    "msc": (
        "usage: pisotile msc [-h] [--map-level MAP_LEVEL] [--cap-classes CAP_CLASSES]\n"
        "                    [--cap-maps CAP_MAPS]\n"
        "                    file\n"),
    "verify": (
        "usage: pisotile verify [-h] [--cap-classes CAP_CLASSES] [--cap-maps CAP_MAPS]\n"
        "                       [corpus]\n"),
    "oracle-dekking": "usage: pisotile oracle-dekking [-h] file\n",
}
_HELP_H = "  -h, --help            show this help message and exit\n"
_CAPS_HELP = "  --cap-classes CAP_CLASSES\n  --cap-maps CAP_MAPS\n"
_FILE_HELP = "\npositional arguments:\n  file\n\noptions:\n" + _HELP_H
_HELP = {
    "": _TOP_USAGE + (
        "\n"
        "Exact overlap-coincidence and strong-coincidence analysis of one-dimensional\n"
        "Pisot substitution tilings\n"
        "\n"
        "positional arguments:\n"
        "  {analyze,overlaps,strong,msc,verify,oracle-dekking}\n"
        "    analyze             full pipeline with equivalence check\n"
        "    overlaps            overlap graph, verdict, and DOT export\n"
        "    strong              strong coincidence for one tile map\n"
        "    msc                 multiple strong coincidence of level n\n"
        "    verify              run the corpus and check expectations\n"
        "    oracle-dekking      column coincidence oracle (constant-length\n"
        "                        substitutions)\n"
        "\n"
        "options:\n" + _HELP_H),
    "analyze": _USAGE["analyze"] + _FILE_HELP + _CAPS_HELP,
    "overlaps": _USAGE["overlaps"] + _FILE_HELP
    + "  --dot DOT             write DOT to this path\n" + _CAPS_HELP,
    "strong": _USAGE["strong"] + _FILE_HELP + (
        "  --map-level MAP_LEVEL\n"
        "                        tile-map inflation level n\n"
        "  --choice CHOICE       comma-separated 0-based subtile choices\n") + _CAPS_HELP,
    "msc": _USAGE["msc"] + _FILE_HELP + (
        "  --map-level MAP_LEVEL\n"
        "                        level n (default: computed from the overlap graph)\n")
    + _CAPS_HELP,
    "verify": _USAGE["verify"] + (
        "\n"
        "positional arguments:\n"
        "  corpus                directory of corpus files (default: shipped corpus)\n"
        "\n"
        "options:\n") + _HELP_H + _CAPS_HELP,
    "oracle-dekking": _USAGE["oracle-dekking"] + (
        "\n"
        "positional arguments:\n"
        "  file\n"
        "\n"
        "options:\n"
        "  -h, --help  show this help message and exit\n"),
}
_CHOICES = ("analyze", "overlaps", "strong", "msc", "verify", "oracle-dekking")
_USAGE_ERRORS = [
    ([], _TOP_USAGE + "pisotile: error: the following arguments are required: command\n"),
    # Python 3.13 lists the choices without quotes.
    (["frobnicate"], {
        _TOP_USAGE + "pisotile: error: argument command: invalid choice: 'frobnicate' "
        f"(choose from {', '.join(map(fmt.format, _CHOICES))})\n" for fmt in ("'{}'", "{}")}),
    (["msc"], _USAGE["msc"] + "pisotile msc: error: the following arguments are required: file\n"),
    (["msc", "f", "--map-level", "0"],
     _USAGE["msc"] + "pisotile msc: error: argument --map-level: level must be >= 1, got 0\n"),
    (["strong", "f", "--choice", "a,b"], _USAGE["strong"] + "pisotile strong: error: argument "
     "--choice: choice must be comma-separated integers, got 'a,b'\n"),
    (["analyze", "f", "--cap-classes", "-1"],
     _USAGE["analyze"] + "pisotile analyze: error: argument --cap-classes: must be >= 0, got -1\n"),
    # Reported by the top-level parser, whose usage line still names every
    # command when it was built for msc alone.
    (["msc", "f", "--bogus"], _TOP_USAGE + "pisotile: error: unrecognized arguments: --bogus\n"),
]


@pytest.mark.parametrize("command", _HELP, ids=lambda c: c or "pisotile")
def test_help_bytes(command, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as stop:
        main([command, "--help"] if command else ["--help"])
    assert stop.value.code == 0
    assert capsys.readouterr() == (_HELP[command], "")


@pytest.mark.parametrize("argv, err", _USAGE_ERRORS, ids=lambda a: " ".join(a) or "none")
def test_usage_error_bytes(argv, err, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as stop:
        main(argv)
    assert stop.value.code == 2
    out, got = capsys.readouterr()
    assert out == ""
    assert got in err if isinstance(err, set) else got == err


def test_each_call_builds_its_own_parser(monkeypatch, capsys):
    # Two calls in one process print the same bytes, and each builds its
    # parsers anew: the top-level one and the invoked command's; help
    # builds all seven.  No parser outlives a call.
    built, init = [], argparse.ArgumentParser.__init__

    def counting(parser, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(parser, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    outs = []
    for _ in range(2):
        built.clear()
        assert main(["msc", str(FIB), "--map-level", "2"]) == 0
        outs.append(capsys.readouterr().out)
        assert built == ["pisotile", "pisotile msc"]
    assert outs[0] == outs[1]
    built.clear()
    with pytest.raises(SystemExit):
        main(["--help"])
    capsys.readouterr()
    assert len(built) == 7


GOLDEN = [
    (["msc", "tribonacci", "--map-level", "3"],
     "b1dcf1d85e69bad6d1e09bf9a50cb717a49181921fbd31e2306fee82c6fe0e96"),
    (["msc", "thue_morse", "--map-level", "3"],
     "7efbf2ed11891984fb0015285c249dd71ab39911b26281de968e520b8767a924"),
    (["msc", "fibonacci", "--map-level", "4"],
     "f6a38abe0749b18ad1e8be5852c032072c219431091f3ea712d540b8850e9d1c"),
    (["msc", "s112", "--map-level", "2"],
     "2708c45a683480d3102c9d69468b4b4855c586a2f29e8e1910a350dc2e2209a1"),
    # 1,001 tile maps; and the deepest Fibonacci level the golden set runs.
    (["msc", "tribonacci", "--map-level", "4"],
     "0d738ecfbfe1f7cf38c719087f2d82c35c78b65a1da9414b95f22c7d76e16f7a"),
    (["msc", "fibonacci", "--map-level", "6"],
     "f7bdac075dd3c2e9cb3c0ef3cdb54f3a0641ee579c9cbf06550aaa08e22ac0ec"),
    (["strong", "fibonacci", "--map-level", "2", "--choice", "1,0"],
     "6c350034154568bc4d93df710b4f636228a5f803c9f1b598af6ff732fcaa1be6"),
    (["analyze", "fibonacci"], "ae2d492594ac008cae923996474607b1c0712b8a62109e603fceaf0bc02223ff"),
    (["analyze", "thue_morse"], "b034b107f010716f329017431f0c0b81805b8b3edf32e38c49d9de107fc2cbb0"),
    (["analyze", "period_doubling"],
     "9da5e74e75e434428b8ef7b2aa11b7f1ee1010530ed87af7c5977e38cccf03e1"),
    (["analyze", "s112"], "bf49ad0198e23eef68c7049c2d1adc0d4f04900d590758931684fa07f79e16ac"),
    (["analyze", "1->231,2->323,3->13"],
     "9750e37a179208431fbaa5b50d105fc6c62f62cd843e31f916d4f9db35a2fa44"),
    # Central patches through about six radius rounds.
    (["analyze", "1->2,2->3,3->12"],
     "979e0812f4f89b18abce7b9637d78a4f5a4b2aaae1c68e9d63256952fea2469b"),
    (["analyze", "1->13,2->1,3->2"],
     "6eeb3c5be5be6c9c8d084bcdc7b6111f9dd4f01fef659e4fce87db5d058e1fea"),
    # DOT and JSON with irrational shifts, printed from rational coordinates.
    (["overlaps", "fibonacci"], "b0ec0427e15486bc04d6b243f0ac485215e050286fa57a572e8f53749b5fb7fb"),
    (["overlaps", "thue_morse"], "e34b5800c8e5bd2749d184967fcddd4c265ac1513d48506bef5b2ed72ce85c00"),
    (["overlaps", "s112"], "92024a3fb6a8acb6ea055720fba7e7a3d9179c0292b3c43f4d3ce5c64c0ac65f"),
    (["overlaps", "1->231,2->323,3->13"],
     "e0109e1b4257f8314a39fc2df404c5734c534e37195ee2040366bbf31d6d7224"),
    (["overlaps", "1->13,2->1,3->2"],
     "658b0934244c35be34e3036b082d6330a5e229650a52c3389f3d96e76e2d448e"),
]


def _golden_run(argv, capsys):
    """(exit code, stdout) of a golden command, with the named input."""
    name = argv[1]
    if "->" in name:
        source = _inline(CUBIC_RULES[name][1])
    else:
        source = str(CORPUS / f"{name}.json")
    rc = main([argv[0], source, *argv[2:]])
    return rc, capsys.readouterr().out


def _digest(argv, out):
    # For analyze, with "timings" dropped and the report written again as
    # the CLI writes it.
    if argv[0] == "analyze":
        report = json.loads(out)
        del report["timings"]
        out = json.dumps(report, indent=2, sort_keys=True) + "\n"
    return hashlib.sha256(out.encode()).hexdigest()


@pytest.mark.parametrize("argv, digest", GOLDEN, ids=[" ".join(a) for a, _ in GOLDEN])
def test_golden_output(argv, digest, capsys):
    # The sha256 of stdout as it read before control points moved to
    # integer vectors (for analyze, see _digest); for overlaps, as it read
    # before field elements moved to integer vectors over a denominator.
    rc, out = _golden_run(argv, capsys)
    assert rc == 0
    assert _digest(argv, out) == digest
    # The JSON writer against json.dumps on the whole report, timings of
    # analyze included; overlaps prints its DOT first.
    text = "{" + out.partition("}\n{")[2] if argv[0] == "overlaps" else out
    report = json.loads(text)
    assert cli._write_json(report) + "\n" == text
    assert json.dumps(report, indent=2, sort_keys=True) + "\n" == text


@pytest.mark.parametrize("argv, digest", GOLDEN, ids=[" ".join(a) for a, _ in GOLDEN])
def test_cap_classes_prints_golden_or_exits_three(argv, digest, capsys):
    # A class cap never changes an answer: each run prints the golden bytes
    # or stops with exit code 3.
    printed = []
    for cap in (0, 1, 5, 20, 50):
        rc, out = _golden_run([*argv, "--cap-classes", str(cap)], capsys)
        assert rc in (0, 3), cap
        if rc == 0:
            assert _digest(argv, out) == digest, cap
            printed.append(cap)
    if argv[:2] in (["msc", "fibonacci"], ["msc", "s112"]):
        assert printed  # small caps that suffice


@pytest.mark.parametrize("argv, inflations", [
    (["msc", "tribonacci", "--map-level", "3"], 179),
    (["analyze", "1->231,2->323,3->13"], 315),
], ids=["msc tribonacci 3", "analyze 1->231,2->323,3->13"])
def test_one_inflation_per_mirror_pair(argv, inflations, monkeypatch, capsys):
    # A class (i, j, s) and its mirror (j, i, -s) cost one inflation
    # between them: with each orientation inflated on its own these runs
    # took 358 and 630.  analyze takes 315, three fewer than the mirror
    # pairs its searches reach, as they also stop at the mirrors of
    # classes whose distance is known.
    inflated = []
    inflate = overlap.OverlapClosure._inflate

    def counting(closure, key):
        inflated.append(key)
        return inflate(closure, key)

    monkeypatch.setattr(overlap.OverlapClosure, "_inflate", counting)
    assert _golden_run(argv, capsys)[0] == 0
    assert len(inflated) == inflations
    orbits = {min(key, (b, a, den, tuple(-c for c in v))) for key in inflated
              for a, b, den, v in (key,)}
    assert len(orbits) == inflations


def test_small_class_cap_with_mirrored_pair_tests(capsys):
    # A family tests (i, j) for i < j only.  Its distance searches still
    # stop at the mirrors of the classes whose distance a search found, so
    # a class cap that sufficed when (j, i) was searched as well still
    # does: msc at level 3 of 1->12,2->3,3->1 prints with a cap of 20 (25
    # without the mirrored distances).
    assert main(["msc", _inline(((1, 2), (3,), (1,))), "--map-level", "3",
                 "--cap-classes", "20"]) == 0

"""Smoke test of the benchmark: each workload briefly, untraced and traced.

Checks that every metric named in BENCHMARK.json is printed with its unit
(or, for a layer metric, listed as absent), that no verdict is wrong, and
that the traced runs record spans for every layer that still exists.  Also
checks that the benchmark fails cleanly where the program is missing, and
that bench/pool2.json lists exactly the 2-letter inputs the generator means.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
LAYERS = ("substitution", "tiling", "overlap", "strongcoin", "graphkit")

sys.path.insert(0, str(ROOT / "bench"))
import hostspeed  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402

sys.path.pop(0)

# A few quick inputs per workload; thue_morse takes the witness path.
QUICK = {
    "pisot-sweep": {"thue_morse", "fibonacci"},
    "cubic-closure": {"cubic-231-323-13"},
    "msc-deep": {"s112@2"},
}


def _run(monkeypatch, capsys, workload, trace):
    """run.main in this process on the QUICK inputs of a workload."""
    load = inputs.load_inputs

    def quick(name, seed, timeout_s):
        return [i for i in load(name, seed, timeout_s) if i.id in QUICK[name]]

    monkeypatch.setattr(inputs, "load_inputs", quick)
    rc = run.main(["--workload", workload, "--seed", "7", "--seconds", "1",
                   "--trace", str(trace)])
    lines = capsys.readouterr().out.strip().splitlines()
    assert rc == 0
    return json.loads(lines[-2])["report"], json.loads(lines[-1])


def _check_units(metrics, specs, absent=()):
    units = {m["name"]: m["unit"] for m in specs}
    assert set(metrics) | set(absent) == set(units)
    for name, m in metrics.items():
        assert m["unit"] == units[name], name
        assert isinstance(m["value"], (int, float)), name


def test_workloads_print_every_metric_and_no_wrong_verdict(monkeypatch, capsys):
    span_names, absent = set(), {}
    for workload in QUICK:
        report, result = _run(monkeypatch, capsys, workload, 0)
        assert result["correct"] and result["attempted"] >= 1
        assert report["wrong_verdicts"] == {"value": 0, "unit": "count"}
        assert report["host_speed"]["chunks"] >= hostspeed.MIN_SAMPLES
        _check_units(result["metrics"], SPEC["end_to_end"])

        report, result = _run(monkeypatch, capsys, workload, 1)
        assert result["correct"]
        assert report["wrong_verdicts"]["value"] == 0
        _check_units(result["metrics"], SPEC["per_layer"], report["absent"])
        absent.update(report["absent"])
        for spans in report["self_s_by_input"].values():
            span_names.update(spans)
    for layer in LAYERS:
        names = [m["name"] for m in SPEC["per_layer"] if m["name"].startswith(layer + ".")
                 and m["name"].endswith("_s")]
        if all(n in absent for n in names):
            continue
        assert any(s.startswith(layer + ".") for s in span_names), layer


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for p in SPEC["paths"]:
        shutil.copytree(ROOT / p, tmp_path / p, ignore=shutil.ignore_patterns("__pycache__"))
    cmd = SPEC["command"] + ["--workload", "msc-deep", "--seed", "7", "--seconds", "1",
                             "--trace", "0"]
    proc = subprocess.run([sys.executable if c == "python3" else c for c in cmd],
                          cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_pool_is_every_two_letter_primitive_pisot_substitution():
    assert sorted(inputs.enumerate_pool()) == sorted((a, b) for a, b, _ in inputs.load_pool())

"""Self-test of the two-tree output check ``tests/same_outputs.py``, on every third call of its corpus: a
copy of ``src/`` matches it on every call, and a copy that writes the CSV at 16 significant digits differs
on every sweep and nothing else."""

import shutil

import same_outputs

SRC = same_outputs.ROOT / "src"


def test_copy_matches_and_csv_precision_mutant_differs_on_every_sweep(tmp_path):
    same, mutant = tmp_path / "same" / "src", tmp_path / "mutant" / "src"
    for copy in (same, mutant):
        shutil.copytree(SRC, copy, ignore=shutil.ignore_patterns("__pycache__"))
    scenarios = mutant / "triqubit" / "scenarios.py"
    source = scenarios.read_text(encoding="utf-8")
    assert "%.17g" in source
    scenarios.write_text(source.replace("%.17g", "%.16g"), encoding="utf-8")

    calls = same_outputs.corpus(tmp_path / "inputs")[::3]
    base, copied, mutated = same_outputs.outputs([SRC, same, mutant], calls, tmp_path)
    assert same_outputs.differences(calls, base, copied) == []
    found = same_outputs.differences(calls, base, mutated)
    sweeps = [argv for argv in calls if argv[0] == "sweep"]
    assert len(found) == len(sweeps) > 0
    assert all(line.startswith("sweep ") and "\n  out line " in line for line in found)

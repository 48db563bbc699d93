"""Smoke tests of the hand-run tools under `tools/`, on the smallest budget."""

from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
AB = ROOT / "tools" / "ab.py"


def run_ab(parent: Path, change: Path) -> subprocess.CompletedProcess:
    argv = [sys.executable, str(AB), str(parent), str(change)]
    argv += ["--workload", "ensemble-mid", "--seed", "7", "--rounds", "1"]
    return subprocess.run(argv, capture_output=True, text=True, timeout=300, check=False)


def test_ab_finds_one_tree_identical_to_itself_and_times_it():
    done = run_ab(ROOT / "src", ROOT / "src")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[0] == "ensemble-mid seed 7: 150 inputs, results identical"
    assert lines[-1].startswith("ratio change/parent: median ")
    assert lines[-1].endswith(" of 1 rounds")


def test_ab_names_the_first_input_whose_result_differs(tmp_path):
    # a change that counts one engine run too many alters every report
    shutil.copytree(ROOT / "src" / "leafspan", tmp_path / "leafspan")
    builder = tmp_path / "leafspan" / "builder.py"
    text = builder.read_text()
    assert text.count("engine_runs=engine_runs,") == 1
    builder.write_text(text.replace("engine_runs=engine_runs,", "engine_runs=engine_runs + 1,"))
    done = run_ab(ROOT / "src", tmp_path)
    assert done.returncode == 1, done.stderr
    assert done.stdout.startswith("ensemble-mid seed 7: input 0 (")
    assert done.stdout.rstrip().endswith(") differs")


def test_ab_compares_the_records_inside_a_ledger(tmp_path):
    # a change that lists the base record's vertices in descending order
    # alters only a record inside each report's ledger
    shutil.copytree(ROOT / "src" / "leafspan", tmp_path / "leafspan")
    builder = tmp_path / "leafspan" / "builder.py"
    text = builder.read_text()
    assert text.count("vs = sorted(f.vertices)") == 1
    builder.write_text(
        text.replace("vs = sorted(f.vertices)", "vs = sorted(f.vertices, reverse=True)")
    )
    done = run_ab(ROOT / "src", tmp_path)
    assert done.returncode == 1, done.stderr
    assert done.stdout.startswith("ensemble-mid seed 7: input 0 (")
    assert done.stdout.rstrip().endswith(") differs")

"""Every demo script runs in-process and prints exactly its golden output."""

import runpy
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_all_four_demos_are_found():
    assert [p.name[:3] for p in DEMOS] == ["01_", "02_", "03_", "04_"]


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(path, capsys):
    runpy.run_path(str(path), run_name="__main__")
    out = capsys.readouterr().out
    golden = ROOT / "tests" / "golden" / f"demo-{path.name[:2]}.txt"
    assert out == golden.read_text(encoding="utf-8")
    if path.name.startswith("04_"):
        assert out.endswith("full verification: 108 checks, overall PASS\n")
        # The four tables that satisfy only the pair constraints, printed by word name.
        assert out.splitlines()[3:7] == [
            f"  {{'E01': {a}, 'E10': {-a}, 'E02': {b}, 'E20': {-b}}}  opposite products: False"
            for a in (1, -1) for b in (1, -1)]
        # The seven fallacy steps, flagged from the claim table's verdicts.
        assert out.splitlines()[9:16] == [
            "  [ok     ] decompose E12 into one-side words  (verified)",
            "  [ok     ] decompose E21 into one-side words  (verified)",
            "  [INVALID] substitute E10 -> -E01 as if strict  (refuted)",
            "  [INVALID] substitute E02 -> -E20 as if strict  (refuted)",
            "  [ok     ] recombine the substituted product  (verified)",
            "  [INVALID] conclude E12 = E21, read strictly  (refuted)",
            "  [INVALID] conclude E12 = E21, read on the singlet sector  (refuted)"]

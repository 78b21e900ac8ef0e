"""The output comparison tool (tools/same_outputs.py): one checkout against
itself writes identical files, and any file that differs or exists on one
side only is listed, with the JSON keys or CSV columns that differ, and fails
the comparison."""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tools"))

import same_outputs  # noqa: E402

TINY = {
    "sweep": ["sweep", "--seed", "1", "--trials", "12"],
    "theorem2": ["theorem2", "--seed", "20260826", "--trials", "4"],
    "jg-rank": ["jg-rank", "--n", "4", "--d", "3", "--count", "2", "--seed", "1"],
}


def test_a_checkout_against_itself_writes_identical_files(monkeypatch, capsys):
    monkeypatch.setattr(same_outputs, "COMMANDS", TINY)
    assert same_outputs.main(["--parent", str(ROOT), "--change", str(ROOT)]) == 0
    # records and summary of the trajectory commands, the summary of jg-rank,
    # and every command's standard output
    assert capsys.readouterr().out.splitlines() == ["8 files compared, 0 not identical"]


def test_differing_and_one_sided_files_are_listed(tmp_path, monkeypatch, capsys):
    def run_commands(checkout, commands, out):
        (out / "sweep").mkdir(parents=True)
        (out / "sweep" / "records.csv").write_text(f"trial,side\n0,{checkout.name}\n")
        (out / "sweep" / "summary.json").write_text(f'{{"seed": 1, "side": "{checkout.name}"}}')
        (out / "sweep" / f"{checkout.name}.txt").write_text("")

    monkeypatch.setattr(same_outputs, "run_commands", run_commands)
    assert same_outputs.main(["--parent", str(tmp_path / "parent"),
                              "--change", str(tmp_path / "change")]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "only in change: sweep/change.txt",
        "only in parent: sweep/parent.txt",
        "differs: sweep/records.csv (columns: side)",
        "differs: sweep/summary.json (keys: side)",
        "4 files compared, 4 not identical",
    ]

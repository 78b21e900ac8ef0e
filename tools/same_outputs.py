"""Run a fixed list of CLI commands in two checkouts and compare what they write.

    python3 tools/same_outputs.py --parent DIR --change DIR

DIR is a checkout of each side. Every command of COMMANDS runs as
`python -m spherecon.cli <args> --out <dir>` in its checkout, with that
checkout's src/ first on PYTHONPATH and one BLAS thread, and its standard
output is kept beside the files it writes as stdout.txt. Every file written
on either side is then compared byte for byte. The tool lists each file that
differs or exists on one side only, naming the top-level keys that differ in
a JSON file and the columns that differ in a CSV file, and exits 1 if there
is one, 0 if every file is identical. A command that fails on either side
stops the tool.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

# each command's output directory name and its CLI arguments
COMMANDS = {
    "sweep@1": ["sweep", "--seed", "1", "--trials", "10000"],
    "sweep@20260826": ["sweep", "--seed", "20260826", "--trials", "10000"],
    # acceptance criterion 6's own command, so that its outputs are compared byte for byte
    "theorem2": ["theorem2", "--seed", "20260826", "--trials", "10000"],
    # a second seed of the padded d = 2 turn path: 326 quasi-periodic stops in one lockstep group
    "theorem2@d2": ["theorem2", "--d", "2", "--seed", "7", "--trials", "2000"],
    "rank-table": ["rank-table", "--n", "6", "--d", "2", "--graph", "er", "--edge-prob", "0.57",
                   "--trials", "2000", "--seed", "12345"],
    "audit": ["audit", "--n", "4", "--d", "3", "--count", "20", "--seed", "1"],
    # the audit's escape trials at a second (n, d)
    "audit@4": ["audit", "--n", "5", "--d", "4", "--count", "50", "--seed", "7"],
    "jg-rank": ["jg-rank", "--n", "4", "--d", "3", "--count", "20", "--seed", "1"],
    # points of rank m = 3 with n - m = 5 agents past the first m, where n = 4 has at most one
    "jg-rank@8": ["jg-rank", "--n", "8", "--d", "3", "--count", "20", "--seed", "2"],
    "pentagon": ["pentagon"],
}
THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def run_commands(checkout: Path, commands: dict, out: Path):
    """Run each command in the checkout, writing to out/<name>/."""
    src = str(checkout.resolve() / "src")
    env = {**os.environ, **dict.fromkeys(THREADS, "1"),
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    for name, args in commands.items():
        target = out / name
        proc = subprocess.run([sys.executable, "-m", "spherecon.cli", *args, "--out", str(target)],
                              cwd=checkout, env=env, capture_output=True, text=True)
        if proc.returncode != 0:
            raise RuntimeError(f"{checkout}: {' '.join(args)} exited {proc.returncode}\n"
                               f"{proc.stderr}")
        target.mkdir(parents=True, exist_ok=True)
        (target / "stdout.txt").write_text(proc.stdout)


def written(root: Path) -> set:
    return {path.relative_to(root).as_posix() for path in root.rglob("*") if path.is_file()}


def _fields(path: Path) -> dict:
    """A JSON object's top-level values, each as canonical JSON, or a CSV
    file's columns, each as its list of values; empty for other files."""
    if path.suffix == ".json":
        obj = json.loads(path.read_text())
        if isinstance(obj, dict):
            return {k: json.dumps(v, sort_keys=True) for k, v in obj.items()}
    elif path.suffix == ".csv":
        with open(path, newline="") as fh:
            header, *rows = list(csv.reader(fh)) or [[]]
        return {name: [row[i:i + 1] for row in rows] for i, name in enumerate(header)}
    return {}


def _named(parent: Path, change: Path) -> str:
    """" (keys: ...)" or " (columns: ...)" naming the JSON keys or CSV columns
    whose values differ between the two files, or "" if none is found."""
    ours, theirs = _fields(parent), _fields(change)
    names = [k for k in {**ours, **theirs} if ours.get(k) != theirs.get(k)]
    kind = "keys" if parent.suffix == ".json" else "columns"
    return f" ({kind}: {', '.join(names)})" if names else ""


def differing(parent: Path, change: Path) -> list:
    """One line for each file under either root that is not byte-identical
    under the other, in path order: "only in <side>: <file>" or "differs:
    <file>", the latter with the JSON keys or CSV columns that differ."""
    ours, theirs = written(parent), written(change)
    found = []
    for name in sorted(ours | theirs):
        if name not in theirs:
            found.append(f"only in parent: {name}")
        elif name not in ours:
            found.append(f"only in change: {name}")
        elif (parent / name).read_bytes() != (change / name).read_bytes():
            found.append(f"differs: {name}{_named(parent / name, change / name)}")
    return found


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", type=Path, required=True)
    p.add_argument("--change", type=Path, required=True)
    args = p.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="same_outputs_") as work:
        outs = {side: Path(work) / side for side in ("parent", "change")}
        for side, out in outs.items():
            run_commands(getattr(args, side), COMMANDS, out)
        found = differing(outs["parent"], outs["change"])
        for line in found:
            print(line)
        total = len(written(outs["parent"]) | written(outs["change"]))
    print(f"{total} files compared, {len(found)} not identical")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())

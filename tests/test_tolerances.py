"""The tolerance table is the single source of numerical thresholds."""

import pathlib
import re

import spherecon
from spherecon import tolerances

SRC = pathlib.Path(spherecon.__file__).parent
LITERAL = re.compile(r"\d(\.\d+)?e-\d+")


def test_no_tolerance_literal_outside_the_table():
    found = [f"{path.name}:{k}: {line.strip()}"
             for path in sorted(SRC.glob("*.py")) if path.name != "tolerances.py"
             for k, line in enumerate(path.read_text().splitlines(), 1)
             if LITERAL.search(line)]
    assert found == []


def test_every_entry_has_its_value_and_a_reason():
    lines = (SRC / "tolerances.py").read_text().splitlines()
    entries = {}
    for k, line in enumerate(lines):
        match = re.fullmatch(r"([A-Z_0-9]+) = (\S+)", line)
        if match:
            assert lines[k - 1].startswith("# "), f"{match[1]} has no reason line"
            entries[match[1]] = float(match[2])
    # the values the constants, defaults and config fields had before the table
    assert entries == {
        "FP_TOL": 1e-12, "MIN_ROW_NORM": 1e-14, "RANK_TOL": 1e-8, "LIMIT_RANK_TOL": 1e-6,
        "CONSENSUS_TOL": 1e-9, "CLASS_TOL": 1e-7, "CERTIFICATE_FP_TOL": 1e-8,
        "A_RESIDUAL_TOL": 1e-9, "NEUTRAL_TOL": 1e-9, "TRACE_TOL": 1e-10,
        "UNIT_NORM_TOL": 1e-9, "PIN_TOL": 1e-14, "AUDIT_PERTURBATION": 1e-6,
        # added with the padded lockstep kernel; no value before it
        "STEP_FILTER_MARGIN": 1e-9,
        # added with the relative-equilibrium stop; no value before it
        "RE_FIT_TOL": 1e-10, "RE_STEP_FLOOR": 1e-6, "RE_ORBIT_MARGIN": 1e-3,
        # added with the quasi-periodic stop; no value before it
        "QP_EXCURSION": 0.1, "QP_RETURN_TOL": 1e-2, "QP_STEP_FLOOR": 1e-4,
        "QP_NEUTRAL_BAND": 3e-4, "QP_EXPONENT_MARGIN": 6e-4,
    }
    assert all(getattr(tolerances, name) == value for name, value in entries.items())

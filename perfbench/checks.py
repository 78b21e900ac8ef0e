"""Checks of the program's outputs.

Every check returns a list of failure messages; an empty list means the
output passed. The checks test properties the method must have, and compare
against computations made here with plain numpy (the projected iteration,
ranks, circulant spectra, finite differences), never against
a stored copy of an earlier output.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os

import numpy as np

FP_TOL = 1e-12          # the experiment commands' default fixed-point tolerance
CONSENSUS_TOL = 1e-9    # their default consensus tolerance (pairwise dots)
RANK_TOL = 1e-6         # their default relative rank tolerance for limits
PIN_RANK_TOL = 1e-8     # the relative rank tolerance of the fixed-point pinning
SPEC_TOL = 1e-9
POTENTIAL_TOL = 1e-10
NULL_TOL = 1e-8
FD_TOL = 1e-6
FD_STEP = 1e-6
REF_MAX_ITER = 100_000  # the commands' default max_iter


def read_outputs(out_dir):
    """(records as dicts, summary dict) written by an experiment command."""
    records = []
    path = os.path.join(out_dir, "records.csv")
    if os.path.exists(path):
        with open(path, newline="") as fh:
            records = list(csv.DictReader(fh))
    with open(os.path.join(out_dir, "summary.json")) as fh:
        summary = json.load(fh)
    return records, summary


def derive_seed(master_seed, *key):
    """The per-trial seed of the experiment harness: 64 bits drawn from
    numpy's SeedSequence keyed by (master seed, trial, stream)."""
    state = np.random.SeedSequence([int(master_seed), *map(int, key)]).generate_state(2)
    return (int(state[0]) << 32) | int(state[1])


def matrix_hash(entries):
    return hashlib.sha256(np.ascontiguousarray(entries).tobytes()).hexdigest()[:12]


# ---------------------------------------------------------------------------
# plain-numpy references
# ---------------------------------------------------------------------------

def project_rows(z):
    return z / np.linalg.norm(z, axis=1)[:, None]


def iterate_to_limit(m, x, fp_tol=FP_TOL, max_iter=REF_MAX_ITER):
    """x <- normalize(M x) until ||step||_F <= fp_tol; returns (limit,
    converged)."""
    for _ in range(max_iter + 1):
        nxt = project_rows(m @ x)
        if np.linalg.norm(nxt - x) <= fp_tol:
            return x, True
        x = nxt
    return x, False


def classify(x):
    """(class, rank) with the harness's meaning: consensus when every pairwise
    dot product is within CONSENSUS_TOL of 1, else by the numerical rank."""
    if (x @ x.T).min() >= 1.0 - CONSENSUS_TOL:
        return "consensus", 1
    s = np.linalg.svd(x, compute_uv=False)
    rank = int(np.sum(s > RANK_TOL * s[0]))
    return ("antipodal" if rank == 1 else "higher-rank"), rank


def circulant_spectrum(row):
    """Eigenvalues of the reduced matrix at the planar regular n-gon under
    circulant symmetric weights with first row `row`: the DFT of
    row_k cos(2 pi k / n), divided by the common row norm of A X."""
    n = row.size
    cosines = np.cos(2.0 * np.pi * np.arange(n) / n)
    lam = float(row @ cosines)
    return np.fft.fft(row * cosines / lam)


def finite_difference_error(a, x, jacobian, directions):
    """Largest relative error of J v against the central difference of
    x -> normalize(A x) along tangent directions v (agent-major)."""
    n, d = x.shape
    worst = 0.0
    for v in directions:
        plus = project_rows(a @ project_rows(x + FD_STEP * v.reshape(n, d)))
        minus = project_rows(a @ project_rows(x - FD_STEP * v.reshape(n, d)))
        fd = (plus - minus).reshape(-1) / (2.0 * FD_STEP)
        jv = jacobian @ v
        worst = max(worst, float(np.linalg.norm(jv - fd) / np.linalg.norm(jv)))
    return worst


def tangent_directions(x, count, rng):
    """Unit random directions tangent to every agent's sphere."""
    out = []
    for _ in range(count):
        v = rng.standard_normal(x.shape)
        v -= np.einsum("ij,ij->i", v, x)[:, None] * x
        v = v.reshape(-1)
        out.append(v / np.linalg.norm(v))
    return out


def _float(value):
    return float(value) if value not in ("", None) else float("nan")


def _trial_count(records, summary, trials, where):
    fails = []
    if summary.get("errors"):
        fails.append(f"{where}: {len(summary['errors'])} trial errors")
    if len(records) != trials:
        fails.append(f"{where}: {len(records)} records for {trials} trials")
    elif [int(r["trial"]) for r in records] != list(range(trials)):
        fails.append(f"{where}: records are not trials 0..{trials - 1} in order")
    return fails


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def check_sweep(records, summary, trials, where="sweep"):
    fails = _trial_count(records, summary, trials, where)
    bad = [r["trial"] for r in records if r["class"] != "consensus"]
    if bad:
        fails.append(f"{where}: trials {bad[:5]} did not reach consensus")
    if summary.get("consensus_fraction") != 1.0:
        fails.append(f"{where}: consensus_fraction {summary.get('consensus_fraction')}")
    delta = summary.get("min_potential_delta")
    if delta is None or delta < -POTENTIAL_TOL:
        fails.append(f"{where}: potential decreased on a symmetric trial ({delta})")
    off = [r["trial"] for r in records
           if not abs(_float(r["spec_radius"]) - 1.0) <= SPEC_TOL]
    if off:
        fails.append(f"{where}: spectral radius at consensus not 1 on trials {off[:5]}")
    return fails


def check_sweep_reference(record, inputs, where="sweep"):
    """Run the plain projected iteration on the trial's rebuilt inputs and
    compare the limit's class and rank with the record. `inputs` is a list
    of candidate (weights, start rows); the weights whose hash matches the
    record are the ones the program used."""
    chosen = [(a, x0) for a, x0 in inputs if matrix_hash(a) == record["matrix_hash"]]
    if len(chosen) != 1:
        return [f"{where} trial {record['trial']}: rebuilt weights do not match the record"]
    a, x0 = chosen[0]
    limit, converged = iterate_to_limit(a, x0)
    kind, rank = classify(limit)
    if not converged or (kind, rank) != (record["class"], int(record["rank"])):
        return [f"{where} trial {record['trial']}: reference limit {kind}/rank {rank} "
                f"(converged {converged}) against {record['class']}/rank {record['rank']}"]
    return []


# ---------------------------------------------------------------------------
# theorem2
# ---------------------------------------------------------------------------

def check_theorem2(records, summary, trials, where="theorem2"):
    fails = _trial_count(records, summary, trials, where)
    if summary.get("rank_ge2_count") != 0:
        fails.append(f"{where}: {summary.get('rank_ge2_count')} converged limits of rank >= 2")
    for r in records:
        residual = _float(r["residual_MA"])
        if r["class"] == "nonconverged":
            if not residual > FP_TOL:
                fails.append(f"{where} trial {r['trial']}: non-converged with residual {residual}")
        elif r["class"] not in ("consensus", "antipodal") or int(r["rank"]) != 1:
            fails.append(f"{where} trial {r['trial']}: converged limit {r['class']}/rank {r['rank']}")
        elif not residual <= FP_TOL:
            fails.append(f"{where} trial {r['trial']}: converged with residual {residual}")
    return fails


# ---------------------------------------------------------------------------
# linearize
# ---------------------------------------------------------------------------

def check_linearize_point(point, result, where="linearize"):
    """`point` is a dict built by the benchmark (name, n, d, kind, weights,
    rows, circulant row, tangent directions); `result` holds what the
    program returned for it."""
    name = f"{where} {point['name']}"
    a, x, n, d = point["weights"], point["rows"], point["n"], point["d"]
    fails = []
    own_residual = float(np.linalg.norm(project_rows(a @ x) - x))
    if own_residual > FP_TOL or result["residual"] > FP_TOL:
        fails.append(f"{name}: fixed-point residual {own_residual:.2e} "
                     f"(program {result['residual']:.2e})")
    rho = result["certificate"].spectral_radius
    kind = point["kind"]
    if kind == "consensus":
        if result["certificate"].label != "consensus-neutral" or abs(rho - 1.0) > SPEC_TOL:
            fails.append(f"{name}: {result['certificate'].label}, rho {rho!r}")
    elif d == 2 and kind == "ring":
        # neighbours at angle 2 pi / n have positive dot products: neutral
        if abs(rho - 1.0) > SPEC_TOL:
            fails.append(f"{name}: spectral radius {rho!r}, expected 1")
    if d >= 3 and kind != "consensus" and result["certificate"].label != "unstable-certified":
        fails.append(f"{name}: labelled {result['certificate'].label}")
    if not result["trace"].match:
        fails.append(f"{name}: trace formula {result['trace'].lhs} != {result['trace'].rhs}")
    eig = result["report"].eigenvalues
    if not abs(result["report"].spectral_radius - rho) <= 1e-12 * max(1.0, rho):
        fails.append(f"{name}: differential report and certificate disagree on rho")
    if d == 2 and kind != "consensus":
        ref = circulant_spectrum(point["circulant_row"])
        err = _multiset_distance(eig, ref)
        if err > SPEC_TOL:
            fails.append(f"{name}: reduced spectrum differs from the circulant DFT by {err:.2e}")
        if abs(rho - np.abs(ref).max()) > SPEC_TOL:
            fails.append(f"{name}: rho {rho!r} against DFT {np.abs(ref).max()!r}")
    det = result["determinant"]
    prod = float(np.prod(eig).real)
    if not abs(det.det - prod) <= 1e-8 * abs(prod) or not det.sqrt2_condition:
        fails.append(f"{name}: determinant {det.det!r} against eigenvalue product {prod!r}")
    fd_err = finite_difference_error(a, x, result["report"].jacobian, point["directions"])
    if not fd_err < FD_TOL:
        fails.append(f"{name}: projected Jacobian differs from finite differences by {fd_err:.2e}")
    m = result["m"]
    s = np.linalg.svd(x, compute_uv=False)
    own_m = int(np.sum(s > PIN_RANK_TOL * s[0]))
    if m != own_m:
        fails.append(f"{name}: pinned rank {m}, configuration rank {own_m}")
    if result["nonsym_rank"] != n * m:
        fails.append(f"{name}: non-symmetric Jg rank {result['nonsym_rank']} against n*m = {n * m}")
    if m >= 2:
        rep = result["deficiency"]
        if not rep.satisfied or rep.rank > n * m - m * (m - 1) // 2:
            fails.append(f"{name}: symmetric Jg rank {rep.rank} above bound {rep.bound}")
        if not result["null_residual"] < NULL_TOL:
            fails.append(f"{name}: skew null residual {result['null_residual']:.2e}")
    return fails


def _multiset_distance(values, reference):
    """Largest distance after matching each value to its nearest remaining
    reference value."""
    remaining = list(np.asarray(reference, dtype=complex))
    worst = 0.0
    if len(values) != len(remaining):
        return np.inf
    for v in np.asarray(values, dtype=complex):
        k = int(np.argmin(np.abs(np.asarray(remaining) - v)))
        worst = max(worst, abs(remaining[k] - v))
        remaining.pop(k)
    return worst

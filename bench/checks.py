"""Correctness checks for benchmark ops; they run outside the timed region.

Each check reads the artifacts an op wrote and returns None when they are
correct or a one-line reason when not.  The chain and array checks compare
against Hamiltonians that this file assembles on its own from the physics
formulas, without calling `cahm`.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

REFERENCE_ATOL = 1e-9
CHAIN_RTOL = 1e-9
ROW_SUM_ATOL = 1e-9
SPOT_ATOL = 1e-9
# Rows of a reference CSV kept verbatim; every row enters the column sums.
REFERENCE_ROW_STRIDE = 50


def read_csv(path: Path) -> tuple[list[str], np.ndarray]:
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n").split(",")
        values = np.loadtxt(fh, delimiter=",", ndmin=2)
    return header, values


def csv_digest(path: Path) -> dict:
    """Header, row count, column sums and sums of squares, and every Nth row."""
    header, values = read_csv(path)
    rows = list(range(0, len(values), REFERENCE_ROW_STRIDE))
    if rows[-1] != len(values) - 1:
        rows.append(len(values) - 1)
    return {
        "header": header,
        "rows": len(values),
        "sums": values.sum(axis=0).tolist(),
        "sums_sq": (values**2).sum(axis=0).tolist(),
        "sample": {str(r): values[r].tolist() for r in rows},
    }


def artifact_digest(out_dir: Path) -> dict:
    """Digest of every file an op wrote: CSVs summarized, JSON kept whole."""
    manifest = json.loads((out_dir / "manifest.json").read_text(encoding="utf-8"))
    digest = {"manifest.json": manifest}
    for name in manifest["outputs"]:
        path = out_dir / name
        if name.endswith(".csv"):
            digest[name] = csv_digest(path)
        else:
            digest[name] = json.loads(path.read_text(encoding="utf-8"))
    return digest


def _compare_json(ref, got, where: str) -> str | None:
    if isinstance(ref, dict):
        if not isinstance(got, dict) or set(ref) != set(got):
            return f"{where}: keys differ"
        for k in ref:
            bad = _compare_json(ref[k], got[k], f"{where}.{k}")
            if bad:
                return bad
        return None
    if isinstance(ref, list):
        if not isinstance(got, list) or len(ref) != len(got):
            return f"{where}: lengths differ"
        for i, (r, g) in enumerate(zip(ref, got)):
            bad = _compare_json(r, g, f"{where}[{i}]")
            if bad:
                return bad
        return None
    if isinstance(ref, (int, float)) and not isinstance(ref, bool):
        if isinstance(got, bool) or not isinstance(got, (int, float)):
            return f"{where}: expected a number, got {got!r}"
        if not abs(got - ref) <= REFERENCE_ATOL * max(1.0, abs(ref)):
            return f"{where}: {got!r} differs from reference {ref!r}"
        return None
    return None if ref == got else f"{where}: {got!r} differs from reference {ref!r}"


def check_reference(out_dir: Path, reference: dict) -> str | None:
    """Verbatim op: every artifact value matches the recorded reference within 1e-9."""
    got = artifact_digest(out_dir)
    for name, ref in reference.items():
        if name not in got:
            return f"{name}: missing"
        if name.endswith(".csv"):
            # A column sum moves by more than 1e-9 when any one value does.
            for key in ("header", "rows", "sample"):
                bad = _compare_json(ref[key], got[name][key], f"{name}.{key}")
                if bad:
                    return bad
            for key in ("sums", "sums_sq"):
                diff = np.abs(np.subtract(ref[key], got[name][key]))
                if not np.all(diff <= REFERENCE_ATOL):
                    return f"{name}.{key}: differs from reference by {float(diff.max()):.3e}"
        else:
            bad = _compare_json(ref, got[name], name)
            if bad:
                return bad
    return None


def _finite_numbers(obj, where: str) -> str | None:
    if isinstance(obj, dict):
        for k, v in obj.items():
            bad = _finite_numbers(v, f"{where}.{k}")
            if bad:
                return bad
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            bad = _finite_numbers(v, f"{where}[{i}]")
            if bad:
                return bad
    elif isinstance(obj, float) and not math.isfinite(obj):
        return f"{where}: non-finite value {obj!r}"
    return None


def check_sane(out_dir: Path) -> str | None:
    """Seeded op: probabilities in [0, 1], every value finite, match residuals finite."""
    manifest = json.loads((out_dir / "manifest.json").read_text(encoding="utf-8"))
    for name in manifest["outputs"]:
        path = out_dir / name
        if name.endswith(".csv"):
            _, values = read_csv(path)
            probs = values[:, 1:]
            if not np.all(np.isfinite(values)):
                return f"{name}: non-finite value"
            if np.any(probs < -1e-12) or np.any(probs > 1.0 + 1e-9):
                return f"{name}: probability outside [0, 1]"
        else:
            obj = json.loads(path.read_text(encoding="utf-8"))
            bad = _finite_numbers(obj, name)
            if bad:
                return bad
            if name == "match_report.json" and not obj.get("residuals"):
                return f"{name}: no residuals reported"
    return None


def chain_matrix(target: dict) -> np.ndarray:
    """Open-chain Hamiltonian assembled from digits and index shifts.

    Basis: descending m on each link, leftmost link most significant.
    H = (U/2) sum m_i^2 + (Y/2)[sum (m_{i+1} - m_i)^2 + m_1^2 + m_N^2]
        - (X/2) sum_i (|..m_i+1..><..m_i..| + h.c.)
    """
    m_max, n = target["m_max"], target["n_links"]
    d = 2 * m_max + 1
    dim = d**n
    index = np.arange(dim)
    digits = np.stack([(index // d ** (n - 1 - i)) % d for i in range(n)], axis=1)
    m = (m_max - digits).astype(np.float64)
    diag = 0.5 * target["U"] * (m**2).sum(axis=1)
    charge = (np.diff(m, axis=1) ** 2).sum(axis=1) + m[:, 0] ** 2 + m[:, -1] ** 2
    diag += 0.5 * target["Y"] * charge
    h = np.diag(diag)
    for i in range(n):
        stride = d ** (n - 1 - i)
        lower = index[digits[:, i] < d - 1]
        h[lower, lower + stride] = -0.5 * target["X"]
        h[lower + stride, lower] = -0.5 * target["X"]
    return h


def check_chain(out_dir: Path, reference_eigenvalues: np.ndarray) -> str | None:
    got = np.array(json.loads((out_dir / "spectrum.json").read_text(encoding="utf-8"))["eigenvalues"])
    if got.shape != reference_eigenvalues.shape:
        return f"spectrum.json: {got.size} eigenvalues, expected {reference_eigenvalues.size}"
    norm = float(np.max(np.abs(reference_eigenvalues)))
    err = float(np.max(np.abs(got - reference_eigenvalues)))
    if not err <= CHAIN_RTOL * norm:
        return f"spectrum.json: eigenvalues off by {err:.3e} (||H|| = {norm:.3e})"
    return None


def array_matrix(simulator: dict) -> np.ndarray:
    """Rydberg array Hamiltonian from bit matrices; atom 0 is the most significant bit.

    Covers the custom arrays this benchmark generates: no Delta0 atoms and
    no pair overrides.
    """
    pos = np.array(simulator["positions"], dtype=np.float64)
    n = len(pos)
    dim = 1 << n
    bits = (np.arange(dim)[:, None] >> (n - 1 - np.arange(n))[None, :]) & 1
    dist = np.linalg.norm(pos[:, None, :] - pos[None, :, :], axis=2)
    v = np.triu(simulator["scale"] / np.where(dist > 0, dist, 1.0) ** 6, k=1)
    diag = -simulator["delta"] * bits.sum(axis=1) + np.einsum("bi,ij,bj->b", bits, v, bits)
    h = np.diag(diag.astype(np.complex128))
    for i in range(n):
        flip = np.arange(dim) ^ (1 << (n - 1 - i))
        h[np.arange(dim), flip] += 0.5 * simulator["omega"]
    return h


class ArraySpotCheck:
    """Basis probabilities at a few times from an independent eigh of the array."""

    def __init__(self, config: dict, rows: tuple[int, ...]):
        w, v = np.linalg.eigh(array_matrix(config["simulator"]))
        times = np.linspace(config["times"]["start"], config["times"]["stop"], config["times"]["num"])
        psi0 = np.zeros(len(w), dtype=np.complex128)
        psi0[int(config["initial"], 2)] = 1.0
        c = v.conj().T @ psi0
        self.rows = rows
        self.probs = np.abs(v @ (np.exp(-1j * np.outer(w, times[list(rows)])) * c[:, None])) ** 2

    def __call__(self, out_dir: Path) -> str | None:
        _, values = read_csv(out_dir / "trace.csv")
        if values.shape[1] != self.probs.shape[0] + 1:
            return f"trace.csv: {values.shape[1] - 1} basis columns, expected {self.probs.shape[0]}"
        row_err = float(np.max(np.abs(values[:, 1:].sum(axis=1) - 1.0)))
        if not row_err <= ROW_SUM_ATOL:
            return f"trace.csv: rows sum to 1 only within {row_err:.3e}"
        spot_err = float(np.max(np.abs(values[list(self.rows), 1:] - self.probs.T)))
        if not spot_err <= SPOT_ATOL:
            return f"trace.csv: spot-checked probabilities off by {spot_err:.3e}"
        return None

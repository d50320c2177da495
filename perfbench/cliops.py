"""Running `acdkit` commands and checking what they wrote, independently of the library.

Maps, masks and sweep tables are parsed here with plain NumPy, and AUCs are
recomputed with the rank (Mann-Whitney) formula, so a check does not trust
the code it checks.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

OP_TIMEOUT_S = 150.0


class CheckError(Exception):
    """An output that the benchmark rejects."""


@dataclass(frozen=True)
class Invocation:
    returncode: int
    wall_s: float
    peak_rss_mb: float
    stdout: str
    stderr: str


def run_cli(args: list[str], env: dict, log_dir: Path) -> Invocation:
    """Run one `acdkit` subprocess to completion: wall from spawn to exit, and its ru_maxrss."""
    log_dir.mkdir(parents=True, exist_ok=True)
    out_path, err_path = log_dir / "stdout.txt", log_dir / "stderr.txt"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        started = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "acdkit.cli", *args], stdout=out, stderr=err, env=env
        )
        watchdog = threading.Timer(OP_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Invocation(
        returncode=proc.returncode,
        wall_s=wall,
        peak_rss_mb=usage.ru_maxrss / 1024.0,  # Linux reports KiB
        stdout=out_path.read_text(encoding="utf-8", errors="replace"),
        stderr=err_path.read_text(encoding="utf-8", errors="replace"),
    )


def stdout_pairs(text: str) -> dict[str, str]:
    pairs = {}
    for line in text.splitlines():
        key, sep, value = line.partition("=")
        if sep:
            pairs[key.strip()] = value.strip()
    return pairs


def read_map(header_path: Path, shape: tuple[int, int]) -> np.ndarray:
    """Load a 1-band f32 map written by `detect` and check its shape and values."""
    try:
        header = json.loads(header_path.read_text(encoding="utf-8"))
        payload = (header_path.parent / header["raw"]).read_bytes()
    except (OSError, KeyError, ValueError) as exc:
        raise CheckError(f"unreadable map {header_path}: {exc}") from exc
    dims = (header.get("height"), header.get("width"), header.get("bands"))
    if dims != (shape[0], shape[1], 1):
        raise CheckError(f"map {header_path} has shape {dims}, expected {shape + (1,)}")
    if len(payload) != shape[0] * shape[1] * 4:
        raise CheckError(f"map {header_path} payload holds {len(payload)} bytes")
    values = np.frombuffer(payload, dtype="<f4").reshape(shape).astype(np.float64)
    if not np.all(np.isfinite(values)):
        raise CheckError(f"map {header_path} has non-finite values")
    if values.min() < 0.0:
        raise CheckError(f"map {header_path} has negative values")
    return values


def read_truth(pgm_path: Path) -> np.ndarray:
    """Labels (0/1) of the binary PGM mask `synth` writes: 'P5\\nW H\\n255\\n' + bytes."""
    payload = pgm_path.read_bytes()
    parts = payload.split(b"\n", 3)
    if len(parts) != 4 or parts[0] != b"P5":
        raise CheckError(f"{pgm_path} is not the P5 mask synth writes")
    width, height = (int(v) for v in parts[1].split())
    labels = np.frombuffer(parts[3], dtype=np.uint8)
    if labels.size != width * height:
        raise CheckError(f"{pgm_path} holds {labels.size} pixels, header says {width * height}")
    return (labels.reshape(height, width) != 0).astype(np.uint8)


def rank_auc(scores: np.ndarray, labels: np.ndarray) -> float:
    """P(anomaly score > background score) + 0.5 P(tie), from average ranks."""
    scores = np.asarray(scores, dtype=np.float64).ravel()
    labels = np.asarray(labels).ravel() != 0
    n_pos = int(labels.sum())
    n_neg = labels.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise CheckError("AUC needs both anomaly and background pixels")
    _, inverse, counts = np.unique(scores, return_inverse=True, return_counts=True)
    upper = np.cumsum(counts)
    average_rank = upper - (counts - 1) / 2.0  # 1-based average rank of each tie group
    pos_rank_sum = float(average_rank[inverse[labels]].sum())
    return (pos_rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def check_eval_auc(printed: str, own: float) -> float:
    """`eval` prints the AUC to 6 decimals; it must round from the benchmark's own value."""
    try:
        value = float(printed)
    except (TypeError, ValueError) as exc:
        raise CheckError(f"eval printed no AUC: {printed!r}") from exc
    if abs(value - own) > 5e-7 + 1e-12:
        raise CheckError(f"eval AUC {value} differs from the benchmark's {own:.9f}")
    return value


def read_sweep(table: Path, expected_cells: int) -> list[float]:
    """AUCs of the bottleneck cells of `sweep.csv`; '-' marks a skipped cell."""
    try:
        rows = table.read_text(encoding="utf-8").strip().splitlines()
    except OSError as exc:
        raise CheckError(f"unreadable sweep table {table}: {exc}") from exc
    cells = [c for row in rows[1:] for c in row.split(",")[1:] if c != "-"]
    try:
        aucs = [float(c) for c in cells]
    except ValueError as exc:
        raise CheckError(f"sweep table {table} has a non-numeric cell") from exc
    if len(aucs) != expected_cells:
        raise CheckError(f"sweep table has {len(aucs)} cells, expected {expected_cells}")
    if any(math.isnan(a) or not 0.0 <= a <= 1.0 for a in aucs):
        raise CheckError(f"sweep table {table} has a nan or out-of-range cell: {cells}")
    return aucs

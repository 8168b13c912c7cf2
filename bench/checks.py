"""Independent references and output checks.

References are computed from the benchmark's own generated arrays with
plain numpy float64, never through trajkit: Gram matrices in column
chunks, hallmark series from their defining vectors (the formulas of
``tests/oracles.py``), spectra with ``np.linalg.eigvalsh``, and training
stores parsed from the documented byte layout. Tolerances are those of
``tests/test_acceptance.py``.

Every check returns a list of failure messages; an empty list passes.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import struct
from pathlib import Path

import numpy as np

MAP_TOL = 1e-10  # per cosine-map entry (criterion 2)
OMEGA_TOL = 1e-10  # omega is the mean of map entries
SERIES_ABS_TOL = 1e-9  # degrees or l2 units (criterion 3) ...
SERIES_REL_TOL = 1e-12  # ... or relative, for norms of long vectors
SPECTRUM_TOL = 1e-9  # times max(||M||_F, 1) (criterion 4)
TRACE_TOL = 1e-8  # C/C0 eigenvalue sum vs n, times n (criterion 4)
SLOPE_RANGE = (-1.3, -0.7)  # width alignment log-log slope (criterion 7)
REF_CHUNK = 1 << 16

ANGULAR = (
    "consecutive_updates",
    "lagged_updates",
    "apex_at_init",
    "apex_at_origin",
    "update_vs_position",
    "update_vs_total_displacement",
    "progress_vs_total_displacement",
    "update_vs_displacement_from_init",
)
NORMS = ("param_norm", "dist_from_init", "update_norm")


def _cosine_map(gram: np.ndarray) -> np.ndarray:
    norms = np.sqrt(np.maximum(np.diagonal(gram), 0.0))
    cos = np.clip(gram / np.outer(norms, norms), -1.0, 1.0)
    np.fill_diagonal(cos, 1.0)
    return cos


def _angle(a: np.ndarray, b: np.ndarray) -> float:
    c = float(np.dot(a, b)) / (float(np.linalg.norm(a)) * float(np.linalg.norm(b)))
    return math.degrees(math.acos(max(-1.0, min(1.0, c))))


class Reference:
    """Expected analysis outputs for one trajectory (rows = checkpoints)."""

    def __init__(self, points: np.ndarray):
        n, p = points.shape
        self.n = n
        gram = np.zeros((n, n))
        gram0 = np.zeros((n - 1, n - 1))
        for start in range(0, p, REF_CHUNK):
            x = points[:, start : start + REF_CHUNK].astype(np.float64)
            gram += x @ x.T
            y = x[1:] - x[0]
            gram0 += y @ y.T
        self.matrices = {"K": gram, "K0": gram0, "C": _cosine_map(gram), "C0": _cosine_map(gram0)}
        self.omega = float(np.mean(self.matrices["C"]))
        self.omega0 = float(np.mean(self.matrices["C0"]))
        self.spectra = {k: np.linalg.eigvalsh(m)[::-1] for k, m in self.matrices.items()}
        self.series = _series(points)


def _series(points: np.ndarray) -> dict[str, list[tuple[int, float]]]:
    """Every hallmark series at lag k=1, written out from its definition.

    One pass over t keeps only theta_{t-1..t+1} and a few fixed vectors
    in float64, so a wide trajectory is never converted whole.
    """
    last = points.shape[0] - 1
    th0 = points[0].astype(np.float64)
    total = points[last].astype(np.float64) - th0
    d1 = points[1].astype(np.float64) - th0
    out: dict[str, list[tuple[int, float]]] = {name: [] for name in ANGULAR + NORMS}
    cur, prev_upd = th0, None
    for t in range(last + 1):
        disp = cur - th0
        out["apex_at_origin"].append((t, _angle(cur, th0)))
        out["param_norm"].append((t, float(np.linalg.norm(cur))))
        out["dist_from_init"].append((t, float(np.linalg.norm(disp))))
        if t >= 1:
            out["apex_at_init"].append((t, _angle(disp, d1)))
            out["progress_vs_total_displacement"].append((t, _angle(disp, total)))
        if t == last:
            break
        nxt = points[t + 1].astype(np.float64)
        upd = nxt - cur
        out["update_vs_position"].append((t, _angle(upd, cur)))
        out["update_vs_total_displacement"].append((t, _angle(upd, total)))
        out["update_norm"].append((t, float(np.linalg.norm(upd))))
        if t >= 1:
            consecutive = _angle(upd, prev_upd)
            out["consecutive_updates"].append((t, consecutive))
            out["lagged_updates"].append((t, consecutive))
            out["update_vs_displacement_from_init"].append((t, _angle(upd, disp)))
        cur, prev_upd = nxt, upd
    return out


# --- analysis verbs -------------------------------------------------------


def _read_rows(path: Path) -> list[list[str]]:
    with open(path, newline="") as f:
        return list(csv.reader(f))


def check_map(out: Path, ref: Reference) -> list[str]:
    try:
        rows = _read_rows(out / "map.csv")
        got = np.array([[float(v) for v in r] for r in rows[1:]])
        svg = (out / "map.svg").read_text()
    except (OSError, ValueError) as exc:
        return [f"map: unreadable output: {exc}"]
    fails = []
    if got.shape != (ref.n, ref.n) or len(rows[0]) != ref.n:
        return [f"map: shape {got.shape}, expected {(ref.n, ref.n)}"]
    err = float(np.max(np.abs(got - ref.matrices["C"])))
    if not err <= MAP_TOL:
        fails.append(f"map: max |C - ref| = {err:.3e} > {MAP_TOL}")
    if not svg.startswith("<svg") or svg.count("<rect") != ref.n * ref.n:
        fails.append("map: map.svg does not hold one <rect> per cell")
    return fails


def _close(got: float, want: float) -> bool:
    d = abs(got - want)
    return d <= SERIES_ABS_TOL or d <= SERIES_REL_TOL * abs(want)


def check_hallmarks(out: Path, ref: Reference) -> list[str]:
    fails = []
    try:
        summary = json.loads((out / "summary.json").read_text())
    except (OSError, ValueError) as exc:
        return [f"hallmarks: unreadable summary.json: {exc}"]
    for key, want in (("omega", ref.omega), ("omega0", ref.omega0)):
        got = summary.get(key)
        if not isinstance(got, float) or not abs(got - want) <= OMEGA_TOL:
            fails.append(f"hallmarks: {key} = {got!r}, reference {want!r}")
    for name, want in ref.series.items():
        try:
            rows = _read_rows(out / f"{name}.csv")[1:]
            got = [(int(r[0]), float(r[1])) for r in rows]
        except (OSError, ValueError, IndexError) as exc:
            fails.append(f"hallmarks: {name}: unreadable: {exc}")
            continue
        if [t for t, _ in got] != [t for t, _ in want]:
            fails.append(f"hallmarks: {name}: t-range {[t for t, _ in got][:3]}..., "
                         f"expected {[t for t, _ in want][:3]}...")
            continue
        bad = [(t, g, w) for (t, g), (_, w) in zip(got, want) if not _close(g, w)]
        if bad:
            t, g, w = bad[0]
            fails.append(f"hallmarks: {name}: {len(bad)} points off, first t={t}: {g!r} vs {w!r}")
    return fails


def check_spectra(out: Path, ref: Reference) -> list[str]:
    fails = []
    for key, want in ref.spectra.items():
        try:
            rows = _read_rows(out / f"{key}.csv")
            got = np.array([float(r[0]) for r in rows[1:]])
        except (OSError, ValueError, IndexError) as exc:
            fails.append(f"spectra: {key}: unreadable: {exc}")
            continue
        if rows[0] != [f"eigenvalue_{key}"] or got.shape != want.shape:
            fails.append(f"spectra: {key}: header {rows[0]} / {got.shape[0]} values")
            continue
        tol = SPECTRUM_TOL * max(float(np.linalg.norm(ref.matrices[key])), 1.0)
        err = float(np.max(np.abs(got - want)))
        if not err <= tol:
            fails.append(f"spectra: {key}: max eigenvalue error {err:.3e} > {tol:.3e}")
        if key in ("C", "C0") and not abs(got.sum() - got.size) <= TRACE_TOL * got.size:
            fails.append(f"spectra: {key}: eigenvalues sum to {got.sum()!r}, not {got.size}")
    return fails


# --- generators ------------------------------------------------------------

_DTYPES = {0: "<f4", 1: "<f8", 2: "<f2"}


def read_flat(path: Path) -> np.ndarray:
    """Flattened float64 payload of one TRAJCKPT file, from the byte layout."""
    buf = path.read_bytes()
    if buf[:8] != b"TRAJCKPT":
        raise ValueError(f"{path}: bad magic")
    version, count = struct.unpack_from("<II", buf, 8)
    if version != 1:
        raise ValueError(f"{path}: format version {version}")
    pos = 16
    parts = []
    for _ in range(count):
        (name_len,) = struct.unpack_from("<H", buf, pos)
        pos += 2 + name_len
        code, rank = struct.unpack_from("<BB", buf, pos)
        pos += 2
        dims = struct.unpack_from(f"<{rank}Q", buf, pos)
        pos += 8 * rank
        dt = np.dtype(_DTYPES[code])
        nel = math.prod(dims)
        parts.append(np.frombuffer(buf, dtype=dt, count=nel, offset=pos).astype(np.float64))
        pos += nel * dt.itemsize
    if pos != len(buf):
        raise ValueError(f"{path}: {len(buf) - pos} trailing bytes")
    return np.concatenate(parts)


def store_digest(run_dir: Path) -> str:
    """SHA-256 over the manifest and checkpoint files of one store."""
    h = hashlib.sha256()
    for p in sorted(run_dir.glob("*.trajckpt")) + [run_dir / "manifest.json"]:
        h.update(p.name.encode())
        h.update(p.read_bytes())
    return h.hexdigest()


def check_train(out: Path, variants, epochs: int, digests: dict) -> list[str]:
    """Grid omegas against stores parsed here; stores identical across reps.

    ``digests`` maps variant name to the SHA-256 seen at the first
    repetition of the run and is filled on first use.
    """
    try:
        report = json.loads((out / "grid.json").read_text())
    except (OSError, ValueError) as exc:
        return [f"train: unreadable grid.json: {exc}"]
    fails = []
    for name, _, _ in variants:
        run_dir = out / name
        omega = report.get(name)
        if not isinstance(omega, float) or not math.isfinite(omega):
            fails.append(f"train: {name}: omega {omega!r} is not finite")
            continue
        try:
            manifest = json.loads((run_dir / "manifest.json").read_text())
            pts = np.stack([read_flat(run_dir / e["path"]) for e in manifest["checkpoints"]])
            digest = store_digest(run_dir)
        except (OSError, ValueError, KeyError) as exc:
            fails.append(f"train: {name}: unreadable store: {exc}")
            continue
        if pts.shape[0] != epochs + 1:
            fails.append(f"train: {name}: {pts.shape[0]} checkpoints, expected {epochs + 1}")
        want = float(np.mean(_cosine_map(pts @ pts.T)))
        if not abs(omega - want) <= OMEGA_TOL:
            fails.append(f"train: {name}: omega {omega!r}, reference {want!r}")
        if digests.setdefault(name, digest) != digest:
            fails.append(f"train: {name}: store bytes differ from the first repetition")
    return fails


def check_lemma(out: Path) -> list[str]:
    try:
        report = json.loads((out / "lemma.json").read_text())
    except (OSError, ValueError) as exc:
        return [f"theory lemma: unreadable lemma.json: {exc}"]
    if report.get("all_satisfied") is not True or not report.get("pairs"):
        return ["theory lemma: all_satisfied is not true"]
    return []


def check_eos(out: Path) -> list[str]:
    try:
        points = json.loads((out / "eos.json").read_text())["points"]
        angles = [p["mean_angle_deg"] for p in points]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"theory eos: unreadable eos.json: {exc}"]
    if not angles or any(a is None for a in angles):
        return [f"theory eos: missing mean angles {angles}"]
    crossings = sum(1 for lo, hi in zip(angles, angles[1:]) if (lo < 90.0) != (hi < 90.0))
    if not (angles[0] < 90.0 < angles[-1] and crossings == 1):
        return [f"theory eos: angles {angles} do not cross 90 degrees exactly once"]
    return []


def check_width(out: Path, widths) -> list[str]:
    try:
        curve = json.loads((out / "width.json").read_text())
        got_widths = [p["width"] for p in curve["points"]]
        gaps = [p["one_minus_cos"] for p in curve["points"]]
        coss = [p["cos"] for p in curve["points"]]
        slope = curve["fitted_loglog_slope"]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"theory width: unreadable width.json: {exc}"]
    if got_widths != list(widths):
        return [f"theory width: widths {got_widths}, expected {list(widths)}"]
    if not all(-1.0 <= c <= 1.0 and g == 1.0 - c for c, g in zip(coss, gaps)):
        return [f"theory width: inconsistent cos / 1 - cos pairs {curve['points']}"]
    if min(widths) >= 64:  # the slope statistics hold only at these widths
        if not all(a > b for a, b in zip(gaps, gaps[1:])):
            return [f"theory width: gaps {gaps} do not decrease"]
        if not SLOPE_RANGE[0] <= slope <= SLOPE_RANGE[1]:
            return [f"theory width: slope {slope} outside {SLOPE_RANGE}"]
    elif not math.isfinite(slope):
        return [f"theory width: slope {slope} is not finite"]
    return []

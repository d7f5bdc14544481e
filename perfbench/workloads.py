"""Seeded workloads for the memscat benchmark.

A workload is a fixed list of `memscat` CLI ops (argv lists) plus one output
check per op.  `build` writes the workload's scene files, which is the only
input the program receives besides preset names; the seed sets the lattice
centre jitter and the plane-wave incidence angle.  Checks read the files the
ops wrote and compare them, with tolerances, against values this module
computes on its own from `scipy.special`, so they keep passing when the last
digits of CSV values move.

Sizes are chosen so that one pass takes about two seconds on a 2-core box;
that keeps the extra `tracemalloc` pass (3-7x slower) and several timed
passes inside one short run.
"""

from __future__ import annotations

import csv
import math
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
import scipy.special
import yaml

# sweep_presets: every preset sweep runs at both wavenumbers up to this N
SWEEP_N_MAX = 8
SWEEP_PRESETS = ("far", "moderate", "close")
SWEEP_WAVENUMBERS = (0.6, 3.0)
BOUNDS_N_MAX = 30          # the CLI default of `bounds`

# lattice16: a dense 4x4 lattice where GMRES needs ~90 iterations, so it
# restarts once at the default restart length of 50
LATTICE = dict(n=4, spacing=2.5, radius=1.0, wavenumber=2.0)
LATTICE_N = 10
# issue-sized lattice for field_grid: radius 0.5, spacing 3, k = 1
GRID_LATTICE = dict(n=4, spacing=3.0, radius=0.5, wavenumber=1.0)
GRID_LATTICE_N = 8
GRID_LATTICE_SIZE = 100
FAR_FIELD_ARGS = ("-N", "12", "--xlim", "-6", "18", "--ylim", "-8", "20",
                  "--nx", "200", "--ny", "200")
MAX_JITTER = 0.1
FIELD_SAMPLES = 200
BOUNDARY_SAMPLES = 64      # per cylinder, for the solve check

# check tolerances (measured: gmres vs dense 1e-12, boundary residual 2e-4)
SOLVE_AGREEMENT_RTOL = 1e-8
BOUNDARY_RESIDUAL_BOUND = 1e-3
FIELD_ATOL = 1e-9
FIELD_RTOL = 1e-8
ENVELOPE_RTOL = 1e-10


@dataclass
class Op:
    argv: list[str]
    # (exit code, captured stdout) -> failure reason, or None when correct
    check: Callable[[object, str], str | None]


@dataclass
class Workload:
    ops: list[Op]
    outdir: Path

    def clear_outputs(self) -> None:
        shutil.rmtree(self.outdir, ignore_errors=True)


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------

def lattice_scene(rng: np.random.Generator, n: int, spacing: float,
                  radius: float, wavenumber: float) -> dict:
    """n x n lattice with centres jittered by at most MAX_JITTER and a plane
    wave at a random angle."""
    cylinders = []
    for i in range(n):
        for j in range(n):
            r = MAX_JITTER * rng.uniform()
            t = 2.0 * math.pi * rng.uniform()
            cylinders.append({"center": [spacing * i + r * math.cos(t),
                                         spacing * j + r * math.sin(t)],
                              "radius": radius})
    return {"cylinders": cylinders, "wavenumber": wavenumber,
            "incident": {"type": "plane",
                         "angle": 2.0 * math.pi * rng.uniform()}}


def _write_scene(path: Path, scene: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        yaml.safe_dump(scene, fh, sort_keys=False)


def _preset(name: str, wavenumber: float) -> dict:
    from memscat import presets
    sc = presets.preset_scene(name, wavenumber=wavenumber)
    return {"cylinders": [{"center": list(c.center), "radius": c.radius}
                          for c in sc.cylinders],
            "wavenumber": sc.wavenumber,
            "incident": {"type": "point",
                         "location": list(sc.incident.location)}}


# ---------------------------------------------------------------------------
# independent reference evaluations
# ---------------------------------------------------------------------------

def _cylinders(scene: dict):
    return [(float(c["center"][0]), float(c["center"][1]), float(c["radius"]))
            for c in scene["cylinders"]]


def envelope_bases(scene: dict) -> tuple[float, float]:
    """Bases of gamma1 and gamma2, as the README defines them."""
    cyl = _cylinders(scene)
    inc = scene["incident"]
    src = inc.get("location") if inc["type"] == "point" else None
    g1, g2 = [], []
    d0 = [math.dist((x, y), src) for x, y, _ in cyl] if src else None
    if src:
        g1 += [a / d for (_, _, a), d in zip(cyl, d0)]
        g2 += [a / d for (_, _, a), d in zip(cyl, d0)]
    for p, (xp, yp, ap) in enumerate(cyl):
        for q, (xq, yq, aq) in enumerate(cyl):
            if p == q:
                continue
            d = math.dist((xp, yp), (xq, yq))
            g1.append(ap / (d - aq))
            g2.append(ap * d0[q] / (d * d0[q] - aq * aq) if src else ap / d)
    return max(g1), max(g2)


def total_field(scene: dict, coeffs: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """Incident field plus the multipole sum
    sum_p sum_m phi_m^p (i/4) sqrt(2 pi a_p) J_m(k a_p) H_m(k r_p) e^{i m th_p}
    at exterior points, evaluated with scipy.special."""
    k = float(scene["wavenumber"])
    inc = scene["incident"]
    if inc["type"] == "plane":
        a = float(inc["angle"])
        u = np.exp(1j * k * (pts[:, 0] * math.cos(a) + pts[:, 1] * math.sin(a)))
    else:
        x0, y0 = inc["location"]
        u = 0.25j * scipy.special.hankel1(
            0, k * np.hypot(pts[:, 0] - x0, pts[:, 1] - y0))
    N = (coeffs.shape[1] - 1) // 2
    m = np.arange(-N, N + 1)
    for p, (xc, yc, a) in enumerate(_cylinders(scene)):
        r = np.hypot(pts[:, 0] - xc, pts[:, 1] - yc)
        th = np.arctan2(pts[:, 1] - yc, pts[:, 0] - xc)
        w = coeffs[p] * scipy.special.jv(m, k * a)
        modes = scipy.special.hankel1(m[None, :], k * r[:, None]) \
            * np.exp(1j * m[None, :] * th[:, None])
        u = u + 0.25j * math.sqrt(2.0 * math.pi * a) * (modes @ w)
    return u


def _inside(scene: dict, pts: np.ndarray) -> np.ndarray:
    mask = np.zeros(len(pts), dtype=bool)
    for xc, yc, a in _cylinders(scene):
        mask |= np.hypot(pts[:, 0] - xc, pts[:, 1] - yc) < a * (1.0 + 1e-9)
    return mask


def boundary_residual(scene: dict, coeffs: np.ndarray) -> float:
    """Max |total field| just outside the circles; zero for the exact
    solution (the program's own check, sampled more coarsely)."""
    t = 2.0 * math.pi * np.arange(BOUNDARY_SAMPLES) / BOUNDARY_SAMPLES
    pts = np.concatenate([
        np.stack([xc + a * (1 + 1e-6) * np.cos(t),
                  yc + a * (1 + 1e-6) * np.sin(t)], axis=1)
        for xc, yc, a in _cylinders(scene)])
    return float(np.max(np.abs(total_field(scene, coeffs, pts))))


# ---------------------------------------------------------------------------
# output checks; each returns a failure reason or None
# ---------------------------------------------------------------------------

def _read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _exit_ok(rc) -> str | None:
    return None if rc == 0 else f"exit code {rc!r}, expected 0"


def _check_envelopes(scene: dict, header, rows, n_expected) -> str | None:
    cols = {name: i for i, name in enumerate(header)}
    n = np.array([int(r[cols["N"]]) for r in rows])
    if list(n) != list(n_expected):
        return f"N column {list(n)} != {list(n_expected)}"
    b1, b2 = envelope_bases(scene)
    for name, base in (("gamma1", b1), ("gamma2", b2)):
        got = np.array([float(r[cols[name]]) for r in rows])
        if not np.allclose(got, base ** n.astype(float), rtol=ENVELOPE_RTOL,
                           atol=0.0):
            return f"{name} column differs from {base!r}^N"
    return None


def _sweep_check(outdir: Path, stem: str, ks, n_max: int, surrogate: bool):
    def check(rc, stdout):
        if (bad := _exit_ok(rc)):
            return bad
        for k in ks:
            path = outdir / f"{stem}_sweep_k{k:g}.csv"
            header, rows = _read_csv(path)
            want = ["N", "E", "gamma1", "gamma2"] + (["E1_surrogate"]
                                                     if surrogate else [])
            if header != want:
                return f"{path.name}: header {header}"
            if (bad := _check_envelopes(_preset(stem, k), header, rows,
                                        range(1, n_max + 1))):
                return f"{path.name}: {bad}"
            e = np.array([float(r[1]) for r in rows])
            if not (np.all(np.isfinite(e)) and np.all(e >= 0) and e[-1] < e[0]):
                return f"{path.name}: E is not finite and decreasing overall"
            if surrogate and not np.all(np.isfinite(
                    [float(r[4]) for r in rows])):
                return f"{path.name}: E1_surrogate is not finite"
        return None
    return check


def _bounds_check(outdir: Path, stem: str):
    def check(rc, stdout):
        if (bad := _exit_ok(rc)):
            return bad
        path = outdir / f"{stem}_bounds.csv"
        header, rows = _read_csv(path)
        if header != ["N", "gamma1", "gamma2"]:
            return f"{path.name}: header {header}"
        bad = _check_envelopes(_preset(stem, 0.6), header, rows,
                               range(0, BOUNDS_N_MAX + 1))
        return f"{path.name}: {bad}" if bad else None
    return check


def _read_solution(path: Path, n_cylinders: int, truncation: int) -> np.ndarray:
    """Solution CSV (p,m,re,im) as an (M, 2N+1) array; raises ValueError when
    the rows are not the full (p, m) table in order."""
    header, rows = _read_csv(path)
    want = [(p, m) for p in range(1, n_cylinders + 1)
            for m in range(-truncation, truncation + 1)]
    if header != ["p", "m", "re", "im"] \
            or [(int(r[0]), int(r[1])) for r in rows] != want:
        raise ValueError(f"{path.name}: not the full p,m table")
    vals = np.array([complex(float(r[2]), float(r[3])) for r in rows])
    return vals.reshape(n_cylinders, 2 * truncation + 1)


def _solve_check(scene: dict, path: Path, reference: Path | None):
    M, N = len(scene["cylinders"]), LATTICE_N

    def check(rc, stdout):
        if (bad := _exit_ok(rc)):
            return bad
        if "converged=True" not in stdout:
            return "solve did not report convergence"
        try:
            x = _read_solution(path, M, N)
            ref = None if reference is None else _read_solution(reference, M, N)
        except (OSError, ValueError) as exc:
            return str(exc)
        if not np.all(np.isfinite(x)):
            return f"{path.name}: non-finite coefficients"
        if ref is not None:
            dev = np.linalg.norm(x - ref) / np.linalg.norm(x)
            if not dev <= SOLVE_AGREEMENT_RTOL:
                return f"gmres and dense differ by {dev:.2e} relative"
        res = boundary_residual(scene, x)
        if not res <= BOUNDARY_RESIDUAL_BOUND:
            return f"{path.name}: boundary residual {res:.2e}"
        return None
    return check


class _FieldReference:
    """Solution coefficients of a field op's scene, solved once per run with
    the library (outside any timed or traced pass)."""

    def __init__(self, scene: dict, truncation: int):
        self.scene, self.truncation, self._coeffs = scene, truncation, None

    def coeffs(self) -> np.ndarray:
        if self._coeffs is None:
            from memscat import assemble_system, scene as scene_mod, solve
            sc = scene_mod.scene_from_dict(self.scene)
            op, rhs = assemble_system(sc, self.truncation)
            self._coeffs = solve(op, rhs, backend="dense").solution.data
        return self._coeffs


def _field_check(ref: _FieldReference, path: Path, nx: int, ny: int,
                 rng_seed: int):
    def check(rc, stdout):
        if (bad := _exit_ok(rc)):
            return bad
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        if lines[0] != "x,y,re_total,im_total,abs_total,inside" \
                or len(lines) != nx * ny + 1:
            return f"{path.name}: header or row count is wrong"
        rows = np.random.default_rng(rng_seed).choice(
            nx * ny, size=FIELD_SAMPLES, replace=False)
        fields = [lines[1 + i].split(",") for i in sorted(rows)]
        pts = np.array([[float(f[0]), float(f[1])] for f in fields])
        flag = np.array([f[5] == "1" for f in fields])
        if np.any(flag != _inside(ref.scene, pts)):
            return f"{path.name}: inside flags disagree with the geometry"
        if any(f[2:5] != ["nan"] * 3 for f, ins in zip(fields, flag) if ins):
            return f"{path.name}: interior rows are not nan"
        ext = ~flag
        got = np.array([complex(float(f[2]), float(f[3]))
                        for f, ins in zip(fields, flag) if not ins])
        absv = np.array([float(f[4]) for f, ins in zip(fields, flag)
                         if not ins])
        want = total_field(ref.scene, ref.coeffs(), pts[ext])
        err = np.abs(got - want)
        if not np.all(err <= FIELD_ATOL + FIELD_RTOL * np.abs(want)) \
                or not np.allclose(absv, np.abs(got), rtol=1e-12, atol=0):
            return (f"{path.name}: sampled field values differ by up to "
                    f"{float(np.max(err)):.2e}")
        return None
    return check


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

def _sweep_presets(seed: int, root: Path) -> Workload:
    out = root / "out"
    ops = []
    kargs = [a for k in SWEEP_WAVENUMBERS for a in ("--k", f"{k:g}")]
    for name in SWEEP_PRESETS:
        ops.append(Op(["sweep", name, *kargs, "--n-max", str(SWEEP_N_MAX),
                       "--first-order", "-o", str(out / "sweep")],
                      _sweep_check(out / "sweep", name, SWEEP_WAVENUMBERS,
                                   SWEEP_N_MAX, surrogate=True)))
    ops.append(Op(["sweep", "moderate", "--k", "3", "--n-max",
                   str(SWEEP_N_MAX), "--threads", "2", "-o",
                   str(out / "threads")],
                  _sweep_check(out / "threads", "moderate", (3.0,),
                               SWEEP_N_MAX, surrogate=False)))
    for name in SWEEP_PRESETS:
        ops.append(Op(["bounds", name, "-o", str(out / "bounds")],
                      _bounds_check(out / "bounds", name)))
    return Workload(ops, out)


def _lattice16(seed: int, root: Path) -> Workload:
    scene = lattice_scene(np.random.default_rng(seed), **LATTICE)
    path = root / "lattice.yaml"
    _write_scene(path, scene)
    out = root / "out"
    common = [str(path), "-N", str(LATTICE_N)]
    gm = out / "gmres" / "lattice_solution.csv"
    de = out / "dense" / "lattice_solution.csv"
    ops = [Op(["solve", *common, "--backend", "gmres", "-o", str(gm.parent)],
              _solve_check(scene, gm, None)),
           Op(["solve", *common, "--backend", "dense", "-o", str(de.parent)],
              _solve_check(scene, de, gm))]
    return Workload(ops, out)


def _field_grid(seed: int, root: Path) -> Workload:
    scene = lattice_scene(np.random.default_rng(seed), **GRID_LATTICE)
    path = root / "grid_lattice.yaml"
    _write_scene(path, scene)
    out = root / "out"
    n, s = GRID_LATTICE["n"], GRID_LATTICE["spacing"]
    lo, hi = -2.0 * GRID_LATTICE["radius"] - 1.0, s * (n - 1) + 2.0
    size = GRID_LATTICE_SIZE
    far_ref = _FieldReference(_preset("far", 0.6), 12)
    lat_ref = _FieldReference(scene, GRID_LATTICE_N)
    ops = [Op(["field", "far", *FAR_FIELD_ARGS, "-o", str(out / "far")],
              _field_check(far_ref, out / "far" / "far_field.csv", 200, 200,
                           seed)),
           Op(["field", str(path), "-N", str(GRID_LATTICE_N),
               "--xlim", f"{lo:g}", f"{hi:g}", "--ylim", f"{lo:g}", f"{hi:g}",
               "--nx", str(size), "--ny", str(size), "-o", str(out / "lat")],
              _field_check(lat_ref, out / "lat" / "grid_lattice_field.csv",
                           size, size, seed + 1))]
    return Workload(ops, out)


WORKLOADS = {"sweep_presets": _sweep_presets, "lattice16": _lattice16,
             "field_grid": _field_grid}

# per-layer metrics each workload moves: all are > 0 in its traced pass
_ALL = ("specfun.calls", "specfun.values", "specfun.self_s", "assembly.calls",
        "assembly.blocks", "assembly.self_s", "solver.self_s",
        "solver.dense.calls", "solver.dense.s", "scene.s", "cli.self_s")
MOVES = {
    "sweep_presets": _ALL + ("analysis.sweep.calls", "analysis.sweep.self_s",
                             "analysis.self_s", "output.bytes", "output.s"),
    "lattice16": _ALL + ("solver.gmres.s", "solver.gmres.iterations",
                         "solver.matvec.calls", "solver.matvec.s"),
    "field_grid": _ALL + ("field.points", "field.self_s", "output.bytes",
                          "output.s"),
}


def build(name: str, seed: int, root: Path) -> Workload:
    """Write the workload's inputs under `root` and return its op list."""
    root.mkdir(parents=True, exist_ok=True)
    return WORKLOADS[name](seed, root)

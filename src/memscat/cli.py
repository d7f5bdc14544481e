"""Command-line front end.

    memscat validate SCENE [--echo]
    memscat solve    SCENE -N 12 [--backend dense|gmres|reflections]
                     [--dump-matrix FILE]
    memscat sweep    SCENE --n-min 1 --n-max 25 [--k 0.6 --k 3] [--first-order]
    memscat bounds   SCENE --n-min 0 --n-max 30
    memscat field    SCENE -N 12 --xlim -10 20 --ylim -15 20 --nx 200 --ny 200
    memscat selftest

Only `solve` chooses a backend; `sweep` and `field` solve densely.

SCENE is either a YAML scene file or a preset name (far, moderate, close,
touching).  Artifacts land in --outdir as CSV files plus gnuplot scripts.

Exit codes: 0 success; 1 scene/config rejection; 2 numerical failure
(including running out of memory); 3 I/O failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

import numpy as np

from . import analysis, field, presets, scene as scene_mod, solver
from .assembly import (NORM_L0, NORM_LHALF, TRUNCATION_CAP, assemble_system,
                       dump_system)
from .errors import (CapabilityError, InsufficientPointsError,
                     InteriorPointError, NonConvergenceError,
                     SceneValidationError, SingularSystemError)

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_NUMERICAL = 2
EXIT_IO = 3

_NUMERICAL_ERRORS = (CapabilityError, SingularSystemError, NonConvergenceError,
                     InsufficientPointsError, InteriorPointError,
                     OverflowError, FloatingPointError)


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; config rejections are exit 1 here."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_VALIDATION)


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _truncation_range(args) -> range:
    """N = --n-min .. --n-max; rejects a negative or empty range."""
    if args.n_min < 0:
        raise ValueError(f"--n-min must be >= 0, got {args.n_min}")
    if args.n_max < args.n_min:
        raise ValueError(f"--n-max must be >= --n-min, got --n-min "
                         f"{args.n_min} and --n-max {args.n_max}")
    return range(args.n_min, args.n_max + 1)


def _load_scene(token: str, wavenumber: float | None = None, validate=True):
    """The scene SCENE names, at `wavenumber` if one is given and checked by
    require_valid unless `validate` is false, and the stem of its artifacts."""
    sc = (presets.preset_scene(token) if token in presets.PRESET_NAMES
          else scene_mod.load_scene(token))
    if wavenumber is not None:
        sc = dataclasses.replace(sc, wavenumber=float(wavenumber))
    if validate:
        scene_mod.require_valid(sc)
    return sc, os.path.splitext(os.path.basename(token))[0]


def _solve_scene(args, backend: str, dump_path=None):
    """The checked scene, the stem of its artifacts and its solve at -N by
    `backend`.  The system is dropped on return, so `field` does not hold it
    through field evaluation and output, which set that command's memory
    peak."""
    sc, stem = _load_scene(args.scene, args.wavenumber)
    op, rhs = assemble_system(sc, args.truncation)
    if dump_path:
        dump_system(op, sc, dump_path)
    return sc, stem, solver.solve(op, rhs, backend=backend)


def _outpath(args, name: str) -> str:
    os.makedirs(args.outdir, exist_ok=True)
    return os.path.join(args.outdir, name)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_validate(args) -> int:
    sc, _ = _load_scene(args.scene, args.wavenumber, validate=False)
    violations = scene_mod.validate_scene(sc)
    for v in violations:
        print(f"violation: {v}")
    if not violations:
        print(f"scene ok: {sc.n_cylinders} cylinder(s), k = {sc.wavenumber:g}")
    if args.echo:
        sys.stdout.write(scene_mod.dumps_scene(sc))
    return EXIT_VALIDATION if violations else EXIT_OK


def _cmd_solve(args) -> int:
    sc, stem, res = _solve_scene(args, args.backend, args.dump_matrix)
    if res.diverged:
        print("reflections iteration diverged (update norm grew for 3 "
              "consecutive steps); no solution written", file=sys.stderr)
        return EXIT_NUMERICAL
    path = _outpath(args, f"{stem}_solution.csv")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("p,m,re,im\n")
        N = res.solution.truncation
        for p in range(sc.n_cylinders):
            for m in range(-N, N + 1):
                c = res.solution.get(p, m)
                fh.write(f"{p + 1},{m},{c.real:.16e},{c.imag:.16e}\n")
    print(f"backend={res.backend} iterations={res.iterations} "
          f"residual={res.residual:.3e} converged={res.converged}")
    print(f"wrote {path}")
    return EXIT_OK if res.converged else EXIT_NUMERICAL


def _cmd_sweep(args) -> int:
    # the geometry is checked once, here; the loop checks each k
    sc, stem = _load_scene(args.scene, validate=False)
    violations = scene_mod.geometry_violations(sc)
    if violations:
        raise SceneValidationError("; ".join(violations))
    truncations = _truncation_range(args)
    margin = analysis.REFERENCE_MARGIN
    if args.n_max + margin > TRUNCATION_CAP:
        raise CapabilityError(
            f"--n-max {args.n_max} exceeds the limit --n-max <= "
            f"{TRUNCATION_CAP - margin}: the reference solve runs at "
            f"N = {args.n_max + margin} (n-max + {margin}), and "
            f"N <= {TRUNCATION_CAP}")
    ks = args.k if args.k else [sc.wavenumber]
    # artifacts are named by {k:g}: two values that print alike would
    # write the same files
    swept: dict[str, float] = {}
    for k in ks:
        name = f"{stem}_sweep_k{k:g}"
        if name in swept:
            raise ValueError(f"--k {swept[name]!r} and --k {k!r} would "
                             f"both write {name}.csv")
        swept[name] = k
    # each k is swept on its own; the exit code is the gravest outcome,
    # a numerical failure (2) over a refused k (1)
    status = EXIT_OK
    for name, k in swept.items():
        violations = scene_mod.wavenumber_violations(k)
        for v in violations:
            print(f"error: k = {k:g}: {v}", file=sys.stderr)
        if violations:
            status = max(status, EXIT_VALIDATION)
            continue
        sck = dataclasses.replace(sc, wavenumber=float(k))
        try:
            rep = analysis.convergence_sweep(
                sck, truncations, norm=args.norm,
                include_surrogate=args.first_order)
        except _NUMERICAL_ERRORS as exc:
            print(f"numerical failure at k = {k:g}: {exc}", file=sys.stderr)
            status = EXIT_NUMERICAL
            continue
        csv_path = _outpath(args, f"{name}.csv")
        analysis.write_report_csv(rep, csv_path)
        _write_sweep_plot(_outpath(args, f"{name}.gp"), f"{name}.csv",
                          rep.columns())
        print(f"wrote {csv_path}")
        for curve, fit in rep.rates.items():
            if fit is None:
                print(f"  rate[{curve}]: no fit (too few values between "
                      f"{analysis.FIT_FLOOR:g} and {analysis.FIT_CEILING:g})")
            else:
                print(f"  rate[{curve}]: slope {fit.slope:+.4f} "
                      f"(R^2 {fit.r_squared:.4f}, N {fit.n_lo}..{fit.n_hi})")
        # the note speaks of the first-order surrogate's curve
        if args.first_order:
            bd = analysis.breakdown_check(sck)
            if not bd.first_order_valid:
                print(f"  note: surface gap {bd.gap:g} <= {bd.threshold:g}; "
                      "first-order (single-scattering) rates are suspect "
                      "here")
    return status


def _cmd_bounds(args) -> int:
    sc, stem = _load_scene(args.scene)
    truncations = _truncation_range(args)
    path = _outpath(args, f"{stem}_bounds.csv")
    analysis.write_bounds_csv(sc, truncations, path)
    print(f"wrote {path}")
    return EXIT_OK


def _cmd_field(args) -> int:
    sc, stem, res = _solve_scene(args, "dense")
    if not res.converged:
        print("solver did not converge; no field written", file=sys.stderr)
        return EXIT_NUMERICAL
    xs, ys, U, inside = field.total_field_grid(
        sc, res.solution, args.xlim, args.ylim, args.nx, args.ny)
    csv_path = _outpath(args, f"{stem}_field.csv")
    field.write_field_csv(csv_path, xs, ys, U, inside)
    gp_path = _outpath(args, f"{stem}_field.gp")
    field.write_plot_script(gp_path, f"{stem}_field.csv",
                            title=f"total field, k = {sc.wavenumber:g}")
    print(f"wrote {csv_path}")
    return EXIT_OK


def _write_sweep_plot(path, csv_name, columns):
    """gnuplot script: each of `columns` (CSV columns 2, 3, ...) against N."""
    styles = {"E": "linespoints title 'E(N)'",
              "gamma1": "lines title 'gamma1'",
              "gamma2": "lines title 'gamma2'",
              "E1_surrogate": "points title 'first-order surrogate'"}
    curves = [f"'{csv_name}' every ::1 using 1:{i} with {styles[name]}"
              for i, name in enumerate(columns, start=2)]
    lines = [
        "set datafile separator ','",
        "set logscale y",
        "set xlabel 'N'",
        "set ylabel 'error / envelope'",
        "set format y '10^{%T}'",
        "plot " + ", \\\n     ".join(curves),
    ]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _cmd_selftest(args) -> int:
    failures = 0

    def check(name, dev, tol):
        nonlocal failures
        ok = dev <= tol
        failures += 0 if ok else 1
        print(f"{'ok  ' if ok else 'FAIL'} {name}: max deviation {dev:.3e} "
              f"(tolerance {tol:.0e})")

    from . import specfun
    import scipy.special
    # special-function identities, orders 0..40 at 181 points
    x = np.linspace(0.3, 60.0, 181)
    j = specfun.scaled_to_float(*specfun.bessel_j_grid_scaled(40, x))
    y = specfun.scaled_to_float(*specfun.bessel_y_grid_scaled(40, x))
    dev = float(np.max(np.abs(
        (j[1:] * y[:-1] - j[:-1] * y[1:]) * (np.pi * x / 2.0) - 1.0)))
    check("wronskian J_{m+1} Y_m - J_m Y_{m+1} = 2/(pi x)", dev, 1e-12)

    s = presets.preset_scene("moderate", wavenumber=1.3)
    from .assembly import assemble_raw, pairing_block_quadrature
    blocks = assemble_raw(s, 6)[0].matrix.reshape(3, 13, 3, 13)
    dev = 0.0
    for p in range(3):
        for q in range(3):
            closed = blocks[p, :, q, :]
            quad = pairing_block_quadrature(s, p, q, 6, n_quad=384)
            dev = max(dev, float(np.max(np.abs(closed - quad))))
    check("coupling closed form vs quadrature", dev, 1e-8)

    op, rhs = assemble_system(s, 10)
    rd = solver.solve(op, rhs, backend="dense")
    rg = solver.solve(op, rhs, backend="gmres")
    rr = solver.solve(op, rhs, backend="reflections")
    ref = np.linalg.norm(rd.solution.flat())
    dev = max(np.linalg.norm(rd.solution.flat() - rg.solution.flat()) / ref,
              np.linalg.norm(rd.solution.flat() - rr.solution.flat()) / ref)
    check("dense vs gmres vs reflections", dev, 1e-9)

    pts = np.array([[4.0, 5.0], [-3.0, 2.5], [9.0, -1.0]])
    u_m = field.scattered_field(s, rd.solution, pts)
    u_q = field.single_layer_field_quadrature(s, rd.solution, pts)
    check("multipole field vs quadrature", float(np.max(np.abs(u_m - u_q))),
          1e-8)

    check("J_0 against reference library",
          float(np.max(np.abs(j[0] - scipy.special.j0(x)))), 1e-12)

    if failures:
        print(f"{failures} selftest check(s) failed")
        return EXIT_NUMERICAL
    print("all selftest checks passed")
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument wiring
# ---------------------------------------------------------------------------

def _add_common(p, wavenumber=True, outdir=True):
    p.add_argument("scene", help="scene YAML path or preset name "
                   f"({', '.join(presets.PRESET_NAMES)})")
    if wavenumber:
        p.add_argument("--wavenumber", "-k", dest="wavenumber", type=float,
                       default=None, help="override the scene wavenumber")
    if outdir:
        p.add_argument("--outdir", "-o", default=".",
                       help="artifact directory")


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(prog="memscat",
                 description="Multipole solver for sound-soft multiple "
                             "scattering by circular cylinders")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a scene file")
    _add_common(p, outdir=False)
    p.add_argument("--echo", action="store_true",
                   help="print the normalized scene YAML")
    p.set_defaults(fn=_cmd_validate)

    p = sub.add_parser("solve", help="solve one truncation, write coefficients")
    _add_common(p)
    p.add_argument("-N", "--truncation", type=int, required=True)
    p.add_argument("--backend", choices=sorted(solver.BACKENDS),
                   default="dense")
    p.add_argument("--dump-matrix", default=None,
                   help="also write the assembled system to this file")
    p.set_defaults(fn=_cmd_solve)

    p = sub.add_parser("sweep", help="convergence sweep with envelopes")
    _add_common(p, wavenumber=False)
    p.add_argument("--n-min", type=int, default=1)
    p.add_argument("--n-max", type=int, default=25,
                   help="at most 95: the reference solve takes n-max + "
                        f"{analysis.REFERENCE_MARGIN}, and N <= 100")
    p.add_argument("-k", "--k", action="append", type=float, default=None,
                   help="wavenumber list (repeatable); default: scene value")
    p.add_argument("--norm", choices=[NORM_L0, NORM_LHALF], default=NORM_L0)
    p.add_argument("--threads", type=int, default=1,
                   help="accepted for compatibility and ignored: a sweep "
                        "assembles once and slices, in one thread")
    p.add_argument("--first-order", action="store_true",
                   help="add the first-order truncation surrogate column")
    p.set_defaults(fn=_cmd_sweep)

    p = sub.add_parser("bounds", help="envelope tables without solving")
    _add_common(p, wavenumber=False)
    p.add_argument("--n-min", type=int, default=0)
    p.add_argument("--n-max", type=int, default=30)
    p.set_defaults(fn=_cmd_bounds)

    p = sub.add_parser("field", help="total-field grid CSV + plot script")
    _add_common(p)
    p.add_argument("-N", "--truncation", type=int, required=True)
    p.add_argument("--xlim", type=float, nargs=2, required=True)
    p.add_argument("--ylim", type=float, nargs=2, required=True)
    p.add_argument("--nx", type=_positive_int, default=100)
    p.add_argument("--ny", type=_positive_int, default=100)
    p.set_defaults(fn=_cmd_field)

    p = sub.add_parser("selftest", help="run built-in oracle cross-checks")
    p.set_defaults(fn=_cmd_selftest)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except SceneValidationError as exc:
        print(f"scene rejected: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except _NUMERICAL_ERRORS as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except MemoryError:
        print("numerical failure: out of memory", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(f"i/o failure: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    raise SystemExit(main())

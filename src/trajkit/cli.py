"""Command-line surface.

Verbs: ``map``, ``hallmarks``, ``spectra``, ``theory lemma|eos|width``,
``train``. Every failure writes one machine-readable JSON line to stderr
and exits nonzero: 1 usage error, 2 data error, 3 invariant violation.

Each verb is its own process, so this module imports at its top only
what the parser and the error contract need, and each ``cmd_*`` imports
the modules of its verb when it runs: ``theory`` never loads the store,
Gram or training code, and ``map``/``hallmarks``/``spectra`` never load
the theory or training code.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys
import typing
from pathlib import Path

from . import __version__
from .errors import NoMeasuresRequested, NonFiniteIterate, TrajkitError

if typing.TYPE_CHECKING:
    from .ckptstore import SelectionSpec
    from .trajgen import TrainSpec


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # route argparse failures to exit code 1
        raise UsageError(message)


def _emit_error(code: str, detail: str) -> None:
    sys.stderr.write(json.dumps({"error": code, "detail": detail}) + "\n")


def _parse_origin(text: str) -> int | None:
    """None for the absolute origin, else the checkpoint index."""
    if text == "absolute":
        return None
    if text.startswith("ckpt:"):
        try:
            return int(text[5:])
        except ValueError:
            pass
    raise UsageError(f"--origin must be 'absolute' or 'ckpt:IDX', got {text!r}")


def _selection(args) -> SelectionSpec:
    from .ckptstore import SelectionSpec

    include = tuple(args.select) if args.select else ("**",)
    exclude = tuple(args.exclude) if args.exclude else ()
    return SelectionSpec(include_globs=include, exclude_globs=exclude)


def _at_least(low: int):
    """An argparse type for an integer of at least ``low``, so that a bad
    count fails with the arguments, before any store is opened."""

    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names it in "invalid int value: 'x'"
    return parse


def _add_store_flags(p) -> None:
    p.add_argument("--manifest", required=True)
    p.add_argument("--select", action="append", metavar="GLOB")
    p.add_argument("--exclude", action="append", metavar="GLOB")
    p.add_argument("--threads", type=_at_least(1), default=1)
    p.add_argument(
        "--mem-budget", type=_at_least(0), default=2 << 30, metavar="BYTES",
        help="bounds the Gram pass's ring of n x 4096 float64 chunk buffers: at most "
        "BYTES // (n * 4096 * 8) of them, and at most --threads (--threads - 1 in "
        "hallmarks above one thread), but always one. Outside it, the hallmark series "
        "keep 9 p-length float64 vectors at --k 1 and 2k + 9 above, and a lazy read "
        "stages at most 65536 payload values per checkpoint. Default 2 GiB",
    )


def _ring_slots(args, store) -> int:
    """--threads, lowered to the chunk buffers --mem-budget holds (at least one)."""
    from .kernel import CHUNK

    return max(1, min(args.threads, args.mem_budget // (store.n_points * CHUNK * 8)))


# The values of hallmarks.AngularMeasureKind, then of NormMeasureKind. They
# are spelled out so that building the parser loads no analysis module; a
# test pins them to the enums.
ALL_MEASURES = [
    "consecutive_updates", "lagged_updates", "apex_at_init", "apex_at_origin",
    "update_vs_position", "update_vs_total_displacement", "progress_vs_total_displacement",
    "update_vs_displacement_from_init", "param_norm", "dist_from_init", "update_norm",
]


def build_parser() -> _Parser:
    parser = _Parser(prog="trajkit", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("map", help="trajectory map CSV + SVG heatmap")
    _add_store_flags(p)
    p.add_argument("--origin", default="absolute")
    p.add_argument("--vmin", type=float, default=-1.0)
    p.add_argument("--vmax", type=float, default=1.0)
    p.add_argument("--cell-px", type=int, default=12)
    p.add_argument("--out", required=True)

    p = sub.add_parser("hallmarks", help="quantitative hallmark series + MDS summary")
    _add_store_flags(p)
    p.add_argument(
        "--measure",
        action="append",
        metavar="NAME",
        help=f"repeatable; one of {', '.join(ALL_MEASURES)} or 'all'",
    )
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--out", required=True)

    p = sub.add_parser("spectra", help="eigenvalues of K, K0, C, C0")
    _add_store_flags(p)
    p.add_argument("--out", required=True)

    p = sub.add_parser("theory", help="numerical verification of the theory results")
    tsub = p.add_subparsers(dest="subcommand", required=True)
    for name in ("lemma", "eos", "width"):
        tp = tsub.add_parser(name)
        tp.add_argument("--params", help="JSON parameter file (defaults to the fixture)")
        if name == "width":  # the only sweep that draws random numbers
            tp.add_argument("--seed", type=int)
        tp.add_argument("--out", required=True)

    p = sub.add_parser("train", help="train the MLP generator / hyperparameter grid")
    p.add_argument("--spec", help="JSON train spec (defaults to the fixture)")
    p.add_argument("--out", required=True)
    return parser


def _out_dir(args) -> Path:
    """--out, created by the verb when it writes its first file, so that a
    run that fails before then leaves no directory behind."""
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_json(args, name: str, doc) -> None:
    (_out_dir(args) / name).write_text(json.dumps(doc, indent=2) + "\n")


def cmd_map(args) -> int:
    from .ckptstore import open_store
    from .heatmap import HeatmapStyle, render_svg
    from .kernel import compute_cosine_map, compute_gram, origin_name
    from .report import write_matrix_csv

    sel = _selection(args)
    origin = _parse_origin(args.origin)
    # checked before the store is opened, so a bad style reads and writes nothing
    style = HeatmapStyle(v_min=args.vmin, v_max=args.vmax, cell_px=args.cell_px)
    with open_store(args.manifest) as store:
        gram = compute_gram(store, origin, sel, threads=_ring_slots(args, store))
    cosmap = compute_cosine_map(gram)
    out = _out_dir(args)
    write_matrix_csv(cosmap.values, cosmap.point_labels, out / "map.csv")
    (out / "map.svg").write_text(render_svg(cosmap.values, cosmap.point_labels, style))
    print(json.dumps({"n": cosmap.n, "origin": origin_name(origin), "out": str(out)}))
    return 0


def cmd_hallmarks(args) -> int:
    from .ckptstore import open_store

    # checked before the store is opened, so a bad request reads and writes nothing
    requested = args.measure or []
    if "all" in requested:
        requested = ALL_MEASURES
    if not requested:
        raise NoMeasuresRequested("pass --measure NAME (repeatable) or --measure all")
    for name in requested:
        if name not in ALL_MEASURES:
            raise UsageError(f"unknown measure {name!r}")
    if args.k < 1:
        raise UsageError(f"--k must be >= 1, got {args.k}")
    with open_store(args.manifest) as store:
        return _hallmarks(args, requested, store)


def _hallmarks(args, requested: list[str], store) -> int:
    """The Gram pass for omega and omega0 and the series' stream are two
    reads of the store. At --threads 1 they run in turn; above it, one
    worker streams the series while the calling thread runs the Gram pass
    on the other threads. Either way every value comes from the same call,
    errors rank Gram pass, cosine maps, then series in requested order, and
    nothing is written until every value is computed."""
    from .hallmarks import (
        AngularMeasureKind, NormMeasureKind, angular_series, mds, norm_series, require_points,
    )
    from .kernel import compute_cosine_map, gram_pair
    from .report import AnalysisSummary, write_series_csv

    sel = _selection(args)
    summary = AnalysisSummary(
        manifest_path=str(args.manifest),
        n=store.n_points,
        p=store.selection_dim(sel),
    )
    slots = _ring_slots(args, store)
    kinds = {m.value: m for m in (*AngularMeasureKind, *NormMeasureKind)}
    measures = [kinds[name] for name in requested]
    for measure in measures:  # before any payload is read
        require_points(measure, args.k, store.n_points)

    def all_series():
        return [
            (angular_series if isinstance(m, AngularMeasureKind) else norm_series)(
                store, m, k=args.k, sel=sel
            )
            for m in measures
        ]

    if args.threads == 1:
        gram, gram0 = gram_pair(store, sel, threads=slots)
        series = all_series
    else:
        from concurrent.futures import ThreadPoolExecutor

        # leaving the block joins the worker, also when the Gram pass raises
        with ThreadPoolExecutor(max_workers=1) as pool:
            stream = pool.submit(all_series)
            gram, gram0 = gram_pair(store, sel, threads=min(args.threads - 1, slots))
        series = stream.result
    summary.omega = mds(compute_cosine_map(gram))
    if gram0 is not None:
        summary.omega0 = mds(compute_cosine_map(gram0))
    results = series()
    out = _out_dir(args)
    for name, result in zip(requested, results):
        path = out / f"{name}.csv"
        write_series_csv(result, path)
        summary.series_files[name] = str(path)
    summary.write(out / "summary.json")
    print(json.dumps({"omega": summary.omega, "omega0": summary.omega0, "out": str(out)}))
    return 0


def cmd_spectra(args) -> int:
    from .ckptstore import open_store
    from .report import write_spectrum_csv
    from .spectral import trajectory_spectra

    sel = _selection(args)
    with open_store(args.manifest) as store:
        spectra = trajectory_spectra(store, sel, threads=_ring_slots(args, store))
    out = _out_dir(args)
    for matrix_id, summary in spectra.items():
        write_spectrum_csv(summary, out / f"{matrix_id.value}.csv")
    print(json.dumps({"out": str(out), "n": store.n_points}))
    return 0


def _load_params(args) -> dict:
    if args.params:
        return json.loads(Path(args.params).read_text())
    return {}


def _parameter_file_verb(cmd):
    """Bad values in a --params/--spec file are usage errors, as bad argv is."""

    @functools.wraps(cmd)
    def run(args) -> int:
        try:
            return cmd(args)
        except ValueError as exc:  # JSONDecodeError and the spec validators
            raise UsageError(str(exc)) from exc

    return run


def _fits(value, hint) -> bool:
    """Whether the JSON value ``value`` can stand for a field annotated ``hint``."""
    if dataclasses.is_dataclass(hint):
        return isinstance(value, dict)
    if typing.get_origin(hint) is tuple:
        args = typing.get_args(hint)
        if not isinstance(value, list):
            return False
        if args[-1] is Ellipsis:
            return all(_fits(v, args[0]) for v in value)
        return len(value) == len(args) and all(map(_fits, value, args))
    if isinstance(value, bool):
        return hint is bool
    if hint is float:
        return isinstance(value, (int, float))
    return isinstance(value, hint)


def _checked(params, hints: dict, what: str) -> dict:
    """``params``, once it is a JSON object whose keys all name ``hints``
    and whose values fit them."""
    if not isinstance(params, dict):
        raise UsageError(f"{what} must be a JSON object, got {type(params).__name__}")
    for key, value in params.items():
        if key not in hints:
            raise UsageError(f"{what}: unknown key {key!r}; known: {', '.join(hints)}")
        if not _fits(value, hints[key]):
            hint = hints[key]
            name = str(hint) if typing.get_origin(hint) else hint.__name__
            raise UsageError(f"{what}: {key!r} must be {name}, got {json.dumps(value)}")
    return params


def _fields(cls, **extra) -> dict:
    return {**typing.get_type_hints(cls), **extra}


@_parameter_file_verb
def cmd_theory(args) -> int:
    from . import theory
    from .report import alignment_json

    params = _load_params(args)
    if args.subcommand == "lemma":
        _checked(params, _fields(theory.QuadraticSpec, steps=int), "--params")
        steps = params.pop("steps", theory.LEMMA_STEPS)
        spec = dataclasses.replace(theory.LEMMA_1D_PLAIN, **params)
        try:
            trace = theory.simulate_quadratic(spec, steps)
        except NonFiniteIterate as exc:
            _write_json(args, "lemma.json", {"error": exc.code, "detail": str(exc)})
            raise
        report = theory.lemma_bounds(spec, trace)
        doc = {"all_satisfied": report.all_satisfied, **dataclasses.asdict(report)}
        line = {"pairs": len(report.pairs), "all_satisfied": report.all_satisfied}
    elif args.subcommand == "eos":
        _checked(params, _fields(theory.QuadraticSpec, steps=int, eta_grid=tuple[float, ...]),
                 "--params")
        steps = params.pop("steps", theory.EOS_STEPS)
        grid = params.pop("eta_grid", list(theory.EOS_GRID))
        spec = dataclasses.replace(theory.EOS_BASE, **params)
        points = theory.eos_angle_sweep(spec, grid, steps=steps)
        doc = {"points": [dataclasses.asdict(p) for p in points]}
        line = {"points": len(points)}
    else:
        _checked(params, _fields(theory.WidthSpec), "--params")
        if args.seed is not None:
            params["seed"] = args.seed
        curve = theory.width_alignment(dataclasses.replace(theory.WIDTH_FIXTURE, **params))
        doc = alignment_json(curve)
        line = {"fitted_loglog_slope": doc["fitted_loglog_slope"]}
    _write_json(args, f"{args.subcommand}.json", doc)
    print(json.dumps(line))
    return 0


_GRID_ENTRY = {"name": str, "mu": float, "wd": float}


def _train_spec_from(params) -> TrainSpec:
    from .trajgen import TRAIN_FIXTURE, BlobSpec, TrainSpec

    _checked(params, _fields(TrainSpec), '"train"')
    if "data" in params:
        params["data"] = BlobSpec(**_checked(params["data"], _fields(BlobSpec), '"data"'))
    if "eta_schedule" in params:
        params["eta_schedule"] = tuple(tuple(e) for e in params["eta_schedule"])
    return dataclasses.replace(TRAIN_FIXTURE, **params)


def _grid_variants(grid) -> list[tuple[str, float, float]]:
    variants = []
    for entry in grid:
        _checked(entry, _GRID_ENTRY, "grid entry")
        if set(entry) != set(_GRID_ENTRY):
            raise UsageError(f"grid entry needs {', '.join(_GRID_ENTRY)}: {json.dumps(entry)}")
        name = entry["name"]
        if name in ("", ".", "..") or Path(name).name != name:
            raise UsageError(f"grid entry name must be a plain file name, got {name!r}")
        if any(name == v[0] for v in variants):  # runs and report entries are keyed by name
            raise UsageError(f"grid entry name {name!r} appears twice")
        variants.append((name, float(entry["mu"]), float(entry["wd"])))
    return variants


@_parameter_file_verb
def cmd_train(args) -> int:
    from .trajgen import hyperparameter_grid, train

    payload = json.loads(Path(args.spec).read_text()) if args.spec else {}
    _checked(payload, {"train": dict, "grid": list}, "--spec")
    spec = _train_spec_from(payload.get("train", {}))
    grid = payload.get("grid")
    if grid:
        # each variant's store creates --out; grid.json lands beside them
        report = dict(hyperparameter_grid(spec, _grid_variants(grid), args.out))
        _write_json(args, "grid.json", report)
        print(json.dumps(report))
    else:
        record = train(spec, args.out)
        print(
            json.dumps(
                {"final_loss": record.losses[-1] if record.losses else None,
                 "manifest": record.manifest_path}
            )
        )
    return 0


_DISPATCH = {
    "map": cmd_map,
    "hallmarks": cmd_hallmarks,
    "spectra": cmd_spectra,
    "theory": cmd_theory,
    "train": cmd_train,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _DISPATCH[args.command](args)
    except UsageError as exc:
        _emit_error("UsageError", str(exc))
        return 1
    except TrajkitError as exc:
        _emit_error(exc.code, str(exc))
        return exc.exit_code
    except OSError as exc:
        _emit_error("IoError", str(exc))
        return 2


if __name__ == "__main__":
    sys.exit(main())

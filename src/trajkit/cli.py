"""Command-line surface.

Verbs: ``map``, ``hallmarks``, ``spectra``, ``theory lemma|eos|width``,
``train``. Every failure writes one machine-readable JSON line to stderr
and exits nonzero: 1 usage error, 2 data error, 3 invariant violation.

Each verb is its own process, so this module imports at its top only
what the parser and the error contract need, and each ``cmd_*`` imports
the modules of its verb when it runs: ``theory`` never loads the store,
Gram or training code, and ``map``/``hallmarks``/``spectra`` never load
the theory or training code.

``run`` is the process entry of ``python -m trajkit.cli`` and of the
``trajkit`` script. Once ``main`` returns, every output file is closed
and every thread pool joined, so ``run`` flushes stdout and stderr and
ends the process with ``os._exit``, skipping the interpreter's module
teardown and final garbage collection. ``main`` is the in-process API.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import sys
import typing
from pathlib import Path

from . import __version__
from .errors import NoMeasuresRequested, NonFiniteIterate, OriginOutOfRange, TrajkitError

if typing.TYPE_CHECKING:
    from .ckptstore import SelectionSpec


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # route argparse failures to exit code 1
        raise UsageError(message)


def _emit_error(code: str, detail: str) -> None:
    sys.stderr.write(json.dumps({"error": code, "detail": detail}) + "\n")


def _origin(text: str) -> int | None:
    """An argparse type for --origin: None for ``absolute``, else the
    manifest index IDX of ``ckpt:IDX``."""
    if text == "absolute":
        return None
    if text.startswith("ckpt:"):
        try:
            return int(text[5:])
        except ValueError:
            pass
    raise argparse.ArgumentTypeError(f"must be 'absolute' or 'ckpt:IDX', got {text!r}")


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
    p.add_argument(
        "--threads", type=_at_least(1), default=1, metavar="N",
        help="threads to use; every output is the same for every N. The Gram pass reads on "
        "one thread while the others multiply. Above one thread, hallmarks runs its Gram pass "
        "on a worker while the calling thread streams its series, and the worker helps that "
        "stream once its Gram pass is done. Default 1",
    )
    p.add_argument(
        "--mem-budget", type=_at_least(0), default=2 << 30, metavar="BYTES",
        help="bounds the Gram pass's ring of n x 4096 float64 chunk buffers: at most "
        "BYTES // (n * 4096 * 8) of them, and at most --threads (--threads - 1 in "
        "hallmarks above one thread), but always one. Outside it, the hallmark series "
        "keep 8 p-length float64 vectors at --k 1 and at most 2 min(k, n - 1) + 8 above, "
        "and a lazy read stages at most 65536 payload values per checkpoint. Default 2 GiB",
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
    parser = _Parser(prog="trajkit", description="Trajectory maps, hallmark series and "
                     "spectra of a checkpoint store, the theory checks, and a small trainer.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("map", help="trajectory map CSV + SVG heatmap")
    _add_store_flags(p)
    p.add_argument("--origin", type=_origin, default=None)
    p.add_argument("--vmin", type=float, default=-1.0)
    p.add_argument("--vmax", type=float, default=1.0)
    p.add_argument("--out", required=True)

    p = sub.add_parser("hallmarks", help="quantitative hallmark series + MDS summary")
    _add_store_flags(p)
    p.add_argument(
        "--measure",
        action="append",
        choices=[*ALL_MEASURES, "all"],
        metavar="NAME",
        help=f"repeatable; one of {', '.join(ALL_MEASURES)} or 'all'",
    )
    p.add_argument("--k", type=_at_least(1), default=1)
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
    (_out_dir(args) / name).write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")


def cmd_map(args) -> int:
    from .ckptstore import open_store
    from .heatmap import HeatmapStyle, render_svg
    from .kernel import compute_cosine_map, compute_gram
    from .report import write_matrix_csv

    sel = _selection(args)
    origin = args.origin  # None for the absolute origin, else a manifest index
    # checked before the store is opened, so a bad style reads and writes nothing
    style = HeatmapStyle(v_min=args.vmin, v_max=args.vmax)
    with open_store(args.manifest) as store:
        if origin is not None and origin not in store.indices:
            raise OriginOutOfRange(f"origin index {origin} not in store of {store.n_points} points")
        row = None if origin is None else store.indices.index(origin)
        gram = compute_gram(store, row, sel, threads=_ring_slots(args, store))
    cosmap = compute_cosine_map(gram)
    out = _out_dir(args)
    write_matrix_csv(cosmap.values, cosmap.point_labels, out / "map.csv")
    (out / "map.svg").write_text(render_svg(cosmap.values, cosmap.point_labels, style),
                                  encoding="utf-8")
    name = "absolute" if origin is None else f"ckpt:{origin}"
    print(json.dumps({"n": cosmap.n, "origin": name, "out": str(out)}))
    return 0


def cmd_hallmarks(args) -> int:
    from .ckptstore import open_store

    # checked before the store is opened, so a bad request reads and writes nothing
    requested = args.measure or []
    if "all" in requested:
        requested = ALL_MEASURES
    if not requested:
        raise NoMeasuresRequested("pass --measure NAME (repeatable) or --measure all")
    with open_store(args.manifest) as store:
        return _hallmarks(args, requested, store)


def _hallmarks(args, requested: list[str], store) -> int:
    """The Gram pass for omega and omega0 and the series' stream are two
    reads of the store. At --threads 1 they run in turn; above it, one
    worker runs the Gram pass on the other threads while the calling thread
    streams the step table, and once the Gram pass is done the worker takes
    a part of the stream's products and subtractions until the stream ends.
    Either way every value comes from the same call, errors rank Gram pass,
    cosine maps, then series in requested order, and nothing is written
    until every value is computed."""
    from .hallmarks import (
        AngularMeasureKind, NormMeasureKind, _step_products, angular_series, norm_series,
        require_points,
    )
    from .kernel import compute_cosine_map, gram_pair, mds
    from .report import write_series_csv

    sel = _selection(args)
    p = store.selection_dim(sel)
    slots = _ring_slots(args, store)
    kinds = {m.value: m for m in (*AngularMeasureKind, *NormMeasureKind)}
    measures = [kinds[name] for name in requested]
    for measure in measures:  # before any payload is read
        require_points(measure, args.k, store.n_points)

    def omegas(gram, gram0) -> tuple:
        omega = mds(compute_cosine_map(gram))
        return omega, None if gram0 is None else mds(compute_cosine_map(gram0))

    if args.threads == 1:
        omega, omega0 = omegas(*gram_pair(store, sel, threads=slots))
    else:
        from concurrent.futures import ThreadPoolExecutor

        # leaving the block joins the worker, also when the stream raises
        with ThreadPoolExecutor(max_workers=1) as pool:
            gram_pass = pool.submit(gram_pair, store, sel, threads=min(args.threads - 1, slots))
            try:
                _step_products(store, args.k, sel, pool)  # the series read it from the memo
            finally:  # a stream error ranks after the Gram pass and the cosine maps
                omega, omega0 = omegas(*gram_pass.result())
    results = [
        (angular_series if isinstance(m, AngularMeasureKind) else norm_series)(
            store, m, k=args.k, sel=sel
        )
        for m in measures
    ]
    out = _out_dir(args)
    files = {}
    for name, result in zip(requested, results):
        files[name] = str(out / f"{name}.csv")
        write_series_csv(result, files[name])
    summary = {"manifest_path": str(args.manifest), "n": store.n_points, "p": p, "omega": omega,
               "omega0": omega0, "series_files": files, "tool_version": __version__}
    (out / "summary.json").write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n",
                                      encoding="utf-8")
    print(json.dumps({"omega": omega, "omega0": omega0, "out": str(out)}))
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
    if hint is float:  # an integer past the float range would overflow in the run
        return isinstance(value, float) or (
            isinstance(value, int) and abs(value) <= sys.float_info.max)
    return isinstance(value, hint)


def _checked(params, hints: dict, what: str) -> None:
    """Raises UsageError unless ``params`` is a JSON object whose keys all
    name ``hints`` and whose values fit them."""
    if not isinstance(params, dict):
        raise UsageError(f"{what} must be a JSON object, got {type(params).__name__}")
    for key, value in params.items():
        if key not in hints:
            raise UsageError(f"{what}: unknown key {key!r}; known: {', '.join(hints)}")
        if not _fits(value, hints[key]):
            hint = hints[key]
            name = str(hint) if typing.get_origin(hint) else hint.__name__
            raise UsageError(f"{what}: {key!r} must be {name}, got {json.dumps(value)}")


def _spec(base, doc, what: str, set_by: dict, **extra) -> tuple:
    """The one path from a parameter file to a spec: ``base`` with the
    fields the JSON object ``doc`` names replaced, and the values ``doc``
    gives for the keys of ``extra``. Each key must name a field of ``base``
    or a key of ``extra`` and fit its annotation; a field that holds a
    dataclass takes an object, checked the same way against the field's
    value in ``base``. ``set_by`` maps each key the run sets from elsewhere
    to what sets it: naming one is a usage error, since the run would
    ignore its value."""
    _checked(doc, {**typing.get_type_hints(type(base)), **extra}, what)
    for key in doc:
        if key in set_by:
            raise UsageError(f"{what}: {key!r} is set by {set_by[key]}, so it would be ignored")
    fields = {
        key: _spec(getattr(base, key), value, f'"{key}"', {})[0]
        if dataclasses.is_dataclass(getattr(base, key)) else value
        for key, value in doc.items() if key not in extra
    }
    return dataclasses.replace(base, **fields), {k: v for k, v in doc.items() if k in extra}


def _parameter_file(path) -> object:
    """A --params/--spec file's JSON document, {} without one. Its spec
    refuses a NaN, an Infinity or a number past the float range by name."""
    return json.loads(Path(path).read_bytes()) if path else {}


@_parameter_file_verb
def cmd_theory(args) -> int:
    from . import theory

    params = _parameter_file(args.params)
    if args.subcommand == "lemma":
        spec, extra = _spec(theory.LEMMA_1D_PLAIN, params, "--params", {}, steps=int)
        try:
            trace = theory.simulate_quadratic(spec, extra.get("steps", theory.LEMMA_STEPS))
            report = theory.lemma_bounds(spec, trace)
        except NonFiniteIterate as exc:
            _write_json(args, "lemma.json", {"error": exc.code, "detail": str(exc)})
            raise
        doc = {"all_satisfied": report.all_satisfied, **dataclasses.asdict(report)}
        line = {"pairs": len(report.pairs), "all_satisfied": report.all_satisfied}
    elif args.subcommand == "eos":
        spec, extra = _spec(theory.EOS_BASE, params, "--params", {"eta": "each eta_grid value"},
                            steps=int, eta_grid=tuple[float, ...])
        points = theory.eos_angle_sweep(spec, extra.get("eta_grid", theory.EOS_GRID),
                                        steps=extra.get("steps", theory.EOS_STEPS))
        doc = {"points": [dataclasses.asdict(p) for p in points]}
        line = {"points": len(points)}
    else:
        base, set_by = theory.WIDTH_FIXTURE, {}
        if args.seed is not None:
            base, set_by = dataclasses.replace(base, seed=args.seed), {"seed": "--seed"}
        spec, _ = _spec(base, params, "--params", set_by)
        curve = theory.width_alignment(spec)
        line = {"fitted_loglog_slope": curve.fitted_loglog_slope}
        doc = {"points": [{"width": w, "cos": c, "one_minus_cos": om}
                          for w, c, om in curve.points], **line}
    _write_json(args, f"{args.subcommand}.json", doc)
    print(json.dumps(line))
    return 0


_GRID_ENTRY = {"name": str, "mu": float, "wd": float}
_GRID_REPORT = "grid.json"


def _grid_variants(grid) -> list[tuple[str, float, float]]:
    """The "grid" entries as (name, mu, wd); hyperparameter_grid checks their values."""
    for entry in grid:
        _checked(entry, _GRID_ENTRY, "grid entry")
        if set(entry) != set(_GRID_ENTRY):
            raise UsageError(f"grid entry needs {', '.join(_GRID_ENTRY)}: {json.dumps(entry)}")
        if entry["name"] == _GRID_REPORT:
            raise UsageError(f"grid entry name {_GRID_REPORT!r} is taken by the report "
                             "written beside the variants' stores")
    return [(entry["name"], float(entry["mu"]), float(entry["wd"])) for entry in grid]


@_parameter_file_verb
def cmd_train(args) -> int:
    from .trajgen import TRAIN_FIXTURE, hyperparameter_grid, train

    payload = _parameter_file(args.spec)
    _checked(payload, {"train": dict, "grid": list}, "--spec")
    set_by = dict.fromkeys(("mu", "wd"), 'each "grid" entry') if "grid" in payload else {}
    spec, _ = _spec(TRAIN_FIXTURE, payload.get("train", {}), '"train"', set_by)
    if "grid" in payload:
        # each variant's store creates --out; grid.json lands beside them
        report = dict(hyperparameter_grid(spec, _grid_variants(payload["grid"]), args.out))
        _write_json(args, _GRID_REPORT, report)
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
    except MemoryError as exc:  # a parameter asks for more than the process can map
        _emit_error("OutOfMemory", str(exc))
        return 2


def run(argv=None) -> typing.NoReturn:
    """Runs ``main`` and ends the process with its exit code, without the
    interpreter's teardown. A stdout whose reader has gone is an IoError
    line and exit 2, as a failed write inside a verb is."""
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse's --help and --version
        code = exc.code
    try:
        sys.stdout.flush()
    except OSError as exc:
        _emit_error("IoError", str(exc))
        code = 2
    try:
        sys.stderr.flush()
    except OSError:
        pass  # nowhere left to report it
    os._exit(code)


if __name__ == "__main__":
    run()

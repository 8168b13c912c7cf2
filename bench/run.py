"""trajkit benchmark: the CLI verbs on seeded inputs, checked against numpy.

Usage (from the repository root):

    python3 bench/run.py --workload wide_lazy --seed 1 --seconds 55 --trace 0

``--trace 0`` runs every verb as its own ``python -m trajkit.cli``
process, one at a time (a closed loop with one client), and reports the
end-to-end metrics of BENCHMARK.json: per-verb wall time including
interpreter start (scaled to a fixed CPU pace by probes timed before and
after each sample on the CPUs it ran on), per-verb peak RSS read with
``os.wait4`` from that verb's own process, set-up time and the sum of
the verb times. ``--trace 1`` calls
``trajkit.cli.main`` in-process for the same verbs with spans wrapped
around trajkit's public functions (see tracing.py) and reports the
per-layer metrics. Every output is checked against references computed
here (checks.py). The last stdout line is one JSON object; a record of
the machine, the inputs and every sample goes to
``.bench_results/BENCH_<workload>_seed<seed>_trace<t>.json``.
"""

from __future__ import annotations

import argparse
import gzip
import io
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

VERBS = ("map", "hallmarks", "spectra", "train", "theory")
MIN_ROUNDS = 5  # untraced rounds; the run continues past --seconds to reach it
VERB_MIN_S = 0.5  # within a round a verb repeats until its samples add up to this ...
VERB_MAX_REPS = 3  # ... or it ran this often
# Set-up writes the input store this often before every verb, so that
# set-up samples spread over the run as evenly as the verbs'.
SETUP_REPS = 2
IMPORT_REPS = 7
CHILD_TIMEOUT_S = 150.0
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@dataclass
class Call:
    """One trajkit CLI invocation and the check of what it wrote."""

    argv: list[str]
    out: Path
    check: Callable[[Path], list[str]]
    threads: int = 1  # program threads the invocation runs


class Tally:
    """Attempted and failed verb invocations with the first failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def record(self, call: Call, code: int, stderr: str) -> None:
        self.attempted += 1
        fails = []
        if code != 0:
            fails.append(f"exit code {code}")
        if stderr.strip():
            fails.append(f"stderr: {stderr.strip()[:300]}")
        if not fails:
            fails = call.check(call.out)
        if fails:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(f"{' '.join(call.argv[:2])}: {'; '.join(fails)}")


# --- inputs ----------------------------------------------------------------


def make_inputs(w, seed: int, work: Path):
    """Checkpoints, reference and per-verb calls for one workload and seed."""
    from trajkit import Checkpoint, Dtype, TensorRecord

    import checks
    import workloads

    points = workloads.trajectory(w, seed)
    dtype = Dtype.F32 if w.dtype == "f32" else Dtype.F64
    checkpoints = []
    for i, row in enumerate(points):
        tensors, off = [], 0
        for ti, shape in enumerate(w.shapes):
            nel = math.prod(shape)
            kind = "weight" if len(shape) == 2 else "bias"
            tensors.append(
                TensorRecord(f"layers.{ti // 2}.{kind}", dtype, shape, row[off : off + nel])
            )
            off += nel
        checkpoints.append(Checkpoint(index=i, label=f"step{i}", tensors=tensors))
    ref = checks.Reference(points)

    store = work / "store"
    spec_path = work / "train_spec.json"
    spec_path.write_text(json.dumps(workloads.train_spec(w, seed)))
    width_path = work / "width_params.json"
    width_path.write_text(json.dumps({"widths": list(w.widths)}))
    digests: dict = {}

    def store_flags(threads: int) -> list[str]:
        flags = ["--manifest", str(store / "manifest.json"), "--threads", str(threads)]
        if w.mem_budget is not None:
            flags += ["--mem-budget", str(w.mem_budget)]
        return flags

    def out(name):
        return work / "out" / name

    calls = {
        "map": [Call(["map", *store_flags(w.threads), "--out", str(out("map"))], out("map"),
                     lambda o: checks.check_map(o, ref), w.threads)],
        "hallmarks": [Call(["hallmarks", *store_flags(w.threads), "--measure", "all", "--out",
                            str(out("hallmarks"))], out("hallmarks"),
                           lambda o: checks.check_hallmarks(o, ref), w.threads)],
        "spectra": [Call(["spectra", *store_flags(w.threads), "--out", str(out("spectra"))],
                         out("spectra"), lambda o: checks.check_spectra(o, ref), w.threads)],
        "train": [Call(["train", "--spec", str(spec_path), "--out", str(out("train"))],
                       out("train"),
                       lambda o: checks.check_train(o, workloads.GRID_VARIANTS,
                                                    w.train_epochs, digests))],
        "theory": [
            Call(["theory", "lemma", "--out", str(out("lemma"))], out("lemma"),
                 checks.check_lemma),
            Call(["theory", "eos", "--out", str(out("eos"))], out("eos"), checks.check_eos),
            Call(["theory", "width", "--params", str(width_path), "--seed", str(seed),
                  "--out", str(out("width"))], out("width"),
                 lambda o: checks.check_width(o, w.widths)),
        ],
    }
    # traced run only: the same map at --threads 1, the single-thread Gram baseline
    calls["map_1t"] = [Call(["map", *store_flags(1), "--out", str(out("map_1t"))],
                            out("map_1t"), lambda o: checks.check_map(o, ref))]
    return checkpoints, store, calls


def write_input_store(checkpoints, store: Path) -> float:
    from trajkit import write_store

    shutil.rmtree(store, ignore_errors=True)
    t0 = time.perf_counter()
    write_store(checkpoints, store)
    return time.perf_counter() - t0


# --- untraced: one child process per verb ----------------------------------


class Launcher:
    """Runs commands through launcher.py so wait4 sees each child's own peak RSS."""

    def __init__(self, work: Path):
        self.work = work
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.cpus = sorted(os.sched_getaffinity(0))
        self.proc = subprocess.Popen(
            [sys.executable, "-S", "-E", str(BENCH_DIR / "launcher.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, cwd=ROOT, text=True,
        )

    def run(self, argv: list[str], cpus: list[int] | None = None
            ) -> tuple[float, float, int, str]:
        """Run one command on cpus (default: all); returns (wall s, peak RSS MB,
        exit code, stderr)."""
        err_path = self.work / "child.stderr"
        request = {"argv": argv, "env": self.env, "stdout": str(self.work / "child.stdout"),
                   "stderr": str(err_path), "cpus": cpus or self.cpus}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        pid = json.loads(self.proc.stdout.readline())["pid"]
        killer = threading.Timer(CHILD_TIMEOUT_S, os.kill, (pid, signal.SIGKILL))
        killer.start()
        try:
            done = json.loads(self.proc.stdout.readline())
        finally:
            killer.cancel()
        return done["wall_s"], done["maxrss_kb"] / 1024.0, done["code"], err_path.read_text()

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.stdout.close()
        self.proc.wait()


def run_untraced(checkpoints, store: Path, calls, launcher: Launcher, seconds: float,
                 tally: Tally) -> dict:
    import machine

    setup_s: list[float] = []
    setup_probes: list[float] = []
    walls = {v: [] for v in VERBS}
    rss = {v: [] for v in VERBS}
    probes = {v: [] for v in VERBS}
    pins = {v: [] for v in VERBS}
    cli = [sys.executable, "-m", "trajkit.cli"]
    t_start = time.perf_counter()
    rounds = 0

    def done() -> bool:  # checked before every verb, so a run ends within one verb
        return rounds >= MIN_ROUNDS and time.perf_counter() - t_start >= seconds

    before = machine.probe_cpus(launcher.cpus)  # the probes right before the next sample
    while not done():
        for verb in VERBS:
            if done():
                break
            spent, reps = 0.0, 0
            while reps == 0 or (spent < VERB_MIN_S and reps < VERB_MAX_REPS):
                # A sample runs pinned to the CPUs the probes found fastest,
                # one per program thread, and is scaled by their pace.
                cpus = sorted(launcher.cpus, key=before.get)[: calls[verb][0].threads]
                if reps == 0:
                    for _ in range(SETUP_REPS):
                        with machine.pinned(cpus[:1]):
                            setup_s.append(write_input_store(checkpoints, store))
                        setup_probes.append(before[cpus[0]])
                wall = peak = 0.0
                for call in calls[verb]:
                    shutil.rmtree(call.out, ignore_errors=True)
                    dt, mb, code, err = launcher.run(cli + call.argv, cpus)
                    tally.record(call, code, err)
                    wall += dt
                    peak = max(peak, mb)
                after = machine.probe_cpus(launcher.cpus)
                probes[verb].append(statistics.fmean((before[c] + after[c]) / 2 for c in cpus))
                pins[verb].append(cpus)
                before = after
                walls[verb].append(wall)
                rss[verb].append(peak)
                spent += wall
                reps += 1
        rounds += 1
    return {"rounds": rounds, "setup_s": setup_s, "setup_probes_s": setup_probes,
            "walls": walls, "rss_mb": rss, "probes_s": probes, "cpus": pins}


# --- traced: in-process calls with spans -----------------------------------


def run_inprocess(call: Call, tally: Tally) -> float:
    import trajkit.cli  # main is looked up per call: it may be wrapped

    shutil.rmtree(call.out, ignore_errors=True)
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        t0 = time.perf_counter()
        code = trajkit.cli.main(call.argv)
        wall = time.perf_counter() - t0
    tally.record(call, code, err.getvalue())
    return wall


def run_traced(checkpoints, store: Path, calls, seconds: float, tally: Tally,
               threads: int):
    """Alternate traced and untraced in-process rounds (T U T ...).

    A round is the in-process set-up write plus every verb. Traced rounds
    must report identical counts; each must fire every span.
    """
    import tracing

    traced, untraced_walls, spans_out = [], [], []
    t_start = time.perf_counter()
    while len(traced) < 2 or not untraced_walls or time.perf_counter() - t_start < seconds:
        is_traced = len(traced) <= len(untraced_walls)
        tracer = tracing.Tracer()
        undo = tracing.install(tracer) if is_traced else []
        try:
            wall = write_input_store(checkpoints, store)
            for verb in VERBS:
                for call in calls[verb]:
                    wall += run_inprocess(call, tally)
        finally:
            tracing.uninstall(undo)
        if not is_traced:
            untraced_walls.append(wall)
            continue
        missing = tracing.missing_spans(tracer.spans)
        if missing:
            raise tracing.TraceError(f"expected spans never fired: {missing}")
        metrics = tracing.layer_metrics(tracer.spans)
        # the same map at --threads 1 for the single-thread Gram rate
        if threads == 1:
            metrics["kernel.gram_gflops_1t"] = metrics["kernel.gram_gflops"]
        else:
            one = tracing.Tracer()
            undo = tracing.install(one)
            try:
                run_inprocess(calls["map_1t"][0], tally)
            finally:
                tracing.uninstall(undo)
            metrics["kernel.gram_gflops_1t"] = tracing.gram_gflops(one.spans)
        traced.append((wall, metrics))
        spans_out.append(tracer.spans)

    first = traced[0][1]
    for _, m in traced[1:]:
        diff = {k: (first[k], m[k]) for k in tracing.COUNT_METRICS if m[k] != first[k]}
        if diff:
            raise tracing.TraceError(f"counts differ between traced rounds: {diff}")
    layer = {}
    for key in first:
        if key in tracing.COUNT_METRICS:
            layer[key] = first[key]
        else:
            layer[key] = statistics.median([m[key] for _, m in traced])
    traced_walls = [w for w, _ in traced]
    layer["trace.overhead_ratio"] = statistics.median(traced_walls) / statistics.median(
        untraced_walls
    )
    return layer, spans_out, {"traced_walls": traced_walls, "untraced_walls": untraced_walls}


def interquartile_mean(xs: list[float]) -> float:
    """Mean of the middle half of xs (of all of them when fewer than 4)."""
    xs = sorted(xs)
    k = len(xs) // 4
    return statistics.fmean(xs[k : len(xs) - k])


def import_time(launcher: Launcher) -> float:
    walls = []
    for _ in range(IMPORT_REPS):
        wall, _, code, err = launcher.run([sys.executable, "-c", "import trajkit.cli"])
        if code != 0:
            raise RuntimeError(f"import trajkit.cli failed: {err.strip()}")
        walls.append(wall)
    return statistics.median(walls)


# --- entry point -----------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "trajkit" / "cli.py").is_file() or not spec_path.is_file():
        print(f"bench: no trajkit sources under {SRC} (run from a full checkout)",
              file=sys.stderr)
        return 2
    # One BLAS thread per program thread: the workload's --threads is then
    # the number of busy threads, and BLAS threads do not contend for the
    # 2 cores. Children inherit this environment.
    os.environ.update({name: "1" for name in BLAS_THREAD_VARS})
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]
    import trajkit

    if Path(trajkit.__file__).resolve().parent != (SRC / "trajkit").resolve():
        print(f"bench: imported trajkit from {trajkit.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import machine
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {sorted(workloads.WORKLOADS)}")
    w = workloads.WORKLOADS[args.workload]
    spec = json.loads(spec_path.read_text())
    section = spec["per_layer"] if args.trace else spec["end_to_end"]

    work = ROOT / ".bench_work" / f"{w.name}-{args.seed}-{os.getpid()}"
    results_dir = ROOT / ".bench_results"
    shutil.rmtree(work, ignore_errors=True)
    (work / "out").mkdir(parents=True)
    launcher = Launcher(work)
    try:
        checkpoints, store, calls = make_inputs(w, args.seed, work)
        record = {
            "workload": w.name,
            "why": next(x["why"] for x in spec["workloads"] if x["name"] == w.name),
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "machine": machine.describe(),
            "inputs": {
                "n_points": w.n_points,
                "p": w.p,
                "dtype": w.dtype,
                "payload_bytes": w.payload_bytes,
                "mem_budget": w.mem_budget,
                "payload_over_budget": (w.payload_bytes / w.mem_budget
                                        if w.mem_budget else None),
                "threads": w.threads,
                "train_epochs": w.train_epochs,
                "train_samples_per_class": w.train_samples_per_class,
                "widths": list(w.widths),
            },
        }
        tally = Tally()
        if args.trace:
            import tracing

            try:
                values, spans, samples = run_traced(checkpoints, store, calls, args.seconds,
                                                    tally, w.threads)
            except tracing.TraceError as exc:
                print(f"bench: trace error: {exc}", file=sys.stderr)
                return 3
            values["cli.import_s"] = import_time(launcher)
        else:
            samples = run_untraced(checkpoints, store, calls, launcher, args.seconds, tally)
            # On a shared VM each CPU's pace changes for seconds to minutes
            # (see README, Spread). Each sample is scaled to the pace
            # PROBE_REF_S: a verb sample by the mean of the CPU probes timed
            # right before and after it on the CPUs it ran on, a set-up
            # sample by the probe before it. A verb's time is the mean of
            # the middle half of its scaled samples; setup_s is their first
            # quartile, since a write that meets the writeback of earlier
            # ones takes up to 4x longer. Unscaled medians are recorded.
            def scaled(walls, probes):
                return [wall * machine.PROBE_REF_S / probe for wall, probe in zip(walls, probes)]

            values = {"setup_s": statistics.quantiles(
                scaled(samples["setup_s"], samples["setup_probes_s"]), n=4)[0]}
            medians = samples["unscaled_medians_s"] = {
                "setup": statistics.median(samples["setup_s"])
            }
            for verb in VERBS:
                walls = samples["walls"][verb]
                values[f"{verb}_s"] = interquartile_mean(scaled(walls, samples["probes_s"][verb]))
                medians[verb] = statistics.median(walls)
                values[f"{verb}_rss_mb"] = statistics.median(samples["rss_mb"][verb])
            values["wall_s"] = sum(values[f"{v}_s"] for v in VERBS)
        rates = machine.reference_rates(w.n_points)
        record["reference_rates"] = {**rates, "note": machine.RATES_NOTE}
        if args.trace:
            values.update(rates)
        failed_ratio = tally.failed / tally.attempted
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in section}
        record.update(samples=samples, metrics=metrics, failed_ratio=failed_ratio,
                      attempted=tally.attempted, failed=tally.failed,
                      failures=tally.messages)
        results_dir.mkdir(exist_ok=True)
        stem = f"BENCH_{w.name}_seed{args.seed}_trace{args.trace}"
        (results_dir / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
        if args.trace:
            with gzip.open(results_dir / f"{stem}_spans.jsonl.gz", "wt") as f:
                for r, round_spans in enumerate(spans):
                    for row in tracing.spans_json(round_spans):
                        f.write(json.dumps([r, *row]) + "\n")
    finally:
        launcher.close()
        shutil.rmtree(work, ignore_errors=True)

    for key, value in record["machine"].items():
        print(f"machine.{key}: {value}")
    print(f"inputs: {json.dumps(record['inputs'])} seed={args.seed}")
    for key, value in record["reference_rates"].items():
        print(f"{key}: {value}")
    for message in tally.messages:
        print(f"FAILED {message}")
    print(f"failed_ratio: {failed_ratio} ({tally.failed}/{tally.attempted} verbs)")
    for name, m in metrics.items():
        print(f"{name}: {m['value']} {m['unit']}")
    if not args.trace:
        medians = samples["unscaled_medians_s"]
        print(f"setup samples: {len(samples['setup_s'])}, unscaled median "
              f"{medians['setup']} s")
        for verb in VERBS:
            print(f"{verb} samples: {len(samples['walls'][verb])}, unscaled median "
                  f"{medians[verb]} s, CPU probe median "
                  f"{statistics.median(samples['probes_s'][verb])} s")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

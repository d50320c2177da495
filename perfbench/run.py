"""End-to-end and per-layer benchmark of `acdkit synth / detect / eval / sweep`.

Run from the repository root:

    python3 perfbench/run.py --workload nonlinear-64 --seed 1 --seconds 50 --trace 0

--trace 0 drives the real CLI as a single-client closed loop, one subprocess
at a time with the library's default worker count, and reports the
end-to-end metrics: after synth has written the scene and an untimed
warm-up round, rounds that run every operation once (synth included) fill
--seconds, and each metric is the median over every timed run of its
operation.
--trace 1 runs one cycle in-process through `acdkit.cli.main` twice, plain
and with spans around every public acdkit function, then a tracemalloc pass,
and reports the per-layer metrics. Every output is checked; a failed check
counts against `failed` and does not stop the run. The last stdout line is
the JSON result; the lines before it are the environment record and a
readable report.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

import numpy as np

import cliops
import tracing
from cliops import CheckError, check_eval_auc, rank_auc, read_map, read_sweep, read_truth, run_cli
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
DETECTORS = ("acda", "cc", "ce", "diffrx")
BASELINES = ("cc", "ce", "diffrx")


def declared_metrics(root: Path) -> dict[str, dict[str, dict]]:
    """BENCHMARK.json's end_to_end and per_layer metrics, each by name."""
    bench = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {section: {m["name"]: m for m in bench[section]} for section in ("end_to_end", "per_layer")}


class Book:
    """Attempted and failed operations and checks; a failure is recorded, never raised."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, label: str, fn):
        self.attempted += 1
        try:
            return fn()
        except (CheckError, OSError, ValueError, KeyError) as exc:
            self.failures.append(f"{label}: {exc}")
            print(f"check failed: {label}: {exc}", file=sys.stderr)
            return None


def _expect_success(inv_rc: int, label: str, stderr: str = "") -> None:
    if inv_rc != 0:
        raise CheckError(f"{label} exited with {inv_rc}: {stderr.strip()[-300:]}")


# --- the closed loop -----------------------------------------------------------------

def write_inputs(wl, seed: int, work: Path) -> tuple[Path, Path]:
    work.mkdir(parents=True, exist_ok=True)
    spec, grid = work / "spec.json", work / "grid.json"
    spec.write_text(json.dumps(wl.scene_spec(seed)), encoding="utf-8")
    grid.write_text(json.dumps(wl.grid), encoding="utf-8")
    return spec, grid


def cycle_ops(wl, scene: Path, grid: Path, out: Path) -> list[tuple[str, list[str]]]:
    """The CLI invocations of one closed-loop cycle, in order."""
    x, y, truth = str(scene / "x.json"), str(scene / "y.json"), str(scene / "truth.pgm")
    acda_set = [a for k, v in wl.acda.items() for a in ("--set", f"{k}={v}")]
    ops = [("acda", ["detect", "acda", x, y, "--out", str(out / "acda"), *acda_set])]
    ops += [(m, ["detect", m, x, y, "--out", str(out / m)]) for m in BASELINES]
    ops.append(("eval", ["eval", str(out / "acda" / "map.json"), truth, "--out", str(out / "eval")]))
    ops.append(("sweep", ["sweep", x, y, truth, str(grid), "--out", str(out / "sweep")]))
    return ops


def check_scene(wl, scene: Path) -> np.ndarray:
    for name in ("x.json", "x.raw", "y.json", "y.raw", "truth.pgm", "manifest.json"):
        if not (scene / name).is_file():
            raise CheckError(f"synth wrote no {name}")
    raw_bytes = wl.height * wl.width * wl.bands * 4
    for name in ("x.raw", "y.raw"):
        if (scene / name).stat().st_size != raw_bytes:
            raise CheckError(f"{name} is not {raw_bytes} bytes")
    truth = read_truth(scene / "truth.pgm")
    expected = sum(r["w"] * r["h"] for r in wl.rects)
    if truth.shape != (wl.height, wl.width) or int(truth.sum()) != expected:
        raise CheckError(f"truth mask has shape {truth.shape} and {int(truth.sum())} anomaly px")
    return truth


def check_output(label: str, rc: int, stdout: str, stderr: str, out: Path, wl, truth, results):
    """Check one operation's outputs; returns the AUC(s) it produced."""
    _expect_success(rc, label, stderr)
    shape = (wl.height, wl.width)
    if label in DETECTORS:
        return rank_auc(read_map(out / label / "map.json", shape), truth)
    if label == "eval":
        if "acda" not in results:
            raise CheckError("no acda map to compare eval against")
        check_eval_auc(cliops.stdout_pairs(stdout).get("auc"), results["acda"])
        if not (out / "eval" / "roc.csv").is_file():
            raise CheckError("eval wrote no roc.csv")
        return None
    aucs = read_sweep(out / "sweep" / "sweep.csv", wl.sweep_cells)
    printed = [k for k in cliops.stdout_pairs(stdout) if k.startswith("auc_h1_")]
    if len(printed) != len(aucs):
        raise CheckError(f"sweep printed {len(printed)} cell AUCs for {len(aucs)} cells")
    return aucs


def check_same_scene(scene: Path, reference: Path) -> None:
    """A repeated synth of one spec must write the same cubes and mask."""
    for name in ("x.raw", "y.raw", "truth.pgm"):
        if (scene / name).read_bytes() != (reference / name).read_bytes():
            raise CheckError(f"synth wrote a different {name} from the same spec")


def timed_run(wl, seed: int, seconds: float, work: Path, env: dict, book: Book):
    spec, grid = write_inputs(wl, seed, work)
    scene, out = work / "scene", work / "out"
    inv = run_cli(["synth", str(spec), "--out", str(scene)], env, work / "logs" / "synth")
    _expect_success(inv.returncode, "synth", inv.stderr)  # nothing to measure without a scene
    truth = book.check("synth", lambda: check_scene(wl, scene))
    if truth is None:
        raise CheckError("synth wrote an unusable scene")

    walls, rss = defaultdict(list), defaultdict(list)
    aucs: dict[str, list] = defaultdict(list)
    results = {}
    # The set-up is timed by running synth again, into a directory of its own, as one
    # more operation of the loop.
    ops = [("synth", ["synth", str(spec), "--out", str(out / "synth")]), *cycle_ops(wl, scene, grid, out)]

    def check(label, inv):
        if label != "synth":
            return check_output(label, inv.returncode, inv.stdout, inv.stderr, out, wl, truth, results)
        _expect_success(inv.returncode, label, inv.stderr)
        check_scene(wl, out / "synth")
        return check_same_scene(out / "synth", scene)

    def run_op(label, args, tag, timed=True):
        inv = run_cli(args, env, work / "logs" / label)
        if timed:
            walls[label].append(inv.wall_s)
            rss[label].append(inv.peak_rss_mb)
        got = book.check(f"{label}#{tag}", lambda: check(label, inv))
        if got is not None:
            results[label] = got
            aucs[label].append(got)

    # An untimed warm-up round runs every operation once, in cycle order (eval needs
    # the acda map), so bytecode is compiled and the inputs are cached before timing.
    for label, args in ops:
        run_op(label, args, "warm-up", timed=False)
    # Then timed rounds until --seconds is spent. Each round runs every operation once,
    # so every operation gets about the same number of samples and they are spread over
    # the whole run, not bunched into one burst of host noise. After the first round,
    # which always runs in full, a run that would overrun the deadline is skipped; the
    # loop ends when none fits.
    deadline = time.perf_counter() + seconds
    rounds = 0
    while True:
        ran = False
        for label, args in ops:
            if walls[label] and time.perf_counter() + statistics.median(walls[label]) > deadline:
                continue
            run_op(label, args, str(rounds))
            ran = True
        if not ran:
            break
        rounds += 1

    def repeats_exactly():
        for label, values in aucs.items():
            if any(v != values[0] for v in values):
                raise CheckError(f"{label} AUC changed between runs: {values}")

    book.check("auc-repeat", repeats_exactly)

    median = statistics.median
    metrics = {"setup_s": median(walls["synth"])}
    metrics.update({f"{m}_s": median(walls[m]) for m in (*DETECTORS, "eval", "sweep")})
    metrics["acda_peak_rss_mb"] = median(rss["acda"])
    metrics["baseline_peak_rss_mb"] = max(median(rss[m]) for m in BASELINES)
    quality = {f"{m}_auc": aucs[m][0] for m in DETECTORS if aucs[m]}
    if aucs["sweep"]:
        quality["sweep_auc_mean"] = float(np.mean(aucs["sweep"][0]))
    samples = {"rounds": rounds, "walls_s": dict(walls)}
    return metrics, quality, samples


# --- the traced run ------------------------------------------------------------------

def call_main(argv: list[str]) -> tuple[int, str, float]:
    """`acdkit.cli.main` in-process, looked up at call time so an installed wrapper is used."""
    import acdkit.cli

    buffer = io.StringIO()
    started = time.perf_counter()
    with contextlib.redirect_stdout(buffer):
        try:
            rc = acdkit.cli.main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 2
    return rc, buffer.getvalue(), time.perf_counter() - started


def in_process_pass(wl, spec: Path, grid: Path, base: Path, book: Book, tag: str, tracer=None):
    """One cycle (synth included) through cli.main; returns per-op walls and the AUCs."""
    scene, out = base / "scene", base / "out"
    if tracer is not None:
        tracer.install()
    try:
        rc, _, wall = call_main(["synth", str(spec), "--out", str(scene)])
        _expect_success(rc, f"{tag} synth")
        truth = check_scene(wl, scene)
        if tracer is not None:
            tracer.truth = truth.ravel()
        walls, results = {"synth": wall}, {}
        for label, args in cycle_ops(wl, scene, grid, out):
            rc, stdout, walls[label] = call_main(args)
            got = book.check(
                f"{tag} {label}",
                lambda: check_output(label, rc, stdout, "", out, wl, truth, results),
            )
            if got is not None:
                results[label] = got
    finally:
        if tracer is not None:
            tracer.uninstall()
    return walls, results, truth


def digest_mb(out: Path, scene: Path) -> float:
    """MB the manifests of one cycle hashed: every input and output they list."""
    total = 0
    for manifest_path in [scene / "manifest.json", *sorted(out.glob("*/manifest.json"))]:
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        total += sum(Path(p).stat().st_size for p in manifest["inputs"])
        total += sum((manifest_path.parent / n).stat().st_size for n in manifest["outputs"])
    return total / 2**20


def traced_run(wl, seed: int, work: Path, book: Book):
    import acdkit.cli  # noqa: F401  (imports every acdkit module the tracer patches)

    spec, grid = write_inputs(wl, seed, work)
    plain_walls, plain_results, _ = in_process_pass(wl, spec, grid, work / "plain", book, "plain")
    shutil.rmtree(work / "plain")

    tracer = tracing.Tracer()
    walls, results, truth = in_process_pass(wl, spec, grid, work / "traced", book, "traced", tracer)
    traced_wall, plain_wall = sum(walls.values()), sum(plain_walls.values())
    hashed_mb = book.check("digest", lambda: digest_mb(work / "traced" / "out", work / "traced" / "scene"))

    scene, out = work / "traced" / "scene", work / "traced" / "malloc"
    ops = {label: args for label, args in cycle_ops(wl, scene, grid, out)}
    with tracing.MallocProbe() as probe:
        for label in ("acda", "cc", "diffrx"):
            rc, stdout, _ = call_main(ops[label])
            book.check(f"malloc {label}", lambda: check_output(label, rc, stdout, "", out, wl, truth, {}))

    def same_aucs():
        if results != plain_results:
            raise CheckError(f"traced AUCs {results} differ from untraced {plain_results}")

    def threads_within_wall():
        summary = tracing.summarize(tracer.spans)
        for thread, total in summary.thread_self_s.items():
            if total > traced_wall * (1 + 1e-9):
                raise CheckError(f"thread {thread} self time {total:.3f}s exceeds wall {traced_wall:.3f}s")

    def fusion_holds():
        if tracer.fusion_violations or not tracer.counts["repeats_checked"]:
            raise CheckError(f"{tracer.fusion_violations} repeats have fused > a directional map")

    book.check("trace auc", same_aucs)
    book.check("trace thread self", threads_within_wall)
    book.check("trace fused<=directional", fusion_holds)
    roots = sorted((s for s in tracer.spans if s.parent is None and s.name == "cli.main"), key=lambda s: s.start)
    labels = ["synth"] + [label for label, _ in cycle_ops(wl, scene, grid, out)]
    metrics = layer_metrics(
        wl, tracer, dict(zip(labels, roots)), probe.peaks, traced_wall, plain_wall, hashed_mb, results
    )
    # Kept after the run (the work directory is not) for inspection: [id, name, start, end, parent, thread].
    spans_path = work.parent / f"spans-{wl.name}-s{seed}.json"
    spans_path.write_text(json.dumps([[s.id, s.name, s.start, s.end, s.parent, s.thread] for s in tracer.spans]))
    return metrics, {
        "traced_wall_s": traced_wall, "untraced_wall_s": plain_wall, "op_walls_s": walls,
        "spans": str(spans_path),
    }


def ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(wl, tracer, roots, peaks, traced_wall, plain_wall, hashed_mb, results) -> dict:
    spans = tracer.spans
    whole = tracing.summarize(spans)

    def within(label):
        root = roots[label]
        return tracing.summarize(tracing.spans_within(spans, root.id)), root.duration

    acda_op, acda_wall = within("acda")
    ce_op, ce_wall = within("ce")
    sweep_op, _ = within("sweep")
    counts = tracer.counts
    m = {}
    train_s = whole.total("neural.train")
    steps = whole.calls("neural.adam_step")
    gflop = sum(counts["gflop"])
    eigh = whole.by_name.get("linalg.eigh", [])
    m.update({
        "neural.train.calls": whole.calls("neural.train"),
        "neural.net_steps": steps,
        "neural.train.s": train_s,
        "neural.train.p50_s": whole.p50("neural.train"),
        "neural.step_us": ratio(train_s, steps) * 1e6,
        "neural.gflop": gflop,
        "neural.gflops": ratio(gflop, train_s),
        "neural.forward_batch.calls": whole.calls("neural.forward_batch"),
        "neural.forward_batch.s": whole.total("neural.forward_batch"),
        "acda.run_acda.s": whole.total("acda.run_acda"),
        "acda.run_acda.self_s": whole.self_s.get("acda.run_acda", 0.0),
        "acda.train_overlap": ratio(whole.total("acda.train_predictor"), whole.total("acda.run_acda")),
        "acda.prepare_samples.calls": sweep_op.calls("acda.prepare_samples"),
        "acda.prepare_samples.s": sweep_op.total("acda.prepare_samples"),
        "acda.predict_image.s": whole.total("acda.predict_image"),
        "acda.loss_map.s": whole.total("acda.loss_map"),
        "acda.fuse_min.s": whole.total("acda.fuse_min"),
        "acda.run_acda.peak_mb": max(peaks["acda.run_acda"], default=0.0),
        "predetect.usfa_fit.s": whole.total("predetect.usfa_fit"),
        "predetect.usfa_intensity.s": whole.total("predetect.usfa_intensity"),
        "predetect.kmeans_1d.s": whole.total("predetect.kmeans_1d"),
        "predetect.select_samples.s": whole.total("predetect.select_samples"),
        "predetect.pool_fraction": ratio(sum(counts["pool_fraction"]), len(counts["pool_fraction"])),
        "predetect.sample_contamination": ratio(sum(counts["contamination"]), len(counts["contamination"])),
        "linalg.eigh.calls": len(eigh),
        "linalg.eigh.max_dim": max(counts["eigh_dim"], default=0),
        "linalg.eigh.dim_sum": sum(counts["eigh_dim"]),
        "linalg.eigh.s": whole.total("linalg.eigh"),
        "linalg.eigh.p50_ms": whole.p50("linalg.eigh") * 1e3,
        "linalg.mean_cov.s": whole.total("linalg.mean_cov"),
        "linalg.solve_spd.s": whole.total("linalg.solve_spd"),
        "baselines.fit_cc.s": whole.total("baselines.fit_cc"),
        "baselines.fit_ce.s": whole.total("baselines.fit_ce"),
        "baselines.baseline_map.s": whole.total("baselines.baseline_map"),
        "baselines.diff_rx.s": whole.total("baselines.diff_rx"),
        "baselines.diff_rx.peak_mb": max(peaks["baselines.diff_rx"], default=0.0),
        "baselines.run_baseline.peak_mb": max(peaks["baselines.run_baseline"], default=0.0),
        "core.read_cube.s": whole.total("core.read_cube"),
        "core.read_cube.mb": sum(counts["read_bytes"]) / 2**20,
        "core.write_cube.s": whole.total("core.write_cube"),
        "synth.generate.s": whole.total("synth.generate"),
        "cli.cmd_detect.self_s": whole.self_s.get("cli.cmd_detect", 0.0),
        "cli.digest_mb": hashed_mb or 0.0,
        "evaluate.roc.s": whole.total("evaluate.roc"),
        "evaluate.roc.points": sum(counts["roc_points"]),
        "evaluate.export_curve.s": whole.total("evaluate.export_curve"),
        "trace.overhead": traced_wall / plain_wall,
        "traffic.pixels": wl.height * wl.width,
        "traffic.bands": wl.bands,
        "traffic.samples_selected": sum(counts["samples_selected"]),
        "share.train_of_acda": acda_op.covered("neural.train") / acda_wall,
        "share.eigh_of_ce": ce_op.covered("linalg.eigh") / ce_wall,
        "share.sweep_predetect": sweep_op.total("acda.prepare_samples") / traced_wall,
        "share.eigh": whole.total("linalg.eigh") / traced_wall,
        "share.train": train_s / traced_wall,
    })
    for module in tracing.MODULES:
        m[f"share.{module}"] = whole.module_self(module) / traced_wall
    for label in DETECTORS:
        m[f"{label}_auc"] = results.get(label, float("nan"))
    m["sweep_auc_mean"] = float(np.mean(results["sweep"])) if "sweep" in results else float("nan")
    return m


# --- environment and output ----------------------------------------------------------

def blas_threads():
    """OpenBLAS thread count, asked of the library NumPy loaded; None if not found."""
    import ctypes

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib_path in sorted(libs.glob("*openblas*")):
        try:
            lib = ctypes.CDLL(str(lib_path))
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def git_commit(root: Path):
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent)),
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def environment(root: Path, workload: str, seed: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_version = None
    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_version,
        "blas_threads": blas_threads(),
        "ACDKIT_THREADS": os.environ.get("ACDKIT_THREADS"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "git_commit": git_commit(root),
        "machine": platform.machine(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "acdkit" / "cli.py").is_file():
        print(f"error: no acdkit sources under {src}; run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    declared = declared_metrics(root)
    wl = WORKLOADS[args.workload]
    record = environment(root, args.workload, args.seed)
    if record["ACDKIT_THREADS"] is not None:
        record["warning"] = (
            f"ACDKIT_THREADS={record['ACDKIT_THREADS']} is set: it caps the acda worker count "
            "of every detect and sweep, so these figures are not the default configuration"
        )
        print(f"WARNING: {record['warning']}", file=sys.stderr)

    work = root / ".perfbench_work" / f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    book = Book()
    try:
        if args.trace:
            metrics, detail = traced_run(wl, args.seed, work, book)
            names = declared["per_layer"]
        else:
            metrics, quality, detail = timed_run(wl, args.seed, args.seconds, work, book=book, env=env)
            detail["quality"] = quality
            names = declared["end_to_end"]
    except CheckError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception:  # noqa: BLE001 - report the traceback, print no result
        traceback.print_exc()
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()  # only if no other run is using it

    failed = len(book.failures)
    attempted = max(book.attempted, 1)
    report = {
        "failed_ops": {"value": failed / attempted, "unit": "ratio"},
        **{k: {"value": v, "unit": declared["per_layer"][k]["unit"]} for k, v in detail.get("quality", {}).items()},
    }
    print("env " + json.dumps(record, sort_keys=True))
    print("detail " + json.dumps(detail, sort_keys=True, default=float))
    print("report " + json.dumps(report, sort_keys=True))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": float(metrics[name]), "unit": spec["unit"]} for name, spec in names.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

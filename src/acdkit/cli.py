"""Command-line front end: scene synthesis, detection, evaluation, sweeps.

Every command writes a run manifest with content digests of its inputs and
outputs; stdout carries machine-readable key=value lines, and errors and
warnings go to stderr as `error: ...` and `warning: ...` lines. A failed
command exits with the `exit_code` of its error's class (see `errors`).
Each command imports only the modules it runs, when it runs them. It builds
and writes its outputs in one helper and writes its manifest once that
helper has returned, so no cube, map or curve is alive while the digests run.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import asdict
from pathlib import Path

from . import __version__
from .core import (
    IntensityMap,
    _check_cubes,
    _is_int,
    _read_json_object,
    _write_text,
    cube_to_map,
    flatten,
    map_to_cube,
    read_cube,
    read_mask,
    write_cube,
    write_mask,
)
from .errors import AcdkitError, DataIOError, ValidationError

_LINEAR_DEFAULTS = {"ridge": None}
_DIGEST_CHUNK = 1 << 16  # bytes hashed per read


def _digest(path: Path) -> str:
    """sha256 of the file at `path`, read `_DIGEST_CHUNK` bytes at a time.

    `hashlib` loads OpenSSL (3.5 MB resident), so it is imported here, on the
    first digest, once the command has released its working set.
    """
    import hashlib

    sha = hashlib.sha256()
    try:
        with Path(path).open("rb") as stream:
            while chunk := stream.read(_DIGEST_CHUNK):
                sha.update(chunk)
    except OSError as exc:
        raise DataIOError(f"cannot digest {path}: {exc}") from exc
    return "sha256:" + sha.hexdigest()


def _cube_files(header_path) -> list[Path]:
    header_path = Path(header_path)
    return [header_path, header_path.with_suffix(".raw")]


def _ensure_out_dir(path) -> Path:
    out = Path(path)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise DataIOError(f"cannot create output directory {out}: {exc}") from exc
    return out


def _write_manifest(
    out_dir: Path,
    command: str,
    config: dict,
    inputs: list[Path],
    outputs: list[Path],
    seeds: list[int],
    started: float,
) -> Path:
    manifest = {
        "command": command,
        "version": __version__,
        "config": config,
        "seeds": seeds,
        "inputs": {str(p): _digest(p) for p in inputs},
        "outputs": {p.name: _digest(p) for p in outputs},
        "wall_clock_seconds": round(time.perf_counter() - started, 3),
    }
    path = out_dir / "manifest.json"
    _write_text(path, json.dumps(manifest, indent=2, sort_keys=True) + "\n", "manifest")
    return path


def _emit(**pairs) -> None:
    for key, value in pairs.items():
        print(f"{key}={value}")


def _coerce(text: str):
    lowered = text.lower()
    if lowered in {"null", "none"}:
        return None
    if lowered in {"true", "false"}:
        return lowered == "true"
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text


def _load_config(defaults: dict, data: dict, overrides: list[str]) -> dict:
    """Defaults, then the keys of a config object `data`, then `--set` overrides."""
    unknown = set(data) - set(defaults)
    if unknown:
        raise ValidationError(f"unknown config keys: {sorted(unknown)}")
    merged = {**defaults, **data}
    for item in overrides or []:
        key, sep, value = item.partition("=")
        key = key.strip()
        if not sep or not key:
            raise ValidationError(f"--set expects key=value, got {item!r}")
        if key not in defaults:
            raise ValidationError(f"unknown config key '{key}'")
        merged[key] = _coerce(value.strip())
    return merged


def _read_pair(x_path, y_path):
    x_cube = read_cube(x_path)
    y_cube = read_cube(y_path)
    _check_cubes(x_cube, y_cube)
    return x_cube, y_cube


def _synth_outputs(args):
    """Generate and write the scene of spec `args.spec`; returns out dir, files and spec."""
    from .synth import SceneSpec, describe, generate

    spec = SceneSpec.from_json_file(args.spec)
    x_cube, y_cube, mask = generate(spec)
    out = _ensure_out_dir(args.out)
    write_cube(x_cube, out / "x.json")
    write_cube(y_cube, out / "y.json")
    write_mask(mask, out / "truth.pgm")
    _write_text(out / "scene.json", describe(spec) + "\n", "scene description")
    outputs = _cube_files(out / "x.json") + _cube_files(out / "y.json")
    return out, outputs + [out / "truth.pgm", out / "scene.json"], spec


def cmd_synth(args) -> int:
    started = time.perf_counter()
    out, outputs, spec = _synth_outputs(args)
    manifest = _write_manifest(
        out, "synth", spec.to_dict(), [Path(args.spec)], outputs, [spec.seed], started
    )
    _emit(
        x=out / "x.json",
        y=out / "y.json",
        truth=out / "truth.pgm",
        scene=out / "scene.json",
        manifest=manifest,
    )
    return 0


def _history_text(runs) -> str:
    lines = ["repeat,direction,epoch,loss"]
    for r, run in enumerate(runs):
        for direction, series in zip(("fwd", "bwd"), run.training_losses):
            for epoch, value in enumerate(series):
                lines.append(f"{r},{direction},{epoch},{value!r}")
    return "\n".join(lines) + "\n"


def _detect_outputs(args):
    """Run detector `args.method` and write its maps and texts.

    Returns the out dir, the written files, the config snapshot and the seeds.
    """
    x_cube, y_cube = _read_pair(args.x, args.y)
    data = {} if args.config is None else _read_json_object(args.config, "config")
    # Every map and text is built before --out exists, so a failed run leaves nothing.
    maps: dict[str, IntensityMap] = {}
    texts: dict[str, tuple[str, str]] = {}
    if args.method == "acda":
        from .acda import AcdaConfig, bottleneck, prepare_samples, run_acda

        conf = _load_config(asdict(AcdaConfig()), data, args.set)
        cfg = AcdaConfig(**conf)
        shape = bottleneck(x_cube.bands, cfg.h1, cfg.h2)
        samples = prepare_samples(x_cube, y_cube, cfg)
        maps["map"], runs = run_acda(x_cube, y_cube, cfg, samples=samples)
        texts["losses.csv"] = (_history_text(runs), "loss history")
        if args.save_samples:
            sample_lines = ["index"] + [str(i) for i in samples.indices]
            texts["samples.csv"] = ("\n".join(sample_lines) + "\n", "sample indices")
        if args.save_run_maps:
            for r, run in enumerate(runs):
                maps[f"run{r}_fwd"] = run.loss_map_fwd
                maps[f"run{r}_bwd"] = run.loss_map_bwd
                maps[f"run{r}_fused"] = run.fused
        seeds = [cfg.base_seed + r for r in range(cfg.repeats)]
        snapshot = dict(conf)
        snapshot["h1"], snapshot["h2"] = shape.hidden[:2]
        snapshot["resolved_sample_count"] = samples.size
    else:
        from .baselines import diff_rx, run_baseline
        from .linalg import _require_ridge

        conf = _load_config(_LINEAR_DEFAULTS, data, args.set)
        ridge = conf["ridge"]
        if ridge is not None:
            ridge = _require_ridge(ridge, "config key 'ridge'")
        if args.method == "diffrx":
            plane = (x_cube.height, x_cube.width)
            maps["map"] = diff_rx(flatten(x_cube), flatten(y_cube), plane, ridge)
        else:
            maps["map"] = run_baseline(args.method, x_cube, y_cube, ridge)
        seeds = []
        snapshot = dict(conf)
        snapshot["scoring"] = "per-pixel MSE, bidirectional min fusion" if args.method in (
            "cc",
            "ce",
        ) else "mahalanobis distance of differences"
    cubes = {name: map_to_cube(intensity) for name, intensity in maps.items()}
    out = _ensure_out_dir(args.out)
    outputs: list[Path] = []
    for name, cube in cubes.items():
        write_cube(cube, out / f"{name}.json")
        outputs += _cube_files(out / f"{name}.json")
    for name, (text, what) in texts.items():
        _write_text(out / name, text, what)
        outputs.append(out / name)
    snapshot["method"] = args.method
    return out, outputs, snapshot, seeds


def cmd_detect(args) -> int:
    started = time.perf_counter()
    out, outputs, snapshot, seeds = _detect_outputs(args)
    inputs = _cube_files(args.x) + _cube_files(args.y)
    if args.config:
        inputs.append(Path(args.config))
    manifest = _write_manifest(out, "detect", snapshot, inputs, outputs, seeds, started)
    _emit(method=args.method, map=out / "map.json", manifest=manifest)
    return 0


def _eval_outputs(args):
    """Score map `args.map` against `args.mask` and write the curve and rendering.

    Returns the out dir, the written files and the AUC.
    """
    from .evaluate import export_curve, export_map_pgm, roc

    map_cube = read_cube(args.map)
    try:
        intensity = cube_to_map(map_cube)
    except ValidationError as exc:
        if map_cube.bands != 1:
            raise
        # a 1-band map with a negative score is no map a detector writes
        raise DataIOError(f"map {args.map}: {exc}") from exc
    mask = read_mask(args.mask, expected_shape=intensity.values.shape)
    curve = roc(intensity, mask)
    out = _ensure_out_dir(args.out)
    export_curve(curve, out / "roc.csv")
    export_map_pgm(intensity, out / "map.pgm")
    return out, [out / "roc.csv", out / "map.pgm"], curve.auc


def cmd_eval(args) -> int:
    started = time.perf_counter()
    out, outputs, auc = _eval_outputs(args)
    inputs = _cube_files(args.map) + [Path(args.mask)]
    manifest = _write_manifest(out, "eval", {}, inputs, outputs, [], started)
    _emit(auc=f"{auc:.6f}", roc=out / "roc.csv", rendering=out / "map.pgm", manifest=manifest)
    return 0


def _sweep_outputs(args):
    """Train and score every cell of grid `args.grid` and write the AUC table.

    Returns the out dir, the table, the config snapshot and the seeds.
    """
    from .acda import AcdaConfig, bottleneck, prepare_samples, run_acda
    from .evaluate import roc

    x_cube, y_cube = _read_pair(args.x, args.y)
    mask = read_mask(args.mask, expected_shape=(x_cube.height, x_cube.width))
    if mask.anomaly_count == 0:
        raise ValidationError("ground truth marks no anomaly pixels")
    grid = _read_json_object(args.grid, "grid")
    axes = []
    for axis in ("h1", "h2"):
        values = grid.pop(axis, None)
        if not (isinstance(values, list) and values and all(_is_int(v) for v in values)):
            raise ValidationError(
                f"grid '{axis}' must be a non-empty list of integers, got {values!r}"
            )
        axes.append(sorted(set(values), reverse=True))
    h1_values, h2_values = axes
    # every setting but h1/h2, which the grid supplies
    defaults = asdict(AcdaConfig())
    del defaults["h1"], defaults["h2"]
    conf = _load_config(defaults, grid, args.set)
    shared = AcdaConfig(**conf)
    configs = {}  # the cells whose widths `bottleneck` accepts; the rest read "-"
    for h2 in h2_values:
        for h1 in h1_values:
            try:
                bottleneck(x_cube.bands, h1, h2)
            except ValidationError:
                continue
            configs[h1, h2] = AcdaConfig(**conf, h1=h1, h2=h2)

    # Pre-detection reads only sample_count and base_seed, which every cell
    # shares: it runs once, and if it fails every cell fails with its error.
    # Errors are kept as messages: an exception's traceback holds the frame
    # that holds it, and so the cubes, until the garbage collector runs.
    samples = failure = None
    if configs:
        try:
            samples = prepare_samples(x_cube, y_cube, shared)
        except AcdkitError as exc:
            failure = str(exc)
    rows = ["h2/h1," + ",".join(str(h1) for h1 in h1_values)]
    for h2 in h2_values:
        cells = []
        for h1 in h1_values:
            cfg = configs.get((h1, h2))
            if cfg is None:
                cells.append("-")
                continue
            error = failure
            if error is None:
                try:
                    mean_map, _ = run_acda(x_cube, y_cube, cfg, samples=samples)
                    auc = roc(mean_map, mask).auc
                except AcdkitError as exc:
                    error = str(exc)
            if error is not None:
                print(f"warning: cell h1={h1} h2={h2} failed: {error}", file=sys.stderr)
                cells.append("nan")
                continue
            cells.append(f"{auc:.6f}")
            _emit(**{f"auc_h1_{h1}_h2_{h2}": f"{auc:.6f}"})
        rows.append(f"{h2}," + ",".join(cells))
    out = _ensure_out_dir(args.out)
    table = out / "sweep.csv"
    _write_text(table, "\n".join(rows) + "\n", "sweep table")
    snapshot = dict(conf, h1=h1_values, h2=h2_values)
    snapshot["resolved_sample_count"] = None if samples is None else samples.size
    return out, table, snapshot, [shared.base_seed]


def cmd_sweep(args) -> int:
    started = time.perf_counter()
    out, table, snapshot, seeds = _sweep_outputs(args)
    inputs = _cube_files(args.x) + _cube_files(args.y) + [Path(args.mask), Path(args.grid)]
    manifest = _write_manifest(out, "sweep", snapshot, inputs, [table], seeds, started)
    _emit(table=table, manifest=manifest)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="acdkit",
        description="Anomaly change detection for co-registered hyperspectral image pairs.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_synth = sub.add_parser("synth", help="generate a synthetic acquisition pair")
    p_synth.add_argument("spec", help="scene spec JSON file")
    p_synth.add_argument("--out", required=True, help="output directory")
    p_synth.set_defaults(func=cmd_synth)

    p_detect = sub.add_parser("detect", help="run a change detector on a cube pair")
    p_detect.add_argument("method", choices=("acda", "diffrx", "cc", "ce"))
    p_detect.add_argument("x", help="first acquisition header (.json)")
    p_detect.add_argument("y", help="second acquisition header (.json)")
    p_detect.add_argument("--config", help="detector config JSON file")
    p_detect.add_argument(
        "--set", action="append", metavar="KEY=VALUE", help="override a config key"
    )
    p_detect.add_argument("--out", required=True, help="output directory")
    p_detect.add_argument(
        "--save-run-maps", action="store_true", help="also write per-repeat directional maps"
    )
    p_detect.add_argument(
        "--save-samples", action="store_true", help="also write selected sample indices as CSV"
    )
    p_detect.set_defaults(func=cmd_detect)

    p_eval = sub.add_parser("eval", help="score an intensity map against ground truth")
    p_eval.add_argument("map", help="intensity map header (.json)")
    p_eval.add_argument("mask", help="ground-truth mask (.pgm)")
    p_eval.add_argument("--out", required=True, help="output directory")
    p_eval.set_defaults(func=cmd_eval)

    p_sweep = sub.add_parser("sweep", help="grid-sweep bottleneck widths and tabulate AUCs")
    p_sweep.add_argument("x", help="first acquisition header (.json)")
    p_sweep.add_argument("y", help="second acquisition header (.json)")
    p_sweep.add_argument("mask", help="ground-truth mask (.pgm)")
    p_sweep.add_argument("grid", help="grid JSON file with h1/h2 lists and shared config")
    p_sweep.add_argument(
        "--set", action="append", metavar="KEY=VALUE", help="override a shared config key"
    )
    p_sweep.add_argument("--out", required=True, help="output directory")
    p_sweep.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except AcdkitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())

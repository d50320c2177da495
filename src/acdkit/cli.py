"""Command-line front end: scene synthesis, detection, evaluation, sweeps.

Every command writes a run manifest with content digests of its inputs and
outputs; stdout carries machine-readable key=value lines and diagnostics go
to stderr. Exit codes: 1 configuration/validation, 2 I/O, 3 numerical.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import sys
import time
from dataclasses import replace
from pathlib import Path

from . import __version__
from .acda import AcdaConfig, prepare_samples, run_acda
from .baselines import diff_rx, run_baseline
from .core import (
    _check_cubes,
    _is_int,
    _read_json_object,
    _write_text,
    cube_to_map,
    flatten,
    read_cube,
    read_mask,
    write_cube,
    write_mask,
)
from .errors import AcdkitError, DataIOError, NumericalError, ValidationError
from .evaluate import export_curve, export_map, export_map_pgm, roc
from .linalg import _require_ridge
from .neural import NetworkShape, TrainConfig
from .synth import SceneSpec, describe, generate

_TRAIN_KEYS = ("epochs", "batch_size", "learning_rate", "l2_lambda")
_RUN_KEYS = ("sample_count", "repeats", "base_seed")
_RUN_DEFAULTS = AcdaConfig()
_ACDA_DEFAULTS = {
    "h1": None,
    "h2": None,
    **{key: getattr(_RUN_DEFAULTS.train, key) for key in _TRAIN_KEYS},
    **{key: getattr(_RUN_DEFAULTS, key) for key in _RUN_KEYS},
}
_LINEAR_DEFAULTS = {"ridge": None}


def _digest(path: Path) -> str:
    try:
        payload = Path(path).read_bytes()
    except OSError as exc:
        raise DataIOError(f"cannot digest {path}: {exc}") from exc
    return "sha256:" + hashlib.sha256(payload).hexdigest()


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


def _acda_config(conf: dict, shape: NetworkShape | None) -> AcdaConfig:
    """The run config of merged settings `conf`; the dataclasses check every value."""
    train = TrainConfig(**{key: conf[key] for key in _TRAIN_KEYS})
    return AcdaConfig(shape=shape, train=train, **{key: conf[key] for key in _RUN_KEYS})


def _acda_shape(conf: dict, bands: int) -> NetworkShape | None:
    """The bottleneck set by `h1`/`h2`, or None for the run config's default shape."""
    if (conf["h1"] is None) != (conf["h2"] is None):
        raise ValidationError("h1 and h2 must be set together")
    if conf["h1"] is None:
        return None
    return NetworkShape.bottleneck(bands, conf["h1"], conf["h2"])


def _read_pair(x_path, y_path):
    x_cube = read_cube(x_path)
    y_cube = read_cube(y_path)
    _check_cubes(x_cube, y_cube)
    return x_cube, y_cube


def cmd_synth(args) -> int:
    started = time.perf_counter()
    spec = SceneSpec.from_json_file(args.spec)
    out = _ensure_out_dir(args.out)
    x_cube, y_cube, mask = generate(spec)
    write_cube(x_cube, out / "x.json")
    write_cube(y_cube, out / "y.json")
    write_mask(mask, out / "truth.pgm")
    _write_text(out / "scene.json", describe(spec) + "\n", "scene description")
    outputs = _cube_files(out / "x.json") + _cube_files(out / "y.json")
    outputs += [out / "truth.pgm", out / "scene.json"]
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


def _write_histories(runs, path: Path) -> None:
    lines = ["repeat,direction,epoch,loss"]
    for r, run in enumerate(runs):
        for direction, series in zip(("fwd", "bwd"), run.training_losses):
            for epoch, value in enumerate(series):
                lines.append(f"{r},{direction},{epoch},{value!r}")
    _write_text(path, "\n".join(lines) + "\n", "loss history")


def cmd_detect(args) -> int:
    started = time.perf_counter()
    x_cube, y_cube = _read_pair(args.x, args.y)
    data = {} if args.config is None else _read_json_object(args.config, "config")
    outputs: list[Path] = []
    if args.method == "acda":
        conf = _load_config(_ACDA_DEFAULTS, data, args.set)
        cfg = _acda_config(conf, _acda_shape(conf, x_cube.bands))
        shape = cfg.resolved_shape(x_cube.bands)
        out = _ensure_out_dir(args.out)
        samples = prepare_samples(x_cube, y_cube, cfg)
        mean_map, runs = run_acda(x_cube, y_cube, cfg, samples=samples)
        export_map(mean_map, out / "map.json")
        outputs += _cube_files(out / "map.json")
        _write_histories(runs, out / "losses.csv")
        outputs.append(out / "losses.csv")
        if args.save_samples:
            sample_lines = ["index"] + [str(i) for i in samples.indices]
            _write_text(out / "samples.csv", "\n".join(sample_lines) + "\n", "sample indices")
            outputs.append(out / "samples.csv")
        if args.save_run_maps:
            for r, run in enumerate(runs):
                for tag, intensity in (
                    ("fwd", run.loss_map_fwd),
                    ("bwd", run.loss_map_bwd),
                    ("fused", run.fused),
                ):
                    name = out / f"run{r}_{tag}.json"
                    export_map(intensity, name)
                    outputs += _cube_files(name)
        seeds = [cfg.base_seed + r for r in range(cfg.repeats)]
        snapshot = dict(conf)
        snapshot["h1"], snapshot["h2"] = shape.hidden[:2]
        snapshot["resolved_sample_count"] = samples.size
    else:
        conf = _load_config(_LINEAR_DEFAULTS, data, args.set)
        ridge = conf["ridge"]
        if ridge is not None:
            ridge = _require_ridge(ridge, "config key 'ridge'")
        out = _ensure_out_dir(args.out)
        if args.method == "diffrx":
            plane = (x_cube.height, x_cube.width)
            intensity = diff_rx(flatten(x_cube), flatten(y_cube), plane, ridge)
        else:
            intensity = run_baseline(args.method, x_cube, y_cube, ridge)
        export_map(intensity, out / "map.json")
        outputs += _cube_files(out / "map.json")
        seeds = []
        snapshot = dict(conf)
        snapshot["scoring"] = "per-pixel MSE, bidirectional min fusion" if args.method in (
            "cc",
            "ce",
        ) else "mahalanobis distance of differences"
    inputs = _cube_files(args.x) + _cube_files(args.y)
    if args.config:
        inputs.append(Path(args.config))
    snapshot["method"] = args.method
    manifest = _write_manifest(out, "detect", snapshot, inputs, outputs, seeds, started)
    _emit(method=args.method, map=out / "map.json", manifest=manifest)
    return 0


def cmd_eval(args) -> int:
    started = time.perf_counter()
    map_cube = read_cube(args.map)
    intensity = cube_to_map(map_cube)
    mask = read_mask(args.mask, expected_shape=intensity.values.shape)
    out = _ensure_out_dir(args.out)
    curve = roc(intensity, mask)
    export_curve(curve, out / "roc.csv")
    export_map_pgm(intensity, out / "map.pgm")
    outputs = [out / "roc.csv", out / "map.pgm"]
    inputs = _cube_files(args.map) + [Path(args.mask)]
    manifest = _write_manifest(out, "eval", {}, inputs, outputs, [], started)
    _emit(auc=f"{curve.auc:.6f}", roc=out / "roc.csv", rendering=out / "map.pgm", manifest=manifest)
    return 0


def cmd_sweep(args) -> int:
    started = time.perf_counter()
    x_cube, y_cube = _read_pair(args.x, args.y)
    mask = read_mask(args.mask, expected_shape=(x_cube.height, x_cube.width))
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
    conf = _load_config(_ACDA_DEFAULTS, grid, args.set)
    shared = _acda_config(conf, None)
    bands = x_cube.bands
    configs = {
        (h1, h2): replace(shared, shape=NetworkShape.bottleneck(bands, h1, h2))
        for h2 in h2_values
        for h1 in h1_values
        if 0 < h2 < h1 < bands
    }
    out = _ensure_out_dir(args.out)

    # Pre-detection reads only sample_count and base_seed, which every cell
    # shares: the first cell runs it and later cells reuse its samples or error.
    predetected = None
    rows = ["h2/h1," + ",".join(str(h1) for h1 in h1_values)]
    for h2 in h2_values:
        cells = []
        for h1 in h1_values:
            cfg = configs.get((h1, h2))
            if cfg is None:
                cells.append("-")
                continue
            try:
                if predetected is None:
                    try:
                        predetected = prepare_samples(x_cube, y_cube, cfg)
                    except AcdkitError as exc:
                        predetected = exc
                if isinstance(predetected, AcdkitError):
                    raise predetected
                mean_map, _ = run_acda(x_cube, y_cube, cfg, samples=predetected)
                auc = roc(mean_map, mask).auc
            except AcdkitError as exc:
                logging.getLogger(__name__).warning("cell h1=%d h2=%d failed: %s", h1, h2, exc)
                cells.append("nan")
                continue
            cells.append(f"{auc:.6f}")
            _emit(**{f"auc_h1_{h1}_h2_{h2}": f"{auc:.6f}"})
        rows.append(f"{h2}," + ",".join(cells))
    table = out / "sweep.csv"
    _write_text(table, "\n".join(rows) + "\n", "sweep table")
    inputs = _cube_files(args.x) + _cube_files(args.y) + [Path(args.mask), Path(args.grid)]
    manifest = _write_manifest(
        out, "sweep", dict(conf, h1=h1_values, h2=h2_values), inputs, [table],
        [shared.base_seed], started,
    )
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
    logging.basicConfig(stream=sys.stderr, level=logging.WARNING, format="%(message)s")
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except DataIOError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

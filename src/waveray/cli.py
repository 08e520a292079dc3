"""Command line interface.

One binary, six subcommands: train, eval, gradcheck, export-maps,
param-count and synth.  Progress goes to stderr; anything meant for
machines (metrics, counts, file paths) goes to stdout.

Exit codes: 0 success, 1 usage/config/data errors, 2 training divergence,
3 verification (gradient check) failure.

Configuration files are flat ``key = value`` text with ``#`` comments.
Command line flags override file values, which override the defaults.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from .autodiff import Tensor, set_precision
from .checkpoint import CheckpointState, load_checkpoint
from .data import (
    SyntheticSpec,
    export_map,
    load_dataset,
    read_image,
    synth_generate,
    write_origin_csv,
)
from .errors import ConfigError, DivergenceError, WaverayError
from .gradcheck import DEFAULT_TOL, run_scope
from .model import ModelConfig, WaveletClassifier, desk_config, param_count, table1_config
from .train import METRICS_HEADER, TrainConfig, evaluate, train

_MODEL_KEYS = {
    "preset": str,
    "classes": int,
    "input_extent": int,
    "rays": int,
    "d_model": int,
    "n_origins": int,
    "share_ray_fields": bool,
    "stem_channels": int,
    "extraction_channels": "ints",
    "refinement_channels": "ints",
    "blocks_per_stage": int,
    "refinement_stages": int,
    "ray_layers_per_stage": int,
    "bottleneck_factor": int,
}
_TRAIN_KEYS = {
    "epochs": int,
    "batch_size": int,
    "peak_lr": float,
    "weight_decay": float,
    "warmup_fraction": float,
    "seed": int,
    "precision": str,
    "checkpoint_every": int,
}
_KNOWN_KEYS = {**_MODEL_KEYS, **_TRAIN_KEYS}


def parse_config_file(path) -> dict[str, str]:
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    values: dict[str, str] = {}
    for ln, raw in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{ln}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _KNOWN_KEYS:
            raise ConfigError(f"{path}:{ln}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"{path}:{ln}: duplicate key {key!r}")
        values[key] = value
    return values


def _convert(key: str, text: str):
    kind = _KNOWN_KEYS[key]
    try:
        if kind is bool:
            if text.lower() in ("true", "1", "yes", "on"):
                return True
            if text.lower() in ("false", "0", "no", "off"):
                return False
            raise ValueError(text)
        if kind == "ints":
            return tuple(int(p.strip()) for p in text.split(","))
        return kind(text)
    except ValueError:
        raise ConfigError(f"bad value for {key!r}: {text!r}") from None


def build_configs(values: dict) -> tuple[ModelConfig, TrainConfig]:
    """Assemble configs from a flat key->string dict (already merged)."""
    typed = {k: _convert(k, v) if isinstance(v, str) else v for k, v in values.items()}
    preset = typed.pop("preset", "desk")
    if preset == "desk":
        model = desk_config()
    elif preset == "table1":
        model = table1_config()
    else:
        raise ConfigError(f"preset must be 'desk' or 'table1', got {preset!r}")
    bb = model.backbone
    for key in _MODEL_KEYS:
        if key == "preset" or key not in typed:
            continue
        value = typed[key]
        if hasattr(bb, key):
            bb = replace(bb, **{key: value})
        else:
            model = replace(model, **{key: value})
    model = replace(model, backbone=bb)
    tc = TrainConfig()
    for key in _TRAIN_KEYS:
        if key in typed:
            tc = replace(tc, **{key: typed[key]})
    tc.validate()
    return model, tc


def _effective_config_text(model: ModelConfig, tc: TrainConfig) -> str:
    bb = model.backbone
    pairs = [
        ("classes", model.classes),
        ("input_extent", model.input_extent),
        ("rays", model.rays),
        ("d_model", model.d_model),
        ("n_origins", model.n_origins),
        ("share_ray_fields", model.share_ray_fields),
        ("stem_channels", bb.stem_channels),
        ("extraction_channels", ",".join(map(str, bb.extraction_channels))),
        ("refinement_channels", ",".join(map(str, bb.refinement_channels))),
        ("blocks_per_stage", bb.blocks_per_stage),
        ("refinement_stages", bb.refinement_stages),
        ("ray_layers_per_stage", bb.ray_layers_per_stage),
        ("bottleneck_factor", bb.bottleneck_factor),
        ("epochs", tc.epochs),
        ("batch_size", tc.batch_size),
        ("peak_lr", tc.peak_lr),
        ("weight_decay", tc.weight_decay),
        ("warmup_fraction", tc.warmup_fraction),
        ("seed", tc.seed),
        ("precision", tc.precision),
        ("checkpoint_every", tc.checkpoint_every),
    ]
    return "\n".join(f"{k} = {v}" for k, v in pairs) + "\n"


def _merge_cli_values(args, extra_flags: dict) -> dict:
    values: dict = {}
    if getattr(args, "config", None):
        values.update(parse_config_file(args.config))
    for key, val in extra_flags.items():
        if val is not None:
            values[key] = val
    for key, text in getattr(args, "set", None) or []:
        if key not in _KNOWN_KEYS:
            raise ConfigError(f"unknown config key {key!r}")
        values[key] = text
    return values


def _split_set_args(pairs) -> list[tuple[str, str]]:
    out = []
    for item in pairs or []:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, value = item.split("=", 1)
        out.append((key.strip(), value.strip()))
    return out


def cmd_train(args) -> int:
    values = _merge_cli_values(args, {
        "seed": args.seed,
        "rays": args.rays,
        "epochs": args.epochs,
        "batch_size": args.batch_size,
        "peak_lr": args.peak_lr,
        "weight_decay": args.weight_decay,
        "checkpoint_every": args.checkpoint_every,
    })
    model_cfg, train_cfg = build_configs(values)
    model_cfg.validate()
    set_precision(train_cfg.precision)
    dataset = load_dataset(args.data, classes=model_cfg.classes)
    if dataset.extent != model_cfg.input_extent:
        raise ConfigError(
            f"dataset extent {dataset.extent} does not match configured input extent "
            f"{model_cfg.input_extent}"
        )
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "config.txt").write_text(_effective_config_text(model_cfg, train_cfg),
                                        encoding="utf-8")
    model = WaveletClassifier(model_cfg, seed=train_cfg.seed)
    history = train(model, dataset, train_cfg, out_dir=out_dir)
    epoch, final, lr = history[-1]
    print(METRICS_HEADER)
    print(f"{epoch},{final.csv_fields()},{lr:.8g},{final.images_per_second:.2f}")
    return 0


def _rebuild_from_checkpoint(path) -> tuple[WaveletClassifier, CheckpointState]:
    state = load_checkpoint(path)
    cfg = ModelConfig.from_dict(state.model_config)
    model = WaveletClassifier(cfg, seed=0)
    model.load_state(state.params)
    return model, state


def cmd_eval(args) -> int:
    model, state = _rebuild_from_checkpoint(args.checkpoint)
    dataset = load_dataset(args.data, classes=model.config.classes)
    metrics = evaluate(model, dataset, batch_size=args.batch_size)
    print(METRICS_HEADER)
    print(f"{state.epoch},{metrics.csv_fields()},0,{metrics.images_per_second:.2f}")
    return 0


def cmd_gradcheck(args) -> int:
    scopes = ["op", "block", "model"] if args.scope == "all" else [args.scope]
    worst = 0.0
    failed = False
    for scope in scopes:
        rows = run_scope(scope, seed=args.seed, tol=args.tol)
        for probe, input_name, err in rows:
            status = "ok" if err <= args.tol else "FAIL"
            print(f"{scope:6s} {probe:20s} {input_name:24s} {err:12.3e} {status}")
            worst = max(worst, err)
            failed = failed or err > args.tol
    print(f"worst relative error: {worst:.3e} (tolerance {args.tol:g})")
    if failed:
        print("gradient check FAILED", file=sys.stderr)
        return 3
    return 0


def cmd_export_maps(args) -> int:
    model, state = _rebuild_from_checkpoint(args.checkpoint)
    if model.config.rays < 1:
        raise ConfigError("checkpoint has no ray layers to export")
    img = read_image(args.image)
    if img.shape[1] != model.config.input_extent:
        raise ConfigError(
            f"image extent {img.shape[1]} does not match model input extent "
            f"{model.config.input_extent}"
        )
    _, aux = model.forward_with_aux(Tensor(img[None]))
    maps = aux["maps"]
    if not 0 <= args.layer < len(maps):
        raise ConfigError(f"layer must lie in [0, {len(maps)}), got {args.layer}")
    amap = maps[args.layer]
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    export_map(amap.combined_image(), out_dir / "combined.pgm")
    for i, image in enumerate(amap.per_origin_images()):
        export_map(image, out_dir / f"origin_{i:02d}.pgm")
    rows = []
    idx = 0
    for fld in model.ray_fields():
        for x, y in fld.origins.data:
            rows.append((state.epoch, idx, float(x), float(y)))
            idx += 1
    write_origin_csv(out_dir / "origins.csv", rows)
    print(out_dir)
    return 0


def cmd_param_count(args) -> int:
    if args.table1:
        cfg = table1_config(rays=args.rays if args.rays is not None else 0,
                            classes=args.classes or 1000)
    else:
        values = _merge_cli_values(args, {
            "rays": args.rays,
            "classes": args.classes,
        })
        cfg, _ = build_configs(values)
    cfg.validate()
    per, total = param_count(cfg)
    print("component,parameters")
    for name, count in per.items():
        print(f"{name},{count}")
    print(f"total,{total}")
    print(f"total_without_head,{total - per.get('head', 0)}")
    return 0


def cmd_synth(args) -> int:
    spec = SyntheticSpec(
        classes=args.classes,
        per_class=args.per_class,
        extent=args.extent,
        placement=args.placement,
        noise=args.noise,
        seed=args.seed,
    )
    manifest = synth_generate(spec, args.out)
    print(manifest)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="waveray",
        description="Wavelet backbone with ray-attenuation spectral encoding",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a classifier on a manifest dataset")
    p.add_argument("--config", help="key = value configuration file")
    p.add_argument("--data", required=True, help="manifest.csv or its directory")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int)
    p.add_argument("--rays", type=int)
    p.add_argument("--epochs", type=int)
    p.add_argument("--batch-size", dest="batch_size", type=int)
    p.add_argument("--peak-lr", dest="peak_lr", type=float)
    p.add_argument("--weight-decay", dest="weight_decay", type=float)
    p.add_argument("--checkpoint-every", dest="checkpoint_every", type=int)
    p.add_argument("--set", action="append", metavar="KEY=VALUE",
                   help="override any config key (repeatable)")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a dataset")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--batch-size", dest="batch_size", type=int, default=64)
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("gradcheck", help="finite-difference gradient verification")
    p.add_argument("--scope", choices=["op", "block", "model", "all"], default="all")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p.set_defaults(fn=cmd_gradcheck)

    p = sub.add_parser("export-maps", help="export attenuation maps for one image")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--image", required=True, help="PPM/PGM image file")
    p.add_argument("--out", required=True)
    p.add_argument("--layer", type=int, default=0, help="which ray layer's maps")
    p.set_defaults(fn=cmd_export_maps)

    p = sub.add_parser("param-count", help="parameter counts for a configuration")
    p.add_argument("--config")
    p.add_argument("--table1", action="store_true", help="use the full-scale config")
    p.add_argument("--rays", type=int)
    p.add_argument("--classes", type=int)
    p.add_argument("--set", action="append", metavar="KEY=VALUE")
    p.set_defaults(fn=cmd_param_count)

    p = sub.add_parser("synth", help="generate a synthetic shape dataset")
    p.add_argument("--out", required=True)
    p.add_argument("--classes", type=int, default=3)
    p.add_argument("--per-class", dest="per_class", type=int, default=64)
    p.add_argument("--extent", type=int, default=32)
    p.add_argument("--placement", choices=["center", "uniform"], default="center")
    p.add_argument("--noise", type=float, default=0.05)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_synth)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 1 if e.code not in (0, None) else 0
    try:
        if hasattr(args, "set"):
            args.set = _split_set_args(args.set)
        return args.fn(args)
    except DivergenceError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except WaverayError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())

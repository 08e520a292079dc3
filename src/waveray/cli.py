"""Command line interface.

One binary, six subcommands: train, eval, gradcheck, export-maps,
param-count and synth.  Progress goes to stderr; anything meant for
machines (metrics, counts, file paths) goes to stdout.

Exit codes: 0 success, 1 usage/config/data errors, 2 training divergence,
3 verification (gradient check) failure.

Configuration keys are the fields of ``ModelConfig``, ``BackboneConfig`` and
``TrainConfig`` plus ``preset`` (``desk`` or ``table1``, the defaults the
fields override).  ``--config`` reads flat ``key = value`` text with ``#``
comments; named flags override file values and ``--set key=value`` overrides
both.  ``train`` writes every key of the run to ``config.txt``, which
``--config`` reads back.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from .autodiff import _DTYPES
from .backbone import BackboneConfig
from .checkpoint import CheckpointState, load_checkpoint
from .data import (
    SyntheticSpec,
    export_map,
    load_dataset,
    read_image,
    synth_generate,
    write_origin_csv,
)
from .errors import CheckpointError, ConfigError, DataError, DivergenceError, WaverayError
from .gradcheck import _SCOPES, DEFAULT_TOL, run_scope
from .model import ModelConfig, WaveletClassifier, desk_config, param_count, table1_config
from .train import METRICS_HEADER, TrainConfig, evaluate, origin_rows, train


def _keys(cls) -> dict[str, str]:
    """Config keys of one config class: field name -> annotated type name."""
    return {f.name: f.type for f in fields(cls) if f.name != "backbone"}


_KINDS = {"preset": "str", **_keys(ModelConfig), **_keys(BackboneConfig), **_keys(TrainConfig)}


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
        if key not in _KINDS:
            raise ConfigError(f"{path}:{ln}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"{path}:{ln}: duplicate key {key!r}")
        values[key] = value
    return values


def _convert(key: str, text: str):
    kind = _KINDS[key]
    try:
        if kind == "bool":
            if text.lower() in ("true", "1", "yes", "on"):
                return True
            if text.lower() in ("false", "0", "no", "off"):
                return False
            raise ValueError(text)
        if kind == "tuple":
            return tuple(int(p) for p in text.split(","))
        return {"int": int, "float": float, "str": str}[kind](text)
    except ValueError:
        raise ConfigError(f"bad value for {key!r}: {text!r}") from None


def build_configs(values: dict) -> tuple[ModelConfig, TrainConfig]:
    """Assemble and validate configs from a flat key->value dict (already merged)."""
    typed = {k: _convert(k, v) if isinstance(v, str) else v for k, v in values.items()}
    preset = typed.pop("preset", "desk")
    presets = {"desk": desk_config, "table1": table1_config}
    if preset not in presets:
        raise ConfigError(f"preset must be 'desk' or 'table1', got {preset!r}")
    model = presets[preset]()

    def section(cls) -> dict:
        return {k: typed[k] for k in _keys(cls) if k in typed}

    backbone = replace(model.backbone, **section(BackboneConfig))
    model = replace(model, backbone=backbone, **section(ModelConfig))
    tc = TrainConfig(**section(TrainConfig))
    tc.validate()
    model.validate()
    return model, tc


def _effective_config_text(model: ModelConfig, tc: TrainConfig) -> str:
    lines = []
    for cfg in (model, model.backbone, tc):
        for key, kind in _keys(type(cfg)).items():
            value = getattr(cfg, key)
            if kind == "tuple":
                value = ",".join(map(str, value))
            lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"


def _merge_cli_values(args) -> dict:
    """Config file values, then every named flag set on the command line, then ``--set``."""
    values: dict = parse_config_file(args.config) if args.config else {}
    values.update((k, v) for k, v in vars(args).items() if k in _KINDS and v is not None)
    for key, text in args.set or []:
        if key not in _KINDS:
            raise ConfigError(f"unknown config key {key!r}")
        values[key] = text
    return values


def _key_value(text: str) -> tuple[str, str]:
    """Parse one ``--set`` argument into its key and value."""
    key, sep, value = text.partition("=")
    if not sep:
        raise argparse.ArgumentTypeError(f"expected key=value, got {text!r}")
    return key.strip(), value.strip()


def cmd_train(args) -> int:
    model_cfg, train_cfg = build_configs(_merge_cli_values(args))
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
    model = WaveletClassifier(model_cfg, seed=train_cfg.seed, dtype=_DTYPES[train_cfg.precision])
    history = train(model, dataset, train_cfg, out_dir=out_dir)
    epoch, final, lr = history[-1]
    print(METRICS_HEADER)
    print(final.csv_row(epoch, lr))
    return 0


def _checkpoint_model(path) -> tuple[WaveletClassifier, CheckpointState]:
    """Rebuild a checkpoint's model in its stored precision's dtype, with its
    stored weights; returns the model and the loaded state."""
    state = load_checkpoint(path)
    try:
        config = ModelConfig.from_dict(state.model_config)
        config.validate()  # a stored value of the wrong type or range fails here as a ConfigError
    except (KeyError, TypeError, ValueError) as e:
        raise CheckpointError(f"{path}: bad stored model config: {type(e).__name__}: {e}") from None
    model = WaveletClassifier(config, seed=0, dtype=_DTYPES[state.precision])
    model.load_state(state.params)
    return model, state


def cmd_eval(args) -> int:
    model, state = _checkpoint_model(args.checkpoint)
    dataset = load_dataset(args.data, classes=model.config.classes)
    metrics = evaluate(model, dataset, batch_size=args.batch_size)
    print(METRICS_HEADER)
    print(metrics.csv_row(state.epoch, 0))
    return 0


def cmd_gradcheck(args) -> int:
    scopes = list(_SCOPES) if args.scope == "all" else [args.scope]
    worst = 0.0
    failed = False
    for scope in scopes:
        rows = run_scope(scope, seed=args.seed, tol=args.tol)
        for probe, input_name, err in rows:
            status = "ok" if err <= args.tol else "FAIL"
            print(f"{scope:6s} {probe:20s} {input_name:24s} {err:12.3e} {status}")
            worst = max(worst, err)
            failed = failed or status == "FAIL"
    print(f"worst relative error: {worst:.3e} (tolerance {args.tol:g})")
    if failed:
        print("gradient check FAILED", file=sys.stderr)
        return 3
    return 0


def cmd_export_maps(args) -> int:
    model, state = _checkpoint_model(args.checkpoint)
    if model.config.rays < 1:
        raise ConfigError("checkpoint has no ray layers to export")
    _, aux = model.forward_with_aux(read_image(args.image)[None])
    maps = aux["maps"]
    if not 0 <= args.layer < len(maps):
        raise ConfigError(f"layer must lie in [0, {len(maps)}), got {args.layer}")
    amap = maps[args.layer]
    if not (np.isfinite(amap.per_origin.data).all() and np.isfinite(amap.combined.data).all()):
        raise DataError(f"attenuation maps of ray layer {args.layer} hold NaN or Inf")
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    export_map(amap.combined.data.reshape(amap.extents), out_dir / "combined.pgm")
    for i, image in enumerate(amap.per_origin.data.reshape(-1, *amap.extents)):
        export_map(image, out_dir / f"origin_{i:02d}.pgm")
    write_origin_csv(out_dir / "origins.csv", origin_rows(model, state.epoch))
    print(out_dir)
    return 0


def cmd_param_count(args) -> int:
    values = _merge_cli_values(args)  # unknown keys still fail; training settings count nothing
    cfg, _ = build_configs({k: v for k, v in values.items() if k not in _keys(TrainConfig)})
    per, total = param_count(cfg)
    print("component,parameters")
    for name, count in per.items():
        print(f"{name},{count}")
    print(f"total,{total}")
    print(f"total_without_head,{total - per.get('head', 0)}")
    return 0


def cmd_synth(args) -> int:
    set_flags = {f.name: getattr(args, f.name) for f in fields(SyntheticSpec)}
    spec = SyntheticSpec(**{k: v for k, v in set_flags.items() if v is not None})
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
    p.add_argument("--set", action="append", type=_key_value, metavar="KEY=VALUE",
                   help="override any config key (repeatable)")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a dataset")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--batch-size", dest="batch_size", type=int, default=64)
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("gradcheck", help="finite-difference gradient verification")
    p.add_argument("--scope", choices=[*_SCOPES, "all"], default="all")
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
    p.add_argument("--table1", dest="preset", action="store_const", const="table1",
                   help="use the full-scale preset (same as --set preset=table1)")
    p.add_argument("--rays", type=int)
    p.add_argument("--classes", type=int)
    p.add_argument("--set", action="append", type=_key_value, metavar="KEY=VALUE")
    p.set_defaults(fn=cmd_param_count)

    p = sub.add_parser("synth", help="generate a synthetic shape dataset")
    p.add_argument("--out", required=True)
    p.add_argument("--classes", type=int)
    p.add_argument("--per-class", dest="per_class", type=int)
    p.add_argument("--extent", type=int)
    p.add_argument("--placement", choices=["center", "uniform"])
    p.add_argument("--noise", type=float)
    p.add_argument("--seed", type=int)
    p.set_defaults(fn=cmd_synth)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 1 if e.code not in (0, None) else 0
    try:
        return args.fn(args)
    except DivergenceError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (WaverayError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())

"""Training and evaluation loops.

train() runs full epochs of AdamW under the one-cycle schedule, evaluates
on the training set after every epoch, and (when given an output
directory) writes a metrics CSV, origin trajectories, periodic and final
checkpoints.  Everything is seeded: two runs from the same seed produce
identical parameters, identical logs (up to throughput) and bit-identical
checkpoints.
"""

from __future__ import annotations

import sys
import time
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .autodiff import _DTYPES, Tape, Tensor, backward
from .checkpoint import CheckpointState, save_checkpoint
from .data import Dataset, write_origin_csv
from .errors import ConfigError, DataError, DivergenceError, check_field_types
from .model import WaveletClassifier, cross_entropy
from .optim import AdamW, one_cycle_cosine_lr

METRICS_HEADER = "epoch,loss,top1,top5,weighted_f1,lr,images_per_second"


@dataclass
class TrainConfig:
    epochs: int = 300
    batch_size: int = 1024
    peak_lr: float = 1e-3
    weight_decay: float = 0.05
    warmup_fraction: float = 0.1
    seed: int = 0
    precision: str = "single"
    checkpoint_every: int = 0  # epochs between periodic checkpoints; 0 = final only

    def validate(self) -> None:
        check_field_types(self)
        if self.epochs < 1:
            raise ConfigError(f"epochs must be positive, got {self.epochs}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be positive, got {self.batch_size}")
        if self.checkpoint_every < 0:
            raise ConfigError(f"checkpoint_every must be nonnegative, got {self.checkpoint_every}")
        if not self.peak_lr > 0.0:
            raise ConfigError(f"peak_lr must be positive, got {self.peak_lr}")
        if not self.weight_decay >= 0.0:
            raise ConfigError(f"weight_decay must be nonnegative, got {self.weight_decay}")
        if not 0.0 <= self.warmup_fraction <= 1.0:
            raise ConfigError(f"warmup_fraction must lie in [0, 1], got {self.warmup_fraction}")
        if self.precision not in _DTYPES:
            raise ConfigError(f"precision must be 'single' or 'double', got {self.precision!r}")
        if self.seed < 0:
            raise ConfigError(f"seed must be nonnegative, got {self.seed}")


@dataclass
class Metrics:
    loss: float
    top1: float
    top5: float
    weighted_f1: float
    images_per_second: float

    def csv_fields(self) -> str:
        return (f"{self.loss:.6f},{self.top1:.6f},{self.top5:.6f},"
                f"{self.weighted_f1:.6f}")

    def csv_row(self, epoch: int, lr: float) -> str:
        """One metrics.csv line under ``METRICS_HEADER``."""
        return f"{epoch},{self.csv_fields()},{lr:.8g},{self.images_per_second:.2f}"


def _top_k_hits(logits: np.ndarray, labels: np.ndarray, k: int) -> int:
    k = min(k, logits.shape[1])
    part = np.argpartition(logits, -k, axis=1)[:, -k:]
    return int((part == labels[:, None]).any(axis=1).sum())


def _weighted_f1(conf: np.ndarray) -> float:
    """Support-weighted mean of per-class F1 from a confusion matrix
    (rows true, columns predicted); classes with a zero denominator
    contribute zero."""
    support = conf.sum(axis=1)
    total = support.sum()
    if total == 0:
        raise DataError("cannot score an empty dataset")
    tp = np.diag(conf).astype(np.float64)
    denom = 2 * tp + (conf.sum(axis=0) - tp) + (support - tp)
    f1 = np.divide(2 * tp, denom, out=np.zeros_like(tp), where=denom > 0)
    return float((support / total) @ f1)


def evaluate(model: WaveletClassifier, dataset: Dataset, batch_size: int = 64) -> Metrics:
    """Forward-only pass over the dataset; loss is the exact mean."""
    if batch_size < 1:
        raise ConfigError(f"batch_size must be positive, got {batch_size}")
    n = len(dataset)
    if n == 0:
        raise DataError("cannot evaluate on an empty dataset")
    classes = model.config.classes
    conf = np.zeros((classes, classes), dtype=np.int64)
    loss_sum = 0.0
    top1 = 0
    top5 = 0
    t0 = time.perf_counter()
    for start in range(0, n, batch_size):
        xb = Tensor(dataset.images[start : start + batch_size])
        yb = dataset.labels[start : start + batch_size]
        logits = model.forward(xb)
        loss_sum += cross_entropy(logits, yb).item() * len(yb)
        z = logits.data
        pred = z.argmax(axis=1)
        top1 += int((pred == yb).sum())
        top5 += _top_k_hits(z, yb, 5)
        np.add.at(conf, (yb, pred), 1)
    elapsed = max(time.perf_counter() - t0, 1e-9)
    return Metrics(
        loss=loss_sum / n,
        top1=top1 / n,
        top5=top5 / n,
        weighted_f1=_weighted_f1(conf),
        images_per_second=n / elapsed,
    )


def origin_rows(model: WaveletClassifier, epoch: int) -> list[tuple[int, int, float, float]]:
    """(epoch, origin index, x, y) for every ray origin, in parameter order."""
    xy = [xy for fld in model.ray_fields() for xy in fld.origins.data]
    return [(epoch, i, float(x), float(y)) for i, (x, y) in enumerate(xy)]


def train(model: WaveletClassifier, dataset: Dataset, cfg: TrainConfig, out_dir=None,
          log_stream=None) -> list[tuple[int, Metrics, float]]:
    """Optimize the model in place; returns (epoch, metrics, lr) history.

    Raises ConfigError, before writing anything, when a parameter's dtype is
    not ``cfg.precision``'s, and DivergenceError as soon as a batch loss goes non-finite.
    """
    cfg.validate()
    if len(dataset) == 0:
        raise DataError("cannot train on an empty dataset")
    dtypes = sorted({p.dtype.name for p in model.parameters().values()})
    if dtypes != [np.dtype(_DTYPES[cfg.precision]).name]:
        raise ConfigError(f"precision {cfg.precision!r} cannot train {dtypes} parameters")
    log = log_stream if log_stream is not None else sys.stderr
    rng = np.random.default_rng(cfg.seed)
    opt = AdamW(model.parameters(), weight_decay=cfg.weight_decay)
    n = len(dataset)
    steps_per_epoch = (n + cfg.batch_size - 1) // cfg.batch_size
    total_steps = cfg.epochs * steps_per_epoch
    out_dir = Path(out_dir) if out_dir is not None else None
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)

    origins = origin_rows(model, 0)

    history: list = []
    metric_lines = [METRICS_HEADER]
    step = 0
    lr = 0.0
    for epoch in range(1, cfg.epochs + 1):
        order = rng.permutation(n)
        t0 = time.perf_counter()
        for s in range(steps_per_epoch):
            batch = order[s * cfg.batch_size : (s + 1) * cfg.batch_size]
            xb = Tensor(dataset.images[batch])
            yb = dataset.labels[batch]
            lr = one_cycle_cosine_lr(step, total_steps, cfg.peak_lr, cfg.warmup_fraction)
            model.zero_grads()
            with Tape() as tape:
                loss = cross_entropy(model.forward(xb), yb)
            value = loss.item()
            if not np.isfinite(value):
                raise DivergenceError(
                    f"non-finite loss at step {step} (epoch {epoch}): {value}")
            backward(loss, tape)
            opt.step(lr)
            step += 1
        train_seconds = max(time.perf_counter() - t0, 1e-9)

        metrics = evaluate(model, dataset)
        metrics.images_per_second = n / train_seconds
        history.append((epoch, metrics, lr))
        line = metrics.csv_row(epoch, lr)
        metric_lines.append(line)
        print(f"[epoch {epoch}/{cfg.epochs}] {line}", file=log)
        origins += origin_rows(model, epoch)
        if out_dir is not None:
            # rewritten every epoch, so a run that diverges later keeps the epochs it finished
            (out_dir / "metrics.csv").write_text("\n".join(metric_lines) + "\n",
                                                 encoding="utf-8")
            if origins:
                write_origin_csv(out_dir / "origins.csv", origins)
            if cfg.checkpoint_every and epoch % cfg.checkpoint_every == 0:
                _save(model, opt, cfg, rng, epoch, out_dir / f"checkpoint_{epoch:05d}.wrnc")

    if out_dir is not None:
        _save(model, opt, cfg, rng, cfg.epochs, out_dir / "checkpoint_final.wrnc")
    return history


def _save(model, opt: AdamW, cfg: TrainConfig, rng, epoch: int, path) -> None:
    m, v, opt_step = opt.export_state()
    state = CheckpointState(
        model_config=model.config.to_dict(),
        params=model.state_arrays(),
        opt_m=m,
        opt_v=v,
        opt_step=opt_step,
        epoch=epoch,
        rng_state=rng.bit_generator.state,
        precision=cfg.precision,
        extra={"train": {k: v for k, v in asdict(cfg).items()
                         if k not in ("precision", "checkpoint_every")}},
    )
    save_checkpoint(path, state)

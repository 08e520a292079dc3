"""The three benchmark workloads.

Each workload is a closed loop in one process: every step or forward
starts only after the previous one has returned.  A workload has four
phases:

* ``prepare`` generates its inputs from the seed (not timed);
* ``setup`` loads the data and builds the model (timed as ``setup_s``);
* ``loop`` repeats the workload's unit of work for a number of seconds
  (desk-train: one training run), or for the exact counts an earlier loop
  reached, and ``finish`` does the one-off work after it; together they
  are the timed region (``run_s``);
* ``check`` verifies the outputs and counts failed operations.

The package is reached through module attributes at call time
(``train_mod.train``, ``autodiff.backward``), never through names bound
at import, so the tracer's wrappers see every call.
"""

from __future__ import annotations

import importlib
import io
import statistics
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

autodiff = importlib.import_module("waveray.autodiff")
checkpoint = importlib.import_module("waveray.checkpoint")
data = importlib.import_module("waveray.data")
errors = importlib.import_module("waveray.errors")
model_mod = importlib.import_module("waveray.model")
optim = importlib.import_module("waveray.optim")
train_mod = importlib.import_module("waveray.train")  # waveray.train is the function


def _percentile_ms(seconds: list, q: float) -> float:
    return float(np.percentile(np.asarray(seconds), q)) * 1e3


def _tail_line(what: str, of: str, seconds: list, q: int) -> str:
    """Median and tail of per-op times, reported beside the metrics."""
    return (f"{what} over {len(seconds)} {of}: p50 {_percentile_ms(seconds, 50):.6g} ms, "
            f"p{q} {_percentile_ms(seconds, q):.6g} ms")


class Workload:
    name = ""
    unit = ""  # what per-layer metrics are normalised by
    setup_repeats = 1

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = Path(workdir)
        self.attempted = 0
        self.failed = 0
        self.report: list[str] = []

    def _fail(self, n: int, what: str) -> None:
        self.failed += n
        self.report.append(f"FAIL {what}")

    def finish(self, state) -> None:
        """One-off work after the loop, inside the timed region."""

    def units(self) -> int:
        raise NotImplementedError


def _desk_images(seed: int, workdir: Path) -> Path:
    """Write the desk dataset for a seed; returns its manifest."""
    spec = data.SyntheticSpec(classes=3, per_class=64, extent=32, placement="center",
                              noise=0.05, seed=seed)
    return data.synth_generate(spec, workdir / "data")


# ---------------------------------------------------------------------------
# desk training


class TrainClock:
    """Timestamps at the boundaries of train()'s inner loop.

    A step runs from one schedule lookup (``one_cycle_cosine_lr``, called
    once per step before the forward) to the next lookup or to the
    epoch's ``evaluate``.  Evaluate passes and checkpoint saves are timed
    whole; ``after_save(path)`` runs after each save, outside the steps.
    Three wrappers per step cost microseconds against a step of about
    100 ms, so the clock runs in untraced runs too.
    """

    def __init__(self, after_save):
        self.after_save = after_save
        self.step_s: list[float] = []
        self.eval_s: list[float] = []
        self.save_s: list[float] = []
        self._open = None

    def _close_step(self, now: float) -> None:
        if self._open is not None:
            self.step_s.append(now - self._open)
            self._open = None

    @property
    def steps_started(self) -> int:
        return len(self.step_s) + (self._open is not None)

    @contextmanager
    def installed(self):
        lr, evaluate, save = (train_mod.one_cycle_cosine_lr, train_mod.evaluate,
                              train_mod.save_checkpoint)

        def timed_lr(*args, **kwargs):
            now = time.perf_counter()
            self._close_step(now)
            self._open = now
            return lr(*args, **kwargs)

        def timed_evaluate(*args, **kwargs):
            start = time.perf_counter()
            self._close_step(start)
            out = evaluate(*args, **kwargs)
            self.eval_s.append(time.perf_counter() - start)
            return out

        def timed_save(path, *args, **kwargs):
            start = time.perf_counter()
            save(path, *args, **kwargs)
            self.save_s.append(time.perf_counter() - start)
            self.after_save(path)

        train_mod.one_cycle_cosine_lr = timed_lr
        train_mod.evaluate = timed_evaluate
        train_mod.save_checkpoint = timed_save
        try:
            yield self
        finally:
            train_mod.one_cycle_cosine_lr = lr
            train_mod.evaluate = evaluate
            train_mod.save_checkpoint = save


class DeskTrain(Workload):
    """The criterion-6 desk setup, trained through the public train().

    40 epochs of 3 batches give 120 steps, twelve beyond the 90th
    percentile, and a run of about 20 s.  The run is one call of train(): a
    training run's length is fixed by its schedule, so this workload
    ignores the loop's seconds.  Each checkpoint is read back as soon as
    it is written, so the loads spread over the run like the saves.
    """

    name = "desk-train"
    unit = "step"
    setup_repeats = 100
    EPOCHS = 40
    CHECKPOINT_EVERY = 2
    MIN_TOP1 = 0.99

    def prepare(self) -> None:
        self.manifest = _desk_images(self.seed, self.workdir)
        self.run_dir = self.workdir / "run"
        self.config = model_mod.desk_config(rays=3)
        self.train_cfg = train_mod.TrainConfig(
            epochs=self.EPOCHS, batch_size=64, peak_lr=4e-3, weight_decay=0.15,
            seed=self.seed, checkpoint_every=self.CHECKPOINT_EVERY)

    def setup(self):
        return (data.load_dataset(self.manifest),
                model_mod.WaveletClassifier(self.config, seed=self.seed))

    def loop(self, state, seconds: float = None, counts: int = None) -> int:
        """One training run; its length is set by the schedule, not by seconds."""
        self.dataset, model = state
        self.clock = TrainClock(after_save=self._load)
        self.load_s, self.load_errors = [], []
        self.history = None
        self.diverged = None
        with self.clock.installed():
            try:
                self.history = train_mod.train(model, self.dataset, self.train_cfg,
                                               out_dir=self.run_dir, log_stream=io.StringIO())
            except errors.DivergenceError as e:
                self.diverged = str(e)
        return 1

    def _load(self, path):
        start = time.perf_counter()
        try:
            ckpt = checkpoint.load_checkpoint(path, expected_model_config=self.config.to_dict())
        except errors.CheckpointError as e:
            self.load_errors.append(str(e))
            return None
        self.load_s.append(time.perf_counter() - start)
        return ckpt

    def finish(self, state) -> None:
        """Load the final checkpoint into a fresh model and re-evaluate it."""
        self.reloaded = None
        ckpt = self._load(self.run_dir / "checkpoint_final.wrnc")
        if ckpt is not None:
            fresh = model_mod.WaveletClassifier(self.config, seed=self.seed + 1)
            fresh.load_state(ckpt.params)
            self.reloaded = train_mod.evaluate(fresh, self.dataset)

    def check(self) -> None:
        clock = self.clock
        self.attempted = (clock.steps_started + len(clock.eval_s) + len(clock.save_s)
                          + len(self.load_s) + len(self.load_errors))
        if self.diverged:
            self._fail(1, f"training diverged: {self.diverged}")
            return
        bad = sum(not np.isfinite(m.loss) for _, m, _ in self.history)
        if bad:
            self._fail(bad, f"{bad} evaluate passes with a non-finite loss")
        final = self.history[-1][1]
        if final.top1 < self.MIN_TOP1:
            self._fail(1, f"final top-1 {final.top1:.4f} < {self.MIN_TOP1}")
        if self.load_errors:
            self._fail(len(self.load_errors), "; ".join(self.load_errors))
        again = self.reloaded
        if again is None or any(getattr(again, k) != getattr(final, k)
                                for k in ("loss", "top1", "top5", "weighted_f1")):
            self._fail(1, "reloaded final checkpoint re-evaluates differently")
        else:
            self.report.append(f"ok final top-1 {final.top1:.4f}, reloaded checkpoint "
                               f"re-evaluates to identical metrics")

    def units(self) -> int:
        return len(self.clock.step_s)

    def metrics(self) -> dict:
        clock = self.clock
        n = len(self.dataset)
        step_images = self.EPOCHS * n
        self.report.append(_tail_line("step time", "steps", clock.step_s, 90))
        return {
            "op_img_per_s": (step_images / sum(clock.step_s), "img/s"),
            "eval_img_per_s": (n * len(clock.eval_s) / sum(clock.eval_s), "img/s"),
            "ckpt_save_s": (statistics.mean(clock.save_s), "s"),
            "ckpt_load_s": (statistics.mean(self.load_s), "s"),
        }


# ---------------------------------------------------------------------------
# desk inference


class DeskInfer(Workload):
    """Desk inference in rounds, each a short serving session.

    A round is one batch-1 forward of every desk image in order, then one
    ``save_checkpoint`` + ``load_checkpoint`` round trip of the weights,
    the way a trained model reaches a server; interleaving the two spreads
    both metrics over the whole run.  After the loop, the model serves the
    set in batches of 64 (the check's reference), and the last loaded copy
    goes into a fresh model, which serves the set once more.
    """

    name = "desk-infer"
    unit = "image"
    setup_repeats = 100
    MIN_ROUNDS = 11  # 2112 batch-1 forwards: twenty samples beyond the 99th percentile
    TOLERANCE = 1e-5

    def prepare(self) -> None:
        self.manifest = _desk_images(self.seed, self.workdir)
        self.path = self.workdir / "served.wrnc"

    def setup(self):
        dataset = data.load_dataset(self.manifest)
        return dataset, model_mod.WaveletClassifier(model_mod.desk_config(rays=3),
                                                    seed=self.seed)

    @staticmethod
    def _batched(model, images) -> np.ndarray:
        return np.concatenate([model.forward(images[s : s + 64]).data
                               for s in range(0, len(images), 64)])

    def _round_trip(self, model, config: dict):
        clock = time.perf_counter
        t0 = clock()
        checkpoint.save_checkpoint(self.path, checkpoint.CheckpointState(
            model_config=config, params=model.state_arrays()))
        t1 = clock()
        try:
            loaded = checkpoint.load_checkpoint(self.path, expected_model_config=config)
        except errors.CheckpointError as e:
            self.load_errors.append(str(e))
            return None
        self.load_s.append(clock() - t1)
        self.save_s.append(t1 - t0)
        return loaded

    def loop(self, state, seconds: float = None, counts: int = None) -> int:
        dataset, model = state
        images = dataset.images
        config = model.config.to_dict()
        self.latency_s, self.logits = [], []
        self.save_s, self.load_s, self.load_errors = [], [], []
        self.loaded = None
        clock = time.perf_counter
        start = clock()
        rounds = 0
        while (rounds < counts) if counts is not None else \
                (rounds < self.MIN_ROUNDS or clock() - start < seconds):
            for j in range(len(images)):
                t0 = clock()
                out = model.forward(images[j : j + 1])
                self.latency_s.append(clock() - t0)
                self.logits.append(out.data[0])
            self.loaded = self._round_trip(model, config) or self.loaded
            rounds += 1
        self.rounds = rounds
        self.state = state
        return rounds

    def finish(self, state) -> None:
        """Batch-64 passes of the served model and of a fresh model loaded
        from the last checkpoint."""
        dataset, model = state
        self.reference = self._batched(model, dataset.images)
        self.served = None
        if self.loaded is not None:
            fresh = model_mod.WaveletClassifier(model.config, seed=self.seed + 1)
            fresh.load_state(self.loaded.params)
            self.served = self._batched(fresh, dataset.images)

    def check(self) -> None:
        n = len(self.state[0])
        reference = self.reference
        logits = np.stack(self.logits)
        diff = np.abs(logits - reference[np.arange(len(logits)) % n]).max(axis=1)
        bad = int((~(diff <= self.TOLERANCE)).sum())  # NaN counts as bad
        self.attempted = len(logits) + 2 * self.rounds + 2  # + saves and loads, + two passes
        if bad:
            self._fail(bad, f"{bad} batch-1 forwards differ from batch 64 by more than "
                            f"{self.TOLERANCE} (max {np.nanmax(diff):.3g})")
        else:
            self.report.append(f"ok batch-1 logits match batch-64 logits, max diff "
                               f"{diff.max():.3g}")
        if self.load_errors:
            self._fail(len(self.load_errors), "; ".join(self.load_errors))
        if self.served is None or not np.array_equal(self.served, reference):
            self._fail(1, "a fresh model loaded from the checkpoint serves other logits")
        else:
            self.report.append(f"ok {len(self.save_s)} checkpoint round trips; a fresh model "
                               f"loaded from the last serves bit-identical logits")

    def units(self) -> int:
        return len(self.latency_s)

    def metrics(self) -> dict:
        self.report.append(_tail_line("batch-1 latency", "forwards", self.latency_s, 99))
        serving = len(self.latency_s) / sum(self.latency_s)
        return {
            "op_img_per_s": (serving, "img/s"),
            "eval_img_per_s": (serving, "img/s"),  # forward-only already
            "ckpt_save_s": (statistics.mean(self.save_s), "s"),
            "ckpt_load_s": (statistics.mean(self.load_s), "s"),
        }


# ---------------------------------------------------------------------------
# table-1 scale


class Table1Step(Workload):
    """Table-1 training steps, then forwards, then one checkpoint round trip.

    A quarter of the loop's seconds goes to AdamW steps and a quarter to
    forward-only passes, at least three of each: the checkpoint round trip
    after them takes about a minute on its own.  Set-up includes one
    warm-up step, so the first, slower step is not timed.
    """

    name = "table1-step"
    unit = "step"
    setup_repeats = 3
    BATCH = 2
    LR = 1e-3
    MIN_EACH = 3
    PHASE_SHARE = 0.25

    def prepare(self) -> None:
        rng = np.random.default_rng(self.seed)
        self.images = rng.random((self.BATCH, 3, 224, 224), dtype=np.float32)
        self.config = model_mod.table1_config(rays=0)
        self.labels = rng.integers(0, self.config.classes, self.BATCH)
        self.path = self.workdir / "table1.wrnc"

    def setup(self):
        model = model_mod.WaveletClassifier(self.config, seed=self.seed)
        opt = optim.AdamW(model.parameters(), weight_decay=0.05)
        self._step(model, opt)
        return model, opt

    def _step(self, model, opt) -> float:
        model.zero_grads()
        with autodiff.Tape() as tape:
            loss = model_mod.cross_entropy(model.forward(self.images), self.labels)
        value = loss.item()
        autodiff.backward(loss, tape)
        opt.step(self.LR)
        return value

    def loop(self, state, seconds: float = None, counts: tuple = None) -> tuple:
        model, opt = state
        clock = time.perf_counter
        self.step_s, self.losses, self.fwd_s, self.finite_fwd = [], [], [], []
        step_target, fwd_target = counts if counts is not None else (None, None)

        def more(done: int, started: float, target) -> bool:
            if target is not None:
                return done < target
            return done < self.MIN_EACH or clock() - started < seconds * self.PHASE_SHARE

        started = clock()
        while more(len(self.step_s), started, step_target):
            t0 = clock()
            self.losses.append(self._step(model, opt))
            self.step_s.append(clock() - t0)
        started = clock()
        while more(len(self.fwd_s), started, fwd_target):
            t0 = clock()
            logits = model.forward(self.images)
            self.fwd_s.append(clock() - t0)
            self.finite_fwd.append(bool(np.isfinite(logits.data).all()))
        return len(self.step_s), len(self.fwd_s)

    def finish(self, state) -> None:
        model, opt = state
        m, v, step = opt.export_state()
        saved = checkpoint.CheckpointState(
            model_config=self.config.to_dict(), params=model.state_arrays(), opt_m=m,
            opt_v=v, opt_step=step)
        t0 = time.perf_counter()
        checkpoint.save_checkpoint(self.path, saved)
        t1 = time.perf_counter()
        self.loaded = checkpoint.load_checkpoint(
            self.path, expected_model_config=self.config.to_dict())
        t2 = time.perf_counter()
        self.save_s, self.load_s = t1 - t0, t2 - t1
        self.saved = saved

    def check(self) -> None:
        self.attempted = len(self.step_s) + len(self.fwd_s) + 2
        bad = sum(not np.isfinite(x) for x in self.losses)
        if bad:
            self._fail(bad, f"{bad} steps with a non-finite loss")
        bad = self.finite_fwd.count(False)
        if bad:
            self._fail(bad, f"{bad} forwards with non-finite logits")
        saved, loaded = self.saved, self.loaded
        mismatched = [
            f"{kind}:{name}"
            for kind, before, after in (("param", saved.params, loaded.params),
                                        ("m", saved.opt_m, loaded.opt_m),
                                        ("v", saved.opt_v, loaded.opt_v))
            for name in sorted(set(before) | set(after))
            if name not in before or name not in after
            or after[name].dtype != np.float32 or not np.array_equal(before[name], after[name])
        ]
        if mismatched or loaded.opt_step != saved.opt_step:
            self._fail(1, f"checkpoint round trip changed {len(mismatched)} arrays "
                          f"(first {mismatched[:3]}) or the step counter")
            return
        fresh = model_mod.WaveletClassifier(self.config, seed=self.seed + 1)
        try:
            fresh.load_state(loaded.params)
        except errors.ConfigError as e:
            self._fail(1, f"load_state on a fresh model failed: {e}")
            return
        mb = self.path.stat().st_size / 1e6
        self.report.append(f"ok {len(saved.params)} params and both moment sets round-trip "
                           f"bit-identical through a {mb:.1f} MB checkpoint; load_state "
                           f"on a fresh model succeeds")

    def units(self) -> int:
        return len(self.step_s)

    def metrics(self) -> dict:
        self.report.append(_tail_line("step time", "steps", self.step_s, 90))
        return {
            "op_img_per_s": (self.BATCH * len(self.step_s) / sum(self.step_s), "img/s"),
            "eval_img_per_s": (self.BATCH * len(self.fwd_s) / sum(self.fwd_s), "img/s"),
            "ckpt_save_s": (self.save_s, "s"),
            "ckpt_load_s": (self.load_s, "s"),
        }


WORKLOADS = {w.name: w for w in (DeskTrain, DeskInfer, Table1Step)}

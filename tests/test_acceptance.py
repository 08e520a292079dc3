"""Acceptance gate: nine checks, one pass/fail line each.

Lines go through the acceptance_report fixture, which echoes them in a
terminal section after capture ends.  Training-based checks share two
module-scoped desk runs (identical settings, ray budgets 0 and 3).
"""

import io
import time

import numpy as np
import pytest
from scipy.ndimage import correlate1d

from waveray.autodiff import Tensor
from waveray.backbone import WaveFilterPair, wave_decompose
from waveray.checkpoint import load_checkpoint
from waveray.data import Dataset, load_dataset, synth_generate, SyntheticSpec
from waveray.errors import CheckpointError
from waveray.gradcheck import run_scope
from waveray.model import WaveletClassifier, desk_config, param_count, table1_config
from waveray.optim import OptimizerState, adamw_step, one_cycle_cosine_lr
from waveray.ops import conv2d
from waveray.rays import (
    RayEncoder,
    RayField,
    attenuation,
    distance_matrix,
    init_origins,
    pixel_grid,
    spectral_modulate,
)
from waveray.train import TrainConfig, evaluate, train


def _report(report, number: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    report(f"[criterion {number}] {status}: {detail}")


# ---------------------------------------------------------------------------
# shared desk runs


DESK_EPOCHS = 120
DESK_TRAIN = dict(epochs=DESK_EPOCHS, batch_size=64, peak_lr=4e-3,
                  weight_decay=0.15, seed=0)


@pytest.fixture(scope="module")
def desk_dataset(tmp_path_factory):
    spec = SyntheticSpec(classes=3, per_class=64, extent=32, placement="center",
                         noise=0.05, seed=11)
    manifest = synth_generate(spec, tmp_path_factory.mktemp("desk_data"))
    return load_dataset(manifest)


@pytest.fixture(scope="module")
def desk_runs(desk_dataset, tmp_path_factory):
    """Train the desk model at both ray budgets with identical settings."""
    runs = {}
    for rays in (0, 3):
        out = tmp_path_factory.mktemp(f"desk_run_rays{rays}")
        model = WaveletClassifier(desk_config(rays=rays), seed=0)
        t0 = time.perf_counter()
        history = train(model, desk_dataset, TrainConfig(**DESK_TRAIN),
                        out_dir=out, log_stream=io.StringIO())
        runs[rays] = {
            "model": model,
            "history": history,
            "out": out,
            "seconds": time.perf_counter() - t0,
        }
    return runs


def _first_epoch_at_final(history):
    top1 = [m.top1 for _, m, _ in history]
    final = top1[-1]
    return next(i + 1 for i, v in enumerate(top1) if v >= final), final


# ---------------------------------------------------------------------------
# 1. gradient suite


def test_criterion_1_gradient_suite(acceptance_report):
    t0 = time.perf_counter()
    worst = 0.0
    for scope in ("op", "block", "model"):
        for _, _, err in run_scope(scope, seed=0):
            worst = max(worst, err)
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-4 and elapsed < 300.0
    _report(acceptance_report, 1, ok, f"gradient suite worst rel err {worst:.3e} in {elapsed:.1f}s "
                   f"(tol 1e-4, budget 300s)")
    assert ok


# ---------------------------------------------------------------------------
# 2. full-scale shape conformance


def test_criterion_2_full_scale_shapes(acceptance_report):
    t0 = time.perf_counter()
    model = WaveletClassifier(table1_config(rays=0), seed=0)
    rng = np.random.default_rng(0)
    x = Tensor(rng.normal(0.5, 0.2, size=(1, 3, 224, 224)).astype(np.float32))
    _, aux = model.forward_with_aux(x)
    entries = {i: t.shape for i, t in aux["pyramid"]}
    deepest = aux["pyramid"].deepest

    enc = RayEncoder(4096, d_model=256, n_layers=0, rng=np.random.default_rng(1))
    tokens, _ = enc.forward(deepest)
    elapsed = time.perf_counter() - t0

    ok = (entries[0] == (1, 64, 28, 28)
          and entries[1] == (1, 4096, 14, 14)
          and tokens.shape == (1, 196, 256)
          and elapsed < 60.0)
    _report(acceptance_report, 2, ok, f"stage maps {entries[0]} and {entries[1]}, tokens {tokens.shape} "
                   f"in {elapsed:.1f}s")
    assert ok


# ---------------------------------------------------------------------------
# 3. parameter budget


def test_criterion_3_parameter_budget(acceptance_report):
    headless = {}
    for rays in (0, 3):
        per, total = param_count(table1_config(rays=rays))
        headless[rays] = total - per.get("head", 0)
    bands = {0: 9.58e6, 3: 10.38e6}
    in_band = all(0.7 * bands[r] <= headless[r] <= 1.3 * bands[r] for r in (0, 3))
    positive_delta = headless[3] > headless[0]
    ok = in_band and positive_delta
    _report(acceptance_report, 3, ok, f"headless totals {headless[0]:,} / {headless[3]:,} vs bands "
                   f"9.58M / 10.38M +-30%, delta {headless[3] - headless[0]:+,}")
    assert ok


# ---------------------------------------------------------------------------
# 4. oracle equivalences


def _conv_oracle(x, k, stride, padding, groups):
    n, cin, h, w = x.shape
    cout, cpg, kh, kw = k.shape
    sh, sw = stride
    ph, pw = padding
    xp = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
    ho = (h + 2 * ph - kh) // sh + 1
    wo = (w + 2 * pw - kw) // sw + 1
    out = np.zeros((n, cout, ho, wo))
    opg = cout // groups
    for b in range(n):
        for o in range(cout):
            g = o // opg
            for i in range(ho):
                for j in range(wo):
                    patch = xp[b, g * cpg : (g + 1) * cpg,
                               i * sh : i * sh + kh, j * sw : j * sw + kw]
                    out[b, o, i, j] = float((patch * k[o]).sum())
    return out


def _decompose_oracle(x, low, high, stride):
    def filt(a, taps, axis):
        full = correlate1d(a, taps, axis=axis, mode="reflect", output=np.float64)
        sl = [slice(None)] * a.ndim
        sl[axis] = slice(0, None, stride)
        return full[tuple(sl)]

    fl, fh = filt(x, low, 3), filt(x, high, 3)
    return (filt(fl, low, 2), filt(fl, high, 2), filt(fh, low, 2), filt(fh, high, 2))


def _circular_conv(f, kernel):
    n, c, h, w = f.shape
    out = np.zeros_like(f)
    for p in range(h):
        for q in range(w):
            acc = np.zeros((n, c))
            for a in range(h):
                for b in range(w):
                    acc += f[:, :, a, b] * kernel[(p - a) % h, (q - b) % w]
            out[:, :, p, q] = acc
    return out


def test_criterion_4_oracle_equivalences(acceptance_report):
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)
    worst_conv = 0.0
    for _ in range(50):
        groups = int(rng.integers(1, 3))
        cpg = int(rng.integers(1, 3))
        opg = int(rng.integers(1, 3))
        kh, kw = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        stride = (int(rng.integers(1, 3)), int(rng.integers(1, 3)))
        padding = (int(rng.integers(0, 2)), int(rng.integers(0, 2)))
        h = int(rng.integers(kh, kh + 5))
        w = int(rng.integers(kw, kw + 5))
        x = rng.normal(size=(int(rng.integers(1, 3)), groups * cpg, h, w))
        k = rng.normal(size=(groups * opg, cpg, kh, kw))
        got = conv2d(Tensor(x), Tensor(k), stride=stride, padding=padding,
                     groups=groups).data
        want = _conv_oracle(x, k, stride, padding, groups)
        scale = max(np.abs(want).max(), 1e-12)
        worst_conv = max(worst_conv, np.abs(got - want).max() / scale)

    worst_wave = 0.0
    for stride in (1, 2):
        x = rng.normal(size=(2, 3, 8, 8))
        filters = WaveFilterPair()
        filters.low = Tensor(rng.normal(size=3))
        filters.high = Tensor(rng.normal(size=5))
        got = wave_decompose(Tensor(x), filters, stride=stride)
        want = _decompose_oracle(x, filters.low.data, filters.high.data, stride)
        for g, o in zip(got, want):
            scale = max(np.abs(o).max(), 1e-12)
            worst_wave = max(worst_wave, np.abs(g.data - o).max() / scale)

    f = rng.normal(size=(1, 2, 8, 8))
    mask = rng.normal(size=(8, 8))
    got = spectral_modulate(Tensor(f), Tensor(mask)).data
    want = _circular_conv(f, np.fft.ifft2(mask).real)
    worst_spec = np.abs(got - want).max() / np.abs(want).max()

    elapsed = time.perf_counter() - t0
    ok = worst_conv < 1e-6 and worst_wave < 1e-6 and worst_spec < 1e-5 and elapsed < 120.0
    _report(acceptance_report, 4, ok, f"conv {worst_conv:.2e} (50 configs), bands {worst_wave:.2e}, "
                   f"spectral {worst_spec:.2e} in {elapsed:.1f}s")
    assert ok


# ---------------------------------------------------------------------------
# 5. attenuation invariants


def test_criterion_5_attenuation_invariants(acceptance_report):
    t0 = time.perf_counter()
    coords = Tensor(pixel_grid(6, 6).coords.astype(np.float32))
    worst_row = 0.0
    worst_combined = 0.0
    for seed in range(100):
        gen = np.random.default_rng(seed)
        n = int(gen.integers(2, 13))
        field = RayField(n)
        field.origins = Tensor(gen.normal(size=(n, 2)).astype(np.float32), requires_grad=True)
        field.log_sigma = Tensor(gen.normal(0.0, 0.4, size=n).astype(np.float32),
                                 requires_grad=True)
        field.log_alpha = Tensor(gen.normal(0.0, 0.4, size=n).astype(np.float32),
                                 requires_grad=True)
        field.beta = Tensor(gen.normal(1.0, 0.3, size=1).astype(np.float32), requires_grad=True)
        amap = attenuation(distance_matrix(field.origins, coords), field, extents=(6, 6))
        worst_row = max(worst_row, np.abs(amap.per_origin.data.sum(axis=1) - 1.0).max())
        worst_combined = max(worst_combined, abs(amap.combined.data.sum() - 1.0))

    norms = np.linalg.norm(init_origins(12), axis=1)
    worst_norm = np.abs(norms - 1.0).max()

    field = RayField(12)
    for _, p in field.named_params():
        p.data = p.data.astype(np.float32)
    coords = Tensor(pixel_grid(8, 8).coords.astype(np.float32))
    maps = attenuation(distance_matrix(field.origins, coords),
                       field, extents=(8, 8)).per_origin.data.reshape(12, 8, 8)
    worst_rot = max(
        np.abs(maps[(k + 3) % 12] - np.rot90(maps[k], k=-1)).max() for k in range(12)
    )
    elapsed = time.perf_counter() - t0

    ok = (worst_row < 1e-6 and worst_combined < 1e-6 and worst_norm < 1e-6
          and worst_rot < 1e-6 and elapsed < 60.0)
    _report(acceptance_report, 5, ok, f"row sums {worst_row:.1e}, combined {worst_combined:.1e}, "
                   f"norms {worst_norm:.1e}, quarter-turn {worst_rot:.1e} "
                   f"over 100 draws in {elapsed:.1f}s")
    assert ok


# ---------------------------------------------------------------------------
# 6. desk overfit runs


def test_criterion_6_desk_overfit(desk_runs, acceptance_report):
    first0, final0 = _first_epoch_at_final(desk_runs[0]["history"])
    first3, final3 = _first_epoch_at_final(desk_runs[3]["history"])
    s0, s3 = desk_runs[0]["seconds"], desk_runs[3]["seconds"]
    ok = (final0 >= 0.99 and final3 >= 0.99
          and DESK_EPOCHS <= 200
          and s0 < 600.0 and s3 < 600.0
          and first3 <= first0)
    _report(acceptance_report, 6, ok, f"top-1 {final0:.4f} / {final3:.4f} within {DESK_EPOCHS} epochs "
                   f"({s0:.0f}s / {s3:.0f}s); epochs to final {first3} (rays 3) "
                   f"<= {first0} (rays 0)")
    assert ok


# ---------------------------------------------------------------------------
# 7. origin convergence


def test_criterion_7_origin_convergence(desk_runs, acceptance_report):
    lines = (desk_runs[3]["out"] / "origins.csv").read_text().splitlines()[1:]
    by_epoch = {}
    for line in lines:
        epoch, _, x, y = line.split(",")
        by_epoch.setdefault(int(epoch), []).append(np.hypot(float(x), float(y)))
    epochs = sorted(by_epoch)
    radii = np.array([np.mean(by_epoch[e]) for e in epochs])
    initial, final = radii[0], radii[-1]
    quarter = max(len(radii) // 4, 1)
    trend_down = radii[-quarter:].mean() < radii[:quarter].mean()
    ok = bool(final < 0.9 * initial and trend_down)
    _report(acceptance_report, 7, ok, f"mean origin radius {initial:.3f} -> {final:.3f} "
                   f"(threshold {0.9 * initial:.3f}), trend decreasing: {trend_down}")
    assert ok


# ---------------------------------------------------------------------------
# 8. determinism and persistence


def test_criterion_8_determinism_and_persistence(desk_dataset, tmp_path, acceptance_report):
    subset = Dataset(desk_dataset.images[::8], desk_dataset.labels[::8],
                     desk_dataset.class_names)
    cfg = TrainConfig(epochs=5, batch_size=8, peak_lr=1e-3, weight_decay=0.05, seed=4)

    results = []
    for tag in ("a", "b"):
        model = WaveletClassifier(desk_config(rays=1), seed=4)
        history = train(model, subset, cfg, out_dir=tmp_path / tag,
                        log_stream=io.StringIO())
        results.append((model, history, (tmp_path / tag / "checkpoint_final.wrnc")))

    blob_a = results[0][2].read_bytes()
    blob_b = results[1][2].read_bytes()
    identical = blob_a == blob_b

    state = load_checkpoint(results[0][2])
    fresh = WaveletClassifier(desk_config(rays=1), seed=99)
    fresh.load_state(state.params)
    again = evaluate(fresh, subset)
    final = results[0][1][-1][1]
    round_trip = (again.loss == final.loss and again.top1 == final.top1
                  and again.top5 == final.top5 and again.weighted_f1 == final.weighted_f1)

    corrupted = bytearray(blob_a)
    corrupted[len(corrupted) // 2] ^= 0x01
    bad_path = tmp_path / "bad.wrnc"
    bad_path.write_bytes(bytes(corrupted))
    try:
        load_checkpoint(bad_path)
        rejected = False
    except CheckpointError:
        rejected = True

    ok = identical and round_trip and rejected
    _report(acceptance_report, 8, ok, f"bit-identical checkpoints: {identical}; exact metric round trip: "
                   f"{round_trip}; flipped byte rejected: {rejected}")
    assert ok


# ---------------------------------------------------------------------------
# 9. optimizer and schedule closed forms


def test_criterion_9_optimizer_closed_forms(acceptance_report):
    peak, total, warm_frac = 2e-3, 1000, 0.1
    floor = peak / 1e4
    knots = [
        abs(one_cycle_cosine_lr(0, total, peak, warm_frac) - peak / 25.0),
        abs(one_cycle_cosine_lr(100, total, peak, warm_frac) - peak),
        abs(one_cycle_cosine_lr(1000, total, peak, warm_frac) - floor),
        abs(one_cycle_cosine_lr(550, total, peak, warm_frac) - (peak + floor) / 2.0),
    ]
    worst_knot = max(knots)

    rng = np.random.default_rng(0)
    worst_opt = 0.0
    params = {k: Tensor(rng.normal(size=3), requires_grad=True) for k in "abc"}
    mirror = {k: p.data.copy() for k, p in params.items()}
    m = {k: np.zeros(3) for k in params}
    v = {k: np.zeros(3) for k in params}
    state = OptimizerState()
    lr, wd, b1, b2, eps = 0.01, 0.1, 0.9, 0.999, 1e-8
    for t in range(1, 6):
        for k, p in params.items():
            p.grad = rng.normal(size=3)
        adamw_step(params, state, lr=lr, weight_decay=wd)
        for k, p in params.items():
            g = p.grad
            m[k] = b1 * m[k] + (1 - b1) * g
            v[k] = b2 * v[k] + (1 - b2) * g * g
            update = (m[k] / (1 - b1**t)) / (np.sqrt(v[k] / (1 - b2**t)) + eps)
            mirror[k] = mirror[k] * (1 - lr * wd) - lr * update
            worst_opt = max(worst_opt, np.abs(p.data - mirror[k]).max())

    ok = worst_knot < 1e-12 and worst_opt < 1e-12
    _report(acceptance_report, 9, ok, f"schedule knots {worst_knot:.1e}, optimizer trace {worst_opt:.1e} "
                   f"(both vs 1e-12)")
    assert ok

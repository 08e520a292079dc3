"""Acceptance criteria 6 and 7 over a pre-registered list of seeds.

Criteria 6 and 7 of ``tests/test_acceptance.py`` each rest on one 120-epoch
float32 desk run at seed 0, so a kernel that rounds differently can flip
them.  This script reruns both desk runs (``desk_config(rays=0)`` and
``desk_config(rays=3)``, same data and schedule as the test) at every seed
of ``SEEDS``, model seed and training seed alike, and scores each seed with
the test's own arithmetic.  The seeds, data, models, schedule and gate are
fixed here, before any column is computed; choosing them after reading the
numbers would bias the comparison (Bouthillier et al., "Accounting for
Variance in Machine Learning Benchmarks", MLSys 2021).

Two steps.  ``column`` trains every seed against one source tree and writes
its per-seed records as JSON:

    python3 scripts/seed_sweep.py column --out change.json
    python3 scripts/seed_sweep.py column --src OTHER/src --label parent --out parent.json

It runs two worker processes, each at ``OPENBLAS_NUM_THREADS=1``; desk
results do not depend on the BLAS thread count, so neither the worker count
nor the thread count moves a record.
``claims`` pairs two columns seed by seed and writes the comparison:

    python3 scripts/seed_sweep.py claims parent.json change.json --out CLAIMS.json

For each criterion it reports the pass count of each column, the discordant
seeds (b: passes only in the first column, c: only in the second) and the
exact two-sided binomial p-value of the split between b and c (McNemar's
exact test).  The gate fails if, for either criterion, b > c with p < 0.05;
``claims`` then exits 1.

``claims`` also reports one continuous statistic, which the gate does not
read: per seed, the rays-3 minus rays-0 epochs-to-final (criterion 6's
margin, negative when rays 3 is faster).  It gives each column's median,
the 12 paired differences second minus first, and the exact two-sided
sign-flip p-value of their sum: the share of the 2^12 ways of flipping the
differences' signs whose sum is at least as far from 0.

Each seed records, at both ray budgets, the epoch at which top-1 first
reaches its final value, the final top-1 and the training seconds; at rays
3 the mean origin radius before training and after the last epoch, the
radius trend, each ray field's final mean radius, and the decay-only factor
prod(1 - lr_t * weight_decay) of the schedule.
"""

import argparse
import concurrent.futures
import io
import itertools
import json
import math
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SEEDS = list(range(100, 112))
DATA = dict(classes=3, per_class=64, extent=32, placement="center", noise=0.05, seed=11)
RAYS = (0, 3)
TRAIN = dict(epochs=120, batch_size=64, peak_lr=4e-3, weight_decay=0.15)
ALPHA = 0.05
JOBS = 2


def run_seed(seed: int) -> dict:
    """Both desk runs at one seed, scored as criteria 6 and 7 score seed 0."""
    import numpy as np

    from waveray.data import SyntheticSpec, load_dataset, synth_generate
    from waveray.model import WaveletClassifier, desk_config
    from waveray.optim import one_cycle_cosine_lr
    from waveray.train import TrainConfig, train

    record = {"seed": seed}
    with tempfile.TemporaryDirectory() as tmp:
        dataset = load_dataset(synth_generate(SyntheticSpec(**DATA), Path(tmp) / "data"))
        runs = {}
        for rays in RAYS:
            out = Path(tmp) / f"rays{rays}"
            model = WaveletClassifier(desk_config(rays=rays), seed=seed)
            t0 = time.perf_counter()
            history = train(model, dataset, TrainConfig(**TRAIN, seed=seed), out_dir=out,
                            log_stream=io.StringIO())
            seconds = time.perf_counter() - t0
            top1 = [m.top1 for _, m, _ in history]
            first = next(i + 1 for i, v in enumerate(top1) if v >= top1[-1])
            runs[rays] = (model, out)
            record[f"rays{rays}"] = {"epochs_to_final": first, "final_top1": top1[-1],
                                     "seconds": round(seconds, 1)}

        r0, r3 = record["rays0"], record["rays3"]
        record["criterion6"] = bool(
            r0["final_top1"] >= 0.99 and r3["final_top1"] >= 0.99
            and TRAIN["epochs"] <= 200
            and r0["seconds"] < 600.0 and r3["seconds"] < 600.0
            and r3["epochs_to_final"] <= r0["epochs_to_final"])

        model, out = runs[3]
        by_epoch = {}
        for line in (out / "origins.csv").read_text().splitlines()[1:]:
            epoch, _, x, y = line.split(",")
            by_epoch.setdefault(int(epoch), []).append(np.hypot(float(x), float(y)))
    radii = np.array([np.mean(by_epoch[e]) for e in sorted(by_epoch)])
    initial, final = radii[0], radii[-1]
    quarter = max(len(radii) // 4, 1)
    trend_down = bool(radii[-quarter:].mean() < radii[:quarter].mean())
    record["criterion7"] = bool(final < 0.9 * initial and trend_down)

    names = {id(p): name for name, p in model.parameters().items()}
    steps = TRAIN["epochs"] * -(-len(dataset) // TRAIN["batch_size"])
    decay = math.prod(1.0 - one_cycle_cosine_lr(t, steps, TRAIN["peak_lr"])
                      * TRAIN["weight_decay"] for t in range(steps))
    record["radius"] = {
        "initial": float(initial),
        "final": float(final),
        "trend_down": trend_down,
        "fields": {names[id(f.origins)].removesuffix(".origins"):
                   float(np.hypot(*f.origins.data.astype(np.float64).T).mean())
                   for f in model.ray_fields()},
        "decay_only_factor": decay,
    }
    return record


def column(args) -> None:
    src = Path(args.src).resolve()
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=str(src))

    def one(seed):
        done = subprocess.run([sys.executable, __file__, "_seed", str(seed)], env=env,
                              check=True, capture_output=True, text=True)
        record = json.loads(done.stdout)
        print(f"seed {seed}: criterion 6 {record['criterion6']}, "
              f"criterion 7 {record['criterion7']}", file=sys.stderr)
        return record

    with concurrent.futures.ThreadPoolExecutor(JOBS) as pool:
        records = list(pool.map(one, SEEDS))
    result = {"label": args.label, "seeds": records}
    Path(args.out).write_text(json.dumps(result, indent=1) + "\n")


def binomial_two_sided(b: int, c: int) -> float:
    """Exact two-sided p-value of a b:c split under a fair coin."""
    n = b + c
    if n == 0:
        return 1.0
    tail = sum(math.comb(n, i) for i in range(min(b, c) + 1)) / 2 ** n
    return min(1.0, 2.0 * tail)


def epochs_gap(record: dict) -> int:
    """Rays-3 minus rays-0 epochs-to-final of one seed."""
    return record["rays3"]["epochs_to_final"] - record["rays0"]["epochs_to_final"]


def sign_flip_two_sided(diffs: list) -> float:
    """Exact two-sided p-value of the sum of paired differences under
    random signs: each of the 2^n sign patterns is equally likely."""
    observed = abs(sum(diffs))
    hits = sum(abs(sum(s * d for s, d in zip(signs, diffs))) >= observed
               for signs in itertools.product((1, -1), repeat=len(diffs)))
    return hits / 2 ** len(diffs)


def claims(args) -> int:
    first, second = (json.loads(Path(p).read_text()) for p in (args.first, args.second))
    by_seed = [{r["seed"]: r for r in col["seeds"]} for col in (first, second)]
    if [sorted(s) for s in by_seed] != [SEEDS, SEEDS]:
        raise SystemExit(f"both columns must hold exactly the seeds {SEEDS}")
    criteria = {}
    for key in ("criterion6", "criterion7"):
        a = {s: by_seed[0][s][key] for s in SEEDS}
        z = {s: by_seed[1][s][key] for s in SEEDS}
        b = [s for s in SEEDS if a[s] and not z[s]]
        c = [s for s in SEEDS if z[s] and not a[s]]
        p = binomial_two_sided(len(b), len(c))
        criteria[key] = {
            f"passes_{first['label']}": sum(a.values()),
            f"passes_{second['label']}": sum(z.values()),
            f"b_only_{first['label']}": b,
            f"c_only_{second['label']}": c,
            "p_two_sided": p,
            "gate_fails": len(b) > len(c) and p < ALPHA,
        }
    holds = not any(c["gate_fails"] for c in criteria.values())
    gaps = [[epochs_gap(col[s]) for s in SEEDS] for col in by_seed]
    diffs = [z - a for a, z in zip(*gaps)]
    gap = {
        f"median_{first['label']}": statistics.median(gaps[0]),
        f"median_{second['label']}": statistics.median(gaps[1]),
        f"paired_{second['label']}_minus_{first['label']}": diffs,
        "sign_flip_p_two_sided": sign_flip_two_sided(diffs),
    }
    out = {
        "preregistered": {
            "seeds": SEEDS,
            "data": {"SyntheticSpec": DATA},
            "models": [f"desk_config(rays={r})" for r in RAYS],
            "training": {"TrainConfig": dict(TRAIN, seed="s")},
            "criteria": "6 and 7, computed as tests/test_acceptance.py computes them",
            "statistic": "exact two-sided binomial test of the discordant split b:c",
            "gate": f"fails if b > c with p < {ALPHA} for either criterion",
            "reported": "per seed, rays-3 minus rays-0 epochs-to-final: each column's median "
                        "and the exact two-sided sign-flip p-value of the paired differences; "
                        "not gated",
        },
        "criteria": criteria,
        "gate_holds": holds,
        "epochs_gap_rays3_minus_rays0": gap,
        "columns": {col["label"]: col["seeds"] for col in (first, second)},
    }
    Path(args.out).write_text(json.dumps(out, indent=1) + "\n")
    for key, c in criteria.items():
        print(f"{key}: " + ", ".join(f"{k} {v}" for k, v in c.items()))
    print("epochs gap, rays 3 minus rays 0 (reported, not gated): "
          + ", ".join(f"{k} {v}" for k, v in gap.items()))
    print("gate holds" if holds else "gate FAILS")
    return 0 if holds else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="cmd", required=True)
    col = sub.add_parser("column", help="train every seed against one source tree")
    col.add_argument("--src", default=str(ROOT / "src"), help="the src/ to import waveray from")
    col.add_argument("--label", default="change")
    col.add_argument("--out", required=True)
    cl = sub.add_parser("claims", help="pair two columns and apply the gate")
    cl.add_argument("first", help="the reference column (b counts its lone passes)")
    cl.add_argument("second", help="the column under test (c counts its lone passes)")
    cl.add_argument("--out", required=True)
    seed = sub.add_parser("_seed")
    seed.add_argument("seed", type=int)
    args = parser.parse_args(argv)
    if args.cmd == "_seed":
        print(json.dumps(run_seed(args.seed)))
        return 0
    if args.cmd == "column":
        column(args)
        return 0
    return claims(args)


if __name__ == "__main__":
    sys.exit(main())

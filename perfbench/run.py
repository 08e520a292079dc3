"""waveray benchmark: one workload per process, end to end or traced.

    python3 perfbench/run.py --workload desk-train --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout: the package is imported from
``src/`` next to this directory, never from an installed copy.  BLAS
threads are pinned before numpy loads.

``--trace 0`` measures the end-to-end metrics with no tracer installed.
``--trace 1`` first runs the workload's loop untraced as a reference,
then repeats exactly the same work with the tracer installed and reports
the per-layer metrics; the ratio of the two loop times is the tracing
overhead.  Both modes check the outputs.  The last line of standard
output is one JSON object: correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("desk-train", "desk-infer", "table1-step")  # workloads.py needs src/ first
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
MAX_BLAS_THREADS = 2


def _pin_blas_threads() -> int:
    threads = max(1, min(MAX_BLAS_THREADS, len(os.sched_getaffinity(0))))
    for var in BLAS_ENV:
        os.environ[var] = str(threads)
    return threads


def _git_commit() -> str:
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _machine(threads: int, seed: int) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "nproc": os.cpu_count(),
        "mem_total_mb": round(os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") / 1e6),
        "git_commit": _git_commit(),
        "seed": seed,
    }


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6  # KiB on Linux


def _timed_setup(w, times: list):
    t0 = time.perf_counter()
    state = w.setup()
    times.append(time.perf_counter() - t0)
    return state


def run_untraced(w, seconds: float) -> dict:
    """Set-ups are split before and after the timed region, so that their
    median spans the run rather than one moment of it."""
    w.prepare()
    setup_s = []
    for _ in range(w.setup_repeats - w.setup_repeats // 2):
        state = None  # free the previous build before making the next
        state = _timed_setup(w, setup_s)
    t0 = time.perf_counter()
    w.loop(state, seconds=seconds)
    w.finish(state)
    run_s = time.perf_counter() - t0
    w.check()
    peak_rss_mb = _peak_rss_mb()
    state = None
    for _ in range(w.setup_repeats // 2):
        _timed_setup(w, setup_s)
    return {
        "setup_s": (statistics.median(setup_s), "s"),
        "run_s": (run_s, "s"),
        **w.metrics(),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def layer_metrics(tr, units: int, region_s: float, overhead: float, load: tuple) -> dict:
    """The per-layer metrics: per unit of work unless named otherwise."""
    per = 1.0 / units

    def ms(seconds: float) -> tuple:
        return 1e3 * seconds * per, "ms"

    def count(n: float) -> tuple:
        return n * per, "count"

    def per_call(total: float, name: str) -> float:
        calls = tr.calls(name)
        return total / calls if calls else 0.0

    out = {}
    for op in ("ops.sep_conv1d", "ops.pointwise_conv"):
        out[f"{op}.calls"] = count(tr.calls(op))
    for op in ("ops.sep_conv1d", "ops.pointwise_conv", "ops.conv2d", "autodiff.layer_norm",
               "autodiff.gelu", "autodiff.other"):
        out[f"{op}.fwd_ms"] = ms(tr.self_s(op, "fwd"))
        out[f"{op}.bwd_ms"] = ms(tr.self_s(op, "bwd"))
    out["autodiff.backward.self_ms"] = ms(tr.self_s("autodiff.backward"))
    out["autodiff.tape_nodes"] = count(tr.tape_nodes)
    out["autodiff.op_calls"] = count(tr.op_calls)
    out["autodiff.out_mb"] = (tr.out_bytes / 1e6 * per, "MB")
    out["fft.calls"] = count(tr.calls("fft"))
    out["fft.ms"] = ms(tr.incl("fft"))
    out["rays.spectral_modulate.fwd_ms"] = ms(tr.self_s("rays.spectral_modulate", "fwd"))
    out["rays.spectral_modulate.bwd_ms"] = ms(tr.self_s("rays.spectral_modulate", "bwd"))
    for scope in ("rays.attenuation", "rays.layer", "rays.encoder", "backbone.stem",
                  "backbone.extract", "backbone.block", "backbone.pool", "model.forward"):
        out[f"{scope}.ms"] = ms(tr.scope_s(scope))
    out["model.cross_entropy.ms"] = ms(tr.self_s("model.cross_entropy", "fwd")
                                       + tr.self_s("model.cross_entropy", "bwd"))
    out["optim.step.ms"] = ms(tr.incl("optim.step"))
    for name in ("save", "load"):
        out[f"checkpoint.{name}_s"] = (per_call(tr.self_s(f"checkpoint.{name}"),
                                                f"checkpoint.{name}"), "s")
    out["checkpoint.fnv1a_s"] = (per_call(tr.incl("checkpoint.fnv1a"), "checkpoint.fnv1a"), "s")
    out["checkpoint.mb"] = (per_call(tr.hashed_bytes / 1e6, "checkpoint.fnv1a"), "MB")
    out["train.evaluate.ms"] = ms(tr.incl("train.evaluate"))
    out["train.eval_share"] = (tr.incl("train.evaluate") / region_s, "share")
    load_calls, load_s = load
    out["data.load_dataset.s"] = (load_s / load_calls if load_calls else 0.0, "s")
    out["trace.overhead_share"] = (overhead, "share")
    out["trace.unattributed_share"] = (1.0 - tr.covered / region_s, "share")
    return out


def run_traced(w, seconds: float) -> dict:
    from tracer import Tracer, table

    w.prepare()
    state = w.setup()
    t0 = time.perf_counter()
    counts = w.loop(state, seconds=seconds)
    reference_s = time.perf_counter() - t0
    state = None

    tracer = Tracer()
    with tracer.installed():
        state = w.setup()
        load = (tracer.calls("data.load_dataset"), tracer.incl("data.load_dataset"))
        tracer.clear()
        t0 = time.perf_counter()
        w.loop(state, counts=counts)
        loop_s = time.perf_counter() - t0
        w.finish(state)
        region_s = time.perf_counter() - t0
    w.check()
    units = w.units()
    metrics = layer_metrics(tracer, units, region_s, loop_s / reference_s - 1.0, load)
    print(f"\nper-layer trace of {w.name}: {units} {w.unit}s in {region_s:.3f} s; loop "
          f"{loop_s:.3f} s traced, {reference_s:.3f} s untraced; trace.overhead_share "
          f"{metrics['trace.overhead_share'][0]:.4f}, trace.unattributed_share "
          f"{metrics['trace.unattributed_share'][0]:.4f}")
    print(table(tracer, units, w.unit, region_s))
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    src = ROOT / "src"
    if not (src / "waveray" / "__init__.py").is_file():
        print(f"error: no waveray sources under {src}; run from a source checkout",
              file=sys.stderr)
        return 2
    threads = _pin_blas_threads()
    sys.path.insert(0, str(src))
    import waveray

    if Path(waveray.__file__).resolve().parent != (src / "waveray").resolve():
        print(f"error: imported waveray from {waveray.__file__}, not {src}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    scratch = ROOT / ".perfbench_work"
    workdir = scratch / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        w = WORKLOADS[args.workload](args.seed, workdir)
        print(f"waveray benchmark: workload {w.name}, seed {args.seed}, "
              f"{args.seconds:g} s, trace {args.trace}")
        metrics = (run_traced if args.trace else run_untraced)(w, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass  # another run still has its directory there

    for line in w.report:
        print(line)
    print()
    for name, (value, unit) in metrics.items():
        print(f"{name:<32}{value:>16.6g} {unit}")
    print("machine " + json.dumps(_machine(threads, args.seed), sort_keys=True))
    result = {
        "correct": w.failed == 0,
        "attempted": w.attempted,
        "failed": w.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Digests of the files fixed-seed training runs write, for byte-identity checks.

Generates a small synthetic set, runs five short `waveray train` invocations
on it, and prints one ``<blake2b-64>  <run>/<file>`` line per written
``config.txt``, checkpoint and ``origins.csv``.  ``metrics.csv`` is left out,
because its throughput column varies from run to run.  Each ``.wrnc``
checkpoint also gets a ``body/<run>/<file>`` line, which digests bytes
``8:-8`` of the file: everything but the magic, the format version and the
integrity trailer.  A change of checkpoint container (a new version number
or trailer digest) moves only the file line, while a change in the trained
values moves the ``body/`` line too.  A ``load/<run>/<file>`` line digests
what ``load_checkpoint`` returns for the file: each record's name, dtype,
shape and bytes in name order, then the JSON of the counters, precision,
RNG state, extras and model config.  Under ``--against`` each side digests
with its own loader, so the line compares the two loaders too.  It then
digests every file ``export-maps --layer 2`` writes for the shared-field run,
and the stdout of ``param-count --table1 --rays 3 --classes 10`` plus
``eval`` of the rays-3 run, with eval's ``images_per_second`` column dropped.  Two lines
digest the batch-1 logits of every image of the set under the rays-3 and the
shared-field final checkpoints, where repeated untaped forwards reuse the ray
maps.  Three digest the stdout of ``gradcheck --scope block --seed 0``, where
finite differences edit the field arrays in place between forwards, of
``gradcheck --scope op --seed 0`` and of ``gradcheck --scope model --seed 0``,
the whole classifier's probe.  Three lines digest every parameter's
gradient after one taped desk step at batch 64: rays 3 in float32 and in
float64, and rays 0 (the global-average-pooling head) in float32.  So a
change to a backward shows here directly, not only through the trained
checkpoints.  The last line digests every parameter and both AdamW moments
after two steps over the ``table1_config(rays=0)`` parameters with seeded
gradients.  The whole desk model (35,206 parameters) is smaller than one
block of the optimizer's blocked update; this line reaches parameters of
many blocks.
A change that claims no behaviour change should leave this output unchanged:

    python3 scripts/identity_digests.py --against HEAD   # or any other git revision

With ``--against REV`` it exports ``src/`` at REV into a temporary directory
with ``git archive``, computes the same digests there in a subprocess while
it computes this checkout's, and prints only the lines that differ, as a
unified diff from REV to this checkout; it exits 1 if any line differs.
``--against HEAD`` checks an uncommitted change.

It imports ``waveray`` from the ``src/`` next to its own ``scripts/`` folder
and writes only to temporary directories.
"""

import argparse
import contextlib
import difflib
import hashlib
import io
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from waveray.autodiff import Tape, Tensor, backward, precision  # noqa: E402
from waveray.checkpoint import load_checkpoint  # noqa: E402
from waveray.cli import main as waveray  # noqa: E402
from waveray.data import load_dataset  # noqa: E402
from waveray.model import (  # noqa: E402
    ModelConfig,
    WaveletClassifier,
    cross_entropy,
    desk_config,
    table1_config,
)
from waveray.optim import AdamW  # noqa: E402

RUNS = {
    "rays3": ["--rays", "3", "--epochs", "6", "--batch-size", "16", "--seed", "5"],
    "rays0": ["--rays", "0", "--epochs", "6", "--batch-size", "16", "--seed", "5"],
    "rays3-batch1": ["--rays", "3", "--batch-size", "1", "--epochs", "3", "--seed", "5"],
    "rays3-double": ["--rays", "3", "--epochs", "2", "--batch-size", "16", "--seed", "5",
                     "--set", "precision=double", "--checkpoint-every", "1"],
    "rays3-shared": ["--rays", "3", "--epochs", "2", "--batch-size", "16", "--seed", "5",
                     "--set", "share_ray_fields=true"],
}


def run(argv: list) -> str:
    """Run one waveray command in process and return its stdout."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = waveray(argv)
    if code != 0:
        raise SystemExit(f"waveray {' '.join(argv)} exited {code}:\n{out.getvalue()}"
                         f"{err.getvalue()}")
    return out.getvalue()


def digest(data: bytes) -> str:
    return hashlib.blake2b(data, digest_size=8).hexdigest()


def load_digest(checkpoint: Path) -> str:
    """Digest of everything ``load_checkpoint`` returns for ``checkpoint``."""
    state = load_checkpoint(checkpoint)
    h = hashlib.blake2b(digest_size=8)
    for kind in ("params", "opt_m", "opt_v"):
        for name, arr in sorted(getattr(state, kind).items()):
            h.update(f"{kind}/{name} {arr.dtype.str} {arr.shape}".encode() + arr.tobytes())
    rest = {k: getattr(state, k) for k in ("epoch", "opt_step", "precision", "rng_state",
                                           "extra", "model_config")}
    h.update(json.dumps(rest, sort_keys=True).encode())
    return h.hexdigest()


def logits_digest(checkpoint: Path, data: Path) -> str:
    """Digest of the logits of one-image forwards over the whole set, in order."""
    state = load_checkpoint(checkpoint)
    model = WaveletClassifier(ModelConfig.from_dict(state.model_config), seed=0)
    model.load_state(state.params)
    h = hashlib.blake2b(digest_size=8)
    for image in load_dataset(data, classes=model.config.classes).images:
        h.update(model.forward(Tensor(image[None])).data.tobytes())
    return h.hexdigest()


def grads_digest(mode: str, rays: int) -> str:
    """Digest of every parameter's gradient, in name order, after one taped
    desk step with ray budget ``rays`` on 64 random images at precision ``mode``."""
    with precision(mode):
        model = WaveletClassifier(desk_config(rays=rays), seed=0)
        gen = np.random.default_rng(0)
        images = Tensor(gen.normal(size=(64, 3, 32, 32)))
        labels = gen.integers(0, 3, size=64)
        with Tape() as tape:
            loss = cross_entropy(model.forward(images), labels)
        backward(loss, tape)
    h = hashlib.blake2b(digest_size=8)
    for name, param in sorted(model.parameters().items()):
        h.update(name.encode() + param.grad.tobytes())
    return h.hexdigest()


def table1_optimizer_digest() -> str:
    """Digest of every parameter and its two moments, in name order, after two
    AdamW steps over the table-1 rays-0 parameters with gradients drawn from
    a fixed seed."""
    params = WaveletClassifier(table1_config(rays=0), seed=0).parameters()
    opt = AdamW(params, weight_decay=0.05)
    gen = np.random.default_rng(0)
    for lr in (1e-3, 5e-4):
        for name, param in sorted(params.items()):
            param.grad = gen.standard_normal(param.shape, dtype=param.dtype)
        opt.step(lr)
    m, v, _ = opt.export_state()
    h = hashlib.blake2b(digest_size=8)
    for name, param in sorted(params.items()):
        h.update(name.encode() + param.data.tobytes() + m[name].tobytes() + v[name].tobytes())
    return h.hexdigest()


def digest_lines() -> list:
    """Every ``<digest>  <name>`` line, in order."""
    lines = []
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        data = root / "data"
        run(["synth", "--out", str(data), "--classes", "3", "--per-class", "16", "--seed", "3"])
        for name, flags in RUNS.items():
            run(["train", "--data", str(data), "--out", str(root / name), *flags])
            for path in sorted((root / name).iterdir()):
                if path.name != "metrics.csv":
                    lines.append(f"{digest(path.read_bytes())}  {name}/{path.name}")
                if path.suffix == ".wrnc":
                    lines.append(f"{digest(path.read_bytes()[8:-8])}  body/{name}/{path.name}")
                    lines.append(f"{load_digest(path)}  load/{name}/{path.name}")
        maps = root / "maps"
        run(["export-maps", "--checkpoint", str(root / "rays3-shared" / "checkpoint_final.wrnc"),
             "--image", str(data / "images" / "img_00000.ppm"), "--out", str(maps),
             "--layer", "2"])
        for path in sorted(maps.iterdir()):
            lines.append(f"{digest(path.read_bytes())}  maps/{path.name}")
        counts = run(["param-count", "--table1", "--rays", "3", "--classes", "10"])
        evaluated = run(["eval", "--checkpoint", str(root / "rays3" / "checkpoint_final.wrnc"),
                         "--data", str(data)])
        # the last eval column is throughput, which varies from run to run
        evaluated = "".join(line.rsplit(",", 1)[0] + "\n" for line in evaluated.splitlines())
        lines.append(f"{digest((counts + evaluated).encode())}  stdout/param-count+eval")
        for name in ("rays3", "rays3-shared"):
            checkpoint = root / name / "checkpoint_final.wrnc"
            lines.append(f"{logits_digest(checkpoint, data)}  logits/{name}")
        for scope in ("block", "op", "model"):
            gradcheck = run(["gradcheck", "--scope", scope, "--seed", "0"])
            lines.append(f"{digest(gradcheck.encode())}  stdout/gradcheck-{scope}")
    for rays, mode, dtype in ((3, "single", "float32"), (3, "double", "float64"),
                              (0, "single", "float32")):
        lines.append(f"{grads_digest(mode, rays)}  grads/desk-rays{rays}-batch64-{dtype}")
    lines.append(f"{table1_optimizer_digest()}  optim/table1-rays0-2steps")
    return lines


def against(rev: str) -> int:
    """Print the lines that differ between ``src/`` at ``rev`` and this
    checkout; return 1 if any does."""
    with tempfile.TemporaryDirectory() as tmp:
        archive = Path(tmp) / "src.tar"
        subprocess.run(["git", "archive", f"--output={archive}", rev, "src"], cwd=ROOT,
                       check=True)
        shutil.unpack_archive(archive, tmp)
        (Path(tmp) / "scripts").mkdir()
        script = shutil.copy(__file__, Path(tmp) / "scripts")
        child = [sys.executable, script]
        with subprocess.Popen(child, stdout=subprocess.PIPE, text=True) as theirs:
            ours = digest_lines()
            out = theirs.stdout.read()
    if theirs.returncode != 0:
        raise SystemExit(f"digests at {rev} exited {theirs.returncode}")
    diff = list(difflib.unified_diff(out.splitlines(), ours, rev, "this checkout",
                                     lineterm="", n=0))
    for line in diff:
        print(line)
    return 1 if diff else 0


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--against", metavar="REV",
                        help="print only the lines that differ from src/ at this git revision")
    args = parser.parse_args()
    if args.against:
        sys.exit(against(args.against))
    for line in digest_lines():
        print(line)


if __name__ == "__main__":
    main()

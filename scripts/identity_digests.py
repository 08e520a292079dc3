"""Digests of the files fixed-seed training runs write, for byte-identity checks.

Generates a small synthetic set, runs four short `waveray train` invocations
on it, and prints one ``<blake2b-64>  <run>/<file>`` line per written
``config.txt``, checkpoint and ``origins.csv``.  ``metrics.csv`` is left out,
because its throughput column varies from run to run.  A change that claims
no behaviour change should leave this output unchanged:

    python3 scripts/identity_digests.py > after.txt   # and diff with the parent's

It imports ``waveray`` from this checkout's ``src/``, takes no options and
writes only to a temporary directory.
"""

import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from waveray.cli import main as waveray  # noqa: E402

RUNS = {
    "rays3": ["--rays", "3", "--epochs", "6", "--batch-size", "16", "--seed", "5"],
    "rays0": ["--rays", "0", "--epochs", "6", "--batch-size", "16", "--seed", "5"],
    "rays3-batch1": ["--rays", "3", "--batch-size", "1", "--epochs", "3", "--seed", "5"],
    "rays3-double": ["--rays", "3", "--epochs", "2", "--batch-size", "16", "--seed", "5",
                     "--set", "precision=double", "--checkpoint-every", "1"],
}


def run(argv: list) -> None:
    log = io.StringIO()
    with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
        code = waveray(argv)
    if code != 0:
        raise SystemExit(f"waveray {' '.join(argv)} exited {code}:\n{log.getvalue()}")


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        data = root / "data"
        run(["synth", "--out", str(data), "--classes", "3", "--per-class", "16", "--seed", "3"])
        for name, flags in RUNS.items():
            run(["train", "--data", str(data), "--out", str(root / name), *flags])
            for path in sorted((root / name).iterdir()):
                if path.name == "metrics.csv":
                    continue
                digest = hashlib.blake2b(path.read_bytes(), digest_size=8).hexdigest()
                print(f"{digest}  {name}/{path.name}")


if __name__ == "__main__":
    main()

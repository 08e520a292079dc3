"""Dataset IO.

Binary PPM (P6) and PGM (P5) codecs with maxval 255, CSV manifests mapping
image paths to integer labels, a deterministic synthetic shape-dataset
generator for overfit experiments, and grayscale/CSV export helpers for
inspection artifacts.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError, check_field_types

_MAXVAL = 255
_GAP = re.compile(rb"(?:\s|#[^\n]*\n)*")  # whitespace and comments; \s is bytes.isspace's six
_NUMBER = re.compile(rb"\d+")


def _parse_pnm_header(blob: bytes, path) -> tuple[bytes, int, int, int]:
    """Returns (magic, width, height, payload offset); honors # comments."""
    if len(blob) < 2 or blob[:1] != b"P":
        raise DataError(f"{path}: not a PNM file (bad magic)")
    magic = blob[:2]
    if magic not in (b"P5", b"P6"):
        raise DataError(f"{path}: unsupported PNM magic {magic!r}")
    fields = []
    i = 2
    for _ in range(3):
        i = _GAP.match(blob, i).end()
        field = _NUMBER.match(blob, i)
        if field is None:
            if blob[i : i + 1] in (b"", b"#"):  # the end, or a comment that runs into it
                raise DataError(f"{path}: truncated header")
            raise DataError(f"{path}: malformed header near byte {i}")
        fields.append(int(field[0]))
        i = field.end()
    if i >= len(blob) or not blob[i : i + 1].isspace():
        raise DataError(f"{path}: missing whitespace after header")
    i += 1
    width, height, maxval = fields
    if width < 1 or height < 1:
        raise DataError(f"{path}: bad image extents {width}x{height}")
    if maxval != _MAXVAL:
        raise DataError(f"{path}: maxval must be {_MAXVAL}, got {maxval}")
    return magic, width, height, i


def read_image(path) -> np.ndarray:
    """Decode a P5/P6 file to float32 (3, H, W) in [0, 1].

    Grayscale images are replicated across the three channels.
    """
    path = Path(path)
    try:
        blob = path.read_bytes()
    except OSError as e:
        raise DataError(f"cannot read image {path}: {e}") from None
    magic, width, height, offset = _parse_pnm_header(blob, path)
    channels = 3 if magic == b"P6" else 1
    expected = width * height * channels
    payload = blob[offset : offset + expected]
    if len(payload) != expected:
        raise DataError(
            f"{path}: payload has {len(payload)} bytes, expected {expected}"
        )
    raw = np.frombuffer(payload, dtype=np.uint8).reshape(height, width, channels)
    img = raw.astype(np.float32) / _MAXVAL
    if channels == 1:
        img = np.repeat(img, 3, axis=2)
    return np.ascontiguousarray(img.transpose(2, 0, 1))


def write_pnm(path, img: np.ndarray) -> None:
    """Write an (H, W, 3) uint8 array as binary PPM, an (H, W) one as binary PGM."""
    img = np.asarray(img)
    if img.dtype != np.uint8 or img.ndim not in (2, 3) or img.shape[2:] not in ((), (3,)):
        raise DataError(f"write_pnm wants (H, W, 3) or (H, W) uint8, got {img.shape} {img.dtype}")
    h, w = img.shape[:2]
    with open(path, "wb") as fh:
        fh.write(f"{'P6' if img.ndim == 3 else 'P5'}\n{w} {h}\n{_MAXVAL}\n".encode())
        fh.write(img.tobytes())


class Dataset:
    """In-memory image batch: float32 images (N, 3, E, E) plus labels."""

    def __init__(self, images: np.ndarray, labels: np.ndarray, class_names: list):
        self.images = images
        self.labels = labels
        self.class_names = class_names

    def __len__(self) -> int:
        return len(self.labels)

    @property
    def extent(self) -> int:
        return self.images.shape[2]

    @property
    def classes(self) -> int:
        return len(self.class_names)


def read_manifest(manifest_path) -> tuple[Path, list]:
    """The manifest's directory and its (relative path, label) pairs."""
    manifest_path = Path(manifest_path)
    if manifest_path.is_dir():
        manifest_path = manifest_path / "manifest.csv"
    if not manifest_path.is_file():
        raise DataError(f"manifest not found: {manifest_path}")
    lines = manifest_path.read_text(encoding="utf-8").splitlines()
    if not lines or lines[0].strip() != "path,label":
        raise DataError(f"{manifest_path}: first line must be 'path,label'")
    entries = []
    for ln, line in enumerate(lines[1:], start=2):
        line = line.strip()
        if not line:
            continue
        parts = line.rsplit(",", 1)
        if len(parts) != 2:
            raise DataError(f"{manifest_path}:{ln}: expected 'path,label'")
        rel, label_text = parts
        try:
            label = int(label_text)
        except ValueError:
            raise DataError(f"{manifest_path}:{ln}: label {label_text!r} is not an integer") from None
        entries.append((rel, label))
    if not entries:
        raise DataError(f"{manifest_path}: no entries")
    return manifest_path.parent, entries


def load_dataset(manifest_path, classes: int = None) -> Dataset:
    """Load every image of a manifest into one array.

    The array is allocated once the first image gives the extent, and each
    decoded image is written into its row, so the load holds one copy of
    the set plus one image.

    With ``classes`` given, labels must lie in [0, classes); otherwise the
    class count is inferred and every label value up to the maximum has to
    appear at least once.
    """
    root, entries = read_manifest(manifest_path)
    labels = np.array([label for _, label in entries], dtype=np.int64)
    if labels.min() < 0:
        raise DataError(f"negative label {labels.min()} in {root}")
    if classes is not None:
        if labels.max() >= classes:
            bad = next(rel for rel, lab in entries if lab >= classes)
            raise DataError(
                f"label {labels.max()} out of range for {classes} classes (first at {bad})"
            )
    else:
        present = set(labels.tolist())
        missing = [i for i in range(labels.max() + 1) if i not in present]
        if missing:
            raise DataError(f"labels are not dense: missing {missing}")
        classes = int(labels.max()) + 1

    images = None  # allocated once the first image gives the extent
    for i, (rel, _) in enumerate(entries):
        img = read_image(root / rel)
        if img.shape[1] != img.shape[2]:
            raise DataError(f"{rel}: images must be square, got {img.shape[1]}x{img.shape[2]}")
        if images is None:
            images = np.empty((len(entries),) + img.shape, dtype=img.dtype)
        elif img.shape != images.shape[1:]:
            raise DataError(
                f"{rel}: extent {img.shape[1]} differs from the first image's {images.shape[2]}"
            )
        images[i] = img
    return Dataset(images, labels, [f"class{i}" for i in range(classes)])


# ---------------------------------------------------------------------------
# synthetic shapes

_PALETTE = (
    (0.90, 0.20, 0.20),
    (0.20, 0.90, 0.20),
    (0.20, 0.30, 0.90),
    (0.90, 0.80, 0.20),
    (0.80, 0.20, 0.90),
    (0.20, 0.90, 0.90),
    (0.95, 0.60, 0.25),
    (0.75, 0.75, 0.75),
)


def _mask_disk(dy, dx, r):
    return dy * dy + dx * dx <= r * r


def _mask_square(dy, dx, r):
    return np.maximum(np.abs(dy), np.abs(dx)) <= 0.8 * r


def _mask_cross(dy, dx, r):
    arm = r / 3.0
    return ((np.abs(dy) <= arm) & (np.abs(dx) <= r)) | ((np.abs(dx) <= arm) & (np.abs(dy) <= r))


def _mask_ring(dy, dx, r):
    d2 = dy * dy + dx * dx
    return (d2 <= r * r) & (d2 >= (0.55 * r) ** 2)


def _mask_triangle(dy, dx, r):
    return (dy >= -r) & (dy <= r) & (np.abs(dx) <= 0.5 * (r - dy))


def _mask_hbar(dy, dx, r):
    return (np.abs(dy) <= r / 3.0) & (np.abs(dx) <= r)


def _mask_vbar(dy, dx, r):
    return (np.abs(dx) <= r / 3.0) & (np.abs(dy) <= r)


def _mask_diamond(dy, dx, r):
    return np.abs(dy) + np.abs(dx) <= r

SHAPES = (
    ("disk", _mask_disk),
    ("square", _mask_square),
    ("cross", _mask_cross),
    ("ring", _mask_ring),
    ("triangle", _mask_triangle),
    ("hbar", _mask_hbar),
    ("vbar", _mask_vbar),
    ("diamond", _mask_diamond),
)


@dataclass
class SyntheticSpec:
    classes: int = 3
    per_class: int = 64
    extent: int = 32
    placement: str = "center"  # or "uniform"
    noise: float = 0.05
    seed: int = 0

    def validate(self) -> None:
        check_field_types(self)
        if not 2 <= self.classes <= len(SHAPES):
            raise ConfigError(
                f"classes must lie in [2, {len(SHAPES)}] (one shape each), got {self.classes}"
            )
        if self.per_class < 1:
            raise ConfigError(f"per_class must be positive, got {self.per_class}")
        if self.extent < 16 or self.extent % 16:
            raise ConfigError(f"extent must be a multiple of 16, got {self.extent}")
        if self.placement not in ("center", "uniform"):
            raise ConfigError(f"placement must be 'center' or 'uniform', got {self.placement!r}")
        if not 0.0 <= self.noise <= 0.5:
            raise ConfigError(f"noise must lie in [0, 0.5], got {self.noise}")
        if self.seed < 0:
            raise ConfigError(f"seed must be nonnegative, got {self.seed}")


def _sample_center(rng, extent: int, margin: float, placement: str) -> tuple[float, float]:
    lo, hi = margin, extent - 1 - margin
    if placement == "uniform":
        return rng.uniform(lo, hi), rng.uniform(lo, hi)
    mid = (extent - 1) / 2.0
    std = extent / 8.0  # tight center bias: most mass in the central quarter
    for _ in range(100):
        cy, cx = rng.normal(mid, std, size=2)
        if lo <= cy <= hi and lo <= cx <= hi:
            return cy, cx
    return mid, mid


def synth_render(spec: SyntheticSpec, label: int, rng) -> np.ndarray:
    """One (H, W, 3) uint8 image of the label's shape; consumes the rng."""
    e = spec.extent
    name, mask_fn = SHAPES[label]
    r = rng.uniform(0.12 * e, 0.20 * e)
    cy, cx = _sample_center(rng, e, margin=r + 1.0, placement=spec.placement)
    yy, xx = np.meshgrid(np.arange(e, dtype=np.float64), np.arange(e, dtype=np.float64),
                         indexing="ij")
    mask = mask_fn(yy - cy, xx - cx, r)
    canvas = np.full((e, e, 3), 0.2, dtype=np.float64)
    canvas[mask] = _PALETTE[label]
    canvas += rng.uniform(-spec.noise, spec.noise, size=canvas.shape)
    return (np.clip(canvas, 0.0, 1.0) * _MAXVAL).round().astype(np.uint8)


def synth_generate(spec: SyntheticSpec, out_dir) -> Path:
    """Write a synthetic dataset and return the manifest path.

    The same spec regenerates byte-identical files: one master generator
    seeds the whole run and images are drawn in a fixed order.
    """
    spec.validate()
    out_dir = Path(out_dir)
    img_dir = out_dir / "images"
    img_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(spec.seed)
    rows = []
    index = 0
    for label in range(spec.classes):
        for _ in range(spec.per_class):
            img = synth_render(spec, label, rng)
            rel = f"images/img_{index:05d}.ppm"
            write_pnm(out_dir / rel, img)
            rows.append(f"{rel},{label}")
            index += 1
    manifest = out_dir / "manifest.csv"
    manifest.write_text("path,label\n" + "\n".join(rows) + "\n", encoding="utf-8")
    return manifest


# ---------------------------------------------------------------------------
# export helpers


def export_map(array, path) -> None:
    """Scale a 2-D map to the full gray range and write it as PGM.

    Constant maps export as mid-gray; a map holding NaN or Inf is refused,
    since no gray level stands for it.
    """
    arr = np.asarray(getattr(array, "data", array), dtype=np.float64)
    if arr.ndim != 2:
        raise DataError(f"export_map wants a 2-d map, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise DataError("export_map got a map holding NaN or Inf")
    lo, hi = arr.min(), arr.max()
    if hi > lo:
        scaled = (arr - lo) / (hi - lo) * _MAXVAL
    else:
        scaled = np.full_like(arr, _MAXVAL / 2.0)
    write_pnm(path, scaled.round().astype(np.uint8))


def write_origin_csv(path, rows) -> None:
    """Persist origin trajectories: rows of (epoch, origin index, x, y)."""
    lines = ["epoch,origin_index,x,y"]
    for epoch, idx, x, y in rows:
        lines.append(f"{epoch},{idx},{x!r},{y!r}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def atomic_write_bytes(path, chunks) -> None:
    """Write ``chunks`` (an iterable of bytes-like objects) via a temp file
    and rename, so readers never see partial data.

    If writing fails, the temp file is removed and the old ``path`` is left
    as it was.
    """
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.writelines(chunks)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise

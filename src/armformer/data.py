"""Dataset I/O: grayscale mask encoding, netpbm files, synthetic scenes.

Class identity travels in mask files as grayscale bytes.  The palette is
fixed; decoding is tolerant (off-palette bytes snap to the nearest value,
ties toward the smaller gray, counted in ``decode_stats``) because
nearest-neighbor resampling of real masks can produce stray bytes, while
encoding is strict.

Images are binary PPM (P6) and masks binary PGM (P5), both 8-bit.  A dataset
directory looks like::

    root/
      images/<name>.ppm
      masks/<name>.pgm
      splits/{train,val,test}.txt   # one basename per line

The synthetic generator paints 1-3 non-overlapping primitives, one shape
family per foreground class, with class-correlated colors.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError, NetpbmError
from .tensor import _bilinear

# class id -> (name, mask gray value)
PALETTE: tuple[tuple[int, str, int], ...] = (
    (0, "background", 0),
    (1, "handgun", 51),
    (2, "human", 102),
    (3, "knife", 153),
    (4, "rifle", 204),
    (5, "revolver", 255),
)
NUM_CLASSES = len(PALETTE)
CLASS_NAMES = tuple(name for _, name, _ in PALETTE)
GRAY_VALUES = tuple(gray for _, _, gray in PALETTE)


@dataclass
class DecodeStats:
    off_palette: int = 0


decode_stats = DecodeStats()


# byte -> class id of the nearest gray value; argmin's first match breaks a tie
# toward the smaller gray value, since GRAY_VALUES ascends
_CLASS_LUT = np.abs(np.arange(256)[:, None] - np.asarray(GRAY_VALUES)).argmin(axis=1)
_EXACT = np.isin(np.arange(256), GRAY_VALUES)


def decode_mask(gray: np.ndarray) -> np.ndarray:
    """Map gray bytes to class ids; off-palette bytes snap to the nearest."""
    gray = np.asarray(gray)
    if gray.dtype != np.uint8:
        if gray.min() < 0 or gray.max() > 255:
            raise DataError("mask values must fit in a byte")
        gray = gray.astype(np.uint8)
    decode_stats.off_palette += int((~_EXACT[gray]).sum())
    return _CLASS_LUT[gray]


def encode_mask(labels: np.ndarray) -> np.ndarray:
    """Exact inverse of the palette; rejects out-of-range ids."""
    labels = np.asarray(labels)
    if labels.min() < 0 or labels.max() >= NUM_CLASSES:
        raise DataError(f"labels must lie in [0, {NUM_CLASSES}), "
                        f"got [{labels.min()}, {labels.max()}]")
    return np.asarray(GRAY_VALUES, dtype=np.uint8)[labels]


# ----------------------------------------------------------------------
# netpbm (binary PPM P6 / PGM P5, 8-bit)
# ----------------------------------------------------------------------

def _read_netpbm(path: str | Path, magic: bytes) -> np.ndarray:
    path = Path(path)
    try:
        raw = path.read_bytes()
    except OSError as exc:
        raise NetpbmError(f"{path}: {exc}") from None
    if raw[:2] != magic:
        raise NetpbmError(f"{path}: expected {magic.decode()} header, "
                          f"got {raw[:2]!r}")
    # header = magic + three whitespace-delimited integers; '#' comments allowed
    pos = 2
    fields = []
    while len(fields) < 3:
        while pos < len(raw) and raw[pos:pos + 1].isspace():
            pos += 1
        if pos < len(raw) and raw[pos:pos + 1] == b"#":
            while pos < len(raw) and raw[pos] != 0x0A:
                pos += 1
            continue
        start = pos
        while pos < len(raw) and not raw[pos:pos + 1].isspace():
            pos += 1
        token = raw[start:pos]
        if not token.isdigit():
            raise NetpbmError(f"{path}: malformed header token {token!r}")
        fields.append(int(token))
    pos += 1  # single whitespace byte after maxval
    width, height, maxval = fields
    if width == 0 or height == 0:
        raise NetpbmError(f"{path}: empty image ({width}x{height})")
    if maxval != 255:
        raise NetpbmError(f"{path}: only 8-bit files supported, maxval={maxval}")
    channels = 3 if magic == b"P6" else 1
    need = width * height * channels
    payload = raw[pos:pos + need]
    if len(payload) < need:
        raise NetpbmError(f"{path}: truncated payload "
                          f"({len(payload)} of {need} bytes)")
    data = np.frombuffer(payload, dtype=np.uint8)
    if channels == 3:
        return data.reshape(height, width, 3)
    return data.reshape(height, width)


def read_ppm(path: str | Path) -> np.ndarray:
    """Read a binary P6 file as uint8 [H, W, 3]."""
    return _read_netpbm(path, b"P6")


def read_pgm(path: str | Path) -> np.ndarray:
    """Read a binary P5 file as uint8 [H, W]."""
    return _read_netpbm(path, b"P5")


def write_ppm(path: str | Path, image: np.ndarray) -> None:
    image = np.ascontiguousarray(image, dtype=np.uint8)
    if image.ndim != 3 or image.shape[2] != 3:
        raise DataError(f"PPM image must be [H, W, 3], got {image.shape}")
    h, w, _ = image.shape
    Path(path).write_bytes(b"P6\n%d %d\n255\n" % (w, h) + image.tobytes())


def write_pgm(path: str | Path, gray: np.ndarray) -> None:
    gray = np.ascontiguousarray(gray, dtype=np.uint8)
    if gray.ndim != 2:
        raise DataError(f"PGM image must be [H, W], got {gray.shape}")
    h, w = gray.shape
    Path(path).write_bytes(b"P5\n%d %d\n255\n" % (w, h) + gray.tobytes())


# ----------------------------------------------------------------------
# resampling and sample loading
# ----------------------------------------------------------------------

def resize_image(image: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Bilinear resize of a float [C, H, W] array (half-pixel centers)."""
    return _bilinear(image, out_h, out_w)[0]


def resize_nearest(grid: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Nearest-neighbor resize; never blends values, so labels stay labels."""
    h, w = grid.shape
    rows = np.minimum((np.arange(out_h) + 0.5) * h / out_h, h - 1).astype(int)
    cols = np.minimum((np.arange(out_w) + 0.5) * w / out_w, w - 1).astype(int)
    return grid[rows][:, cols]


def image_to_input(image: np.ndarray, size: int) -> np.ndarray:
    """Turn a uint8 [H, W, 3] image into float64 [3, size, size] model input in [0, 1]."""
    chw = image.transpose(2, 0, 1).astype(np.float64) / 255.0
    if image.shape[:2] != (size, size):
        chw = resize_image(chw, size, size)
    return chw


def load_sample(image_path: str | Path, mask_path: str | Path,
                target_size: int) -> tuple[np.ndarray, np.ndarray]:
    """Load one (image, labels) pair resampled to target_size x target_size.

    The image scales to float64 [3, S, S] in [0, 1]; the mask is resized
    nearest-neighbor while still in gray bytes, then decoded.
    """
    image = read_ppm(image_path)
    mask = read_pgm(mask_path)
    if image.shape[:2] != mask.shape:
        raise DataError(f"image {image.shape[:2]} and mask {mask.shape} "
                        f"dimensions differ for {image_path}")
    if mask.shape != (target_size, target_size):
        mask = resize_nearest(mask, target_size, target_size)
    return image_to_input(image, target_size), decode_mask(mask)


# ----------------------------------------------------------------------
# synthetic scenes
# ----------------------------------------------------------------------

# per-class fill colors (RGB in [0,1]); chosen well apart from each other
# and from the dark background
_CLASS_COLORS = {
    1: (0.85, 0.20, 0.15),  # handgun: red
    2: (0.20, 0.75, 0.25),  # human: green
    3: (0.25, 0.35, 0.90),  # knife: blue
    4: (0.90, 0.80, 0.15),  # rifle: yellow
    5: (0.80, 0.25, 0.85),  # revolver: magenta
}


def _shape_mask(cls: int, box: int, rng: np.random.Generator) -> np.ndarray:
    """Rasterize the class's primitive inside a box x box tile."""
    m = np.zeros((box, box), dtype=bool)
    c = box / 2.0
    yy, xx = np.mgrid[0:box, 0:box] + 0.5
    if cls == 1:  # rectangle
        hh = int(box * rng.uniform(0.30, 0.45))
        ww = int(box * rng.uniform(0.55, 0.80))
        top, left = (box - hh) // 2, (box - ww) // 2
        m[top:top + hh, left:left + ww] = True
    elif cls == 2:  # circle
        r = box * rng.uniform(0.32, 0.44)
        m = (yy - c) ** 2 + (xx - c) ** 2 <= r * r
    elif cls == 3:  # elongated bar
        hh = max(3, int(box * rng.uniform(0.14, 0.22)))
        top = (box - hh) // 2
        m[top:top + hh, 1:box - 1] = True
    elif cls == 4:  # L-shape
        arm = max(4, int(box * rng.uniform(0.30, 0.40)))
        m[box - arm:box, :] = True
        m[:, :arm] = True
        m[:2, :] = False  # keep a margin so arms stay inside the tile
        m[:, box - 2:] = False
    elif cls == 5:  # ring
        r_out = box * rng.uniform(0.38, 0.46)
        r_in = r_out * rng.uniform(0.40, 0.52)
        d2 = (yy - c) ** 2 + (xx - c) ** 2
        m = (d2 <= r_out * r_out) & (d2 >= r_in * r_in)
    return m


def synth_dataset(seed: int, count: int, size: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Deterministic synthetic scenes: (image [3,S,S] in [0,1], labels [S,S]).

    Sample ``i`` always contains class ``(i % 5) + 1`` so every class shows
    up in any run of >= 5 samples; up to two more primitives are added where
    they fit without overlap.
    """
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    if count <= 0:
        raise ConfigError(f"count must be positive, got {count}")
    if size <= 0 or size % 32:
        raise ConfigError(f"size must be a positive multiple of 32, got {size}")
    rng = np.random.default_rng(seed)
    samples = []
    for i in range(count):
        bg = rng.uniform(0.05, 0.22, size=3)
        image = np.empty((3, size, size))
        image[:] = bg[:, None, None]
        image += rng.uniform(-0.03, 0.03, size=(3, size, size))
        labels = np.zeros((size, size), dtype=np.int64)
        taken: list[tuple[int, int, int]] = []  # (top, left, box)
        classes = [(i % 5) + 1]
        classes += [int(c) for c in rng.integers(1, 6, size=int(rng.integers(0, 3)))]
        for cls in classes:
            box = int(size * rng.uniform(0.34, 0.46))
            placed = False
            for _ in range(25):
                top = int(rng.integers(1, size - box - 1))
                left = int(rng.integers(1, size - box - 1))
                margin = 2
                if all(top + box + margin <= t or t + b + margin <= top or
                       left + box + margin <= l or l + b + margin <= left
                       for t, l, b in taken):
                    placed = True
                    break
            if not placed:
                continue
            mask = _shape_mask(cls, box, rng)
            color = np.asarray(_CLASS_COLORS[cls])
            jitter = rng.uniform(-0.05, 0.05, size=3)
            tile = image[:, top:top + box, left:left + box]
            fill = np.clip(color + jitter, 0.0, 1.0)[:, None, None]
            noise = rng.uniform(-0.04, 0.04, size=(3, box, box))
            tile[:, mask] = (fill + noise)[:, mask]
            labels[top:top + box, left:left + box][mask] = cls
        image = np.clip(image, 0.0, 1.0)
        samples.append((image, labels))
    return samples


# ----------------------------------------------------------------------
# dataset directory contract
# ----------------------------------------------------------------------

@dataclass
class SegDataset:
    """Lazy view over a dataset directory for one split."""

    root: Path
    split: str
    target_size: int
    names: list[str] = field(init=False)

    def __post_init__(self):
        self.root = Path(self.root)
        split_file = self.root / "splits" / f"{self.split}.txt"
        if not split_file.is_file():
            raise DataError(f"missing split file {split_file}")
        try:
            text = split_file.read_text(encoding="utf-8")
        except UnicodeDecodeError as exc:
            raise DataError(f"split file {split_file} is not UTF-8 text ({exc})") from None
        self.names = [ln.strip() for ln in text.splitlines() if ln.strip()]

    def __len__(self) -> int:
        return len(self.names)

    def __getitem__(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        name = self.names[i]
        return load_sample(self.root / "images" / f"{name}.ppm",
                           self.root / "masks" / f"{name}.pgm",
                           self.target_size)

    def load_all(self) -> list[tuple[np.ndarray, np.ndarray]]:
        return [self[i] for i in range(len(self))]


def save_dataset(samples: list[tuple[np.ndarray, np.ndarray]], root: str | Path,
                 split_fractions: tuple[float, float, float] = (0.7, 0.15, 0.15)) -> None:
    """Write samples under the dataset directory contract.

    Samples are assigned to train/val/test in order by the given fractions
    (train gets any remainder), so the split is deterministic.
    """
    if not all(0.0 <= f <= 1.0 for f in split_fractions):
        raise DataError(f"split fractions must each lie in [0, 1], got {split_fractions}")
    if abs(sum(split_fractions) - 1.0) > 1e-9:
        raise DataError(f"split fractions must sum to 1, got {split_fractions}")
    root = Path(root)
    for sub in ("images", "masks", "splits"):
        (root / sub).mkdir(parents=True, exist_ok=True)
    n = len(samples)
    n_val = int(n * split_fractions[1])
    n_test = int(n * split_fractions[2])
    n_train = n - n_val - n_test
    assignment = ["train"] * n_train + ["val"] * n_val + ["test"] * n_test
    names: dict[str, list[str]] = {"train": [], "val": [], "test": []}
    width = max(4, len(str(n - 1)))
    for i, (image, labels) in enumerate(samples):
        name = f"sample{i:0{width}d}"
        rgb = np.clip(np.round(image * 255.0), 0, 255).astype(np.uint8)
        write_ppm(root / "images" / f"{name}.ppm", rgb.transpose(1, 2, 0))
        write_pgm(root / "masks" / f"{name}.pgm", encode_mask(labels))
        names[assignment[i]].append(name)
    for split, lst in names.items():
        (root / "splits" / f"{split}.txt").write_text(
            "".join(f"{nm}\n" for nm in lst), encoding="utf-8")

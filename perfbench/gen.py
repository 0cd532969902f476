"""Seeded input generators for the benchmark workloads.

Each generator writes files in one of the formats cdfeat ingests (IDX, Reuters
SGML, sparse text) and returns nothing the pipeline reads directly: the
benchmark's setup phase loads them back through `cdfeat.ingest`. The benchmark
runs this file as its own process, so that the generator's memory does not
count in the measured process's peak RSS:

    PYTHONPATH=src python3 perfbench/gen.py digits OUT_DIR SEED DRAW 60 10

writes one draw's files under OUT_DIR and prints their paths as JSON.

The shape of each data set (templates, vocabulary, topic word lists) is fixed
by constants in this file; the seed (a tuple of integers) only draws the
samples, so different seeds give different inputs of the same difficulty.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np

from cdfeat import Dataset
from cdfeat.ingest import IdxImages, dump_idx_images, dump_idx_labels, dump_sparse

SIDE = 28

# Seven-segment strokes on the 28x28 canvas, as (x0, y0, x1, y1).
_SEGMENTS = {
    "top": (8, 6, 20, 6),
    "ul": (8, 6, 8, 14),
    "ur": (20, 6, 20, 14),
    "mid": (8, 14, 20, 14),
    "ll": (8, 14, 8, 22),
    "lr": (20, 14, 20, 22),
    "bot": (8, 22, 20, 22),
    "diag": (8, 22, 20, 6),
    "stem": (14, 6, 14, 22),
}
_SEG_NAMES = tuple(_SEGMENTS)
_SEG_XY = np.asarray([_SEGMENTS[k] for k in _SEG_NAMES], dtype=float)
# Digit classes as stroke sets. Neighbouring shapes (8/0/6/9, 1/7, 3/9, 5/6)
# share most strokes, so those pairs overlap and the task has real errors.
_CLASS_STROKES = (
    ("top", "ul", "ur", "ll", "lr", "bot"),
    ("ur", "lr"),
    ("top", "ur", "mid", "ll", "bot"),
    ("top", "ur", "mid", "lr", "bot"),
    ("ul", "ur", "mid", "lr"),
    ("top", "ul", "mid", "lr", "bot"),
    ("top", "ul", "mid", "ll", "lr", "bot"),
    ("top", "ur", "lr"),
    ("top", "ul", "ur", "mid", "ll", "lr", "bot"),
    ("top", "ul", "ur", "mid", "lr", "bot"),
)
NUM_DIGITS = len(_CLASS_STROKES)
_MAX_STROKES = 8
DROP_PROB = 0.12  # each template stroke is missing from a sample this often
EXTRA_PROB = 0.25  # a sample gains one stray stroke from the pool this often
# Isolated noise pixels. At 15% a class mean over 60 samples has no exactly
# zero pixel; at 6% it keeps some, and then the smoothing_eps=1e-9 ratio means
# blow up, masks collapse and CDF error nears 0.9 on digits as it does on the
# small cv-grid folds, which keep that case in the benchmark.
SALT_PROB = 0.15
JITTER, SCALE, SHIFT = 1.0, 0.15, 2.0  # endpoint jitter sd, scale range, shift (px)


def digit_images(rng: np.random.Generator, labels: np.ndarray) -> np.ndarray:
    """uint8 pixel rows (n, 784) for the given class labels."""
    n = labels.shape[0]
    seg = np.zeros((n, _MAX_STROKES, 4))
    valid = np.zeros((n, _MAX_STROKES), dtype=bool)
    name_to_id = {k: i for i, k in enumerate(_SEG_NAMES)}
    for i, lab in enumerate(labels):
        ids = [name_to_id[s] for s in _CLASS_STROKES[lab]]
        keep = [s for s in ids if rng.random() >= DROP_PROB] or ids[:1]
        if rng.random() < EXTRA_PROB:
            keep.append(int(rng.integers(len(_SEG_NAMES))))
        seg[i, : len(keep)] = _SEG_XY[keep]
        valid[i, : len(keep)] = True
    # Endpoint jitter, then a per-sample scale about the centre and a shift.
    seg += rng.normal(0.0, JITTER, size=seg.shape)
    scale = rng.uniform(1.0 - SCALE, 1.0 + SCALE, size=(n, 1, 1))
    shift = rng.uniform(-SHIFT, SHIFT, size=(n, 1, 2))
    pts = seg.reshape(n, _MAX_STROKES, 2, 2)
    pts = (pts - 14.0) * scale[..., None] + 14.0 + shift[:, :, None, :]
    width = rng.uniform(0.8, 1.3, size=(n, 1, 1))
    amp = rng.uniform(190.0, 255.0, size=(n, _MAX_STROKES, 1))

    yy, xx = np.mgrid[0:SIDE, 0:SIDE]
    grid = np.stack([xx.ravel(), yy.ravel()], axis=1).astype(float)  # (784, 2)
    out = np.zeros((n, SIDE * SIDE), dtype=np.uint8)
    for lo in range(0, n, 256):
        hi = min(n, lo + 256)
        a = pts[lo:hi, :, 0, None, :]  # (b, S, 1, 2)
        d = pts[lo:hi, :, 1, None, :] - a
        rel = grid[None, None, :, :] - a  # (b, S, 784, 2)
        t = np.sum(rel * d, axis=-1) / np.maximum(np.sum(d * d, axis=-1), 1e-9)
        t = np.clip(t, 0.0, 1.0)
        dist2 = np.sum((rel - t[..., None] * d) ** 2, axis=-1)
        ink = amp[lo:hi] * np.exp(-dist2 / (2.0 * width[lo:hi] ** 2))
        ink = np.where(valid[lo:hi, :, None], ink, 0.0).max(axis=1)
        ink[ink < 90.0] = 0.0
        salt = rng.random(ink.shape) < SALT_PROB
        ink[salt] = np.maximum(ink[salt], rng.uniform(40.0, 160.0, size=int(salt.sum())))
        out[lo:hi] = np.clip(np.rint(ink), 0, 255).astype(np.uint8)
    return out


def balanced_labels(rng: np.random.Generator, per_class: int) -> np.ndarray:
    labels = np.repeat(np.arange(NUM_DIGITS), per_class)
    rng.shuffle(labels)
    return labels


def _write_idx(out: Path, split: str, pixels: np.ndarray, labels: np.ndarray) -> tuple:
    images = out / f"{split}-images-idx3-ubyte"
    label_file = out / f"{split}-labels-idx1-ubyte"
    images.write_bytes(dump_idx_images(IdxImages(pixels=pixels, rows=SIDE, cols=SIDE)))
    label_file.write_bytes(dump_idx_labels(labels.tolist()))
    return images, label_file


def write_digits(out: Path, seed: tuple, train_per_class: int, test_per_class: int) -> dict:
    """IDX image and label files for a train and a test split."""
    rng = np.random.default_rng([*seed, 1])
    files = {}
    for split, per_class in (("train", train_per_class), ("test", test_per_class)):
        labels = balanced_labels(rng, per_class)
        files[split] = _write_idx(out, split, digit_images(rng, labels), labels)
    return files


def write_cv(out: Path, seed: tuple, train_per_class: int, test_per_class: int) -> dict:
    """The CV set as sparse text (`dump_sparse`), its held-out split as IDX."""
    rng = np.random.default_rng([*seed, 3])
    labels = balanced_labels(rng, train_per_class)
    ds = Dataset.from_arrays(digit_images(rng, labels), labels.tolist())
    sparse = out / "cv-train.txt"
    sparse.write_text(dump_sparse(ds))
    labels = balanced_labels(rng, test_per_class)
    return {"train": sparse, "test": _write_idx(out, "test", digit_images(rng, labels), labels)}


# --- Reuters-shaped SGML -----------------------------------------------------

TOPIC_NAMES = (
    "earn", "acq", "money-fx", "grain", "crude", "trade",
    "interest", "ship", "wheat", "corn", "sugar", "coffee",
)
VOCAB_SIZE = 9000
TOPIC_WORDS = 250
_SYLLABLES = tuple(c + v for c in "bcdfghklmnprstvz" for v in "aeiou")


def _language():
    """Fixed pseudo-word lexicon, background Zipf weights, topic word lists."""
    rng = np.random.default_rng(20141229)
    words: list[str] = []
    seen = set()
    while len(words) < VOCAB_SIZE:
        k = int(rng.integers(2, 5))
        w = "".join(_SYLLABLES[int(i)] for i in rng.integers(len(_SYLLABLES), size=k))
        if w not in seen:
            seen.add(w)
            words.append(w)
    ranks = np.arange(1, VOCAB_SIZE + 1, dtype=float)
    background = 1.0 / (ranks + 2.7) ** 1.05
    background /= background.sum()
    topic_ids = [rng.choice(np.arange(150, VOCAB_SIZE), TOPIC_WORDS, replace=False)
                 for _ in TOPIC_NAMES]
    topic_w = 1.0 / np.arange(1, TOPIC_WORDS + 1, dtype=float) ** 0.8
    topic_w /= topic_w.sum()
    return np.asarray(words), background, topic_ids, topic_w


TOPIC_SHARE = 0.18  # share of a document's tokens drawn from its topics
MULTI_TOPIC_PROB = 0.05
NO_TOPIC_PROB = 0.08


def write_news(out: Path, seed: tuple, docs: int, per_file: int = 1000) -> list[Path]:
    """`reut2-NNN.sgm` files with Zipfian words, topic sizes and lengths."""
    words, background, topic_ids, topic_w = _language()
    rng = np.random.default_rng([*seed, 2])
    sizes = 1.0 / np.arange(1, len(TOPIC_NAMES) + 1, dtype=float) ** 0.9
    sizes /= sizes.sum()
    split_names = np.asarray(["TRAIN", "TEST", "NOT-USED"])
    split = split_names[rng.choice(3, size=docs, p=[0.70, 0.27, 0.03])]
    lengths = np.clip(rng.lognormal(4.6, 0.5, size=docs).astype(int), 20, 600)

    entries = []
    for i in range(docs):
        u = rng.random()
        if u < NO_TOPIC_PROB:
            topics = []
        elif u < NO_TOPIC_PROB + MULTI_TOPIC_PROB:
            topics = list(rng.choice(len(TOPIC_NAMES), size=2, replace=False, p=sizes))
        else:
            topics = [int(rng.choice(len(TOPIC_NAMES), p=sizes))]
        n_tok = int(lengths[i])
        from_topic = rng.random(n_tok) < TOPIC_SHARE if topics else np.zeros(n_tok, bool)
        tok = rng.choice(VOCAB_SIZE, size=n_tok, p=background)
        k = int(from_topic.sum())
        if k:
            owner = np.asarray(topics)[rng.integers(len(topics), size=k)]
            pick = rng.choice(TOPIC_WORDS, size=k, p=topic_w)
            tok[from_topic] = [topic_ids[t][j] for t, j in zip(owner, pick)]
        body = " ".join(words[tok])
        if rng.random() < 0.3:
            a, b = words[tok[:2]] if n_tok > 1 else (words[tok[0]], "inc")
            body = f"&lt;{a.upper()} {b.upper()}&gt; said " + body + " &amp; co"
        topic_xml = "".join(f"<D>{TOPIC_NAMES[t]}</D>" for t in topics)
        entries.append(
            f'<REUTERS TOPICS="{"YES" if topics else "NO"}" '
            f'LEWISSPLIT="{split[i]}" CGISPLIT="TRAINING-SET" '
            f'OLDID="{5000 + i}" NEWID="{i + 1}">\n'
            f"<DATE>26-FEB-1987 15:{i % 60:02d}:00.00</DATE>\n"
            f"<TOPICS>{topic_xml}</TOPICS>\n"
            f"<TEXT>&#2;\n<TITLE>{words[tok[0]].upper()}</TITLE>\n"
            f"<BODY>{body}\n Reuter\n&#3;</BODY></TEXT>\n</REUTERS>\n"
        )
    paths = []
    for f, lo in enumerate(range(0, docs, per_file)):
        path = out / f"reut2-{f:03d}.sgm"
        path.write_text(
            '<!DOCTYPE lewis SYSTEM "lewis.dtd">\n' + "".join(entries[lo : lo + per_file]),
            encoding="latin-1",
        )
        paths.append(path)
    return paths


WRITERS = {"digits": write_digits, "news": write_news, "cv": write_cv}


def main(argv: list[str]) -> int:
    kind, out, *numbers = argv
    seed, draw, *sizes = map(int, numbers)
    files = WRITERS[kind](Path(out), (seed, draw), *sizes)
    print(json.dumps(files, default=str))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

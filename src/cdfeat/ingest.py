"""Dataset ingestion: IDX binary images/labels, sparse text vectors, and the
Reuters-21578 SGML corpus with bag-of-words vectorization.

Parsers are lossless and pure: IDX pixel bytes are kept unscaled, sparse
values land as given, and SGML text is decoded but never re-tokenized here.
"""

from __future__ import annotations

import gzip
import math
import re
import struct
import zlib
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .model import Dataset
from .record import Record
from .svm import integer

IDX_IMAGE_MAGIC = 0x00000803
IDX_LABEL_MAGIC = 0x00000801
# Reuters vocabulary document-frequency threshold and number of topic classes.
DEFAULT_MIN_DF = 3
DEFAULT_TOPICS = 10


class IdxFormatError(ValueError):
    """Malformed IDX container."""


class SparseFormatError(ValueError):
    """Malformed sparse-vector text."""


class SgmlFormatError(ValueError):
    """Malformed corpus SGML."""


@dataclass(frozen=True, eq=False)
class IdxImages(Record):
    """Parsed image file: one row-major pixel vector per image."""

    pixels: np.ndarray  # (count, rows*cols), values 0..255
    rows: int
    cols: int

    ARRAYS = {"pixels": float}


def _maybe_gunzip(data: bytes) -> bytes:
    if data[:2] == b"\x1f\x8b":
        try:
            return gzip.decompress(data)
        except (EOFError, zlib.error, gzip.BadGzipFile) as exc:
            raise IdxFormatError(f"corrupt or truncated gzip stream: {exc}") from exc
    return data


def _idx_payload(data: bytes, magic: int, ndims: int, what: str) -> tuple[list[int], bytes]:
    """The dimensions and the payload bytes of an IDX container of unsigned
    bytes, gunzipped if need be; IdxFormatError for a short header, another
    magic or a payload whose length is not the product of the dimensions."""
    data = _maybe_gunzip(bytes(data))
    need = 4 * (1 + ndims)
    if len(data) < need:
        raise IdxFormatError(f"header truncated: {len(data)} bytes, need {need}")
    found, *dims = struct.unpack(f">{1 + ndims}I", data[:need])
    if found != magic:
        raise IdxFormatError(f"malformed magic 0x{found:08x}, expected 0x{magic:08x}")
    payload, expected = data[need:], math.prod(dims)
    if len(payload) != expected:
        raise IdxFormatError(
            f"truncated payload: expected {expected} {what} bytes, got {len(payload)}"
        )
    return dims, payload


def load_idx_images(data: bytes) -> IdxImages:
    """Parse an IDX image container (magic 0x00000803) into pixel vectors."""
    (count, rows, cols), payload = _idx_payload(data, IDX_IMAGE_MAGIC, 3, "pixel")
    pixels = np.frombuffer(payload, dtype=np.uint8).astype(float)
    return IdxImages(pixels=pixels.reshape(count, rows * cols), rows=rows, cols=cols)


def load_idx_labels(data: bytes) -> list[int]:
    """Parse an IDX label container (magic 0x00000801) into class ids."""
    return list(_idx_payload(data, IDX_LABEL_MAGIC, 1, "label")[1])


def dump_idx_images(images: IdxImages) -> bytes:
    """Re-serialize parsed images; inverse of load_idx_images byte-for-byte."""
    count = images.pixels.shape[0]
    header = struct.pack(">IIII", IDX_IMAGE_MAGIC, count, images.rows, images.cols)
    return header + images.pixels.astype(np.uint8).tobytes()


def dump_idx_labels(labels) -> bytes:
    """Re-serialize labels; inverse of load_idx_labels byte-for-byte."""
    body = bytes(int(v) for v in labels)
    return struct.pack(">II", IDX_LABEL_MAGIC, len(body)) + body


def idx_dataset(images: IdxImages, labels, keep_classes=None) -> Dataset:
    """Pair image vectors with labels into a Dataset with dense class ids.

    `keep_classes` optionally restricts to a subset of the raw labels (for
    example two digits); raw labels become the label-name side table. When
    every row is kept, the dataset holds `images.pixels` itself, not a copy.
    """
    if images.pixels.shape[0] != len(labels):
        raise ValueError(
            f"{images.pixels.shape[0]} images but {len(labels)} labels"
        )
    labels = np.asarray(labels, dtype=np.int64)
    wanted = np.unique(labels if keep_classes is None else np.fromiter(keep_classes, np.int64))
    keep = np.isin(labels, wanted)
    x = images.pixels if keep.all() else images.pixels[keep]
    y = np.searchsorted(wanted, labels[keep])
    return Dataset.from_arrays(x, y, label_names=[str(raw) for raw in wanted.tolist()])


# --- sparse text format ------------------------------------------------------

def load_sparse(text: str, dim: int | None = None) -> Dataset:
    """Parse `<label> <index>:<value> ...` lines (1-based, increasing indices).

    `dim` fixes the vector length; None infers it from the largest index.
    Blank lines and lines starting with `#` are skipped.
    """
    if dim is not None:
        integer("dim", dim, 1)
    rows = []
    max_index = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        try:
            label = float(tokens[0])
        except ValueError:
            raise SparseFormatError(f"line {lineno}: non-numeric token {tokens[0]!r}")
        if not math.isfinite(label):
            raise SparseFormatError(f"line {lineno}: label {tokens[0]!r} is not finite")
        entries = []
        prev = 0
        for tok in tokens[1:]:
            idx_s, _, val_s = tok.partition(":")
            try:
                idx = int(idx_s)
                val = float(val_s)
            except ValueError:
                raise SparseFormatError(f"line {lineno}: non-numeric token {tok!r}")
            if idx < 1:
                raise SparseFormatError(f"line {lineno}: index {idx}; indices are 1-based")
            if idx <= prev:
                raise SparseFormatError(
                    f"line {lineno}: non-increasing index {idx} after {prev}"
                )
            if dim is not None and idx > dim:
                raise SparseFormatError(f"line {lineno}: index {idx} exceeds dimension {dim}")
            if not math.isfinite(val):
                raise SparseFormatError(f"line {lineno}: value in {tok!r} is not finite")
            if val < 0:
                raise SparseFormatError(f"line {lineno}: negative value {val!r}")
            entries.append((idx, val))
            prev = idx
        if entries:
            max_index = max(max_index, entries[-1][0])
        rows.append((label, entries))
    if not rows:
        raise SparseFormatError("no samples")

    n = dim if dim is not None else max_index
    if n < 1:
        raise SparseFormatError("cannot infer a positive dimension")
    x = np.zeros((len(rows), n))
    for r, (_, entries) in enumerate(rows):
        for idx, val in entries:
            x[r, idx - 1] = val

    raw_labels = sorted({label for label, _ in rows})
    remap = {lab: dense for dense, lab in enumerate(raw_labels)}
    y = [remap[label] for label, _ in rows]
    names = [str(int(lab)) if lab == int(lab) else str(lab) for lab in raw_labels]
    return Dataset.from_arrays(x, y, label_names=names)


def dump_sparse(dataset: Dataset) -> str:
    """Inverse of load_sparse for non-negative data; emits non-zero entries."""
    lines = []
    for vec, lab in zip(dataset.samples, dataset.labels):
        vec = np.asarray(vec)
        parts = [dataset.label_names[lab]]
        for i in np.flatnonzero(vec):
            parts.append(f"{i + 1}:{float(vec[i])!r}")
        lines.append(" ".join(parts))
    return "\n".join(lines) + "\n"


# --- Reuters-21578 SGML ------------------------------------------------------

SPLIT_TRAIN = "train"
SPLIT_TEST = "test"
SPLIT_NOT_USED = "not_used"


@dataclass(frozen=True)
class RawDocument:
    """One corpus document with its topics and train/test split tag."""

    doc_id: str
    body_text: str
    topics: tuple
    split_tag: str

    def __post_init__(self):
        if not self.doc_id:
            raise ValueError("doc_id must be non-empty")
        if self.split_tag not in (SPLIT_TRAIN, SPLIT_TEST, SPLIT_NOT_USED):
            raise ValueError(f"unknown split tag {self.split_tag!r}")


_ENTITY_RE = re.compile(r"&(lt|gt|amp|#\d+);")
_ATTR_RE = re.compile(r"([A-Za-z][\w.-]*)\s*=\s*\"([^\"]*)\"")
_OPEN_RE = re.compile(r"<REUTERS\b([^>]*)>")
_TOPICS_RE = re.compile(r"<TOPICS>(.*?)</TOPICS>", re.S)
_D_RE = re.compile(r"<D>(.*?)</D>", re.S)
_BODY_RE = re.compile(r"<BODY>(.*?)</BODY>", re.S)


def _decode_entities(text: str) -> str:
    def sub(match):
        name = match.group(1)
        if name == "lt":
            return "<"
        if name == "gt":
            return ">"
        if name == "amp":
            return "&"
        code = int(name[1:])
        if code > 0x10FFFF:
            raise SgmlFormatError(f"entity &{name}; is beyond U+10FFFF")
        return chr(code)

    return _ENTITY_RE.sub(sub, text)


def parse_reuters_sgml(text: str) -> list[RawDocument]:
    """Extract one RawDocument per REUTERS element of a reut2-NNN.sgm file."""
    docs = []
    for open_match in _OPEN_RE.finditer(text):
        start = open_match.end()
        close = text.find("</REUTERS>", start)
        if close < 0:
            offset = len(text[: open_match.start()].encode("utf-8", "replace"))
            raise SgmlFormatError(f"unclosed REUTERS element at byte offset {offset}")
        attrs = dict(
            (k.upper(), v) for k, v in _ATTR_RE.findall(open_match.group(1))
        )
        if "NEWID" not in attrs:
            raise SgmlFormatError("REUTERS element missing NEWID attribute")
        split_raw = attrs.get("LEWISSPLIT", "").upper()
        split = {
            "TRAIN": SPLIT_TRAIN,
            "TEST": SPLIT_TEST,
        }.get(split_raw, SPLIT_NOT_USED)
        inner = text[start:close]
        topics = []
        topics_match = _TOPICS_RE.search(inner)
        if topics_match:
            topics = [
                _decode_entities(d).strip() for d in _D_RE.findall(topics_match.group(1))
            ]
        body_match = _BODY_RE.search(inner)
        body = _decode_entities(body_match.group(1)) if body_match else ""
        docs.append(
            RawDocument(
                doc_id=attrs["NEWID"],
                body_text=body,
                topics=tuple(topics),
                split_tag=split,
            )
        )
    return docs


def read_sgml_dir(path) -> list[RawDocument]:
    """Parse every reut2-*.sgm file under a directory, in name order."""
    from pathlib import Path

    files = sorted(Path(path).glob("reut2-*.sgm"))
    if not files:
        raise SgmlFormatError(f"no reut2-*.sgm files under {path}")
    docs = []
    for f in files:
        docs.extend(parse_reuters_sgml(f.read_text(encoding="latin-1")))
    return docs


# --- vocabulary and bag-of-words ---------------------------------------------

_TOKEN_RE = re.compile(r"[A-Za-z]+")


@dataclass(frozen=True)
class Vocabulary:
    """Term index fit on the training split."""

    index_to_term: tuple

    def __len__(self) -> int:
        return len(self.index_to_term)

    @cached_property
    def term_to_index(self) -> dict:
        return {term: i for i, term in enumerate(self.index_to_term)}


def tokenize(text: str) -> list[str]:
    """Lowercased maximal ASCII-letter runs of length >= 2."""
    return [t.lower() for t in _TOKEN_RE.findall(text) if len(t) >= 2]


def build_vocabulary(docs, min_df: int = DEFAULT_MIN_DF) -> Vocabulary:
    """Terms with train-split document frequency >= min_df, indexed in term order."""
    if not docs:
        raise ValueError("build_vocabulary needs at least one document")
    integer("min_df", min_df, 1)
    df: dict[str, int] = {}
    for doc in docs:
        if doc.split_tag != SPLIT_TRAIN:
            continue
        for term in set(tokenize(doc.body_text)):
            df[term] = df.get(term, 0) + 1
    kept = sorted(term for term, count in df.items() if count >= min_df)
    return Vocabulary(index_to_term=tuple(kept))


def count_vector(doc: RawDocument, vocab: Vocabulary) -> np.ndarray:
    """Raw in-vocabulary term counts for one document."""
    vec = np.zeros(len(vocab))
    for term in tokenize(doc.body_text):
        idx = vocab.term_to_index.get(term)
        if idx is not None:
            vec[idx] += 1.0
    return vec


def top_topics(docs, k: int = DEFAULT_TOPICS) -> list[str]:
    """The k most frequent topics over train-split documents.

    Ties break lexicographically so the category list is deterministic.
    """
    integer("k", k, 1)
    freq: dict[str, int] = {}
    for doc in docs:
        if doc.split_tag != SPLIT_TRAIN:
            continue
        for topic in set(doc.topics):
            freq[topic] = freq.get(topic, 0) + 1
    ranked = sorted(freq.items(), key=lambda kv: (-kv[1], kv[0]))
    return [topic for topic, _ in ranked[:k]]


@dataclass(frozen=True)
class BowResult:
    dataset: Dataset
    excluded: int  # documents without exactly one topic in the category list


def vectorize_bow(docs, vocab: Vocabulary, categories) -> BowResult:
    """Count-vectorize documents whose topics hit exactly one category.

    Documents matching zero or several categories are excluded and counted.
    The category list order defines the dense class ids.
    """
    if len(vocab) == 0:
        raise ValueError("vocabulary is empty")
    categories = list(categories)
    cat_ids = {topic: i for i, topic in enumerate(categories)}
    rows = []
    labels = []
    excluded = 0
    for doc in docs:
        hits = sorted({t for t in doc.topics if t in cat_ids})
        if len(hits) != 1:
            excluded += 1
            continue
        rows.append(count_vector(doc, vocab))
        labels.append(cat_ids[hits[0]])
    x = np.asarray(rows) if rows else np.empty((0, len(vocab)))
    dataset = Dataset.from_arrays(x, labels, label_names=categories)
    return BowResult(dataset=dataset, excluded=excluded)

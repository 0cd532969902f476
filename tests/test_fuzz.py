"""Seeded fuzz of the model document and of the three data readers.

Model document: each case changes a trained model's document once: it drops
a key, adds a key, or sets a value at depth 1 to 3 to one of `VALUES`.
`model_from_json` must refuse every case it does not load with ValueError and
nothing else, a document it loads must write back the model it read, and
`cdfeat inspect` must turn a refusal into exit 2 with one line on stderr.

Readers: each case mutates the bytes of a valid IDX image or label file
(plain or gzip), sparse text file or Reuters SGML file a few times, then
reads it as far as a dataset. Whatever the reader refuses, it must refuse
with a ValueError subclass, each case must finish within `CASE_BUDGET_S`, and
`cdfeat train` must turn a refusal into exit 1 with one line on stderr.
"""

import gzip
import json
import random
import struct
import time

import numpy as np
import pytest

from cdfeat import ingest
from cdfeat.cli import main
from cdfeat.model import CdfConfig, Dataset, model_from_json, model_to_json
from cdfeat.multiclass import train
from cdfeat.svm import KernelSpec

from conftest import gaussian_blobs

VALUES = (None, True, "x", [], {}, [[1]], 10**400, -1, 0, 1.5, [None], {"a": 1})
CASES = 1500  # per model
CLI_SAMPLE = 20  # refused cases run through `cdfeat inspect`, per model

MODELS = {
    "dual_kl-poly2": (CdfConfig(), KernelSpec("polynomial")),
    "elementwise_kl-rbf": (CdfConfig(feature_mode="elementwise_kl"), KernelSpec("rbf")),
}


def paths(node, depth: int = 3, prefix: tuple = ()):
    """The key path of every value below `node`, `depth` levels deep at most."""
    if depth == 0:
        return
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        yield prefix + (key,)
        if isinstance(value, (dict, list)):
            yield from paths(value, depth - 1, prefix + (key,))


def mutate(doc: dict, rng: random.Random) -> dict:
    """A copy of `doc` with one key dropped, one key added or one value set."""
    every = list(paths(doc))
    doc = json.loads(json.dumps(doc))

    def at(path):
        node = doc
        for key in path:
            node = node[key]
        return node

    op = rng.randrange(3)
    if op == 0:
        path = rng.choice([p for p in every if isinstance(at(p[:-1]), dict)])
        del at(path[:-1])[path[-1]]
    elif op == 1:
        parents = [()] + [p for p in every if len(p) < 3 and isinstance(at(p), dict)]
        at(rng.choice(parents))["extra"] = rng.choice(VALUES)
    else:
        path = rng.choice(every)
        at(path[:-1])[path[-1]] = rng.choice(VALUES)
    return doc


@pytest.mark.parametrize("name", list(MODELS))
def test_model_document_refused_only_with_value_error(name, tmp_path, capsys):
    cfg, kernel = MODELS[name]
    x, y = gaussian_blobs(6, seed=3, dims=8, classes=3)
    doc = json.loads(model_to_json(train(Dataset.from_arrays(x, y), cfg, kernel=kernel)))
    rng = random.Random(5)
    escaped, refused = [], []
    for _ in range(CASES):
        text = json.dumps(mutate(doc, rng))
        try:
            model = model_from_json(text)
        except ValueError:
            refused.append(text)
            continue
        except Exception as exc:  # any other type escapes the loader's contract
            escaped.append(f"{type(exc).__name__}: {exc} in {text[:200]}")
            continue
        assert model_from_json(model_to_json(model)) == model
    assert escaped == []
    assert len(refused) > CASES // 2
    for i, text in enumerate(refused[:: len(refused) // CLI_SAMPLE][:CLI_SAMPLE]):
        path = tmp_path / f"case{i}.json"
        path.write_text(text)
        assert main(["inspect", "--model", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: unreadable model") and err.count("\n") == 1


# --- the data readers ---------------------------------------------------------

READER_CASES = 2000  # per reader and container
CASE_BUDGET_S = 0.5


def mutate_bytes(data: bytes, rng: random.Random) -> bytes:
    """`data` after one to four random edits: a byte set, a byte inserted, a
    run deleted, a run repeated, or the tail cut off."""
    out = bytearray(data)
    for _ in range(rng.randint(1, 4)):
        at = rng.randrange(len(out) + 1)
        op = rng.randrange(5)
        if op == 0 and at < len(out):
            out[at] = rng.choice((0, 1, 0x7F, 0x80, 0xFF, rng.randrange(256)))
        elif op == 1:
            out[at:at] = bytes([rng.randrange(256)])
        elif op == 2:
            del out[at:at + rng.randint(1, 16)]
        elif op == 3:
            out[at:at] = out[at:at + rng.randint(1, 16)]
        else:
            del out[at:]
    return bytes(out)


def _idx_files():
    rng = np.random.default_rng(7)
    labels = rng.integers(0, 3, size=12).astype(np.uint8)
    images = struct.pack(">IIII", ingest.IDX_IMAGE_MAGIC, 12, 3, 2)
    images += rng.integers(0, 256, size=72).astype(np.uint8).tobytes()
    return images, struct.pack(">II", ingest.IDX_LABEL_MAGIC, 12) + labels.tobytes()


IDX_IMAGES, IDX_LABELS = _idx_files()

SPARSE_TEXT = b"""# label index:value ...
0 1:3 4:1.5 7:2
1 2:1 3:0.25
2 5:4e-3 8:12
1 1:1 2:2 3:3 4:4
"""

SGML_TEXT = b"""<!DOCTYPE lewis SYSTEM "lewis.dtd">
<REUTERS TOPICS="YES" LEWISSPLIT="TRAIN" CGISPLIT="TRAINING-SET" OLDID="1" NEWID="1">
<TOPICS><D>earn</D></TOPICS>
<TEXT><TITLE>ONE</TITLE><BODY>net profit rose &amp; shares rose &#38; net</BODY></TEXT>
</REUTERS>
<REUTERS TOPICS="YES" LEWISSPLIT="TRAIN" CGISPLIT="TRAINING-SET" OLDID="2" NEWID="2">
<TOPICS><D>grain</D><D>earn</D></TOPICS>
<TEXT><BODY>wheat crop &lt;fell&gt; net profit</BODY></TEXT>
</REUTERS>
<REUTERS TOPICS="YES" LEWISSPLIT="TEST" CGISPLIT="TRAINING-SET" OLDID="3" NEWID="3">
<TOPICS><D>grain</D></TOPICS>
<TEXT><BODY>wheat rose net shares</BODY></TEXT>
</REUTERS>
"""


def idx_args(tmp_path, images: bytes, labels: bytes) -> list:
    (tmp_path / "images").write_bytes(images)
    (tmp_path / "labels").write_bytes(labels)
    return ["--format", "idx", "--images", str(tmp_path / "images"),
            "--labels", str(tmp_path / "labels")]


def sparse_args(tmp_path, data: bytes) -> list:
    (tmp_path / "data.txt").write_bytes(data)
    return ["--format", "sparse", "--data", str(tmp_path / "data.txt"), "--dim", "8"]


def sgml_args(tmp_path, data: bytes) -> list:
    (tmp_path / "reut2-000.sgm").write_bytes(data)
    return ["--format", "reuters", "--sgml-dir", str(tmp_path), "--min-df", "1",
            "--topics", "2"]


def read_idx(images: bytes, labels: bytes) -> Dataset:
    return ingest.idx_dataset(ingest.load_idx_images(images), ingest.load_idx_labels(labels))


def read_sgml(data: bytes) -> Dataset:
    # read_sgml_dir decodes each file as latin-1, which maps every byte.
    docs = ingest.parse_reuters_sgml(data.decode("latin-1"))
    vocab = ingest.build_vocabulary(docs, min_df=1)
    return ingest.vectorize_bow(docs, vocab, ingest.top_topics(docs, k=2)).dataset


# reader -> (the library's read of a file's bytes, the valid file, the
# `cdfeat train` arguments that read those bytes from a file in a directory).
# dim is always given: without it a large index sizes the dense matrix.
READERS = {
    "idx-images": (lambda b: read_idx(b, IDX_LABELS), IDX_IMAGES,
                   lambda tmp, b: idx_args(tmp, b, IDX_LABELS)),
    "idx-labels": (lambda b: read_idx(IDX_IMAGES, b), IDX_LABELS,
                   lambda tmp, b: idx_args(tmp, IDX_IMAGES, b)),
    "sparse": (lambda b: ingest.load_sparse(b.decode("latin-1"), dim=8), SPARSE_TEXT,
               sparse_args),
    "sgml": (read_sgml, SGML_TEXT, sgml_args),
}


@pytest.mark.parametrize("reader, container", [
    ("idx-images", "plain"), ("idx-images", "gzip"), ("idx-labels", "plain"),
    ("idx-labels", "gzip"), ("sparse", "plain"), ("sgml", "plain"),
])
def test_reader_refuses_only_with_value_error(reader, container, tmp_path, capsys):
    read, data, cli_args = READERS[reader]
    if container == "gzip":
        data = gzip.compress(data, mtime=0)
    assert isinstance(read(data), Dataset)
    rng = random.Random(f"{reader}-{container}")
    escaped, slow, refused = [], [], []
    for _ in range(READER_CASES):
        case = mutate_bytes(data, rng)
        start = time.perf_counter()
        try:
            read(case)
        except ValueError:
            refused.append(case)
        except Exception as exc:  # any other type escapes the readers' contract
            escaped.append(f"{type(exc).__name__}: {exc} in {case[:120]!r}")
        if time.perf_counter() - start > CASE_BUDGET_S:
            slow.append(case[:120])
    assert escaped == []
    assert slow == []
    assert len(refused) > READER_CASES // 10
    for case in refused[:: len(refused) // CLI_SAMPLE][:CLI_SAMPLE]:
        model = tmp_path / "model.json"
        assert main(["train", *cli_args(tmp_path, case), "--model", str(model)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert not model.exists()

import gzip
import struct

import numpy as np
import pytest

from cdfeat.ingest import (
    IDX_IMAGE_MAGIC,
    IDX_LABEL_MAGIC,
    BowResult,
    IdxFormatError,
    IdxImages,
    RawDocument,
    SgmlFormatError,
    SparseFormatError,
    build_vocabulary,
    count_vector,
    dump_idx_images,
    dump_idx_labels,
    dump_sparse,
    idx_dataset,
    load_idx_images,
    load_idx_labels,
    load_sparse,
    parse_reuters_sgml,
    tokenize,
    top_topics,
    vectorize_bow,
)
from cdfeat.model import validate_dataset

from conftest import mnist_files, needs_mnist, needs_reuters, reuters_dir


def image_bytes(count, rows, cols, payload):
    return struct.pack(">IIII", IDX_IMAGE_MAGIC, count, rows, cols) + bytes(payload)


def label_bytes(values):
    return struct.pack(">II", IDX_LABEL_MAGIC, len(values)) + bytes(values)


# A gzip body cut short (EOFError), with a wrong CRC (gzip.BadGzipFile) and
# with an invalid deflate block (zlib.error).
GZIP_DAMAGE = {
    "truncated": lambda z: z[:-4],
    "bad_crc": lambda z: z[:-8] + bytes([z[-8] ^ 1]) + z[-7:],
    "bad_block": lambda z: z[:10] + b"\xff" * 20,
}


class TestIdxImages:
    def test_direct_layout(self):
        data = image_bytes(2, 2, 2, [0, 255, 1, 2, 3, 4, 5, 6])
        images = load_idx_images(data)
        np.testing.assert_array_equal(images.pixels, [[0, 255, 1, 2], [3, 4, 5, 6]])
        assert images.rows == 2 and images.cols == 2

    def test_truncated_payload_reports_counts(self):
        data = image_bytes(2, 2, 2, [0] * 7)
        with pytest.raises(IdxFormatError, match="expected 8 pixel bytes, got 7"):
            load_idx_images(data)

    @pytest.mark.parametrize("data, message", [
        (b"", "header truncated: 0 bytes, need 16"),
        (image_bytes(1, 1, 1, [0])[:15], "header truncated: 15 bytes, need 16"),
        (gzip.compress(image_bytes(1, 1, 1, [0])[:12]), "header truncated: 12 bytes, need 16"),
        (image_bytes(2, 2, 2, [0] * 7), "truncated payload: expected 8 pixel bytes, got 7"),
        (image_bytes(2, 2, 2, [0] * 9), "truncated payload: expected 8 pixel bytes, got 9"),
        (struct.pack(">IIII", IDX_LABEL_MAGIC, 1, 1, 1) + b"\x00",
         "malformed magic 0x00000801, expected 0x00000803"),
    ], ids=["empty", "short-header", "gzip-short-header", "short-payload", "long-payload",
            "label-magic"])
    def test_format_error_messages(self, data, message):
        with pytest.raises(IdxFormatError) as exc:
            load_idx_images(data)
        assert str(exc.value) == message

    def test_malformed_magic(self):
        data = struct.pack(">IIII", 0x00000801, 1, 1, 1) + b"\x00"
        with pytest.raises(IdxFormatError, match="malformed magic"):
            load_idx_images(data)

    def test_round_trip_bytes(self):
        rng = np.random.default_rng(71)
        for _ in range(50):
            count = int(rng.integers(0, 5))
            rows = int(rng.integers(1, 6))
            cols = int(rng.integers(1, 6))
            payload = rng.integers(0, 256, size=count * rows * cols)
            data = image_bytes(count, rows, cols, payload.tolist())
            assert dump_idx_images(load_idx_images(data)) == data

    def test_gzip_transparent(self):
        data = image_bytes(1, 1, 2, [9, 8])
        images = load_idx_images(gzip.compress(data))
        np.testing.assert_array_equal(images.pixels, [[9, 8]])

    @pytest.mark.parametrize("damage", GZIP_DAMAGE)
    def test_damaged_gzip_is_a_format_error(self, damage):
        data = GZIP_DAMAGE[damage](gzip.compress(image_bytes(1, 1, 2, [9, 8])))
        with pytest.raises(IdxFormatError, match="gzip"):
            load_idx_images(data)

    @needs_mnist
    def test_official_train_file_counts(self):
        files = mnist_files()
        images = load_idx_images(files["train_images"].read_bytes())
        assert images.pixels.shape == (60000, 784)
        labels = load_idx_labels(files["train_labels"].read_bytes())
        assert len(labels) == 60000
        assert set(labels) == set(range(10))


class TestIdxLabels:
    def test_direct_layout(self):
        assert load_idx_labels(label_bytes([7, 0, 9])) == [7, 0, 9]

    @pytest.mark.parametrize("data, message", [
        (b"", "header truncated: 0 bytes, need 8"),
        (label_bytes([1])[:7], "header truncated: 7 bytes, need 8"),
        (gzip.compress(label_bytes([1])[:4]), "header truncated: 4 bytes, need 8"),
        (label_bytes([1, 2, 3])[:-1], "truncated payload: expected 3 label bytes, got 2"),
        (label_bytes([1, 2]) + b"\x00", "truncated payload: expected 2 label bytes, got 3"),
        (image_bytes(1, 1, 1, [0]), "malformed magic 0x00000803, expected 0x00000801"),
    ], ids=["empty", "short-header", "gzip-short-header", "short-payload", "long-payload",
            "image-magic"])
    def test_format_error_messages(self, data, message):
        with pytest.raises(IdxFormatError) as exc:
            load_idx_labels(data)
        assert str(exc.value) == message

    def test_image_magic_rejected(self):
        data = struct.pack(">II", IDX_IMAGE_MAGIC, 1) + b"\x00"
        with pytest.raises(IdxFormatError, match="malformed magic"):
            load_idx_labels(data)

    def test_truncated(self):
        data = struct.pack(">II", IDX_LABEL_MAGIC, 3) + b"\x00\x01"
        with pytest.raises(IdxFormatError, match="expected 3 label bytes, got 2"):
            load_idx_labels(data)

    @pytest.mark.parametrize("damage", GZIP_DAMAGE)
    def test_damaged_gzip_is_a_format_error(self, damage):
        data = GZIP_DAMAGE[damage](gzip.compress(label_bytes([7, 0, 9])))
        with pytest.raises(IdxFormatError, match="gzip"):
            load_idx_labels(data)

    def test_round_trip(self):
        data = label_bytes([1, 2, 3, 200])
        assert dump_idx_labels(load_idx_labels(data)) == data


class TestIdxDataset:
    def test_dense_ids_and_side_table(self):
        images = load_idx_images(image_bytes(3, 1, 2, [1, 2, 3, 4, 5, 6]))
        ds = idx_dataset(images, [7, 3, 7])
        assert ds.num_classes == 2
        assert ds.label_names == ("3", "7")
        assert list(ds.labels) == [1, 0, 1]
        assert validate_dataset(ds) == []

    def test_class_filter(self):
        images = load_idx_images(image_bytes(3, 1, 1, [10, 20, 30]))
        ds = idx_dataset(images, [0, 1, 2], keep_classes=[0, 2])
        assert len(ds) == 2
        assert ds.label_names == ("0", "2")
        assert list(ds.labels) == [0, 1]
        np.testing.assert_array_equal(ds.samples, [[10.0], [30.0]])
        assert not np.shares_memory(ds.samples, images.pixels)

    def test_matches_the_per_row_remap(self):
        # The per-row loops that idx_dataset's numpy remap replaced.
        rng = np.random.default_rng(3)
        for case in range(20):
            labels = rng.integers(0, 10, size=30).tolist()
            keep = None if case % 2 else rng.choice(10, size=4, replace=False).tolist()
            wanted = sorted(set(labels) if keep is None else set(keep))
            remap = {raw: dense for dense, raw in enumerate(wanted)}
            rows = [i for i, lab in enumerate(labels) if lab in remap]
            pixels = rng.integers(0, 256, size=(30, 4)).astype(float)
            ds = idx_dataset(IdxImages(pixels, 2, 2), labels, keep_classes=keep)
            assert ds.label_names == tuple(str(raw) for raw in wanted)
            assert ds.labels.tolist() == [remap[labels[i]] for i in rows]
            np.testing.assert_array_equal(ds.samples, pixels[rows])

    def test_no_copy_when_every_row_is_kept(self):
        images = load_idx_images(image_bytes(4, 1, 2, [1, 2, 3, 4, 5, 6, 7, 8]))
        for keep in (None, [7, 3]):
            ds = idx_dataset(images, [7, 3, 7, 3], keep_classes=keep)
            assert np.shares_memory(ds.samples, images.pixels)
            assert list(ds.labels) == [1, 0, 1, 0] and ds.label_names == ("3", "7")

    def test_kept_label_without_images_is_named(self):
        # Named by its raw label, not later as an empty dense class.
        images = load_idx_images(image_bytes(4, 1, 2, [1, 2, 3, 4, 5, 6, 7, 8]))
        with pytest.raises(ValueError, match=r"^no image has label 9$"):
            idx_dataset(images, [7, 1, 7, 1], keep_classes=[1, 9])
        with pytest.raises(ValueError, match=r"^no image has label 0, 9$"):
            idx_dataset(images, [7, 1, 7, 1], keep_classes=[9, 7, 0])


class TestSparse:
    def test_auto_dimension(self):
        ds = load_sparse("1 1:0.5 3:2.0\n0 2:1.0")
        assert ds.dim == 3
        assert len(ds) == 2
        np.testing.assert_array_equal(ds.samples[0], [0.5, 0.0, 2.0])
        np.testing.assert_array_equal(ds.samples[1], [0.0, 1.0, 0.0])
        # labels sorted numerically: "0" -> 0, "1" -> 1
        assert list(ds.labels) == [1, 0]
        assert ds.label_names == ("0", "1")

    def test_empty_input(self):
        with pytest.raises(SparseFormatError, match="no samples"):
            load_sparse("")

    def test_non_increasing_index(self):
        with pytest.raises(SparseFormatError, match="non-increasing"):
            load_sparse("1 3:1 2:1")

    def test_negative_value(self):
        with pytest.raises(SparseFormatError, match="negative"):
            load_sparse("1 1:-2.0")

    @pytest.mark.parametrize("label", ["nan", "inf", "-inf", "NaN"])
    def test_label_not_finite(self, label):
        # Two "nan" rows would otherwise become two classes, both named nan.
        with pytest.raises(SparseFormatError, match=f"line 2: label '{label}' is not finite"):
            load_sparse(f"1 1:1\n{label} 1:1\n{label} 2:1\n")

    @pytest.mark.parametrize("token", ["1:nan", "1:inf", "1:-inf"])
    def test_value_not_finite(self, token):
        with pytest.raises(SparseFormatError, match=f"line 3: value in '{token}' is not finite"):
            load_sparse(f"1 1:1\n# note\n0 {token} 2:1\n")

    @pytest.mark.parametrize("index", ["0", "-2"])
    def test_index_below_one(self, index):
        with pytest.raises(SparseFormatError, match=f"line 1: index {index}; indices are 1-based"):
            load_sparse(f"1 {index}:1 3:1\n")

    def test_non_numeric_tokens(self):
        with pytest.raises(SparseFormatError, match="non-numeric"):
            load_sparse("x 1:1.0")
        with pytest.raises(SparseFormatError, match="non-numeric"):
            load_sparse("1 a:b")

    def test_comments_and_blank_lines_skipped(self):
        ds = load_sparse("# header\n\n2 1:1.0\n# trailing\n5 2:3.0\n")
        assert len(ds) == 2
        assert ds.label_names == ("2", "5")

    def test_explicit_dim(self):
        ds = load_sparse("0 1:1.0\n1 2:1.0", dim=5)
        assert ds.dim == 5

    @pytest.mark.parametrize("dim", [0, 2.5, True])
    def test_dim_must_be_an_integer_of_at_least_one(self, dim):
        with pytest.raises(ValueError, match="dim must be an integer >= 1"):
            load_sparse("1 1:1\n2 2:1\n", dim=dim)

    def test_index_beyond_dim(self):
        with pytest.raises(SparseFormatError, match="exceeds"):
            load_sparse("0 4:1.0\n1 1:2.0", dim=3)

    def test_index_beyond_dim_names_its_line(self):
        with pytest.raises(SparseFormatError) as exc:
            load_sparse("1 1:1\n2 5:2\n", dim=3)
        assert str(exc.value) == "line 2: index 5 exceeds dimension 3"

    def test_dump_round_trip(self):
        text = "1 1:0.5 3:2.0\n0 2:1.0"
        ds = load_sparse(text)
        again = load_sparse(dump_sparse(ds))
        assert again == ds


MINIMAL_SGML = """<!DOCTYPE lewis SYSTEM "lewis.dtd">
<REUTERS TOPICS="YES" LEWISSPLIT="TRAIN" CGISPLIT="TRAINING-SET" OLDID="5544" NEWID="1">
<DATE>26-FEB-1987 15:01:01.79</DATE>
<TOPICS><D>earn</D></TOPICS>
<TEXT>
<TITLE>EXAMPLE</TITLE>
<BODY>net profit rose</BODY>
</TEXT>
</REUTERS>
"""


class TestReutersSgml:
    def test_minimal_document(self):
        docs = parse_reuters_sgml(MINIMAL_SGML)
        assert len(docs) == 1
        doc = docs[0]
        assert doc.doc_id == "1"
        assert doc.split_tag == "train"
        assert doc.topics == ("earn",)
        assert doc.body_text == "net profit rose"

    def test_attribute_order_insensitive(self):
        base = parse_reuters_sgml(MINIMAL_SGML)
        permuted = MINIMAL_SGML.replace(
            '<REUTERS TOPICS="YES" LEWISSPLIT="TRAIN" CGISPLIT="TRAINING-SET" OLDID="5544" NEWID="1">',
            '<REUTERS NEWID="1" OLDID="5544" CGISPLIT="TRAINING-SET" LEWISSPLIT="TRAIN" TOPICS="YES">',
        )
        assert parse_reuters_sgml(permuted) == base

    def test_empty_topics(self):
        text = MINIMAL_SGML.replace("<TOPICS><D>earn</D></TOPICS>", "<TOPICS></TOPICS>")
        assert parse_reuters_sgml(text)[0].topics == ()

    def test_multiple_topics(self):
        text = MINIMAL_SGML.replace(
            "<TOPICS><D>earn</D></TOPICS>", "<TOPICS><D>earn</D><D>acq</D></TOPICS>"
        )
        assert parse_reuters_sgml(text)[0].topics == ("earn", "acq")

    def test_missing_body_is_empty(self):
        text = MINIMAL_SGML.replace("<BODY>net profit rose</BODY>", "")
        assert parse_reuters_sgml(text)[0].body_text == ""

    def test_entity_decoding(self):
        text = MINIMAL_SGML.replace(
            "net profit rose", "a &lt;b&gt; c &amp;d &#65;"
        )
        assert parse_reuters_sgml(text)[0].body_text == "a <b> c &d A"

    @pytest.mark.parametrize("entity", ["&#1114112;", "&#99999999999999999999;"])
    def test_entity_beyond_unicode(self, entity):
        # chr() raised a bare ValueError for the first and OverflowError for the second.
        text = MINIMAL_SGML.replace("net profit rose", f"net {entity} rose")
        with pytest.raises(SgmlFormatError, match=f"entity {entity} is beyond U\\+10FFFF"):
            parse_reuters_sgml(text)
        last = MINIMAL_SGML.replace("net profit rose", "&#1114111;")
        assert parse_reuters_sgml(last)[0].body_text == "\U0010ffff"

    def test_split_tags(self):
        for raw, want in (("TRAIN", "train"), ("TEST", "test"), ("NOT-USED", "not_used")):
            text = MINIMAL_SGML.replace('LEWISSPLIT="TRAIN"', f'LEWISSPLIT="{raw}"')
            assert parse_reuters_sgml(text)[0].split_tag == want

    def test_unclosed_element_reports_offset(self):
        text = MINIMAL_SGML.replace("</REUTERS>", "")
        with pytest.raises(SgmlFormatError, match="byte offset"):
            parse_reuters_sgml(text)

    def test_missing_newid(self):
        text = MINIMAL_SGML.replace(' NEWID="1"', "")
        with pytest.raises(SgmlFormatError, match="NEWID"):
            parse_reuters_sgml(text)

    @needs_reuters
    def test_full_corpus_count(self):
        from cdfeat.ingest import read_sgml_dir

        docs = read_sgml_dir(reuters_dir())
        assert len(docs) == 21578


def doc(body, topics=("earn",), split="train", doc_id=None):
    return RawDocument(
        doc_id=doc_id or f"doc-{abs(hash((body, topics, split)))}",
        body_text=body,
        topics=tuple(topics),
        split_tag=split,
    )


class TestVocabulary:
    def test_min_df_one(self):
        vocab = build_vocabulary(
            [doc("Net profit rose", doc_id="1"), doc("profit fell", doc_id="2")],
            min_df=1,
        )
        assert vocab.index_to_term == ("fell", "net", "profit", "rose")
        assert vocab.term_to_index == {"fell": 0, "net": 1, "profit": 2, "rose": 3}

    def test_min_df_two(self):
        vocab = build_vocabulary(
            [doc("Net profit rose", doc_id="1"), doc("profit fell", doc_id="2")],
            min_df=2,
        )
        assert vocab.index_to_term == ("profit",)

    def test_all_tokens_filtered(self):
        vocab = build_vocabulary([doc("a I 42 %", doc_id="1")], min_df=1)
        assert len(vocab) == 0

    def test_df_taken_over_train_only(self):
        docs = [
            doc("profit profit", doc_id="1", split="train"),
            doc("profit loss", doc_id="2", split="test"),
        ]
        vocab = build_vocabulary(docs, min_df=1)
        assert vocab.index_to_term == ("profit",)
        # One train document holds "profit" (twice): a document frequency of 1.
        assert len(build_vocabulary(docs, min_df=2)) == 0

    @pytest.mark.parametrize("min_df", [0, 1.5, True])
    def test_min_df_must_be_an_integer_of_at_least_one(self, min_df):
        with pytest.raises(ValueError, match="min_df must be an integer >= 1"):
            build_vocabulary([doc("profit", doc_id="1")], min_df=min_df)

    def test_tokenizer_rules(self):
        assert tokenize("Ab1cd EF-gh i") == ["ab", "cd", "ef", "gh"]


class TestVectorizeBow:
    def _vocab(self):
        return build_vocabulary(
            [doc("fell net profit rose", doc_id="1")], min_df=1
        )

    def test_direct_counting(self):
        vocab = self._vocab()
        vec = count_vector(doc("profit profit rose", doc_id="9"), vocab)
        np.testing.assert_array_equal(vec, [0, 0, 2, 1])

    def test_no_vocab_terms_zero_vector(self):
        vocab = self._vocab()
        result = vectorize_bow([doc("xyzzy quux", doc_id="9")], vocab, ["earn"])
        np.testing.assert_array_equal(result.dataset.samples[0], np.zeros(4))
        assert result.excluded == 0

    def test_two_docs_two_topics(self):
        vocab = self._vocab()
        result = vectorize_bow(
            [
                doc("net profit", topics=("earn",), doc_id="1"),
                doc("profit fell", topics=("acq",), doc_id="2"),
            ],
            vocab,
            ["earn", "acq"],
        )
        ds = result.dataset
        assert ds.num_classes == 2
        np.testing.assert_array_equal(ds.labels, [0, 1])

    def test_multi_topic_doc_excluded_and_counted(self):
        vocab = self._vocab()
        result = vectorize_bow(
            [
                doc("net profit", topics=("earn", "acq"), doc_id="1"),
                doc("profit", topics=("earn",), doc_id="2"),
                doc("fell", topics=("grain",), doc_id="3"),
            ],
            vocab,
            ["earn", "acq"],
        )
        assert result.excluded == 2
        assert len(result.dataset) == 1

    def test_vector_sum_counts_in_vocab_tokens(self):
        rng = np.random.default_rng(83)
        words = ["alpha", "beta", "gamma", "delta", "zz"]
        train_docs = [
            doc(" ".join(rng.choice(words, size=8)), doc_id=str(i))
            for i in range(6)
        ]
        vocab = build_vocabulary(train_docs, min_df=1)
        for i in range(30):
            body = " ".join(rng.choice(words + ["q7", "-"], size=12))
            d = doc(body, doc_id=f"t{i}")
            vec = count_vector(d, vocab)
            in_vocab = sum(1 for t in tokenize(body) if t in vocab.term_to_index)
            assert int(np.sum(vec)) == in_vocab


class TestTopTopics:
    def test_frequency_then_name_order(self):
        docs = [
            doc("a", topics=("earn",), doc_id="1"),
            doc("b", topics=("earn",), doc_id="2"),
            doc("c", topics=("acq",), doc_id="3"),
            doc("d", topics=("grain",), doc_id="4"),
            doc("e", topics=("acq", "grain"), doc_id="5", split="test"),
        ]
        assert top_topics(docs, k=2) == ["earn", "acq"]

    def test_train_split_only(self):
        docs = [
            doc("a", topics=("earn",), doc_id="1", split="test"),
            doc("b", topics=("acq",), doc_id="2"),
        ]
        assert top_topics(docs, k=5) == ["acq"]

    @pytest.mark.parametrize("k", [0, -1])
    def test_k_below_one_refused(self, k):
        docs = [
            doc("a", topics=("earn",), doc_id="1"),
            doc("b", topics=("acq",), doc_id="2"),
            doc("c", topics=("acq",), doc_id="3"),
        ]
        with pytest.raises(ValueError, match="k must be an integer >= 1"):
            top_topics(docs, k=k)

    @pytest.mark.parametrize("k", [2.5, True, "3"])
    def test_k_must_be_an_integer(self, k):
        with pytest.raises(ValueError, match="k must be an integer >= 1"):
            top_topics([doc("a", topics=("earn",), doc_id="1")], k=k)

"""Forest cache format v3/v4: checksums, corruption errors, migration."""

import os

import numpy as np
import pytest

from repro.forest.io import (
    _CHECKSUMMED,
    _CHECKSUMMED_V4,
    _FORMAT_VERSION,
    ForestIntegrityError,
    load_forest,
    save_forest,
)
from repro.layout.codec import PRECISIONS
from repro.utils.validation import array_crc32

V3_FIXTURE = os.path.join(os.path.dirname(__file__), "data", "forest_v3.npz")


@pytest.fixture()
def saved(tmp_path, trained_small):
    clf, *_ = trained_small
    path = str(tmp_path / "forest.npz")
    save_forest(path, clf)
    return path, clf


class TestV4Format:
    def test_roundtrip(self, saved, trained_small):
        path, clf = saved
        _, _, _, Xte, _ = trained_small
        loaded = load_forest(path)
        assert loaded.n_classes_ == clf.n_classes_
        assert np.array_equal(loaded.predict(Xte), clf.predict(Xte))

    def test_file_carries_version_and_checksums(self, saved):
        path, _ = saved
        with np.load(path) as data:
            assert int(data["version"]) == _FORMAT_VERSION == 4
            crcs = data["array_checksums"]
            assert crcs.dtype == np.uint32
            assert crcs.shape == (len(_CHECKSUMMED_V4),)
            for name, crc in zip(_CHECKSUMMED_V4, crcs):
                assert array_crc32(data[name]) == int(crc)

    def test_float32_file_stores_raw_thresholds(self, saved, trained_small):
        path, clf = saved
        expected = np.concatenate([t.threshold for t in clf.trees_])
        with np.load(path) as data:
            assert str(data["codec"]) == "float32"
            np.testing.assert_array_equal(data["threshold"], expected)
            assert data["threshold_scale"].size == 0


def _resave(path, mutate):
    """Rewrite the npz with ``mutate(payload)`` applied to its raw arrays."""
    with np.load(path) as data:
        payload = {name: data[name] for name in data.files}
    mutate(payload)
    np.savez_compressed(path[: -len(".npz")], **payload)


class TestCorruptionErrors:
    def test_truncated_file(self, saved):
        path, _ = saved
        size = __import__("os").path.getsize(path)
        with open(path, "r+b") as f:
            f.truncate(size // 2)
        with pytest.raises(ForestIntegrityError, match="corrupt"):
            load_forest(path)

    def test_not_an_archive(self, tmp_path):
        path = tmp_path / "junk.npz"
        path.write_bytes(b"this is not a zip file, not even close")
        with pytest.raises(ForestIntegrityError):
            load_forest(str(path))

    def test_missing_array(self, saved):
        path, _ = saved
        _resave(path, lambda p: p.pop("feature"))
        with pytest.raises(ForestIntegrityError):
            load_forest(path)

    @pytest.mark.parametrize("name", _CHECKSUMMED_V4)
    def test_stale_checksums_name_the_array(self, tmp_path, trained_small, name):
        """Payload altered but checksum table untouched -> named mismatch.

        An int8 file, so the calibration tables are non-empty too; one
        flipped bit in ``name`` must fail its CRC and name only it.
        """
        clf, *_ = trained_small
        path = str(tmp_path / "forest.npz")
        save_forest(path, clf, codec="int8")

        def flip_one_bit(p):
            p[name] = p[name].copy()
            p[name].view(np.uint8)[0] ^= 1

        _resave(path, flip_one_bit)
        with pytest.raises(ForestIntegrityError, match=rf"array\(s\): {name} —"):
            load_forest(path)

    def test_wrong_checksum_table_length(self, saved):
        path, _ = saved
        _resave(
            path,
            lambda p: p.update(
                array_checksums=np.zeros(2, dtype=np.uint32)
            ),
        )
        with pytest.raises(ForestIntegrityError, match="checksum table"):
            load_forest(path)

    def test_unsupported_version(self, saved):
        path, _ = saved
        _resave(path, lambda p: p.update(version=np.int64(99)))
        with pytest.raises(ForestIntegrityError, match="version"):
            load_forest(path)

    def test_integrity_error_is_a_value_error(self):
        assert issubclass(ForestIntegrityError, ValueError)

    def test_missing_file_still_file_not_found(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_forest(str(tmp_path / "nope.npz"))


def _reads_per_array(monkeypatch, path):
    """``{name: times read}`` of the ``.npz`` members during one load."""
    reads = {}
    real = np.lib.npyio.NpzFile.__getitem__

    def spy(self, key):
        reads[key] = reads.get(key, 0) + 1
        return real(self, key)

    monkeypatch.setattr(np.lib.npyio.NpzFile, "__getitem__", spy)
    load_forest(path)
    monkeypatch.undo()
    return reads


class TestReadOnce:
    """``load_forest`` decompresses each stored array exactly once: the
    checksums are taken on the arrays the decoder then uses."""

    @pytest.mark.parametrize("codec", PRECISIONS)
    def test_v4_every_codec(self, tmp_path, trained_small, monkeypatch, codec):
        clf, *_ = trained_small
        path = str(tmp_path / "forest.npz")
        save_forest(path, clf, codec=codec)
        with np.load(path) as data:
            stored = dict.fromkeys(data.files, 1)
        assert _reads_per_array(monkeypatch, path) == stored

    @pytest.mark.parametrize("version", (1, 2))
    def test_pre_checksum_versions(self, saved, monkeypatch, version):
        path, _ = saved

        def downgrade(p):
            v4_only = ("array_checksums", "array_codecs", "codec")
            for name in v4_only + ("threshold_scale", "threshold_offset"):
                p.pop(name)
            if version == 1:
                p.pop("n_samples")
            p["version"] = np.int64(version)

        _resave(path, downgrade)
        with np.load(path) as data:
            stored = dict.fromkeys(data.files, 1)
        assert _reads_per_array(monkeypatch, path) == stored

    def test_checked_in_v3_file(self, monkeypatch):
        with np.load(V3_FIXTURE) as data:
            # ``prediction_crc`` is the fixture's own pin, not forest data.
            stored = dict.fromkeys(set(data.files) - {"prediction_crc"}, 1)
        assert _reads_per_array(monkeypatch, V3_FIXTURE) == stored


class TestBackCompat:
    def test_v2_files_load_without_checksums(self, saved, trained_small):
        path, clf = saved
        _, _, _, Xte, _ = trained_small

        def to_v2(p):
            p.pop("array_checksums")
            p["version"] = np.int64(2)

        _resave(path, to_v2)
        loaded = load_forest(path)
        assert np.array_equal(loaded.predict(Xte), clf.predict(Xte))
        assert loaded.trees_[0].n_samples is not None

    def test_v1_files_load_without_n_samples(self, saved, trained_small):
        path, clf = saved
        _, _, _, Xte, _ = trained_small

        def to_v1(p):
            p.pop("array_checksums")
            p.pop("n_samples")
            p["version"] = np.int64(1)

        _resave(path, to_v1)
        loaded = load_forest(path)
        assert np.array_equal(loaded.predict(Xte), clf.predict(Xte))
        assert loaded.trees_[0].n_samples is None

    def test_v2_corruption_still_caught_by_zip_layer(self, saved):
        """Pre-checksum formats still get the clear error on bit rot."""
        path, _ = saved

        def to_v2(p):
            p.pop("array_checksums")
            p["version"] = np.int64(2)

        _resave(path, to_v2)
        from repro.reliability.faults import FaultPlan

        FaultPlan(seed=8).corrupt_file(path, mode="flip", n_bytes=16)
        with pytest.raises((ForestIntegrityError,)):
            load_forest(path)


class TestV4Migration:
    """Satellite: codec round-trips, tamper rejection, v3 byte-for-byte."""

    @pytest.mark.parametrize("codec", PRECISIONS)
    def test_roundtrip_every_codec(self, tmp_path, trained_small, codec):
        clf, _, _, Xte, _ = trained_small
        path = str(tmp_path / f"forest_{codec}.npz")
        save_forest(path, clf, codec=codec)
        loaded = load_forest(path)
        assert loaded.codec_ == codec
        # Quantized thresholds move predictions on at most a sliver of rows.
        agree = float(np.mean(loaded.predict(Xte) == clf.predict(Xte)))
        assert agree >= 0.98

    @pytest.mark.parametrize("codec", ("int8", "packed"))
    def test_decode_is_stable_across_resave(self, tmp_path, trained_small, codec):
        """decode(encode(x)) is a fixed point: saving a loaded forest
        again must not drift the thresholds further."""
        clf, *_ = trained_small
        p1 = str(tmp_path / "a.npz")
        p2 = str(tmp_path / "b.npz")
        save_forest(p1, clf, codec=codec)
        once = load_forest(p1)
        save_forest(p2, once, codec="float32")
        twice = load_forest(p2)
        for ta, tb in zip(once.trees_, twice.trees_):
            np.testing.assert_array_equal(ta.threshold, tb.threshold)

    def test_quantized_file_stores_codes_and_calibration(
        self, tmp_path, trained_small
    ):
        clf, *_ = trained_small
        path = str(tmp_path / "forest.npz")
        save_forest(path, clf, codec="int8")
        with np.load(path) as data:
            assert str(data["codec"]) == "int8"
            assert data["threshold"].dtype == np.int8
            assert data["threshold_scale"].shape == (clf.n_features_,)
            assert data["threshold_offset"].dtype == np.float32
            tags = [str(t) for t in data["array_codecs"]]
            assert tags[_CHECKSUMMED_V4.index("threshold")] == "int8"

    def test_tampered_calibration_rejected(self, tmp_path, trained_small):
        clf, *_ = trained_small
        path = str(tmp_path / "forest.npz")
        save_forest(path, clf, codec="int8")

        def stretch_scale(p):
            p["threshold_scale"] = p["threshold_scale"] * np.float32(2.0)

        _resave(path, stretch_scale)
        with pytest.raises(ForestIntegrityError, match="threshold_scale"):
            load_forest(path)

    def test_codec_tag_mismatch_rejected(self, tmp_path, trained_small):
        clf, *_ = trained_small
        path = str(tmp_path / "forest.npz")
        save_forest(path, clf, codec="float16")

        def lie_about_codec(p):
            p["codec"] = np.str_("int8")

        _resave(path, lie_about_codec)
        with pytest.raises(ForestIntegrityError, match="codec"):
            load_forest(path)

    def test_unknown_codec_name_rejected_on_save(self, tmp_path, trained_small):
        clf, *_ = trained_small
        with pytest.raises(ValueError, match="unknown codec"):
            save_forest(str(tmp_path / "x.npz"), clf, codec="bf16")

    def test_checked_in_v3_file_loads_byte_for_byte(self):
        """The pre-codec fixture keeps loading with untouched arrays."""
        loaded = load_forest(V3_FIXTURE)
        assert loaded.codec_ == "float32"
        with np.load(V3_FIXTURE) as data:
            assert int(data["version"]) == 3
            got_thr = np.concatenate([t.threshold for t in loaded.trees_])
            np.testing.assert_array_equal(got_thr, data["threshold"])
            got_feat = np.concatenate([t.feature for t in loaded.trees_])
            np.testing.assert_array_equal(got_feat, data["feature"])
            got_val = np.concatenate([t.value for t in loaded.trees_])
            np.testing.assert_array_equal(got_val, data["value"])

    def test_checked_in_v3_predictions_pinned(self):
        loaded = load_forest(V3_FIXTURE)
        rng = np.random.default_rng(13)
        X = rng.uniform(-2.0, 2.0, size=(32, loaded.n_features_)).astype(
            np.float32
        )
        digest = array_crc32(loaded.predict(X).astype(np.int64))
        with np.load(V3_FIXTURE) as data:
            assert digest == int(data["prediction_crc"])

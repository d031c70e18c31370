import numpy as np
import pytest

from armformer import data as D
from armformer import tensor as T
from armformer.errors import ConfigError, DataError, NetpbmError
from armformer.tensor import Tensor


class TestPalette:
    def test_exact_values(self):
        assert D.GRAY_VALUES == (0, 51, 102, 153, 204, 255)
        assert D.CLASS_NAMES == ("background", "handgun", "human",
                                 "knife", "rifle", "revolver")

    def test_decode_exact_bytes(self):
        gray = np.array([[51, 204], [0, 255]], dtype=np.uint8)
        assert np.array_equal(D.decode_mask(gray), [[1, 4], [0, 5]])

    def test_roundtrip_all_values(self):
        labels = np.arange(6).reshape(2, 3)
        assert np.array_equal(D.decode_mask(D.encode_mask(labels)), labels)

    def test_nearest_value_decode(self):
        before = D.decode_stats.off_palette
        gray = np.array([60, 30, 120, 230, 180], dtype=np.uint8)
        # |60-51|=9 beats |60-102|=42, and so on
        assert np.array_equal(D.decode_mask(gray), [1, 1, 2, 5, 4])
        assert D.decode_stats.off_palette - before == 5
        # every byte snaps to the nearest gray value, a tie to the smaller one
        nearest = [min(D.GRAY_VALUES, key=lambda g: (abs(b - g), g)) for b in range(256)]
        assert np.array_equal(D.decode_mask(np.arange(256, dtype=np.uint8)),
                              [D.GRAY_VALUES.index(g) for g in nearest])

    def test_decode_is_total_and_idempotent(self):
        every_byte = np.arange(256, dtype=np.uint8)
        ids = D.decode_mask(every_byte)
        assert ids.min() >= 0 and ids.max() < 6
        assert np.array_equal(D.decode_mask(D.encode_mask(ids)), ids)

    def test_exact_bytes_do_not_count_as_off_palette(self):
        before = D.decode_stats.off_palette
        D.decode_mask(np.array([0, 51, 102, 153, 204, 255], dtype=np.uint8))
        assert D.decode_stats.off_palette == before

    def test_encode_rejects_out_of_range(self):
        with pytest.raises(DataError):
            D.encode_mask(np.array([6]))
        with pytest.raises(DataError):
            D.encode_mask(np.array([-1]))


class TestNetpbm:
    def test_ppm_roundtrip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        image = rng.integers(0, 256, size=(5, 7, 3), dtype=np.uint8)
        path = tmp_path / "img.ppm"
        D.write_ppm(path, image)
        assert np.array_equal(D.read_ppm(path), image)

    def test_pgm_roundtrip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(1)
        gray = rng.integers(0, 256, size=(4, 6), dtype=np.uint8)
        path = tmp_path / "mask.pgm"
        D.write_pgm(path, gray)
        assert np.array_equal(D.read_pgm(path), gray)

    def test_comments_and_whitespace_tolerated(self, tmp_path):
        payload = bytes(range(6))
        path = tmp_path / "c.pgm"
        path.write_bytes(b"P5\n# a comment\n 3\n2 # another\n255\n" + payload)
        got = D.read_pgm(path)
        assert got.shape == (2, 3)
        assert np.array_equal(got.reshape(-1), np.frombuffer(payload, dtype=np.uint8))

    def test_truncated_file_names_path(self, tmp_path):
        path = tmp_path / "broken.pgm"
        path.write_bytes(b"P5\n4 4\n255\n\x00\x01")
        with pytest.raises(NetpbmError, match="broken.pgm"):
            D.read_pgm(path)

    def test_wrong_magic(self, tmp_path):
        path = tmp_path / "x.ppm"
        path.write_bytes(b"P5\n1 1\n255\n\x00")
        with pytest.raises(NetpbmError):
            D.read_ppm(path)

    def test_sixteen_bit_rejected(self, tmp_path):
        path = tmp_path / "deep.pgm"
        path.write_bytes(b"P5\n1 1\n65535\n\x00\x00")
        with pytest.raises(NetpbmError, match="8-bit"):
            D.read_pgm(path)

    @pytest.mark.parametrize("magic,size", [(b"P5", b"0 0"), (b"P5", b"3 0"),
                                            (b"P6", b"0 0"), (b"P6", b"0 2")])
    def test_zero_sized_image_rejected(self, tmp_path, magic, size):
        path = tmp_path / "empty.img"
        path.write_bytes(magic + b"\n" + size + b"\n255\n")
        read = D.read_ppm if magic == b"P6" else D.read_pgm
        with pytest.raises(NetpbmError, match="empty"):
            read(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(NetpbmError, match="nope.ppm"):
            D.read_ppm(tmp_path / "nope.ppm")


class TestResizeImage:
    def test_matches_bilinear_resize_op(self):
        img = np.random.default_rng(5).uniform(0, 1, size=(3, 12, 20))
        for h, w in ((7, 31), (24, 20), (12, 9)):
            expect = T.bilinear_resize(Tensor(img[None]), h, w).data[0]
            assert np.array_equal(D.resize_image(img, h, w), expect)

    def test_same_size_returns_input_unchanged(self):
        img = np.random.default_rng(6).uniform(0, 1, size=(3, 10, 14))
        assert np.array_equal(D.resize_image(img, 10, 14), img)


class TestLoadSample:
    def write_pair(self, tmp_path, size=64, mask_size=None):
        rng = np.random.default_rng(2)
        image = rng.integers(0, 256, size=(size, size, 3), dtype=np.uint8)
        mask = D.encode_mask(rng.integers(0, 6, size=(mask_size or size,) * 2))
        D.write_ppm(tmp_path / "a.ppm", image)
        D.write_pgm(tmp_path / "a.pgm", mask)
        return image, mask

    def test_identity_size_is_byte_faithful(self, tmp_path):
        image, mask = self.write_pair(tmp_path, size=64)
        chw, labels = D.load_sample(tmp_path / "a.ppm", tmp_path / "a.pgm", 64)
        assert np.array_equal(chw, image.transpose(2, 0, 1) / 255.0)
        assert np.array_equal(labels, D.decode_mask(mask))

    def test_upscaled_mask_preserves_value_set(self, tmp_path):
        rng = np.random.default_rng(3)
        image = rng.integers(0, 256, size=(32, 32, 3), dtype=np.uint8)
        mask = D.encode_mask(rng.integers(0, 6, size=(32, 32)))
        D.write_ppm(tmp_path / "b.ppm", image)
        D.write_pgm(tmp_path / "b.pgm", mask)
        chw, labels = D.load_sample(tmp_path / "b.ppm", tmp_path / "b.pgm", 64)
        assert chw.shape == (3, 64, 64) and labels.shape == (64, 64)
        assert set(np.unique(labels)) <= set(np.unique(D.decode_mask(mask)))
        assert chw.min() >= 0.0 and chw.max() <= 1.0

    def test_dimension_mismatch_rejected(self, tmp_path):
        self.write_pair(tmp_path, size=64, mask_size=32)
        with pytest.raises(DataError, match="differ"):
            D.load_sample(tmp_path / "a.ppm", tmp_path / "a.pgm", 64)

    def test_labels_always_in_range(self, tmp_path):
        rng = np.random.default_rng(4)
        image = rng.integers(0, 256, size=(48, 48, 3), dtype=np.uint8)
        stray = rng.integers(0, 256, size=(48, 48), dtype=np.uint8)  # off palette
        D.write_ppm(tmp_path / "c.ppm", image)
        D.write_pgm(tmp_path / "c.pgm", stray)
        _, labels = D.load_sample(tmp_path / "c.ppm", tmp_path / "c.pgm", 64)
        assert labels.min() >= 0 and labels.max() < 6


class TestSynthDataset:
    def test_deterministic(self):
        a = D.synth_dataset(seed=0, count=3, size=64)
        b = D.synth_dataset(seed=0, count=3, size=64)
        for (ia, la), (ib, lb) in zip(a, b):
            assert np.array_equal(ia, ib)
            assert np.array_equal(la, lb)

    def test_labels_in_range_and_images_unit_interval(self):
        for image, labels in D.synth_dataset(seed=1, count=6, size=64):
            assert labels.min() >= 0 and labels.max() < 6
            assert image.shape == (3, 64, 64) and labels.shape == (64, 64)
            assert image.min() >= 0.0 and image.max() <= 1.0

    def test_every_class_appears_over_64_samples(self):
        seen = set()
        for _, labels in D.synth_dataset(seed=0, count=64, size=64):
            seen.update(int(c) for c in np.unique(labels))
        assert seen == {0, 1, 2, 3, 4, 5}

    def test_guaranteed_class_cycles(self):
        samples = D.synth_dataset(seed=5, count=10, size=64)
        for i, (_, labels) in enumerate(samples):
            assert (i % 5) + 1 in np.unique(labels)

    def test_bad_arguments(self):
        with pytest.raises(ConfigError):
            D.synth_dataset(seed=0, count=0, size=64)
        with pytest.raises(ConfigError):
            D.synth_dataset(seed=0, count=1, size=60)


class TestDatasetDirectory:
    def test_save_then_load_roundtrip(self, tmp_path):
        samples = D.synth_dataset(seed=2, count=6, size=64)
        D.save_dataset(samples, tmp_path, split_fractions=(0.5, 0.25, 0.25))
        for split, expect in (("train", 3), ("val", 1), ("test", 1)):
            ds = D.SegDataset(tmp_path, split, 64)
            assert len(ds) >= 1
        # count adds up: train gets the remainder
        total = sum(len(D.SegDataset(tmp_path, s, 64))
                    for s in ("train", "val", "test"))
        assert total == 6
        ds = D.SegDataset(tmp_path, "train", 64)
        image, labels = ds[0]
        assert np.array_equal(labels, samples[0][1])
        # images were quantized to bytes on save
        assert np.abs(image - samples[0][0]).max() <= (0.5 / 255.0) + 1e-12

    def test_missing_split_file(self, tmp_path):
        with pytest.raises(DataError, match="split"):
            D.SegDataset(tmp_path, "train", 64)

    def test_split_fractions_validated(self, tmp_path):
        with pytest.raises(DataError):
            D.save_dataset(D.synth_dataset(seed=0, count=1, size=64),
                           tmp_path, split_fractions=(0.5, 0.2, 0.2))

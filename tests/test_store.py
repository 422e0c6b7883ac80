import struct

import numpy as np
import pytest

from scenehog import (
    SplitManifest,
    read_features,
    scan_dataset,
    write_features,
    write_pgm,
)
from scenehog.cli import main
from scenehog.errors import DatasetError, FormatError


class TestFeatureFiles:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(42)
        x = rng.normal(0.0, 3.0, (7, 12))
        labels = [f"class{i % 3}" for i in range(7)]
        path = tmp_path / "feat.bin"
        write_features(path, x, labels, config_hash="a" * 40)
        got, got_labels, tag = read_features(path)
        np.testing.assert_array_equal(got, x.astype(np.float32).astype(np.float64))
        assert got_labels == labels
        assert tag == "a" * 40

    def test_header_layout(self, tmp_path):
        path = tmp_path / "feat.bin"
        write_features(path, np.zeros((2, 3)), ["a", "b"], config_hash="deadbeef")
        data = path.read_bytes()
        assert data[:4] == b"HFTR"
        assert struct.unpack_from("<I", data, 4)[0] == 1
        assert struct.unpack_from("<QQ", data, 8) == (2, 3)
        assert data[24:64].rstrip(b"\x00") == b"deadbeef"
        assert len(data) == 64 + 2 * 3 * 4

    def test_write_is_deterministic(self, tmp_path):
        rng = np.random.default_rng(42)
        x = rng.random((5, 9))
        a, b = tmp_path / "a.bin", tmp_path / "b.bin"
        write_features(a, x, ["x"] * 5)
        write_features(b, x, ["x"] * 5)
        assert a.read_bytes() == b.read_bytes()
        assert (tmp_path / "a.bin.labels").read_bytes() == (tmp_path / "b.bin.labels").read_bytes()

    def test_single_quantization(self, tmp_path):
        """Values quantize to float32 once: rereading is bit stable."""
        x = np.array([[1.0 / 3.0, np.pi]])
        path = tmp_path / "feat.bin"
        write_features(path, x, ["a"])
        first, _, _ = read_features(path)
        write_features(path, first, ["a"])
        second, _, _ = read_features(path)
        np.testing.assert_array_equal(first, second)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "feat.bin"
        path.write_bytes(b"JUNK" + b"\x00" * 80)
        with pytest.raises(FormatError):
            read_features(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "feat.bin"
        write_features(path, np.ones((3, 4)), ["a", "b", "c"])
        data = path.read_bytes()
        path.write_bytes(data[:-5])
        with pytest.raises(FormatError):
            read_features(path)

    def test_missing_sidecar(self, tmp_path):
        path = tmp_path / "feat.bin"
        write_features(path, np.ones((2, 2)), ["a", "b"])
        (tmp_path / "feat.bin.labels").unlink()
        with pytest.raises(FormatError):
            read_features(path)

    def test_label_count_mismatch(self, tmp_path):
        path = tmp_path / "feat.bin"
        write_features(path, np.ones((2, 2)), ["a", "b"])
        (tmp_path / "feat.bin.labels").write_text("a\n")
        with pytest.raises(FormatError):
            read_features(path)

    def test_non_finite_values_rejected(self, tmp_path, capsys):
        path = tmp_path / "feat.bin"
        x = np.ones((4, 3))
        x[2, 1] = np.nan
        write_features(path, x, ["a", "b", "a", "b"])
        with pytest.raises(FormatError):
            read_features(path)
        rc = main(["experiment", "--features", str(path), "--report", str(tmp_path / "r.txt")])
        assert rc == 3
        assert "non-finite" in capsys.readouterr().err
        assert not (tmp_path / "r.txt").exists()

    def test_row_label_mismatch_on_write(self, tmp_path):
        with pytest.raises(FormatError):
            write_features(tmp_path / "f.bin", np.ones((3, 2)), ["a"])


class TestScanDataset:
    def build(self, root):
        for sub, names in (
            ("beach", ["b1.wav", "b2.WAV", "notes.txt"]),
            ("park", ["p1.wav"]),
        ):
            d = root / sub
            d.mkdir()
            for name in names:
                (d / name).write_bytes(b"RIFF")
        (root / "README").write_text("top level files are ignored")

    def test_layout_and_order(self, tmp_path):
        self.build(tmp_path)
        scan = scan_dataset(tmp_path)
        assert scan.classes == ["beach", "park"]
        assert [e[2] for e in scan.entries] == ["beach/b1", "beach/b2", "park/p1"]
        assert scan.skipped == 1

    def test_nested_directories_included(self, tmp_path):
        d = tmp_path / "city" / "fold1"
        d.mkdir(parents=True)
        (d / "c1.wav").write_bytes(b"RIFF")
        scan = scan_dataset(tmp_path)
        assert [e[1] for e in scan.entries] == ["city"]

    def test_nested_ids_are_paths_below_root(self, tmp_path):
        for rel in ("beach/a/x.wav", "beach/b/x.wav", "beach/x.wav"):
            (tmp_path / rel).parent.mkdir(parents=True, exist_ok=True)
            (tmp_path / rel).write_bytes(b"RIFF")
        scan = scan_dataset(tmp_path)
        assert [e[2] for e in scan.entries] == ["beach/a/x", "beach/b/x", "beach/x"]
        assert [e[1] for e in scan.entries] == ["beach"] * 3

    def test_empty_root_rejected(self, tmp_path):
        with pytest.raises(DatasetError):
            scan_dataset(tmp_path)
        with pytest.raises(DatasetError):
            scan_dataset(tmp_path / "missing")


class TestSplitManifest:
    def test_round_trip(self, tmp_path):
        manifest = SplitManifest(
            seed=7, split_index=3,
            train_ids=["a/x", "a/y", "b/z"], test_ids=["b/w"],
        )
        path = tmp_path / "split3.txt"
        manifest.write(path)
        loaded = SplitManifest.read(path)
        assert loaded == manifest

    def test_text_format(self):
        manifest = SplitManifest(1, 0, ["t1"], ["t2"])
        assert manifest.to_text() == "seed=1\nsplit_index=0\n[train]\nt1\n[test]\nt2\n"

    def test_missing_header_rejected(self):
        with pytest.raises(FormatError):
            SplitManifest.from_text("[train]\nx\n[test]\ny\n")


class TestWritePgm:
    def test_format_and_quantization(self, tmp_path):
        img = np.array([[0.0, 0.5], [1.0, 2.0]])
        path = tmp_path / "img.pgm"
        write_pgm(path, img)
        data = path.read_bytes()
        assert data.startswith(b"P5\n2 2\n255\n")
        assert list(data[-4:]) == [0, 128, 255, 255]

    def test_rejects_non_2d(self, tmp_path):
        with pytest.raises(FormatError):
            write_pgm(tmp_path / "x.pgm", np.zeros(4))

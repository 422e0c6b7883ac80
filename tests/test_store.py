import os
import struct
import tracemalloc

import numpy as np
import pytest

from scenehog import (
    AudioClip,
    SplitManifest,
    read_features,
    read_wav,
    scan_dataset,
    write_features,
    write_pgm,
    write_wav,
)
from scenehog import store
from scenehog.cli import main
from scenehog.errors import DatasetError, FormatError
from scenehog.util import atomic_write_bytes


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

    def test_payload_written_without_extra_copies(self, tmp_path):
        """The float32 array is the only payload sized buffer: no bytes
        copy of it and no header + payload concatenation."""
        x = np.random.default_rng(0).random((2000, 256))
        payload = x.size * 4
        tracemalloc.start()
        try:
            write_features(tmp_path / "feat.bin", x, ["a"] * len(x))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * payload
        got, _, _ = read_features(tmp_path / "feat.bin")
        np.testing.assert_array_equal(got, x.astype(np.float32))

    def test_payload_written_in_row_blocks(self, tmp_path, monkeypatch):
        """The float32 payload goes out a block of rows at a time: the
        file equals the whole-matrix conversion byte for byte, and far
        less than the payload is allocated at once: the block being
        written and the next one."""
        x = np.random.default_rng(1).normal(0.0, 3.0, (4003, 512))
        path = tmp_path / "feat.bin"
        tracemalloc.start()
        try:
            write_features(path, x, ["a"] * len(x), config_hash="f" * 40)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        payload = path.read_bytes()[64:]
        assert payload == np.ascontiguousarray(x, dtype="<f4").tobytes()
        assert peak < 2.5 * store._WRITE_BLOCK_BYTES < 0.4 * len(payload)
        # rows of any width, blocks of one row included
        monkeypatch.setattr(store, "_WRITE_BLOCK_BYTES", 3)
        write_features(path, x[:5, :7], ["a"] * 5)
        assert path.read_bytes()[64:] == np.ascontiguousarray(x[:5, :7], dtype="<f4").tobytes()

    def test_parts_that_fail_midway_leave_no_file(self, tmp_path):
        """An iterable of parts that raises after some were written
        leaves neither the target nor the temporary file."""

        def parts():
            yield b"header"
            yield np.ones(1000, dtype="<f4")
            raise OSError("source went away")

        target = tmp_path / "out.bin"
        with pytest.raises(OSError, match="went away"):
            atomic_write_bytes(target, parts())
        assert list(tmp_path.iterdir()) == []

    def test_failed_write_leaves_no_file(self, tmp_path, monkeypatch):
        def refuse(src, dst):
            raise OSError("rename refused")

        monkeypatch.setattr(os, "replace", refuse)
        with pytest.raises(OSError):
            write_features(tmp_path / "feat.bin", np.ones((3, 4)), ["a", "b", "c"])
        assert list(tmp_path.iterdir()) == []

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

    def test_label_with_line_break_refused(self, tmp_path, capsys):
        """The sidecar holds one label per line, so a label holding a line
        break is refused before any byte is written; extract over a class
        directory so named exits 3 and writes no feature file."""
        with pytest.raises(FormatError, match="line break"):
            write_features(tmp_path / "f.bin", np.ones((4, 3)), ["a\nb", "c", "a\nb", "c"])
        assert list(tmp_path.iterdir()) == []
        data = tmp_path / "data"
        for label in ("a\nb", "c"):
            write_wav(data / label / "x.wav", AudioClip(np.full(8000, 0.1), 8000, label))
        out = tmp_path / "x.features"
        rc = main([
            "extract", "--set", "image_size=64", "--set", "filter_size=3",
            "--data", str(data), "--out", str(out),
        ])
        assert rc == 3
        assert "line break" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["data"]

    def test_row_label_mismatch_on_write(self, tmp_path):
        with pytest.raises(FormatError):
            write_features(tmp_path / "f.bin", np.ones((3, 2)), ["a"])

    def test_zero_columns_refused(self, tmp_path, capsys):
        """A matrix with no columns is neither written nor read, so
        experiment exits 3 instead of scoring rows of nothing."""
        labels = ["a", "b"] * 10
        with pytest.raises(FormatError, match="column"):
            write_features(tmp_path / "w.bin", np.ones((20, 0)), labels)
        assert list(tmp_path.iterdir()) == []
        path = tmp_path / "feat.bin"
        path.write_bytes(b"HFTR" + struct.pack("<IQQ", 1, 20, 0) + b"\x00" * 40)
        (tmp_path / "feat.bin.labels").write_text("".join(v + "\n" for v in labels))
        with pytest.raises(FormatError, match="no columns"):
            read_features(path)
        rc = main(["experiment", "--features", str(path), "--report", str(tmp_path / "r.txt")])
        assert rc == 3
        assert "no columns" in capsys.readouterr().err
        assert not (tmp_path / "r.txt").exists()

    def test_read_holds_the_file_and_one_matrix(self, tmp_path):
        """read_features makes no copy of the payload: its peak is the
        file's bytes plus the float64 matrix plus a small margin."""
        x = np.random.default_rng(3).normal(0.0, 2.0, (400, 1024))
        path = tmp_path / "feat.bin"
        write_features(path, x, ["a", "b"] * 200)
        tracemalloc.start()
        try:
            got, _, _ = read_features(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        np.testing.assert_array_equal(got, x.astype(np.float32))
        assert peak < path.stat().st_size + got.nbytes + (64 << 10)


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

    def test_indexing_decodes_one_entry_per_access(self, tmp_path, monkeypatch):
        for i, rel in enumerate(("beach/a/x", "beach/y", "park/z")):
            write_wav(tmp_path / f"{rel}.wav", AudioClip(np.full(8, 0.25 * i), 8000))
        decoded = []

        def counted(path, label=None):
            decoded.append(path)
            return read_wav(path, label=label)

        monkeypatch.setattr(store, "read_wav", counted)
        scan = scan_dataset(tmp_path)
        assert len(scan) == 3 and decoded == []
        clip = scan[2]
        assert decoded == [tmp_path / "park" / "z.wav"]
        assert (clip.label, clip.source_id, clip.sample_rate_hz) == ("park", "park/z", 8000)
        np.testing.assert_array_equal(clip.samples, 0.5)
        assert scan[2] is not clip and len(decoded) == 2
        assert [c.source_id for c in scan] == ["beach/a/x", "beach/y", "park/z"]
        with pytest.raises(IndexError):
            scan[3]

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

    @pytest.mark.parametrize("seed, split_index", [("x", "0"), ("1", "2.5")])
    def test_non_integer_header_rejected(self, seed, split_index):
        text = f"seed={seed}\nsplit_index={split_index}\n[train]\nx\n[test]\ny\n"
        with pytest.raises(FormatError):
            SplitManifest.from_text(text)


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

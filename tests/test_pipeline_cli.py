import dataclasses
import json
import os
import platform
import subprocess
import sys
import threading
import types
from pathlib import Path

import numpy as np
import pytest

from scenehog import (
    RunConfig,
    extract_clip,
    extract_clips,
    feature_dim,
    generate_toy,
    parse_config_file,
    read_features,
    read_report,
    read_wav,
    run_protocol,
    scan_dataset,
    segment,
    write_pgm,
    write_wav,
)
from scenehog import pipeline
from scenehog import cli
from scenehog.cli import main
from scenehog.errors import ConfigError
from scenehog.tfr import cqt, mean_filter, to_image
from scenehog.util import parallel_map

SMALL = dict(f_min_hz=80.0, image_size=64, filter_size=3, cell_size=8, n_per_class=3)


def small_config(**kw):
    return RunConfig(**{**SMALL, **kw})


def run_cli(capsys, *argv):
    rc = main([str(a) for a in argv])
    out = capsys.readouterr()
    table = {}
    for line in out.out.strip().splitlines():
        key, _, value = line.partition("\t")
        table[key] = value
    return rc, table, out.err


class TestRunConfig:
    def test_defaults_validate(self):
        RunConfig().validate()

    def test_rejections(self):
        bad = [
            dict(variant="folded"),
            dict(pooling="max"),
            dict(kernel="poly"),
            dict(cell_size=7),
            dict(pooling="grid", grid_freq=7),
            dict(c_grid="1,-2"),
            dict(f_min_hz=500.0, f_max_hz=100.0),
            dict(seg_seconds=-1.0),
            dict(hop_samples=-1),
        ]
        for kw in bad:
            with pytest.raises(ConfigError):
                RunConfig(**kw).validate()

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize(
        "key",
        ["clip_tau", "db_floor", "f_min_hz", "train_frac", "eps_norm", "noise_sigma", "seg_seconds"],
    )
    def test_non_finite_floats_rejected(self, key, value):
        with pytest.raises(ConfigError, match=key):
            RunConfig(**{key: value}).validate()
        with pytest.raises(ConfigError, match=key):
            dataclasses.replace(RunConfig(), **{key: value}).validate()

    @pytest.mark.parametrize("value", ["nan", "inf", "1,nan", "2,inf,3"])
    @pytest.mark.parametrize("key", ["c_grid", "sigma_grid"])
    def test_non_finite_grids_rejected(self, key, value):
        with pytest.raises(ConfigError, match=f"{key} values must be positive and finite"):
            RunConfig(**{key: value}).validate()

    def test_f_max_capped_to_clip_nyquist(self):
        cfg = small_config()
        clips = generate_toy(cfg)
        cqt_cfg = cfg.cqt_config(clips[0])
        assert cqt_cfg.f_max_hz == pytest.approx(0.95 * 4000.0)

    def test_automatic_hop(self):
        cfg = small_config(hop_samples=0)
        clips = generate_toy(cfg)
        assert cfg.cqt_config(clips[0]).hop_samples == 8000 // 127
        cfg2 = small_config(hop_samples=100)
        assert cfg2.cqt_config(clips[0]).hop_samples == 100

    def test_config_hash_tracks_content(self):
        a = small_config()
        b = small_config()
        c = small_config(cell_size=16)
        assert a.config_hash() == b.config_hash()
        assert a.config_hash() != c.config_hash()
        assert len(a.config_hash()) == 40

    def test_extraction_hash_covers_extraction_keys_only(self):
        a = small_config()
        for kw in (dict(kernel="gaussian"), dict(n_splits=3), dict(seed=9),
                   dict(c_grid="1,2"), dict(n_per_class=7)):
            assert small_config(**kw).extraction_hash() == a.extraction_hash()
        for kw in (dict(cell_size=16), dict(filter_size=5), dict(f_min_hz=60.0),
                   dict(pooling="grid"), dict(variant="signed"), dict(seg_seconds=0.5)):
            assert small_config(**kw).extraction_hash() != a.extraction_hash()
        assert len(a.extraction_hash()) == 40

    def test_grid_parsing(self):
        cfg = small_config(c_grid="0.5, 2, 8", sigma_grid="3,30")
        np.testing.assert_allclose(cfg.c_grid_values(), [0.5, 2.0, 8.0])
        assert cfg.sigma_grid_values() == (3.0, 30.0)
        assert small_config(c_grid="").c_grid_values() is None


class TestParseConfigFile:
    def test_file_with_comments_and_overrides(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            "# comment line\n"
            "\n"
            "cell_size=16\n"
            "variant=signed\n"
            "include_factors=yes\n"
        )
        cfg = parse_config_file(path, ["variant=unsigned"])
        assert cfg.cell_size == 16
        assert cfg.variant == "unsigned"
        assert cfg.include_factors is True

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("cells=8\n")
        with pytest.raises(ConfigError):
            parse_config_file(path)

    def test_bad_line_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("cell_size 8\n")
        with pytest.raises(ConfigError):
            parse_config_file(path)

    def test_bad_bool_rejected(self):
        with pytest.raises(ConfigError):
            parse_config_file(None, ["include_factors=maybe"])

    def test_bad_transform_values_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        for line in ("f_min_hz=0", "f_min_hz=-5", "bins_per_octave=0"):
            path.write_text(line + "\n")
            with pytest.raises(ConfigError):
                parse_config_file(path)

    def test_no_file_gives_defaults(self):
        assert parse_config_file(None) == RunConfig()


class TestExtraction:
    def test_dim_follows_layout(self):
        clips = generate_toy(small_config(n_per_class=1))
        cases = [
            (small_config(), (8 + 8) * 24),
            (small_config(variant="signed", pooling="full"), 64 * 16),
            (small_config(variant="unsigned", pooling="grid", grid_freq=4, grid_time=2), 4 * 2 * 8),
            (small_config(include_factors=True), (8 + 8) * 28),
        ]
        for cfg, want in cases:
            vec, timing = extract_clip(clips[0], cfg)
            assert vec.dim == want
            cells = cfg.image_size // cfg.cell_size
            assert want == feature_dim(cfg.pool_config(), cfg.n_orient, cells, cells)
            assert set(timing) == {"cqt", "image", "filter", "hog", "pool"}

    def test_extract_clips_order_and_threads(self):
        cfg = small_config()
        clips = generate_toy(cfg)
        x1, labels, ids, timing = extract_clips(clips, cfg, threads=1)
        x2, _, _, _ = extract_clips(clips, cfg, threads=3)
        np.testing.assert_array_equal(x1, x2)
        assert labels == [c.label for c in clips]
        assert ids == [c.source_id for c in clips]
        assert x1.shape == (6, 384)
        assert all(v >= 0 for v in timing.values())

    def test_segmentation_expands_rows(self):
        cfg = small_config(seg_seconds=0.25, n_per_class=1)
        clips = generate_toy(cfg)
        x, labels, ids, _ = extract_clips(clips, cfg)
        assert x.shape[0] == 8  # two 1 s clips in four 0.25 s pieces
        assert ids[0].endswith("#000") and ids[3].endswith("#003")
        assert labels[:4] == [clips[0].label] * 4

    def test_empty_input_rejected(self):
        with pytest.raises(ConfigError):
            extract_clips([], small_config())

    def test_thread_count_below_one_rejected(self):
        cfg = small_config(n_per_class=1)
        clips = generate_toy(cfg)
        x = np.random.default_rng(0).standard_normal((8, 3))
        labels = ["a", "b"] * 4
        for threads in (0, -1):
            with pytest.raises(ConfigError, match="threads"):
                extract_clips(clips, cfg, threads=threads)
            with pytest.raises(ConfigError, match="threads"):
                run_protocol(x, labels, n_splits=2, fixed_train_count=2, threads=threads)


class TestParallelMap:
    def test_input_order(self):
        assert parallel_map(lambda v: v * v, range(7), 2) == [v * v for v in range(7)]

    def test_workers_capped_at_item_count(self):
        """One item never leaves the calling thread, whatever the cap."""
        caller = threading.current_thread()
        assert parallel_map(lambda _: threading.current_thread(), [0], 8) == [caller]


@pytest.fixture(scope="module")
def toy_workspace(tmp_path_factory):
    """One CLI toygen/extract/experiment flow shared by the CLI tests."""
    root = tmp_path_factory.mktemp("cliflow")
    cfg_file = root / "run.cfg"
    cfg_file.write_text(
        "f_min_hz=80\n"
        "image_size=64\n"
        "filter_size=3\n"
        "cell_size=8\n"
        "n_per_class=5\n"
        "seed=3\n"
        "n_splits=3\n"
        "fixed_train_count=4\n"
    )
    return root, cfg_file


class TestCli:
    def test_toygen(self, toy_workspace, capsys):
        root, cfg_file = toy_workspace
        data = root / "data"
        rc, table, _ = run_cli(capsys, "toygen", "--config", cfg_file, "--out", data)
        assert rc == 0
        assert table["clips"] == "10"
        wavs = sorted(p.relative_to(data).as_posix() for p in data.rglob("*.wav"))
        assert len(wavs) == 10
        assert wavs[0].startswith("neg/") and wavs[-1].startswith("pos/")

    def test_toygen_refuses_nonempty_out(self, toy_workspace, capsys):
        root, cfg_file = toy_workspace
        rc, _, err = run_cli(capsys, "toygen", "--config", cfg_file, "--out", root / "data")
        assert rc == 3
        assert "force" in err

    def test_extract(self, toy_workspace, capsys):
        root, cfg_file = toy_workspace
        feat = root / "toy.features"
        rc, table, _ = run_cli(
            capsys, "extract", "--config", cfg_file,
            "--data", root / "data", "--out", feat,
        )
        assert rc == 0
        assert table["rows"] == "10"
        assert table["dim"] == "384"
        x, labels, tag = read_features(feat)
        assert x.shape == (10, 384)
        assert sorted(set(labels)) == ["neg", "pos"]
        assert len(tag) == 40

    def test_extract_threads_reproduce_bytes(self, toy_workspace, capsys):
        root, cfg_file = toy_workspace
        again = root / "again.features"
        rc, _, _ = run_cli(
            capsys, "extract", "--config", cfg_file,
            "--data", root / "data", "--out", again, "--threads", 4,
        )
        assert rc == 0
        assert again.read_bytes() == (root / "toy.features").read_bytes()

    def test_extract_dump_images(self, toy_workspace, capsys):
        root, cfg_file = toy_workspace
        dump = root / "images"
        rc, _, _ = run_cli(
            capsys, "extract", "--config", cfg_file, "--data", root / "data",
            "--out", root / "imgrun.features", "--dump-images", dump,
        )
        assert rc == 0
        pgms = sorted(dump.glob("*.pgm"))
        assert len(pgms) == 10
        assert pgms[0].read_bytes().startswith(b"P5\n64 64\n255\n")

    def test_nested_wavs_keep_distinct_ids(self, toy_workspace, capsys, tmp_path):
        """Equal file names in different subdirectories are different rows
        and write different PGMs."""
        _, cfg_file = toy_workspace
        clips = generate_toy(small_config(n_per_class=2))
        data = tmp_path / "data"
        for clip, rel in zip(clips, ["beach/a/x", "beach/b/x", "park/p1", "park/p2"]):
            write_wav(data / f"{rel}.wav", clip)
        dump = tmp_path / "images"
        rc, table, _ = run_cli(
            capsys, "extract", "--config", cfg_file, "--data", data,
            "--out", tmp_path / "x.features", "--dump-images", dump,
        )
        assert rc == 0
        assert table["rows"] == "4"
        assert sorted(p.name for p in dump.glob("*.pgm")) == [
            "beach_a_x.pgm", "beach_b_x.pgm", "park_p1.pgm", "park_p2.pgm",
        ]

    @pytest.mark.parametrize("seg_seconds", [0.0, 0.25])
    def test_dump_images_come_from_the_extraction_pass(
        self, toy_workspace, capsys, monkeypatch, tmp_path, seg_seconds
    ):
        """One transform per row, and one PGM per row equal to the image
        the descriptor saw, rebuilt here stage by stage."""
        root, cfg_file = toy_workspace
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return cqt(*args, **kwargs)

        monkeypatch.setattr(pipeline, "cqt", counted)
        dump = tmp_path / "images"
        rc, table, _ = run_cli(
            capsys, "extract", "--config", cfg_file, "--set", f"seg_seconds={seg_seconds}",
            "--data", root / "data", "--out", tmp_path / "x.features", "--dump-images", dump,
        )
        assert rc == 0
        rows = int(table["rows"])
        assert rows == (40 if seg_seconds else 10)
        assert len(calls) == rows

        cfg = parse_config_file(cfg_file, [f"seg_seconds={seg_seconds}"])
        clips = []
        for path, label, source_id in scan_dataset(root / "data").entries:
            clip = read_wav(path, label=label)
            clip.source_id = source_id
            clips.extend(segment(clip, seg_seconds) if seg_seconds else [clip])
        assert len(clips) == rows
        assert len(list(dump.glob("*.pgm"))) == rows
        for clip in clips:
            spectrum = cqt(clip, cfg.cqt_config(clip))
            image = to_image(np.abs(spectrum), size=cfg.image_size, db_floor=cfg.db_floor)
            want = tmp_path / "want.pgm"
            write_pgm(want, mean_filter(image.pixels, cfg.filter_size))
            got = dump / f"{clip.source_id.replace('/', '_')}.pgm"
            assert got.read_bytes() == want.read_bytes()

    def test_experiment(self, toy_workspace, capsys):
        root, cfg_file = toy_workspace
        report_path = root / "report.txt"
        rc, table, _ = run_cli(
            capsys, "experiment", "--config", cfg_file,
            "--features", root / "toy.features", "--report", report_path,
            "--manifest-dir", root / "splits", "--heatmap", root / "confusion.pgm",
        )
        assert rc == 0
        assert table["n_splits"] == "3"
        assert table["n_train"] == "4" and table["n_test"] == "6"
        report = read_report(report_path)
        assert report.n_splits == 3
        assert 0.0 <= report.map_mean <= 1.0
        assert float(table["map_mean"]) == pytest.approx(report.map_mean, abs=1e-6)
        manifests = sorted((root / "splits").glob("split_*.txt"))
        assert len(manifests) == 3
        assert (root / "confusion.pgm").read_bytes().startswith(b"P5\n2 2\n255\n")

    @pytest.mark.parametrize(
        "sets", [("c_grid=nan",), ("c_grid=inf",),
                 ("kernel=gaussian", "sigma_grid=nan"), ("kernel=gaussian", "sigma_grid=inf")],
    )
    def test_experiment_refuses_non_finite_grid(self, toy_workspace, capsys, sets):
        root, cfg_file = toy_workspace
        overrides = [arg for pair in sets for arg in ("--set", pair)]
        rc, _, err = run_cli(
            capsys, "experiment", "--config", cfg_file, "--features", root / "toy.features",
            "--report", root / "refused.txt", *overrides,
        )
        assert rc == 2
        assert "must be positive and finite" in err
        assert not (root / "refused.txt").exists()

    def test_compare_identical_reports_degenerate(self, toy_workspace, capsys):
        root, _ = toy_workspace
        rc, table, _ = run_cli(
            capsys, "compare",
            "--report-a", root / "report.txt", "--report-b", root / "report.txt",
        )
        assert rc == 0
        assert table["degenerate"] == "yes"
        assert table["p_value"] == "1"
        assert table["significant_at_0.005"] == "no"

    def test_compare_mismatched_reports_rejected(self, toy_workspace, capsys):
        root, cfg_file = toy_workspace
        other = root / "other_report.txt"
        rc, _, _ = run_cli(
            capsys, "experiment", "--config", cfg_file, "--set", "n_splits=2",
            "--features", root / "toy.features", "--report", other,
        )
        assert rc == 0
        rc, _, err = run_cli(
            capsys, "compare", "--report-a", root / "report.txt", "--report-b", other,
        )
        assert rc == 3
        assert "mismatch" in err

    def test_experiment_refuses_other_extraction_config(self, toy_workspace, capsys):
        root, cfg_file = toy_workspace
        report = root / "mismatch_report.txt"
        rc, _, err = run_cli(
            capsys, "experiment", "--config", cfg_file, "--set", "cell_size=16",
            "--features", root / "toy.features", "--report", report,
        )
        assert rc == 2
        assert "not extracted under this configuration" in err
        assert not report.exists()

    def test_config_error_exit_code(self, toy_workspace, capsys):
        root, cfg_file = toy_workspace
        rc, _, err = run_cli(
            capsys, "extract", "--config", cfg_file, "--set", "cell_size=7",
            "--data", root / "data", "--out", root / "x.features",
        )
        assert rc == 2
        assert "config error" in err

    @pytest.mark.parametrize(
        "pair",
        ["f_min_hz=nan", "clip_tau=nan", "db_floor=nan", "train_frac=nan", "eps_norm=inf"],
    )
    def test_non_finite_value_exit_code(self, toy_workspace, capsys, pair):
        root, cfg_file = toy_workspace
        rc, _, err = run_cli(
            capsys, "extract", "--config", cfg_file, "--set", pair,
            "--data", root / "data", "--out", root / "x.features",
        )
        assert rc == 2
        assert "config error" in err

    @pytest.mark.parametrize("threads", [0, -1])
    def test_thread_count_below_one_exit_code(self, toy_workspace, capsys, threads):
        root, cfg_file = toy_workspace
        rc, _, err = run_cli(
            capsys, "extract", "--config", cfg_file, "--threads", threads,
            "--data", root / "data", "--out", root / "x.features",
        )
        assert rc == 2
        assert "threads" in err

    def test_thread_count_checked_before_decoding(self, tmp_path, capsys, monkeypatch):
        data = tmp_path / "data"
        rc, _, _ = run_cli(capsys, "toygen", "--set", "n_per_class=2", "--out", data)
        assert rc == 0
        decoded = []
        real = cli.read_wav

        def counted(*args, **kwargs):
            decoded.append(args[0])
            return real(*args, **kwargs)

        monkeypatch.setattr(cli, "read_wav", counted)
        rc, _, err = run_cli(
            capsys, "extract", "--threads", 0, "--data", data, "--out", tmp_path / "x.features",
        )
        assert rc == 2
        assert "threads" in err
        assert decoded == []

    def test_data_error_exit_code(self, toy_workspace, capsys):
        root, cfg_file = toy_workspace
        rc, _, err = run_cli(
            capsys, "extract", "--config", cfg_file,
            "--data", root / "nosuch", "--out", root / "x.features",
        )
        assert rc == 3
        assert "data error" in err

    @pytest.mark.parametrize("command", ["toygen", "experiment", "compare", "extract"])
    def test_missing_path_exit_code(self, toy_workspace, capsys, tmp_path, command):
        """A path that is missing or not what the command needs exits 3
        with one line naming it."""
        root, cfg_file = toy_workspace
        missing = tmp_path / "nosuch"
        if command == "toygen":
            bad = tmp_path / "afile"
            bad.write_text("not a directory")
            argv = ["toygen", "--out", bad]
        elif command == "experiment":
            bad = missing
            argv = ["experiment", "--features", bad, "--report", tmp_path / "r.txt"]
        elif command == "compare":
            bad = missing
            argv = ["compare", "--report-a", bad, "--report-b", root / "report.txt"]
        else:
            bad = missing
            argv = ["extract", "--config", bad, "--data", root / "data",
                    "--out", tmp_path / "x.features"]
        rc, _, err = run_cli(capsys, *argv)
        assert rc == 3
        assert err.startswith("scenehog: data error: ")
        assert str(bad) in err
        assert len(err.strip().splitlines()) == 1

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("scenehog ")


# Writes a 16-clip toy set, extracts it twice at the default config in
# this one process and prints the page faults per clip of each extract.
FAULT_PROBE = """
import contextlib, io, json, resource, sys
from pathlib import Path
from scenehog import cli

root = Path(sys.argv[1])
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(["toygen", "--out", str(root / "data"), "--set", "n_per_class=8"]) == 0
per_clip = []
for run in range(2):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main([
            "extract", "--data", str(root / "data"),
            "--out", str(root / f"{run}.features"), "--threads", "2",
        ])
    assert rc == 0
    per_clip.append((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 16)
print(json.dumps(per_clip))
"""


class TestHeapPolicy:
    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc malloc only")
    def test_policy_accepted(self):
        assert cli.hold_heap() is True

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc malloc only")
    def test_second_extract_reuses_heap_pages(self, tmp_path):
        """A fresh process keeps freed clip buffers in its heap, so the
        second extract faults in few pages.  Returning them to the
        kernel after every clip costs about 2,300 faults per clip."""
        src = Path(cli.__file__).resolve().parent.parent
        env = {**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": "1"}
        proc = subprocess.run(
            [sys.executable, "-c", FAULT_PROBE, str(tmp_path)],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        first, second = json.loads(proc.stdout)
        assert second < 300, (first, second)

    @pytest.mark.parametrize("missing", ["no mallopt", "no C library"])
    def test_missing_mallopt_sets_nothing(self, monkeypatch, tmp_path, capsys, missing):
        def cdll(name):
            if missing == "no C library":
                raise OSError("cannot load")
            return types.SimpleNamespace()

        glibc = types.SimpleNamespace(libc_ver=lambda: ("glibc", "2.0"))
        monkeypatch.setattr(cli, "platform", glibc)
        monkeypatch.setattr(cli, "ctypes", types.SimpleNamespace(CDLL=cdll))
        assert cli.hold_heap() is False
        rc, _, err = run_cli(
            capsys, "extract", "--threads", 0, "--data", tmp_path, "--out", tmp_path / "x.f",
        )
        assert rc == 2
        assert "threads" in err

    def test_off_glibc_sets_nothing(self, monkeypatch):
        def cdll(name):
            raise AssertionError("mallopt looked up off glibc")

        other = types.SimpleNamespace(libc_ver=lambda: ("", ""))
        monkeypatch.setattr(cli, "platform", other)
        monkeypatch.setattr(cli, "ctypes", types.SimpleNamespace(CDLL=cdll))
        assert cli.hold_heap() is False

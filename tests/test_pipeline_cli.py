import contextlib
import dataclasses
import io
import json
import os
import platform
import subprocess
import sys
import threading
import tracemalloc
import types
import weakref
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from scenehog import (
    AudioClip,
    FeatureVector,
    RunConfig,
    extract_clip,
    extract_clips,
    feature_dim,
    generate_toy,
    parse_config_file,
    read_features,
    read_report,
    read_wav,
    scan_dataset,
    segment,
    write_pgm,
    write_report,
    write_wav,
)
from scenehog import pipeline
from scenehog import cli
from scenehog import evaluation
from scenehog import store
from scenehog import svm
from scenehog import util
from scenehog.cli import main
from scenehog.errors import ConfigError, DataError, FormatError
from scenehog.tfr import cqt, mean_filter, to_image
from scenehog.util import parallel_map

SMALL = dict(f_min_hz=80.0, image_size=64, filter_size=3, cell_size=8, n_per_class=3)


def small_config(**kw):
    return RunConfig(**{**SMALL, **kw})


class LiveClips:
    """A sequence that hands out a fresh copy of clips[i] on each access
    and tracks, by weakref.finalize, how many copies are alive at once."""

    def __init__(self, clips):
        self.clips = clips
        self.live = self.peak = 0
        self.lock = threading.Lock()

    def __len__(self):
        return len(self.clips)

    def __getitem__(self, i):
        src = self.clips[i]
        clip = AudioClip(src.samples.copy(), src.sample_rate_hz, src.label, src.source_id)
        with self.lock:
            self.live += 1
            self.peak = max(self.peak, self.live)
        weakref.finalize(clip, self.release)
        return clip

    def release(self):
        with self.lock:
            self.live -= 1


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

    @pytest.mark.parametrize("value", ["1e200", "1,1e-200"])
    def test_sigma_without_positive_finite_width_rejected(self, value):
        with pytest.raises(ConfigError, match="2 sigma"):
            RunConfig(sigma_grid=value).validate()

    def test_negative_seed_rejected(self):
        with pytest.raises(ConfigError, match="seed must be >= 0"):
            RunConfig(seed=-1).validate()
        RunConfig(seed=0).validate()

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

    @pytest.mark.parametrize("filter_size", [0, -1, 65])
    def test_filter_size_outside_the_image_rejected(self, filter_size):
        with pytest.raises(ConfigError, match="filter_size"):
            small_config(filter_size=filter_size).validate()

    def test_filter_size_up_to_the_image_accepted(self):
        for filter_size in (1, 64):
            small_config(filter_size=filter_size).validate()

    def test_hop_leaving_one_frame_rejected(self):
        """hop = clip length gives 2 frames; one more sample gives 1."""
        clip = generate_toy(small_config())[0]
        n = clip.samples.size
        assert small_config(hop_samples=n).cqt_config(clip).hop_samples == n
        with pytest.raises(ConfigError, match="hop_samples"):
            small_config(hop_samples=n + 1).cqt_config(clip)

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

    @pytest.mark.parametrize("threads", [1, 3])
    def test_streams_at_most_threads_clips(self, threads):
        cfg = small_config(n_per_class=4)
        clips = generate_toy(cfg)
        live = LiveClips(clips)
        got = extract_clips(live, cfg, threads=threads)
        want = extract_clips(clips, cfg, threads=threads)
        assert 1 <= live.peak <= threads
        assert live.live == 0
        np.testing.assert_array_equal(got[0], want[0])
        assert got[1:3] == want[1:3]

    @pytest.mark.parametrize("threads", [1, 3])
    def test_segments_stream_like_eager_expansion(self, threads):
        cfg = small_config(seg_seconds=0.3)
        clips = generate_toy(cfg)
        expanded = [part for clip in clips for part in segment(clip, cfg.seg_seconds)]
        live = LiveClips(clips)
        x, labels, ids, _ = extract_clips(live, cfg, threads=threads)
        want_x, _, _, _ = extract_clips(expanded, small_config(), threads=threads)
        assert live.peak <= threads
        np.testing.assert_array_equal(x, want_x)
        assert labels == [part.label for part in expanded]
        assert ids == [part.source_id for part in expanded]
        assert ids[:4] == [f"{clips[0].source_id}#{k:03d}" for k in range(3)] + [
            f"{clips[1].source_id}#000"
        ]

    def test_empty_input_rejected(self):
        with pytest.raises(ConfigError):
            extract_clips([], small_config())

    def test_thread_count_below_one_rejected(self):
        cfg = small_config(n_per_class=1)
        clips = generate_toy(cfg)
        for threads in (0, -1):
            with pytest.raises(ConfigError, match="threads"):
                extract_clips(clips, cfg, threads=threads)


    @pytest.mark.parametrize("seg_seconds", [0.0, 0.3])
    @pytest.mark.parametrize("threads", [1, 2])
    def test_matrix_equals_stacked_clip_rows(self, seg_seconds, threads):
        """The preallocated matrix holds exactly the extract_clip rows."""
        cfg = small_config(seg_seconds=seg_seconds)
        clips = generate_toy(cfg)
        parts = [p for c in clips for p in (segment(c, seg_seconds) if seg_seconds else [c])]
        x, labels, ids, _ = extract_clips(clips, cfg, threads=threads)
        want = np.vstack([extract_clip(p, cfg)[0].values for p in parts])
        assert x.dtype == np.float64 and x.flags.c_contiguous
        np.testing.assert_array_equal(x, want)
        assert labels == [p.label for p in parts]
        assert ids == [p.source_id for p in parts]

    def test_segment_rows_counted_from_wav_headers(self, tmp_path, monkeypatch):
        """A segmented DatasetScan is sized from the headers and each WAV
        is still decoded once."""
        cfg = small_config(seg_seconds=0.3)
        for clip in generate_toy(cfg):
            write_wav(tmp_path / clip.label / f"{clip.source_id}.wav", clip)
        decoded = []
        real = store.read_wav

        def counted(path, label=None):
            decoded.append(path)
            return real(path, label=label)

        monkeypatch.setattr(store, "read_wav", counted)
        scan = scan_dataset(tmp_path)
        x, _, ids, _ = extract_clips(scan, cfg)
        assert sorted(decoded) == sorted(path for path, _, _ in scan.entries)
        assert x.shape[0] == 3 * len(scan) and len(ids) == x.shape[0]

    def test_row_of_another_width_rejected(self, monkeypatch):
        cfg = small_config(n_per_class=1)
        clips = generate_toy(cfg)
        real = pipeline.pool
        monkeypatch.setattr(
            pipeline, "pool", lambda grid, c: FeatureVector(real(grid, c).values[:-1])
        )
        with pytest.raises(ConfigError, match="inconsistent feature dimensions"):
            extract_clips(clips, cfg)

    def test_clip_longer_than_counted_rejected(self):
        """A sequence whose clip grows between the count and the decode
        fails with a data error instead of writing past its rows."""
        cfg = small_config(seg_seconds=0.3, n_per_class=1)
        clips = generate_toy(cfg)

        class Growing:
            accesses = 0

            def __len__(self):
                return len(clips)

            def __getitem__(self, i):
                self.accesses += 1
                clip = clips[i]
                if self.accesses > len(clips):
                    clip = AudioClip(np.tile(clip.samples, 2), clip.sample_rate_hz,
                                     clip.label, clip.source_id)
                return clip

        with pytest.raises(DataError, match="segments"):
            extract_clips(Growing(), cfg)

    def test_default_clip_working_set_within_budget(self):
        """One default 512 x 512 chain (cell 8) allocates at most 6 MiB at
        a time: about two images and band-sized temporaries, as the mean
        filter's column pass overwrites its row pass and HOG's gradient
        fields are band-sized."""
        assert _clip_peak(RunConfig()) <= 6 << 20

    def test_cell32_clip_working_set_within_budget(self):
        assert _clip_peak(RunConfig(cell_size=32)) <= 5 << 20


def _clip_peak(cfg):
    """tracemalloc peak of one toy clip's extraction, in bytes, once the
    transform's kernel cache is filled."""
    clip = generate_toy(small_config(n_per_class=1))[0]
    extract_clip(clip, cfg)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        extract_clip(clip, cfg)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


class TestParallelMap:
    def test_input_order(self):
        assert parallel_map(lambda v: v * v, range(7), 2) == [v * v for v in range(7)]

    def test_workers_capped_at_item_count(self):
        """One item never leaves the calling thread, whatever the cap."""
        caller = threading.current_thread()
        assert parallel_map(lambda _: threading.current_thread(), [0], 8) == [caller]

    @pytest.mark.parametrize("cores, want", [(2, 2), (1, None)])
    def test_workers_capped_at_usable_cores(self, monkeypatch, cores, want):
        """A thread cap far above the core count starts one worker per
        core; on one core the calling thread does the work."""
        started = []

        class Recording(ThreadPoolExecutor):
            def __init__(self, max_workers):
                started.append(max_workers)
                super().__init__(max_workers=min(max_workers, 2))

        monkeypatch.setattr(util, "ThreadPoolExecutor", Recording)
        monkeypatch.setattr(util, "usable_cores", lambda: cores)
        assert parallel_map(lambda v: v + 1, range(200), 5000) == list(range(1, 201))
        assert started == ([want] if want else [])

    def test_usable_cores_follow_affinity_then_cpu_count(self, monkeypatch):
        monkeypatch.setattr(util.os, "sched_getaffinity", lambda pid: {0, 3, 5}, raising=False)
        assert util.usable_cores() == 3
        monkeypatch.delattr(util.os, "sched_getaffinity")
        monkeypatch.setattr(util.os, "cpu_count", lambda: 6)
        assert util.usable_cores() == 6
        monkeypatch.setattr(util.os, "cpu_count", lambda: None)
        assert util.usable_cores() == 1


def assert_manifests_are_the_splits(directory, report, cfg, labels, draw):
    """Manifest i names the rows of report.splits[i], and its bytes are
    those of a SplitManifest built from a fresh draw of split i."""
    paths = sorted(directory.glob("split_*.txt"))
    assert [p.name for p in paths] == [f"split_{i:03d}.txt" for i in range(cfg.n_splits)]
    assert len(report.splits) == cfg.n_splits
    for i, (path, halves) in enumerate(zip(paths, report.splits)):
        manifest = store.SplitManifest.read(path)
        assert (manifest.seed, manifest.split_index) == (cfg.seed, i)
        assert [manifest.train_ids, manifest.test_ids] == [
            [f"row{j:06d}" for j in half] for half in halves
        ]
        again = draw(
            labels, seed=cfg.seed, split_index=i, train_frac=cfg.train_frac,
            fixed_train_count=cfg.fixed_train_count or None,
        )
        want = store.SplitManifest(cfg.seed, i, *([f"row{j:06d}" for j in h] for h in again))
        assert path.read_bytes() == want.to_text().encode()


@pytest.fixture(scope="module")
def toy_workspace(tmp_path_factory):
    """A config and the toy WAVs (data/), features (toy.features) and
    report (report.txt) that the CLI's toygen, extract and experiment
    make under it, built once and shared by the CLI tests, so each of
    them also runs alone."""
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
    flow = [
        ["toygen", "--out", root / "data"],
        ["extract", "--data", root / "data", "--out", root / "toy.features"],
        ["experiment", "--features", root / "toy.features", "--report", root / "report.txt"],
    ]
    for command, *argv in flow:
        with contextlib.redirect_stdout(io.StringIO()):
            assert main([command, "--config", str(cfg_file), *map(str, argv)]) == 0
    return root, cfg_file


class TestCli:
    def test_toygen(self, toy_workspace, capsys, tmp_path):
        root, cfg_file = toy_workspace
        data = tmp_path / "data"
        rc, table, _ = run_cli(capsys, "toygen", "--config", cfg_file, "--out", data)
        assert rc == 0
        assert table["clips"] == "10"
        wavs = sorted(p.relative_to(data).as_posix() for p in data.rglob("*.wav"))
        assert len(wavs) == 10
        assert wavs[0].startswith("neg/") and wavs[-1].startswith("pos/")
        for wav in wavs:
            assert (data / wav).read_bytes() == (root / "data" / wav).read_bytes()

    def test_toygen_refuses_nonempty_out(self, toy_workspace, capsys):
        root, cfg_file = toy_workspace
        rc, _, err = run_cli(capsys, "toygen", "--config", cfg_file, "--out", root / "data")
        assert rc == 3
        assert "force" in err

    def test_extract(self, toy_workspace, capsys, tmp_path):
        root, cfg_file = toy_workspace
        feat = tmp_path / "toy.features"
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
        assert feat.read_bytes() == (root / "toy.features").read_bytes()

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
        pgms = sorted(dump.rglob("*.pgm"))
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
        assert sorted(p.relative_to(dump).as_posix() for p in dump.rglob("*.pgm")) == [
            "beach/a/x.pgm", "beach/b/x.pgm", "park/p1.pgm", "park/p2.pgm",
        ]

    def test_dump_images_keep_the_id_folders(self, toy_workspace, capsys, tmp_path):
        """beach/a_x and beach/a/x are two rows and two PGMs; flattening
        '/' to '_' would write both to one file."""
        _, cfg_file = toy_workspace
        clips = generate_toy(small_config(n_per_class=1))
        data = tmp_path / "data"
        for clip, rel in zip(clips, ["beach/a_x", "beach/a/x"]):
            write_wav(data / f"{rel}.wav", clip)
        dump = tmp_path / "images"
        rc, table, _ = run_cli(
            capsys, "extract", "--config", cfg_file, "--data", data,
            "--out", tmp_path / "x.features", "--dump-images", dump,
        )
        assert rc == 0
        assert table["rows"] == "2"
        flat, nested = dump / "beach" / "a_x.pgm", dump / "beach" / "a" / "x.pgm"
        assert sorted(dump.rglob("*.pgm")) == [nested, flat]
        assert flat.read_bytes() != nested.read_bytes()

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
        assert len(list(dump.rglob("*.pgm"))) == rows
        for clip in clips:
            spectrum = cqt(clip, cfg.cqt_config(clip))
            image = to_image(np.abs(spectrum), size=cfg.image_size, db_floor=cfg.db_floor)
            want = tmp_path / "want.pgm"
            write_pgm(want, mean_filter(image.pixels, cfg.filter_size))
            got = dump / f"{clip.source_id}.pgm"
            assert got.read_bytes() == want.read_bytes()

    def test_experiment(self, toy_workspace, capsys, monkeypatch, tmp_path):
        """Each split is drawn once, by the run itself, and manifest i
        lists the rows of the run's split i.  The manifests are the bytes
        that drawing split i again from the config gives, under the
        workspace's fixed_train_count and under a train_frac."""
        root, cfg_file = toy_workspace
        real_split, real_run = evaluation.stratified_split, cli.run_experiment
        drawn, runs = [], []

        def counted(*args, **kwargs):
            drawn.append(kwargs["split_index"])
            return real_split(*args, **kwargs)

        # every binding of stratified_split in the package, as perfbench's counter rebinds
        for name, module in list(sys.modules.items()):
            if name == "scenehog" or name.startswith("scenehog."):
                for attr, value in list(vars(module).items()):
                    if value is real_split:
                        monkeypatch.setattr(module, attr, counted)
        monkeypatch.setattr(
            cli, "run_experiment", lambda *a: runs.append(real_run(*a)) or runs[-1]
        )
        report_path = tmp_path / "report.txt"
        rc, table, _ = run_cli(
            capsys, "experiment", "--config", cfg_file,
            "--features", root / "toy.features", "--report", report_path,
            "--manifest-dir", tmp_path / "splits", "--heatmap", tmp_path / "confusion.pgm",
        )
        assert rc == 0
        assert drawn == [0, 1, 2]
        assert table["n_splits"] == "3"
        assert table["n_train"] == "4" and table["n_test"] == "6"
        report = read_report(report_path)
        assert report.n_splits == 3
        assert 0.0 <= report.map_mean <= 1.0
        assert float(table["map_mean"]) == pytest.approx(report.map_mean, abs=1e-6)
        assert report_path.read_bytes() == (root / "report.txt").read_bytes()
        assert (tmp_path / "confusion.pgm").read_bytes().startswith(b"P5\n2 2\n255\n")
        _, labels, _ = read_features(root / "toy.features")
        assert_manifests_are_the_splits(
            tmp_path / "splits", runs[0], parse_config_file(cfg_file, []), labels, real_split
        )

        drawn.clear()
        frac = ["fixed_train_count=0", "train_frac=0.6"]
        rc, table, _ = run_cli(
            capsys, "experiment", "--config", cfg_file, *(a for s in frac for a in ("--set", s)),
            "--features", root / "toy.features", "--report", tmp_path / "frac_report.txt",
            "--manifest-dir", tmp_path / "frac_splits",
        )
        assert rc == 0
        assert drawn == [0, 1, 2]
        assert table["n_train"] == "6" and table["n_test"] == "4"
        assert_manifests_are_the_splits(
            tmp_path / "frac_splits", runs[1], parse_config_file(cfg_file, frac), labels, real_split
        )

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

    @pytest.mark.parametrize("sigma", ["1e200", "1e-200"])
    def test_experiment_refuses_sigma_without_positive_finite_width(
        self, toy_workspace, capsys, sigma
    ):
        """1e200 overflowed 2 sigma^2 in a traceback (exit 4); 1e-200
        underflowed it to 0, and the run exited 0 with a NaN Gram."""
        root, cfg_file = toy_workspace
        rc, _, err = run_cli(
            capsys, "experiment", "--config", cfg_file, "--features", root / "toy.features",
            "--report", root / "refused.txt", "--set", "kernel=gaussian",
            "--set", f"sigma_grid={sigma}",
        )
        assert rc == 2
        assert "2 sigma^2" in err
        assert not (root / "refused.txt").exists()

    def test_experiment_refuses_negative_seed(self, toy_workspace, capsys):
        root, cfg_file = toy_workspace
        rc, _, err = run_cli(
            capsys, "experiment", "--config", cfg_file, "--features", root / "toy.features",
            "--report", root / "refused.txt", "--set", "seed=-1",
        )
        assert rc == 2
        assert "seed must be >= 0" in err
        assert not (root / "refused.txt").exists()

    def test_toygen_refuses_negative_seed(self, tmp_path, capsys):
        rc, _, err = run_cli(
            capsys, "toygen", "--set", "n_per_class=2", "--set", "seed=-1", "--out", tmp_path / "d"
        )
        assert rc == 2
        assert "seed must be >= 0" in err
        assert not (tmp_path / "d").exists()

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

    @pytest.mark.parametrize(
        "change",
        [
            {"classes": [f"s{k:02d}" for k in range(19)], "confusion_sum": np.eye(19, dtype=int)},
            {"n_train": 41},
            {"n_test": 159},
        ],
        ids=["classes", "n_train", "n_test"],
    )
    def test_compare_refuses_reports_of_other_splits(self, toy_workspace, capsys, change):
        """Same seed and split count, but other classes or split sizes:
        the paired test would pair unrelated splits."""
        root, _ = toy_workspace
        report = read_report(root / "report.txt")
        other = root / "other_split_report.txt"
        write_report(other, dataclasses.replace(report, **change))
        assert read_report(other).seed == report.seed
        rc, table, err = run_cli(
            capsys, "compare", "--report-a", root / "report.txt", "--report-b", other,
        )
        assert rc == 3
        assert "mismatch" in err
        assert table == {}

    @pytest.mark.parametrize("key", ["n_splits", "n_train", "n_test"])
    def test_report_without_splits_or_rows_refused(self, toy_workspace, capsys, key):
        """A report claiming no splits, or splits without train or test
        rows, has no MAP to compare: exit 3, not a NaN table."""
        root, _ = toy_workspace
        lines = (root / "report.txt").read_text().splitlines()
        lines = [f"{key}=0" if line.startswith(f"{key}=") else line for line in lines]
        if key == "n_splits":
            first, end = lines.index("split,map,c,sigma") + 1, lines.index("[confusion_sum]")
            del lines[first:end]
        bad = root / f"no_{key}_report.txt"
        bad.write_text("\n".join(lines) + "\n")
        with pytest.raises(FormatError, match=f"{key} must be at least 1"):
            read_report(bad)
        rc, table, err = run_cli(capsys, "compare", "--report-a", bad, "--report-b", bad)
        assert rc == 3
        assert f"{key} must be at least 1" in err
        assert table == {}

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

    def test_experiment_threads_reproduce_bytes(self, toy_workspace, capsys, monkeypatch):
        """--threads still parses for experiment, starts no worker and does
        not change the report."""
        root, cfg_file = toy_workspace
        seen, real = set(), svm.model_select

        def recorded(*args, **kwargs):
            seen.add(threading.current_thread())
            return real(*args, **kwargs)

        monkeypatch.setattr(svm, "model_select", recorded)
        reports = []
        for threads in (1, 2):
            reports.append(root / f"threads{threads}.report")
            rc, _, _ = run_cli(
                capsys, "experiment", "--config", cfg_file, "--threads", threads,
                "--features", root / "toy.features", "--report", reports[-1],
            )
            assert rc == 0
        assert reports[0].read_bytes() == reports[1].read_bytes()
        assert seen == {threading.current_thread()}

    def test_experiment_thread_count_below_one_exit_code(self, toy_workspace, capsys):
        root, cfg_file = toy_workspace
        report = root / "threads0.report"
        rc, _, err = run_cli(
            capsys, "experiment", "--config", cfg_file, "--threads", 0,
            "--features", root / "toy.features", "--report", report,
        )
        assert rc == 2
        assert "threads" in err
        assert not report.exists()

    def test_thread_count_checked_before_decoding(self, tmp_path, capsys, monkeypatch):
        data = tmp_path / "data"
        rc, _, _ = run_cli(capsys, "toygen", "--set", "n_per_class=2", "--out", data)
        assert rc == 0
        decoded = []
        real = store.read_wav

        def counted(*args, **kwargs):
            decoded.append(args[0])
            return real(*args, **kwargs)

        monkeypatch.setattr(store, "read_wav", counted)
        rc, _, err = run_cli(
            capsys, "extract", "--threads", 0, "--data", data, "--out", tmp_path / "x.features",
        )
        assert rc == 2
        assert "threads" in err
        assert decoded == []

    @pytest.mark.parametrize("filter_size", [0, 65])
    def test_filter_size_checked_before_decoding(
        self, toy_workspace, tmp_path, capsys, monkeypatch, filter_size
    ):
        """A window outside 1..image_size (64 here) exits 2 before any
        clip is decoded."""
        root, cfg_file = toy_workspace
        decoded = []
        real = store.read_wav

        def counted(*args, **kwargs):
            decoded.append(args[0])
            return real(*args, **kwargs)

        monkeypatch.setattr(store, "read_wav", counted)
        out = tmp_path / "x.features"
        rc, _, err = run_cli(
            capsys, "extract", "--config", cfg_file, "--set", f"filter_size={filter_size}",
            "--data", root / "data", "--out", out,
        )
        assert rc == 2
        assert "filter_size" in err
        assert decoded == []
        assert not out.exists()

    @pytest.mark.parametrize("threads", [1, 2])
    def test_hop_leaving_one_frame_exit_code(self, tmp_path, capsys, threads):
        """A hop past the 8000-sample clips is a config error that names
        hop_samples, not an image error."""
        data = tmp_path / "data"
        rc, _, _ = run_cli(capsys, "toygen", "--set", "n_per_class=2", "--out", data)
        assert rc == 0
        out = tmp_path / "x.features"
        rc, _, err = run_cli(
            capsys, "extract", "--set", "image_size=64", "--set", "hop_samples=100000",
            "--threads", threads, "--data", data, "--out", out,
        )
        assert rc == 2
        assert "hop_samples 100000" in err
        assert not out.exists()

    @pytest.mark.parametrize("name", ["neg ", "neg,x"])
    def test_class_name_checked_before_decoding(self, tmp_path, capsys, monkeypatch, name):
        """A class directory name that experiment's report cannot hold is
        refused by extract (exit 3) before any clip is decoded, and no
        feature file is written."""
        data = tmp_path / "data"
        rc, _, _ = run_cli(capsys, "toygen", "--set", "n_per_class=2", "--out", data)
        assert rc == 0
        (data / "neg").rename(data / name)
        decoded = []
        real = store.read_wav

        def counted(*args, **kwargs):
            decoded.append(args[0])
            return real(*args, **kwargs)

        monkeypatch.setattr(store, "read_wav", counted)
        out = tmp_path / "x.features"
        rc, _, err = run_cli(capsys, "extract", "--data", data, "--out", out)
        assert rc == 3
        assert repr(name) in err
        assert decoded == []
        assert sorted(p.name for p in tmp_path.iterdir()) == ["data"]

    @pytest.mark.parametrize("threads", [1, 2])
    def test_corrupt_wav_mid_dataset_exit_code(self, tmp_path, capsys, threads):
        data = tmp_path / "data"
        rc, _, _ = run_cli(capsys, "toygen", "--set", "n_per_class=3", "--out", data)
        assert rc == 0
        bad = scan_dataset(data).entries[3][0]
        bad.write_bytes(b"RIFF\x00\x00\x00\x00JUNKJUNK")
        out = tmp_path / "x.features"
        rc, _, err = run_cli(
            capsys, "extract", "--set", "image_size=64", "--set", "filter_size=3",
            "--threads", threads, "--data", data, "--out", out,
        )
        assert rc == 3
        assert err.startswith("scenehog: data error: ")
        assert str(bad) in err
        assert not out.exists()

    def test_clips_shorter_than_one_segment_exit_code(self, toy_workspace, capsys, tmp_path):
        root, cfg_file = toy_workspace
        out = tmp_path / "x.features"
        rc, _, err = run_cli(
            capsys, "extract", "--config", cfg_file, "--set", "seg_seconds=2",
            "--data", root / "data", "--out", out,
        )
        assert rc == 2
        assert "no clips to extract" in err
        assert not out.exists()

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

    @pytest.mark.parametrize("reader", ["feature-hash", "labels", "report", "config"])
    def test_undecodable_bytes_exit_as_data_errors(self, toy_workspace, capsys, tmp_path, reader):
        """A byte that a reader cannot decode exits 3 with one line naming
        the file, not a traceback and exit 4."""
        root, cfg_file = toy_workspace
        feat, config = tmp_path / "toy.features", tmp_path / "run.cfg"
        copies = {
            "feature-hash": (feat, root / "toy.features"),
            "labels": (store.labels_path(feat), store.labels_path(root / "toy.features")),
            "report": (tmp_path / "report.txt", root / "report.txt"),
            "config": (config, cfg_file),
        }
        for copy, source in copies.values():
            copy.write_bytes(source.read_bytes())
        bad = copies[reader][0]
        data = bytearray(bad.read_bytes())
        # the first byte of the extraction hash, of a class name, of a line
        data[24 if reader == "feature-hash" else 0] = 0xFF
        bad.write_bytes(data)
        if reader == "report":
            argv = ["compare", "--report-a", bad, "--report-b", root / "report.txt"]
        else:
            argv = ["experiment", "--config", config, "--features", feat,
                    "--report", tmp_path / "out.txt"]
        rc, table, err = run_cli(capsys, *argv)
        assert rc == 3
        assert err.startswith("scenehog: data error: ")
        assert str(bad) in err
        assert len(err.strip().splitlines()) == 1
        assert table == {}

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

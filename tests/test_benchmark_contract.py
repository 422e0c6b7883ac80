"""The benchmark under perfbench/ reaches into the library by name.

It traces the functions listed in perfbench/layers.py, counts calls by
rebinding module attributes (perfbench/tracer.py) and checks that
calling the stages one by one reproduces extract_clips rows
(perfbench/worker.py).  These tests read those files and keep the
library on their side of that contract.
"""

import importlib
import importlib.util
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from scenehog import extract_clip, extract_clips, generate_toy, parse_config_file

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

SMALL = ["f_min_hz=80", "image_size=64", "filter_size=3", "cell_size=8", "n_per_class=2"]
MODES = {
    "marginalized": [],
    "grid": ["pooling=grid", "grid_freq=4", "grid_time=4"],
    "full": ["pooling=full"],
}


def load_perfbench(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def scenehog_module(name: str):
    return importlib.import_module(f"scenehog.{name}")


@pytest.mark.parametrize("mode", sorted(MODES))
def test_stage_chain_reproduces_extract_clip(mode):
    """The replay of perfbench/worker.py, written out: bit for bit equal."""
    tfr, hog, pooling = (scenehog_module(n) for n in ("tfr", "hog", "pooling"))
    cfg = parse_config_file(None, SMALL + MODES[mode])
    pool_cfg = cfg.pool_config()
    for clip in generate_toy(cfg):
        spectrum = tfr.cqt(clip, cfg.cqt_config(clip))
        image = tfr.to_image(np.abs(spectrum), size=cfg.image_size, db_floor=cfg.db_floor)
        filtered = tfr.mean_filter(image.pixels, cfg.filter_size)
        grid = hog.hog(filtered, cfg.hog_config())
        if cfg.pooling == "marginalized":
            row = pooling.pool_marginalized(grid, pool_cfg)
        elif cfg.pooling == "full":
            row = pooling.full_features(grid, pool_cfg)
        else:
            row = pooling.pool_grid(grid, cfg.grid_freq, cfg.grid_time, pool_cfg)
        vec, _ = extract_clip(clip, cfg)
        assert np.array_equal(row.values, vec.values)


@pytest.mark.parametrize("mode", sorted(MODES))
def test_worker_stage_check_passes(mode):
    worker = load_perfbench("worker")
    descriptor = SMALL + MODES[mode]
    cfg = parse_config_file(None, descriptor)
    clips = generate_toy(cfg)
    x = extract_clips(clips, cfg)[0]
    checks = []
    workload = SimpleNamespace(steps=[SimpleNamespace(descriptor=descriptor)])
    worker._check_stage_rows(workload, [(clips, x)], checks)
    assert checks == [("stage calls reproduce extract_clips rows", True)]


def test_traced_names_resolve():
    layers = load_perfbench("layers")
    for name in layers.REQUIRED + layers.POOLING:
        if "." not in name:  # a group of spans, named after its module
            scenehog_module(name)
            continue
        module, function = name.rsplit(".", 1)
        assert callable(getattr(scenehog_module(module), function)), name


def test_rebound_stage_functions_see_every_call():
    """extract_clip looks its stages up at call time, so a counter that
    rebinds the module attributes sees one call per stage."""
    tracer = load_perfbench("tracer")
    names = ("tfr.cqt", "tfr.to_image", "tfr.mean_filter", "hog.hog", "pooling.pool_grid")
    originals = {name: tracer._lookup(name) for name in names}
    try:
        counters = {name: tracer.CallCounter(name) for name in names}
        cfg = parse_config_file(None, SMALL + MODES["grid"])
        extract_clip(generate_toy(cfg)[0], cfg)
        assert {name: c.calls for name, c in counters.items()} == dict.fromkeys(names, 1)
    finally:
        for name, original in originals.items():
            tracer._rebind(tracer._lookup(name), original)

"""scripts/write_bench.py records whether src/ was committed when it ran."""

import importlib.util
import shutil
import subprocess
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "write_bench.py"


def load_write_bench():
    spec = importlib.util.spec_from_file_location("write_bench", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.skipif(shutil.which("git") is None, reason="needs git")
def test_src_uncommitted(tmp_path):
    write_bench = load_write_bench()
    assert write_bench.src_uncommitted(tmp_path) is None

    def git(*args):
        subprocess.run(
            ["git", "-c", "user.name=t", "-c", "user.email=t@t", *args],
            cwd=tmp_path, check=True, capture_output=True,
        )

    git("init", "-q")
    (tmp_path / "src").mkdir()
    (tmp_path / "src" / "a.py").write_text("A = 1\n")
    git("add", "-A")
    git("commit", "-q", "-m", "a")
    assert write_bench.src_uncommitted(tmp_path) is False
    (tmp_path / "notes.txt").write_text("outside src\n")
    assert write_bench.src_uncommitted(tmp_path) is False
    (tmp_path / "src" / "a.py").write_text("A = 2\n")
    assert write_bench.src_uncommitted(tmp_path) is True

"""The module-state check (``tools/check_module_state.py``) on the real
tree and on planted modules."""

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent


def _load_tool():
    spec = importlib.util.spec_from_file_location(
        "check_module_state", REPO / "tools" / "check_module_state.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tool = _load_tool()


def _plant(root: Path, source: str) -> Path:
    path = root / "core" / "planted.py"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(source)
    return path


def test_tree_is_clean():
    assert tool.find_module_state(REPO / "src" / "repro") == []


def test_cli_exit_code_clean():
    result = subprocess.run(
        [sys.executable, str(REPO / "tools" / "check_module_state.py")],
        capture_output=True, text=True,
    )
    assert result.returncode == 0, result.stdout


@pytest.mark.parametrize(
    "source, name",
    [
        ("_CACHE = {}\n", "_CACHE"),
        ("_SEEN: set = set()\n", "_SEEN"),
        ("import threading\n_TLS = threading.local()\n", "_TLS"),
        ("ROWS = [i for i in range(3)]\n", "ROWS"),
        ("try:\n    _X = []\nexcept ImportError:\n    pass\n", "_X"),
        ("_N = 0\n\ndef bump():\n    global _N\n    _N += 1\n", "_N"),
    ],
)
def test_planted_state_is_caught(tmp_path, source, name):
    _plant(tmp_path, source)
    problems = tool.find_module_state(tmp_path, allowlist={})
    assert len(problems) == 1
    assert problems[0].startswith("core/planted.py:")
    assert f"`{name}`" in problems[0]


def test_planted_dict_fails_the_cli(tmp_path):
    _plant(tmp_path, "_REGISTRY = {}\n")
    result = subprocess.run(
        [
            sys.executable, str(REPO / "tools" / "check_module_state.py"),
            "--root", str(tmp_path),
        ],
        capture_output=True, text=True,
    )
    assert result.returncode == 1
    assert "core/planted.py:1: mutable container `_REGISTRY`" in result.stdout


def test_immutable_module_values_pass(tmp_path):
    _plant(
        tmp_path,
        '__all__ = ["F"]\nF = (1, 2)\nG = frozenset({1})\nH = None\n'
        "def f():\n    cache = {}\n    return cache\n",
    )
    assert tool.find_module_state(tmp_path, allowlist={}) == []


def test_stale_allowlist_entry_reported(tmp_path):
    _plant(tmp_path, "X = 1\n")
    problems = tool.find_module_state(
        tmp_path, allowlist={("core/planted.py", "X"): "gone"}
    )
    assert problems == ["core/planted.py: allowlisted `X` no longer found"]

#!/usr/bin/env python
"""Flag module-level mutable state on the measurement path.

Campaign work runs on fleet threads and in worker processes that share
whatever a module keeps at top level, so a module-level container or a
``global`` rebinding is shared state between campaigns.  This check
walks the measurement-path packages and reports:

* module-level assignments of mutable containers: list, dict and set
  displays and comprehensions, and calls to ``list``/``dict``/``set``/
  ``bytearray``, the ``collections`` containers and ``threading.local``;
* ``global`` statements, which rebind module state from a function.

Each finding must be on :data:`ALLOWLIST` with a one-line reason, and
every allowlist entry must still match a finding, so the list cannot go
stale.

Usage::

    python tools/check_module_state.py [--root src/repro]

Exit code 0 when clean, 1 otherwise (all problems are listed).
"""

from __future__ import annotations

import argparse
import ast
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

__all__ = ["ALLOWLIST", "PACKAGES", "find_module_state", "main"]

#: packages under the root whose modules run campaign work
PACKAGES = (
    "core", "gpusim", "exec", "timesync", "stats", "clustering", "simtime",
    "cuda", "nvml",
)

#: (module path relative to the root, name) -> why the state is safe
ALLOWLIST = {
    ("exec/worker.py", "_WORKER_PAYLOAD"):
        "set once per worker process by the pool initializer",
    ("exec/worker.py", "_WORKER_SKELETON"):
        "per-process cache of immutable skeletons, cleared by the initializer",
    ("core/calibcache.py", "_LAST_RUN_STATS"):
        "diagnostic counters of the last run, copied on read and on write",
    ("core/phase3.py", "_SCRATCH"):
        "thread-local scratch buffers, one set per thread",
    ("core/axis.py", "AXES"): "constant registry, never mutated",
    ("gpusim/spec.py", "GPU_MODELS"): "constant table, never mutated",
    ("gpusim/arch_profiles.py", "_PROFILES"): "constant table, never mutated",
    ("gpusim/dvfs.py", "_RAMP_REMAINING"): "constant table, never mutated",
    ("core/csvio.py", "_FIELDS"): "constant CSV column list, never mutated",
}

_MUTABLE_CALLS = {
    "list", "dict", "set", "bytearray", "defaultdict", "OrderedDict",
    "Counter", "deque", "local",
}
_MUTABLE_NODES = (
    ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp,
)


def _is_mutable(value: "ast.expr | None") -> bool:
    if isinstance(value, _MUTABLE_NODES):
        return True
    if isinstance(value, ast.Call):
        func = value.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(
            func, "id", None
        )
        return name in _MUTABLE_CALLS
    return False


def _top_level(body):
    """Module-level statements, descending into if/try but not defs."""
    for node in body:
        yield node
        if isinstance(node, ast.If):
            yield from _top_level(node.body)
            yield from _top_level(node.orelse)
        elif isinstance(node, ast.Try):
            for block in (node.body, node.orelse, node.finalbody):
                yield from _top_level(block)
            for handler in node.handlers:
                yield from _top_level(handler.body)


def _module_findings(tree: ast.Module):
    """``(line, name, kind)`` for every piece of module state in ``tree``."""
    for node in _top_level(tree.body):
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign):
            targets, value = [node.target], node.value
        else:
            continue
        if not _is_mutable(value):
            continue
        for target in targets:
            if isinstance(target, ast.Name) and target.id != "__all__":
                yield node.lineno, target.id, "mutable container"
    for node in ast.walk(tree):
        if isinstance(node, ast.Global):
            for name in node.names:
                yield node.lineno, name, "global rebinding"


def find_module_state(root: Path, packages=PACKAGES, allowlist=ALLOWLIST):
    """Problems under ``root``: unlisted findings and stale allowlist entries."""
    problems = []
    seen = set()
    for package in packages:
        for path in sorted((root / package).rglob("*.py")):
            rel = path.relative_to(root).as_posix()
            tree = ast.parse(path.read_text(), filename=str(path))
            for line, name, kind in _module_findings(tree):
                seen.add((rel, name))
                if (rel, name) not in allowlist:
                    problems.append(f"{rel}:{line}: {kind} `{name}`")
    for rel, name in sorted(set(allowlist) - seen):
        problems.append(f"{rel}: allowlisted `{name}` no longer found")
    return problems


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--root", type=Path, default=REPO / "src" / "repro",
        help="package root holding the checked packages",
    )
    args = parser.parse_args(argv)
    problems = find_module_state(args.root)
    for problem in problems:
        print(problem)
    if problems:
        print(
            f"{len(problems)} module-state problem(s): move the state into "
            "an object, or allowlist it in tools/check_module_state.py "
            "with a reason"
        )
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

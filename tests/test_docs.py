"""The documentation system's tier-1 gates.

Everything the CI ``docs`` job enforces also runs here, so a PR cannot
break the docs build without breaking the test suite: the markdown
tree builds, every relative link and anchor resolves, ``docs/cli.md``
names every parser flag, the events ordering contract is word-for-word
identical to the :mod:`repro.core.stream` docstring, every code path and
``repro.*`` name the docs mention exists, and the service package keeps
100% public docstring coverage.
"""

import importlib.util
import re
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
DOCS = REPO / "docs"


def _load_tool(name):
    spec = importlib.util.spec_from_file_location(
        name, REPO / "tools" / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


docbuild = _load_tool("docbuild")
docstring_coverage = _load_tool("docstring_coverage")


class TestDocsBuild:
    def test_docbuild_builds_and_checks_clean(self, tmp_path):
        result = subprocess.run(
            [sys.executable, "tools/docbuild.py", "--out", str(tmp_path)],
            cwd=REPO,
            capture_output=True,
            text=True,
            env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"},
        )
        assert result.returncode == 0, result.stderr
        assert (tmp_path / "index.html").is_file()
        assert (tmp_path / "design" / "passblock.html").is_file()

    def test_no_broken_links_or_anchors(self):
        sources = sorted(DOCS.rglob("*.md")) + [REPO / "DESIGN.md"]
        pages = {path: path.read_text() for path in sources}
        assert docbuild.check_links(pages) == []

    def test_rendered_html_rewrites_md_links(self):
        html = docbuild.render_markdown(
            "see [events](events.md#sinks) and [the web](https://x.org)"
        )
        assert 'href="events.html#sinks"' in html
        assert 'href="https://x.org"' in html

    def test_heading_slugs_match_github_style(self):
        text = "## The interrupt contract of `CsvStreamSink`"
        assert docbuild.collect_anchors(text) == {
            "the-interrupt-contract-of-csvstreamsink"
        }


class TestEventsContract:
    def test_contract_is_verbatim_from_stream_docstring(self):
        events_md = (DOCS / "events.md").read_text()
        assert docbuild.check_events_contract(events_md) == []

    def test_drifted_contract_is_caught(self):
        events_md = (DOCS / "events.md").read_text()
        drifted = events_md.replace(
            "precedes everything", "mostly precedes everything"
        )
        assert drifted != events_md  # the phrase is really in the page
        assert docbuild.check_events_contract(drifted)


class TestCliReference:
    def test_every_parser_flag_is_documented(self):
        cli_md = (DOCS / "cli.md").read_text()
        assert docbuild.check_cli_flags(cli_md) == []

    def test_missing_flag_is_caught(self):
        cli_md = (DOCS / "cli.md").read_text().replace("--pass-block", "")
        errors = docbuild.check_cli_flags(cli_md)
        assert any("--pass-block" in error for error in errors)


class TestCodeReferences:
    def test_stale_reference_is_caught(self):
        text = (
            "See `exec/soa.py`, `exec/daemon.py::WarmPool` and "
            "`repro.exec.pool.WarmPool`.\n"
        )
        errors = docbuild.check_code_refs({DOCS / "architecture.md": text})
        assert len(errors) == 2
        assert any("exec/soa.py" in error for error in errors)
        assert any("repro.exec.pool" in error for error in errors)
        # The changelog records deleted code on purpose.
        assert docbuild.check_code_refs({DOCS / "changelog.md": text}) == []


class TestDocstringCoverage:
    def test_service_and_stream_are_fully_documented(self):
        result = subprocess.run(
            [
                sys.executable,
                "tools/docstring_coverage.py",
                "src/repro/service",
                "src/repro/core/stream.py",
                "--min",
                "100",
            ],
            cwd=REPO,
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0, result.stdout + result.stderr

    def test_missing_docstring_detected(self, tmp_path):
        bare = tmp_path / "bare.py"
        bare.write_text('"""Module."""\n\ndef undocumented():\n    pass\n')
        coverage = docstring_coverage.measure_file(bare)
        assert coverage.total == 2
        assert coverage.documented == 1
        assert "undocumented" in coverage.missing[0]

    def test_private_and_nested_defs_excluded(self, tmp_path):
        source = tmp_path / "mod.py"
        source.write_text(
            '"""Module."""\n'
            "def _private():\n    pass\n"
            "def public():\n"
            '    """Doc."""\n'
            "    def inner():\n        pass\n"
        )
        coverage = docstring_coverage.measure_file(source)
        assert coverage.total == 2  # module + public()
        assert coverage.documented == 2


class TestChangelogAndStubs:
    def test_changelog_has_anchor_per_pr_line(self):
        changelog = (DOCS / "changelog.md").read_text()
        changes = (REPO / "CHANGES.md").read_text()
        numbers = {
            int(m.group(1))
            for m in re.finditer(r"(?m)^PR (\d+):", changes)
        }
        assert numbers  # CHANGES.md still carries the per-PR log
        for n in sorted(numbers):
            assert f'<a id="pr-{n}"></a>' in changelog, f"pr-{n} anchor"

    def test_design_stub_points_at_every_design_page(self):
        stub = (REPO / "DESIGN.md").read_text()
        pages = sorted((DOCS / "design").glob("*.md"))
        assert len(pages) > 10
        for page in pages:
            if page.name == "index.md":
                continue
            assert f"docs/design/{page.name}" in stub, page.name

    def test_docs_tree_is_complete(self):
        for required in (
            "index.md",
            "architecture.md",
            "service.md",
            "events.md",
            "cli.md",
            "changelog.md",
            "design/index.md",
        ):
            assert (DOCS / required).is_file(), required

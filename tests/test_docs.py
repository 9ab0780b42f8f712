"""Docs stay truthful: links resolve, the promised files exist, and
every ``repro.…`` name they cite is real API."""

import os
import sys

from repro.utils.docs import (broken_intra_repo_links, iter_markdown_links,
                              markdown_files)

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "tools"))
from check_docs import unknown_cli_flags, unresolved_names  # noqa: E402


def test_docs_files_exist():
    for required in ("README.md", "docs/ARCHITECTURE.md",
                     "docs/EXPERIMENTS.md"):
        assert os.path.exists(os.path.join(REPO_ROOT, required)), required


def test_markdown_files_found():
    names = {os.path.basename(p) for p in markdown_files(REPO_ROOT)}
    assert {"README.md", "ARCHITECTURE.md", "EXPERIMENTS.md"} <= names


def test_iter_markdown_links_parses_inline_links():
    text = ("See [the docs](docs/ARCHITECTURE.md) and "
            "[section](README.md#running).\n"
            "```\n[not a link](ignored.md) inside a fence\n```\n"
            "External [site](https://example.com) too.")
    assert list(iter_markdown_links(text)) == [
        "docs/ARCHITECTURE.md", "README.md#running", "https://example.com"]


def test_no_broken_intra_repo_links():
    broken = broken_intra_repo_links(REPO_ROOT)
    assert broken == [], f"broken markdown links: {broken}"


def test_docs_name_only_existing_repro_api():
    missing = unresolved_names(REPO_ROOT, markdown_files(REPO_ROOT))
    assert missing == [], f"docs name missing API: {missing}"


def test_unresolved_name_reported_with_file_and_line(tmp_path):
    doc = tmp_path / "API.md"
    doc.write_text("`repro.dist.sync.pull` and `repro.nn.dtypes` resolve;\n"
                   "`repro.utils.rng.no_such_helper` and "
                   "`repro.no_such_module` do not.\n", encoding="utf-8")
    assert unresolved_names(str(tmp_path), [str(doc)]) == [
        ("API.md", 2, "repro.utils.rng.no_such_helper"),
        ("API.md", 2, "repro.no_such_module")]


def test_docs_name_only_existing_cli_commands_and_options():
    unknown = unknown_cli_flags(REPO_ROOT, markdown_files(REPO_ROOT))
    assert unknown == [], f"docs name missing CLI: {unknown}"


def test_unknown_cli_flag_reported_with_file_and_line(tmp_path):
    doc = tmp_path / "CLI.md"
    doc.write_text(
        "Run `repro generate mnist --no-such-flag`, or\n"
        "`python -m repro --scale smoke fuzz mnist --rounds=2`.\n"
        "\n"
        "```sh\n"
        "PYTHONPATH=src python -m repro --no-such-global generate mnist\n"
        "python -m repro fuzz mnist --corpus ./c \\\n"
        "    --workers 2 --bogus 3   # a comment's --flag is not checked\n"
        "repro no-such-command --workers 2\n"
        "repro corpus info ./c && repro corpus merge --typo a b\n"
        "repro serve --root r & repro submit --root r --store s [--wait]\n"
        "```\n"
        "\n"
        "A wrapped span: `repro generate\n"
        "--wrapped-typo`; prose repro --not-code is not code.\n",
        encoding="utf-8")
    assert unknown_cli_flags(str(tmp_path), [str(doc)]) == [
        ("CLI.md", 1, "repro generate --no-such-flag"),
        ("CLI.md", 5, "repro --no-such-global"),
        ("CLI.md", 7, "repro fuzz --bogus"),
        ("CLI.md", 8, "repro no-such-command"),
        ("CLI.md", 9, "repro corpus merge --typo"),
        ("CLI.md", 14, "repro generate --wrapped-typo")]

#!/usr/bin/env python
"""CI docs check: intra-repo links resolve and named API exists.

Scans README.md and docs/*.md for two kinds of rot:

* relative links pointing at missing files;
* backticked dotted ``repro.…`` names (e.g. `repro.dist.sync.pull`)
  that do not resolve: the longest importable module prefix is
  imported, then the rest is looked up with ``getattr``.

Exit code 1 (with a per-item report) on any broken link or name.

Run:  PYTHONPATH=src python tools/check_docs.py
"""

import importlib
import os
import re
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))

from repro.utils.docs import broken_intra_repo_links, markdown_files  # noqa: E402

_DOTTED_NAME = re.compile(r"`(repro(?:\.[A-Za-z_][A-Za-z0-9_]*)+)`")


def resolves(name):
    """True when dotted ``name`` is a module or an attribute path off
    its longest importable module prefix."""
    parts = name.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attr in parts[cut:]:
            if not hasattr(obj, attr):
                return False
            obj = getattr(obj, attr)
        return True
    return False


def unresolved_names(root, files):
    """``(file, line, name)`` for each backticked ``repro.…`` name that
    does not resolve."""
    missing = []
    for path in files:
        with open(path, encoding="utf-8") as handle:
            for lineno, line in enumerate(handle, start=1):
                for name in _DOTTED_NAME.findall(line):
                    if not resolves(name):
                        missing.append((os.path.relpath(path, root),
                                        lineno, name))
    return missing


def main():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    files = markdown_files(root)
    broken = broken_intra_repo_links(root, files=files)
    missing = unresolved_names(root, files)
    print(f"checked {len(files)} markdown files")
    for source, target in broken:
        print(f"BROKEN  {source}: ({target})")
    for source, lineno, name in missing:
        print(f"MISSING {source}:{lineno}: `{name}`")
    if broken or missing:
        return 1
    print("all intra-repo links resolve; every named repro API exists")
    return 0


if __name__ == "__main__":
    sys.exit(main())

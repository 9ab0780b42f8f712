#!/usr/bin/env python
"""CI docs check: intra-repo links resolve, named API and CLI exist.

Scans README.md and docs/*.md for three kinds of rot:

* relative links pointing at missing files;
* backticked dotted ``repro.…`` names (e.g. `repro.dist.sync.pull`)
  that do not resolve: the longest importable module prefix is
  imported, then the rest is looked up with ``getattr``;
* ``repro …`` invocations (``python -m repro …`` included), in inline
  code and fenced blocks, whose command or option the parser from
  ``repro.cli.build_parser()`` does not define.  Global options may
  precede the command; an option must be spelled in full.

Exit code 1 (with a per-item report) on any broken link, name or flag.

Run:  PYTHONPATH=src python tools/check_docs.py
"""

import argparse
import importlib
import os
import re
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))

from repro.cli import build_parser  # noqa: E402
from repro.utils.docs import broken_intra_repo_links, markdown_files  # noqa: E402

_DOTTED_NAME = re.compile(r"`(repro(?:\.[A-Za-z_][A-Za-z0-9_]*)+)`")
_FENCE = re.compile(r"^\s*(```|~~~)")
_CODE_SPAN = re.compile(r"`([^`]+)`")
#: What ends a shell command's arguments: operators and redirections.
_SHELL_BREAKS = {"|", "||", "&", "&&", ";", ">", ">>", "<", "2>&1"}
#: A word that can only be a (sub)command name, not a placeholder.
_COMMAND_WORD = re.compile(r"[a-z][a-z0-9-]*")
_NUMBER = re.compile(r"-[0-9.]+")


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


def _span_tokens(paragraph):
    """Tokens of each inline code span in one prose ``paragraph`` (a
    list of ``(line number, line)``), each token with its line."""
    first = paragraph[0][0]
    text = "\n".join(line for _, line in paragraph)
    for match in _CODE_SPAN.finditer(text):
        line = first + text.count("\n", 0, match.start(1))
        yield [(token, line + offset)
               for offset, piece in enumerate(match.group(1).split("\n"))
               for token in piece.split()]


def code_tokens(text):
    """Each piece of code in markdown ``text`` as ``(token, line)``
    pairs: a fenced line joined with the lines its trailing backslash
    continues, or an inline code span (which may wrap)."""
    in_fence, pending, paragraph = False, [], []
    for lineno, line in enumerate(text.split("\n"), start=1):
        # A fence, or a blank line outside one, ends a prose paragraph.
        if _FENCE.match(line) or not (in_fence or line.strip()):
            if paragraph:
                yield from _span_tokens(paragraph)
                paragraph = []
            in_fence ^= bool(_FENCE.match(line))
        elif in_fence:
            body = line.rstrip()
            pending += [(token, lineno)
                        for token in body.rstrip("\\").split()]
            if not body.endswith("\\"):
                yield pending
                pending = []
        else:
            paragraph.append((lineno, line))
    if paragraph:
        yield from _span_tokens(paragraph)


def _subcommands(parser):
    """``{name: subparser}`` of ``parser``'s commands, or ``None``."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            return action.choices
    return None


def unknown_cli_words(parser, args):
    """``(line, "repro … word")`` for each command or option in one
    invocation's ``args`` (``(token, line)`` pairs after ``repro``)
    that ``parser`` does not define."""
    path, i = ["repro"], 0
    while i < len(args):
        token, line = args[i]
        i += 1
        word = token.strip("[]")
        if word.startswith("-") and not _NUMBER.fullmatch(word):
            action = parser._option_string_actions.get(word.split("=")[0])
            if action is None:
                yield line, " ".join(path + [word])
            elif "=" not in word and action.nargs != 0:
                i += 1          # the option's value
            continue
        commands = _subcommands(parser)
        if commands is None:
            continue            # a positional argument
        if not _COMMAND_WORD.fullmatch(word):
            return              # a placeholder: the command is unknown
        if word not in commands:
            yield line, " ".join(path + [word])
            return
        parser = commands[word]
        path.append(word)


def unknown_cli_flags(root, files):
    """``(file, line, "repro … word")`` for each ``repro`` command or
    option in the docs' code that the CLI does not define."""
    parser = build_parser()
    unknown = []
    for path in files:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
        for tokens in code_tokens(text):
            for start, (token, _) in enumerate(tokens):
                if token != "repro":
                    continue
                args = []
                for arg in tokens[start + 1:]:
                    if arg[0] in _SHELL_BREAKS or arg[0].startswith("#"):
                        break
                    args.append(arg)
                unknown += [(os.path.relpath(path, root), line, words)
                            for line, words in unknown_cli_words(parser,
                                                                 args)]
    return unknown


def main():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    files = markdown_files(root)
    broken = broken_intra_repo_links(root, files=files)
    missing = unresolved_names(root, files)
    flags = unknown_cli_flags(root, files)
    print(f"checked {len(files)} markdown files")
    for source, target in broken:
        print(f"BROKEN  {source}: ({target})")
    for source, lineno, name in missing:
        print(f"MISSING {source}:{lineno}: `{name}`")
    for source, lineno, words in flags:
        print(f"FLAG {source}:{lineno}: {words}")
    if broken or missing or flags:
        return 1
    print("all intra-repo links resolve; every named repro API, command "
          "and option exists")
    return 0


if __name__ == "__main__":
    sys.exit(main())

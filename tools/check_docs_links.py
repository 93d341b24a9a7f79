#!/usr/bin/env python3
"""Link-check and lightweight lint for the repo's markdown tree.

Run from anywhere: paths are resolved relative to the repo root (the
parent of this script's directory). Checks every tracked-looking *.md at
the repo root and under docs/:

  * every relative markdown link/image target exists (anchors stripped);
  * no link target is an absolute filesystem path;
  * no empty link targets `[text]()`;
  * fenced code blocks are balanced (an odd number of ``` fences usually
    means a swallowed section).

It also checks the knob inventory: the quoted "HLP_*" string literals in
the C++ sources under src/ and tools/ must name exactly the variables
that have a row in the docs/env-vars.md table, so a stale row or an
undocumented knob fails.

Exits non-zero with one line per problem, so CI fails loudly.
"""

import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
LINK_RE = re.compile(r"!?\[[^\]]*\]\(([^)\s]*)\)")
SCHEMES = ("http://", "https://", "mailto:", "ftp://")
KNOB_RE = re.compile(r'"(HLP_[A-Z0-9_]+)"')
KNOB_ROW_RE = re.compile(r"^\| `(HLP_[A-Z0-9_]+)` \|", re.MULTILINE)
ENV_DOC = REPO / "docs" / "env-vars.md"


def md_files():
    yield from sorted(REPO.glob("*.md"))
    yield from sorted((REPO / "docs").glob("*.md"))


def check_file(path: Path):
    problems = []
    text = path.read_text(encoding="utf-8")
    rel = path.relative_to(REPO)

    if text.count("```") % 2 != 0:
        problems.append(f"{rel}: unbalanced ``` code fences")

    for m in LINK_RE.finditer(text):
        target = m.group(1)
        line = first_line(text, m.start())
        if target.startswith(SCHEMES) or target.startswith("#"):
            continue
        if not target:
            problems.append(f"{rel}:{line}: empty link target")
            continue
        if target.startswith("/"):
            problems.append(
                f"{rel}:{line}: absolute path link '{target}' (use a "
                "repo-relative path)")
            continue
        plain = target.split("#", 1)[0]
        if not plain:
            continue
        if not (path.parent / plain).exists():
            problems.append(f"{rel}:{line}: broken link '{target}'")
    return problems


def first_line(text: str, pos: int) -> int:
    return text.count("\n", 0, pos) + 1


def check_knobs():
    """One problem per HLP_* name found on only one side of the inventory."""
    read = {}
    for top in ("src", "tools"):
        for path in sorted((REPO / top).rglob("*")):
            if path.suffix not in (".cpp", ".hpp", ".h"):
                continue
            text = path.read_text(encoding="utf-8")
            for m in KNOB_RE.finditer(text):
                where = f"{path.relative_to(REPO)}:{first_line(text, m.start())}"
                read.setdefault(m.group(1), where)
    doc = ENV_DOC.read_text(encoding="utf-8")
    rows = {m.group(1): first_line(doc, m.start())
            for m in KNOB_ROW_RE.finditer(doc)}
    rel = ENV_DOC.relative_to(REPO)
    problems = [f"{where}: {name} is read but has no row in {rel}"
                for name, where in sorted(read.items()) if name not in rows]
    problems += [f"{rel}:{line}: {name} has a row but nothing under src/ or "
                 "tools/ reads it"
                 for name, line in sorted(rows.items()) if name not in read]
    return problems


def main():
    files = list(md_files())
    if not files:
        print("check_docs_links: no markdown files found", file=sys.stderr)
        return 1
    problems = check_knobs()
    for path in files:
        problems.extend(check_file(path))
    for p in problems:
        print(p, file=sys.stderr)
    print(f"check_docs_links: {len(files)} files, {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

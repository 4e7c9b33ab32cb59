#!/usr/bin/env python3
"""Documentation gate: the docs tree must stay reachable, link-clean and
true to the backend spec syntax.

Three checks, run by ``scripts/check.sh`` and CI:

1. **Reachability** — every ``docs/*.md`` file is referenced (linked) from
   ``README.md``, so no deep dive can silently fall off the front page.
2. **No dead intra-repo links** — every relative markdown link in
   ``README.md`` and ``docs/*.md`` resolves to an existing file or
   directory (external ``http(s)://`` links and pure ``#fragment`` links
   are out of scope).
3. **Buildable backend specs** — every concrete ``symex<...>`` spec quoted
   in ``README.md`` and ``docs/*.md`` builds with ``make_backend``, so a
   removed or renamed key cannot survive in an example.

Exits non-zero with one line per violation.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.verification import BackendSpecError, make_backend  # noqa: E402

#: Markdown inline links: [text](target).  Reference-style links are not
#: used in this repo; images share the same syntax and are checked too.
_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")

#: A quoted symex backend spec with parameters.
_SYMEX_SPEC = re.compile(r"symex<[^<>\s]*>")


def _links(path: Path) -> list:
    return _LINK.findall(path.read_text(encoding="utf-8"))


def _is_external(target: str) -> bool:
    return target.startswith(("http://", "https://", "mailto:", "#"))


def main() -> int:
    readme = REPO_ROOT / "README.md"
    docs_dir = REPO_ROOT / "docs"
    problems: list = []

    doc_files = sorted(docs_dir.glob("*.md")) if docs_dir.is_dir() else []
    if not doc_files:
        problems.append("docs/: no markdown files found")

    # 1. Every docs/*.md is referenced from the README.
    readme_targets = {target.split("#", 1)[0]
                      for target in _links(readme)
                      if not _is_external(target)}
    for doc in doc_files:
        relative = doc.relative_to(REPO_ROOT).as_posix()
        if relative not in readme_targets:
            problems.append(f"README.md: docs file '{relative}' is never "
                            f"referenced")

    # 2. No dead intra-repo links in README + docs.
    for source in [readme] + doc_files:
        for target in _links(source):
            if _is_external(target):
                continue
            path_part = target.split("#", 1)[0]
            if not path_part:
                continue
            resolved = (source.parent / path_part).resolve()
            if not resolved.exists():
                name = source.relative_to(REPO_ROOT).as_posix()
                problems.append(f"{name}: dead link '{target}'")

    # 3. Every concrete symex spec in README + docs builds.
    for source in [readme] + doc_files:
        text = source.read_text(encoding="utf-8")
        for spec in sorted(set(_SYMEX_SPEC.findall(text))):
            try:
                make_backend(spec)
            except BackendSpecError as exc:
                name = source.relative_to(REPO_ROOT).as_posix()
                problems.append(f"{name}: spec '{spec}' does not build: "
                                f"{exc}")

    for problem in problems:
        print(f"check_docs: {problem}", file=sys.stderr)
    if problems:
        return 1
    checked = len(doc_files) + 1
    print(f"check_docs: {checked} files checked, all docs referenced from "
          f"README, no dead intra-repo links, every symex spec builds")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

#!/usr/bin/env python3
"""Fail when a library header under src/iq/ has no user.

A header is an orphan when nothing in src/, bench/, examples/ or
perfbench/ includes it except its own .cpp. Such a module exists only for
its own tests, which is not a reason to keep it.

The check sees #include edges only. Symbol-level dead code passes
unnoticed: a class nobody uses inside a header somebody includes, such as
the old net::Tracer, whose header link.hpp included.

Usage: python3 scripts/check_orphan_headers.py
Exit status 1 lists the orphans, one per line.
"""

import pathlib
import re
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
USER_DIRS = ("src", "bench", "examples", "perfbench")
INCLUDE = re.compile(r'^\s*#\s*include\s+"(iq/[^"]+)"', re.MULTILINE)


def main() -> int:
    includers: dict[str, set[pathlib.Path]] = {}
    for top in USER_DIRS:
        for path in (ROOT / top).rglob("*.[ch]pp"):
            for header in INCLUDE.findall(path.read_text()):
                includers.setdefault(header, set()).add(path)

    src = ROOT / "src"
    orphans = [
        header.relative_to(src).as_posix()
        for header in sorted(src.glob("iq/**/*.hpp"))
        if not includers.get(header.relative_to(src).as_posix(), set())
        - {header.with_suffix(".cpp")}
    ]
    for orphan in orphans:
        print(f"orphan header (no includer outside its own .cpp): src/{orphan}")
    return 1 if orphans else 0


if __name__ == "__main__":
    sys.exit(main())

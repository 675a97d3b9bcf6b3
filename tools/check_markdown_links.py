#!/usr/bin/env python3
"""Docs lint: fail on dead relative links and dead anchors in the repo's
Markdown files.

Scans every tracked *.md (skipping build trees) for inline Markdown links
and checks that relative targets exist on disk. External links (http/https/
mailto) are skipped. A #fragment must match a heading anchor: of the target
file when it is a .md file, of the linking file for an in-page link (#...).
Fragments on links to other files (source lines, images) are not checked.

Heading anchors follow GitHub's slug rules: the heading text with inline
links reduced to their text, lowercased, every character other than a
letter, digit, space, '-' or '_' dropped, each space turned into '-', and
'-1', '-2', ... appended to repeats. Lines inside fenced code blocks are
neither headings nor links.

Usage: check_markdown_links.py [repo_root]
Exit code 0 when every relative link and anchor resolves, 1 otherwise (one
line per dead link: file:line: target).
"""
import functools
import os
import re
import sys

SKIP_DIRS = {".git", "build", "third_party", "node_modules", "__pycache__"}

# Inline links [text](target). Images use the same tail. Reference-style
# definitions are rare in this repo and intentionally out of scope.
LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)(?:\s+\"[^\"]*\")?\)")
HEADING_RE = re.compile(r"^ {0,3}#{1,6}[ \t]+(.*?)(?:[ \t]+#+)?[ \t]*$")
INLINE_LINK_RE = re.compile(r"!?\[([^\]]*)\]\([^)]*\)")


def markdown_files(root):
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = [
            d for d in dirnames if d not in SKIP_DIRS and not d.startswith("build")
        ]
        for name in sorted(filenames):
            if name.endswith(".md"):
                yield os.path.join(dirpath, name)


def unfenced_lines(path):
    """Yields (line_no, line) for every line outside fenced code blocks."""
    with open(path, encoding="utf-8") as f:
        in_fence = False
        for line_no, line in enumerate(f, start=1):
            if line.lstrip().startswith("```"):
                in_fence = not in_fence
                continue
            if not in_fence:
                yield line_no, line


def slugify(heading):
    text = INLINE_LINK_RE.sub(r"\1", heading).strip().lower()
    text = re.sub(r"[^\w\- ]", "", text)
    return text.replace(" ", "-")


@functools.lru_cache(maxsize=None)
def heading_anchors(path):
    anchors = set()
    seen = {}
    for _, line in unfenced_lines(path):
        match = HEADING_RE.match(line.rstrip("\n"))
        if not match:
            continue
        slug = slugify(match.group(1))
        count = seen.get(slug, 0)
        seen[slug] = count + 1
        anchors.add(slug if count == 0 else f"{slug}-{count}")
    return anchors


def check_file(path, root):
    dead = []
    for line_no, line in unfenced_lines(path):
        for match in LINK_RE.finditer(line):
            target = match.group(1)
            if target.startswith(("http://", "https://", "mailto:")):
                continue
            target_path, _, fragment = target.partition("#")
            if not target_path:
                resolved = path
            elif target_path.startswith("/"):
                resolved = os.path.join(root, target_path.lstrip("/"))
            else:
                resolved = os.path.join(os.path.dirname(path), target_path)
            if not os.path.exists(resolved):
                dead.append((line_no, target, "dead relative link"))
            elif (fragment and resolved.endswith(".md")
                  and fragment not in heading_anchors(os.path.normpath(resolved))):
                dead.append((line_no, target, "dead anchor"))
    return dead


def main():
    root = os.path.abspath(sys.argv[1] if len(sys.argv) > 1 else ".")
    failures = 0
    checked = 0
    for path in markdown_files(root):
        checked += 1
        for line_no, target, what in check_file(path, root):
            rel = os.path.relpath(path, root)
            print(f"{rel}:{line_no}: {what}: {target}")
            failures += 1
    print(f"checked {checked} markdown files, {failures} dead links")
    return 0 if failures == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

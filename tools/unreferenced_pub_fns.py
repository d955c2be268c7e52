#!/usr/bin/env python3
"""Fail when a `pub fn` is named in no file but its own.

A word-match scan over the `.rs` files under `crates/`, `tests/` and
`examples/`: a `pub fn` counts as referenced when its name appears as a
whole word in the code of any other of those files or of `perfbench/src`.
Comment text is not code, so a word in prose does not count; the code in
a doc comment's Rust fence does, since doc-tests compile as outside
callers. A `pub use` re-export is not a reference, since it only passes
the name on, and neither is a name inside a column-0 `#[cfg(test)]` item
of a `src` file: a function that only unit tests call is not part of the
program. The benchmark's own functions are not checked; its files only
count as references. Run from the repository root:

    python3 tools/unreferenced_pub_fns.py

Exit status 1 lists each unreferenced function as `path:line`.
"""

import pathlib
import re
import sys

# Deliberate API that no other file names yet: function name -> reason.
ALLOWLIST = {
    "activation_maximization": "tutorial 4.2 feature visualisation, tested in its own file",
    "threshold_equal_opportunity": "tutorial 4.1 equal-opportunity post-processing, tested in its own file",
    "equal_opportunity_diff": "tutorial 4.1 equal-opportunity gap, the one threshold_equal_opportunity closes",
    "approx_eq": "tolerance comparison shared by unit tests across the workspace",
    "encode": "HuffmanCode's bit stream, whose round trip through decode makes E1's Huffman sizes lossless",
}

CHECKED = ("crates", "tests", "examples")
REFERENCE_ONLY = ("perfbench/src",)
PUB_FN = re.compile(r"^\s*pub\s+(?:const\s+|async\s+|unsafe\s+)*fn\s+(\w+)", re.M)
WORD = re.compile(r"\w+")
PUB_USE = re.compile(r"^\s*pub(?:\([^)]*\))?\s+use\b[^;]*;", re.M)
# A column-0 `#[cfg(test)]` item: one line ending in `;`, or a block that
# runs to the next column-0 `}` (the workspace is rustfmt-clean).
CFG_TEST_ITEM = re.compile(r"^#\[cfg\(test\)\]\n(?:[^\n]*;$|.*?^\}$)", re.M | re.S)
# Tokens a comment scan must step over whole: strings (raw or not) and
# char literals, so a `//` or `/*` inside one starts no comment.
STRING = re.compile(r'b?r(#*)".*?"\1|b?"(?:[^"\\]|\\.)*"', re.S)
CHAR = re.compile(r"b?'(?:[^'\\\n]|\\(?:x[0-9a-fA-F]{2}|u\{[0-9a-fA-F]+\}|.))'")
DOC_LINE = re.compile(r"//[/!](?!/)\s?(.*)")
# Fence info strings rustdoc compiles as a doc-test.
DOCTEST_INFO = ("", "rust", "no_run", "should_panic")


def rust_files(root):
    return [p for p in sorted(pathlib.Path(root).rglob("*.rs")) if "target" not in p.parts]


def code_only(text):
    """`text` without its comments, keeping line breaks and the code of
    doc-test fences."""
    out = []
    i, n = 0, len(text)
    in_doctest = in_fence = False
    while i < n:
        if text.startswith("//", i):
            end = text.find("\n", i)
            end = n if end < 0 else end
            doc = DOC_LINE.match(text, i, end)
            if doc and doc.group(1).lstrip().startswith("```"):
                in_fence = not in_fence
                info = doc.group(1).lstrip()[3:].strip()
                in_doctest = in_fence and info.split(",")[0] in DOCTEST_INFO
            elif doc and in_doctest:
                out.append(doc.group(1))
            i = end
        elif text.startswith("/*", i):
            depth, i = 1, i + 2
            while i < n and depth:
                if text.startswith("/*", i):
                    depth, i = depth + 1, i + 2
                elif text.startswith("*/", i):
                    depth, i = depth - 1, i + 2
                else:
                    out.append("\n" if text[i] == "\n" else "")
                    i += 1
        else:
            prev_word = i > 0 and (text[i - 1].isalnum() or text[i - 1] == "_")
            token = None if prev_word else STRING.match(text, i) or CHAR.match(text, i)
            end = token.end() if token else i + 1
            out.append(text[i:end])
            i = end
    return "".join(out)


def references(path, text):
    """The part of `text` whose words count as references."""
    text = code_only(text)
    if "src" in path.parts:
        text = CFG_TEST_ITEM.sub("", text)
    return PUB_USE.sub("", text)


def main():
    files = {p: p.read_text() for root in CHECKED + REFERENCE_ONLY for p in rust_files(root)}
    named_in = {}
    for path, text in files.items():
        for word in set(WORD.findall(references(path, text))):
            named_in.setdefault(word, set()).add(path)
    hits = []
    checked = 0
    for path, text in files.items():
        if path.parts[0] not in CHECKED:
            continue
        for m in PUB_FN.finditer(text):
            checked += 1
            name = m.group(1)
            if name in ALLOWLIST or named_in.get(name, set()) - {path}:
                continue
            line = text.count("\n", 0, m.start()) + 1
            hits.append(f"{path}:{line}: pub fn {name} is named in no other file")
    if hits:
        print("\n".join(hits))
        print(
            f"{len(hits)} unreferenced pub fn(s): make each private, delete it, "
            f"or allowlist it in {sys.argv[0]} with a reason"
        )
        return 1
    print(f"ok: all {checked} pub fns outside perfbench/ are named in another file")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Line counts of the package under src/, per module, by the tokenizer.

Each line is counted once: as blank if it holds only whitespace (inside a
docstring too), else as code if any token on it is code, else as a
docstring/comment line, which a comment or a docstring (a string that is a
statement of its own) covers.

    python tools/src_lines.py [ROOT] [--base REV]    # ROOT defaults to src/

With --base, REV is a git revision or a checkout directory, as in
tools/drift.py (a revision's src/ is exported, so ROOT must lie in src/).
Each cell then reads REV's count -> this checkout's (the change), per
module and in total; a module in one tree only counts 0 in the other.
"""

import argparse
import io
import os
import pathlib
import sys
import tempfile
import tokenize

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from drift import REPO, _tree  # noqa: E402

KINDS = ("total", "code", "doc_comment", "blank")
_LAYOUT = {tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENCODING, tokenize.ENDMARKER}


def count(source: str) -> dict[str, int]:
    code, doc = set(), set()
    tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    prev = tokenize.NEWLINE  # the last token that is neither NL nor a comment
    for tok, nxt in zip(tokens, tokens[1:] + tokens[-1:]):
        lines = range(tok.start[0], tok.end[0] + 1)
        if tok.type == tokenize.COMMENT:
            doc.update(lines)
        elif (tok.type == tokenize.STRING and prev in _LAYOUT
              and nxt.type in (tokenize.NEWLINE, tokenize.ENDMARKER)):
            doc.update(lines)
        elif tok.type not in _LAYOUT:
            code.update(lines)
        if tok.type not in (tokenize.NL, tokenize.COMMENT):
            prev = tok.type
    kinds = dict.fromkeys(KINDS, 0)
    for n, line in enumerate(source.splitlines(), 1):
        kinds["total"] += 1
        if not line.strip():
            kinds["blank"] += 1
        elif n in code or n not in doc:
            kinds["code"] += 1
        else:
            kinds["doc_comment"] += 1
    return kinds


def table(root: pathlib.Path) -> dict[str, dict[str, int]]:
    """The counts of each module under root, and their total."""
    rows = {str(p.relative_to(root)): count(p.read_text()) for p in sorted(root.rglob("*.py"))}
    rows["total"] = {k: sum(r[k] for r in rows.values()) for k in KINDS}
    return rows


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("root", nargs="?", default="src", help="directory to count")
    parser.add_argument("--base", help="git revision or checkout directory to compare with")
    args = parser.parse_args(argv[1:])
    root = pathlib.Path(args.root).resolve()
    head = table(root)
    if args.base is None:
        cells = {name: [str(r[k]) for k in KINDS] for name, r in head.items()}
    else:
        with tempfile.TemporaryDirectory() as tmp:
            base = table(pathlib.Path(_tree(args.base, tmp)) / root.relative_to(REPO))
        zero = dict.fromkeys(KINDS, 0)
        names = sorted(base.keys() | head.keys(), key=lambda name: (name == "total", name))
        cells = {}
        for name in names:
            b, h = base.get(name, zero), head.get(name, zero)
            cells[name] = [f"{b[k]} -> {h[k]} ({h[k] - b[k]:+d})" for k in KINDS]
    lines = [["module", "total", "code", "doc/comment", "blank"]]
    lines += [[name, *row] for name, row in cells.items()]
    widths = [max(map(len, column)) for column in zip(*lines)]
    for line in lines:
        print("  ".join([line[0].ljust(widths[0])]
                        + [c.rjust(w) for c, w in zip(line[1:], widths[1:])]))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

"""Line counts of the package under src/, per module, by the tokenizer.

Each line is counted once: as blank if it holds only whitespace (inside a
docstring too), else as code if any token on it is code, else as a
docstring/comment line, which a comment or a docstring (a string that is a
statement of its own) covers.

    python tools/src_lines.py [ROOT]    # ROOT defaults to src/
"""

import io
import pathlib
import sys
import tokenize

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
    kinds = {"total": 0, "code": 0, "doc_comment": 0, "blank": 0}
    for n, line in enumerate(source.splitlines(), 1):
        kinds["total"] += 1
        if not line.strip():
            kinds["blank"] += 1
        elif n in code or n not in doc:
            kinds["code"] += 1
        else:
            kinds["doc_comment"] += 1
    return kinds


def main(argv: list[str]) -> int:
    root = pathlib.Path(argv[1] if len(argv) > 1 else "src")
    rows = [(str(p.relative_to(root)), count(p.read_text()))
            for p in sorted(root.rglob("*.py"))]
    rows.append(("total", {k: sum(r[k] for _, r in rows) for k in rows[0][1]}))
    fmt = f"{{:<{max(len(name) for name, _ in rows)}}}  {{:>6}}  {{:>6}}  {{:>11}}  {{:>6}}"
    print(fmt.format("module", "total", "code", "doc/comment", "blank"))
    for name, r in rows:
        print(fmt.format(name, *r.values()))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

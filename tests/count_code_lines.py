"""Count the code lines of the package, module by module.

A code line is a source line that holds part of a token other than a comment,
a line break, an indentation change or a docstring.  A docstring is a string
literal standing alone as a statement, so string expressions used as
documentation anywhere count as docstrings.  Blank lines and lines that only
continue a docstring or a comment do not count.  Run it as

    python tests/count_code_lines.py [DIRECTORY]

(default ``src/edlkit``).  It prints one line per module, largest first, and
the total; it always exits 0.
"""

import pathlib
import sys
import tokenize

STATEMENT_START = {tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENCODING}
SKIP = STATEMENT_START | {tokenize.ENDMARKER}


def code_lines(path):
    """Number of code lines in one Python source file."""
    with open(path, "rb") as fh:
        tokens = [t for t in tokenize.tokenize(fh.readline)
                  if t.type not in (tokenize.NL, tokenize.COMMENT)]
    lines = set()
    for i, tok in enumerate(tokens):
        if tok.type in SKIP:
            continue
        if (tok.type == tokenize.STRING and (i == 0 or tokens[i - 1].type in STATEMENT_START)
                and i + 1 < len(tokens) and tokens[i + 1].type == tokenize.NEWLINE):
            continue  # a docstring: a string literal alone as a statement
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main(argv):
    root = pathlib.Path(argv[1] if len(argv) > 1 else "src/edlkit")
    counts = {path.name: code_lines(path) for path in sorted(root.glob("*.py"))}
    for name, count in sorted(counts.items(), key=lambda item: (-item[1], item[0])):
        print("%6d  %s" % (count, name))
    print("%6d  total" % sum(counts.values()))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

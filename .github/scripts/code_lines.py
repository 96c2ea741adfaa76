"""Count the lines of code in ladderlab's source, as Python's tokenizer sees them.

A line counts when it holds a token other than a comment, a docstring, an
indent or dedent, or a line break; a docstring is a string expression that
is a whole statement.  `wc -l` counts every line, these count code only.

    python .github/scripts/code_lines.py [FILE ...]   # default: src/ladderlab/*.py

Prints one line per file and a total; standard library only.
"""

import glob
import os
import sys
import tokenize

# the tokens a statement can follow, and those no line of code is counted for
STATEMENT_START = {tokenize.NEWLINE, tokenize.NL, tokenize.INDENT, tokenize.DEDENT,
                   tokenize.ENCODING}
SKIPPED = STATEMENT_START | {tokenize.COMMENT, tokenize.ENDMARKER}


def code_lines(path: str) -> int:
    lines = set()
    with open(path, "rb") as f:
        tokens = list(tokenize.tokenize(f.readline))
    for i, tok in enumerate(tokens):
        if tok.type in SKIPPED:
            continue
        # a string that opens a statement and ends it is a docstring (or a bare string)
        if (tok.type == tokenize.STRING and tokens[i - 1].type in STATEMENT_START
                and tokens[i + 1].type in (tokenize.NEWLINE, tokenize.ENDMARKER)):
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main(argv: list[str]) -> int:
    root = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    paths = argv or sorted(glob.glob(os.path.join(root, "src", "ladderlab", "*.py")))
    total = 0
    for path in paths:
        n = code_lines(path)
        total += n
        print(f"{n:6d} {os.path.relpath(path, root)}")
    print(f"{total:6d} code lines")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

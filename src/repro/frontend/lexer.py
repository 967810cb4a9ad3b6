"""Tokenizer for the Figure-1-style C stencil dialect.

The lexer understands exactly what the front end's grammar needs: identifiers,
integer and float literals (with the C ``f`` suffix and exponent notation),
the punctuation of loop nests and arithmetic expressions, ``//`` and
``/* ... */`` comments, and the two preprocessor directives the dialect
admits — ``#define NAME value`` and ``#pragma ivdep``.

Comments are skipped but recorded (in order) so the parser can use a leading
``/* name */`` comment as the program name.
"""

from __future__ import annotations

from repro._record import dataclass
from repro.frontend.errors import StencilSyntaxError

# Multi-character operators first so maximal munch works by construction.
_PUNCTUATION = (
    "++",
    "+=",
    "(",
    ")",
    "[",
    "]",
    "{",
    "}",
    ";",
    ",",
    "=",
    "<",
    ">",
    "+",
    "-",
    "*",
    "/",
    "%",
)

KEYWORDS = frozenset({"for", "float", "double", "int", "void"})


@dataclass(frozen=True)
class Token:
    """One lexical token with its 1-based source position.

    ``kind`` is ``"ident"``, ``"number"``, ``"keyword"``, ``"pragma"``,
    ``"define"``, ``"eof"`` or the punctuation text itself (``"("`` ...).
    ``value`` holds the identifier text, the numeric value, the pragma text or
    the ``(name, value)`` pair of a define.
    """

    kind: str
    value: object
    line: int
    column: int
    text: str

    def describe(self) -> str:
        if self.kind == "eof":
            return "end of input"
        return f"{self.text!r}"


class Lexer:
    """Tokenize a source string; positions are tracked for diagnostics."""

    def __init__(self, source: str, filename: str | None = None) -> None:
        self.source = source
        self.filename = filename
        self.pos = 0
        self.line = 1
        self.column = 1
        self.comments: list[str] = []

    # -- low-level helpers ---------------------------------------------------

    def _error(self, message: str, line: int | None = None, column: int | None = None):
        raise StencilSyntaxError(
            message,
            self.source,
            line if line is not None else self.line,
            column if column is not None else self.column,
            self.filename,
        )

    def _peek(self, offset: int = 0) -> str:
        index = self.pos + offset
        return self.source[index] if index < len(self.source) else ""

    def _advance(self, count: int = 1) -> str:
        text = self.source[self.pos : self.pos + count]
        for ch in text:
            if ch == "\n":
                self.line += 1
                self.column = 1
            else:
                self.column += 1
        self.pos += count
        return text

    def _skip_trivia(self) -> None:
        while self.pos < len(self.source):
            ch = self._peek()
            if ch in " \t\r\n":
                self._advance()
            elif ch == "/" and self._peek(1) == "/":
                while self.pos < len(self.source) and self._peek() != "\n":
                    self._advance()
            elif ch == "/" and self._peek(1) == "*":
                start_line, start_col = self.line, self.column
                self._advance(2)
                start = self.pos
                while self.pos < len(self.source) and not (
                    self._peek() == "*" and self._peek(1) == "/"
                ):
                    self._advance()
                if self.pos >= len(self.source):
                    self._error("unterminated comment", start_line, start_col)
                self.comments.append(self.source[start : self.pos].strip())
                self._advance(2)
            else:
                return

    # -- token producers -----------------------------------------------------

    def _lex_number(self) -> Token:
        line, column = self.line, self.column
        start = self.pos
        is_float = False
        while self._peek().isdigit():
            self._advance()
        if self._peek() == "." and self._peek(1).isdigit():
            is_float = True
            self._advance()
            while self._peek().isdigit():
                self._advance()
        if self._peek() in ("e", "E") and (
            self._peek(1).isdigit()
            or (self._peek(1) in ("+", "-") and self._peek(2).isdigit())
        ):
            is_float = True
            self._advance()
            if self._peek() in ("+", "-"):
                self._advance()
            while self._peek().isdigit():
                self._advance()
        text = self.source[start : self.pos]
        if self._peek() in ("f", "F"):
            is_float = True
            self._advance()
        value: object = float(text) if is_float else int(text)
        return Token("number", value, line, column, text)

    def _lex_ident(self) -> Token:
        line, column = self.line, self.column
        start = self.pos
        while self._peek().isalnum() or self._peek() == "_":
            self._advance()
        text = self.source[start : self.pos]
        kind = "keyword" if text in KEYWORDS else "ident"
        return Token(kind, text, line, column, text)

    def _lex_directive(self) -> Token:
        line, column = self.line, self.column
        self._advance()  # '#'
        word = self._lex_ident()
        if word.value == "pragma":
            start = self.pos
            while self.pos < len(self.source) and self._peek() != "\n":
                self._advance()
            text = self.source[start : self.pos].strip()
            if text != "ivdep":
                self._error(f"unsupported pragma {text!r} (only 'ivdep')", line, column)
            return Token("pragma", text, line, column, f"#pragma {text}")
        if word.value == "define":
            self._skip_trivia()
            name = self._lex_ident()
            if name.kind != "ident":
                self._error("expected a name after '#define'", name.line, name.column)
            self._skip_trivia()
            number = self._lex_number() if self._peek().isdigit() else None
            if number is None:
                self._error(
                    f"expected an integer value for '#define {name.value}'",
                    self.line,
                    self.column,
                )
            return Token(
                "define",
                (name.value, number.value),
                line,
                column,
                f"#define {name.value} {number.text}",
            )
        self._error(f"unsupported directive '#{word.value}'", line, column)
        raise AssertionError("unreachable")

    def next_token(self) -> Token:
        self._skip_trivia()
        if self.pos >= len(self.source):
            return Token("eof", None, self.line, self.column, "")
        ch = self._peek()
        if ch == "#":
            return self._lex_directive()
        if ch.isdigit():
            return self._lex_number()
        if ch.isalpha() or ch == "_":
            return self._lex_ident()
        for punct in _PUNCTUATION:
            if self.source.startswith(punct, self.pos):
                line, column = self.line, self.column
                self._advance(len(punct))
                return Token(punct, punct, line, column, punct)
        self._error(f"unexpected character {ch!r}")
        raise AssertionError("unreachable")

    def tokenize(self) -> list[Token]:
        """All tokens up to and including the terminating EOF token."""
        tokens = []
        while True:
            token = self.next_token()
            tokens.append(token)
            if token.kind == "eof":
                return tokens


def tokenize(source: str, filename: str | None = None) -> list[Token]:
    """Convenience wrapper: tokenize ``source`` into a token list."""
    return Lexer(source, filename).tokenize()

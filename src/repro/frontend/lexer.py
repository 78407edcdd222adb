"""Tokenizer for the loop DSL."""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.frontend.ast import Location


class SyntaxErrorDSL(Exception):
    """A lexical or syntactic error in DSL source."""

    def __init__(self, message: str, location: Location):
        super().__init__(f"{location}: {message}")
        self.location = location


class TokenKind(enum.Enum):
    NAME = "name"
    NUMBER = "number"
    PUNCT = "punct"
    NEWLINE = "newline"
    EOF = "eof"


PUNCTUATION = ("(", ")", ",", "+", "-", "*", "/", "=", ":")


@dataclass(frozen=True)
class Token:
    kind: TokenKind
    text: str
    location: Location


def tokenize(source: str) -> list[Token]:
    tokens: list[Token] = []
    for line_no, raw_line in enumerate(source.splitlines(), start=1):
        line = raw_line.split("#", 1)[0]
        col = 0
        length = len(line)
        emitted_on_line = False
        while col < length:
            ch = line[col]
            loc = Location(line_no, col + 1)
            if ch.isspace():
                col += 1
                continue
            if ch.isalpha() or ch == "_":
                start = col
                while col < length and (line[col].isalnum() or line[col] in "_."):
                    col += 1
                tokens.append(Token(TokenKind.NAME, line[start:col], loc))
            elif ch.isdigit() or (
                ch == "." and col + 1 < length and line[col + 1].isdigit()
            ):
                start = col
                seen_dot = False
                seen_exp = False
                while col < length:
                    c = line[col]
                    if c.isdigit():
                        col += 1
                    elif c == "." and not seen_dot and not seen_exp:
                        seen_dot = True
                        col += 1
                    elif c in "eE" and not seen_exp and col > start:
                        seen_exp = True
                        col += 1
                        if col < length and line[col] in "+-":
                            col += 1
                    else:
                        break
                tokens.append(Token(TokenKind.NUMBER, line[start:col], loc))
            elif ch in PUNCTUATION:
                tokens.append(Token(TokenKind.PUNCT, ch, loc))
                col += 1
            else:
                raise SyntaxErrorDSL(f"unexpected character {ch!r}", loc)
            emitted_on_line = True
        if emitted_on_line:
            tokens.append(
                Token(TokenKind.NEWLINE, "\n", Location(line_no, length + 1))
            )
    last = Location(source.count("\n") + 2, 1)
    tokens.append(Token(TokenKind.EOF, "", last))
    return tokens

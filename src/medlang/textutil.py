"""Tokenization shared by the measurement layer and the topic model.

Unicode-whitespace split, edge punctuation stripped, lowercased. Tokens
made solely of dashes survive as individual "-" tokens so that both
transcription spellings of the double dash ("- -" and "--") tokenize the
same way.
"""

from __future__ import annotations

import string

DASH_TOKEN = "-"

_EDGE_PUNCT = string.punctuation


def tokenize(text: str) -> list[str]:
    tokens: list[str] = []
    for raw in text.lower().split():
        word = raw.strip(_EDGE_PUNCT)
        if word:
            tokens.append(word)
        elif not raw.strip("-"):  # only dashes, each of which is edge punctuation
            tokens.extend(DASH_TOKEN * len(raw))
    return tokens


def normalize_phrase(phrase: str) -> str:
    """A lexicon phrase as the tokens it can match, joined by single spaces."""
    return " ".join(tokenize(phrase))

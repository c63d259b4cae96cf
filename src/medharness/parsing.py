"""Answer extraction from raw model output.

A valid output is one containing an interpretable multiple-choice answer
token. Tokens are the presented option labels (uppercase letters, matched
case-sensitively and never inside a longer word or number), plus, for
datasets whose prompts show bare answer words, the words themselves (matched
case-insensitively). Scanning applies these rules in priority order:

1. An "Answer:" heading line (with or without markdown markers, optionally
   prefixed "Final"/"The correct" etc.): the first token after the heading,
   up to the next answer heading. If several headings name different tokens,
   the output is ambiguous and therefore invalid.
2. The phrase "answer is": the first token in the rest of that line.
3. A parenthesized token such as "(A)" or "(yes)", earliest occurrence.
4. A line consisting of a bare token, optionally parenthesized or followed
   by "." or ":".
5. For word-answer datasets only: the earliest bare word anywhere.

If no rule matches, extraction returns ``INVALID``; that is a value the
validity-retry loop acts on, not an error.
"""

from __future__ import annotations

import re
from collections.abc import Iterable, Mapping
from functools import lru_cache

__all__ = ["INVALID", "extract_answer", "extract_explanation"]

INVALID = "<invalid>"

_ANSWER_HEADING_RE = re.compile(
    r"(?im)^[ \t]*[#*> \t]*(?:(?:final|my|the|correct)[ \t]+){0,2}answer[* \t]*:"
)
_ANSWER_IS_RE = re.compile(r"(?i)\banswer\s+is\b")
_EXPLANATION_HEADING_RE = re.compile(r"(?im)^[ \t]*[#*> \t]*explanation[* \t]*:")


_Patterns = tuple[tuple[re.Pattern, str], ...]


@lru_cache(maxsize=64)
def _pattern_lists(
    labels: tuple[str, ...], words: tuple[tuple[str, str], ...]
) -> tuple[_Patterns, _Patterns, _Patterns, _Patterns]:
    """The token, parenthesized, bare-line and bare-word patterns of one
    (labels, word tokens) key, where `words` holds the word tokens' items.

    Every item of a dataset presents the same few label sets, so each list
    is compiled once per key rather than once per extraction.
    """
    bare_words = tuple(
        (re.compile(rf"(?i)(?<![A-Za-z]){re.escape(word)}(?![A-Za-z])"), label)
        for word, label in words
    )
    # Not adjacent to letters or digits: keeps "B" out of "B12" and "C" out of
    # "C3-C5". Case-sensitive; a lowercase letter is prose.
    tokens = tuple(
        (re.compile(rf"(?<![A-Za-z0-9]){re.escape(label)}(?![A-Za-z0-9])"), label)
        for label in labels
    ) + bare_words
    parenthesized = tuple(
        (re.compile(rf"\({re.escape(label)}\)"), label) for label in labels
    ) + tuple(
        (re.compile(rf"(?i)\({re.escape(word)}\)"), label) for word, label in words
    )
    bare_lines = tuple(
        (re.compile(rf"\(?{re.escape(label)}\)?[.:]?"), label) for label in labels
    ) + tuple(
        (re.compile(rf"(?i)\(?{re.escape(word)}\)?[.:]?"), label) for word, label in words
    )
    return tokens, parenthesized, bare_lines, bare_words


def _earliest(span: str, patterns: _Patterns) -> tuple[int, str] | None:
    best: tuple[int, str] | None = None
    for pattern, label in patterns:
        m = pattern.search(span)
        if m and (best is None or m.start() < best[0]):
            best = (m.start(), label)
    return best


def extract_answer(
    raw: str,
    labels: Iterable[str],
    word_tokens: Mapping[str, str] | None = None,
) -> str:
    """Return the presented label answered in *raw*, or ``INVALID``."""
    labels = tuple(labels)
    if not labels:
        raise ValueError("labels must be non-empty")
    patterns, paren_patterns, bare, word_patterns = _pattern_lists(
        labels, tuple((word_tokens or {}).items()))

    # Rule 1: answer headings, each scoped to the next heading.
    headings = list(_ANSWER_HEADING_RE.finditer(raw))
    if headings:
        found: set[str] = set()
        for i, m in enumerate(headings):
            end = headings[i + 1].start() if i + 1 < len(headings) else len(raw)
            hit = _earliest(raw[m.end():end], patterns)
            if hit:
                found.add(hit[1])
        if len(found) > 1:
            return INVALID
        if found:
            return found.pop()

    # Rule 2: "answer is ..." up to the end of that line.
    for m in _ANSWER_IS_RE.finditer(raw):
        newline = raw.find("\n", m.end())
        end = newline if newline != -1 else len(raw)
        hit = _earliest(raw[m.end():end], patterns)
        if hit:
            return hit[1]

    # Rule 3: parenthesized token.
    hit = _earliest(raw, paren_patterns)
    if hit:
        return hit[1]

    # Rule 4: a line that is nothing but a token.
    for line in raw.splitlines():
        stripped = line.strip()
        if not stripped:
            continue
        for pattern, label in bare:
            if pattern.fullmatch(stripped):
                return label

    # Rule 5: bare words anywhere, for word-answer datasets.
    if word_patterns:
        hit = _earliest(raw, word_patterns)
        if hit:
            return hit[1]

    return INVALID


def extract_explanation(raw: str) -> str:
    """The explanation body of a teacher response.

    Text between the "Explanation:" heading and the next "Answer:" heading;
    if the explanation heading is absent, everything before the answer
    heading. Stripped; may be empty.
    """
    m = _EXPLANATION_HEADING_RE.search(raw)
    start = m.end() if m else 0
    am = _ANSWER_HEADING_RE.search(raw, start)
    end = am.start() if am else len(raw)
    return raw[start:end].strip()

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
from typing import NamedTuple

__all__ = ["INVALID", "extract_answer", "extract_explanation"]

INVALID = "<invalid>"

_ANSWER_HEADING_RE = re.compile(
    r"(?im)^[ \t]*[#*> \t]*(?:(?:final|my|the|correct)[ \t]+){0,2}answer[* \t]*:"
)
_ANSWER_IS_RE = re.compile(r"(?i)\banswer\s+is\b")
_EXPLANATION_HEADING_RE = re.compile(r"(?im)^[ \t]*[#*> \t]*explanation[* \t]*:")


class _Rule(NamedTuple):
    """One rule's patterns as a single alternation, each pattern in its own
    group, plus the label each group stands for: the earliest match wins, and
    at one position the pattern listed first."""

    pattern: re.Pattern
    labels: tuple[str, ...]


def _alternation(patterns: list[tuple[str, str]]) -> _Rule | None:
    """The rule matching any of `patterns`, (regex, label) pairs, or None if empty."""
    if not patterns:
        return None
    return _Rule(re.compile("|".join(f"({regex})" for regex, _ in patterns)),
                 tuple(label for _, label in patterns))


@lru_cache(maxsize=64)
def _pattern_lists(
    labels: tuple[str, ...], words: tuple[tuple[str, str], ...]
) -> tuple[_Rule, _Rule, _Rule, _Rule | None]:
    """The token, parenthesized, bare-line and bare-word rules of one
    (labels, word tokens) key, where `words` holds the word tokens' items.

    Every item of a dataset presents the same few label sets, so each rule
    is compiled once per key rather than once per extraction.
    """
    bare_words = [
        (rf"(?i:(?<![A-Za-z]){re.escape(word)}(?![A-Za-z]))", label) for word, label in words
    ]
    # Not adjacent to letters or digits: keeps "B" out of "B12" and "C" out of
    # "C3-C5". Case-sensitive; a lowercase letter is prose.
    tokens = [
        (rf"(?<![A-Za-z0-9]){re.escape(label)}(?![A-Za-z0-9])", label) for label in labels
    ] + bare_words
    parenthesized = [
        (rf"\({re.escape(label)}\)", label) for label in labels
    ] + [
        (rf"(?i:\({re.escape(word)}\))", label) for word, label in words
    ]
    bare_lines = [
        (rf"\(?{re.escape(label)}\)?[.:]?", label) for label in labels
    ] + [
        (rf"(?i:\(?{re.escape(word)}\)?[.:]?)", label) for word, label in words
    ]
    return (_alternation(tokens), _alternation(parenthesized), _alternation(bare_lines),
            _alternation(bare_words))


def _earliest(span: str, rule: _Rule) -> str | None:
    """The label of the rule's earliest match in `span`, or None."""
    m = rule.pattern.search(span)
    return rule.labels[m.lastindex - 1] if m else None


def extract_answer(
    raw: str,
    labels: Iterable[str],
    word_tokens: Mapping[str, str] | None = None,
) -> str:
    """Return the presented label answered in *raw*, or ``INVALID``."""
    labels = tuple(labels)
    if not labels:
        raise ValueError("labels must be non-empty")
    tokens, parenthesized, bare_lines, bare_words = _pattern_lists(
        labels, tuple((word_tokens or {}).items()))

    # Rule 1: answer headings, each scoped to the next heading.
    headings = list(_ANSWER_HEADING_RE.finditer(raw))
    if headings:
        found: set[str] = set()
        for i, m in enumerate(headings):
            end = headings[i + 1].start() if i + 1 < len(headings) else len(raw)
            hit = _earliest(raw[m.end():end], tokens)
            if hit:
                found.add(hit)
        if len(found) > 1:
            return INVALID
        if found:
            return found.pop()

    # Rule 2: "answer is ..." up to the end of that line.
    for m in _ANSWER_IS_RE.finditer(raw):
        newline = raw.find("\n", m.end())
        end = newline if newline != -1 else len(raw)
        hit = _earliest(raw[m.end():end], tokens)
        if hit:
            return hit

    # Rule 3: parenthesized token.
    hit = _earliest(raw, parenthesized)
    if hit:
        return hit

    # Rule 4: a line that is nothing but a token.
    for line in raw.splitlines():
        stripped = line.strip()
        if not stripped:
            continue
        m = bare_lines.pattern.fullmatch(stripped)
        if m:
            return bare_lines.labels[m.lastindex - 1]

    # Rule 5: bare words anywhere, for word-answer datasets.
    if bare_words:
        hit = _earliest(raw, bare_words)
        if hit:
            return hit

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

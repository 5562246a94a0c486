"""Loaders for the small lexicons bundled with the package."""

from __future__ import annotations

from functools import lru_cache
from importlib import resources

from .errors import MissingResource


def _data_text(name):
    try:
        return (resources.files("bien") / "data" / name).read_text(encoding="utf-8")
    except FileNotFoundError as exc:
        raise MissingResource(f"bundled data file {name!r} not found") from exc


def _lines(text):
    for line in text.splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            yield line


def load_wordlist(name):
    """A case-insensitive word set from a bundled one-entry-per-line file."""
    return frozenset(line.lower() for line in _lines(_data_text(name)))


def _pairs(name):
    """The two tab-separated fields of each line of a bundled TSV, the first lowercased."""
    for line in _lines(_data_text(name)):
        first, second = line.split("\t")
        yield first.lower(), second


def load_ranked(name):
    """A ``name -> rank`` table from a bundled two-column TSV (rank 1 = most common)."""
    return {word: int(rank) for word, rank in _pairs(name)}


def load_lemma_table(name="lemmas.tsv"):
    """A ``surface -> lemma`` table (both lowercase) from a bundled TSV."""
    return {surface: lemma.lower() for surface, lemma in _pairs(name)}


@lru_cache(maxsize=None)
def load_abbreviations(name="abbreviations.txt"):
    """Lowercased abbreviation surfaces that keep their trailing period."""
    return load_wordlist(name)

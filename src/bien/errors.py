"""Exception hierarchy shared across the package, and the checks that
refuse an argument of the wrong type.

The contract for wrong types. The pipeline's entry points, from
``tokenize`` through ``run_ablations``, refuse an argument of a type they
do not take with :class:`InvalidSpec` naming the argument and the type it
got, before any work and before any write to state that later calls read:
the tokenizer's type table with its chunk memo and columns, which start
over together, between calls, once the table holds ``_MEMO_LIMIT`` types
or chunks. The entry points are ``tokenize``, ``parse_tagged_documents``,
``parse_tagged_document``, ``generate_corpus``, ``split``,
``build_gazetteer``, ``feature_cardinalities``, ``featurize``,
``featurize_docs``, ``build_model``, ``make_examples``, ``pack``,
``train``, ``compile_chain``, ``number_observations``, ``viterbi``,
``viterbi_batch``, ``decode``, ``decode_batch``, ``score_documents``,
``run_experiment`` and ``run_ablations``. Five helpers here make the
decision and word the refusal:

- :func:`check_type` for a text (``str``), a lemma table or observables
  (``dict``), and the package's own objects: plans and configs,
  documents, gazetteers and lexicon sets, models, stacked examples,
  chains, numbered rows and predicted spans;
- :func:`check_sequence` for documents, texts, ids, fields, masks,
  predictions and cardinalities: any iterable but a ``str`` or
  ``bytes``, which iterate as their characters, and a ``dict``, which
  iterates as its keys. The check returns the items as a tuple, which a
  function that reads them more than once works on, so a one-pass
  iterator is read once and gives what a list gives;
- :func:`check_int` for a count, a seed, a setting and the offsets and
  bounds of tokens and spans: an int or a numpy int, which a bool or a
  numpy bool is not, returned as a Python int;
- :func:`check_array` for emission tables and scores, and the column
  count of a packing: whatever their type, they are read with
  ``np.asarray`` and refused unless of the dtype and shape the function
  takes. Nesting that is not one array, such as rows of unequal length,
  is refused too;
- :func:`check_integers` for every array of integers: observation
  matrices, row numbers, lengths, cardinalities, tags, and the type ids,
  starts and codes of the views below. It reads them with
  :func:`check_array` and refuses any but integer arrays of the number of
  dimensions it is given, and entries outside the bounds it is given,
  all in the one wording of :class:`IntegerRule`. An array with no
  entries is taken whatever dtype numpy gives it, since an empty list is
  read as float64, and is returned as an empty int64 array unless its
  dtype is an integer one.

Six public classes check in their constructors too: a
:class:`~bien.corpus.Token` its surface, a ``str``, its kind, one of the
five ``KIND_*`` values of :mod:`bien.corpus`, and its offsets, read by
:func:`check_int`, with ``start >= 0``; a :class:`~bien.corpus.TagSpan`
its field, a ``str``, and its bounds, read by :func:`check_int`; a
:class:`~bien.corpus.TokenView` its type ids and starts, and a
:class:`~bien.corpus.ColumnView` its codes, read by
:func:`check_integers`, ids and codes indexing the view's table or
values and starts of at least 0, once per view and not again for a
slice; a :class:`~bien.corpus.Document` its text, a ``str``, its tokens
(unless a :class:`~bien.corpus.TokenView`), a sequence, its gold spans, as
:func:`~bien.corpus.check_spans` checks a predicted span list too
(naming the document), and its columns, a ``dict`` of which each value
that is not a :class:`~bien.corpus.ColumnView` is a sequence; and a
:class:`~bien.features.LexiconSet` each field against its declared
type, ``frozenset`` or ``dict``. The two settings classes do not, since
one function reads each before any work: ``split`` checks a
:class:`~bien.corpus.SplitPlan`'s fields (with
:class:`InvalidPlan`), and ``run_experiment`` and ``run_ablations`` an
:class:`~bien.evaluation.ExperimentConfig`'s, its field list by
:func:`~bien.model.check_fields` as every reader of a field list does.

A call with more than one wrong argument is refused for one of them.
Outside the contract:

- ``None`` for a gazetteer, lexicon set or lemma table raises
  :class:`MissingResource`, naming the resource;
- a value inside a sequence or a mapping, such as a ``None`` among the
  documents, is not checked for type and may raise Python's own
  ``TypeError`` or ``AttributeError``, unless it would write shared
  state (a :class:`~bien.corpus.Token`'s surface and kind, a lemma
  table's lemma) or give a wrong result with no error (a predicted
  span); so may a call that Python cannot bind to the signature;
- document ids, which are only compared and printed, and ``memory``,
  which is read by its truth value, are taken as they come;
- ``viterbi``'s evidence is anything with a ``log_emission(chain)``
  method. Its scores are read by :func:`check_array` and refused as
  ``viterbi_batch`` refuses its table: unless a float64 ``(T, S)``
  array, and for a NaN or +inf in them or in the chain's ``log_init`` or
  ``log_trans`` (which a document of one token does not read), with no
  numpy warning before the refusal.
"""

import operator
import reprlib
from collections.abc import Iterable
from typing import NamedTuple

import numpy as np


class BienError(Exception):
    """Base class for all package-specific errors."""


class DataError(BienError):
    """Problems with corpus text, annotations, or resources."""


class MalformedTag(DataError):
    """Inline tag markup is unmatched or nested: in document ``doc_id``,
    at character ``offset`` of its raw text, on line ``line``."""

    def __init__(self, message, line=None, offset=None, doc_id=None):
        super().__init__(message)
        self.line = line
        self.offset = offset
        self.doc_id = doc_id


class UnknownField(DataError):
    """A gold span names a field the model lacks."""


class AlignmentError(DataError):
    """A document column does not hold one value per token."""


class InvalidPlan(DataError):
    """Split plan parameters are out of range for the corpus."""


class EmptyCorpus(DataError):
    """No documents found where a corpus was expected."""


class EmptyVocabulary(DataError):
    """Gazetteer construction produced no entries."""


class MissingResource(DataError):
    """A bundled data file, or the gazetteer or lexicons featurize needs, is absent."""


class InvalidSpec(BienError):
    """A declaration or an argument is inconsistent: a bad field list or tag
    name, a bad or repeated observable, a CPT off its support, an unknown
    feature mask or match mode, gazetteer ids that are not 1..V, a malformed
    stack of training examples or of observations, document ids out of
    order or repeated, an empty token or an inverted span."""


class NumericError(BienError):
    """Numerical invariants violated during inference or training."""


class ZeroProbabilityEvidence(NumericError):
    """No state path is consistent with the evidence and clamps."""

    def __init__(self, message, step=None):
        super().__init__(message)
        self.step = step


class InconsistentGold(DataError):
    """A document's gold tag path has zero probability under the model."""

    def __init__(self, message, doc_id=None, step=None):
        super().__init__(message)
        self.doc_id = doc_id
        self.step = step


class OverlappingSpans(DataError):
    """Gold spans assign one token to more than one field."""


def check_int(name, value, least=None, error=InvalidSpec):
    """``value`` as a Python int, read with ``operator.index``, so a numpy
    int is taken, once it is known to be at least ``least`` (unless None).
    Else raise ``error`` saying that ``name`` must be an int (of at least
    ``least``); a ``bool`` or a numpy bool is not one."""
    if type(value) is int:  # the common case, read with no call
        number = value
    elif isinstance(value, (bool, np.bool_)):
        number = None
    else:
        try:
            number = operator.index(value)
        except TypeError:
            number = None
    if number is None or least is not None and number < least:
        bound = "" if least is None else f" >= {least}"
        raise error(f"{name} must be an int{bound}, got {value!r}")
    return number


def check_type(name, value, kind):
    """Raise :class:`InvalidSpec` saying that ``name`` must be a ``kind``,
    and what type it got, unless ``value`` is an instance of ``kind``."""
    if not isinstance(value, kind):
        article = "an" if kind.__name__[0] in "AEIOUaeiou" else "a"
        raise InvalidSpec(f"{name} must be {article} {kind.__name__}, got {type(value).__name__}")


def check_sequence(name, value):
    """The items of ``value`` as a tuple, read once. Raise
    :class:`InvalidSpec` saying that ``name`` must be a sequence unless
    ``value`` is iterable, and is neither a ``str`` or ``bytes``, which
    iterate as their characters, nor a ``dict``, which iterates as its
    keys, where a sequence of items belongs."""
    if isinstance(value, (str, bytes, dict)) or not isinstance(value, Iterable):
        raise InvalidSpec(
            f"{name} must be a sequence, not the {type(value).__name__} {reprlib.repr(value)}"
        )
    return tuple(value)


def check_array(what, value, ok):
    """``value`` read with ``np.asarray``, once ``ok`` holds for it. Raise
    :class:`InvalidSpec` saying ``what``, and what ``value`` is: a nesting
    that numpy cannot read as one array, such as rows of unequal length,
    or the dtype and shape of an array ``ok`` refuses."""
    try:
        array = np.asarray(value)
    except ValueError:
        raise InvalidSpec(f"{what}, got a {type(value).__name__} that is not one array") from None
    if not ok(array):
        raise InvalidSpec(f"{what}, got {array.dtype} of shape {array.shape}")
    return array


class IntegerRule(NamedTuple):
    """The rule that :func:`check_integers` words its refusals by, shown as
    text: ``what`` must be ``ndim``-D integers of at least ``low``, or in
    ``low .. high - 1`` (per column for one bound per column); ``high``
    goes with a ``low``. The text is made only when it is shown, so a read
    that passes makes none."""

    what: str
    ndim: int = 1
    low: object = None
    high: object = None

    def __str__(self):
        if self.high is None:
            bounds = "" if self.low is None else f" of at least {self.low}"
        else:
            by_column = " by column" if np.ndim(self.high) else ""
            bounds = f" in {self.low} .. {np.subtract(self.high, 1).tolist()}{by_column}"
        return f"{self.what} must be {self.ndim}-D integers{bounds}"


def check_integers(what, value, ndim=1, low=None, high=None):
    """``value`` read with :func:`check_array`, once it is known to be an
    ``ndim``-D integer array whose every entry v has ``low <= v < high``,
    a bound of None left out; ``high`` is one bound, or for a matrix an
    array of one per column, which fixes the column count. An array with
    no entries is taken whatever its dtype, as the module docstring says;
    any other bool or float array is not integers. Anything else raises
    :class:`InvalidSpec` worded by :class:`IntegerRule`, with the dtype
    and shape that ``value`` has, or its first entry out of range and
    where it is."""
    rule, columns = IntegerRule(what, ndim, low, high), getattr(high, "shape", ())
    array = check_array(rule, value, lambda a: a.ndim == ndim
                        and a.shape[ndim - len(columns):] == columns
                        and (a.dtype.kind in "iu" or not a.size))
    if not array.size:
        return array if array.dtype.kind in "iu" else array.astype(np.int64)
    below = low is not None and array.min() < low
    if below or high is not None and (array >= high).any():
        index = np.argwhere(array < low if below else array >= high)[0].tolist()
        raise InvalidSpec(f"{rule}, got {array[tuple(index)]} at {index}")
    return array

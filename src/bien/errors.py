"""Exception hierarchy shared across the package, and the checks that
refuse an argument of the wrong type.

The contract for wrong types. The pipeline's entry points, from
``tokenize`` through ``run_ablations``, refuse an argument of a type they
do not take with :class:`InvalidSpec` naming the argument and the type it
got, before any work and before any write to state that later calls read
(the tokenizer's type table with its chunk memo and columns, a
document's cache). The entry points are ``tokenize``,
``parse_tagged_documents``, ``parse_tagged_document``,
``generate_corpus``, ``split``, ``build_gazetteer``, ``featurize``,
``featurize_docs``, ``build_model``, ``make_examples``, ``pack``,
``train``, ``compile_chain``, ``number_observations``, ``viterbi``,
``viterbi_batch``, ``decode``, ``decode_batch``, ``score_documents``,
``run_experiment`` and ``run_ablations``. Four helpers here make the
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
- :func:`check_int` for a count, a seed or a setting: an int, which a
  bool is not;
- :func:`check_array` for observation matrices, emission tables and
  scores, row numbers, lengths, cardinalities and tags: whatever their
  type, they are read with ``np.asarray`` and refused unless of the
  dtype and shape the function takes. Nesting that is not one array,
  such as rows of unequal length, is refused too.

Four public classes check in their constructors too: a
:class:`~bien.corpus.Token` its surface, a ``str``, and its offsets,
integers with ``start >= 0``; a :class:`~bien.corpus.TagSpan` its field,
a ``str``, and its bounds; a :class:`~bien.corpus.Document` its text, a
``str``, its tokens (unless a :class:`~bien.corpus.TokenView`) and gold
spans, each a sequence, each gold span, a
:class:`~bien.corpus.TagSpan` whose end is below the token count (naming
the document), and its columns, a ``dict``; and a
:class:`~bien.features.LexiconSet` each field against its declared
type, ``frozenset`` or ``dict``. The two settings classes do not, since
one function reads each before any work: ``split`` checks a
:class:`~bien.corpus.SplitPlan`'s fields (with
:class:`InvalidPlan`), and ``run_experiment`` and ``run_ablations`` an
:class:`~bien.evaluation.ExperimentConfig`'s.

A call with more than one wrong argument is refused for one of them.
Outside the contract:

- ``None`` for a gazetteer, lexicon set or lemma table raises
  :class:`MissingResource`, naming the resource;
- a value inside a sequence or a mapping, such as a ``None`` among the
  documents, is not checked for type and may raise Python's own
  ``TypeError`` or ``AttributeError``, unless it would write shared
  state (a :class:`~bien.corpus.Token`'s surface, a lemma table's
  lemma) or give a wrong result with no error (a predicted span); so may
  a call that Python cannot bind to the signature;
- document ids, which are only compared and printed, and ``memory``,
  which is read by its truth value, are taken as they come;
- ``viterbi``'s evidence is anything with a ``log_emission(chain)``
  method. Its scores are read by :func:`check_array` and refused as
  ``viterbi_batch`` refuses its table: unless a float64 ``(T, S)``
  array, and for a NaN or +inf in them or in the chain's ``log_init`` or
  ``log_trans`` (which a document of one token does not read), with no
  numpy warning before the refusal.
"""

import numbers
import reprlib
from collections.abc import Iterable

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
    """Raise ``error`` saying that ``name`` must be an int (of at least
    ``least``, unless None) if ``value`` is not one; a bool is not."""
    integral = isinstance(value, numbers.Integral) and not isinstance(value, bool)
    if not integral or (least is not None and value < least):
        bound = "" if least is None else f" >= {least}"
        raise error(f"{name} must be an int{bound}, got {value!r}")


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

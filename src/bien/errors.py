"""Exception hierarchy shared across the package, and its int check."""

import numbers


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

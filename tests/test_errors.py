"""The contract for arguments of the wrong type, stated in ``bien.errors``:
an entry point of the pipeline refuses one with ``InvalidSpec`` naming it
(``MissingResource`` for a resource that is ``None``), before any work."""

import functools
import json
import re
from dataclasses import fields, replace
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bien.corpus import (
    ColumnView,
    Document,
    SplitPlan,
    TagSpan,
    Token,
    TokenView,
    TypeTable,
    parse_tagged_document,
    parse_tagged_documents,
    split,
    tokenize,
)
from bien.errors import EmptyCorpus, InvalidSpec, MissingResource
from bien.evaluation import (
    ExperimentConfig,
    assemble_slots,
    decode,
    decode_batch,
    run_ablations,
    run_experiment,
    score_documents,
)
from bien.features import (
    Gazetteer,
    LexiconSet,
    build_gazetteer,
    default_lexicons,
    feature_cardinalities,
    featurize,
    featurize_docs,
    mask_columns,
)
from bien.inference import Evidence, viterbi, viterbi_batch
from bien.learning import StackedExamples, TrainConfig, make_examples, pack, train
from bien.model import (
    build_model,
    check_lengths,
    check_observations,
    compile_chain,
    number_observations,
)
from bien.synth import generate_corpus

FIELDS = ("speaker", "location", "stime", "etime")


@functools.cache
def valid():
    """The objects each entry point is called with: every call they make
    up is valid."""
    docs = generate_corpus(6, 3)
    lexicons = default_lexicons()
    gazetteer = build_gazetteer(docs, lexicons.lemma_table)
    cardinalities = feature_cardinalities(gazetteer)
    model = build_model(FIELDS, cardinalities)
    chain = compile_chain(model)
    obs = featurize_docs(docs, gazetteer, lexicons)
    numbered = number_observations(
        obs, [len(doc.type_ids) for doc in docs], list(cardinalities.values())
    )
    return dict(
        docs=docs, lexicons=lexicons, gazetteer=gazetteer, cardinalities=cardinalities,
        model=model, chain=chain, obs=obs, numbered=numbered,
        examples=make_examples(docs, gazetteer, lexicons, model),
    )


def valid_arguments(entry):
    """``(function, keyword arguments)`` of a valid call of ``entry``."""
    v = valid()
    docs, gaz, lex, model, chain = v["docs"], v["gazetteer"], v["lexicons"], v["model"], v["chain"]
    cfg = ExperimentConfig(plan=SplitPlan(runs=1))
    return {
        "tokenize": (tokenize, dict(text="Dr. Li")),
        "parse_tagged_documents": (parse_tagged_documents, dict(
            raws=["<stime>3</stime> pm"], doc_ids=["d"], fields=FIELDS,
        )),
        "parse_tagged_document": (parse_tagged_document, dict(
            raw="<stime>3</stime> pm", fields=FIELDS
        )),
        "generate_corpus": (generate_corpus, dict(n_docs=2, seed=1)),
        "split": (split, dict(corpus=docs, plan=SplitPlan(runs=1))),
        "build_gazetteer": (build_gazetteer, dict(
            docs=docs, lemma_table=lex.lemma_table, window=3, min_freq=3, max_size=1200
        )),
        "feature_cardinalities": (feature_cardinalities, dict(gazetteer=gaz)),
        "featurize": (featurize, dict(doc=docs[0], gazetteer=gaz, lexicons=lex, mask=())),
        "featurize_docs": (featurize_docs, dict(docs=docs, gazetteer=gaz, lexicons=lex, mask=())),
        "build_model": (build_model, dict(fields=FIELDS, observables=v["cardinalities"])),
        "make_examples": (make_examples, dict(
            docs=docs, gazetteer=gaz, lexicons=lex, model=model, mask=()
        )),
        "pack": (pack, dict(model=model, examples=v["examples"])),
        "train": (train, dict(model=model, examples=v["examples"], config=TrainConfig())),
        "compile_chain": (compile_chain, dict(model=model)),
        "number_observations": (number_observations, dict(
            obs=v["obs"], lengths=[len(v["obs"])], cardinalities=list(v["cardinalities"].values())
        )),
        "viterbi": (viterbi, dict(chain=chain, evidence=Evidence(v["obs"][:5]))),
        "viterbi_batch": (viterbi_batch, dict(
            chain=chain, table=chain.log_emission(v["numbered"].table),
            rows=v["numbered"].rows, lengths=v["numbered"].lengths,
        )),
        "decode": (decode, dict(chain=chain, obs=v["obs"][:5])),
        "decode_batch": (decode_batch, dict(chain=chain, numbered=v["numbered"])),
        "score_documents": (score_documents, dict(
            docs=docs[:1], predictions=[[]], fields=FIELDS, mode="slot"
        )),
        "run_experiment": (run_experiment, dict(corpus=docs, cfg=cfg, jobs=1)),
        "run_ablations": (run_ablations, dict(corpus=docs, cfg=cfg, jobs=1)),
    }[entry]


# A value of each of these kinds is drawn for an argument, except the kinds
# that it takes.
KINDS = {
    "None": st.none(),
    "str": st.text(max_size=6),
    "bytes": st.binary(max_size=6),
    "int": st.integers(-3, 3),
    "float": st.floats(),
    "dict": st.dictionaries(st.text(max_size=3), st.integers(0, 3), max_size=2),
}

# (entry point, argument, the kinds of KINDS it takes). Every argument of
# the entry points is here but those the contract leaves out: document
# ids, ``memory`` and ``viterbi``'s evidence.
CASES = [
    ("tokenize", "text", {"str"}),
    ("parse_tagged_documents", "raws", set()),
    ("parse_tagged_documents", "doc_ids", set()),
    ("parse_tagged_documents", "fields", set()),
    ("parse_tagged_document", "raw", {"str"}),
    ("parse_tagged_document", "fields", set()),
    ("generate_corpus", "n_docs", {"int"}),
    ("generate_corpus", "seed", {"int"}),
    ("split", "corpus", set()),
    ("split", "plan", set()),
    ("build_gazetteer", "docs", set()),
    ("build_gazetteer", "lemma_table", {"dict"}),
    ("build_gazetteer", "window", {"int"}),
    ("build_gazetteer", "min_freq", {"int"}),
    ("build_gazetteer", "max_size", {"int"}),
    ("feature_cardinalities", "gazetteer", set()),
    ("featurize", "doc", set()),
    ("featurize", "gazetteer", set()),
    ("featurize", "lexicons", set()),
    ("featurize", "mask", set()),
    ("featurize_docs", "docs", set()),
    ("featurize_docs", "gazetteer", set()),
    ("featurize_docs", "lexicons", set()),
    ("featurize_docs", "mask", set()),
    ("build_model", "fields", set()),
    ("build_model", "observables", {"dict"}),
    ("make_examples", "docs", set()),
    ("make_examples", "gazetteer", set()),
    ("make_examples", "lexicons", set()),
    ("make_examples", "model", set()),
    ("make_examples", "mask", set()),
    ("pack", "model", set()),
    ("pack", "examples", set()),
    ("train", "model", set()),
    ("train", "examples", set()),
    ("train", "config", set()),
    ("compile_chain", "model", set()),
    ("number_observations", "obs", set()),
    ("number_observations", "lengths", set()),
    ("number_observations", "cardinalities", set()),
    ("viterbi", "chain", set()),
    ("viterbi_batch", "chain", set()),
    ("viterbi_batch", "table", set()),
    ("viterbi_batch", "rows", set()),
    ("viterbi_batch", "lengths", set()),
    ("decode", "chain", set()),
    ("decode", "obs", set()),
    ("decode_batch", "chain", set()),
    ("decode_batch", "numbered", set()),
    ("score_documents", "docs", set()),
    ("score_documents", "predictions", set()),
    ("score_documents", "fields", set()),
    ("score_documents", "mode", {"str"}),
    ("run_experiment", "corpus", set()),
    ("run_experiment", "cfg", set()),
    ("run_experiment", "jobs", {"int"}),
    ("run_ablations", "corpus", set()),
    ("run_ablations", "cfg", set()),
    ("run_ablations", "jobs", {"int"}),
]

# what the message calls an argument, where that is not its name
NAMED = {
    "raw": "text", "obs": "observations", "table": "emissions", "rows": "row numbers",
    "mode": "match mode",
}
RESOURCES = {"gazetteer": "gazetteer", "lexicons": "lexicons", "lemma_table": "lemma table"}


@pytest.mark.parametrize("entry, argument, takes", CASES, ids=[f"{e}-{a}" for e, a, _ in CASES])
@settings(max_examples=4, deadline=None)
@given(data=st.data())
def test_an_argument_of_a_type_it_does_not_take_is_refused(entry, argument, takes, data):
    """Each kind of value an argument does not take, in place of that
    argument of an otherwise valid call: the call raises, naming the
    argument, and never returns. ``None`` for a resource is
    ``MissingResource``, anything else ``InvalidSpec``."""
    function, arguments = valid_arguments(entry)
    for kind in KINDS.keys() - takes:
        value = data.draw(KINDS[kind], label=kind)
        if value is None and argument in RESOURCES:
            error, named = MissingResource, RESOURCES[argument]
        else:
            error, named = InvalidSpec, NAMED.get(argument, argument)
        with pytest.raises(error, match=re.escape(named)):
            function(**{**arguments, argument: value})


# Calls that raised a TypeError or an AttributeError, returned, or named
# the wrong thing, with the message each now raises.
REFUSED = {
    "featurize_docs-none": (
        lambda v: featurize_docs(None, v["gazetteer"], v["lexicons"]),
        "docs must be a sequence, not the NoneType None",
    ),
    "build_gazetteer-none": (
        lambda v: build_gazetteer(None, v["lexicons"].lemma_table),
        "docs must be a sequence, not the NoneType None",
    ),
    "make_examples-none": (
        lambda v: make_examples(None, v["gazetteer"], v["lexicons"], v["model"]),
        "docs must be a sequence, not the NoneType None",
    ),
    "split-none-corpus": (
        lambda v: split(None, SplitPlan()), "corpus must be a sequence, not the NoneType None"
    ),
    "run_experiment-none-corpus": (
        lambda v: run_experiment(None, ExperimentConfig()),
        "corpus must be a sequence, not the NoneType None",
    ),
    "score_documents-none-docs": (
        lambda v: score_documents(None, [], FIELDS),
        "docs must be a sequence, not the NoneType None",
    ),
    "split-none-plan": (
        lambda v: split(v["docs"], None), "plan must be a SplitPlan, got NoneType"
    ),
    "run_experiment-none-cfg": (
        lambda v: run_experiment(v["docs"], None), "cfg must be an ExperimentConfig, got NoneType"
    ),
    "train-none-config": (
        lambda v: train(v["model"], v["examples"], None),
        "config must be a TrainConfig, got NoneType",
    ),
    "compile_chain-none": (
        lambda v: compile_chain(None), "model must be a BienModel, got NoneType"
    ),
    "featurize-str-mask": (
        lambda v: featurize(v["docs"][0], v["gazetteer"], v["lexicons"], mask="lemma"),
        "mask must be a sequence, not the str 'lemma'",
    ),
    # a str word list matched substrings: "a" was coded Location, as part of "hall"
    "LexiconSet-str-locations": (
        lambda v: featurize(v["docs"][0], v["gazetteer"], replace(v["lexicons"], locations="hall")),
        "LexiconSet.locations must be a frozenset, got str",
    ),
    "LexiconSet-none-titles": (
        lambda v: featurize(v["docs"][0], v["gazetteer"], replace(v["lexicons"], titles=None)),
        "LexiconSet.titles must be a frozenset, got NoneType",
    ),
    "LexiconSet-list-firstnames": (
        lambda v: featurize(
            v["docs"][0], v["gazetteer"], replace(v["lexicons"], firstnames=["ann"])
        ),
        "LexiconSet.firstnames must be a dict, got list",
    ),
    "Document-none-text": (
        lambda v: Document("x", None, []), "document text must be a str, got NoneType"
    ),
    "Document-none-tokens": (
        lambda v: Document("x", "", None),
        "document tokens must be a sequence, not the NoneType None",
    ),
    # built a document whose gold spans build_gazetteer could not read
    "Document-none-gold_spans": (
        lambda v: Document("x", "", [], None),
        "x: gold spans must be a sequence, not the NoneType None",
    ),
    # raised an AttributeError reading the span's end
    "Document-none-gold-span": (
        lambda v: Document("x", "", [], [None]), "x: a gold span must be a TagSpan, got NoneType"
    ),
    "Document-tuple-gold-span": (
        lambda v: Document("x", "", [], [("speaker", 0, 0)]),
        "x: a gold span must be a TagSpan, got tuple",
    ),
    "Document-list-columns": (
        lambda v: Document("x", "", [], (), [("pos", [])]),
        "document columns must be a dict, got list",
    ),
    "Token-str-offsets": (
        lambda v: Token("a", "x", "y", "word"), "token start must be an int >= 0, got 'x'"
    ),
    "Token-none-offsets": (
        lambda v: Token("a", None, None, "word"), "token start must be an int >= 0, got None"
    ),
    # built a token that no text holds
    "Token-negative-start": (
        lambda v: Token("a", -1, 0, "word"), "token start must be an int >= 0, got -1"
    ),
    # scored as no speaker produced, with no error
    "TagSpan-bytes-field": (
        lambda v: score_documents(
            v["docs"],
            [[TagSpan(s.field.encode(), s.start_token, s.end_token) for s in doc.gold_spans]
             for doc in v["docs"]],
            FIELDS,
        ),
        "span field must be a str, got bytes",
    ),
}


@pytest.mark.parametrize("case", REFUSED)
def test_a_top_level_argument_of_the_wrong_type_is_refused(case):
    """Each of these calls raised Python's own error deep inside the
    package, returned an empty result (``featurize_docs(None, ...)``) or
    a wrong one (spans of a ``bytes`` field), built a document with no
    text or no gold spans or a token before its text, or refused the
    letters of a mask given as one name."""
    call, message = REFUSED[case]
    with pytest.raises(InvalidSpec, match=f"^{re.escape(message)}$"):
        call(valid())


# Calls that raised a TypeError or an AttributeError for a resource of
# ``None``, with the message each now raises.
MISSING = {
    "feature_cardinalities-none": (
        lambda: feature_cardinalities(None), "feature_cardinalities needs a gazetteer"
    ),
    "Gazetteer-none-lemma_table": (
        lambda: Gazetteer({"a": 1}, None), "a gazetteer needs a lemma table"
    ),
}


@pytest.mark.parametrize("case", MISSING)
def test_a_resource_of_none_is_missing(case):
    call, message = MISSING[case]
    with pytest.raises(MissingResource, match=f"^{re.escape(message)}$"):
        call()


class RaggedScores:
    """Evidence whose scores are two rows of unequal length."""

    def log_emission(self, chain):
        return [[0.0] * chain.n_states, [0.0]]


def call_with(entry, **argument):
    """A valid call of ``entry`` with ``argument`` in place of its own."""
    function, arguments = valid_arguments(entry)
    return function(**{**arguments, **argument})


# Calls with one array argument given as rows of unequal length, which
# numpy cannot read as one array, and the name their refusal gives it.
# ``KINDS`` holds no such value, since a sequence argument such as
# ``docs`` takes nested lists.
RAGGED = {
    "number_observations-obs": (
        lambda v: call_with("number_observations", obs=[[1, 2], [3]]), "observations"
    ),
    "number_observations-lengths": (
        lambda v: call_with("number_observations", lengths=[[1], [2, 3]]), "lengths"
    ),
    "viterbi_batch-table": (
        lambda v: call_with("viterbi_batch", table=[[0.0], [0.0, 0.0]]), "emissions"
    ),
    "viterbi_batch-rows": (lambda v: call_with("viterbi_batch", rows=[[0], [0, 0]]), "row numbers"),
    "viterbi_batch-lengths": (
        lambda v: call_with("viterbi_batch", lengths=[[1], [2, 3]]), "lengths"
    ),
    "viterbi-evidence": (lambda v: call_with("viterbi", evidence=RaggedScores()), "emissions"),
    "decode-obs": (lambda v: call_with("decode", obs=[[1, 2], [3]]), "observations"),
    "log_emission-obs_matrix": (lambda v: v["chain"].log_emission([[1], [1, 2]]), "observations"),
    "assemble_slots-tag_seq": (lambda v: assemble_slots([[1], [1, 2]], v["model"].tags), "tags"),
    "StackedExamples-obs": (
        lambda v: StackedExamples(("a",), [2], [[1, 2], [3]], [0, 0]), "observations"
    ),
}


@pytest.mark.parametrize("case", RAGGED)
def test_an_array_argument_that_is_not_one_array_is_refused(case):
    """Rows of unequal length raised numpy's own ``ValueError``; now the
    call raises ``InvalidSpec`` naming the argument."""
    call, named = RAGGED[case]
    message = f"^{re.escape(named)} must be .*, got a list that is not one array$"
    with pytest.raises(InvalidSpec, match=message):
        call(valid())


@pytest.mark.parametrize("name", [f.name for f in fields(LexiconSet)])
@settings(max_examples=4, deadline=None)
@given(data=st.data())
def test_a_lexicon_set_field_of_a_type_it_does_not_take_is_refused(name, data):
    """A lexicon set checks each of its fields when it is built, so no
    word list of the wrong type reaches the per-type semantic codes."""
    takes = {"dict"} if isinstance(getattr(valid()["lexicons"], name), dict) else set()
    for kind in KINDS.keys() - takes:
        value = data.draw(KINDS[kind], label=kind)
        with pytest.raises(InvalidSpec, match=f"^LexiconSet.{name} must be a"):
            replace(valid()["lexicons"], **{name: value})


def one_pass(items):
    return (item for item in items)


# Calls that read a sequence argument more than once, with ``seq`` making
# that argument from a list.
READ_TWICE = {
    "score_documents-fields": lambda v, seq: score_documents(
        v["docs"], [doc.gold_spans for doc in v["docs"]], seq(FIELDS)
    ),
    "featurize_docs-docs": lambda v, seq: featurize_docs(
        seq(v["docs"]), v["gazetteer"], v["lexicons"]
    ),
    "mask_columns-mask": lambda v, seq: mask_columns(seq(["lemma"])),
    "run_experiment-mask": lambda v, seq: [
        (run.log_likelihood, run.macro)
        for run in run_experiment(
            v["docs"], ExperimentConfig(mask=seq(["lemma"]), plan=SplitPlan(runs=1))
        ).runs
    ],
}


@pytest.mark.parametrize("case", READ_TWICE)
def test_a_one_pass_iterator_gives_what_a_list_gives(case):
    """A sequence is taken once, as a tuple: a generator gives the result
    that a list gives. These calls returned empty tallies, raised
    ``IndexError`` or masked nothing."""
    call = READ_TWICE[case]
    want = call(valid(), list)
    assert len(want)
    np.testing.assert_equal(call(valid(), one_pass), want)


def _two_types():
    table = TypeTable()
    table.ids_of([("a", "word"), ("b", "word")])
    return table


def _stack(obs, tags):
    """A stack of one example, document "d", or of none for no rows."""
    n = len(tags)
    return StackedExamples(("d",) if n else (), [n] if n else [], obs, tags)


class IntegerRead(NamedTuple):
    """A read of an integer array: ``call(v, x)`` makes an otherwise valid
    call (``v`` from :func:`valid`) with ``x`` where the read takes its
    array, ``good`` is an array it takes, ``rule`` the text of its
    refusals, and ``low`` and ``high`` its bounds. A stack of examples
    names the example that holds an entry out of range, with ``located``
    as its rule."""

    call: object
    good: list
    rule: str
    low: int
    high: object = None
    located: str = None


INTEGER_READS = {
    "TokenView-type_ids": IntegerRead(
        lambda v, x: TokenView(_two_types(), x, np.zeros(len(x), np.int32)),
        [0, 1], "token type ids must be 1-D integers in 0 .. 1", 0, 2,
    ),
    "TokenView-starts": IntegerRead(
        lambda v, x: TokenView(_two_types(), np.zeros(len(x), np.int32), x),
        [0, 2], "token starts must be 1-D integers of at least 0", 0,
    ),
    "ColumnView-codes": IntegerRead(
        lambda v, x: ColumnView(("NN", "VB"), x),
        [0, 1], "column codes must be 1-D integers in 0 .. 1", 0, 2,
    ),
    "viterbi_batch-rows": IntegerRead(
        lambda v, x: viterbi_batch(v["chain"], np.zeros((3, v["chain"].n_states)), x, [len(x)]),
        [0, 2], "row numbers must be 1-D integers in 0 .. 2", 0, 3,
    ),
    "assemble_slots-tags": IntegerRead(
        lambda v, x: assemble_slots(x, v["model"].tags),
        [0, 1, 2], "tags must be 1-D integers in 0 .. 16", 0, 17,
    ),
    "check_lengths": IntegerRead(
        lambda v, x: check_lengths(x, 3 if len(x) else 0),
        [1, 2], "lengths must be 1-D integers in 0 .. 3", 0, 4,
    ),
    "number_observations-cardinalities": IntegerRead(
        lambda v, x: number_observations(np.zeros((2, len(x)), np.int16), [2], x),
        [3, 2], "cardinalities must be 1-D integers of at least 1", 1,
    ),
    "check_observations": IntegerRead(
        lambda v, x: check_observations(x, np.array([3, 2])),
        [[0, 1], [2, -1]], "observations must be 2-D integers in -1 .. [2, 1] by column", -1,
        [3, 2],
    ),
    "StackedExamples-tags": IntegerRead(
        lambda v, x: _stack(np.zeros((len(x), 2), np.int16), x),
        [0, 1], "tags must be 1-D integers", 0,
        located="d: tags must be 1-D integers of at least 0",
    ),
    "StackedExamples-obs": IntegerRead(
        lambda v, x: _stack(x, np.zeros(len(x), np.int64)),
        [[0, 1], [2, -1]], "observations must be 2-D integers", -1,
        located="d: observations must be 2-D integers of at least -1",
    ),
}


def _faults(read):
    """``(value, message)`` of each fault ``read`` refuses: a bool array, a
    float array of whole numbers, one dimension too many, and an entry
    below ``low`` and one at ``high``, the second entry in both."""
    good = np.array(read.good, np.int64)
    faults = {
        "bool": (good.astype(bool), f"bool of shape {good.shape}"),
        "whole-floats": (good.astype(float), f"float64 of shape {good.shape}"),
        "wrong-ndim": (good[..., None], f"int64 of shape {good.shape + (1,)}"),
    }
    index = list(np.unravel_index(1, good.shape))
    for case, bound in (("below-low", read.low - 1), ("at-high", read.high)):
        if bound is not None:
            bound = int(np.broadcast_to(bound, good.shape)[tuple(index)])
            bad = good.copy()
            bad[tuple(index)] = bound
            faults[case] = (bad, f"{bound} at {[int(i) for i in index]}")
    return faults


INTEGER_FAULTS = [
    (read, case) for read in INTEGER_READS for case in _faults(INTEGER_READS[read])
]


@pytest.mark.parametrize("read, case", INTEGER_FAULTS, ids=[f"{r}-{c}" for r, c in INTEGER_FAULTS])
def test_every_integer_read_refuses_by_the_one_rule(read, case):
    """Each of the ten reads of an integer array refuses a bool array, a
    float array (though its entries are whole), the wrong number of
    dimensions and an entry out of its bounds, in the one wording of
    ``errors.check_integers``: the rule and what it got. A stack of
    examples names the example instead for an entry out of range."""
    integer_read = INTEGER_READS[read]
    value, got = _faults(integer_read)[case]
    message = f"{integer_read.rule}, got {got}"
    if integer_read.located and case == "below-low":
        message = integer_read.located
    with pytest.raises(InvalidSpec, match=f"^{re.escape(message)}$"):
        integer_read.call(valid(), value)


@pytest.mark.parametrize("read", INTEGER_READS)
def test_every_integer_read_takes_an_empty_list(read):
    """An empty list, which numpy reads as float64, and an empty matrix
    for the 2-D reads: ``TokenView`` and ``viterbi_batch`` refused what
    ``check_lengths`` took. A stack of no examples is refused, as empty."""
    empty = [] if np.ndim(INTEGER_READS[read].good) == 1 else np.zeros((0, 2))
    try:
        INTEGER_READS[read].call(valid(), empty)
    except EmptyCorpus:
        assert read.startswith("StackedExamples")


class TestOneIntegerRule:
    """Reads that disagreed before the rule was one. The fourth, a view
    that took a negative start, is ``TokenView-starts-below-low`` above."""

    def test_an_empty_view_and_an_empty_batch_are_taken(self):
        view = TokenView(_two_types(), [], [])
        assert len(view) == 0 and view.type_ids.dtype == np.int64
        chain = valid()["chain"]
        assert viterbi_batch(chain, np.zeros((0, chain.n_states)), [], []) == []

    @pytest.mark.parametrize("tags", [np.zeros(3), np.array([0.0, 1.0])], ids=["zeros", "labelled"])
    def test_float_tags_are_refused_labelled_or_not(self, tags):
        rule = f"tags must be 1-D integers in 0 .. 16, got float64 of shape {tags.shape}"
        with pytest.raises(InvalidSpec, match=f"^{re.escape(rule)}$"):
            assemble_slots(tags, valid()["model"].tags)

    @pytest.mark.parametrize("build, named", [
        (lambda value: Token("a", value, 1, "word"), "token start must be an int >= 0"),
        (lambda value: Token("a", 0, value, "word"), "token end must be an int"),
        (lambda value: TagSpan("speaker", value, 2), "span start must be an int >= 0"),
        (lambda value: TagSpan("speaker", 0, value), "span end must be an int >= 0"),
    ], ids=["token-start", "token-end", "span-start", "span-end"])
    @pytest.mark.parametrize("value", [True, np.True_], ids=["bool", "numpy-bool"])
    def test_a_bool_offset_or_bound_is_refused(self, build, named, value):
        with pytest.raises(InvalidSpec, match=f"^{re.escape(f'{named}, got {value!r}')}$"):
            build(value)

    def test_numpy_ints_are_kept_as_python_ints(self):
        token = Token("ab", np.int64(1), np.int32(3), "word")
        span = TagSpan("speaker", np.int64(1), np.uint8(2))
        assert [type(x) for x in (token.start, token.end, span.start_token, span.end_token)] == [
            int, int, int, int
        ]
        bounds = json.loads(json.dumps([span.start_token, span.end_token]))
        assert TagSpan(span.field, *bounds) == span

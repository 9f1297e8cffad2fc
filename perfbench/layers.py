"""Tracing wrappers around each layer's public API (traced runs only).

The program itself is not instrumented.  A traced run hands the program
these subclasses and delegating wrappers through its public constructors
and setters, the way ``SlowDetector`` wraps a detector in
``benchmarks/test_bench_gateway_saturation.py``; each records spans into
one :class:`~spans.SpanRecorder`.

================================  ====================  ===================
wrapper                           layer                 span name
================================  ====================  ===================
:class:`TimedFeatureService`      ``features``          ``features``
:class:`TimedDetector`            ``models`` / ``ml``   ``model``
:class:`TimedScoringService`      ``serving.service``   ``submit``,
                                                        ``score_batch``
:class:`TimedNode`                ``chain``             ``rpc``
:class:`TimedAnalyzer`            ``analysis``          ``analysis``
:class:`TimedCheckpoint`          ``monitor``           ``checkpoint``
================================  ====================  ===================
"""

from __future__ import annotations

import threading
import time

from repro.analysis import StaticAnalyzer
from repro.evm.disassembler import normalize_bytecode
from repro.features.batch import BatchFeatureService, content_key
from repro.monitor import Checkpoint
from repro.serving import ScoringService

from spans import SpanRecorder

#: Public extraction entry points of :class:`BatchFeatureService`.
FEATURE_METHODS = (
    "count_vector",
    "count_matrix",
    "transform",
    "sequence",
    "sequences",
    "ngram_codes",
    "ngram_codes_batch",
    "byte_counts",
    "byte_count_matrix",
    "r2d2_image",
    "r2d2_images",
    "analysis_vector",
    "analysis_matrix",
)


class TimedFeatureService(BatchFeatureService):
    """A feature service recording one ``features`` span per outermost call.

    Public methods call each other (``transform`` calls ``count_matrix``),
    so a per-thread depth counter keeps nested calls out of the log.
    """

    def __init__(self, recorder: SpanRecorder, **kwargs) -> None:
        super().__init__(**kwargs)
        self.bench_recorder = recorder
        self._bench_depth = threading.local()

    def _bench_call(self, method, args, kwargs):
        depth = getattr(self._bench_depth, "value", 0)
        self._bench_depth.value = depth + 1
        start = time.perf_counter()
        try:
            return method(self, *args, **kwargs)
        finally:
            self._bench_depth.value = depth
            if depth == 0:
                self.bench_recorder.add("features", start, time.perf_counter())


def _timed_feature_method(name: str):
    method = getattr(BatchFeatureService, name)

    def timed(self, *args, **kwargs):
        return self._bench_call(method, args, kwargs)

    timed.__name__ = name
    timed.__doc__ = method.__doc__
    return timed


for _name in FEATURE_METHODS:
    setattr(TimedFeatureService, _name, _timed_feature_method(_name))


class TimedDetector:
    """Delegate to a fitted detector, recording each ``predict_proba`` pass.

    The span carries the pass's row count and the content keys of its rows,
    which is how a request's micro-batch wait is matched to the pass that
    scored it.  Set ``feature_service`` on the wrapped detector, not here.
    """

    def __init__(self, detector, recorder: SpanRecorder) -> None:
        self._detector = detector
        self._recorder = recorder

    def __getattr__(self, name):
        return getattr(self._detector, name)

    def predict_proba(self, bytecodes):
        codes = list(bytecodes)
        start = time.perf_counter()
        probabilities = self._detector.predict_proba(codes)
        end = time.perf_counter()
        keys = [content_key(normalize_bytecode(code)) for code in codes]
        self._recorder.add("model", start, end, rows=len(codes), keys=keys)
        return probabilities


class TimedScoringService(ScoringService):
    """Record ``submit`` until its future resolves, and each ``score_batch``."""

    def __init__(self, *args, recorder: SpanRecorder, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.bench_recorder = recorder

    def submit(self, bytecode):
        key = content_key(normalize_bytecode(bytecode))
        start = time.perf_counter()
        future = super().submit(bytecode)
        recorder = self.bench_recorder
        future.add_done_callback(
            lambda _: recorder.add("submit", start, time.perf_counter(), key=key)
        )
        return future

    def score_batch(self, bytecodes, addresses=None):
        with self.bench_recorder.timed("score_batch", rows=len(bytecodes)):
            return super().score_batch(bytecodes, addresses)


class TimedNode:
    """Delegate to a node, recording every call of its RPC surface."""

    RPC_METHODS = frozenset({"block_number", "get_block", "get_code", "get_receipt", "request"})

    def __init__(self, node, recorder: SpanRecorder) -> None:
        self._node = node
        self._recorder = recorder

    def __getattr__(self, name):
        attribute = getattr(self._node, name)
        if name not in self.RPC_METHODS:
            return attribute
        recorder = self._recorder

        def timed(*args, **kwargs):
            with recorder.timed("rpc", method=name):
                return attribute(*args, **kwargs)

        return timed


class TimedAnalyzer(StaticAnalyzer):
    """A static analyzer recording one ``analysis`` span per report."""

    def __init__(self, *args, recorder: SpanRecorder, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.bench_recorder = recorder

    def analyze(self, bytecode):
        with self.bench_recorder.timed("analysis"):
            return super().analyze(bytecode)


class TimedCheckpoint(Checkpoint):
    """A checkpoint recording one ``checkpoint`` span per save."""

    def __init__(self, path, recorder: SpanRecorder) -> None:
        super().__init__(path)
        self.bench_recorder = recorder

    def save(self, *args, **kwargs):
        with self.bench_recorder.timed("checkpoint"):
            return super().save(*args, **kwargs)


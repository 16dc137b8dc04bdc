"""Span tracing from outside the program, by patching the names callers use.

A :class:`Tracer` replaces each traced function, at the name its callers
look up, with a wrapper that records a span: name, start, end and the index
of the span that was open when it began.  Deactivating puts the originals
back, so untraced runs call the program's own functions.  Spans stay in
memory until :meth:`Tracer.fold` turns them into per-name counts, self times
and inclusive times; self time is a span's duration minus the time its
child spans cover.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager

import workloads
from ludercheck import apparatus, cli, linalg, protocol, quantum, scenarios

#: (owner, attribute, span name).  A function imported into several modules
#: is patched in each module whose code calls it; the span name gives the
#: layer that defines it.  Dataclass validation is timed through
#: ``__post_init__``, which every construction runs.
TARGETS = (
    (linalg, "hermitian_eig", "linalg.hermitian_eig"),
    (protocol, "hermitian_eig", "linalg.hermitian_eig"),
    (linalg, "projector_from_vectors", "linalg.projector_from_vectors"),
    (quantum, "spectral_decompose", "quantum.spectral_decompose"),
    (protocol, "spectral_decompose", "quantum.spectral_decompose"),
    (scenarios, "spectral_decompose", "quantum.spectral_decompose"),
    (protocol, "build_sigma", "quantum.build_sigma"),
    (protocol, "build_sigma_prime", "quantum.build_sigma_prime"),
    (protocol, "measure_pure", "quantum.measure_pure"),
    (quantum.DensityMatrix, "__post_init__", "quantum.DensityMatrix"),
    (quantum.PureState, "__post_init__", "quantum.PureState"),
    (apparatus.MeasurementApparatus, "measure_sampled", "apparatus.measure_sampled"),
    (apparatus.MeasurementApparatus, "channel_exact", "apparatus.channel_exact"),
    (protocol, "discriminate", "protocol.discriminate"),
    (protocol, "prepare_ensemble", "protocol.prepare_ensemble"),
    (protocol, "run_stage", "protocol.run_stage"),
    (scenarios, "instantiate", "scenarios.instantiate"),
    (scenarios, "build_consecutive", "scenarios.build_consecutive"),
    (cli, "build_report", "cli.build_report"),
    (workloads, "encode_report", "cli.json_encode"),
)


class Tracer:
    """Records spans while active; folds them into per-name totals."""

    def __init__(self):
        self.spans: list = []
        self._open: list[int] = []

    def _wrap(self, name, fn):
        spans = self.spans
        open_spans = self._open
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = open_spans[-1] if open_spans else -1
            open_spans.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                open_spans.pop()
                spans[index] = (name, start, end, parent)

        return wrapper

    @contextmanager
    def active(self):
        """Patch every target for the duration of the block."""
        saved = []
        try:
            for owner, attribute, name in TARGETS:
                original = vars(owner)[attribute]
                saved.append((owner, attribute, original))
                setattr(owner, attribute, self._wrap(name, original))
            yield self
        finally:
            for owner, attribute, original in reversed(saved):
                setattr(owner, attribute, original)

    def fold(self, totals: dict[str, list]) -> None:
        """Add the recorded spans to ``totals`` and forget them.

        ``totals[name]`` is ``[calls, self_s, inclusive_s]``.  Call only when
        no span is open.
        """
        spans = self.spans
        covered = [0.0] * len(spans)
        for _, start, end, parent in spans:
            if parent >= 0:
                covered[parent] += end - start
        for (name, start, end, _), child in zip(spans, covered):
            entry = totals.setdefault(name, [0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += end - start - child
            entry[2] += end - start
        spans.clear()

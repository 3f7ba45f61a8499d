"""Execution timelines: hierarchical spans assembled from the hook stream.

The :class:`~repro.telemetry.recorder.TraceRecorder` hooks are a flat
stream -- one callback per charged step, per ``Miss[l]`` transition, per
completed ``mitigate``.  This module assembles that stream into the
*temporal structure* the paper argues about:

* a **run** span per execution (global clock 0 to the final time);
* a **mitigate** span per epoch, opened by
  :meth:`~repro.telemetry.recorder.TraceRecorder.on_mitigate_enter` and
  closed at settlement, carrying the estimate, the entry prediction, the
  final ``Miss[l]``, and the elapsed/padded split;
* a **padding** child span covering exactly the pure-padding tail of each
  epoch (the Fig. 6 padding interval, visible as a block in Perfetto);
* **command** leaf spans (one per charged step, interval
  ``[time - cost, time]``) with an optional **hardware** child span when
  the step resolved cache/TLB/branch accesses -- the access burst behind
  the step's cost.

Two sinks consume the assembly:

* :attr:`SpanRecorder.spans` -- the retained span list, fed to
  :func:`repro.telemetry.export.chrome_trace` for Perfetto; and
* an :class:`EventJournal` -- a streaming, append-only JSONL file with a
  bounded in-memory ring option, so arbitrarily long runs never blow
  memory (spans are journaled as they *close*, never buffered).

Every record carries the ``repro.telemetry/1`` schema via the journal
header line; see ``docs/TELEMETRY.md`` for the field-by-field schema.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional

from ..lattice import Label
from .metrics import SCHEMA
from .recorder import TraceRecorder

#: Span categories, also used as Chrome trace-event ``cat`` values.
CATEGORY_RUN = "run"
CATEGORY_COMMAND = "command"
CATEGORY_SLEEP = "sleep"
CATEGORY_MITIGATE = "mitigate"
CATEGORY_PADDING = "padding"
CATEGORY_HARDWARE = "hardware"


def json_safe(value: Any) -> Any:
    """Recursively convert telemetry attributes to JSON-encodable values
    (security :class:`~repro.lattice.Label`\\ s become their names)."""
    if isinstance(value, Label):
        return value.name
    if isinstance(value, Mapping):
        return {str(k): json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [json_safe(v) for v in value]
    return value


@dataclass
class Span:
    """One interval of an execution timeline, in global-clock cycles.

    ``track`` numbers the run the span belongs to (one recorder can watch
    many executions -- a leakage sweep, a benchmark stream); ``parent_id``
    gives the hierarchy within a track.  ``end`` is ``None`` while the
    span is still open.
    """

    span_id: int
    parent_id: Optional[int]
    track: int
    name: str
    category: str
    start: int
    end: Optional[int] = None
    attrs: Dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> Optional[int]:
        """``end - start``, or ``None`` while the span is open."""
        return None if self.end is None else self.end - self.start

    def as_record(self) -> Dict[str, Any]:
        """The journal representation (``type: span``)."""
        return {
            "type": "span",
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "track": self.track,
            "name": self.name,
            "category": self.category,
            "start": self.start,
            "end": self.end,
            "attrs": json_safe(self.attrs),
        }

    @classmethod
    def from_record(cls, record: Mapping[str, Any]) -> "Span":
        """Rebuild a span from its journal record."""
        return cls(
            span_id=record["span_id"],
            parent_id=record.get("parent_id"),
            track=record.get("track", 0),
            name=record["name"],
            category=record["category"],
            start=record["start"],
            end=record.get("end"),
            attrs=dict(record.get("attrs", {})),
        )


class EventJournal:
    """Append-only JSONL sink with a bounded in-memory ring.

    Parameters
    ----------
    path:
        Optional file to stream records into, one JSON object per line.
        The first line is a header record carrying the schema version.
    ring_size:
        How many records to retain in memory (:meth:`records`).  ``None``
        keeps everything -- fine for tests and short runs; pass a bound
        for long executions so memory stays O(ring_size) while the file
        keeps the full stream.
    """

    def __init__(self, path: Optional[str] = None,
                 ring_size: Optional[int] = None):
        self._handle = open(path, "w") if path else None
        self.path = path
        self._ring: deque = deque(maxlen=ring_size)
        self.emitted = 0
        self.emit({"type": "header", "schema": SCHEMA, "kind": "journal"})

    def emit(self, record: Mapping[str, Any]) -> None:
        """Append one record (written to disk immediately when backed by
        a file)."""
        record = json_safe(record)
        self._ring.append(record)
        self.emitted += 1
        if self._handle is not None:
            self._handle.write(json.dumps(record) + "\n")

    def records(self) -> List[Dict[str, Any]]:
        """The retained records (the tail, when a ring bound is set)."""
        return list(self._ring)

    def close(self) -> None:
        """Flush and close the backing file (idempotent)."""
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "EventJournal":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def load_journal(path: str) -> List[Dict[str, Any]]:
    """Read a journal file back into records (header included)."""
    records = []
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    return records


def spans_from_journal(records: List[Dict[str, Any]]) -> List[Span]:
    """Rebuild the span list from journal records (``type: span`` only),
    ordered by start time within each track."""
    spans = [Span.from_record(r) for r in records if r.get("type") == "span"]
    spans.sort(key=lambda s: (s.track, s.start, s.span_id))
    return spans


class SpanRecorder(TraceRecorder):
    """Assembles the flat hook stream into hierarchical spans.

    Parameters
    ----------
    journal:
        Optional :class:`EventJournal`; spans are emitted as they close,
        plus ``run_start``/``run_end``/``miss_update``/``attack_*``
        records, so the journal is a faithful stream of the execution.
    detail:
        ``"commands"`` keeps one leaf span per charged step (full
        timelines, the default); ``"epochs"`` keeps only run and mitigate
        spans and aggregates step/hardware activity into their attributes
        -- the right setting for benchmark streams of hundreds of runs.
    keep_spans:
        Retain closed spans in :attr:`spans` (needed for Chrome trace
        export).  Turn off for journal-only recording on very long runs.
    """

    def __init__(
        self,
        journal: Optional[EventJournal] = None,
        detail: str = "commands",
        keep_spans: bool = True,
    ):
        if detail not in ("commands", "epochs"):
            raise ValueError("detail must be 'commands' or 'epochs'")
        self.journal = journal
        self.detail = detail
        self.keep_spans = keep_spans
        #: Closed spans, in close order (children precede their parents).
        self.spans: List[Span] = []
        self._stack: List[Span] = []
        self._next_id = 0
        self._track = -1
        self._run_attrs: Dict[str, Any] = {}
        #: When the latest span closed (the run's clock, as far as seen).
        self._last_end = 0

    # -- span plumbing -------------------------------------------------------

    def _open_span(self, name: str, category: str, start: int,
                   parent: Optional[Span]) -> Span:
        span = Span(
            span_id=self._next_id,
            parent_id=parent.span_id if parent is not None else None,
            track=self._track,
            name=name,
            category=category,
            start=start,
        )
        self._next_id += 1
        return span

    def _close_span(self, span: Span, end: int) -> None:
        span.end = end
        self._last_end = end
        if self.keep_spans:
            self.spans.append(span)
        if self.journal is not None:
            self.journal.emit(span.as_record())

    def _leaf(self, name: str, category: str, start: int, end: int,
              attrs: Dict[str, Any]) -> Span:
        span = self._open_span(name, category, start,
                               self._stack[-1] if self._stack else None)
        span.attrs.update(attrs)
        self._close_span(span, end)
        return span

    def _ensure_run(self, time: int = 0) -> Span:
        if not self._stack:
            self._track += 1
            root = self._open_span(f"run {self._track}", CATEGORY_RUN,
                                   min(time, 0) if time < 0 else 0, None)
            root.attrs.update(self._run_attrs)
            self._stack.append(root)
            self._last_end = root.start
            if self.journal is not None:
                self.journal.emit({
                    "type": "run_start",
                    "track": self._track,
                    "attrs": self._run_attrs,
                })
        return self._stack[0]

    def _innermost(self) -> Span:
        return self._stack[-1]

    def _aggregate(self, key: str, amount: int = 1) -> None:
        """Bump an aggregate counter on the innermost open span
        (``epochs`` detail keeps totals instead of leaf spans)."""
        attrs = self._innermost().attrs
        attrs[key] = attrs.get(key, 0) + amount

    # -- interpreter-level hooks ---------------------------------------------

    def on_run_start(self, attrs: Mapping[str, Any]) -> None:
        # Stash the configuration; the root span opens on the first timed
        # event so a recorder can be reused across executions.
        self._run_attrs = dict(attrs)
        self._ensure_run()

    def on_step(self, kind, cost: int, time: int, wall_ns: int,
                hw: Mapping[str, int]) -> None:
        self._ensure_run(time - cost)
        if self.detail == "epochs":
            self._aggregate("steps")
            self._aggregate("machine_cycles", cost)
            for key, count in hw.items():
                self._aggregate(f"hw.{key}", count)
            return
        parent = self._innermost()
        span = self._open_span(kind.value, CATEGORY_COMMAND, time - cost,
                               parent)
        span.attrs["cost"] = cost
        if hw:
            # The hardware child (a copy of the burst) closes first so
            # journal order stays child-before-parent (B/E nesting).
            burst = self._open_span("hw burst", CATEGORY_HARDWARE,
                                    time - cost, span)
            burst.attrs.update(hw)
            self._close_span(burst, time)
        self._close_span(span, time)

    def on_sleep(self, duration: int, time: int) -> None:
        self._ensure_run(time - duration)
        if self.detail == "epochs":
            self._aggregate("steps")
            self._aggregate("sleep_cycles", duration)
            return
        self._leaf("sleep", CATEGORY_SLEEP, time - duration, time,
                   {"duration": duration})

    def on_finish(self, result) -> None:
        root = self._ensure_run(result.time)
        while self._stack:
            span = self._stack.pop()
            if span is root:
                span.attrs.setdefault("final_time", result.time)
                span.attrs.setdefault("total_steps", result.steps)
                span.attrs.setdefault("mitigations",
                                      len(result.mitigations))
            self._close_span(span, result.time)
        if self.journal is not None:
            self.journal.emit({
                "type": "run_end",
                "track": self._track,
                "time": result.time,
                "steps": result.steps,
            })
        self._run_attrs = {}

    def on_abort(self, error: BaseException) -> None:
        # Close what the run left open where its last span closed, so the
        # spans of the steps taken still nest under one run span; each
        # span closed here says why it ended.
        self._ensure_run()
        end = self._last_end
        while self._stack:
            span = self._stack.pop()
            span.attrs["aborted"] = str(error)
            self._close_span(span, end)
        if self.journal is not None:
            self.journal.emit({
                "type": "run_abort",
                "track": self._track,
                "time": end,
                "error": str(error),
            })
        self._run_attrs = {}

    # -- mitigation-runtime hooks --------------------------------------------

    def on_mitigate_enter(self, mit_id: str, level: Label, estimate: int,
                          prediction: int, time: int) -> None:
        self._ensure_run(time)
        span = self._open_span(mit_id, CATEGORY_MITIGATE, time,
                               self._innermost())
        span.attrs.update({
            "level": level.name,
            "estimate": estimate,
            "prediction": prediction,
        })
        self._stack.append(span)

    def on_miss_update(self, level: Optional[Label], misses: int) -> None:
        key = level.name if level is not None else "global"
        for span in reversed(self._stack):
            if span.category == CATEGORY_MITIGATE:
                span.attrs.setdefault("miss_updates", []).append(
                    {"level": key, "misses": misses}
                )
                break
        if self.journal is not None:
            self.journal.emit({
                "type": "miss_update",
                "track": self._track,
                "level": key,
                "misses": misses,
            })

    def on_mitigation(
        self,
        mit_id: str,
        level: Label,
        estimate: int,
        elapsed: int,
        padded: int,
        misses: int,
        pc_label: Optional[Label],
        end_time: int,
        wall_ns: int,
    ) -> None:
        self._ensure_run(end_time - padded)
        if (self._stack and self._stack[-1].category == CATEGORY_MITIGATE
                and self._stack[-1].name == mit_id):
            span = self._stack.pop()
        else:
            # No matching on_mitigate_enter (recorder fed by hand):
            # synthesize the epoch from the settlement record alone.
            span = self._open_span(mit_id, CATEGORY_MITIGATE,
                                   end_time - padded, self._innermost())
            span.attrs.update({"level": level.name, "estimate": estimate})
        span.attrs.update({
            "elapsed": elapsed,
            "padded": padded,
            "padding": padded - elapsed,
            "misses": misses,
        })
        if pc_label is not None:
            span.attrs["pc"] = pc_label.name
        if padded > elapsed:
            pad = self._open_span("padding", CATEGORY_PADDING,
                                  span.start + elapsed, span)
            self._close_span(pad, end_time)
        self._close_span(span, end_time)

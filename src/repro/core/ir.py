"""The staged query-pipeline IR: typed stage records shared by every consumer.

The engine's evaluation is a fixed sequence of phases — rewrite, WHERE
filtering, zone-map skipping, cardinality-bound derivation,
candidate-space reduction, strategy dispatch, validation.  Before this
module existed, ``evaluate()`` and ``plan()`` each wired that sequence
imperatively, so every new phase had to be threaded through both by
hand.  Now the sequence is *data*: :mod:`repro.core.pipeline` runs the
stages and emits one :class:`StageRecord` per stage run, and every
surface — ``result.stats["stages"]``, ``plan().stages``, the
``repro explain`` CLI table, the engine/plan agreement property test —
renders or compares the same record list instead of re-deriving its
own view of what happened.

A record answers, for one stage in one evaluation: did it run or was
it skipped (and why), over how many candidate rows in and out, in how
much wall-clock, in which fixpoint round, and with what stage-specific
detail (shard counts, bound intervals, the dispatched strategy, ...).
``mode`` distinguishes the engine's *executed* records from the
planner's *simulated* ones; everything else is produced by shared code,
which is what makes the two lists comparable field-for-field.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = [
    "STAGE_BOUNDS",
    "STAGE_NAMES",
    "STAGE_REDUCE",
    "STAGE_REWRITE",
    "STAGE_STRATEGY",
    "STAGE_STREAM",
    "STAGE_VALIDATE",
    "STAGE_WHERE",
    "STAGE_ZONE_SKIP",
    "StageRecord",
    "records_payload",
    "stage_table",
]

#: Canonical stage names, in pipeline order.  ``stream-residents``
#: only appears on sql-backed runs (out-of-core pushdown, see
#: :mod:`repro.core.pushdown`); in-memory evaluations never emit it.
STAGE_REWRITE = "rewrite"
STAGE_WHERE = "where-filter"
STAGE_STREAM = "stream-residents"
STAGE_ZONE_SKIP = "zone-skip"
STAGE_BOUNDS = "prune-bounds"
STAGE_REDUCE = "reduction"
STAGE_STRATEGY = "strategy-dispatch"
STAGE_VALIDATE = "validate"

STAGE_NAMES = (
    STAGE_REWRITE,
    STAGE_WHERE,
    STAGE_STREAM,
    STAGE_ZONE_SKIP,
    STAGE_BOUNDS,
    STAGE_REDUCE,
    STAGE_STRATEGY,
    STAGE_VALIDATE,
)


@dataclass
class StageRecord:
    """One stage run (or skip) of the query pipeline.

    Attributes:
        name: canonical stage name (one of :data:`STAGE_NAMES`).
        round: fixpoint round this run belongs to (1 for single-shot
            stages; the prune/reduce fixpoint counts upward).
        rows_in: candidate rows entering the stage (``None`` when the
            notion does not apply, e.g. ``rewrite``).
        rows_out: candidate rows surviving the stage.
        seconds: wall-clock spent inside the stage (0.0 when skipped
            or simulated-only).
        skipped: ``None`` when the stage ran; otherwise the
            human-readable reason it did not (``"sharding disabled
            (shards=1)"``, ``"cardinality bounds are empty"``, ...).
            Skip reasons are produced by shared pipeline code, so the
            planner's simulated list carries exactly the engine's
            reasons — the agreement property test compares them
            verbatim.
        mode: ``"executed"`` (engine) or ``"simulated"`` (planner).
            Excluded from agreement comparisons; everything else in
            the identity tuple must match.
        detail: stage-specific payload (bound intervals, shard counts,
            reduction stats, the dispatched strategy, ...).
    """

    name: str
    round: int = 1
    rows_in: int | None = None
    rows_out: int | None = None
    seconds: float = 0.0
    skipped: str | None = None
    mode: str = "executed"
    detail: dict = field(default_factory=dict)

    @property
    def ran(self):
        return self.skipped is None

    def identity(self):
        """The tuple the engine/plan agreement property compares.

        Name, round and skip reason — the shape of the pipeline —
        but not timings (nondeterministic) or detail payloads (the
        executed side carries solver statistics the simulation cannot
        know).
        """
        return (self.name, self.round, self.skipped)

    def as_dict(self):
        """The ``stats["stages"]`` payload entry."""
        out = {
            "name": self.name,
            "round": self.round,
            "rows_in": self.rows_in,
            "rows_out": self.rows_out,
            "seconds": self.seconds,
            "skipped": self.skipped,
            "mode": self.mode,
        }
        if self.detail:
            out["detail"] = dict(self.detail)
        return out


def records_payload(records):
    """``stats["stages"]`` — the record list as plain dicts."""
    return [record.as_dict() for record in records]


def _format_rows(value):
    return "-" if value is None else str(value)


def _format_detail(record):
    if record.skipped is not None:
        return record.skipped
    parts = []
    for key, value in record.detail.items():
        if isinstance(value, float):
            parts.append(f"{key}={value:g}")
        elif isinstance(value, dict):
            inner = ", ".join(f"{k}={v}" for k, v in value.items())
            parts.append(f"{key}({inner})")
        else:
            parts.append(f"{key}={value}")
    return ", ".join(parts)


def stage_table(records, parallel=None, artifacts=None):
    """Render records as the ``repro explain`` text table.

    Accepts :class:`StageRecord` objects or their ``as_dict`` payloads
    (the ``stats["stages"]`` spelling).  Columns: stage, fixpoint
    round, rows in/out, wall-clock, and the skip reason or detail
    summary.  ``parallel`` takes the ``stats["parallel"]`` degradation
    events, rendered as a footer so a silent thread-pool fallback is
    never invisible in an EXPLAIN.  ``artifacts`` takes the
    ``stats["artifacts"]`` durable-store counter delta, rendered as a
    footer line (hits/misses/writes/rejections for this query).  A
    sql-pushdown WHERE adds a footer line naming how sqlite reached
    the rows (``index`` or ``rowid-range``) and the two row counts
    that decided it.
    Returns a list of lines.
    """
    records = [
        StageRecord(
            name=entry["name"],
            round=entry.get("round", 1),
            rows_in=entry.get("rows_in"),
            rows_out=entry.get("rows_out"),
            seconds=entry.get("seconds", 0.0),
            skipped=entry.get("skipped"),
            mode=entry.get("mode", "executed"),
            detail=entry.get("detail", {}),
        )
        if isinstance(entry, dict)
        else entry
        for entry in records
    ]
    headers = ("stage", "round", "rows in", "rows out", "time", "notes")
    body = []
    for record in records:
        time_text = "-" if not record.ran else f"{record.seconds * 1e3:.1f} ms"
        body.append(
            (
                record.name,
                str(record.round),
                _format_rows(record.rows_in),
                _format_rows(record.rows_out),
                time_text,
                _format_detail(record),
            )
        )
    widths = [
        max(len(headers[i]), *(len(row[i]) for row in body)) if body else len(headers[i])
        for i in range(len(headers))
    ]
    lines = [
        "  ".join(headers[i].ljust(widths[i]) for i in range(len(headers))),
        "  ".join("-" * widths[i] for i in range(len(headers))),
    ]
    for row in body:
        lines.append("  ".join(row[i].ljust(widths[i]) for i in range(len(headers))))
    lines = [line.rstrip() for line in lines]
    for record in records:
        if record.name == STAGE_WHERE and record.detail.get("access"):
            detail = record.detail
            lines.append(
                f"sql access: {detail['access']} (prefilter "
                f"{detail['prefilter_rows']} rows, kept zones "
                f"{detail['kept_rows']} rows)"
            )
    if parallel:
        lines.append("parallel fallbacks:")
        for event in parallel:
            lines.append(f"  {event['fallback']}")
    if artifacts:
        summary = "  ".join(
            f"{key}={artifacts[key]}"
            for key in ("hits", "misses", "writes", "rejected", "errors")
            if key in artifacts
        )
        lines.append(f"artifact store: {summary}")
    return lines

"""Generic synthetic relations for tests and microbenchmarks."""

from __future__ import annotations

import numpy as np

from repro.relational.relation import Relation
from repro.relational.schema import Column, Schema
from repro.relational.types import ColumnType


def _round(values, digits):
    """``round(v, digits)`` for every float64 ``v`` in ``values``, bit for bit.

    ``rint(v * 10**digits) / 10**digits`` is Python's correctly rounded
    result whenever the scaled value is below 2^52 and the product's
    own rounding cannot have carried it across a half; the few cells
    where it could are rounded one at a time.
    """
    scale = 10.0**digits
    with np.errstate(invalid="ignore", over="ignore"):
        scaled = values * scale
        rounded = np.rint(scaled) / scale
        magnitude = np.abs(scaled)
        from_half = np.abs(scaled - np.floor(scaled) - 0.5)
        clear = (from_half > 4 * np.spacing(magnitude)) & (magnitude < 2.0**52)
    for index in np.flatnonzero(~clear).tolist():
        rounded[index] = round(float(values[index]), digits)
    return rounded


def _draw(rng, start, stop, n, label, columns, low, high, ts):
    """Rows ``[start, stop)`` of a synthetic table, as columns.

    One ``rng.random`` call draws every cell in the order a per-row loop
    would (``ts`` first when present, then each column), and
    ``uniform(low, high)`` is ``low + (high - low) * random()``, so every
    value equals the per-cell ``round(float(rng.uniform(low, high)), 3)``
    bit for bit.  Consecutive calls continue the stream, so batches
    concatenate to the whole table.
    """
    first = 1 if ts else 0
    cells = rng.random((stop - start) * (first + len(columns)))
    cells = cells.reshape(stop - start, first + len(columns))
    drawn = {"label": [f"{label}{i}" for i in range(start, stop)]}
    if ts:
        position = np.arange(start, stop, dtype=np.float64)
        drawn["ts"] = _round((position + cells[:, 0]) * 100.0 / max(n, 1), 6)
    low = float(low)
    span = float(high) - low
    for offset, column in enumerate(columns, first):
        drawn[column] = _round(low + span * cells[:, offset], 3)
    return drawn


#: Rows per draw in :func:`_batches`.  Small blocks keep the numpy
#: temporaries small: with whole-batch blocks, a streamed 220k-row
#: build left ~15 MB more resident than the per-cell loop it replaced.
_BLOCK_ROWS = 1024


def _batches(rng, n, label, columns, low, high, ts, batch_rows):
    """:func:`_draw` in ``batch_rows`` chunks, as lists of row tuples."""
    names = ["label"] + (["ts"] if ts else []) + list(columns)
    step = max(batch_rows, 1)
    for start in range(0, n, step):
        stop = min(start + step, n)
        batch = []
        for first in range(start, stop, _BLOCK_ROWS):
            last = min(first + _BLOCK_ROWS, stop)
            drawn = _draw(rng, first, last, n, label, columns, low, high, ts)
            batch.extend(
                zip(
                    *(
                        drawn[name] if name == "label" else drawn[name].tolist()
                        for name in names
                    )
                )
            )
        yield batch


def uniform_relation(
    n,
    columns=("value",),
    low=0.0,
    high=100.0,
    seed=0,
    name="Uniform",
    null_fraction=0.0,
):
    """A relation of ``n`` rows with uniform float columns.

    Args:
        columns: names of the numeric columns to generate.
        low, high: uniform range (shared by all columns).
        null_fraction: probability of a NULL in each generated cell.
    """
    rng = np.random.default_rng(seed)
    schema = uniform_schema(columns)
    if not null_fraction:
        return Relation.from_columns(
            name, schema, _draw(rng, 0, n, n, "row", columns, low, high, False)
        )
    # A NULL draw precedes each cell, so the cells cannot come from
    # one block of uniforms.
    rows = []
    for i in range(n):
        row = {"label": f"row{i}"}
        for column in columns:
            if rng.random() < null_fraction:
                row[column] = None
            else:
                row[column] = round(float(rng.uniform(low, high)), 3)
        rows.append(row)
    return Relation(name, schema, rows)


def clustered_relation(
    n,
    columns=("cost", "gain", "weight"),
    low=0.0,
    high=100.0,
    seed=0,
    name="Readings",
):
    """A relation whose ``ts`` column increases with row position.

    Models append-ordered data (logs, sensor readings, time series):
    ``ts`` walks 0..100 monotonically with per-row jitter inside its
    own slot, while the other columns stay uniform.  Range predicates
    on ``ts`` therefore touch a contiguous band of rows — the shape
    where zone-map shard skipping pays off (``docs/sharding.md``).
    """
    rng = np.random.default_rng(seed)
    return Relation.from_columns(
        name,
        clustered_schema(columns),
        _draw(rng, 0, n, n, "r", columns, low, high, True),
    )


def uniform_schema(columns=("value",)):
    """The schema :func:`uniform_relation` builds (streaming twin)."""
    return Schema(
        [Column("label", ColumnType.TEXT)]
        + [Column(column, ColumnType.FLOAT) for column in columns]
    )


def uniform_row_batches(
    n,
    columns=("value",),
    low=0.0,
    high=100.0,
    seed=0,
    null_fraction=0.0,
    batch_rows=65536,
):
    """Stream :func:`uniform_relation`'s rows as row-tuple batches.

    Yields lists of row tuples (schema order) without ever holding the
    whole relation; the RNG draw order matches the materializing
    builder exactly, so a
    :class:`~repro.relational.sql_relation.SqlRelation` built from
    these batches is bit-identical (same content fingerprint) to the
    in-memory relation at the same parameters.
    """
    rng = np.random.default_rng(seed)
    if not null_fraction:
        yield from _batches(rng, n, "row", columns, low, high, False, batch_rows)
        return
    batch = []
    for i in range(n):
        row = [f"row{i}"]
        for _ in columns:
            if rng.random() < null_fraction:
                row.append(None)
            else:
                row.append(round(float(rng.uniform(low, high)), 3))
        batch.append(tuple(row))
        if len(batch) >= batch_rows:
            yield batch
            batch = []
    if batch:
        yield batch


def clustered_schema(columns=("cost", "gain", "weight")):
    """The schema :func:`clustered_relation` builds (streaming twin)."""
    return Schema(
        [Column("label", ColumnType.TEXT), Column("ts", ColumnType.FLOAT)]
        + [Column(column, ColumnType.FLOAT) for column in columns]
    )


def clustered_row_batches(
    n,
    columns=("cost", "gain", "weight"),
    low=0.0,
    high=100.0,
    seed=0,
    batch_rows=65536,
):
    """Stream :func:`clustered_relation`'s rows as row-tuple batches.

    The out-of-core counterpart of the append-ordered workload: ``ts``
    still walks 0..100 monotonically, so zone maps over rowid ranges
    carry tight ``ts`` intervals and range predicates skip most zones
    (``docs/out_of_core.md``).  Draw order matches
    :func:`clustered_relation` exactly — same seed, same rows.
    """
    rng = np.random.default_rng(seed)
    yield from _batches(rng, n, "r", columns, low, high, True, batch_rows)


def integer_relation(n, low=1, high=10, seed=0, name="Ints"):
    """A relation with one integer ``value`` column in ``[low, high]``."""
    rng = np.random.default_rng(seed)
    schema = Schema(
        [Column("label", ColumnType.TEXT), Column("value", ColumnType.INT)]
    )
    rows = [
        {"label": f"row{i}", "value": int(rng.integers(low, high + 1))}
        for i in range(n)
    ]
    return Relation(name, schema, rows)

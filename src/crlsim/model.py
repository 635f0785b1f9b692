"""Domain types: the source pool and task queue as column tables, the column
log that holds report rows, the weights config, and the declared interval of
each config field with the one check of them."""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass, field, fields
from itertools import repeat
from numbers import Real
from operator import attrgetter, getitem

import numpy as np

DEAD_SHARE = 0.2  # a pool's age compacts its window once dead rows pass this share of it


def _column(dtype):
    empty = np.empty(0, dtype=dtype)  # shared: a zero-length column has nothing to write
    return field(default_factory=lambda: empty)


class _Table:
    """Parallel numpy columns, one per dataclass field of the subclass, one row per record.

    ``ids`` is the first field, and ``take`` copies.  A ``TaskQueue`` replaces
    columns, so queues may share them; a ``SourcePool`` writes its buffers in
    place, so keep a copy of its column.  Columns are reached by name, never
    through ``vars``, which would turn off CPython's inline attribute values
    and slow every access; ``_columns``, set by ``_table``, reads them in order.
    """

    def __len__(self) -> int:
        return len(self.ids)

    def take(self, rows):
        """A new table of ``rows``, a row mask or row indices, in that order."""
        return type(self)(*map(getitem, self._columns(self), repeat(rows)))


def _table(cls):
    """Make the ``_Table`` subclass ``cls`` a dataclass and give it ``_columns``."""
    cls = dataclass(eq=False)(cls)  # the generated __eq__ would compare arrays elementwise and raise
    cls._columns = attrgetter(*cls.__dataclass_fields__)
    return cls


@_table
class SourcePool(_Table):
    """The idle-source pool as four parallel columns in ascending source_id order.

    Row j is one source: ``ids[j]``, ``owners[j]``, ``idle[j]`` (seconds it
    still offers) and ``rate[j]`` (cycles per second).  Arrivals carry higher
    ids, so ids ascend and the first maximum of any per-row quantity belongs
    to the lowest source_id.

    The columns are views of the first rows of buffers the pool owns, grown
    by doubling and written in place; given columns are copied on the first
    write.  A row with ``idle <= 0`` is dead: its ``capacity()`` holds no
    task's cycles, so it wins no lease.  It stays, in id order, until a
    compaction drops it: ``len(pool.ids)`` counts it, ``len(pool)`` does not.
    """

    ids: np.ndarray = _column(np.int64)
    owners: np.ndarray = _column(np.int64)
    idle: np.ndarray = _column(np.float64)
    rate: np.ndarray = _column(np.float64)

    _buffers = None  # the owned buffers, made by the first write

    def __len__(self) -> int:
        """The live rows: one pass over the window, for callers off the hot path."""
        return int(np.count_nonzero(self.idle > 0.0))

    def capacity(self) -> np.ndarray:
        """A new array of the cycles each row can still deliver, ``rate * idle``, ``<= 0`` if dead."""
        return self.rate * self.idle

    def _window(self, rows: int) -> None:
        ids, owners, idle, rate = self._buffers
        self.ids, self.owners, self.idle, self.rate = ids[:rows], owners[:rows], idle[:rows], rate[:rows]

    def _pack(self, keep, rows: int) -> None:
        """Gather the window's rows ``keep`` to the front of owned buffers of at least ``2 * rows``."""
        if self._buffers is None or len(self._buffers[0]) < 2 * rows:
            self._buffers = tuple(np.empty(2 * rows, dtype=column.dtype) for column in self._columns(self))
        for buffer, column in zip(self._buffers, self._columns(self)):
            column = column[keep]
            buffer[:len(column)] = column
        self._window(len(column))

    def extend(self, new) -> None:
        """Write the rows of ``new`` after the current rows."""
        hi, end = len(self.ids), len(self.ids) + len(new.ids)
        if self._buffers is None or end > len(self._buffers[0]):
            self._pack(slice(None), end)
        ids, owners, idle, rate = self._buffers
        ids[hi:end], owners[hi:end], idle[hi:end], rate[hi:end] = new.ids, new.owners, new.idle, new.rate
        self._window(end)

    def age(self, seconds: float) -> None:
        """Let ``seconds`` pass: rows left with none turn dead, and once dead rows pass
        ``DEAD_SHARE`` of the window one compaction gathers the live rows in order."""
        if self._buffers is None:
            self._pack(slice(None), len(self.ids))
        self.idle -= seconds
        alive = self.idle > 0.0
        live = int(np.count_nonzero(alive))
        if len(alive) - live > DEAD_SHARE * len(alive):
            self._pack(alive.nonzero()[0], live)

    def consume(self, rows: np.ndarray, busy_seconds: np.ndarray) -> None:
        """Subtract leased seconds from the row indices ``rows``; those left with none turn dead."""
        if self._buffers is None:
            self._pack(slice(None), len(self.ids))
        self.idle[rows] -= busy_seconds


@_table
class TaskQueue(_Table):
    """The pending tasks as six parallel columns, one row per task, in queue order.

    Row i is one task: ``ids[i]``, ``owners[i]``, ``deadline[i]`` (seconds
    left at the next match), ``cycles[i]``, ``value[i]`` and ``deferred[i]``
    (rounds already failed).  Row order matters: escalated tasks add to the
    cumulative migration sums in that order.
    """

    ids: np.ndarray = _column(np.int64)
    owners: np.ndarray = _column(np.int64)
    deadline: np.ndarray = _column(np.float64)
    cycles: np.ndarray = _column(np.float64)
    value: np.ndarray = _column(np.float64)
    deferred: np.ndarray = _column(np.int64)

    def extend(self, new) -> None:
        """Append the rows of ``new`` after the current rows; an empty queue takes ``new``'s columns."""
        columns = new._columns(new)
        if len(self.ids):
            columns = map(np.concatenate, zip(self._columns(self), columns))
        self.ids, self.owners, self.deadline, self.cycles, self.value, self.deferred = columns


def bounded(default, low, high=math.inf, *, above=False):
    """A config field holding ``default`` whose value, or each bound of a
    range, must lie in [low, high], or in (low, high] when ``above`` is set."""
    return field(default=default, metadata={"bounds": (low, high, above)})


def _real(x) -> bool:
    return isinstance(x, Real) and not isinstance(x, bool)


def _shown(value, show=str) -> str:
    """``show(value)``, with an int too long to print in decimal given by its bit length."""
    try:
        return show(value)
    except ValueError:  # past sys.get_int_max_str_digits()
        if isinstance(value, int):
            return f"{'a negative' if value < 0 else 'an'} integer of {value.bit_length()} bits"
        return "(" + ", ".join(_shown(x, show) for x in value) + ")"


def check_config(config) -> None:
    """Check each ``bounded`` field of ``config`` and store it in its type.

    An int field takes an int or numpy integer, stored as an int.  A float
    field takes a real number and a range field (whose default is a tuple) a
    pair of them, stored as finite Python floats, a range's low <= high.  A
    bool is none of these.  The value, or each bound of a range, must then lie
    in the field's interval.  Each error names its field.
    """
    for f in fields(config):
        if "bounds" not in f.metadata:
            continue
        value, kind = getattr(config, f.name), type(f.default)
        if kind is int:
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{f.name} must be an integer, got {_shown(value, repr)}")
            numbers = (int(value),)
        else:
            numbers = tuple(value) if kind is tuple and isinstance(value, Iterable) else (value,)
            if len(numbers) != (2 if kind is tuple else 1) or not all(map(_real, numbers)):
                wanted = "a [low, high] pair of real numbers" if kind is tuple else "a real number"
                raise ValueError(f"{f.name} must be {wanted}, got {_shown(value, repr)}")
            try:
                numbers = tuple(map(float, numbers))
            except OverflowError:  # an int too large for a float is not finite
                numbers = (math.inf,)
            if not all(map(math.isfinite, numbers)):
                raise ValueError(f"{f.name} must be finite, got {_shown(value)}")
            if numbers[0] > numbers[-1]:
                raise ValueError(f"{f.name}: lower bound {numbers[0]} exceeds upper bound {numbers[-1]}")
        low, high, above = f.metadata["bounds"]
        if not all(low < x <= high if above else low <= x <= high for x in numbers):
            raise ValueError(f"{f.name} must be {'>' if above else '>='} {low} and <= {high}, got {_shown(value)}")
        object.__setattr__(config, f.name, numbers if kind is tuple else numbers[0])


def _listed(values):
    """``values`` with a numpy array or scalar turned into Python lists and numbers."""
    return values.tolist() if isinstance(values, (np.ndarray, np.generic)) else values


class ColumnLog:
    """Rows of the NamedTuple type ``row``, held as one sequence per field.

    A column is a numpy array, a list or a tuple.  The log reads as a list of
    rows: ``len``, iteration and indexing give ``row`` instances of Python
    numbers, whatever holds the column, and it equals a list or log holding
    the same rows.
    """

    def __init__(self, row, columns):
        self.row = row
        self.columns = tuple(columns)

    @classmethod
    def join(cls, row, chunks) -> ColumnLog:
        """One log of ``chunks``, each a tuple of ``row``'s columns as numpy
        arrays, in order; each column becomes one new array of its chunks'
        dtype, or with no chunks an empty list."""
        if not chunks:
            return cls(row, ([] for _ in row._fields))
        return cls(row, map(np.concatenate, zip(*chunks)))

    def __len__(self) -> int:
        return len(self.columns[0])

    def __iter__(self):
        return map(self.row, *map(_listed, self.columns))

    def __getitem__(self, k):
        if isinstance(k, slice):
            return list(self)[k]
        return self.row._make(_listed(column[k]) for column in self.columns)

    def __eq__(self, other):
        if isinstance(other, (ColumnLog, list)):
            return list(self) == list(other)
        return NotImplemented

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.row.__name__}, {list(self)!r})"


@dataclass(frozen=True)
class WeightsConfig:
    """Tunable weights and limits for matching, settlement and escalation.

    A task's matching priority is gamma_t * (value / cycles) + gamma_p *
    balance, with balance its owner's; a lease settles for the amount
    (gamma_n * value + gamma_m * balance) * conversion_rate_r, with balance the
    receiver's.  max_rounds_w is the number of failed matching rounds before
    a task escalates to the cloud.
    """

    gamma_t: float = bounded(0.5, 0.0, 1.0)
    gamma_p: float = bounded(0.5, 0.0, 1.0)
    gamma_n: float = bounded(0.5, 0.0, 1.0)
    gamma_m: float = bounded(0.5, 0.0, 1.0)
    conversion_rate_r: float = bounded(1.0, 0.0, above=True)
    max_rounds_w: int = bounded(3, 1)

    def __post_init__(self):
        check_config(self)

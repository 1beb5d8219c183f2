"""Backend-pluggable column primitives and the unified ColumnStore API.

The three measurement-plane stores — the scan plane's
:class:`~repro.scanner.records.ScanDatabase`, the attack plane's
:class:`~repro.honeypots.events.EventStore` and the telescope plane's
:class:`~repro.telescope.flowtuple.FlowTupleWriter` — all keep their data
as parallel columns.  This module is the layer underneath them:

* **column primitives** behind one sequence-shaped API
  (:func:`make_numeric_column` / :func:`make_object_column`): the pure-Python
  backend stores numerics in compact :mod:`array` columns exactly as before,
  the NumPy backend in growable typed buffers (:class:`NumpyColumn`) whose
  ``view()`` exposes a contiguous ``ndarray`` for masked filters, grouped
  counts and ``lexsort``-based canonical ordering;
* **backend selection** (:func:`resolve_backend`): ``"python"``,
  ``"numpy"`` or ``"auto"``; NumPy is an *optional* dependency, so
  ``"auto"`` degrades to pure Python when it is missing and an explicit
  ``"numpy"`` without the package is a :class:`~repro.net.errors.ConfigError`
  (the CLI's exit-code-2 path);
* the :class:`ColumnStore` protocol the analysis consumers type against
  (``where`` / ``count_by`` / ``iter_rows`` / ``sorted_canonical`` /
  ``append_batch``), so they depend on the query surface rather than on a
  concrete store;
* the shared :func:`_warn_deprecated` helper behind every deprecation shim,
  so removal releases are announced uniformly.

**Determinism contract.**  Both backends produce byte-identical artifacts:
numeric columns hand back native Python scalars (``NumpyColumn.__getitem__``
unboxes via ``.item()``), ``lexsort`` is stable like Python's ``sorted``,
and the batch PRNG draws (:meth:`~repro.net.prng.RandomStream.uniform_array`)
are bit-equal to sequential scalar draws.  The pure-Python paths therefore
stay live as differential oracles for the vectorized ones.
"""

from __future__ import annotations

import warnings
from array import array
from typing import (
    Any,
    Dict,
    Iterable,
    Iterator,
    Optional,
    Protocol,
    runtime_checkable,
)

from repro.net.errors import ConfigError

try:  # NumPy is optional: the reproduction must run on a bare interpreter.
    import numpy as np
except ImportError:  # pragma: no cover - exercised on numpy-less CI
    np = None  # type: ignore[assignment]

__all__ = [
    "BACKENDS",
    "ColumnStore",
    "HAVE_NUMPY",
    "NumpyColumn",
    "make_numeric_column",
    "make_object_column",
    "numpy_available",
    "resolve_backend",
]

#: Accepted ``backend`` knob values, in documentation order.
BACKENDS = ("python", "numpy", "auto")

#: Whether the optional NumPy dependency imported.
HAVE_NUMPY = np is not None

#: Column kind → compact ``array`` typecode (the pure-Python storage).
_PY_TYPECODES = {"u64": "Q", "u32": "L", "i64": "q", "f64": "d"}

#: Column kind → NumPy dtype.  Unsigned kinds map to ``int64``: every
#: stored value (IPv4 address, port, byte count) fits comfortably, and
#: signed arithmetic avoids surprise wrap-around in vector expressions.
_NP_DTYPES = {"u64": "int64", "u32": "int64", "i64": "int64", "f64": "float64"}


def numpy_available() -> bool:
    """Whether the ``numpy`` backend can actually be selected."""
    return HAVE_NUMPY


def resolve_backend(choice: Optional[str]) -> str:
    """Collapse a backend knob to the concrete ``"python"`` or ``"numpy"``.

    ``None`` is the sub-config inherit-sentinel and means ``"auto"``;
    ``"auto"`` picks NumPy when it is importable and pure Python otherwise.
    An unknown value, or an explicit ``"numpy"`` without the optional
    dependency installed, raises :class:`~repro.net.errors.ConfigError`
    (the CLI maps it to exit code 2).
    """
    if choice is None:
        choice = "auto"
    if choice not in BACKENDS:
        raise ConfigError(
            f"backend must be one of {', '.join(BACKENDS)}; got {choice!r}"
        )
    if choice == "auto":
        return "numpy" if HAVE_NUMPY else "python"
    if choice == "numpy" and not HAVE_NUMPY:
        raise ConfigError(
            "backend 'numpy' requires the optional numpy dependency "
            "(install the 'numpy' extra); use 'python' or 'auto' instead"
        )
    return choice


class NumpyColumn:
    """A growable typed column over a NumPy buffer.

    Mirrors the mutable-sequence surface of the ``array`` columns it
    replaces — ``append`` / ``extend`` / indexing (negative indexes
    included) / iteration — so row views and legacy call sites work
    unchanged, while :meth:`view` exposes the live ``ndarray`` prefix for
    vectorized masks, grouped counts and ``lexsort``.

    ``__getitem__`` unboxes to native Python scalars: everything read out
    of a column serializes (``json``, string formatting) exactly like the
    pure-Python backend, which is half of the byte-identity contract.
    """

    __slots__ = ("_data", "_n")

    def __init__(self, dtype: Any, values: Optional[Iterable[Any]] = None) -> None:
        self._data = np.empty(16, dtype=dtype)
        self._n = 0
        if values is not None:
            self.extend(values)

    # -- growth ----------------------------------------------------------

    def _reserve(self, needed: int) -> None:
        capacity = len(self._data)
        if needed <= capacity:
            return
        capacity = max(capacity, 1)  # an empty ``take`` has no buffer
        while capacity < needed:
            capacity *= 2
        grown = np.empty(capacity, dtype=self._data.dtype)
        grown[: self._n] = self._data[: self._n]
        self._data = grown

    def append(self, value: Any) -> None:
        self._reserve(self._n + 1)
        self._data[self._n] = value
        self._n += 1

    def extend(self, values: Iterable[Any]) -> None:
        if not isinstance(values, np.ndarray):
            if not isinstance(values, (list, tuple)):
                values = list(values)
            values = np.asarray(values, dtype=self._data.dtype)
        count = len(values)
        self._reserve(self._n + count)
        self._data[self._n : self._n + count] = values
        self._n += count

    # -- vector access ----------------------------------------------------

    def view(self):
        """The live ``ndarray`` prefix (no copy) for vector operations."""
        return self._data[: self._n]

    def take(self, order: Any) -> "NumpyColumn":
        """A new column holding ``self[i] for i in order`` (fancy index)."""
        picked = NumpyColumn.__new__(NumpyColumn)
        picked._data = self._data[: self._n][order]
        picked._n = len(picked._data)
        return picked

    def tolist(self) -> list:
        return self._data[: self._n].tolist()

    # -- sequence surface --------------------------------------------------

    def _index(self, index: int) -> int:
        if index < 0:
            index += self._n
        if not 0 <= index < self._n:
            raise IndexError(f"column index {index} out of range")
        return index

    def __getitem__(self, index: int) -> Any:
        return self._data[self._index(index)].item()

    def __setitem__(self, index: int, value: Any) -> None:
        self._data[self._index(index)] = value

    def __len__(self) -> int:
        return self._n

    def __iter__(self) -> Iterator[Any]:
        return iter(self._data[: self._n].tolist())

    def __repr__(self) -> str:
        return f"NumpyColumn({self._data.dtype}, n={self._n})"


def make_numeric_column(
    kind: str, backend: str, values: Optional[Iterable[Any]] = None
):
    """A numeric column of ``kind`` (``u64``/``u32``/``i64``/``f64``).

    The pure-Python backend returns a compact :class:`array.array` (exactly
    the pre-backend storage); the NumPy backend a :class:`NumpyColumn`.
    """
    if backend == "numpy":
        return NumpyColumn(_NP_DTYPES[kind], values)
    return array(_PY_TYPECODES[kind], values or ())


def make_object_column(values: Optional[Iterable[Any]] = None) -> list:
    """An object column (labels, enums, byte payloads) — a plain list on
    both backends; vector passes over object columns gain nothing from
    NumPy's object dtype."""
    return list(values) if values is not None else []


def first_occurrence_counts(view) -> Dict[Any, int]:
    """Grouped counts of a numeric ``ndarray`` in first-occurrence order.

    The vectorized twin of the ``dict.get`` counting loop: the result dict
    is keyed in the order values first appear, exactly as the pure-Python
    path builds it, so serialized artifacts stay byte-identical.
    """
    uniques, first_positions, counts = np.unique(
        view, return_index=True, return_counts=True
    )
    order = np.argsort(first_positions, kind="stable")
    return dict(
        zip(uniques[order].tolist(), counts[order].tolist())
    )


@runtime_checkable
class ColumnStore(Protocol):
    """The unified query surface of the three measurement-plane stores.

    Analysis consumers (misconfig, country, device type, attack origins,
    recurrence, RSDoS) accept any store satisfying this protocol instead of
    importing a concrete store class.  ``where`` narrows to a new store of
    the same backend, ``count_by`` groups with optional distinct-value
    counting, ``iter_rows`` yields row views in insertion order,
    ``sorted_canonical`` re-orders into the plane's canonical merge order
    and ``append_batch`` ingests many rows in one columnar pass.
    """

    def __len__(self) -> int: ...

    def append_batch(self, rows: Iterable[Any]) -> int: ...

    def where(self, **filters: Any) -> "ColumnStore": ...

    def count_by(
        self, column: str, *, unique: Optional[str] = None
    ) -> Dict[Any, int]: ...

    def iter_rows(self) -> Iterator[Any]: ...

    def sorted_canonical(self) -> "ColumnStore": ...

    def column(self, name: str) -> Any: ...


def _warn_deprecated(
    what: str, *, use: str, removal: str = "2.0", stacklevel: int = 3
) -> None:
    """Issue the project's uniform deprecation warning.

    Every shim routes through here so each carries a removal release and
    a replacement spelling; tests pin that each shim warns exactly once
    per call site.
    """
    warnings.warn(
        f"{what} is deprecated and will be removed in repro {removal}; "
        f"{use}",
        DeprecationWarning,
        stacklevel=stacklevel,
    )

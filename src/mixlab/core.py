"""Degree sequences, the in-degree law, entropy, and total variation.

Two model kinds are supported: DCM prescribes both out- and in-degrees
and pairs edge stubs by a uniform matching; OCM prescribes out-degrees
only and each vertex picks distinct targets uniformly.  All degrees must
be at least 2, which keeps walk entropy positive and the graphs
aperiodic-in-distribution.
"""

from __future__ import annotations

import enum
import json
import math
import numbers
import reprlib
import warnings
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .errors import (
    BadRange,
    BadValue,
    DegreeTooLarge,
    DegreeTooSmall,
    LengthMismatch,
    MismatchedSums,
    MissingRequired,
    ModelMismatch,
)

# Distributions are plain float64 vectors; mass bookkeeping lives at this
# tolerance everywhere (propagation drift, export checks).
DIST_TOL = 1e-9

# Degrees above this are legal but put the graphs far outside the sparse
# regime the estimators are calibrated for; we warn instead of refusing.
DEGREE_WARN_THRESHOLD = 50

MIN_DEGREE = 2


class _ReadByName(enum.EnumMeta):
    # ModelKind(value) reads value by one_of first: Enum's own lookup
    # compares an unhashable value, such as an array, with each member
    def __call__(cls, value):
        return value if isinstance(value, cls) else super().__call__(
            one_of(value, [kind.value for kind in cls], "model"))


class ModelKind(enum.Enum, metaclass=_ReadByName):
    DCM = "dcm"
    OCM = "ocm"


@dataclass(frozen=True, eq=False)
class DegreeSequence:
    """Validated degree data plus the derived totals.

    ``in_degrees`` is None exactly for OCM sequences, and is
    ``out_degrees`` itself when ``validate_degrees`` finds the two equal
    vertex by vertex.  Arrays are stored read-only; treat instances as
    immutable.
    """

    model: ModelKind
    out_degrees: np.ndarray
    in_degrees: Optional[np.ndarray]
    n: int
    m: int
    delta: int

    @property
    def is_eulerian(self) -> bool:
        """True when every vertex has equal in- and out-degree (DCM only)."""
        if self.model is not ModelKind.DCM:
            return False
        return bool(np.array_equal(self.out_degrees, self.in_degrees))

    # Arrays that depend only on the degrees, built on first use and shared,
    # read-only, by every graph and kernel sampled from this sequence.

    @cached_property
    def out_offsets(self) -> np.ndarray:
        """Start of each vertex's out-edges in a flat edge list (n + 1)."""
        return _frozen(_offsets(self.out_degrees, np.int64))

    @cached_property
    def in_offsets(self) -> np.ndarray:
        """Start of each vertex's in-edges, in the index dtype (n + 1, DCM)."""
        return _frozen(_offsets(self.in_degrees, index_dtype_for(self.m)))

    @cached_property
    def tails(self) -> np.ndarray:
        """Tail vertex of each out-stub, stubs in tail order (m, index dtype)."""
        return self._stub_vertices(self.out_degrees)

    @cached_property
    def head_slots(self) -> np.ndarray:
        """Head vertex of each in-stub, stubs in head order (m, index
        dtype, DCM)."""
        return self._stub_vertices(self.in_degrees)

    def _stub_vertices(self, degrees: np.ndarray) -> np.ndarray:
        vertices = np.arange(self.n, dtype=index_dtype_for(self.m))
        with allocating(f"the vertices of {self.m} stubs"):
            return _frozen(np.repeat(vertices, degrees))

    @cached_property
    def inv_out_degrees(self) -> np.ndarray:
        """1 / out-degree per vertex: the weight of each of its out-edges."""
        return _frozen(1.0 / self.out_degrees.astype(np.float64))


_INT32_MAX = np.iinfo(np.int32).max
_INT64_MAX = np.iinfo(np.int64).max


def index_dtype_for(count: int):
    """The integer type scipy keeps for CSR indices of a count-entry matrix."""
    return np.int32 if count <= _INT32_MAX else np.int64


def _offsets(degrees: np.ndarray, dtype) -> np.ndarray:
    out = np.zeros(degrees.size + 1, dtype=dtype)
    np.cumsum(degrees, out=out[1:])
    return out


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def integer_array(values, name: str) -> np.ndarray:
    """values as a 1-d int64 array; BadValue unless every entry is an integer.

    Integral floats such as 2.0 are accepted; bools, 2.5, NaN, inf and
    strings are BadValue, integers past int64 BadRange.  Always a fresh array.
    """
    try:
        arr = np.asarray(values)
    except ValueError as exc:  # ragged nesting
        raise LengthMismatch(f"{name} must be a 1-d sequence") from exc
    if arr.ndim != 1:
        raise LengthMismatch(f"{name} must be a 1-d sequence")
    # numpy reads [True, 2] as int64; an array or a range holds no bool
    if not (isinstance(values, (np.ndarray, range))
            or {bool, np.bool_}.isdisjoint(map(type, values))):
        raise BadValue(f"{name} must hold integers, not bools")
    if arr.dtype.kind == "O" and all(isinstance(v, int) for v in values):
        raise BadRange(f"{name} must lie in the int64 range")
    integral = arr.dtype.kind in "iu" or (arr.dtype.kind == "f" and bool(
        np.all((arr == np.trunc(arr)) & (np.abs(arr) < 2.0 ** 63))))
    if not integral:
        raise BadValue(f"{name} must hold integers")
    return arr.astype(np.int64)


def integers_in(values, low, high, name: str, ndim: int = 1) -> np.ndarray:
    """values as an ndim-d integer array with every entry in [low, high).

    Entries are read as ``integer_array`` reads them; a ragged or
    wrong-rank table is BadValue, an entry outside [low, high) BadRange.
    An integer ndarray costs one dtype test and a min/max and is returned
    as it is; anything else is read entry by entry, since numpy reads
    [[0, True]] as int64.
    """
    try:
        arr = np.asarray(values)
    except ValueError as exc:   # ragged rows
        raise BadValue(f"{name} must be a {ndim}-d table") from exc
    if arr.ndim != ndim:
        raise BadValue(f"{name} must be a {ndim}-d table, got shape "
                       f"{arr.shape}")
    if isinstance(values, np.ndarray):
        if arr.dtype.kind not in "iu":
            arr = integer_array(arr.ravel(), name).reshape(arr.shape)
    else:
        flat = values if ndim == 1 else [v for row in values for v in row]
        arr = integer_array(flat, name).reshape(arr.shape)
    if arr.size and not (low <= arr.min() and arr.max() < high):
        got = (arr.item() if arr.size == 1
               else f"entries {arr.min()} to {arr.max()}")
        raise BadRange(f"{name} must lie in [{low}, {high}), got {got}")
    return arr


def integer_in(value, low, high, name: str) -> int:
    """value as a Python int in [low, high): ``integers_in``'s one entry."""
    return integers_in([value], low, high, name).item()


def integer_text(text: str, low: int, name: str, error=BadValue) -> int:
    """text as a Python int from low to the int64 maximum; ``error`` if
    it does not read as one."""
    try:
        x = int(text)
    except ValueError:
        x = None
    if x is None or not low <= x <= _INT64_MAX:
        raise error(f"{name} must be an integer from {low} to {_INT64_MAX}, "
                    f"got {reprlib.repr(text)}")
    return x


def real_in(value, low, high, name: str, ends: str = "()") -> float:
    """value as a float between low and high, each end open or closed as
    ``ends`` reads ("[)" is low <= x < high).  A bool, a non-real, NaN, an
    integer past the float range and a value outside are BadValue."""
    real = isinstance(value, numbers.Real) and not isinstance(value, bool)
    try:
        x = float(value) if real else math.nan
    except OverflowError:
        x = math.nan
    if not ((low <= x if ends[0] == "[" else low < x)
            and (x <= high if ends[1] == "]" else x < high)):
        raise BadValue(f"{name} must be in {ends[0]}{low}, {high}{ends[1]}, "
                       f"got {reprlib.repr(value)}")
    return x


def one_of(value, names, name: str, error=BadValue) -> str:
    """value if it is one of the strings names; otherwise ``error``, also
    for a non-string such as an array, which is never compared."""
    if not (isinstance(value, str) and value in names):
        raise error(f"{name} must be one of {tuple(names)}, "
                    f"got {reprlib.repr(value)}")
    return value


@contextmanager
def allocating(what: str):
    """Run a block that allocates what; numpy's refusal ends in BadRange."""
    try:
        yield
    except (ValueError, MemoryError):   # past numpy's size limit or memory
        raise BadRange(f"{what} would not fit in memory") from None


def law_array(values, name: str, ndim: Optional[int] = None) -> np.ndarray:
    """values as a float64 array (a float64 ndarray as it is): BadValue if
    it does not convert, such as a string or a ragged list; LengthMismatch
    if it has no entries, no axis (such as None) or other than ndim axes."""
    try:
        arr = np.asarray(values, dtype=np.float64)
    except (TypeError, ValueError, OverflowError) as exc:
        raise BadValue(f"{name} must be an array of reals") from exc
    if not (arr.ndim and arr.size) or ndim not in (None, arr.ndim):
        raise LengthMismatch(f"{name} of shape {arr.shape} is not a law")
    return arr


def _as_degree_array(values, name: str) -> np.ndarray:
    arr = integer_array(values, name)
    if arr.size == 0:
        raise LengthMismatch(f"{name} must be a nonempty 1-d sequence")
    return arr


def _total(degrees: np.ndarray) -> int:
    """The exact sum of positive degrees: numpy's int64 sum where it cannot
    wrap, else a sum of Python ints, so a total past int64 is seen."""
    if degrees.max() <= _INT64_MAX // degrees.size:
        return int(degrees.sum())
    return sum(degrees.tolist())


def validate_degrees(model: ModelKind, out_degrees, in_degrees=None) -> DegreeSequence:
    """Check a raw degree prescription and package it as a DegreeSequence.

    Raises LengthMismatch, DegreeTooSmall, DegreeTooLarge, MismatchedSums,
    ModelMismatch, or BadRange for a degree total past int64; warns when
    the max degree exceeds DEGREE_WARN_THRESHOLD.
    """
    model = ModelKind(model)
    out = _as_degree_array(out_degrees, "out_degrees")
    n = int(out.size)

    if model is ModelKind.DCM:
        if in_degrees is None:
            raise ModelMismatch("DCM requires in_degrees")
        inn = _as_degree_array(in_degrees, "in_degrees")
        if inn.size != n:
            raise LengthMismatch(
                f"out_degrees has length {n} but in_degrees has length {inn.size}"
            )
    else:
        if in_degrees is not None:
            raise ModelMismatch("OCM prescribes out-degrees only")
        inn = None

    if out.min() < MIN_DEGREE:
        raise DegreeTooSmall(f"all out-degrees must be >= {MIN_DEGREE}")
    if inn is not None and inn.min() < MIN_DEGREE:
        raise DegreeTooSmall(f"all in-degrees must be >= {MIN_DEGREE}")

    if model is ModelKind.OCM and out.max() > n:
        raise DegreeTooLarge(
            f"out-degree {int(out.max())} exceeds vertex count {n}"
        )

    m = _total(out)
    if inn is not None and m != _total(inn):
        raise MismatchedSums(
            f"out-degree total {m} != in-degree total {_total(inn)}"
        )
    if m > _INT64_MAX:
        raise BadRange(f"the degree total {m} is past the int64 range")
    delta = int(out.max() if inn is None else max(out.max(), inn.max()))

    if delta > DEGREE_WARN_THRESHOLD:
        warnings.warn(
            f"max degree {delta} exceeds {DEGREE_WARN_THRESHOLD}; "
            "estimator calibrations assume bounded degrees",
            stacklevel=2,
        )

    if inn is not None and np.array_equal(out, inn):
        inn = out   # one array, shared, when in = out vertex by vertex
    out.setflags(write=False)
    if inn is not None:
        inn.setflags(write=False)
    return DegreeSequence(model=model, out_degrees=out, in_degrees=inn,
                          n=n, m=m, delta=delta)


def json_object(text, what: str) -> dict:
    """The JSON object in text (str or bytes); BadValue, naming what, if
    text is not JSON or holds something other than an object."""
    try:
        doc = json.loads(text)
    except (TypeError, ValueError) as exc:  # not text, JSON or UTF-8
        raise BadValue(f"{what} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise BadValue(f"{what} must hold a JSON object")
    return doc


def load_degree_sequence(source) -> DegreeSequence:
    """Build a DegreeSequence from a JSON document or an already-parsed dict.

    Expected shape: {"model": "dcm"|"ocm", "out_degrees": [...],
    "in_degrees": [...]?}.  A document without "out_degrees" raises
    MissingRequired.
    """
    doc = source.read() if hasattr(source, "read") else source
    if isinstance(doc, (str, bytes)):
        doc = json_object(doc, "degree document")
    if not isinstance(doc, dict):
        raise BadValue("degree document must be a JSON object")
    if "out_degrees" not in doc:
        raise MissingRequired("degree document needs 'out_degrees'")
    return validate_degrees(doc.get("model"), doc["out_degrees"],
                            doc.get("in_degrees"))


def in_degree_distribution(seq: DegreeSequence) -> np.ndarray:
    """The limiting one-step law: in-degree biased for DCM, uniform for OCM."""
    if seq.model is ModelKind.DCM:
        return seq.in_degrees.astype(np.float64) / float(seq.m)
    return np.full(seq.n, 1.0 / seq.n)


@dataclass(frozen=True)
class EntropicScale:
    """Walk entropy per step and the matching mixing-time scale."""

    entropy: float
    entropic_time: float


def entropic_scale(seq: DegreeSequence) -> EntropicScale:
    """Entropy H = sum_x mu(x) log d_x over the in-degree law, and log(n)/H.

    H always lands in [log 2, log delta] because degrees are >= 2.
    """
    mu = in_degree_distribution(seq)
    h = float(np.dot(mu, np.log(seq.out_degrees.astype(np.float64))))
    assert math.log(MIN_DEGREE) - 1e-12 <= h <= math.log(seq.delta) + 1e-12
    return EntropicScale(entropy=h, entropic_time=math.log(seq.n) / h)


def tv_distance(a, b) -> float:
    """Total variation distance: half the L1 difference of two mass vectors."""
    a, b = law_array(a, "a"), law_array(b, "b")
    if a.shape != b.shape:
        raise LengthMismatch(f"shape mismatch {a.shape} vs {b.shape}")
    return 0.5 * float(np.abs(a - b).sum())


def mean_std_err(values):
    """Sample mean and its standard error std(ddof=1) / sqrt(n); the error
    is 0 for a single value."""
    arr = np.asarray(values, dtype=np.float64)
    err = float(arr.std(ddof=1) / math.sqrt(arr.size)) if arr.size > 1 else 0.0
    return float(arr.mean()), err

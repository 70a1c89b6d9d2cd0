"""Scenario runner: JSON config in, CSV tables and a JSON report out.

Every scenario is driven by one JSON document, parsed once through the
scenario's table of accepted keys (TABLES) before anything is built.
Validation failures (unknown keys and oversize counts too) exit with code 2
and name the offending key path; numerical blow-up exits with 3; resonance or
characteristic crossing exits with 4; any other exception is an internal
error, exits with 5 and keeps its traceback in the report, which is written
in every case.  CSV output is deterministic for a fixed config (17
significant digits, LF endings): two runs of one config are byte-identical.
"""

from __future__ import annotations

import argparse
import contextlib
import difflib
import json
import math
import numbers
import os
import pickle
import reprlib
import sys
import time
import warnings
from dataclasses import asdict
from pathlib import Path
from typing import Callable, Container, NamedTuple

import numpy as np

from . import __version__, text_cells
from .catalog import (
    BIREGULAR_METRICS,
    PARAMS,
    STRICT_CASTS,
    as_float,
    expects,
    make_functional,
    make_initial,
)
from .cohomology_solver import (
    MAX_GRID_POINTS,
    ResonanceError,
    TorusCohomologyProblem,
    amplification_report,
    solve_linear_flow,
)
from .flow_engine import (
    BOUNDARIES,
    ORACLE_REFINE,
    BoundedProgressError,
    FlowBlowUpError,
    ShockError,
    StepControl,
    TauField,
    UmbilicalProfile,
    characteristics_oracle,
    crossing_time,
    evolve_tau,
    evolve_umbilical,
    reached,
    _uniform_nodes,
)
from .revolution_geometry import (
    RevolutionProfile,
    closed_form_gamma,
    cone_flow_check,
    integrate_constant_lambda,
    profile_metric,
    sectional_curvature_formula,
    sectional_curvature_profile,
)
from .soliton_lab import (
    BiregularGrid,
    check_biregular_surface,
    check_normal_soliton,
    classify_ricci_soliton,
)
from .text_cells import CELL

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_BLOWUP = 3
EXIT_UNSOLVABLE = 4
EXIT_INTERNAL = 5

# report key used as the refinement-error metric by `sweep --axis ds`
SWEEP_ERROR_KEY = {
    "umbilical-flow": "oracle_sup_error",
    "tau-flow": "umbilicity_defect",
    "cone-check": "sup_err_lambda",
}


class ConfigError(ValueError):
    """Validation failure; the message starts with the offending key path."""


# rows formatted and joined at once; bounds the cells and text held
_CHUNK_ROWS = 4096
# float cells from which write_csv formats a table in two processes: fork
# and reap cost ~2 ms against ~12 ms of formatting and joining 2^16 doubles
_FORK_CELLS = 1 << 16
# rows beyond which a parsed config array is echoed by digest (_echo): json
# takes ~31 ms for 17,969 h.modes rows, sha256 of their float64s ~0.5 ms
ECHO_ROWS = 1024

# A value's text is held as a cell of CELL bytes (see text_cells).  A line
# is its row's cells joined by the separator, with the NULs removed.  A text
# column is a 1-D array of cells (dtype S<CELL>) or a Keyed column of them.


def _text(values) -> np.ndarray:
    """A text column of each value's ``%.17g``.

    A key repeated over many rows is formatted once here and written as a
    Keyed column.
    """
    cells = text_cells.format_cells(np.asarray(values, dtype=float).ravel())
    return cells.view(f"S{CELL}").ravel()


def _conjugate_text(values: np.ndarray):
    """Text columns of the real and imaginary parts of values, each
    conjugate pair formatted once.

    In a conjugate-symmetric table of ascending modes, row N-1-k holds the
    mirror of row k.  A row past the middle whose re and -im equal its
    twin's bit for bit (signs of zero included), the twin finite, takes the
    twin's cells, im with its sign byte toggled; every other row is
    formatted, so the text is each value's ``%.17g`` whatever the modes.
    """
    re, im = values.real, values.imag
    n = len(values)
    head = (n + 1) // 2  # the first half and the zero mode
    twin = np.arange(n - head)[::-1]  # the mirror of each row past head
    re_cells, im_cells = np.empty((n, CELL), np.uint8), np.empty((n, CELL), np.uint8)
    re_cells[:head] = text_cells.format_cells(re[:head])
    im_cells[:head] = text_cells.format_cells(im[:head])
    re_cells[head:], im_cells[head:] = re_cells[twin], im_cells[twin]
    im_cells[head:, 0] ^= ord("-")
    exact = ((re[head:].view(np.int64) == re[twin].view(np.int64))
             & (im[head:].view(np.int64) == (-im[twin]).view(np.int64))
             & np.isfinite(values[twin]))
    redo = head + np.flatnonzero(~exact)
    re_cells[redo] = text_cells.format_cells(re[redo])
    im_cells[redo] = text_cells.format_cells(im[redo])
    return tuple(c.view(f"S{CELL}").ravel() for c in (re_cells, im_cells))


class Keyed:
    """A text column of repeated keys: row r holds the cell cells[keys[r]]
    (cells of _text), so a long table holds an index per row, not a cell.
    It slices as an array does."""

    dtype = np.dtype(f"S{CELL}")

    def __init__(self, cells: np.ndarray, keys: np.ndarray):
        self.cells, self.keys = cells, keys

    def __len__(self) -> int:
        return len(self.keys)

    def __getitem__(self, rows: slice) -> Keyed:
        return Keyed(self.cells, self.keys[rows])


def _write_lines(fh, rows: np.ndarray, sep: bytes) -> None:
    """Write one line per row of the cells rows (rows, columns, CELL + 1):
    its cells joined by sep, NULs removed; the last byte of each cell is
    the separator's.  A quarter chunk at a time, which bounds the bytes
    held twice."""
    rows[:, :, CELL] = ord(sep)
    rows[:, -1, CELL] = ord("\n")
    step = max(_CHUNK_ROWS // 4, 1)
    for start in range(0, len(rows), step):
        fh.write(rows[start:start + step].tobytes().translate(None, b"\0"))


def _write_rows(fh, columns, sep: bytes, tee=None) -> None:
    """Write a sequence of columns (``table.T`` of a 2-D array, text columns),
    one line per row, in chunks of _CHUNK_ROWS rows, to a binary file.

    Floats are written as ``%.17g`` (the same bytes as ``format(v, ".17g")``,
    non-finite values included); integer-typed columns as ``%d``; text
    columns as their cells (see _text).  With ``tee`` a binary file, the
    first two columns also go there, space-separated: each chunk is
    formatted once and joined for both files.
    """
    for start in range(0, len(columns[0]), _CHUNK_ROWS):
        chunk = [c[start:start + _CHUNK_ROWS] for c in columns]
        rows = np.empty((len(chunk[0]), len(chunk), CELL + 1), np.uint8)
        for j, c in enumerate(chunk):
            if isinstance(c, Keyed):
                c = c.cells[c.keys]
            rows[:, j, :CELL] = (c.view(np.uint8).reshape(len(c), CELL)
                                 if c.dtype.kind == "S" else text_cells.format_cells(c))
        if tee is not None:
            _write_lines(tee, rows[:, :2], b" ")
        _write_lines(fh, rows, sep)


def _write_table(path: Path, header, columns, tee) -> None:
    """The header line, if any, then the rows of columns (see _write_rows)."""
    with open(path, "wb") as fh:
        if header is not None:
            fh.write((",".join(header) + "\n").encode())
        if tee is None:
            _write_rows(fh, columns, b",")
            return
        with open(tee, "wb") as tee_fh:
            _write_rows(fh, columns, b",", tee_fh)


_busy = False  # a _beside child is alive, or this process is one


def _two_cpus() -> bool:
    """A forked child can run beside this process: Linux, two usable CPUs,
    and no _beside child alive, nor this process one.  So a child never
    forks, and two CPUs never carry three processes."""
    return not _busy and sys.platform == "linux" and len(os.sched_getaffinity(0)) >= 2


def _beside(here: Callable[[], object], there: Callable[[], object], fork: bool = True):
    """Returns (here(), there()).  If fork and ``_two_cpus``, there() runs in a
    forked child while here() runs in this process, and its value comes back
    through a pipe.  Without a child, or when the child failed, there() runs
    here after here(), so its value, or the exception it raises, is that of
    one process.  The child never returns into the caller, flushes nothing
    and prints nothing.  It does not outlive the call: when here() raises, it
    is killed; it is reaped either way."""
    global _busy
    pid = None
    if fork and _two_cpus():
        read, write = os.pipe()
        try:
            pid = os.fork()
        except OSError:  # no process to spare: the work is done here
            os.close(read)
            os.close(write)
    if pid is None:
        return here(), there()
    _busy = True  # in both processes
    if pid == 0:
        code = 1
        try:
            os.close(read)
            with open(write, "wb") as fh:
                pickle.dump(there(), fh, pickle.HIGHEST_PROTOCOL)
            code = 0
        finally:
            os._exit(code)
    os.close(write)
    try:
        value = here()
        chunks = []  # read before the reap: a value beyond the pipe's buffer
        while chunk := os.read(read, 1 << 20):
            chunks.append(chunk)
    except BaseException:  # its value is of no use
        import signal  # the error path only
        os.kill(pid, signal.SIGKILL)
        raise
    finally:
        status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
        _busy = False
        os.close(read)
    return value, pickle.loads(b"".join(chunks)) if status == 0 else there()


def _fork_row(columns) -> int:
    """The row from which a forked child formats the table, or 0 to write it
    in this process: tables of at least _FORK_CELLS float cells, with
    ``_two_cpus``, split at the _CHUNK_ROWS boundary nearest the middle."""
    if sum(c.size for c in columns if c.dtype.kind == "f") < _FORK_CELLS or not _two_cpus():
        return 0
    rows = len(columns[0])
    mid = (rows + _CHUNK_ROWS) // (2 * _CHUNK_ROWS) * _CHUNK_ROWS
    return mid if mid < rows else 0


def _append(target: Path, part: Path) -> None:
    """Copy part to the end of target in the kernel, without reading it in."""
    with open(part, "rb") as src, open(target, "r+b") as dst:
        dst.seek(0, os.SEEK_END)
        while os.sendfile(dst.fileno(), src.fileno(), None, 1 << 30):
            pass


def write_csv(path: Path, header: list[str], columns, tee: Path | None = None) -> None:
    """Header line plus one CSV line per row of ``columns`` (see _write_rows);
    with ``tee`` a path, the first two columns also go there, space-separated
    and without a header (gnuplot's data format).  A complex column is
    written as two, the text of its real and imaginary parts by the
    conjugate rule of _conjugate_text, so the header names both.

    A large table (see _fork_row; a complex column counts as text) is
    written by two processes: a ``_beside`` child formats the rows from the
    middle on into ``<name>.part`` files while this process writes the header
    and the first half; the parts are then appended.  The bytes are those of
    one process.
    """
    columns = [c if isinstance(c, Keyed) else np.asarray(c) for c in columns]
    columns = [part for c in columns
               for part in (_conjugate_text(c) if c.dtype.kind == "c" else (c,))]
    mid = _fork_row(columns)
    if not mid:
        _write_table(path, header, columns, tee)
        return
    targets = [Path(path)] + ([] if tee is None else [Path(tee)])
    parts = [t.with_name(t.name + ".part") for t in targets]
    try:
        _beside(lambda: _write_table(path, header, [c[:mid] for c in columns], tee),
                lambda: _write_table(parts[0], None, [c[mid:] for c in columns],
                                     parts[1] if tee is not None else None))
        for target, part in zip(targets, parts):
            _append(target, part)
    finally:
        for part in parts:
            part.unlink(missing_ok=True)


def _shown(value) -> str:
    """repr(value), but an int past the int-to-str digit limit, which repr
    refuses alone or inside a container, is described."""
    try:
        return repr(value)
    except ValueError:
        if isinstance(value, numbers.Integral):
            return f"an int of {int(value).bit_length()} bits"
        return f"a {type(value).__name__} holding an int too long to print"


@reprlib.recursive_repr("a container that contains itself")
def _jsonable(obj):
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        v = float(obj)
        return v if math.isfinite(v) else repr(v)
    if isinstance(obj, numbers.Integral):  # np.integer too
        shown = _shown(int(obj))  # json writes these digits, if there are any
        return int(obj) if shown.lstrip("-").isdigit() else shown
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if obj is None or isinstance(obj, str):
        return obj
    if isinstance(obj, numbers.Real):  # a Fraction, say
        with contextlib.suppress(OverflowError):  # one beyond the double range
            return _jsonable(float(obj))
    return _shown(obj)


def _json_text(obj) -> str:
    """obj as sorted-key strict JSON, byte for byte what
    json.dumps(_jsonable(obj), sort_keys=True) gives.  The C encoder hands
    what JSON cannot hold to _jsonable; a non-finite float or keys it cannot
    sort send all of obj through _jsonable first.  It spells a bool or None
    key true or null and sorts int keys as numbers, so every dict key it
    meets must be a str."""
    try:
        return json.dumps(obj, sort_keys=True, allow_nan=False, default=_jsonable)
    except (ValueError, TypeError):
        return json.dumps(_jsonable(obj), sort_keys=True)


def _write_json(path: Path, obj) -> None:
    """obj as one line of _json_text."""
    with open(path, "w", newline="") as fh:
        fh.write(_json_text(obj) + "\n")


# ------------------------------------------------------------ config table

MISSING = object()  # an absent key; as a default: a required key
CAP = MAX_GRID_POINTS  # one cap for every count that sizes an allocation


class Key(NamedTuple):
    """One accepted config key: strict cast (a custom cast's docstring says
    what it expects), default, and allowed values: choices, a range, or for a
    tag a dict from each value to the keys it adds."""

    cast: Callable
    default: object = MISSING
    allowed: Container | None = None


def number_or_auto(value):
    """finite number or 'auto'"""
    return value if value == "auto" else as_float(value)


def direction(value) -> list[float]:
    """2 or 3 finite numbers"""
    v = [as_float(c) for c in value] if isinstance(value, list) else []
    if len(v) not in (2, 3):
        raise ValueError(value)
    return v


def positive(value) -> float:
    """positive finite number"""
    v = as_float(value)
    if not v > 0:
        raise ValueError(value)
    return v


def _mode_table(rows: list):
    """rows as one float array if each is a list [u..., re, im] of one width
    >= 3 of finite JSON numbers with integral |u| < 2**53; else None."""
    if all(type(row) is list for row in rows) and (
        {type(x) for row in rows for x in row} <= {int, float}
    ):
        try:
            table = np.array(rows, dtype=float)
            u = table[:, :-2]
            if (u.shape[1] and np.isfinite(table).all() and (u == np.rint(u)).all()
                    and (np.abs(u) < 2.0 ** 53).all()):
                return table
        except (ValueError, OverflowError):  # ragged, or ints beyond float range
            pass
    return None


def _modes_from_cfg(rows) -> np.ndarray:
    """h.modes rows [u1, ..., ud, re, im], checked all at once into one float
    array (no rows: h = 0); else the first bad row is named."""
    if not isinstance(rows, list):
        raise ConfigError(f"h.modes: expected a list of rows, got {_shown(rows)}")
    table = _mode_table(rows) if rows else np.empty((0, 0))
    if table is None:
        idx = next(i for i, row in enumerate(rows)
                   if _mode_table([row]) is None or len(row) != len(rows[0]))
        raise ConfigError(
            f"h.modes[{idx}]: expected a list [u1, ..., re, im] as wide as the first "
            f"row, of finite numbers with integer |u| < 2**53; got {_shown(rows[idx])}"
        )
    return table


def _tag(block: str) -> dict:
    """A catalog block's variants, each a dict of the keys it adds."""
    return {name: {f"{block}.{k}": Key(*entry) for k, entry in params.items()}
            for name, params in PARAMS[block].items()}


def _size(default=MISSING, lo=8) -> Key:
    return Key(int, default, range(lo, CAP + 1))


FUNCTIONAL = {"functional.name": Key(str, allowed=_tag("functional"))}
PROFILE = {  # the sampled initial profile of the flow and soliton scenarios
    **FUNCTIONAL, "initial.kind": Key(str, allowed=_tag("initial")),
    "numerics.length": Key(positive, 1.0),
}
STEPPING = {  # StepControl's fields after t_end, with its defaults
    "numerics.cfl": Key(float, StepControl.cfl),
    "numerics.max_steps": _size(StepControl.max_steps, lo=1),
}
FLOW = {**PROFILE, "numerics.grid": _size(), "numerics.t_end": Key(float), **STEPPING,
        "numerics.boundary": Key(str, "periodic", BOUNDARIES)}
EPS = Key(number_or_auto, "auto")
CURVES = {
    "cone": {"curve.beta": Key(float), "curve.x0_min": Key(positive, 1.0),
             "curve.x0_max": Key(float, 5.0), "numerics.grid": _size(256)},
    "constant_lambda": {"curve.x1_min": Key(positive, 0.5),
                        "curve.x1_max": Key(float, 10.0),
                        "curve.step": Key(positive, 1e-3), "curve.C": Key(float, 0.0)},
}

# scenario -> every key path it accepts
TABLES = {
    "umbilical-flow": {
        "n": _size(2, lo=1), **FLOW,
        # a stride beyond max_steps keeps only the first and the last snapshot
        "output.snapshot_stride": Key(int, 10, range(1, 2 ** 31))},
    "tau-flow": {"n": _size(lo=1), **FLOW},
    "soliton-check": {"n": _size(2, lo=1), **PROFILE, "numerics.grid": _size(256),
                      "eps": EPS},
    "biregular-check": {
        "n": _size(1, lo=1), **FUNCTIONAL,
        "metric.name": Key(str, allowed=tuple(BIREGULAR_METRICS)),
        "numerics.grid0": _size(64), "numerics.grid1": _size(64),
        "numerics.length0": Key(positive, 1.0), "numerics.length1": Key(positive, 1.0),
        "eps": EPS,
    },
    # n up to 2^20: in probes the classifier's sum-rule self-check failed at 2^24
    "ricci-classify": {"n": Key(int, allowed=range(3, 2 ** 20 + 1)), "tau1": Key(float),
                       "r": Key(float)},
    # K up to 1024: the (4K)^2 verification points of a 2-D problem within the cap
    "cohomology": {"v": Key(direction),
                   "K": Key(int, allowed=range(1, math.isqrt(CAP) // 4 + 1)),
                   "s": Key(float, 1.0),
                   "h.modes": Key(_modes_from_cfg, None), "h.grid_csv": Key(str, None)},
    "revolution": {"curve.kind": Key(str, allowed=CURVES),
                   "output.gnuplot": Key(bool, False)},
    "cone-check": {"beta": Key(float, math.pi / 6), "numerics.t_end": Key(float, 1.0),
                   **STEPPING, "numerics.grid": _size(800),
                   "domain_min": Key(float, 2.0), "domain_max": Key(float, 6.0)},
}
SCENARIO = Key(str, allowed=tuple(TABLES))
# (lower, upper) key pairs that bound one interval: upper must exceed lower
INTERVALS = (("domain_min", "domain_max"), ("curve.x0_min", "curve.x0_max"),
             ("curve.x1_min", "curve.x1_max"))
# (length, grid) key pairs of the uniform grids the scenarios sample
SPANS = (("numerics.length", "numerics.grid"), ("numerics.length0", "numerics.grid0"),
         ("numerics.length1", "numerics.grid1"))
# largest length x grid: the characteristics oracle samples ORACLE_REFINE x
# grid nodes over the length, and a phase 2 pi mode s / length of data below
# the Nyquist mode stays under pi x length x grid
SPAN_MAX = sys.float_info.max / (2.0 * math.pi * ORACLE_REFINE)
# most members one `sweep` command runs (one scenario run each)
MAX_SWEEP_POINTS = 64
# how far an h.grid_csv coordinate may sit from its node j / M, in spacings
# 1 / M: room for the last digits of a printed coordinate, none for a
# different grid (%.17g and repr write j / M exactly)
GRID_NODE_TOL = 1e-9
# bytes of (t, lam, phi) snapshots an umbilical flow may buffer for
# timeseries.csv, counted as 16 per node plus SNAPSHOT_OVERHEAD per snapshot
SNAPSHOT_BUDGET = 2 ** 28
# bytes a snapshot holds beside its lam and phi data: its tuple, t, the two
# array headers and its list slot (a stride-1 march grows by 380-394 bytes
# per snapshot beyond the data, measured with tracemalloc on CPython 3.11)
SNAPSHOT_OVERHEAD = 400


def parse_config(config) -> dict:
    """{key path: value} for every key the config's scenario accepts, with
    defaults filled in.  A malformed or unknown key, an empty interval, a
    count beyond the size cap, a grid that cannot hold its length or its
    initial data, or a step control that StepControl refuses (a cfl outside
    (0, 1], a negative t_end), raises ConfigError; nothing is read from disk
    or built."""
    if not isinstance(config, dict):
        raise ConfigError("config: expected a JSON object")
    table = accepted_keys(config)
    _check_unknown(config, "", table)
    values = {path: _read(config, path, key) for path, key in table.items()}
    for lo, hi in INTERVALS:
        if lo in values and values[hi] <= values[lo]:
            raise ConfigError(f"{hi}: must exceed {lo} ({values[lo]!r}), "
                              f"got {values[hi]!r}")
    _check_sizes(values)
    _check_sampling(values)
    if "numerics.cfl" in values:  # its refusals name their key, as a run's would
        _control(values)
    return values


def accepted_keys(config: dict) -> dict:
    """{path: Key} of the config's scenario, with the keys its tags select."""
    table = {"scenario": SCENARIO, **TABLES[_read(config, "scenario", SCENARIO)]}
    for path, key in list(table.items()):
        if isinstance(key.allowed, dict):  # a tag: its value's keys join the table
            table.update(key.allowed[_read(config, path, key)])
    return table


def _read(config: dict, path: str, key: Key):
    node = config
    for part in path.split("."):
        node = node.get(part, MISSING) if isinstance(node, dict) else MISSING
    if node is MISSING:
        if key.default is MISSING:
            raise ConfigError(f"{path}: required")
        return key.default
    try:
        value = STRICT_CASTS.get(key.cast, key.cast)(node)
    except ConfigError:  # names its own row
        raise
    except (TypeError, ValueError, OverflowError):  # an int beyond float range
        raise ConfigError(f"{path}: expected {expects(key.cast)}, "
                          f"got {_shown(node)}") from None
    if key.allowed is not None and value not in key.allowed:
        if isinstance(key.allowed, range):
            raise ConfigError(f"{path}: must lie in [{key.allowed.start}, "
                              f"{key.allowed[-1]}], got {_shown(value)}")
        raise ConfigError(f"{path}: must be one of {sorted(key.allowed)}")
    return value


def _check_unknown(node: dict, prefix: str, table: dict) -> None:
    """Each key of the config is a table path or a block holding some."""
    for name, value in node.items():
        path = f"{prefix}{name}"
        if "." not in str(name):
            if path in table:
                continue
            if any(p.startswith(path + ".") for p in table):
                if not isinstance(value, dict):
                    raise ConfigError(f"{path}: expected an object, got {_shown(value)}")
                _check_unknown(value, path + ".", table)
                continue
        siblings = {p[len(prefix):].split(".")[0]
                    for p in table if p.startswith(prefix)}
        near = {s.lower(): s for s in siblings}
        match = difflib.get_close_matches(str(name).lower(), near, n=1)
        hint = (f"did you mean {prefix}{near[match[0]]}?" if match
                else f"expected one of {sorted(siblings)}")
        raise ConfigError(f"{path}: unknown key; {hint}")


def _check_sizes(cfg: dict) -> None:
    """Counts that size an allocation or a loop: (grid, n) power sums, the
    O(n^2) column work of a tau-flow step, 2-D grids, revolution steps; each
    at most the cap."""
    n = (("n", "n") if cfg["scenario"] == "tau-flow"
         else ("n",) if "functional.name" in cfg else ())
    counts = {" × ".join(k): math.prod(cfg[p] for p in k) for k in (
        ("numerics.grid", *n), ("numerics.grid0", "numerics.grid1", *n)) if k[0] in cfg}
    if cfg.get("curve.kind") == "constant_lambda":
        counts["curve.step: (x1_max - x1_min) / step"] = (
            cfg["curve.x1_max"] - cfg["curve.x1_min"]) / cfg["curve.step"]
    for label, count in counts.items():
        if not count <= CAP:
            raise ConfigError(f"{label} = {count:g} exceeds the size cap {CAP}")


def _check_sampling(cfg: dict) -> None:
    """Each length spans its grid in double precision: its nodes, the
    oracle's finer ones and the phases of its initial data stay finite
    (length x grid <= SPAN_MAX), and its spacing stays normal.  Random
    Fourier and sine data have every mode below the grid's Nyquist limit
    grid / 2, so that no mode aliases onto another."""
    for length, grid in SPANS:
        if length in cfg and not (cfg[length] * cfg[grid] <= SPAN_MAX
                                  and cfg[length] / cfg[grid] >= sys.float_info.min):
            raise ConfigError(
                f"{length}: {cfg[length]!r} over {grid} = {cfg[grid]} nodes leaves the "
                f"double range; need length × grid <= {SPAN_MAX:.6g} and "
                f"length / grid >= {sys.float_info.min:.6g}")
    top = {"random_fourier": "initial.modes", "sine": "initial.periods"}.get(
        cfg.get("initial.kind"))  # the key holding the data's highest mode
    if top and not 2 * abs(cfg[top]) < cfg["numerics.grid"]:
        raise ConfigError(f"{top}: must stay below numerics.grid / 2 "
                          f"({cfg['numerics.grid'] / 2:g}) in magnitude, got {cfg[top]!r}")


def _build(prefix: str, factory, *args, **kwargs):
    """factory(...), a ValueError becoming a ConfigError under prefix."""
    try:
        return factory(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"{prefix}{exc}") from None


def _block(cfg: dict, block: str) -> dict:
    return {k[len(block) + 1:]: v for k, v in cfg.items() if k.startswith(block + ".")}


def _functional(cfg: dict):
    return _build("functional: ", make_functional, cfg["functional.name"], cfg["n"],
                  _block(cfg, "functional"))


def _initial(cfg: dict):
    return _build("initial: ", make_initial, _block(cfg, "initial"),
                  cfg["numerics.length"])


def _control(cfg: dict) -> StepControl:  # its messages start with the field
    return _build("numerics.", StepControl, cfg["numerics.t_end"],
                  **{k.split(".")[1]: cfg[k] for k in STEPPING})


# --------------------------------------------------------------- scenarios


class Table(NamedTuple):
    """One CSV table that a handler returns beside its results, for run to
    write: its file name in the output directory, header and columns (see
    write_csv), and the file name of its gnuplot tee, if any."""

    name: str
    header: list[str]
    columns: object
    tee: str | None = None


def _oracle_sup_error(lam0, F, state, lam: np.ndarray, length: float, t_end: float):
    """sup |lam - exact| at state.t against the characteristics oracle on a
    periodic domain, None on a transmissive one; ShockError from the crossing
    time t* on, on either.  A state the march left short of t_end (see
    ``reached``) is refused: the oracle would judge it at another time."""
    if not reached(state.t, t_end):
        raise RuntimeError(f"the march stopped at t = {state.t!r}, short of "
                           f"t_end = {t_end!r}")
    if state.periodic:
        exact = characteristics_oracle(lam0, F, state.t, state.s, length)
        return float(np.max(np.abs(lam - exact)))
    if state.t >= (t_star := crossing_time(lam0, F, state.s)):
        raise ShockError(t_star, state.t)
    return None


def run_umbilical_flow(cfg: dict):
    F, ctl, lam0 = _functional(cfg), _control(cfg), _initial(cfg)
    length, boundary = cfg["numerics.length"], cfg["numerics.boundary"]
    p0 = UmbilicalProfile.from_function(lam0, cfg["numerics.grid"], length, boundary)
    snaps: list[tuple[float, np.ndarray, np.ndarray]] = []  # (t, lam, phi)
    snap_bytes = 16 * p0.s.size + SNAPSHOT_OVERHEAD

    def on_snapshot(prof: UmbilicalProfile):
        if (len(snaps) + 1) * snap_bytes > SNAPSHOT_BUDGET:
            raise ConfigError(
                f"output.snapshot_stride: snapshot {len(snaps) + 1} (t = {prof.t:.6g}) "
                f"would exceed the {SNAPSHOT_BUDGET}-byte buffer of {snap_bytes} "
                f"bytes each; raise the stride")
        snaps.append((prof.t, prof.lam, prof.phi))  # a step never writes into them

    final = evolve_umbilical(p0, F, ctl, record_every=cfg["output.snapshot_stride"],
                             on_snapshot=on_snapshot)

    results = {"final_time": final.t, "steps_recorded": len(snaps),
               "lambda_min": float(np.min(final.lam)),
               "lambda_max": float(np.max(final.lam)), "oracle_sup_error": None}
    try:  # the conservative march holds past the crossing: a note, not an exit
        results["oracle_sup_error"] = _oracle_sup_error(lam0, F, final, final.lam, length,
                                                        ctl.t_end)
    except ShockError as exc:
        results["oracle_note"] = str(exc)
    t, lam, phi = zip(*snaps)
    return results, [Table("timeseries.csv", ["t", "s", "lambda", "phi"], (
        Keyed(_text(t), np.repeat(np.arange(len(t)), p0.s.size)),
        Keyed(_text(p0.s), np.tile(np.arange(p0.s.size), len(t))),
        np.concatenate(lam), np.concatenate(phi)))]


def run_tau_flow(cfg: dict):
    n = cfg["n"]
    F, ctl, lam0 = _functional(cfg), _control(cfg), _initial(cfg)
    grid, length = cfg["numerics.grid"], cfg["numerics.length"]
    boundary = cfg["numerics.boundary"]

    fld = _build("initial: ", TauField.from_umbilical, lam0, n, grid, length, boundary)
    # the step differences the quasilinear bracket, which has no entropy
    # solution past the crossing: refused from the initial data, exit 4
    t_star = crossing_time(lam0, F, fld.s, length if fld.periodic else None)
    if ctl.t_end >= t_star:
        raise ShockError(t_star, ctl.t_end)
    # the umbilical companion, whose lam the march must match, marches
    # beside the tau system in a second process
    out, scalar_lam = _beside(lambda: evolve_tau(fld, F, ctl), lambda: evolve_umbilical(
        UmbilicalProfile.from_function(lam0, grid, length, boundary), F, ctl).lam)
    results = {
        "final_time": out.t,
        "umbilicity_defect": float(
            np.max(np.abs(out.tau[1] - out.tau[0] ** 2 / n))
        ) if n >= 2 else 0.0,
        "scalar_match": float(np.max(np.abs(out.tau[0] / n - scalar_lam))),
        "oracle_sup_error": _oracle_sup_error(lam0, F, out, out.tau[0] / n, length,
                                              ctl.t_end),
    }
    header = ["s"] + [f"tau{j}" for j in range(1, n + 1)]
    return results, [Table("tau_final.csv", header, (out.s, *out.tau))]


def _soliton_results(rep) -> dict:
    """A soliton report's fields but its pointwise columns and unset ones."""
    return {k: v for k, v in vars(rep).items()
            if v is not None and k not in ("mu", "structure", "lam")}


def run_soliton_check(cfg: dict):
    F, lam0 = _functional(cfg), _initial(cfg)
    p = UmbilicalProfile.from_function(lam0, cfg["numerics.grid"],
                                       cfg["numerics.length"])
    rep = check_normal_soliton(p, F, cfg["eps"])
    return _soliton_results(rep), [Table(
        "residuals.csv", ["s", "lambda", "mu", "structure_residual"],
        (p.s, p.lam, rep.mu, rep.structure))]


def run_biregular_check(cfg: dict):
    F = _functional(cfg)
    g00, g11, periodic0 = BIREGULAR_METRICS[cfg["metric.name"]]
    grid = BiregularGrid.from_functions(
        g00, g11, shape=(cfg["numerics.grid0"], cfg["numerics.grid1"]),
        lengths=(cfg["numerics.length0"], cfg["numerics.length1"]), periodic0=periodic0,
    )
    # a metric that varies in x0 (all but flat) sampled as constant is judged
    # as the flat data it rounds to: a wrong verdict at exit 0
    if cfg["metric.name"] != "flat" and np.ptp(grid.g11) == 0:
        raise ConfigError(
            f"numerics.length0: {cfg['numerics.length0']:g} is too short to resolve "
            f"metric {cfg['metric.name']}: every g11 sample rounds to "
            f"{float(grid.g11[0, 0])!r}")
    rep = check_biregular_surface(grid, F, cfg["eps"])
    return _soliton_results(rep), [Table("curvature.csv", ["x0", "x1", "lambda"], (
        Keyed(_text(grid.x0), np.repeat(np.arange(grid.x0.size), grid.x1.size)),
        Keyed(_text(grid.x1), np.tile(np.arange(grid.x1.size), grid.x0.size)),
        rep.lam.ravel()))]


def run_ricci_classify(cfg: dict):
    cls = classify_ricci_soliton(cfg["n"], cfg["tau1"], cfg["r"])
    return {**asdict(cls), "cpc": cls.cpc}, []


def _grid_csv_modes(path: Path) -> np.ndarray:
    """The samples of h.grid_csv as an (Mx, My) array: after a header line,
    one row x, y, value of finite numbers per node (jx / Mx, jy / My) of the
    unit square, in any order, each coordinate within GRID_NODE_TOL spacings
    of its node."""
    if not path.exists():
        raise ConfigError(f"h.grid_csv: file not found: {path}")
    try:
        with warnings.catch_warnings():  # a file without data rows, refused below
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    except (OSError, ValueError) as exc:  # unreadable, not a number, ragged
        raise ConfigError(f"h.grid_csv: {exc}") from None
    if data.size == 0:
        raise ConfigError(f"h.grid_csv: {path} holds no data rows after its header line")
    if data.shape[1] != 3:
        raise ConfigError("h.grid_csv: expected columns x, y, value")
    if not np.isfinite(data).all():
        row, col = np.argwhere(~np.isfinite(data))[0]
        raise ConfigError(f"h.grid_csv: entries must be finite, got "
                          f"{float(data[row, col])!r} as {('x', 'y', 'value')[col]} "
                          f"in data row {row + 1}")
    xs, xi = np.unique(data[:, 0], return_inverse=True)
    ys, yi = np.unique(data[:, 1], return_inverse=True)
    for name, nodes in (("x", xs), ("y", ys)):
        M = nodes.size
        if not (np.abs(nodes * M - np.arange(M)) <= GRID_NODE_TOL).all():
            raise ConfigError(
                f"h.grid_csv: the {M} distinct {name} values are not the nodes j / {M}, "
                f"j = 0..{M - 1}, within {GRID_NODE_TOL:g} of the spacing")
    if xs.size * ys.size != data.shape[0]:
        raise ConfigError("h.grid_csv: grid is not complete/uniform")
    grid = np.full((xs.size, ys.size), np.nan)
    grid[xi, yi] = data[:, 2]
    if np.any(np.isnan(grid)):
        raise ConfigError("h.grid_csv: missing grid entries")
    return grid


def run_cohomology(cfg: dict):
    modes, grid_csv = cfg["h.modes"], cfg["h.grid_csv"]
    if (modes is None) == (grid_csv is None):
        raise ConfigError("h: provide exactly one of h.modes or h.grid_csv")
    if modes is not None:
        build, h = TorusCohomologyProblem.from_modes, modes
    else:
        build, h = TorusCohomologyProblem.from_grid, _grid_csv_modes(Path(grid_csv))
    try:
        problem = build(cfg["v"], h, cfg["K"], cfg["s"])
    except ValueError as exc:  # errors about K, s and v name their key already
        named = str(exc).startswith(("K:", "s:", "v:"))
        raise ConfigError(str(exc) if named else f"h: {exc}") from None

    sol = solve_linear_flow(problem)
    shells = amplification_report(sol)

    header = [f"u{i + 1}" for i in range(problem.dim)] + ["re", "im"]
    modes, coeffs = sol.f_coeffs.arrays()
    return {"eps": sol.eps, "margin": sol.margin, "residual": sol.residual,
            "max_imag": sol.max_imag, "soliton_field_scale": sol.soliton_field_scale,
            "modes_solved": len(sol.f_coeffs) - 1}, [
        Table("solution_coeffs.csv", header, (*modes.T, coeffs)),
        Table("amplification.csv", list(shells), shells.values())]


def run_revolution(cfg: dict):
    kind = cfg["curve.kind"]
    lo, hi = ("curve.x0_min", "curve.x0_max") if kind == "cone" else (
        "curve.x1_min", "curve.x1_max")
    # an overflow shows as a non-finite column, refused below
    with np.errstate(all="ignore"):
        if kind == "cone":
            profile = _build("curve.", RevolutionProfile.cone, cfg["curve.beta"],
                             (cfg[lo], cfg[hi]), cfg["numerics.grid"])
            K_formula = np.zeros_like  # a straight generatrix: flat plane sections
        else:
            C = cfg["curve.C"]
            profile = _build("curve: ", integrate_constant_lambda, cfg[lo], cfg[hi],
                             cfg["curve.step"], C)
            K_formula = sectional_curvature_formula

        g00, g11 = profile_metric(profile)
        cmp = sectional_curvature_profile(profile, K_formula)
        # normal curvature of the parallels under the sin(angle)/radius convention
        fp = profile.dx1 / profile.dx0
        lam = fp / (profile.x1 * np.sqrt(1.0 + fp ** 2))
    columns = (profile.x0, profile.x1, g00, g11, lam, cmp.formula, cmp.oracle)
    if not (all(np.isfinite(c).all() for c in columns)
            and math.isfinite(cmp.max_abs_diff)):
        raise ConfigError(f"{lo}, {hi}: the profile's metric or curvature leaves the "
                          f"double range on [{cfg[lo]:g}, {cfg[hi]:g}]")

    tables = [Table("profile.csv",
                    ["x0", "x1", "g00", "g11", "lambda", "K_formula", "K_oracle"],
                    columns, "profile.dat" if cfg["output.gnuplot"] else None)]
    results = {
        "provenance": profile.provenance,
        "curvature_max_abs_diff": cmp.max_abs_diff,
        "lambda_range": [float(np.min(lam)), float(np.max(lam))],
        "notes": [
            "lambda uses the slope/radius convention; the constant-curvature "
            "generatrix normalizes it differently, see report fields"
        ],
    }
    if kind == "constant_lambda":
        results["closed_form_sup_error"] = float(
            np.max(np.abs(profile.x0 - closed_form_gamma(profile.x1, C)))
        )
    return results, tables


def run_cone_check(cfg: dict):
    results, columns = cone_flow_check(cfg["beta"], _control(cfg), cfg["numerics.grid"],
                                       (cfg["domain_min"], cfg["domain_max"]))
    return results, [Table("cone_final.csv", list(columns), columns.values())]


# scenario -> handler(parsed config) -> (results, [Table, ...])
HANDLERS = {
    "umbilical-flow": run_umbilical_flow,
    "tau-flow": run_tau_flow,
    "soliton-check": run_soliton_check,
    "biregular-check": run_biregular_check,
    "ricci-classify": run_ricci_classify,
    "cohomology": run_cohomology,
    "revolution": run_revolution,
    "cone-check": run_cone_check,
}


# ------------------------------------------------------------------ driver


def _echo(config: dict, cfg: dict) -> dict:
    """config, each parsed array of more than ECHO_ROWS rows (h.modes) in its
    place as {"rows": N, "sha256": hex digest of its little-endian doubles}."""
    echo = config
    for path, value in cfg.items():
        if isinstance(value, np.ndarray) and len(value) > ECHO_ROWS:
            import hashlib  # large arrays only: its import costs ~4 ms
            *blocks, name = path.split(".")
            echo = node = dict(echo)  # copied along the path: config stays
            for block in blocks:
                node[block] = dict(node[block])
                node = node[block]
            node[name] = {"rows": len(value), "sha256": hashlib.sha256(
                np.ascontiguousarray(value, "<f8")).hexdigest()}
    return echo


def run(config: dict, outdir: Path, quiet: bool = False) -> tuple[dict, int]:
    """Execute one scenario and write its report; returns (report, exit code).

    report.json is one line of sorted-key JSON.  report["config"] is the
    config's echo: once the parse accepts the config, that of ``_echo``,
    whatever the exit code; a refused config as it was given.
    """
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    started = time.perf_counter()
    versions = {"egf_lab": __version__, "numpy": np.__version__}
    report = {"config": config, "versions": versions}
    code = EXIT_OK
    scenario = "?"
    cfg = None
    try:
        cfg = parse_config(config)
        report["config"] = _echo(config, cfg)
        scenario = cfg["scenario"]
        results, tables = HANDLERS[scenario](cfg)
        report["results"] = _jsonable(results)
        for table in tables:
            write_csv(outdir / table.name, table.header, table.columns,
                      table.tee and outdir / table.tee)
        report["outputs"] = [str(outdir / name) for table in tables
                             for name in (table.name, table.tee) if name]
    except (FlowBlowUpError, BoundedProgressError) as exc:
        report["error"] = str(exc)
        code = EXIT_BLOWUP
    except (ResonanceError, ShockError) as exc:
        report["error"] = str(exc)
        code = EXIT_UNSOLVABLE
    except ValueError as exc:  # ConfigError and deep input validation
        report["error"] = str(exc)
        code = EXIT_CONFIG
    except Exception as exc:  # a defect: reported, not raised
        import traceback  # the error path only
        report["error"] = f"internal error: {type(exc).__name__}: {exc}"
        report["traceback"] = traceback.format_exc()
        code = EXIT_INTERNAL
    report["wall_time_s"] = time.perf_counter() - started
    report["exit_status"] = code

    report_path = outdir / "report.json"
    # an accepted config holds str keys, finite numbers and no dict in a list,
    # so the encoder may read it as it stands; any other is converted first
    try:
        _write_json(report_path, report if cfg is not None
                    else {**report, "config": _jsonable(config)})
    except RecursionError:  # nested deeper than the interpreter's stack
        _write_json(report_path, {**report, "config": "a config nested too deep to echo"})
    if not quiet:
        target = report.get("error") or f"results in {report_path}"
        print(f"[egf-lab] {scenario}: {target}")
    return report, code


def _check_sweep(cfg: dict, axis: str) -> None:
    ds = axis == "ds"
    if not (cfg["scenario"] in SWEEP_ERROR_KEY if ds else "numerics.cfl" in cfg):
        lacks = "refinement error metric" if ds else "numerics.cfl"
        raise ConfigError(f"sweep: scenario {cfg['scenario']} has no {lacks}")


def _spacing(cfg: dict) -> float:
    """The node spacing of a flow or cone-check config's grid: length / G
    when periodic, length / (G - 1) otherwise, as flow_engine places them."""
    if "numerics.length" in cfg:
        s = _uniform_nodes(cfg["numerics.grid"], cfg["numerics.length"],
                           cfg["numerics.boundary"] == "periodic", 0.0)
    else:  # cone-check: transmissive over [domain_min, domain_max]
        lo = cfg["domain_min"]
        s = _uniform_nodes(cfg["numerics.grid"], cfg["domain_max"] - lo, False, lo)
    return float(s[1] - s[0])


def _cost_split(cfls: list[float]) -> int:
    """The k that splits members of cost 1/cfl, run in order, into [0, k) and
    [k, m) with the least larger cost sum (the first such k); 0 when there
    is one member.  The members that ``sweep --axis cfl`` makes share their
    grid and t_end, so each one's step count is in proportion to 1/cfl."""
    costs = [1.0 / cfl for cfl in cfls]
    total, done, least, split = sum(costs), 0.0, math.inf, 0
    for k in range(1, len(costs)):
        done += costs[k - 1]
        longer = max(done, total - done)
        if longer < least:
            least, split = longer, k
    return split


def sweep_configs(configs: list[dict], outdir: Path, axis: str) -> tuple[dict, int]:
    """Run several configs that differ only in numerics; aggregate the errors.

    For the ds axis the refinement errors are fitted with a log-log least
    squares line, giving the measured convergence order.  For the cfl axis
    the aggregate records which runs stayed stable and the largest stable
    value.  Every config is parsed before the first one runs.  A cfl
    sweep runs its members from the ``_cost_split`` index on in a
    ``_beside`` child beside the ones before it.  A ds sweep runs them one
    after another, each free to fork its own work: its finest member
    dominates its cost, so a split would overlap only the cheap members, and
    it would keep the costly one from forking.
    """
    if not configs:
        raise ConfigError("sweep: no configs to run")
    parsed = [parse_config(c) for c in configs]
    scenario = parsed[0]["scenario"]
    _check_sweep(parsed[0], axis)
    outside = [{k: v for k, v in cfg.items()
                if not k.startswith(("numerics.", "output."))} for cfg in parsed]
    for idx, other in enumerate(outside[1:], start=1):
        if other != outside[0]:
            raise ConfigError(f"sweep: config {idx} differs outside the numerics block")
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)

    def members(first: int, stop: int) -> list[tuple[dict, int]]:
        return [run(configs[idx], outdir / f"run_{idx:03d}", quiet=True)
                for idx in range(first, stop)]

    # the members from split on run in a child
    split = _cost_split([cfg["numerics.cfl"] for cfg in parsed]) if axis == "cfl" else 0
    first, rest = _beside(lambda: members(0, split), lambda: members(split, len(configs)),
                          split > 0)
    done = first + rest
    rows = []
    for cfg, (report, code) in zip(parsed, done):
        if axis == "ds":
            err = (report["results"].get(SWEEP_ERROR_KEY[scenario])
                   if code == EXIT_OK else None)
            rows.append((_spacing(cfg), cfg["numerics.grid"], err, code))
        else:
            rows.append((cfg["numerics.cfl"], code))

    aggregate: dict = {"scenario": scenario, "axis": axis, "runs": len(configs)}
    if axis == "ds":
        ok = [(ds, err) for ds, _, err, code in rows
              if code == EXIT_OK and err is not None and err > 0]
        if len(ok) >= 2:  # log-log least squares: (log ds, log err) columns
            aggregate["fitted_order"] = float(np.polyfit(*np.log(ok).T, 1)[0])
        header = ["ds", "grid", "error", "exit_status"]
    else:
        stable = [cfl for cfl, code in rows if code == EXIT_OK]
        aggregate["largest_stable_cfl"] = max(stable) if stable else None
        header = ["cfl", "exit_status"]
    # dtype=float turns a missing error (None) into nan
    write_csv(outdir / "sweep.csv", header, [
        np.array(column, dtype=float if name == "error" else None)
        for name, column in zip(header, zip(*rows))])

    aggregate["reports"] = [
        {"exit_status": r["exit_status"], "error": r.get("error")} for r, _ in done
    ]
    _write_json(outdir / "sweep_report.json", aggregate)
    return aggregate, EXIT_OK


# --------------------------------------------------------------------- CLI


def _load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config: file not found: {path}") from None
    except (json.JSONDecodeError, RecursionError) as exc:  # or nested too deep
        raise ConfigError(f"config: invalid JSON: {exc}") from None


def _outdir(args) -> Path:
    return Path(args.out or os.environ.get("EGF_LAB_OUT") or "egf-lab-out")


def _cmd_run(args) -> int:
    config = _load_config(args.config)
    if args.scenario and isinstance(config, dict) and (  # `cohomology` command
            config.setdefault("scenario", args.scenario) != args.scenario):
        raise ConfigError(f"scenario: must be {args.scenario}")
    _, code = run(config, _outdir(args), quiet=args.quiet)
    return code


def _cmd_sweep(args) -> int:
    base = _load_config(args.config)
    cfg = parse_config(base)
    _check_sweep(cfg, args.axis)
    if not 1 <= args.points <= MAX_SWEEP_POINTS:
        raise ConfigError(f"--points: must be in [1, {MAX_SWEEP_POINTS}], "
                          f"got {args.points}")
    if args.axis == "ds":
        if args.values is not None:
            raise ConfigError("--values: applies to --axis cfl only")
        grid = cfg["numerics.grid"]
        key, values = "grid", [grid * 2 ** i for i in range(args.points)]
    elif args.values:
        try:
            key, values = "cfl", [float(v) for v in args.values.split(",")]
        except ValueError:
            raise ConfigError(f"--values: expected comma-separated numbers, "
                              f"got {args.values!r}") from None
        if len(values) > MAX_SWEEP_POINTS:
            raise ConfigError(f"--values: at most {MAX_SWEEP_POINTS} values, "
                              f"got {len(values)}")
    else:
        key, values = "cfl", list(np.linspace(0.2, 1.0, args.points))
    variants = [json.loads(json.dumps(base)) for _ in values]
    for c, value in zip(variants, values):
        c.setdefault("numerics", {})[key] = value
    aggregate, code = sweep_configs(variants, _outdir(args), args.axis)
    if not args.quiet:
        print(json.dumps(_jsonable(aggregate), indent=2, sort_keys=True))
    return code


def _cmd_classify(args) -> int:
    config = {"scenario": "ricci-classify", "n": args.n, "tau1": args.tau1, "r": args.r}
    report, code = run(config, _outdir(args), quiet=True)
    if not args.quiet:
        print(json.dumps(report.get("results", report.get("error")), indent=2,
                         sort_keys=True))
    return code


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="egf-lab", description=(
        "numerical laboratory for leafwise extrinsic geometric flows"))
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute one scenario config")
    p_run.add_argument("config")
    p_run.set_defaults(func=_cmd_run, scenario=None)

    p_sweep = sub.add_parser("sweep", help="refinement or stability sweep")
    p_sweep.add_argument("config")
    p_sweep.add_argument("--axis", choices=("ds", "cfl"), default="ds")
    p_sweep.add_argument("--points", type=int, default=4)
    p_sweep.add_argument("--values", help="comma-separated cfl values")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_cls = sub.add_parser("classify", help="extrinsic Ricci soliton spectra")
    p_cls.add_argument("--n", type=int, required=True)
    p_cls.add_argument("--tau1", type=float, required=True)
    p_cls.add_argument("--r", type=float, required=True)
    p_cls.set_defaults(func=_cmd_classify)

    p_coh = sub.add_parser("cohomology", help="solve a torus cohomological equation")
    p_coh.add_argument("config")
    p_coh.set_defaults(func=_cmd_run, scenario="cohomology")

    for command in (p_run, p_sweep, p_cls, p_coh):
        command.add_argument("--out", help="output directory (or $EGF_LAB_OUT)")
        command.add_argument("--quiet", action="store_true")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())

"""Black-box predictors: batch row-to-output functions.

In-repo models are a linear regressor and a CART random forest
(regression or binary probability). Anything else plugs in through a
line-delimited JSON bridge over a child process's stdin/stdout.
"""

from __future__ import annotations

import contextlib
import json
import os
import select
import subprocess
import time
from array import array
from collections import deque
from dataclasses import dataclass

try:
    import fcntl
except ImportError:  # not POSIX: the bridge's pipes keep their default size
    fcntl = None

import numpy as np

from .core import FeatureMatrix, RngStream
from .errors import BridgeError, IngestionError, ModelOutputError, SizeError

LOG_ODDS_EPS = 1e-6
BRIDGE_REPLY_TIMEOUT_S = 60.0  # longest wait for one reply line from a bridge
# Rows per bridge request line, about 65 kB at M=13: the child parses and
# computes the lines one by one while the CLI draws and encodes the next
# batch.
_REQUEST_ROWS = 256
# Rows a batch's lines are encoded from at a time, a whole number of lines:
# a walk's chunk batch (4,900 rows at M=13 and 50 draws) takes four windows.
_ENCODE_ROWS = 5 * _REQUEST_ROWS
# Capacity asked for the child's stdin pipe: Linux's default pipe-max-size
# for unprivileged processes, room for more than a batch of request lines.
# A default 64 KiB pipe holds about one line, so the CLI would wait on the
# child after each line instead of drawing the next batch.
_REQUEST_PIPE_BYTES = 1 << 20
_STDERR_TAIL = 1 << 16  # bytes of a bridge's stderr quoted in its errors


def _check_rows(rows, n_features: int) -> np.ndarray:
    rows = np.asarray(rows, dtype=float)
    if rows.ndim == 1:
        rows = rows[None, :]
    if rows.ndim != 2:
        raise IngestionError(f"prediction input must be 2-D, got shape {rows.shape}")
    if not np.all(np.isfinite(rows)):
        raise IngestionError("prediction input contains non-finite values")
    if rows.shape[1] != n_features:
        raise IngestionError(f"expected {n_features} columns, got {rows.shape[1]}")
    return rows


@dataclass(frozen=True)
class LinearModel:
    coefficients: np.ndarray
    intercept: float = 0.0

    def __post_init__(self):
        coef = np.asarray(self.coefficients, dtype=float)
        if coef.ndim != 1:
            raise IngestionError("linear model coefficients must be a vector")
        if not (np.all(np.isfinite(coef)) and np.isfinite(self.intercept)):
            raise IngestionError("linear model parameters must be finite")
        coef.setflags(write=False)
        object.__setattr__(self, "coefficients", coef)
        object.__setattr__(self, "_zero_columns", np.flatnonzero(coef == 0))

    @property
    def n_features(self) -> int:
        return len(self.coefficients)

    def predict(self, rows) -> np.ndarray:
        """Outputs on k x M rows, a vector being one row. Rows of that
        shape are checked through their outputs: a NaN or an infinity
        times a nonzero coefficient is not finite, and neither is any sum
        with such a term, so rows are scanned only when an output is not
        finite. That scan raises as ``_check_rows`` does, or finds the rows
        finite and the output an overflow, which ``predict_batches``
        rejects. A column with a zero coefficient can vanish from the
        product (0 x inf is NaN only if it is computed, and some BLAS skip
        zero entries), so those columns are checked first, on every call."""
        rows = np.asarray(rows, dtype=float)
        zero = self._zero_columns
        if (rows.ndim != 2 or rows.shape[1] != self.n_features
                or len(zero) and not np.all(np.isfinite(rows[:, zero]))):
            rows = _check_rows(rows, self.n_features)
        out = rows @ self.coefficients + self.intercept
        if not np.all(np.isfinite(out)):
            _check_rows(rows, self.n_features)
        return out

    def describe(self) -> str:
        return f"linear(M={self.n_features})"

    def to_json_dict(self) -> dict:
        return {
            "kind": "linear",
            "coefficients": self.coefficients.tolist(),
            "intercept": float(self.intercept),
        }


class _Nodes:
    """A forest's nodes in the order they are grown or read, tree after
    tree, in the layout of ``ForestModel``, as typed arrays. A new node is
    a leaf, its own child, until it is split."""

    def __init__(self):
        self.roots, self.left, self.right = array("i"), array("i"), array("i")
        self.feature = array("q")  # as read, checked against M before it is narrowed
        self.threshold, self.value = array("d"), array("d")

    def leaf(self, value: float = 0.0) -> int:
        k = len(self.feature)
        self.feature.append(0)
        self.threshold.append(0.0)
        self.value.append(value)
        self.left.append(k)
        self.right.append(k)
        return k

    def split(self, k: int, feature: int, threshold: float, left: int, right: int) -> None:
        self.feature[k] = feature
        self.threshold[k] = threshold
        self.left[k] = left
        self.right[k] = right


# Tree x row cells per block, walked or looked up: a float64 temporary is
# 64 kB. Walk blocks four times as large were no faster on the fire benchmark
# and raised its peak RSS by about 1 MB. The fire forest scored rows about
# 1.5 times as slowly from its tables in blocks of 1 << 15 cells, and no
# faster in blocks of 1 << 14.
_BLOCK_CELLS = 1 << 13
# The most bytes of leaf-bitvector tables a forest is scored from; beyond
# this it is walked. Tables grow as splits x trees, about as the square of
# the tree count: 100 depth-6 trees on the synthetic housing data take
# 3.4 MB, 400 take 54 MB. Those scored 2,000 rows faster from their tables
# than by the walk (7.6 against 10.9 ms, 26 against 40 ms), so the cap
# bounds the memory a model holds, not its speed.
_TABLE_BYTES = 4 << 20


def _leaf_ranges(roots: np.ndarray, kids: np.ndarray, leaf: np.ndarray):
    """Per node of a forest whose node k has children ``kids[k]`` (right,
    left): its tree, the number of leaves below it, and the number of its
    tree's leaves left of it, with leaves counted left to right. Also the
    depth of the deepest leaf. Computed a level at a time."""
    tree, first = np.zeros(len(kids), dtype=np.intp), np.zeros(len(kids), dtype=np.intp)
    tree[roots] = np.arange(len(roots))
    levels = []  # the split nodes of each level
    level = roots
    while len(split := level[~leaf[level]]):
        levels.append(split)
        level = kids[split].ravel()
        tree[level] = np.repeat(tree[split], 2)
    count = leaf.astype(np.intp)
    for split in reversed(levels):
        count[split] = count[kids[split]].sum(axis=1)
    for split in levels:
        right, left = kids[split].T
        first[left] = first[split]
        first[right] = first[split] + count[left]
    return tree, count, first, len(levels)


class ForestModel:
    """Bagged CART trees; regression averages leaf values, binary
    probability averages leaf class-1 proportions. Thresholds and leaf
    values must be finite.

    Every tree lives in one int32-indexed node array. Tree t's root is node
    ``roots[t]``; ``kids[2k]`` is node k's right child and ``kids[2k + 1]``
    its left one. A row goes left at a node when ``x <= threshold``.

    A forest whose trees have at most 64 leaves each, and whose tables take
    at most _TABLE_BYTES (4 MiB), is scored from leaf bitvectors
    (QuickScorer; Lucchese et al., SIGIR 2015). A tree's leaves are the bits
    of one word, numbered left to right. A split's mask clears the leaves
    of its left subtree, which a row with ``x > threshold`` cannot reach.
    Per feature, the splits on it are sorted by threshold, and row k of its
    table holds, per tree, the AND of the masks of the first k splits. A
    row's ``searchsorted(thresholds, x, "left")`` counts the splits it
    fails, so the AND of those table rows over the features keeps, as each
    tree's lowest set bit, the leaf the row reaches. The tables take
    (splits + M) x trees words of the narrowest unsigned type that holds
    the widest tree's leaves: 4 bytes a word for the fire study's 100
    depth-6 trees, 0.77 MB in all.

    Any other forest is walked, such as the CLI's default 200 depth-8 trees
    on the synthetic housing data (up to 82 leaves a tree): all trees and
    rows step a level at a time to ``kids[2k + (x <= threshold)]``.
    A leaf is its own child, so after ``depth`` steps every tree and row has
    reached its leaf. Both ways reach the same leaves, and each row's leaf
    values are added tree by tree in tree order, so they give the same bits.
    """

    def __init__(self, nodes: _Nodes, task: str, n_features: int):
        if task not in ("regression", "binary-probability"):
            raise IngestionError(f"unknown forest task {task!r}")
        if not nodes.roots:
            raise IngestionError("a forest needs at least one tree")
        self.task = task
        self.n_features = n_features
        feature = np.array(nodes.feature, dtype=np.int64)
        if np.any((feature < 0) | (feature >= n_features)):
            raise IngestionError(f"a tree splits on a feature outside 0..{n_features - 1}")
        self.feature = feature.astype(np.int32)
        self.threshold = np.array(nodes.threshold, dtype=float)
        self.value = np.array(nodes.value, dtype=float)
        if not (np.all(np.isfinite(self.threshold)) and np.all(np.isfinite(self.value))):
            raise IngestionError("forest thresholds and leaf values must be finite")
        self.roots = np.array(nodes.roots, dtype=np.int32)
        kids = np.column_stack([nodes.right, nodes.left]).astype(np.int32)
        self.kids = kids.ravel()
        leaf = kids[:, 0] == np.arange(len(kids))
        tree, count, first, self.depth = _leaf_ranges(self.roots, kids, leaf)
        self._tables = self._build_tables(kids[:, 1], leaf, tree, count, first)

    def _build_tables(self, left, leaf, tree, count, first):
        """None if the forest is to be walked. Otherwise a list of
        (feature, its split thresholds sorted, its table) over the features
        split on; the leaf values by tree and bit, flat; and per tree the
        index of its bit 0 in them, less one."""
        splits = np.flatnonzero(~leaf)
        widest = int(count[self.roots].max())
        if len(splits) == 0 or widest > 64:
            return None  # with no split, the walk takes no step
        word = next(np.dtype(f"u{b}") for b in (1, 2, 4, 8) if widest <= 8 * b)
        n_trees = len(self.roots)
        if (len(splits) + self.n_features) * n_trees * word.itemsize > _TABLE_BYTES:
            return None
        one = np.uint64(1)
        left = left[splits]
        cleared = ((one << count[left].astype(np.uint64)) - one) << first[left].astype(np.uint64)
        mask = np.zeros(len(leaf), word)
        mask[splits] = ~cleared  # cast to the word, which keeps the low bits
        tables = []
        for f in np.unique(self.feature[splits]):
            on_f = splits[self.feature[splits] == f]
            on_f = on_f[np.argsort(self.threshold[on_f])]
            table = np.full((len(on_f) + 1, n_trees), np.iinfo(word).max, word)
            table[np.arange(1, len(table)), tree[on_f]] = mask[on_f]
            np.bitwise_and.accumulate(table, axis=0, out=table)
            tables.append((f, self.threshold[on_f], table))
        leaves = np.flatnonzero(leaf)
        bits = 8 * word.itemsize
        value = np.zeros(n_trees * bits)
        value[tree[leaves] * bits + first[leaves]] = self.value[leaves]
        return tables, value, np.arange(n_trees) * bits - 1

    def _walked_leaves(self, rows: np.ndarray, out: np.ndarray) -> None:
        """out[t, r]: the value of the leaf row r reaches in tree t."""
        b, m = rows.shape
        flat = rows.ravel()
        starts = np.arange(0, b * m, m)
        idx = np.repeat(self.roots[:, None], b, axis=1)
        for _ in range(self.depth):
            go_left = flat.take(self.feature.take(idx) + starts) <= self.threshold.take(idx)
            idx = self.kids.take(2 * idx + go_left)
        self.value.take(idx, out=out)

    def _looked_up_leaves(self, rows: np.ndarray, out: np.ndarray) -> None:
        """``_walked_leaves`` from the bitvector tables."""
        tables, value, offset = self._tables
        found = (table.take(np.searchsorted(thr, rows[:, f]), axis=0) for f, thr, table in tables)
        live = next(found)  # [r, t]: the leaves of tree t that row r may reach
        for more in found:
            live &= more
        # the lowest set bit, 2^k, is exact as a float, with frexp exponent k + 1
        _, leaf = np.frexp(live & -live)
        leaf += offset
        out[...] = value.take(leaf).T

    def predict(self, rows) -> np.ndarray:
        """Per row, the mean of its leaf values. They are added tree by
        tree in tree order, from 0.0, the same bits as a running total over
        per-tree walks."""
        rows = _check_rows(rows, self.n_features)
        leaves = self._walked_leaves if self._tables is None else self._looked_up_leaves
        block = max(1, _BLOCK_CELLS // len(self.roots))
        total = np.empty(len(rows))
        for start in range(0, len(rows), block):
            part = rows[start:start + block]
            running = np.zeros((len(self.roots) + 1, len(part)))
            leaves(part, running[1:])
            # over axis 0 of 2+ columns the sum runs tree by tree; one column
            # would be summed pairwise
            total[start:start + block] = (
                np.add.reduce(running, axis=0) if len(part) > 1
                else np.add.accumulate(running, axis=0)[-1]
            )
        return total / len(self.roots)

    def describe(self) -> str:
        return f"forest({self.task},trees={len(self.roots)})"

    def to_json_dict(self) -> dict:
        def tree(k: int) -> dict:
            right, left = int(self.kids[2 * k]), int(self.kids[2 * k + 1])
            if right == k:
                return {"value": float(self.value[k])}
            return {
                "split": int(self.feature[k]),
                "threshold": float(self.threshold[k]),
                "left": tree(left),
                "right": tree(right),
            }

        return {
            "kind": "forest",
            "task": self.task,
            "n_features": self.n_features,
            "trees": [tree(int(root)) for root in self.roots],
        }


def _integer(doc: dict, key: str, least: int) -> int:
    """doc[key], which must be a JSON integer (no bool, float or string)
    of at least ``least``."""
    value = doc[key]
    if type(value) is not int or value < least:
        raise IngestionError(f"model document field {key!r} must be an integer >= {least}, "
                             f"got {value!r}")
    return value


def _number(value, field: str) -> float:
    """``value`` of the model document field ``field``, which must be a JSON
    number (no bool or string)."""
    if type(value) not in (int, float):
        raise IngestionError(f"model document field {field} must be a JSON number, got {value!r}")
    return float(value)


def _read_tree(nodes: _Nodes, doc: dict) -> int:
    """Add the tree of a JSON document to ``nodes``; returns its root."""
    if "value" in doc:
        return nodes.leaf(_number(doc["value"], "'value'"))
    k = nodes.leaf()
    left = _read_tree(nodes, doc["left"])
    right = _read_tree(nodes, doc["right"])
    threshold = _number(doc["threshold"], "'threshold'")
    nodes.split(k, _integer(doc, "split", 0), threshold, left, right)
    return k


def _request_lines(rows: np.ndarray):
    """A batch's predict lines, at most _REQUEST_ROWS rows each, byte-equal
    to json.dumps({"op": "predict", "inputs": part.tolist()}) with compact
    separators. The batch is encoded a window of _ENCODE_ROWS rows (whole
    lines) at a time, as its lines are pulled, so the memory an encoding
    takes does not grow with the batch."""
    rows = np.ascontiguousarray(rows)
    for w in range(0, len(rows), _ENCODE_ROWS):
        yield from _window_lines(rows[w:w + _ENCODE_ROWS])


def _window_lines(rows: np.ndarray) -> list:
    """The predict lines of a window of rows. Each distinct float64 bit
    pattern is turned into text once (so -0.0 and 0.0 stay apart), and each
    line is one join over those texts: a batch repeats x's known values and
    copies its own rows."""
    n, m = rows.shape
    bits, cell = np.unique(rows.view(np.int64), return_inverse=True)
    text = list(map(float.__repr__, bits.view(np.float64).tolist()))
    text += [",", "],["]  # between two values of a row, and after a row
    idx = np.full((n, 2 * m), len(text) - 2)
    idx[:, 0::2] = cell.reshape(n, m)
    idx[:, -1] = len(text) - 1
    text = np.array(text, dtype=object)
    lines = []
    for s in range(0, n, _REQUEST_ROWS):
        parts = text[idx[s:s + _REQUEST_ROWS].ravel()].tolist()
        parts[-1] = "]]}\n"
        lines.append(('{"op":"predict","inputs":[[' + "".join(parts)).encode())
    return lines


class ExternalModel:
    """Bridge to a child process speaking line-delimited JSON.

    Handshake: {"op":"hello","version":1,"n_features":M} -> {"ok":true}.
    Prediction: {"op":"predict","inputs":[[...],...]} -> {"outputs":[...]},
    at most _REQUEST_ROWS rows per request line. Several lines may be in
    flight, the next batch's among them; the child answers each with one
    reply line, in order. Its stderr is read all along, and the last
    _STDERR_TAIL bytes are quoted in every BridgeError. A reply carrying
    {"error": ...} or an output that is not a number, a dead process, or
    no reply line within BRIDGE_REPLY_TIMEOUT_S of waiting raises
    BridgeError; the child is stopped and reaped first. It is also stopped
    when a stream of batches ends early with lines in flight.
    """

    PROTOCOL_VERSION = 1

    def __init__(self, cmd: list, n_features: int):
        self.cmd = list(cmd)
        self.n_features = int(n_features)
        self._proc = None
        self._unread = bytearray()  # the child's output past the last reply line
        self._err_tail = bytearray()  # the last _STDERR_TAIL bytes of the child's stderr

    def describe(self) -> str:
        return f"external({' '.join(self.cmd)})"

    def _ensure_started(self):
        if self._proc is not None and self._proc.poll() is None:
            return
        try:
            self._proc = subprocess.Popen(
                self.cmd,
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
            )
        except OSError as err:
            raise BridgeError(f"failed to launch {self.cmd}: {err}") from err
        os.set_blocking(self._proc.stdin.fileno(), False)
        if hasattr(fcntl, "F_SETPIPE_SZ"):  # Linux only
            with contextlib.suppress(OSError):  # refused: the default size stays
                fcntl.fcntl(self._proc.stdin.fileno(), fcntl.F_SETPIPE_SZ, _REQUEST_PIPE_BYTES)
        self._unread = bytearray()
        self._err_tail = bytearray()
        hello = {"op": "hello", "version": self.PROTOCOL_VERSION, "n_features": self.n_features}
        hello_line = json.dumps(hello, separators=(",", ":")).encode() + b"\n"
        [(_, [line])] = self._exchange([(None, 1, [hello_line])])
        reply = self._parse_reply(line)
        if reply.get("ok") is not True:
            # _error() also stops and reaps the child
            raise self._error(f"handshake rejected: {reply}")

    def _exchange(self, groups):
        """The one bridge I/O loop. ``groups`` yields (tag, count, request
        lines) triples; for each, in order, (tag, reply lines) is yielded
        once the last of its ``count`` reply lines is read. One select loop
        writes lines while it reads reply lines and drains stderr. A group's
        lines, like the next group, are pulled one at a time once the line
        before is fully written, so the caller builds them while the child
        works; a group's replies are yielded while later lines are in
        flight. On Linux the child's stdin pipe holds about 1 MiB
        (_REQUEST_PIPE_BYTES), so a whole group of lines can queue ahead of
        the child while the caller builds the next one; the bytes written and
        their order do not depend on how much the pipe holds.
        If the caller closes the stream, or a pull raises, while lines are in
        flight, the child is stopped and reaped. Each reply line must come
        within BRIDGE_REPLY_TIMEOUT_S of waiting on the child since the start
        or the reply line before it; time spent in the caller does not count."""
        proc = self._proc
        in_fd, out_fd, err_fd = proc.stdin.fileno(), proc.stdout.fileno(), proc.stderr.fileno()
        readers = [out_fd, err_fd]
        groups = iter(groups)
        todo = iter(())  # lines of the last pulled group not yet begun
        due = deque()  # per pulled group not yet yielded: its tag and number of lines
        replies = deque()  # reply lines read and not yet yielded
        line, offset, begun, more = b"", 0, 0, True
        read = 0  # reply lines read; lines begun and not answered are in flight
        buf = self._unread
        waited = 0.0
        try:
            while True:
                if offset == len(line):
                    after = next(todo, None)
                    while after is None and more:
                        group = next(groups, None)
                        more = group is not None
                        if more:
                            tag, count, lines = group
                            todo = iter(lines)
                            due.append((tag, count))
                            after = next(todo, None)
                    if after is not None:
                        line, offset, begun = after, 0, begun + 1
                while due and len(replies) >= due[0][1]:
                    tag, n = due.popleft()
                    yield tag, [replies.popleft() for _ in range(n)]
                if not due:
                    return
                writers = [in_fd] if offset < len(line) else []
                left = BRIDGE_REPLY_TIMEOUT_S - waited
                start = time.monotonic()
                ready = select.select(readers, writers, [], left) if left > 0 else ([], [], [])
                waited += time.monotonic() - start
                if not (ready[0] or ready[1]):
                    raise self._error(f"bridge sent no reply within {BRIDGE_REPLY_TIMEOUT_S} s")
                try:
                    if ready[1]:
                        with contextlib.suppress(BlockingIOError):
                            offset += os.write(in_fd, memoryview(line)[offset:])
                    if err_fd in ready[0]:
                        said = os.read(err_fd, 1 << 16)
                        if not said:
                            readers.remove(err_fd)
                        self._err_tail += said
                        del self._err_tail[:-_STDERR_TAIL]
                    chunk = os.read(out_fd, 1 << 16) if out_fd in ready[0] else None
                except OSError as err:
                    raise self._error(f"bridge I/O failed: {err}") from err
                if chunk is None:
                    continue
                if not chunk:
                    raise self._error("bridge closed its output")
                buf += chunk
                while read < begun and (end := buf.find(b"\n")) >= 0:
                    replies.append(bytes(buf[:end]))
                    del buf[:end + 1]
                    read, waited = read + 1, 0.0
        except BaseException:
            if read < begun and self._proc is proc:
                self._stop()
            raise

    def _parse_reply(self, line: bytes) -> dict:
        try:
            reply = json.loads(line)
        except ValueError as err:
            raise self._error(f"malformed bridge reply {line[:200]!r}: {err}") from err
        if not isinstance(reply, dict):
            raise self._error(f"malformed bridge reply {line[:200]!r}: not a JSON object")
        if "error" in reply:
            raise self._error(f"bridge reported: {reply['error']}")
        return reply

    def _outputs(self, line: bytes, want: int) -> np.ndarray:
        """The ``want`` numbers a predict reply line carries, as float64."""
        outputs = self._parse_reply(line).get("outputs")
        numbers = isinstance(outputs, list) and set(map(type, outputs)) <= {int, float}
        try:
            values = np.array(outputs, dtype=float) if numbers else None
        except OverflowError:  # an int beyond the float64 range
            values = None
        if values is None:
            raise self._error(f"bridge reply {line[:200]!r}: outputs are not all float64 numbers")
        if len(values) != want:
            raise self._error(f"expected {want} outputs, got {len(values)}")
        return values

    def _stop(self) -> str:
        """Stop and reap the child; the tail of its stderr."""
        tail = bytes(self._err_tail)
        if self._proc is not None:
            self._proc.kill()
            tail += self._proc.communicate()[1] or b""
            self._proc = None
        return tail[-_STDERR_TAIL:].decode(errors="replace").strip()

    def _error(self, message: str) -> BridgeError:
        """Stop and reap the child; a BridgeError quoting its stderr's tail."""
        return BridgeError(f"{message}; stderr: {self._stop()}")

    def _stream(self, plans):
        """(payload, outputs) for each (payload, rows) of ``plans``, in
        order, from one exchange that carries the lines of every batch; a
        0-row batch sends no line. Rows are checked as they are encoded:
        nothing else stands between them and the child."""
        self._ensure_started()

        def requests():
            for payload, rows in plans:
                rows = _check_rows(rows, self.n_features)
                yield (payload, len(rows)), -(-len(rows) // _REQUEST_ROWS), _request_lines(rows)

        with contextlib.closing(self._exchange(requests())) as replies:
            for (payload, n), lines in replies:
                outputs = np.empty(n)
                for s, line in zip(range(0, n, _REQUEST_ROWS), lines):
                    outputs[s:s + _REQUEST_ROWS] = self._outputs(line, min(_REQUEST_ROWS, n - s))
                yield payload, outputs

    def predict(self, rows) -> np.ndarray:
        [(_, outputs)] = self._stream([(None, rows)])
        return outputs

    def close(self):
        """End the child's input and give it 5 s to finish its work and
        exit; terminate it only if it is still running after that."""
        if self._proc is None:
            return
        proc, self._proc = self._proc, None
        try:
            proc.communicate(timeout=5)
        except subprocess.TimeoutExpired:
            proc.terminate()
            proc.communicate(timeout=5)


class CallableModel:
    """Adapts a plain rows->outputs function to the model interface."""

    def __init__(self, fn, n_features: int, name: str = "callable"):
        self.fn = fn
        self.n_features = int(n_features)
        self.name = name

    def predict(self, rows) -> np.ndarray:
        rows = _check_rows(rows, self.n_features)
        return np.asarray(self.fn(rows), dtype=float)

    def describe(self) -> str:
        return self.name


class LogOddsModel:
    """Wraps a binary-probability model so predictions are log odds."""

    def __init__(self, model):
        self.model = model
        self.n_features = model.n_features

    def predict(self, rows) -> np.ndarray:
        """ln(p / (1-p)) with p clamped into [eps, 1-eps], eps = 1e-6. A
        non-finite p gives NaN, for ``predict_batches`` to reject."""
        p = np.asarray(self.model.predict(rows), dtype=float)
        p = np.where(np.isfinite(p), np.clip(p, LOG_ODDS_EPS, 1.0 - LOG_ODDS_EPS), np.nan)
        return np.log(p / (1.0 - p))

    def describe(self) -> str:
        return f"log_odds({self.model.describe()})"


def predict_batches(model, plans):
    """(payload, outputs) for each (payload, rows) of ``plans``, in order:
    the model's outputs on each k x M batch; deterministic, pure. The one
    check of model outputs: k finite values per batch. Rows are checked
    where they enter a model, by the bundled models' ``predict`` or by an
    ExternalModel as it encodes them. An in-process model predicts each
    batch as it is pulled. An ExternalModel sends the lines of every batch
    through one exchange and pulls the next plan once the line before it is
    written, so the next batch is built while the child works on this one;
    on Linux about 1 MiB of request lines may be queued ahead of the child.
    Each batch is read in full before the next is pulled."""

    def in_process():
        for payload, rows in plans:
            outputs, k = np.asarray(model.predict(rows), dtype=float), len(rows)
            if outputs.shape != (k,):
                raise ModelOutputError(f"model returned shape {outputs.shape} for {k} rows")
            yield payload, outputs

    stream = model._stream(plans) if isinstance(model, ExternalModel) else in_process()
    with contextlib.closing(stream):
        for payload, outputs in stream:
            if not np.all(np.isfinite(outputs)):
                raise ModelOutputError("model returned non-finite outputs")
            yield payload, outputs


def fit_ols(data: FeatureMatrix, target) -> LinearModel:
    """Least squares via lstsq, with a tiny ridge fallback if rank-deficient."""
    y = np.asarray(target, dtype=float)
    x = data.values
    n, m = x.shape
    if n <= m:
        raise SizeError(f"need more rows than features for OLS, got n={n}, M={m}")
    design = np.column_stack([np.ones(n), x])
    beta, _, rank, _ = np.linalg.lstsq(design, y, rcond=None)
    if rank < m + 1:
        gram = design.T @ design + 1e-8 * np.eye(m + 1)
        beta = np.linalg.solve(gram, design.T @ y)
    return LinearModel(beta[1:], float(beta[0]))


_FOREST_DEFAULTS = {"trees": 200, "max_depth": 8, "min_leaf": 5}
_FOREST_FLOORS = {"trees": 1, "max_depth": 0, "min_leaf": 1}


def fit_forest(
    data: FeatureMatrix,
    target,
    params: dict | None = None,
    rng: RngStream = RngStream(0),
    task: str = "regression",
) -> ForestModel:
    """Bagged CART forest, deterministic given the stream: tree t grows on
    a bootstrap sample drawn from substream t of ``rng``. ``params`` may
    set any of _FOREST_DEFAULTS, each an int or a numpy integer (not a
    bool) of at least its _FOREST_FLOORS value.

    Regression splits maximize variance reduction; for 0/1 targets the
    same criterion equals the Gini gain, and leaves hold class-1
    proportions. The trees grow in lockstep (``cart.grow_forest``): each
    round searches the splits of every unfinished tree's next node in
    batches, and gives the trees of a recursive one-node-at-a-time grower,
    bit for bit.
    """
    unknown = sorted(set(params or {}) - set(_FOREST_DEFAULTS))
    if unknown:
        raise IngestionError(f"unknown forest parameters {unknown}")
    p = {**_FOREST_DEFAULTS, **(params or {})}
    for name, least in _FOREST_FLOORS.items():
        if isinstance(p[name], bool) or not isinstance(p[name], (int, np.integer)):
            raise IngestionError(f"forest parameter {name} must be an integer, got {p[name]!r}")
        if p[name] < least:
            raise IngestionError(f"{name} must be at least {least}, got {p[name]}")
    y = np.asarray(target, dtype=float)
    x = data.values
    if y.shape != (data.n_rows,):
        raise IngestionError(f"a forest needs one target per row, got shape {y.shape}")
    if task == "binary-probability" and not np.all(np.isin(y, (0.0, 1.0))):
        raise IngestionError("binary-probability forest needs a 0/1 target")
    if len(y) < 2 * p["min_leaf"]:
        raise SizeError(f"need at least {2 * p['min_leaf']} rows, got {len(y)}")
    # imported here, so that a command that fits no forest does not load it
    from .cart import grow_forest

    gens = [rng.substream(t).generator() for t in range(int(p["trees"]))]
    nodes = _Nodes()
    fields = (nodes.roots, nodes.feature, nodes.threshold, nodes.value, nodes.left, nodes.right)
    grown = grow_forest(x, y, gens, int(p["max_depth"]), int(p["min_leaf"]))
    for field, values in zip(fields, grown):
        field.frombytes(values.astype(field.typecode).tobytes())
    return ForestModel(nodes, task, data.n_features)


def model_from_json(doc):
    """Rebuild a model from its JSON document. One that is not an object,
    lacks a key, holds a value of the wrong type (``n_features`` and
    ``split`` must be JSON integers; ``intercept``, ``threshold``, ``value``
    and the entries of a ``coefficients`` list must be JSON numbers) or
    nests past the recursion limit raises IngestionError."""
    if not isinstance(doc, dict):
        raise IngestionError("a model document must be a JSON object")
    kind = doc.get("kind")
    try:
        if kind == "linear":
            coef = doc["coefficients"]
            if isinstance(coef, list):
                coef = [_number(c, f"'coefficients'[{k}]") for k, c in enumerate(coef)]
            return LinearModel(np.array(coef), _number(doc["intercept"], "'intercept'"))
        if kind == "forest":
            nodes = _Nodes()
            for tree in doc["trees"]:
                nodes.roots.append(_read_tree(nodes, tree))
            return ForestModel(nodes, doc["task"], _integer(doc, "n_features", 1))
        if kind == "external":
            cmd = doc["cmd"]
            if not (isinstance(cmd, list) and cmd and all(isinstance(a, str) for a in cmd)):
                raise IngestionError("an external model's cmd must be a non-empty list of strings")
            return ExternalModel(cmd, _integer(doc, "n_features", 1))
    except KeyError as err:
        raise IngestionError(f"{kind} model document has no {err}") from None
    except (ValueError, TypeError, OverflowError, RecursionError) as err:
        raise IngestionError(f"malformed {kind} model document: {err}") from None
    raise IngestionError(f"unknown model kind {kind!r}")

"""Run output plumbing: atomic file writes, deterministic serialization,
trajectory files of a brownian.TrajectoryEnsemble, and run manifests.

All numeric outputs depend only on (config, seed); the manifest additionally
records wall-clock time and is therefore written last and excluded from
byte-level reproducibility comparisons.
"""

import contextlib
import csv
import hashlib
import io
import itertools
import json
import math
import os
import tempfile

import numpy as np

from .errors import NumericalError, ValidationError

TRAJECTORY_SCHEMA_VERSION = 1
# longest header line a trajectory file may have; the writer's take a few hundred bytes
_MAX_HEADER_BYTES = 2**16
# save_trajectories copies at most about this many bytes of an array at once
_WRITE_CHUNK_BYTES = 2**20


@contextlib.contextmanager
def _atomic_file(path: str):
    """Binary handle on a temporary file in the directory of ``path``, renamed
    to ``path`` when the block completes and removed when it raises."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-")
    try:
        with os.fdopen(fd, "wb") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_atomic(path: str, data: bytes) -> None:
    """Write via a temporary file in the same directory, then rename."""
    with _atomic_file(path) as fh:
        fh.write(data)


def canonical_json(obj) -> str:
    """Deterministic JSON: sorted keys, no float repr surprises, newline end.
    nan and infinity, which JSON cannot hold, raise ValueError."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False) + "\n"


def write_json(path: str, obj) -> None:
    """Write canonical_json(obj); a value JSON cannot hold is a NumericalError."""
    try:
        text = canonical_json(obj)
    except ValueError as exc:
        raise NumericalError(f"{os.path.basename(path)} would hold a non-finite number: {exc}") from exc
    write_atomic(path, text.encode("utf-8"))


def write_csv(path: str, header: list[str], rows) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    write_atomic(path, buf.getvalue().encode("utf-8"))


def config_hash(config_obj: dict) -> str:
    return hashlib.sha256(canonical_json(config_obj).encode("utf-8")).hexdigest()


def write_manifest(
    out_dir: str,
    config_obj: dict,
    version: str,
    wall_clock: float,
    seed: int,
    outputs: list[str],
) -> None:
    manifest = {
        "config_hash": config_hash(config_obj),
        "artifact_version": version,
        "wall_clock_seconds": wall_clock,
        "seed": seed,
        "outputs": sorted(outputs),
    }
    write_json(os.path.join(out_dir, "manifest.json"), manifest)


def save_trajectories(path: str, ensemble) -> None:
    """Binary columnar file: one JSON header line, then raw float64 blocks.

    Blocks are little-endian, in the order listed in the header; array shapes
    are recorded there. Each block holds its array in C order of its logical
    shape, whatever the memory layout of the array (the integrators return
    time-major views), so the bytes depend only on the values. Arrays are
    written in contiguous chunks of about 1 MiB of leading-axis rows, with no
    copy of a whole array or of the file in memory.
    """
    header = {
        "schema_version": TRAJECTORY_SCHEMA_VERSION,
        "config_hash": config_hash(ensemble.config.to_dict()),
        "dtype": "<f8",
        "blocks": [
            {"name": "times", "shape": list(ensemble.times.shape)},
            {"name": "x", "shape": list(ensemble.x.shape)},
        ],
    }
    arrays = [ensemble.times, ensemble.x]
    if ensemble.p is not None:
        header["blocks"].append({"name": "p", "shape": list(ensemble.p.shape)})
        arrays.append(ensemble.p)
    with _atomic_file(path) as fh:
        fh.write(canonical_json(header).encode("utf-8"))
        for arr in arrays:
            rows = max(1, _WRITE_CHUNK_BYTES // (8 * max(1, math.prod(arr.shape[1:]))))
            for start in range(0, arr.shape[0], rows):
                fh.write(np.ascontiguousarray(arr[start : start + rows], dtype="<f8").data)


def load_trajectories(path: str) -> dict:
    """Read the columnar trajectory format back into named arrays."""
    with open(path, "rb") as fh:
        header_line = fh.readline(_MAX_HEADER_BYTES + 1)
        if len(header_line) > _MAX_HEADER_BYTES:
            raise ValidationError(f"bad trajectory header: no line end within {_MAX_HEADER_BYTES} bytes")
        try:
            header = json.loads(header_line)
        except (ValueError, RecursionError) as exc:
            raise ValidationError(f"bad trajectory header: {exc}") from exc
        if not isinstance(header, dict) or header.get("schema_version") != TRAJECTORY_SCHEMA_VERSION:
            raise ValidationError(f"not a trajectory file of schema {TRAJECTORY_SCHEMA_VERSION}")
        if header.get("dtype") != "<f8":
            raise ValidationError(f"trajectory blocks of dtype {header.get('dtype')!r:.20}, not '<f8'")
        blocks = header.get("blocks")
        if not isinstance(blocks, list):
            raise ValidationError("trajectory header has no list of blocks")
        out = {"header": header}
        size = os.fstat(fh.fileno()).st_size
        for block in blocks:
            if not (
                isinstance(block, dict)
                # each of the three arrays at most once; "header" is taken
                and block.get("name") in ("times", "x", "p")
                and block["name"] not in out
                and isinstance(block.get("shape"), list)
                and all(type(k) is int and k >= 0 for k in block["shape"])
            ):
                raise ValidationError(f"foreign trajectory block {block!r:.60}")
            shape = tuple(block["shape"])
            nbytes = 8 * math.prod(shape)
            if nbytes > size - fh.tell():
                raise ValidationError(f"trajectory block {block['name']!r} is truncated")
            out[block["name"]] = np.frombuffer(fh.read(nbytes), dtype="<f8").reshape(shape)
        if "times" not in out or "x" not in out:
            raise ValidationError("trajectory file has no times or no x block")
        excess = size - fh.tell()
        if excess:
            raise ValidationError(f"{excess} bytes follow the last trajectory block")
    return out


def trajectories_to_csv_rows(ensemble):
    """Long-format rows (trajectory, time, particle, x[, p]) for small runs.

    The rows go trajectory by trajectory, then by time, then by particle;
    each trajectory's values are converted to text one column at a time.
    """
    n_traj, _, n_particles = ensemble.x.shape
    times = [repr(t) for t in ensemble.times.tolist()]
    arrays = [a for a in (ensemble.x, ensemble.p) if a is not None]
    for traj in range(n_traj):
        values = [map(repr, a[traj].ravel().tolist()) for a in arrays]
        for (t, part), *row in zip(itertools.product(times, range(n_particles)), *values):
            yield [traj, t, part, *row]

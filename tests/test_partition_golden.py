"""Golden partition digests: the multilevel partitioner's labels are frozen.

``tests/fixtures/partition_golden.json`` holds the sha256 of the int64
little-endian label array that :func:`repro.partition.partition_matrix`
returns for a fixed catalog of (matrix, nparts, seed, weighting) cases.
Any change to coarsening, initial bisection or FM refinement that moves a
single label fails here; speedups to the partitioner must be bit-identical.

Print the digests of the current code with::

    PYTHONPATH=src python tests/test_partition_golden.py
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro import matgen
from repro.partition import partition_matrix

FIXTURE = Path(__file__).parent / "fixtures" / "partition_golden.json"


def build(spec: str):
    """``poisson2d:N`` / ``poisson3d:N`` generator specs."""
    kind, _, n = spec.partition(":")
    return getattr(matgen, kind)(int(n))


def label_digest(spec: str, nparts: int, seed: int, weight_by_nnz: bool) -> str:
    labels = partition_matrix(
        build(spec), nparts, seed=seed, weight_by_nnz=weight_by_nnz
    )
    return hashlib.sha256(np.ascontiguousarray(labels, dtype="<i8").tobytes()).hexdigest()


def _cases() -> list[dict]:
    return json.loads(FIXTURE.read_text())["cases"]


@pytest.mark.parametrize(
    "case",
    _cases(),
    ids=lambda c: f"{c['spec']}/{c['nparts']}/s{c['seed']}" + ("/nnz" if c["weight_by_nnz"] else ""),
)
def test_partition_labels_match_golden_digest(case):
    got = label_digest(case["spec"], case["nparts"], case["seed"], case["weight_by_nnz"])
    assert got == case["sha256"]


if __name__ == "__main__":
    for c in _cases():
        print(c["spec"], c["nparts"], c["seed"], c["weight_by_nnz"],
              label_digest(c["spec"], c["nparts"], c["seed"], c["weight_by_nnz"]))

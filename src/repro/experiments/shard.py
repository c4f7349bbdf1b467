"""Deterministic shard partitioning of sweep cells.

A :class:`ShardSpec` ``i/k`` selects the cells whose fingerprint hashes to
residue ``i`` modulo ``k``.  The fingerprint is already a deterministic
function of exactly the quantities that define the cell's computation
(generator, algorithm, n, seed — see
:func:`repro.experiments.store.cell_fingerprint`), so:

* the ``k`` shards of a suite are **disjoint** and **cover** it — every
  cell belongs to exactly one shard, on every machine, in every process;
* sharding commutes with resume — a shard re-run skips its own completed
  fingerprints like any other sweep;
* merged shard stores (:func:`repro.experiments.store.merge_result_files`)
  reproduce the unsharded store record-for-record.

Nothing here imports the experiment registries, so the module is safe to
import from anywhere in the stack (CLI, runner, daemon) without cycles.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence, TypeVar

__all__ = ["ShardSpec", "shard_cells", "partition"]

CellT = TypeVar("CellT")


@dataclass(frozen=True)
class ShardSpec:
    """Shard ``index`` of ``count`` total shards (zero-based)."""

    index: int
    count: int

    def __post_init__(self) -> None:
        if self.count < 1:
            raise ValueError(f"shard count must be at least 1, got {self.count}")
        if not 0 <= self.index < self.count:
            raise ValueError(
                f"shard index must be in [0, {self.count}), got {self.index}"
            )

    @classmethod
    def parse(cls, text: str) -> "ShardSpec":
        """Parse the CLI form ``"i/k"`` (e.g. ``"0/2"``, ``"3/8"``)."""
        parts = text.strip().split("/")
        if len(parts) != 2:
            raise ValueError(f"expected a shard spec of the form i/k, got {text!r}")
        try:
            index, count = int(parts[0]), int(parts[1])
        except ValueError:
            raise ValueError(
                f"expected a shard spec of the form i/k with integers, got {text!r}"
            ) from None
        return cls(index, count)

    def owns(self, fingerprint: str) -> bool:
        """Whether the cell with this (hex) fingerprint belongs to the shard."""
        return int(fingerprint, 16) % self.count == self.index

    def __str__(self) -> str:
        return f"{self.index}/{self.count}"


def shard_cells(cells: Iterable[CellT], shard: ShardSpec | None) -> list[CellT]:
    """The sub-list of ``cells`` owned by ``shard`` (all of them for None).

    Cells must expose a ``fingerprint`` attribute
    (:class:`repro.experiments.spec.Cell` does).
    """
    if shard is None:
        return list(cells)
    return [cell for cell in cells if shard.owns(cell.fingerprint)]


def partition(cells: Sequence[CellT], count: int) -> list[list[CellT]]:
    """All ``count`` shards of ``cells`` at once (testing / inspection aid)."""
    return [shard_cells(cells, ShardSpec(index, count)) for index in range(count)]

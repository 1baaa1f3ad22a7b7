"""Flash translation layer for Flash-Cosmos data placement.

Section 6.3: the SSD firmware must (i) remember each page's
programming mode (ESP vs regular) and inversion flag, and (ii) place
operand vectors so bulk bitwise operations touch as few senses as
possible -- same-group operands into one string group, OR operands
either inverted in-group or in dedicated blocks.

``FlashTranslationLayer`` tracks vector-level metadata and the
chunk-to-chip striping used by :class:`repro.ssd.controller.SmallSsd`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping


class UnknownVectorError(KeyError):
    """A vector name the FTL does not store."""


@dataclass(frozen=True)
class PagePlacement:
    """Where one chunk of a logical vector lives."""

    vector: str
    chunk: int
    chip: int


@dataclass
class VectorRecord:
    """FTL metadata for one logical bit vector.

    ``n_bits`` is the vector's true length; when it is not a multiple
    of the page size the final chunk is stored zero-padded and
    ``n_bits`` is what reads/queries truncate their results to.
    """

    name: str
    n_bits: int
    n_chunks: int
    group: str | None
    inverted: bool
    esp_extra: float
    page_bits: int = 0
    placements: list[PagePlacement] = field(default_factory=list)

    @property
    def padded_bits(self) -> int:
        """Stored length including the zero-padded tail."""
        return self.n_chunks * self.page_bits

    @property
    def pad_bits(self) -> int:
        """Zero bits appended to fill the final chunk."""
        return self.padded_bits - self.n_bits


class FlashTranslationLayer:
    """Vector-level mapping and placement metadata."""

    def __init__(self, n_chips: int, page_bits: int) -> None:
        if n_chips < 1:
            raise ValueError("n_chips must be >= 1")
        if page_bits < 1:
            raise ValueError("page_bits must be >= 1")
        self.n_chips = n_chips
        self.page_bits = page_bits
        self._vectors: dict[str, VectorRecord] = {}
        #: Layout generation: bumped on every register/unregister so
        #: caches of resolved physical layouts (e.g. the query
        #: engine's bound per-chunk plans) can cheaply detect that the
        #: placement world may have changed and must re-bind.
        self.generation = 0
        #: Migration overlay on the striping policy: chunk index ->
        #: chip.  Empty in the common case; populated when the
        #: maintenance plane drains a quarantined chip, at which point
        #: every vector's chunk-c operand lives on the override chip
        #: (co-location across vectors is preserved because the *whole
        #: column* moves together).
        self._chunk_overrides: dict[int, int] = {}
        #: Parity striping (RAID-5 rotation groups) enabled by the
        #: controller; governs the distinct-sibling constraint of
        #: health-weighted assignment below.
        self.parity = False
        #: Recorded parity placements: rotation group -> chip, set at
        #: the first parity write of a group and updated by the
        #: maintenance plane's drain/rebuild (generation bumps apply).
        self._parity_chips: dict[int, int] = {}
        #: Wear/error-history placement (health plane feed): per-chip
        #: weight in (0, 1]; ``None`` keeps the pure ``c % n`` stripe.
        self._chip_health: dict[int, float] | None = None
        #: Sticky health-weighted assignments for columns first seen
        #: while health info was active (a column's chip must stay a
        #: pure function of its index, or co-location breaks).
        self._chunk_assignments: dict[int, int] = {}
        #: Every chunk column any registration has touched; only a
        #: *new* column may receive a weighted assignment.
        self._known_columns: set[int] = set()

    def register_vector(
        self,
        name: str,
        n_bits: int,
        *,
        group: str | None,
        inverted: bool,
        esp_extra: float,
    ) -> VectorRecord:
        if name in self._vectors:
            raise ValueError(f"vector {name!r} already registered")
        if n_bits < 1:
            raise ValueError("vector length must be >= 1 bit")
        # A short final chunk is stored zero-padded; ``n_bits`` keeps
        # the true length so reads and queries truncate the result.
        n_chunks = -(-n_bits // self.page_bits)
        record = VectorRecord(
            name=name,
            n_bits=n_bits,
            n_chunks=n_chunks,
            group=group,
            inverted=inverted,
            esp_extra=esp_extra,
            page_bits=self.page_bits,
        )
        for chunk in range(n_chunks):
            self._assign_column(chunk)
            record.placements.append(
                PagePlacement(
                    vector=name, chunk=chunk, chip=self.chip_of_chunk(chunk)
                )
            )
        self._vectors[name] = record
        self.generation += 1
        return record

    def chip_of_chunk(self, chunk: int) -> int:
        """Striping policy: chunk i lives on chip i mod n_chips, so
        equal-length vectors co-locate their equal bit offsets -- the
        co-location requirement of MWS (Section 10, Limitations).
        Drained chunks are redirected by the migration overlay;
        health-weighted columns by their sticky assignment."""
        override = self._chunk_overrides.get(chunk)
        if override is not None:
            return override
        assigned = self._chunk_assignments.get(chunk)
        if assigned is not None:
            return assigned
        return chunk % self.n_chips

    # ------------------------------------------------------------------
    # Wear/error-history-driven placement
    # ------------------------------------------------------------------

    def set_chip_health(
        self, weights: Mapping[int, float] | None
    ) -> None:
        """Feed per-chip health weights into the stripe-allocation
        order (the service pushes ``1 - error-rate EWMA`` per window).

        Only *new* chunk columns are affected -- a column's chip must
        remain a pure function of its index (co-location), so existing
        columns never move here (that is the maintenance plane's job).
        Uniform weights (or ``None``) restore the pure ``c % n``
        stripe, keeping the healthy path byte-identical to an SSD that
        never heard of health."""
        if not weights:
            self._chip_health = None
            return
        clamped = {
            chip: max(0.0, float(weights.get(chip, 1.0)))
            for chip in range(self.n_chips)
        }
        values = list(clamped.values())
        if max(values) <= 0.0 or max(values) - min(values) < 1e-9:
            self._chip_health = None
            return
        self._chip_health = clamped

    def _assign_column(self, chunk: int) -> None:
        """Pick a chip for a chunk column on first sight.  Without
        health info this is a no-op (``c % n`` stays exact); with it,
        a new column goes to the weighted-least-loaded chip, so sick
        chips receive fewer new chunks.  With parity striping the
        candidates exclude chips already hosting a sibling of the
        column's rotation group -- one chip loss must cost the group
        at most one member."""
        if chunk in self._known_columns:
            return
        self._known_columns.add(chunk)
        weights = self._chip_health
        if (
            weights is None
            or chunk in self._chunk_overrides
            or chunk in self._chunk_assignments
        ):
            return
        candidates = [
            chip for chip in range(self.n_chips) if weights[chip] > 0.0
        ]
        if not candidates:
            return
        if self.parity and self.n_chips > 1:
            taken = {
                self.chip_of_chunk(sibling)
                for sibling in self.group_data_chunks(
                    self.group_of_chunk(chunk)
                )
                if sibling != chunk and sibling in self._known_columns
            }
            open_chips = [c for c in candidates if c not in taken]
            if open_chips:
                candidates = open_chips
        load: dict[int, int] = {chip: 0 for chip in range(self.n_chips)}
        for column in self._known_columns:
            if column != chunk:
                load[self.chip_of_chunk(column)] += 1
        pick = min(
            candidates,
            key=lambda chip: ((load[chip] + 1) / weights[chip], chip),
        )
        if pick != chunk % self.n_chips:
            self._chunk_assignments[chunk] = pick

    # ------------------------------------------------------------------
    # Parity rotation groups (RAID-5 striping)
    # ------------------------------------------------------------------

    @property
    def parity_group_size(self) -> int:
        """Data chunks per parity rotation group: ``n_chips - 1``
        consecutive chunks land on ``n_chips - 1`` distinct chips
        under the stripe, leaving exactly one chip per group free to
        hold the parity page (RAID-5 rotation)."""
        return max(1, self.n_chips - 1)

    def group_of_chunk(self, chunk: int) -> int:
        return chunk // self.parity_group_size

    def group_data_chunks(self, group: int) -> tuple[int, ...]:
        """The data chunk indices of one rotation group (callers clamp
        against a vector's actual ``n_chunks``)."""
        size = self.parity_group_size
        return tuple(range(group * size, (group + 1) * size))

    def parity_group_count(self, n_chunks: int) -> int:
        return -(-n_chunks // self.parity_group_size)

    def choose_parity_chip(self, group: int) -> int:
        """Placement for a group's parity page: a chip hosting none of
        the group's data chunks (losing one chip must never take both
        a member and its parity).  The rotation default
        ``(group * (n-1) + n - 1) % n`` is used when it qualifies, so
        the parity load spreads across chips like RAID-5."""
        members = {
            self.chip_of_chunk(chunk)
            for chunk in self.group_data_chunks(group)
        }
        default = (
            group * self.parity_group_size + self.n_chips - 1
        ) % self.n_chips
        if default not in members:
            return default
        for chip in range(self.n_chips):
            if chip not in members:
                return chip
        raise ValueError(
            f"no chip free of group {group}'s data chunks for parity "
            f"({self.n_chips} chips)"
        )

    def parity_chip(self, group: int) -> int | None:
        """Recorded parity placement of one rotation group (``None``
        before the group's first parity write)."""
        return self._parity_chips.get(group)

    def set_parity_chip(self, group: int, chip: int) -> None:
        """Record (or move) a group's parity placement.  A move is a
        placement event: the generation bumps so bound plans and
        result-cache stamps rebind, same contract as
        :meth:`remap_chunk`."""
        if not 0 <= chip < self.n_chips:
            raise ValueError(f"chip {chip} outside 0..{self.n_chips - 1}")
        if self._parity_chips.get(group) != chip:
            self._parity_chips[group] = chip
            self.generation += 1

    def parity_placements(self) -> dict[int, int]:
        """Recorded parity placements (copy): group -> chip."""
        return dict(self._parity_chips)

    def remap_chunk(self, chunk: int, chip: int) -> int:
        """Redirect one chunk column to a new chip (probation drain).

        Rewrites every registered vector's placement for ``chunk`` and
        bumps the generation so bound plans and result-cache stamps
        rebind against the new queue shape.  Returns how many vector
        placements moved.
        """
        if not 0 <= chip < self.n_chips:
            raise ValueError(f"chip {chip} outside 0..{self.n_chips - 1}")
        self._chunk_overrides[chunk] = chip
        moved = 0
        for record in self._vectors.values():
            for i, placement in enumerate(record.placements):
                if placement.chunk == chunk and placement.chip != chip:
                    record.placements[i] = PagePlacement(
                        vector=placement.vector, chunk=chunk, chip=chip
                    )
                    moved += 1
        self.generation += 1
        return moved

    def chunk_overrides(self) -> dict[int, int]:
        """Active migration redirections (copy; empty when pristine)."""
        return dict(self._chunk_overrides)

    def live_pages(self, chip: int | None = None) -> int:
        """Registered chunk pages on one chip (or SSD-wide).  The
        maintenance plane compares this against programmed pages to
        find dead space worth collecting."""
        return sum(
            1
            for record in self._vectors.values()
            for p in record.placements
            if chip is None or p.chip == chip
        )

    def lookup(self, name: str) -> VectorRecord:
        try:
            return self._vectors[name]
        except KeyError:
            raise UnknownVectorError(
                f"vector {name!r} is not stored"
            ) from None

    def unregister(self, name: str) -> None:
        """Drop a vector's record (rollback of a failed striped write
        so the SSD is never left half-registered)."""
        if self._vectors.pop(name, None) is not None:
            self.generation += 1

    def __contains__(self, name: str) -> bool:
        return name in self._vectors

    def vectors(self) -> tuple[str, ...]:
        return tuple(self._vectors)

    def chunks_on_chip(self, name: str, chip: int) -> list[int]:
        record = self.lookup(name)
        return [p.chunk for p in record.placements if p.chip == chip]

    def validate_co_located(self, names: list[str]) -> None:
        """All vectors of one expression must have identical length
        (hence identical striping) to be combined chunk-by-chunk."""
        lengths = {self.lookup(n).n_bits for n in names}
        if len(lengths) > 1:
            raise ValueError(
                "operand vectors have mismatched lengths "
                f"{sorted(lengths)}; in-flash combination requires "
                "equal-length, identically striped vectors"
            )

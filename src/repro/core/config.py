"""Machine and simulation configuration.

Two machine presets mirror the paper's Section 4.1 targets:

* :data:`NUMA_16` — a 16-node CC-NUMA with one processor per node, 2-way
  32-KB D-L1 and 4-way 512-KB L2 per node, nodes on a 2D mesh. Minimum
  round-trip latencies: L1 2, L2 12, local memory 75, remote memory 208
  (2 hops) and 291 (3 hops) cycles.
* :data:`CMP_8` — an 8-processor chip multiprocessor with 2-way 32-KB D-L1
  and 4-way 256-KB L2 per processor, crossbar to a shared off-chip L3.
  Minimum round-trip latencies: L1 2, L2 8, another L2 18, L3 38, memory
  102 cycles.

The cost knobs in :class:`CostModel` are the calibrated per-event costs of
the simplified timing model (see DESIGN.md Section 6).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, replace
from typing import Any

from repro.errors import ConfigurationError

#: Cache line size used throughout (bytes); the paper uses 64-byte lines.
LINE_BYTES = 64
#: Word size (bytes); violation detection is word-granular.
WORD_BYTES = 4
#: Words per cache line.
WORDS_PER_LINE = LINE_BYTES // WORD_BYTES


@dataclass(frozen=True)
class CacheGeometry:
    """Size/associativity of one cache level.

    ``size_bytes`` must be divisible by ``assoc * LINE_BYTES`` and the
    resulting number of sets must be a power of two (so set selection is a
    mask of the line address).
    """

    size_bytes: int
    assoc: int

    def __post_init__(self) -> None:
        if self.size_bytes <= 0 or self.assoc <= 0:
            raise ConfigurationError(
                f"cache size and associativity must be positive, got "
                f"{self.size_bytes}B / {self.assoc}-way"
            )
        if self.size_bytes % (self.assoc * LINE_BYTES):
            raise ConfigurationError(
                f"cache size {self.size_bytes}B is not divisible by "
                f"assoc*line ({self.assoc}*{LINE_BYTES})"
            )
        if self.n_sets & (self.n_sets - 1):
            raise ConfigurationError(
                f"number of sets must be a power of two, got {self.n_sets}"
            )

    @property
    def n_sets(self) -> int:
        return self.size_bytes // (self.assoc * LINE_BYTES)

    @property
    def n_lines(self) -> int:
        return self.size_bytes // LINE_BYTES


@dataclass(frozen=True)
class CostModel:
    """Calibrated per-event costs of the simplified timing model (cycles).

    These knobs are where the paper's measured protocol overheads enter the
    model; defaults are shared by both machines except where a preset
    overrides them.
    """

    #: Effective instructions per cycle of the 4-issue dynamic superscalar.
    ipc: float = 2.0
    #: Cost of writing one dirty line back to main memory during an eager
    #: commit or a lazy final merge (writebacks are pipelined, so this is
    #: well below a full memory round trip).
    commit_writeback_per_line: int = 60
    #: Latency of passing the commit token to the (possibly remote) successor.
    token_pass: int = 90
    #: Per-line cost of the Lazy AMM end-of-loop merge. Cheaper than the
    #: token-holding commit write-backs: every processor flushes its
    #: committed dirty lines in parallel as a pipelined bulk transfer
    #: (the diamonds of Figure 6-(b)).
    final_merge_per_line: int = 10
    #: Extra latency for an access that must be serviced from the overflow
    #: memory area rather than a cache (on top of memory latency).
    overflow_penalty: int = 20
    #: VCL: combining/invalidating the stale committed versions of a line
    #: when its latest committed version is written back or fetched.
    vcl_combine: int = 12
    #: CRL: extra occupancy for an external read that must select among
    #: multiple same-address versions in one cache (MultiT&MV only).
    crl_select: int = 4
    #: Hardware undo-log insertion (mostly hidden by the write buffer).
    ulog_insert: int = 2
    #: Extra *instructions* per logged variable under software logging
    #: (FMM.Sw); converted to cycles through ``ipc``.
    swlog_instructions: int = 110
    #: Instructions executed by the software recovery handler per restored
    #: log entry under FMM (fully simulated, Section 4.1).
    fmm_recovery_instructions_per_entry: int = 60
    #: Eager-commit write-back slowdown under SingleT, where the processor
    #: itself performs the merge with plain loads/stores instead of the
    #: background merge hardware MultiT schemes use (Section 4.1).
    singlet_commit_factor: float = 1.7
    #: Cycles to gang-invalidate one squashed speculative line under AMM.
    amm_invalidate_per_line: float = 1.0
    #: Fixed cost of initiating any squash recovery (trap + dispatch).
    squash_fixed: int = 200
    #: Memory-bank occupancy per memory access (cycles). When non-zero,
    #: concurrent accesses to the same home bank queue behind each other —
    #: a lightweight model of the "contention accurately modeled" aspect of
    #: the paper's simulator. 0 disables queuing (latency-only model).
    memory_bank_service: int = 0
    #: Eager-commit merge mechanism: "writeback" (the base protocol writes
    #: each dirty line back to memory while holding the token) or "orb"
    #: (Steffan et al.'s Ownership Required Buffer: the commit instead
    #: issues an ownership request per modified non-owned line — the
    #: alternative discussed in the Section 4.1 footnote).
    eager_commit_mode: str = "writeback"
    #: Cost of one ORB ownership request at commit (cheaper than a data
    #: write-back: only a coherence transaction, no data transfer).
    orb_request_per_line: int = 36
    #: Per-processor overflow-area reservation, in cache lines. The paper
    #: assumes an overflow area large enough for any working set
    #: (``None`` = unbounded, the default — timing is then unchanged).
    #: With a finite capacity, versions beyond the reservation live in
    #: pageable memory and every access to them pays
    #: :attr:`overflow_excess_penalty` on top of the usual overflow costs
    #: — the knob the design-space exploration's overflow axis sweeps.
    overflow_capacity_lines: int | None = None
    #: Extra cycles per access to an overflow line beyond
    #: :attr:`overflow_capacity_lines` (ignored while capacity is
    #: unbounded).
    overflow_excess_penalty: int = 60

    def __post_init__(self) -> None:
        if self.ipc <= 0:
            raise ConfigurationError(f"ipc must be positive, got {self.ipc}")
        if self.eager_commit_mode not in ("writeback", "orb"):
            raise ConfigurationError(
                f"eager_commit_mode must be 'writeback' or 'orb', got "
                f"{self.eager_commit_mode!r}")
        if (self.overflow_capacity_lines is not None
                and self.overflow_capacity_lines <= 0):
            raise ConfigurationError(
                f"overflow_capacity_lines must be positive or None, got "
                f"{self.overflow_capacity_lines}")

    def cycles_for_instructions(self, instructions: float) -> float:
        """Busy cycles needed to execute ``instructions`` at the model IPC."""
        return instructions / self.ipc


@dataclass(frozen=True)
class MachineConfig:
    """A complete machine description consumed by the simulation engine."""

    name: str
    n_procs: int
    l1: CacheGeometry
    l2: CacheGeometry
    #: Round-trip latency of an L1 hit.
    lat_l1: int
    #: Round-trip latency of an L2 hit.
    lat_l2: int
    #: Round-trip latency to memory, indexed by network hop distance.
    #: NUMA: {0: local, 1..3: remote}; CMP: a single distance through L3.
    lat_memory_by_hops: dict[int, int]
    #: Round-trip latency of a cache-to-cache transfer from another
    #: processor at a given hop distance.
    lat_remote_cache_by_hops: dict[int, int]
    #: Shared L3 hit latency (CMP only; ``None`` when there is no L3).
    lat_l3: int | None = None
    l3: CacheGeometry | None = None
    #: Mesh side for NUMA hop computation; ``None`` means all-equidistant
    #: (crossbar).
    mesh_side: int | None = None
    costs: CostModel = field(default_factory=CostModel)

    def __post_init__(self) -> None:
        if self.n_procs <= 0:
            raise ConfigurationError(f"n_procs must be positive, got {self.n_procs}")
        if self.mesh_side is not None and self.mesh_side**2 < self.n_procs:
            raise ConfigurationError(
                f"mesh {self.mesh_side}x{self.mesh_side} cannot hold "
                f"{self.n_procs} nodes"
            )
        if not self.lat_memory_by_hops:
            raise ConfigurationError("lat_memory_by_hops must not be empty")

    def hops(self, node_a: int, node_b: int) -> int:
        """Network hop distance between two nodes.

        Mesh distances beyond the latency table the paper provides are
        capped at the table's maximum (the paper quotes latencies up to 3
        protocol hops).
        """
        from repro.interconnect import topology

        distance = topology(self.n_procs, self.mesh_side).hops(node_a, node_b)
        return min(distance, self.max_hops)

    @property
    def max_hops(self) -> int:
        return max(self.lat_memory_by_hops)

    def memory_latency(self, requester: int, home: int) -> int:
        """Round-trip latency from ``requester`` to memory at ``home``."""
        return self.lat_memory_by_hops[self.hops(requester, home)]

    def remote_cache_latency(self, requester: int, owner: int) -> int:
        """Round-trip latency of a cache-to-cache transfer."""
        return self.lat_remote_cache_by_hops[self.hops(requester, owner)]

    def home_node(self, line_addr: int) -> int:
        """Home node of a line (round-robin interleaving by line address)."""
        return line_addr % self.n_procs

    def with_l2(self, geometry: CacheGeometry) -> "MachineConfig":
        """A copy of this machine with a different L2 (for Lazy.L2)."""
        return replace(self, l2=geometry)

    def with_costs(self, costs: CostModel) -> "MachineConfig":
        """A copy of this machine with different cost knobs."""
        return replace(self, costs=costs)

    def identity(self) -> dict[str, Any]:
        """``dataclasses.asdict(self)``: the machine's part of a job's
        cache identity.

        Derived once and memoized on the frozen instance (the fields
        never change after construction); every call returns a fresh
        copy, so no caller can change the memo.
        """
        memo = self.__dict__.get(_IDENTITY_MEMO)
        if memo is None:
            memo = asdict(self)
            object.__setattr__(self, _IDENTITY_MEMO, memo)
        return _copy_tree(memo)

    def __getstate__(self) -> dict[str, Any]:
        # The identity memo stays out of the pickle: a machine pickles
        # the same whether or not a key was derived from it.
        state = self.__dict__.copy()
        state.pop(_IDENTITY_MEMO, None)
        return state


#: Attribute :meth:`MachineConfig.identity` memoizes under.
_IDENTITY_MEMO = "_identity"


def _copy_tree(value: Any) -> Any:
    """A copy of a tree of dicts and lists (leaves are shared scalars)."""
    if isinstance(value, dict):
        return {key: _copy_tree(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_copy_tree(item) for item in value]
    return value


def _numa_hop_latencies() -> tuple[dict[int, int], dict[int, int]]:
    """NUMA latency tables from the paper, with 1-hop interpolated.

    The paper quotes local (75), 2-hop (208) and 3-hop (291) memory round
    trips; a 1-hop remote access is interpolated between local and 2-hop.
    Cache-to-cache transfers cost roughly the memory latency of the owner's
    node plus one forwarding leg.
    """
    memory = {0: 75, 1: 142, 2: 208, 3: 291}
    remote_cache = {0: 40, 1: 150, 2: 216, 3: 299}
    return memory, remote_cache


_NUMA_MEM, _NUMA_CACHE = _numa_hop_latencies()

#: The paper's 16-node scalable CC-NUMA (Section 4.1).
NUMA_16 = MachineConfig(
    name="CC-NUMA-16",
    n_procs=16,
    l1=CacheGeometry(size_bytes=32 * 1024, assoc=2),
    l2=CacheGeometry(size_bytes=512 * 1024, assoc=4),
    lat_l1=2,
    lat_l2=12,
    lat_memory_by_hops=_NUMA_MEM,
    lat_remote_cache_by_hops=_NUMA_CACHE,
    mesh_side=4,
    costs=CostModel(),
)

#: The enlarged-L2 NUMA used for the Lazy.L2 bar of Figure 10
#: (4-MB, 16-way L2).
NUMA_16_BIG_L2 = NUMA_16.with_l2(CacheGeometry(size_bytes=4 * 1024 * 1024, assoc=16))

#: The paper's 8-processor CMP (Section 4.1). Memory and L3 are
#: equidistant from every processor through the crossbar.
CMP_8 = MachineConfig(
    name="CMP-8",
    n_procs=8,
    l1=CacheGeometry(size_bytes=32 * 1024, assoc=2),
    l2=CacheGeometry(size_bytes=256 * 1024, assoc=4),
    lat_l1=2,
    lat_l2=8,
    lat_memory_by_hops={0: 102, 1: 102},
    lat_remote_cache_by_hops={0: 18, 1: 18},
    lat_l3=38,
    l3=CacheGeometry(size_bytes=16 * 1024 * 1024, assoc=4),
    mesh_side=None,
    costs=CostModel(
        commit_writeback_per_line=28,
        token_pass=24,
        final_merge_per_line=8,
        overflow_penalty=12,
        vcl_combine=4,
        crl_select=4,
    ),
)

#: Machines keyed by name, for the CLI and experiment harness.
MACHINES: dict[str, MachineConfig] = {
    "numa16": NUMA_16,
    "numa16-bigl2": NUMA_16_BIG_L2,
    "cmp8": CMP_8,
}


def _extend_hop_table(table: dict[int, int], diameter: int,
                      what: str) -> dict[int, int]:
    """A hop-latency table covering every distance up to ``diameter``.

    The base table must be contiguous (keys exactly ``0..max``); gaps
    would silently map real hop distances onto the wrong latency, so they
    are rejected. Distances beyond the table are linearly extrapolated
    from its last per-hop increment — the per-hop cost of the mesh the
    base table was measured on.
    """
    max_hop = max(table)
    if sorted(table) != list(range(max_hop + 1)):
        raise ConfigurationError(
            f"{what} table has gaps: keys {sorted(table)} are not "
            f"contiguous from 0; cannot derive latencies for a scaled mesh"
        )
    if diameter <= max_hop:
        return dict(table)
    if max_hop == 0:
        raise ConfigurationError(
            f"{what} table has a single (local) entry; cannot extrapolate "
            f"latencies out to {diameter} hops"
        )
    per_hop = table[max_hop] - table[max_hop - 1]
    extended = dict(table)
    for hop in range(max_hop + 1, diameter + 1):
        extended[hop] = extended[hop - 1] + per_hop
    return extended


def scaled_machine(base: MachineConfig, n_procs: int) -> MachineConfig:
    """A copy of ``base`` with a different processor count.

    Used by tests, ablations, and the design-space exploration's
    processor-count axis; the mesh side grows to the smallest square that
    holds the processors. The hop-latency tables are validated
    (contiguous hop keys) and extended out to the derived mesh diameter by
    linear extrapolation, so a non-power-of-two or larger-than-base count
    never silently folds distant nodes onto the base table's last entry.
    """
    if n_procs <= 0:
        raise ConfigurationError(f"n_procs must be positive, got {n_procs}")
    mesh_side = None
    lat_memory = base.lat_memory_by_hops
    lat_remote = base.lat_remote_cache_by_hops
    if base.mesh_side is not None:
        from repro.interconnect import topology

        mesh_side = max(1, math.isqrt(n_procs - 1) + 1)
        diameter = topology(n_procs, mesh_side).diameter
        lat_memory = _extend_hop_table(lat_memory, diameter, "memory latency")
        lat_remote = _extend_hop_table(lat_remote, diameter,
                                       "remote-cache latency")
    return replace(base, n_procs=n_procs, mesh_side=mesh_side,
                   lat_memory_by_hops=lat_memory,
                   lat_remote_cache_by_hops=lat_remote,
                   name=f"{base.name}-x{n_procs}")

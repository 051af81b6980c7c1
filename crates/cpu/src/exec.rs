//! The instruction executor.

use crate::block::{self, BlockEntry};
use crate::pac::{strip_pac, KeyClass, PacUnit};
use crate::state::CpuState;
use crate::trace::{self, TraceEntry, TraceOutcome, TraceRecorder};
use camo_isa::{decode, AddrMode, CostModel, Insn, InsnKey, PacKey, PairMode, Reg, SysReg};
use camo_mem::{El, Frame, MemFault, Memory, TableId, TranslationCtx, PAGE_SIZE};
use core::fmt;

/// Sentinel link-register value used by [`Cpu::call`]: the executor stops
/// when the PC reaches it. Deliberately *canonical* (a never-mapped
/// kernel-half address) so that it survives a sign → authenticate round
/// trip through an instrumented callee's prologue and epilogue unchanged.
pub const CALL_SENTINEL: u64 = 0xFFFF_DEAD_BEEF_0000;

/// Exception-class codes stored in `ESR_EL1[31:26]` (ARM ARM subset).
pub mod ec {
    /// Unknown/undefined instruction.
    pub const UNKNOWN: u64 = 0x00;
    /// Trapped `MSR`/`MRS` from an insufficient EL.
    pub const TRAPPED_MSR: u64 = 0x18;
    /// Instruction abort from a lower EL.
    pub const INSN_ABORT_LOWER: u64 = 0x20;
    /// Instruction abort, same EL.
    pub const INSN_ABORT_SAME: u64 = 0x21;
    /// `SVC` from AArch64.
    pub const SVC64: u64 = 0x15;
    /// Data abort from a lower EL.
    pub const DATA_ABORT_LOWER: u64 = 0x24;
    /// Data abort, same EL.
    pub const DATA_ABORT_SAME: u64 = 0x25;
}

/// Exception-vector offsets from `VBAR_EL1` (SP_ELx forms).
pub mod vector {
    /// Synchronous exception from the current EL.
    pub const SYNC_SAME_EL: u64 = 0x200;
    /// IRQ from the current EL.
    pub const IRQ_SAME_EL: u64 = 0x280;
    /// Synchronous exception from a lower EL.
    pub const SYNC_LOWER_EL: u64 = 0x400;
    /// IRQ from a lower EL.
    pub const IRQ_LOWER_EL: u64 = 0x480;
}

/// Hardware feature switches for the simulated core.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HwFeatures {
    /// ARMv8.3-PAuth implemented.
    ///
    /// When `false` (an ARMv8.0 core such as the paper's Raspberry Pi 3),
    /// the register-form and combined PAuth instructions are UNDEFINED,
    /// while the hint-space forms (`PACIA1716`, `PACIASP`, ...) execute as
    /// `NOP` — the behaviour §5.5's backward-compatible build relies on.
    pub pauth: bool,
}

impl Default for HwFeatures {
    fn default() -> Self {
        HwFeatures { pauth: true }
    }
}

/// Counters exposed for tests and benchmarks.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CpuStats {
    /// Retired instructions.
    pub instructions: u64,
    /// PAC sign operations executed.
    pub pac_signs: u64,
    /// Successful authentications.
    pub pac_auth_ok: u64,
    /// Failed authentications (corrupted pointer produced).
    pub pac_auth_fail: u64,
    /// Failed authentications under an instruction key (IA/IB) — the
    /// forward/backward code-pointer edges. Always sums with
    /// [`CpuStats::pac_auth_fail_data`] to [`CpuStats::pac_auth_fail`].
    pub pac_auth_fail_instr: u64,
    /// Failed authentications under a data key (DA/DB) — signed data
    /// fields such as `file.f_ops` or the saved kernel SP.
    pub pac_auth_fail_data: u64,
    /// Writes to PAuth key system registers.
    pub key_writes: u64,
    /// Exceptions taken (SVC, aborts, IRQs).
    pub exceptions: u64,
    /// Software-TLB hits, mirrored from the memory system after each step.
    ///
    /// The TLB lives in [`Memory`] (it caches translations for *every*
    /// requester, not just this core); the counters here are the memory
    /// system's totals as of the end of the last [`Cpu::step`].
    pub tlb_hits: u64,
    /// Software-TLB misses, mirrored like [`CpuStats::tlb_hits`].
    pub tlb_misses: u64,
    /// Decoded-instruction-cache hits (this core's fetch pipeline).
    pub icache_hits: u64,
    /// Decoded-instruction-cache misses.
    pub icache_misses: u64,
    /// PAC-unit MAC-memo hits (whole sign/auth computations served from
    /// the memo instead of running QARMA).
    pub pac_memo_hits: u64,
    /// PAC-unit MAC-memo misses (QARMA actually ran).
    pub pac_memo_misses: u64,
    /// Inter-processor interrupts delivered to this core.
    pub ipis: u64,
    /// Block-translation-engine cache hits (whole decoded blocks served
    /// without re-decoding). Zero when the engine is disabled or the core
    /// is driven through [`Cpu::step`].
    pub block_hits: u64,
    /// Block-translation-engine cache misses (blocks decoded fresh).
    pub block_misses: u64,
    /// Cached blocks discarded because a freshness stamp no longer held —
    /// the translation generation moved (map/unmap/`set_attr`/stage-2
    /// change) or the code frame's write version moved (self-modifying or
    /// attacker-written code).
    pub block_invalidations: u64,
    /// Chain continuations inside one [`Cpu::run_block`] call — block or
    /// trace exits that stayed in the call instead of returning to the
    /// run loop. This is where chaining actually pays: `block_hits` alone
    /// counts probes, not the dispatch round-trips avoided.
    pub chain_follows: u64,
    /// Trace-tier hits (a validated trace executed; see [`crate::trace`]).
    pub trace_hits: u64,
    /// Trace-tier misses — traces built and installed (the tier never
    /// probes without either hitting or building, so "miss" counts
    /// constructions, mirroring `block_misses` counting decodes).
    pub trace_misses: u64,
    /// Cached traces discarded because a freshness stamp no longer held —
    /// a constituent page's bytes changed, or a translation-generation
    /// move re-walked the pages and found a mapping gone or moved.
    pub trace_invalidations: u64,
}

impl CpuStats {
    /// The counter deltas accumulated since `baseline` was captured —
    /// the per-operation attribution primitive: snapshot merged stats,
    /// run an operation, and `delta_since` the snapshot to get exactly
    /// the work that operation performed. Every field is a monotonic
    /// counter, so the subtraction is saturating only as a guard against
    /// mismatched snapshots.
    pub fn delta_since(&self, baseline: &CpuStats) -> CpuStats {
        CpuStats {
            instructions: self.instructions.saturating_sub(baseline.instructions),
            pac_signs: self.pac_signs.saturating_sub(baseline.pac_signs),
            pac_auth_ok: self.pac_auth_ok.saturating_sub(baseline.pac_auth_ok),
            pac_auth_fail: self.pac_auth_fail.saturating_sub(baseline.pac_auth_fail),
            pac_auth_fail_instr: self
                .pac_auth_fail_instr
                .saturating_sub(baseline.pac_auth_fail_instr),
            pac_auth_fail_data: self
                .pac_auth_fail_data
                .saturating_sub(baseline.pac_auth_fail_data),
            key_writes: self.key_writes.saturating_sub(baseline.key_writes),
            exceptions: self.exceptions.saturating_sub(baseline.exceptions),
            tlb_hits: self.tlb_hits.saturating_sub(baseline.tlb_hits),
            tlb_misses: self.tlb_misses.saturating_sub(baseline.tlb_misses),
            icache_hits: self.icache_hits.saturating_sub(baseline.icache_hits),
            icache_misses: self.icache_misses.saturating_sub(baseline.icache_misses),
            pac_memo_hits: self.pac_memo_hits.saturating_sub(baseline.pac_memo_hits),
            pac_memo_misses: self
                .pac_memo_misses
                .saturating_sub(baseline.pac_memo_misses),
            ipis: self.ipis.saturating_sub(baseline.ipis),
            block_hits: self.block_hits.saturating_sub(baseline.block_hits),
            block_misses: self.block_misses.saturating_sub(baseline.block_misses),
            block_invalidations: self
                .block_invalidations
                .saturating_sub(baseline.block_invalidations),
            chain_follows: self.chain_follows.saturating_sub(baseline.chain_follows),
            trace_hits: self.trace_hits.saturating_sub(baseline.trace_hits),
            trace_misses: self.trace_misses.saturating_sub(baseline.trace_misses),
            trace_invalidations: self
                .trace_invalidations
                .saturating_sub(baseline.trace_invalidations),
        }
    }

    /// Accumulates `other` into `self` — the cluster/shard aggregation
    /// primitive. Totals (instructions, cache counters, PAC counters) add;
    /// there is no per-field averaging, so merged stats read as "work done
    /// by the whole set of cores".
    pub fn merge(&mut self, other: &CpuStats) {
        self.instructions += other.instructions;
        self.pac_signs += other.pac_signs;
        self.pac_auth_ok += other.pac_auth_ok;
        self.pac_auth_fail += other.pac_auth_fail;
        self.pac_auth_fail_instr += other.pac_auth_fail_instr;
        self.pac_auth_fail_data += other.pac_auth_fail_data;
        self.key_writes += other.key_writes;
        self.exceptions += other.exceptions;
        self.tlb_hits += other.tlb_hits;
        self.tlb_misses += other.tlb_misses;
        self.icache_hits += other.icache_hits;
        self.icache_misses += other.icache_misses;
        self.pac_memo_hits += other.pac_memo_hits;
        self.pac_memo_misses += other.pac_memo_misses;
        self.ipis += other.ipis;
        self.block_hits += other.block_hits;
        self.block_misses += other.block_misses;
        self.block_invalidations += other.block_invalidations;
        self.chain_follows += other.chain_follows;
        self.trace_hits += other.trace_hits;
        self.trace_misses += other.trace_misses;
        self.trace_invalidations += other.trace_invalidations;
    }

    /// Whether the *architectural* counters of two runs agree — retired
    /// instructions, PAC sign/auth outcomes, key writes, exceptions, and
    /// IPIs. This is the identity the block engine (and the fast-path
    /// caches before it) must preserve across an A/B toggle.
    ///
    /// The simulator-observability counters — TLB, decoded-instruction
    /// cache, PAC memo, block-cache and trace-cache hit/miss/invalidation
    /// counts, and chain follows — are *excluded*: they describe how the
    /// simulator reached the architectural result, and legitimately
    /// differ between engines (e.g. a cached block performs one
    /// permission walk where the step path performs one per instruction).
    pub fn arch_eq(&self, other: &CpuStats) -> bool {
        (
            self.instructions,
            self.pac_signs,
            self.pac_auth_ok,
            self.pac_auth_fail,
            self.pac_auth_fail_instr,
            self.pac_auth_fail_data,
            self.key_writes,
            self.exceptions,
            self.ipis,
        ) == (
            other.instructions,
            other.pac_signs,
            other.pac_auth_ok,
            other.pac_auth_fail,
            other.pac_auth_fail_instr,
            other.pac_auth_fail_data,
            other.key_writes,
            other.exceptions,
            other.ipis,
        )
    }
}

/// The kinds of inter-processor interrupt the cluster protocol uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IpiKind {
    /// The scheduler on another core changed this core's runqueue
    /// (task migration, balancing): re-evaluate scheduling decisions.
    Reschedule,
    /// A translation or permission changed on another core: discard
    /// cached translations. In this simulator the shared [`Memory`]
    /// generation counter already makes stale entries unservable the
    /// instant the mutation lands, so the IPI carries the *protocol*
    /// (acknowledgement, accounting) rather than the correctness.
    TlbShootdown,
}

/// One decoded-instruction-cache entry: the decoded form of the word that
/// was resident at physical address `pa` when its frame was at `version`.
/// Any write into the frame bumps its version and kills the entry —
/// self-modifying code decodes fresh on the very next fetch.
#[derive(Debug, Clone, Copy)]
struct IcacheEntry {
    pa: u64,
    version: u64,
    insn: Insn,
}

/// Number of direct-mapped decoded-instruction-cache slots (power of two;
/// indexed by word address, so 16 KiB of code fits conflict-free).
const ICACHE_SIZE: usize = 4096;

/// Direct-mapped slot for the instruction word at `pa`.
fn icache_slot(pa: u64) -> usize {
    (pa >> 2) as usize & (ICACHE_SIZE - 1)
}

/// Outcome of the fetch-and-decode front end.
enum FetchResult {
    /// A decoded instruction (from the cache or a fresh decode).
    Insn(Insn),
    /// The fetch faulted (translation, permission, alignment, backing).
    Fault(MemFault),
    /// The word at the PC does not decode.
    Undefined(u32),
}

/// What a single [`Cpu::step`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// An ordinary instruction retired.
    Executed,
    /// `SVC` executed; if a vector base is installed the PC now points at
    /// the EL1 synchronous entry.
    SvcTaken {
        /// The SVC immediate.
        imm: u16,
    },
    /// `BRK` executed. The simulator repurposes `BRK` as an *upcall* to the
    /// host-side kernel logic: the executor returns to the harness without
    /// vectoring, and the PC has already advanced past the `BRK`.
    BrkTrap {
        /// The BRK immediate, identifying the upcall.
        imm: u16,
    },
    /// `ERET` executed.
    EretTo {
        /// Destination exception level.
        el: El,
        /// Destination program counter.
        pc: u64,
    },
    /// A synchronous fault was taken to EL1 (vector base installed).
    FaultTaken {
        /// The faulting access.
        fault: MemFault,
    },
    /// An interrupt was taken.
    IrqTaken,
    /// The PC reached [`CALL_SENTINEL`].
    SentinelReturn,
}

/// Unrecoverable simulation errors (no handler installed, or a bug in the
/// simulated program).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CpuError {
    /// Word did not decode (or used a feature the core lacks).
    UndefinedInsn {
        /// The raw word.
        word: u32,
        /// Where it was fetched.
        pc: u64,
    },
    /// A fault occurred with no vector base installed.
    UnhandledFault {
        /// The fault.
        fault: MemFault,
        /// PC of the faulting instruction.
        pc: u64,
    },
    /// [`Cpu::call`] exceeded its step budget.
    TimedOut {
        /// The configured budget.
        steps: u64,
    },
}

impl fmt::Display for CpuError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CpuError::UndefinedInsn { word, pc } => {
                write!(f, "undefined instruction {word:#010x} at {pc:#x}")
            }
            CpuError::UnhandledFault { fault, pc } => {
                write!(f, "unhandled fault at {pc:#x}: {fault}")
            }
            CpuError::TimedOut { steps } => write!(f, "execution exceeded {steps} steps"),
        }
    }
}

impl std::error::Error for CpuError {}

/// Result of a [`Cpu::call`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CallResult {
    /// The callee's `x0` on return.
    pub x0: u64,
    /// Cycles consumed by the call.
    pub cycles: u64,
    /// Instructions retired by the call.
    pub instructions: u64,
}

/// One simulated AArch64 core.
#[derive(Debug, Clone)]
pub struct Cpu {
    /// Architectural state (public: the kernel model manipulates it the way
    /// real kernel entry assembly manipulates real registers).
    pub state: CpuState,
    pub(crate) cost: CostModel,
    pub(crate) features: HwFeatures,
    cycles: u64,
    pub(crate) stats: CpuStats,
    pending_irq: bool,
    /// Top-byte-ignore for user-half pointers (Linux default).
    pub tbi_user: bool,
    /// Direct-mapped decoded-instruction cache, keyed on physical address.
    icache: Vec<Option<IcacheEntry>>,
    icache_enabled: bool,
    /// Direct-mapped translated-block cache, keyed on the physical address
    /// of the block's first instruction (see [`crate::block`]). Boxed so a
    /// probe moves a pointer, not the entry.
    pub(crate) block_cache: Vec<Option<Box<BlockEntry>>>,
    block_engine: bool,
    /// Direct-mapped trace cache (tier 2; see [`crate::trace`]).
    pub(crate) trace_cache: Vec<Option<Box<TraceEntry>>>,
    pub(crate) trace_engine: bool,
    /// The chain recording in flight this call, if a hot block triggered
    /// promotion (finalized into a trace when the call returns).
    pub(crate) trace_recorder: Option<TraceRecorder>,
    /// The PAC functional unit (warm QARMA schedules per key).
    pub(crate) pac_unit: PacUnit,
    /// This core's index within its cluster (0 for a uniprocessor).
    id: usize,
    /// Pending inter-processor interrupts, delivered FIFO.
    ipi_queue: std::collections::VecDeque<IpiKind>,
}

impl Default for Cpu {
    fn default() -> Self {
        Cpu::new(HwFeatures::default())
    }
}

impl Cpu {
    /// Creates a core with the given features and the default cost model.
    pub fn new(features: HwFeatures) -> Self {
        Cpu {
            state: CpuState::new(),
            cost: CostModel::default(),
            features,
            cycles: 0,
            stats: CpuStats::default(),
            pending_irq: false,
            tbi_user: true,
            icache: vec![None; ICACHE_SIZE],
            icache_enabled: true,
            block_cache: vec![None; block::BLOCK_CACHE_SIZE],
            block_engine: true,
            trace_cache: vec![None; trace::TRACE_CACHE_SIZE],
            trace_engine: true,
            trace_recorder: None,
            pac_unit: PacUnit::new(),
            id: 0,
            ipi_queue: std::collections::VecDeque::new(),
        }
    }

    /// Creates core number `id` of a cluster (identical to [`Cpu::new`]
    /// except for the reported identity; cycle behaviour does not depend
    /// on the id).
    pub fn with_id(features: HwFeatures, id: usize) -> Self {
        let mut cpu = Cpu::new(features);
        cpu.id = id;
        cpu
    }

    /// This core's index within its cluster.
    pub fn id(&self) -> usize {
        self.id
    }

    /// Posts an inter-processor interrupt to this core. A non-empty IPI
    /// queue asserts its own interrupt line (distinct from the device IRQ
    /// line [`Cpu::raise_irq`] drives), so a running core observes the IPI
    /// at the next unmasked step boundary exactly like a device interrupt.
    pub fn post_ipi(&mut self, kind: IpiKind) {
        self.ipi_queue.push_back(kind);
        self.stats.ipis += 1;
    }

    /// Drains and returns the pending IPIs, oldest first (the host-side
    /// half of the IPI handler). Acknowledges the IPI line by emptying the
    /// queue; a device interrupt raised via [`Cpu::raise_irq`] stays
    /// pending.
    pub fn take_ipis(&mut self) -> Vec<IpiKind> {
        self.ipi_queue.drain(..).collect()
    }

    /// Number of IPIs queued but not yet taken.
    pub fn pending_ipis(&self) -> usize {
        self.ipi_queue.len()
    }

    /// Acknowledges every pending IPI without returning the payloads —
    /// the allocation-free form of [`Cpu::take_ipis`] for kernel entry
    /// paths that only need the IPI line dropped (the reschedule decision
    /// was already made by the caller and the shootdown invalidation
    /// happened at the initiator). Like [`Cpu::take_ipis`], a device
    /// interrupt raised via [`Cpu::raise_irq`] stays pending.
    pub fn ack_ipis(&mut self) {
        self.ipi_queue.clear();
    }

    /// Enables or disables this core's micro-architectural caches — the
    /// decoded-instruction cache and the PAC unit's warm key schedules.
    ///
    /// Architectural behaviour (register values, faults, cycle counts) is
    /// bit-identical either way; only wall-clock simulation speed changes.
    /// Pair with [`Memory::set_caching`] for a full A/B.
    pub fn set_caching(&mut self, enabled: bool) {
        self.icache_enabled = enabled;
        if !enabled {
            self.icache.fill(None);
        }
        self.pac_unit.set_caching(enabled);
    }

    /// Whether this core's caches are enabled.
    pub fn caching(&self) -> bool {
        self.icache_enabled
    }

    /// Enables or disables the basic-block translation engine (the
    /// [`Cpu::run_block`] fast path; see [`crate::block`]).
    ///
    /// Architectural behaviour — register values, faults, cycle counts,
    /// every [`CpuStats`] counter [`CpuStats::arch_eq`] covers — is
    /// bit-identical either way; only wall-clock simulation speed and the
    /// cache-observability counters change. Orthogonal to
    /// [`Cpu::set_caching`]: the engine keys off the memory system's
    /// generation counter and frame write versions, which are maintained
    /// whether or not the software TLB is on.
    pub fn set_block_engine(&mut self, enabled: bool) {
        self.block_engine = enabled;
        if !enabled {
            self.block_cache.fill(None);
            // The trace tier is nested inside the block path: without
            // tier 1 there is nothing to promote from or dispatch into.
            self.trace_cache.fill(None);
            self.trace_recorder = None;
        }
    }

    /// Whether the block translation engine is enabled.
    pub fn block_engine(&self) -> bool {
        self.block_engine
    }

    /// Enables or disables the trace tier of the translation engine (hot
    /// chains promoted into flattened, guard-checked traces; see
    /// [`crate::trace`]). The tier lives *inside* the block path, so it
    /// only runs while [`Cpu::set_block_engine`] is also on; with blocks
    /// off the knob is inert.
    ///
    /// Same A/B contract as the block engine: architectural behaviour —
    /// register values, faults, cycle counts, every counter
    /// [`CpuStats::arch_eq`] covers — is bit-identical either way; only
    /// wall-clock speed and the cache-observability counters change.
    pub fn set_trace_engine(&mut self, enabled: bool) {
        self.trace_engine = enabled;
        if !enabled {
            self.trace_cache.fill(None);
            self.trace_recorder = None;
        }
    }

    /// Whether the trace tier is enabled.
    pub fn trace_engine(&self) -> bool {
        self.trace_engine
    }

    /// Replaces the cycle-cost model (ablation experiments). Clears the
    /// block and trace caches: cached units carry cycle totals
    /// precomputed under the model they were decoded with.
    pub fn set_cost_model(&mut self, cost: CostModel) {
        self.cost = cost;
        self.block_cache.fill(None);
        self.trace_cache.fill(None);
        self.trace_recorder = None;
    }

    /// The cost model in effect.
    pub fn cost_model(&self) -> &CostModel {
        &self.cost
    }

    /// Hardware features of this core.
    pub fn features(&self) -> HwFeatures {
        self.features
    }

    /// Total consumed cycles.
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Execution counters.
    pub fn stats(&self) -> CpuStats {
        self.stats
    }

    /// Flags a pending interrupt, taken at the next step boundary if
    /// unmasked.
    pub fn raise_irq(&mut self) {
        self.pending_irq = true;
    }

    /// Performs `ERET` semantics without executing an instruction: restores
    /// PSTATE from `SPSR_EL1` and jumps to `ELR_EL1`.
    ///
    /// Host-side exception handlers (the kernel's upcall-based IRQ tick)
    /// use this to resume the interrupted context.
    pub fn return_from_exception(&mut self) {
        let spsr = self.state.sysreg(SysReg::SpsrEl1);
        let elr = self.state.sysreg(SysReg::ElrEl1);
        self.state.restore_spsr(spsr);
        self.state.pc = elr;
    }

    /// The translation context implied by current register state.
    pub fn translation_ctx(&self) -> TranslationCtx {
        TranslationCtx {
            ttbr0: TableId::from_raw(self.state.sysreg(SysReg::Ttbr0El1)),
            ttbr1: TableId::from_raw(self.state.sysreg(SysReg::Ttbr1El1)),
            el: self.state.el,
            tbi_user: self.tbi_user,
        }
    }

    fn charge(&mut self, insn: &Insn) {
        self.cycles += self.cost.cycles(insn);
    }

    pub(crate) fn take_exception(
        &mut self,
        ec: u64,
        iss: u64,
        elr: u64,
        far: Option<u64>,
        irq: bool,
    ) {
        self.stats.exceptions += 1;
        let from_lower = self.state.el == El::El0;
        self.state
            .set_sysreg(SysReg::SpsrEl1, self.state.spsr_bits());
        self.state.set_sysreg(SysReg::ElrEl1, elr);
        self.state
            .set_sysreg(SysReg::EsrEl1, (ec << 26) | (iss & 0x1FF_FFFF));
        if let Some(va) = far {
            self.state.set_sysreg(SysReg::FarEl1, va);
        }
        self.state.el = El::El1;
        self.state.irq_masked = true;
        let offset = match (irq, from_lower) {
            (false, false) => vector::SYNC_SAME_EL,
            (false, true) => vector::SYNC_LOWER_EL,
            (true, false) => vector::IRQ_SAME_EL,
            (true, true) => vector::IRQ_LOWER_EL,
        };
        self.state.pc = self.state.sysreg(SysReg::VbarEl1) + offset;
    }

    pub(crate) fn vectored_fault(
        &mut self,
        fault: MemFault,
        pc: u64,
        is_fetch: bool,
    ) -> Result<Step, CpuError> {
        let vbar = self.state.sysreg(SysReg::VbarEl1);
        if vbar == 0 {
            return Err(CpuError::UnhandledFault { fault, pc });
        }
        let from_lower = self.state.el == El::El0;
        let ec = match (is_fetch, from_lower) {
            (true, true) => ec::INSN_ABORT_LOWER,
            (true, false) => ec::INSN_ABORT_SAME,
            (false, true) => ec::DATA_ABORT_LOWER,
            (false, false) => ec::DATA_ABORT_SAME,
        };
        let far = match fault {
            MemFault::NonCanonical { va }
            | MemFault::Translation { va }
            | MemFault::Permission { va, .. }
            | MemFault::Stage2 { va, .. }
            | MemFault::FetchUnaligned { va } => Some(va),
            MemFault::Unmapped { pa } => Some(pa),
        };
        self.take_exception(ec, 0, pc, far, false);
        Ok(Step::FaultTaken { fault })
    }

    /// Executes one instruction.
    ///
    /// # Errors
    ///
    /// Returns [`CpuError`] when the simulation cannot continue: an
    /// undefined instruction, or a fault with no vector base installed.
    pub fn step(&mut self, mem: &mut Memory) -> Result<Step, CpuError> {
        let result = self.step_inner(mem);
        // Mirror the memory system's TLB counters (see CpuStats::tlb_hits)
        // and the PAC unit's memo counters.
        self.stats.tlb_hits = mem.tlb_hits();
        self.stats.tlb_misses = mem.tlb_misses();
        self.stats.pac_memo_hits = self.pac_unit.memo_hits();
        self.stats.pac_memo_misses = self.pac_unit.memo_misses();
        result
    }

    /// Executes one translated basic block (or, with the engine disabled,
    /// exactly one [`Cpu::step`]).
    ///
    /// Returns the [`Step`] outcome of the *last* instruction the call
    /// retired, which is what run loops dispatch on: a fully straight-line
    /// block reports [`Step::Executed`]; a block ending in `RET` to the
    /// call sentinel reports [`Step::SentinelReturn`] on the *next* call,
    /// exactly like the step path. Architectural state, cycle counts and
    /// every [`CpuStats::arch_eq`] counter evolve bit-identically to
    /// driving the core with [`Cpu::step`]; only wall-clock speed and the
    /// cache-observability counters differ. See [`crate::block`] for the
    /// block shape and invalidation rules.
    ///
    /// # Errors
    ///
    /// Exactly like [`Cpu::step`]: an undefined instruction, or a fault
    /// with no vector base installed.
    pub fn run_block(&mut self, mem: &mut Memory) -> Result<Step, CpuError> {
        if !self.block_engine {
            return self.step(mem);
        }
        let result = self.run_block_inner(mem);
        if let Some(rec) = self.trace_recorder.take() {
            // A hot block triggered promotion this call: build the trace
            // from the recorded chain now that the call is over (the
            // recording sees final PCs; the build re-decodes from the
            // current bytes and stamps the current generation/versions).
            self.finalize_trace(mem, rec);
        }
        // One mirror per block instead of one per instruction — part of
        // the batched-stats contract.
        self.stats.tlb_hits = mem.tlb_hits();
        self.stats.tlb_misses = mem.tlb_misses();
        self.stats.pac_memo_hits = self.pac_unit.memo_hits();
        self.stats.pac_memo_misses = self.pac_unit.memo_misses();
        result
    }

    fn run_block_inner(&mut self, mem: &mut Memory) -> Result<Step, CpuError> {
        if let Some(step) = self.boundary_check() {
            return Ok(step);
        }
        // The translation context cannot change inside this call: the
        // instructions that move it (MSR to a TTBR, ERET, exception entry)
        // either fall back to the step path or end the call.
        let ctx = self.translation_ctx();
        let mut pc = self.state.pc;
        // The hoisted permission walk: one execute-access translation at
        // block entry covers every instruction of every block executed on
        // this page this call, and runs on every call, so revoking execute
        // rights still faults on the very next block entry.
        let mut pa = match mem.fetch_loc(&ctx, pc) {
            Ok(pa) => pa,
            Err(fault) => return self.vectored_fault(fault, pc, true),
        };
        let generation = mem.translation_generation();

        // Cycle / retired-instruction accumulators, folded into the
        // architectural counters exactly once per call (every exit path
        // below flushes them first).
        let mut acc_cycles = 0u64;
        let mut acc_insns = 0u64;
        let mut outcome = Ok(Step::Executed);

        // Same-page chaining: after a block's terminator lands on the same
        // VA page, the entry walk still covers the new target, so the next
        // block starts without another walk. MAX_CHAIN bounds the blocks
        // per call so a spin loop cannot starve the caller's run budget.
        //
        // The (frame, write version) pair is tracked across the chain: it
        // is re-read only when the chain changes frames or an executed
        // store may have moved it, so a hot loop spinning inside one page
        // validates its frame version once per call, not once per block.
        let mut frame = Frame::containing(pa);
        let mut version = mem.phys().frame_version(frame);
        'chain: for _ in 0..block::MAX_CHAIN {
            if self.trace_engine && acc_insns >= trace::TRACE_CALL_INSNS {
                // An internally-looping trace can retire up to the whole
                // per-call bound by itself; stop chaining once the call
                // has retired it, so run-loop budgets keep their
                // documented overshoot bound. Inert for pure tier-1
                // chains (MAX_CHAIN full blocks is exactly this bound).
                break;
            }
            if Frame::containing(pa) != frame {
                frame = Frame::containing(pa);
                version = mem.phys().frame_version(frame);
            }

            // Tier 2 first: a validated trace at this entry executes
            // whole stitched block sequences (and loops internally)
            // without touching the block cache again.
            if self.trace_engine {
                match self.try_trace(mem, &ctx, pc, pa, &mut acc_cycles, &mut acc_insns) {
                    TraceOutcome::NotEntered => {}
                    TraceOutcome::Continued => {
                        // The trace left via a guard with the PC
                        // materialized: chain on exactly like a block
                        // exit (same-page targets reuse the open walk,
                        // cross-page targets take a fresh one).
                        let next = self.state.pc;
                        if !next.is_multiple_of(4) || next == CALL_SENTINEL {
                            break;
                        }
                        if next ^ pc < PAGE_SIZE {
                            pa = (pa & !(PAGE_SIZE - 1)) + next % PAGE_SIZE;
                        } else {
                            match mem.fetch_loc(&ctx, next) {
                                Ok(npa) => pa = npa,
                                Err(fault) => {
                                    self.cycles += acc_cycles;
                                    self.stats.instructions += acc_insns;
                                    return self.vectored_fault(fault, next, true);
                                }
                            }
                        }
                        pc = next;
                        // Unconditional re-read: a store *inside* the
                        // trace may have bumped the current frame's
                        // version without changing frames, and a stale
                        // cached `version` here could revalidate a stale
                        // block.
                        frame = Frame::containing(pa);
                        version = mem.phys().frame_version(frame);
                        self.stats.chain_follows += 1;
                        continue 'chain;
                    }
                    TraceOutcome::Ended(res) => {
                        self.cycles += acc_cycles;
                        self.stats.instructions += acc_insns;
                        return res;
                    }
                }
            }
            let slot = block::block_slot(pa);

            // Probe, taking the entry out of the slot so the executor can
            // borrow the CPU mutably; it is put back before moving on.
            let mut entry = match self.block_cache[slot].take() {
                Some(mut e) if e.pa == pa && e.version == version => {
                    e.hot = e.hot.saturating_add(1);
                    if e.generation != generation {
                        // The translation configuration moved since decode
                        // (map/unmap/set_attr/stage-2 change somewhere in
                        // the system) but this block's bytes did not. The
                        // entry walk above just revalidated the current
                        // PC→PA mapping and its execute permission under
                        // the *new* configuration, so the block is sound:
                        // re-stamp it instead of re-decoding. Without this,
                        // a module-churn or fork-storm tenant (one
                        // generation bump per op) would flush every block
                        // in the machine on every op.
                        e.generation = generation;
                    }
                    self.stats.block_hits += 1;
                    e
                }
                stale => {
                    if matches!(&stale, Some(e) if e.pa == pa) {
                        // Same block, changed bytes (self-modifying code,
                        // module reload into the frame, direct-to-physical
                        // attacker write): discard and re-decode.
                        self.stats.block_invalidations += 1;
                    }
                    self.stats.block_misses += 1;
                    block::decode_block(
                        mem.phys(),
                        pa,
                        generation,
                        version,
                        self.features.pauth,
                        &self.cost,
                    )
                }
            };

            if self.trace_engine
                && entry.hot >= trace::HOT_THRESHOLD
                && !entry.no_trace
                && self.trace_recorder.is_none()
                && (!entry.body.is_empty() || entry.terminator.is_some())
            {
                // This block is hot and no trace covers its entry (a
                // fresh trace at this pa/pc would have run above): record
                // the chain it heads for the rest of this call. Resetting
                // the counter spaces out rebuilds when the installed
                // trace keeps getting displaced (slot aliasing).
                entry.hot = 0;
                self.trace_recorder = Some(TraceRecorder::new());
            }

            if entry.body.is_empty() && entry.terminator.is_none() {
                // The instruction at the entry needs one-step treatment.
                // Flush the accumulators first: the step semantics may
                // read the live cycle counter (`MRS CNTVCT_EL0`).
                let fallback = entry.fallback;
                self.block_cache[slot] = Some(entry);
                self.cycles += acc_cycles;
                self.stats.instructions += acc_insns;
                return match fallback {
                    // Cached decode: the entry walk already validated the
                    // fetch, so execute directly (SVC/BRK/ERET/MSR/MRS,
                    // pre-v8.3 PAuth forms).
                    Some(insn) => self.exec_decoded(mem, insn, pc, &ctx),
                    // Undecodable word: the step path raises the
                    // architectural error with the raw word.
                    None => self.fetch_exec(mem, pc),
                };
            }

            let body_len = entry.body.len();
            let mut executed = body_len;
            let mut store_abort = false;
            let mut abort: Option<Result<Step, CpuError>> = None;
            // Set when the block retired whole and its own SVC/BRK/ERET
            // terminator is what ends the call.
            let mut term_ended = false;
            for (i, insn) in entry.body.iter().enumerate() {
                let insn_pc = self.state.pc;
                match self.execute(mem, *insn, insn_pc, &ctx) {
                    Ok(Step::Executed) => {
                        if block::is_store(insn) {
                            let now = mem.phys().frame_version(frame);
                            if now != version {
                                // The store landed in the block's own code
                                // frame: the remaining decoded instructions
                                // may be stale. Stop the block here; the
                                // chain re-probes at the next PC with the
                                // fresh version, re-decoding the modified
                                // bytes exactly like the step path's next
                                // fetch.
                                version = now;
                                executed = i + 1;
                                store_abort = true;
                                break;
                            }
                        }
                    }
                    other => {
                        // A data abort vectored (or was unhandled): the
                        // call ends with the step outcome of the faulting
                        // instruction (which the step path charges too).
                        executed = i + 1;
                        abort = Some(other);
                        break;
                    }
                }
            }
            if executed == body_len && !store_abort && abort.is_none() {
                // The common case: the whole block retired. Charge the
                // precomputed total (body + terminator) in one addition.
                if let Some(term) = entry.terminator {
                    let insn_pc = self.state.pc;
                    match self.execute(mem, term, insn_pc, &ctx) {
                        Ok(Step::Executed) => {}
                        other => {
                            term_ended = true;
                            abort = Some(other);
                        }
                    }
                    acc_insns += 1;
                }
                acc_cycles += entry.cycles;
                acc_insns += body_len as u64;
            } else {
                // Rare partial execution: charge exactly the prefix the
                // step path would have charged.
                acc_cycles += entry.body[..executed]
                    .iter()
                    .map(|i| self.cost.cycles(i))
                    .sum::<u64>();
                acc_insns += executed as u64;
            }
            let has_term = entry.terminator.is_some();
            self.block_cache[slot] = Some(entry);
            if let Some(rec) = self.trace_recorder.as_mut() {
                if (abort.is_none() || term_ended) && !store_abort {
                    // Cleanly-retired block: extend the recording with
                    // the chain edge just observed. A block closed by the
                    // SVC/BRK/ERET that ended the call is kept too: its
                    // terminator runs through the step semantics inside
                    // the trace and ends the call there exactly as here,
                    // so kernel entry and exit finish inside their traces.
                    rec.record(pa, pc, has_term, self.state.pc);
                }
                if abort.is_some() || store_abort {
                    // Fault, upcall or self-modifying store — nothing
                    // after it can join this trace. Keep the prefix.
                    rec.finish();
                }
            }
            if let Some(out) = abort {
                outcome = out;
                break 'chain;
            }

            // Chain on. A same-page target is still covered by the walk
            // that opened this page; a cross-page target takes a fresh
            // permission walk right here (the step path walks per
            // *instruction*, so a walk per page crossing preserves every
            // fault and revocation point). Unaligned targets and the call
            // sentinel end the call; the next call raises the fault or
            // reports the return.
            let next = self.state.pc;
            if !next.is_multiple_of(4) || next == CALL_SENTINEL {
                break;
            }
            if next ^ pc < PAGE_SIZE {
                pa = (pa & !(PAGE_SIZE - 1)) + next % PAGE_SIZE;
            } else {
                match mem.fetch_loc(&ctx, next) {
                    Ok(npa) => pa = npa,
                    Err(fault) => {
                        self.cycles += acc_cycles;
                        self.stats.instructions += acc_insns;
                        return self.vectored_fault(fault, next, true);
                    }
                }
            }
            pc = next;
            self.stats.chain_follows += 1;
        }
        self.cycles += acc_cycles;
        self.stats.instructions += acc_insns;
        outcome
    }

    /// Fetches and decodes the instruction at `pc`, through the decoded-
    /// instruction cache when enabled.
    ///
    /// The permission walk (`fetch_loc`) runs on **every** step — a TLB hit
    /// makes it cheap, but revoking execute rights (stage-1 `set_attr`,
    /// stage-2 sealing) faults on the very next fetch even for a cached
    /// instruction. The decoded entry is keyed on the physical address and
    /// validated against the frame's write version, so any store into the
    /// page — translated or direct-to-physical — forces a fresh decode.
    fn fetch_decode(&mut self, mem: &Memory, ctx: &TranslationCtx, pc: u64) -> FetchResult {
        let pa = match mem.fetch_loc(ctx, pc) {
            Ok(pa) => pa,
            Err(fault) => return FetchResult::Fault(fault),
        };
        if !self.icache_enabled {
            let word = match mem.phys().read_u32(pa) {
                Some(word) => word,
                None => return FetchResult::Fault(MemFault::Unmapped { pa }),
            };
            return match decode(word) {
                Some(insn) => FetchResult::Insn(insn),
                None => FetchResult::Undefined(word),
            };
        }
        let version = mem.phys().frame_version(Frame::containing(pa));
        let slot = icache_slot(pa);
        if let Some(entry) = self.icache[slot] {
            if entry.pa == pa && entry.version == version {
                self.stats.icache_hits += 1;
                return FetchResult::Insn(entry.insn);
            }
        }
        self.stats.icache_misses += 1;
        let word = match mem.phys().read_u32(pa) {
            Some(word) => word,
            None => return FetchResult::Fault(MemFault::Unmapped { pa }),
        };
        match decode(word) {
            Some(insn) => {
                self.icache[slot] = Some(IcacheEntry { pa, version, insn });
                FetchResult::Insn(insn)
            }
            None => FetchResult::Undefined(word),
        }
    }

    /// The step-boundary preamble shared by [`Cpu::step`] and
    /// [`Cpu::run_block`]: the sentinel check and the interrupt sample.
    /// Returns `Some` when the boundary itself produced the step outcome.
    fn boundary_check(&mut self) -> Option<Step> {
        if self.state.pc == CALL_SENTINEL {
            return Some(Step::SentinelReturn);
        }
        if (self.pending_irq || !self.ipi_queue.is_empty()) && !self.state.irq_masked {
            // Taking the exception clears the device line; the IPI line
            // stays asserted until the handler drains the queue, but the
            // vectored handler runs with IRQs masked, so there is no storm.
            self.pending_irq = false;
            let pc = self.state.pc;
            self.take_exception(0, 0, pc, None, true);
            return Some(Step::IrqTaken);
        }
        None
    }

    fn step_inner(&mut self, mem: &mut Memory) -> Result<Step, CpuError> {
        if let Some(step) = self.boundary_check() {
            return Ok(step);
        }
        let pc = self.state.pc;
        self.fetch_exec(mem, pc)
    }

    /// The per-instruction path after the boundary checks: fetch, decode,
    /// feature-gate, charge, execute. Used by [`Cpu::step`] for every
    /// instruction and by [`Cpu::run_block`] for the instructions a block
    /// cannot contain (`SVC`, `BRK`, `ERET`, `MSR`/`MRS`, undefined
    /// words, pre-v8.3 PAuth forms).
    fn fetch_exec(&mut self, mem: &mut Memory, pc: u64) -> Result<Step, CpuError> {
        let ctx = self.translation_ctx();
        let insn = match self.fetch_decode(mem, &ctx, pc) {
            FetchResult::Insn(insn) => insn,
            FetchResult::Fault(fault) => return self.vectored_fault(fault, pc, true),
            FetchResult::Undefined(word) => return Err(CpuError::UndefinedInsn { word, pc }),
        };
        self.exec_decoded(mem, insn, pc, &ctx)
    }

    /// Single-instruction step semantics for an already-decoded `insn` at
    /// `pc`: the §5.5 feature gate, the cycle charge, and the execute.
    /// Shared by the step path (after its fetch) and the block engine's
    /// cached-fallback path (which already validated the fetch at block
    /// entry).
    fn exec_decoded(
        &mut self,
        mem: &mut Memory,
        insn: Insn,
        pc: u64,
        ctx: &TranslationCtx,
    ) -> Result<Step, CpuError> {
        // Feature gating (§5.5): without PAuth, hint-space forms are NOPs
        // and the 8.3-only encodings are UNDEFINED.
        if !self.features.pauth && insn.is_pauth() {
            match insn {
                Insn::PacSp { .. }
                | Insn::AutSp { .. }
                | Insn::Pac1716 { .. }
                | Insn::Aut1716 { .. } => {
                    self.cycles += self.cost.nop;
                    self.stats.instructions += 1;
                    self.state.pc = pc + 4;
                    return Ok(Step::Executed);
                }
                _ => {
                    return Err(CpuError::UndefinedInsn {
                        word: camo_isa::encode(&insn),
                        pc,
                    })
                }
            }
        }

        self.charge(&insn);
        self.stats.instructions += 1;
        self.execute(mem, insn, pc, ctx)
    }

    pub(crate) fn key_for(&self, key: PacKey) -> camo_qarma::QarmaKey {
        self.state.pauth_key(key.to_pauth_key())
    }

    fn do_pac(&mut self, key: PacKey, rd: Reg, modifier: u64) {
        if !self.state.key_enabled(key.to_pauth_key()) {
            return; // architecturally a NOP when the key is disabled
        }
        let value = self.state.read(rd);
        let qkey = self.key_for(key);
        let signed = self.pac_unit.add_pac(value, modifier, qkey, self.tbi_user);
        self.state.write(rd, signed);
        self.stats.pac_signs += 1;
    }

    fn do_aut(&mut self, key: PacKey, rd: Reg, modifier: u64) -> u64 {
        let value = self.state.read(rd);
        if !self.state.key_enabled(key.to_pauth_key()) {
            return value;
        }
        let qkey = self.key_for(key);
        let out = match self
            .pac_unit
            .auth_pac(value, modifier, qkey, class_of(key), self.tbi_user)
        {
            Ok(stripped) => {
                self.stats.pac_auth_ok += 1;
                stripped
            }
            Err(corrupted) => {
                self.stats.pac_auth_fail += 1;
                match class_of(key) {
                    KeyClass::Instruction => self.stats.pac_auth_fail_instr += 1,
                    KeyClass::Data => self.stats.pac_auth_fail_data += 1,
                }
                corrupted
            }
        };
        self.state.write(rd, out);
        out
    }

    pub(crate) fn addr_single(&mut self, rn: Reg, mode: AddrMode) -> u64 {
        let base = self.state.read(rn);
        match mode {
            AddrMode::Unsigned(imm) => base.wrapping_add(u64::from(imm)),
            AddrMode::Post(imm) => {
                self.state.write(rn, base.wrapping_add(imm as i64 as u64));
                base
            }
            AddrMode::Pre(imm) => {
                let addr = base.wrapping_add(imm as i64 as u64);
                self.state.write(rn, addr);
                addr
            }
        }
    }

    pub(crate) fn addr_pair(&mut self, rn: Reg, mode: PairMode) -> u64 {
        let base = self.state.read(rn);
        match mode {
            PairMode::SignedOffset(imm) => base.wrapping_add(imm as i64 as u64),
            PairMode::Post(imm) => {
                self.state.write(rn, base.wrapping_add(imm as i64 as u64));
                base
            }
            PairMode::Pre(imm) => {
                let addr = base.wrapping_add(imm as i64 as u64);
                self.state.write(rn, addr);
                addr
            }
        }
    }

    /// Executes one decoded instruction. `ctx` is the translation context
    /// the instruction was fetched under (nothing can change it between
    /// fetch and execute within one step).
    pub(crate) fn execute(
        &mut self,
        mem: &mut Memory,
        insn: Insn,
        pc: u64,
        ctx: &TranslationCtx,
    ) -> Result<Step, CpuError> {
        let mut next_pc = pc + 4;

        macro_rules! mem_try {
            ($e:expr) => {
                match $e {
                    Ok(v) => v,
                    Err(fault) => return self.vectored_fault(fault, pc, false),
                }
            };
        }

        match insn {
            Insn::Movz { rd, imm16, shift } => {
                self.state.write(rd, u64::from(imm16) << (16 * shift));
            }
            Insn::Movn { rd, imm16, shift } => {
                self.state.write(rd, !(u64::from(imm16) << (16 * shift)));
            }
            Insn::Movk { rd, imm16, shift } => {
                let old = self.state.read(rd);
                let mask = 0xFFFFu64 << (16 * shift);
                self.state
                    .write(rd, (old & !mask) | (u64::from(imm16) << (16 * shift)));
            }
            Insn::AddImm {
                rd,
                rn,
                imm12,
                shifted,
            } => {
                let imm = if shifted {
                    u64::from(imm12) << 12
                } else {
                    u64::from(imm12)
                };
                let v = self.state.read(rn).wrapping_add(imm);
                self.state.write(rd, v);
            }
            Insn::SubImm {
                rd,
                rn,
                imm12,
                shifted,
            } => {
                let imm = if shifted {
                    u64::from(imm12) << 12
                } else {
                    u64::from(imm12)
                };
                let v = self.state.read(rn).wrapping_sub(imm);
                self.state.write(rd, v);
            }
            Insn::AddReg { rd, rn, rm } => {
                let v = self.state.read(rn).wrapping_add(self.state.read(rm));
                self.state.write(rd, v);
            }
            Insn::SubReg { rd, rn, rm } => {
                let v = self.state.read(rn).wrapping_sub(self.state.read(rm));
                self.state.write(rd, v);
            }
            Insn::AndReg { rd, rn, rm } => {
                let v = self.state.read(rn) & self.state.read(rm);
                self.state.write(rd, v);
            }
            Insn::OrrReg { rd, rn, rm } => {
                let v = self.state.read(rn) | self.state.read(rm);
                self.state.write(rd, v);
            }
            Insn::EorReg { rd, rn, rm } => {
                let v = self.state.read(rn) ^ self.state.read(rm);
                self.state.write(rd, v);
            }
            Insn::Bfm { rd, rn, immr, imms } => {
                // BFI/BFXIL semantics (64-bit BFM with N=1).
                let src = self.state.read(rn);
                let dst = self.state.read(rd);
                let r = u32::from(immr);
                let s = u32::from(imms);
                let result = if s >= r {
                    // BFXIL: extract s-r+1 bits at position r into low bits.
                    let width = s - r + 1;
                    let mask = mask_lo(width);
                    let field = (src >> r) & mask;
                    (dst & !mask) | field
                } else {
                    // BFI: insert s+1 low bits of src at position 64-r.
                    let width = s + 1;
                    let lsb = 64 - r;
                    let mask = mask_lo(width) << lsb;
                    (dst & !mask) | ((src << lsb) & mask)
                };
                self.state.write(rd, result);
            }
            Insn::Ubfm { rd, rn, immr, imms } => {
                let src = self.state.read(rn);
                let r = u32::from(immr);
                let s = u32::from(imms);
                let result = if s >= r {
                    // LSR/UBFX: bits s:r moved to the bottom.
                    (src >> r) & mask_lo(s - r + 1)
                } else {
                    // LSL/UBFIZ: s+1 low bits shifted up to 64-r.
                    (src & mask_lo(s + 1)) << (64 - r)
                };
                self.state.write(rd, result);
            }
            Insn::Adr { rd, offset } => {
                self.state.write(rd, pc.wrapping_add(offset as i64 as u64));
            }
            Insn::Ldr { rt, rn, mode } => {
                let addr = self.addr_single(rn, mode);
                let v = mem_try!(mem.read_u64(ctx, addr));
                self.state.write(rt, v);
            }
            Insn::Str { rt, rn, mode } => {
                let addr = self.addr_single(rn, mode);
                let v = self.state.read(rt);
                mem_try!(mem.write_u64(ctx, addr, v));
            }
            Insn::Ldp { rt, rt2, rn, mode } => {
                let addr = self.addr_pair(rn, mode);
                let v1 = mem_try!(mem.read_u64(ctx, addr));
                let v2 = mem_try!(mem.read_u64(ctx, addr + 8));
                self.state.write(rt, v1);
                self.state.write(rt2, v2);
            }
            Insn::Stp { rt, rt2, rn, mode } => {
                let addr = self.addr_pair(rn, mode);
                let v1 = self.state.read(rt);
                let v2 = self.state.read(rt2);
                mem_try!(mem.write_u64(ctx, addr, v1));
                mem_try!(mem.write_u64(ctx, addr + 8, v2));
            }
            Insn::B { offset } => next_pc = pc.wrapping_add(offset as i64 as u64),
            Insn::Bl { offset } => {
                self.state.write(Reg::LR, pc + 4);
                next_pc = pc.wrapping_add(offset as i64 as u64);
            }
            Insn::Br { rn } => next_pc = self.state.read(rn),
            Insn::Blr { rn } => {
                next_pc = self.state.read(rn);
                self.state.write(Reg::LR, pc + 4);
            }
            Insn::Ret { rn } => next_pc = self.state.read(rn),
            Insn::Cbz { rt, offset } => {
                if self.state.read(rt) == 0 {
                    next_pc = pc.wrapping_add(offset as i64 as u64);
                }
            }
            Insn::Cbnz { rt, offset } => {
                if self.state.read(rt) != 0 {
                    next_pc = pc.wrapping_add(offset as i64 as u64);
                }
            }
            Insn::Svc { imm } => {
                if self.state.sysreg(SysReg::VbarEl1) != 0 {
                    self.take_exception(ec::SVC64, u64::from(imm), pc + 4, None, false);
                } else {
                    // Harness mode: surface the event without vectoring.
                    self.state.pc = pc + 4;
                }
                return Ok(Step::SvcTaken { imm });
            }
            Insn::Brk { imm } => {
                // Kernel-upcall boundary: return to the harness, PC past the
                // BRK so execution resumes seamlessly.
                self.state.pc = pc + 4;
                return Ok(Step::BrkTrap { imm });
            }
            Insn::Eret => {
                let spsr = self.state.sysreg(SysReg::SpsrEl1);
                let elr = self.state.sysreg(SysReg::ElrEl1);
                self.state.restore_spsr(spsr);
                self.state.pc = elr;
                return Ok(Step::EretTo {
                    el: self.state.el,
                    pc: elr,
                });
            }
            Insn::Msr { sr, rt } => {
                if self.state.el != El::El1 && sr != SysReg::CntvctEl0 {
                    self.take_exception(ec::TRAPPED_MSR, 0, pc, None, false);
                    return Ok(Step::FaultTaken {
                        fault: MemFault::Permission {
                            va: pc,
                            access: camo_mem::AccessType::Write,
                            el: El::El0,
                        },
                    });
                }
                if sr.is_pauth_key() {
                    self.stats.key_writes += 1;
                }
                let v = self.state.read(rt);
                self.state.set_sysreg(sr, v);
            }
            Insn::Mrs { rt, sr } => {
                if self.state.el != El::El1 && sr != SysReg::CntvctEl0 {
                    self.take_exception(ec::TRAPPED_MSR, 0, pc, None, false);
                    return Ok(Step::FaultTaken {
                        fault: MemFault::Permission {
                            va: pc,
                            access: camo_mem::AccessType::Read,
                            el: El::El0,
                        },
                    });
                }
                let v = if sr == SysReg::CntvctEl0 {
                    self.cycles
                } else {
                    self.state.sysreg(sr)
                };
                self.state.write(rt, v);
            }
            Insn::Pac { key, rd, rn } => {
                let modifier = self.state.read(rn);
                self.do_pac(key, rd, modifier);
            }
            Insn::Aut { key, rd, rn } => {
                let modifier = self.state.read(rn);
                self.do_aut(key, rd, modifier);
            }
            Insn::PacSp { key } => {
                let modifier = self.state.sp();
                self.do_pac(to_pac_key(key), Reg::LR, modifier);
            }
            Insn::AutSp { key } => {
                let modifier = self.state.sp();
                self.do_aut(to_pac_key(key), Reg::LR, modifier);
            }
            Insn::Pac1716 { key } => {
                let modifier = self.state.read(Reg::IP0);
                self.do_pac(to_pac_key(key), Reg::IP1, modifier);
            }
            Insn::Aut1716 { key } => {
                let modifier = self.state.read(Reg::IP0);
                self.do_aut(to_pac_key(key), Reg::IP1, modifier);
            }
            Insn::Xpaci { rd } | Insn::Xpacd { rd } => {
                let v = strip_pac(self.state.read(rd), self.tbi_user);
                self.state.write(rd, v);
            }
            Insn::Pacga { rd, rn, rm } => {
                let key = self.state.pauth_key(camo_isa::PauthKey::GA);
                let mac = self
                    .pac_unit
                    .mac(self.state.read(rn), self.state.read(rm), key);
                self.state.write(rd, u64::from(mac) << 32);
                self.stats.pac_signs += 1;
            }
            Insn::Reta { key } => {
                let modifier = self.state.sp();
                next_pc = self.do_aut(to_pac_key(key), Reg::LR, modifier);
            }
            Insn::Blra { key, rn, rm } => {
                let modifier = self.state.read(rm);
                next_pc = self.do_aut(to_pac_key(key), rn, modifier);
                self.state.write(Reg::LR, pc + 4);
            }
            Insn::Bra { key, rn, rm } => {
                let modifier = self.state.read(rm);
                next_pc = self.do_aut(to_pac_key(key), rn, modifier);
            }
            Insn::Nop => {}
        }

        self.state.pc = next_pc;
        Ok(Step::Executed)
    }

    /// Calls a function at `fn_va` with up to eight `args`, running until it
    /// returns (LR sentinel reached).
    ///
    /// Drives the core through [`Cpu::run_block`], so an enabled block
    /// engine (the default) accelerates the call; `max_steps` bounds
    /// engine invocations, so it remains an upper bound on retired
    /// instructions only with the engine disabled.
    ///
    /// # Errors
    ///
    /// Propagates [`CpuError`]; returns [`CpuError::TimedOut`] after
    /// `max_steps`.
    pub fn call(
        &mut self,
        mem: &mut Memory,
        fn_va: u64,
        args: &[u64],
        max_steps: u64,
    ) -> Result<CallResult, CpuError> {
        assert!(args.len() <= 8, "at most eight register arguments");
        for (i, &arg) in args.iter().enumerate() {
            self.state.gprs[i] = arg;
        }
        self.state.write(Reg::LR, CALL_SENTINEL);
        self.state.pc = fn_va;
        let start_cycles = self.cycles;
        let start_insns = self.stats.instructions;
        for _ in 0..max_steps {
            match self.run_block(mem)? {
                Step::SentinelReturn => {
                    return Ok(CallResult {
                        x0: self.state.gprs[0],
                        cycles: self.cycles - start_cycles,
                        instructions: self.stats.instructions - start_insns,
                    })
                }
                _ => continue,
            }
        }
        Err(CpuError::TimedOut { steps: max_steps })
    }
}

pub(crate) fn to_pac_key(key: InsnKey) -> PacKey {
    match key {
        InsnKey::A => PacKey::IA,
        InsnKey::B => PacKey::IB,
    }
}

pub(crate) fn class_of(key: PacKey) -> KeyClass {
    match key {
        PacKey::IA | PacKey::IB => KeyClass::Instruction,
        PacKey::DA | PacKey::DB => KeyClass::Data,
    }
}

pub(crate) fn mask_lo(bits: u32) -> u64 {
    if bits >= 64 {
        u64::MAX
    } else {
        (1u64 << bits) - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use camo_isa::{encode, Assembler};
    use camo_mem::{S1Attr, KERNEL_BASE};

    /// Loads `insns` at KERNEL_BASE with a data page above it, returns
    /// (cpu, mem) ready to run at EL1.
    fn machine(insns: &[Insn]) -> (Cpu, Memory) {
        let mut mem = Memory::new();
        let table = mem.new_table();
        let text = mem.map_new(table, KERNEL_BASE, S1Attr::kernel_text());
        mem.map_new(table, KERNEL_BASE + 0x1000, S1Attr::kernel_data());
        for (i, insn) in insns.iter().enumerate() {
            mem.phys_mut()
                .write_u32(text.base() + 4 * i as u64, encode(insn))
                .unwrap();
        }
        let mut cpu = Cpu::default();
        cpu.state.pc = KERNEL_BASE;
        cpu.state
            .set_sysreg(SysReg::Ttbr0El1, TableId::from_raw(table.raw()).raw());
        cpu.state.set_sysreg(SysReg::Ttbr1El1, table.raw());
        cpu.state.sp_el1 = KERNEL_BASE + 0x2000; // top of the data page
        (cpu, mem)
    }

    fn run(cpu: &mut Cpu, mem: &mut Memory, steps: usize) {
        for _ in 0..steps {
            cpu.step(mem).expect("step failed");
        }
    }

    #[test]
    fn movz_movk_builds_constant() {
        let (mut cpu, mut mem) = machine(&[
            Insn::Movz {
                rd: Reg::x(0),
                imm16: 0x1111,
                shift: 0,
            },
            Insn::Movk {
                rd: Reg::x(0),
                imm16: 0x2222,
                shift: 1,
            },
            Insn::Movk {
                rd: Reg::x(0),
                imm16: 0x3333,
                shift: 2,
            },
            Insn::Movk {
                rd: Reg::x(0),
                imm16: 0x4444,
                shift: 3,
            },
        ]);
        run(&mut cpu, &mut mem, 4);
        assert_eq!(cpu.state.gprs[0], 0x4444_3333_2222_1111);
    }

    #[test]
    fn movewide_costs_one_cycle_each() {
        let (mut cpu, mut mem) = machine(&[
            Insn::Movz {
                rd: Reg::x(0),
                imm16: 1,
                shift: 0,
            },
            Insn::Movk {
                rd: Reg::x(0),
                imm16: 2,
                shift: 1,
            },
            Insn::Movk {
                rd: Reg::x(0),
                imm16: 3,
                shift: 2,
            },
            Insn::Movk {
                rd: Reg::x(0),
                imm16: 4,
                shift: 3,
            },
        ]);
        run(&mut cpu, &mut mem, 4);
        assert_eq!(cpu.cycles(), 4);
    }

    #[test]
    fn bfi_merges_sp_into_modifier() {
        // The Listing 3 modifier: x16 = fn address, x17 = SP, bfi x16, x17, #32, #32.
        let (mut cpu, mut mem) = machine(&[Insn::bfi(Reg::IP0, Reg::IP1, 32, 32)]);
        cpu.state.gprs[16] = 0xffff_0000_1234_5678;
        cpu.state.gprs[17] = 0xffff_8000_9abc_def0;
        run(&mut cpu, &mut mem, 1);
        assert_eq!(cpu.state.gprs[16], 0x9abc_def0_1234_5678);
    }

    #[test]
    fn ubfm_lsl_lsr() {
        let (mut cpu, mut mem) = machine(&[
            Insn::lsl(Reg::x(1), Reg::x(0), 16),
            Insn::lsr(Reg::x(2), Reg::x(0), 48),
        ]);
        cpu.state.gprs[0] = 0xABCD_0000_0000_4321;
        run(&mut cpu, &mut mem, 2);
        assert_eq!(cpu.state.gprs[1], 0x0000_0000_4321_0000);
        assert_eq!(cpu.state.gprs[2], 0xABCD);
    }

    #[test]
    fn frame_record_push_pop() {
        let (mut cpu, mut mem) = machine(&[
            Insn::Stp {
                rt: Reg::FP,
                rt2: Reg::LR,
                rn: Reg::Sp,
                mode: PairMode::Pre(-16),
            },
            Insn::Ldp {
                rt: Reg::x(0),
                rt2: Reg::x(1),
                rn: Reg::Sp,
                mode: PairMode::Post(16),
            },
        ]);
        let sp0 = cpu.state.sp();
        cpu.state.gprs[29] = 0x2900;
        cpu.state.gprs[30] = 0x3000;
        run(&mut cpu, &mut mem, 2);
        assert_eq!(cpu.state.gprs[0], 0x2900);
        assert_eq!(cpu.state.gprs[1], 0x3000);
        assert_eq!(cpu.state.sp(), sp0, "SP restored after pop");
    }

    #[test]
    fn pac_aut_roundtrip_on_core() {
        let (mut cpu, mut mem) = machine(&[
            Insn::Pac {
                key: PacKey::IB,
                rd: Reg::x(0),
                rn: Reg::x(1),
            },
            Insn::Aut {
                key: PacKey::IB,
                rd: Reg::x(0),
                rn: Reg::x(1),
            },
        ]);
        cpu.state
            .set_pauth_key(camo_isa::PauthKey::IB, camo_qarma::QarmaKey::new(7, 9));
        let ptr = KERNEL_BASE + 0x123;
        cpu.state.gprs[0] = ptr;
        cpu.state.gprs[1] = 0x42;
        run(&mut cpu, &mut mem, 1);
        assert_ne!(cpu.state.gprs[0], ptr, "pointer is signed");
        run(&mut cpu, &mut mem, 1);
        assert_eq!(cpu.state.gprs[0], ptr, "authentication strips the PAC");
        assert_eq!(cpu.stats().pac_signs, 1);
        assert_eq!(cpu.stats().pac_auth_ok, 1);
    }

    #[test]
    fn aut_failure_corrupts_pointer() {
        let (mut cpu, mut mem) = machine(&[Insn::Aut {
            key: PacKey::DB,
            rd: Reg::x(0),
            rn: Reg::x(1),
        }]);
        cpu.state
            .set_pauth_key(camo_isa::PauthKey::DB, camo_qarma::QarmaKey::new(7, 9));
        cpu.state.gprs[0] = KERNEL_BASE + 0x123; // unsigned, forged
        cpu.state.gprs[1] = 0x42;
        run(&mut cpu, &mut mem, 1);
        assert_eq!(cpu.stats().pac_auth_fail, 1);
        assert!(crate::pac::looks_like_pac_failure(cpu.state.gprs[0], true));
    }

    #[test]
    fn disabled_key_makes_pac_a_nop() {
        use camo_isa::sysreg::sctlr;
        let (mut cpu, mut mem) = machine(&[Insn::Pac {
            key: PacKey::IB,
            rd: Reg::x(0),
            rn: Reg::x(1),
        }]);
        cpu.state
            .set_sysreg(SysReg::SctlrEl1, sctlr::EN_ALL & !sctlr::EN_IB);
        cpu.state.gprs[0] = KERNEL_BASE;
        run(&mut cpu, &mut mem, 1);
        assert_eq!(cpu.state.gprs[0], KERNEL_BASE, "no PAC inserted");
        assert_eq!(cpu.stats().pac_signs, 0);
    }

    #[test]
    fn pre_v83_core_nops_hint_forms_and_rejects_reg_forms() {
        let insns = [
            Insn::Pac1716 { key: InsnKey::B },
            Insn::Pac {
                key: PacKey::IB,
                rd: Reg::x(0),
                rn: Reg::x(1),
            },
        ];
        let (mut cpu, mut mem) = machine(&insns);
        cpu.features.pauth = false;
        cpu.state.gprs[17] = KERNEL_BASE;
        assert_eq!(cpu.step(&mut mem), Ok(Step::Executed));
        assert_eq!(cpu.state.gprs[17], KERNEL_BASE, "1716 form is a NOP");
        let err = cpu.step(&mut mem).unwrap_err();
        assert!(matches!(err, CpuError::UndefinedInsn { .. }));
    }

    #[test]
    fn brk_is_an_upcall() {
        let (mut cpu, mut mem) = machine(&[Insn::Brk { imm: 0x77 }, Insn::Nop]);
        assert_eq!(cpu.step(&mut mem), Ok(Step::BrkTrap { imm: 0x77 }));
        assert_eq!(cpu.state.pc, KERNEL_BASE + 4, "resumes after the BRK");
    }

    #[test]
    fn call_helper_runs_to_sentinel() {
        let mut asm = Assembler::new();
        asm.push(Insn::AddImm {
            rd: Reg::x(0),
            rn: Reg::x(0),
            imm12: 5,
            shifted: false,
        });
        asm.push(Insn::ret());
        let block = asm.finish(KERNEL_BASE);
        let (mut cpu, mut mem) = machine(&[]);
        let ctx = cpu.translation_ctx();
        mem.write_bytes(&ctx, KERNEL_BASE, &block.to_bytes())
            .unwrap_err(); // text page is not writable through the MMU...
        for (i, w) in block.to_words().iter().enumerate() {
            let pa = mem
                .translate(
                    &ctx,
                    KERNEL_BASE + 4 * i as u64,
                    camo_mem::AccessType::Execute,
                )
                .unwrap();
            mem.phys_mut().write_u32(pa, *w).unwrap();
        }
        let result = cpu.call(&mut mem, KERNEL_BASE, &[37], 100).unwrap();
        assert_eq!(result.x0, 42);
        assert!(result.cycles > 0);
    }

    #[test]
    fn mrs_from_el0_faults() {
        let (mut cpu, mut mem) = machine(&[Insn::Mrs {
            rt: Reg::x(0),
            sr: SysReg::ApibKeyLoEl1,
        }]);
        // Make the page EL0-executable and drop to EL0.
        mem.set_attr(
            TableId::from_raw(cpu.state.sysreg(SysReg::Ttbr0El1)),
            KERNEL_BASE,
            S1Attr {
                el0_read: true,
                el0_write: false,
                el0_exec: true,
                el1_write: false,
                el1_exec: true,
            },
        );
        cpu.state.el = El::El0;
        cpu.state.set_sysreg(SysReg::VbarEl1, KERNEL_BASE + 0x8000);
        let step = cpu.step(&mut mem).unwrap();
        assert!(matches!(step, Step::FaultTaken { .. }));
        assert_eq!(cpu.state.el, El::El1, "vectored to EL1");
        assert_eq!(
            cpu.state.sysreg(SysReg::EsrEl1) >> 26,
            ec::TRAPPED_MSR,
            "syndrome identifies a trapped MSR/MRS"
        );
    }

    #[test]
    fn svc_vectors_to_el1_entry() {
        let (mut cpu, mut mem) = machine(&[Insn::Svc { imm: 7 }]);
        cpu.state.set_sysreg(SysReg::VbarEl1, KERNEL_BASE + 0x8000);
        cpu.state.el = El::El0;
        // EL0 needs an executable mapping: reuse the text page.
        mem.set_attr(
            TableId::from_raw(cpu.state.sysreg(SysReg::Ttbr0El1)),
            KERNEL_BASE,
            S1Attr {
                el0_read: true,
                el0_write: false,
                el0_exec: true,
                el1_write: false,
                el1_exec: true,
            },
        );
        let step = cpu.step(&mut mem).unwrap();
        assert_eq!(step, Step::SvcTaken { imm: 7 });
        assert_eq!(cpu.state.el, El::El1);
        assert_eq!(
            cpu.state.pc,
            KERNEL_BASE + 0x8000 + vector::SYNC_LOWER_EL,
            "lower-EL sync vector"
        );
        assert_eq!(cpu.state.sysreg(SysReg::ElrEl1), KERNEL_BASE + 4);
        assert_eq!(cpu.state.sysreg(SysReg::EsrEl1) >> 26, ec::SVC64);
    }

    #[test]
    fn eret_returns_to_saved_context() {
        let (mut cpu, mut mem) = machine(&[Insn::Eret]);
        cpu.state.set_sysreg(SysReg::ElrEl1, KERNEL_BASE + 0x100);
        cpu.state.set_sysreg(SysReg::SpsrEl1, 0); // EL0, IRQs unmasked
        let step = cpu.step(&mut mem).unwrap();
        assert_eq!(
            step,
            Step::EretTo {
                el: El::El0,
                pc: KERNEL_BASE + 0x100
            }
        );
        assert_eq!(cpu.state.el, El::El0);
        assert!(!cpu.state.irq_masked);
    }

    #[test]
    fn irq_taken_when_unmasked() {
        let (mut cpu, mut mem) = machine(&[Insn::Nop, Insn::Nop]);
        cpu.state.set_sysreg(SysReg::VbarEl1, KERNEL_BASE + 0x8000);
        cpu.state.irq_masked = false;
        cpu.raise_irq();
        let step = cpu.step(&mut mem).unwrap();
        assert_eq!(step, Step::IrqTaken);
        assert_eq!(cpu.state.pc, KERNEL_BASE + 0x8000 + vector::IRQ_SAME_EL);
        // Masked again inside the handler.
        assert!(cpu.state.irq_masked);
    }

    #[test]
    fn ipi_posts_queue_and_assert_the_ipi_line() {
        let (mut cpu, mut mem) = machine(&[Insn::Nop, Insn::Nop]);
        cpu.state.set_sysreg(SysReg::VbarEl1, KERNEL_BASE + 0x8000);
        cpu.post_ipi(IpiKind::Reschedule);
        cpu.post_ipi(IpiKind::TlbShootdown);
        assert_eq!(cpu.pending_ipis(), 2);
        assert_eq!(cpu.stats().ipis, 2);
        // Host-side handling drains FIFO and acknowledges the IPI line.
        assert_eq!(
            cpu.take_ipis(),
            vec![IpiKind::Reschedule, IpiKind::TlbShootdown]
        );
        assert_eq!(cpu.pending_ipis(), 0);
        // With the IPI acknowledged, no spurious IRQ is taken.
        cpu.state.irq_masked = false;
        assert_eq!(cpu.step(&mut mem), Ok(Step::Executed));
    }

    #[test]
    fn take_ipis_does_not_swallow_a_device_irq() {
        // The device IRQ line and the IPI line are distinct: draining the
        // IPI queue must not acknowledge an interrupt raised via
        // raise_irq.
        let (mut cpu, mut mem) = machine(&[Insn::Nop, Insn::Nop]);
        cpu.state.set_sysreg(SysReg::VbarEl1, KERNEL_BASE + 0x8000);
        cpu.raise_irq();
        cpu.post_ipi(IpiKind::Reschedule);
        assert_eq!(cpu.take_ipis(), vec![IpiKind::Reschedule]);
        cpu.state.irq_masked = false;
        assert_eq!(cpu.step(&mut mem), Ok(Step::IrqTaken), "device IRQ kept");
    }

    #[test]
    fn unacknowledged_ipi_is_taken_as_an_irq() {
        let (mut cpu, mut mem) = machine(&[Insn::Nop, Insn::Nop]);
        cpu.state.set_sysreg(SysReg::VbarEl1, KERNEL_BASE + 0x8000);
        cpu.state.irq_masked = false;
        cpu.post_ipi(IpiKind::Reschedule);
        assert_eq!(cpu.step(&mut mem), Ok(Step::IrqTaken));
        assert_eq!(cpu.state.pc, KERNEL_BASE + 0x8000 + vector::IRQ_SAME_EL);
        // The payload is still queued for the host-side handler.
        assert_eq!(cpu.take_ipis(), vec![IpiKind::Reschedule]);
    }

    #[test]
    fn cpu_ids_default_to_zero_and_follow_with_id() {
        assert_eq!(Cpu::default().id(), 0);
        assert_eq!(Cpu::with_id(HwFeatures::default(), 3).id(), 3);
    }

    #[test]
    fn pac_memo_counters_are_mirrored_into_stats() {
        // A loop that signs the same pointer with the same modifier twice:
        // second sign hits the memo, and the stats see it after the step.
        let (mut cpu, mut mem) = machine(&[
            Insn::Pac {
                key: PacKey::IB,
                rd: Reg::x(0),
                rn: Reg::x(1),
            },
            Insn::Pac {
                key: PacKey::IB,
                rd: Reg::x(2),
                rn: Reg::x(1),
            },
        ]);
        cpu.state
            .set_pauth_key(camo_isa::PauthKey::IB, camo_qarma::QarmaKey::new(7, 9));
        cpu.state.gprs[0] = KERNEL_BASE + 0x123;
        cpu.state.gprs[2] = KERNEL_BASE + 0x123;
        cpu.state.gprs[1] = 0x42;
        run(&mut cpu, &mut mem, 2);
        assert_eq!(cpu.stats().pac_memo_misses, 1);
        assert_eq!(cpu.stats().pac_memo_hits, 1);
    }

    #[test]
    fn stats_merge_adds_totals() {
        let a = CpuStats {
            instructions: 10,
            pac_signs: 1,
            ipis: 2,
            ..CpuStats::default()
        };
        let mut b = CpuStats {
            instructions: 5,
            tlb_hits: 7,
            ..CpuStats::default()
        };
        b.merge(&a);
        assert_eq!(b.instructions, 15);
        assert_eq!(b.pac_signs, 1);
        assert_eq!(b.tlb_hits, 7);
        assert_eq!(b.ipis, 2);
    }

    #[test]
    fn reading_xom_page_faults_into_kernel() {
        let (mut cpu, mut mem) = machine(&[Insn::Ldr {
            rt: Reg::x(0),
            rn: Reg::x(1),
            mode: AddrMode::Unsigned(0),
        }]);
        // Turn the second page into XOM.
        let ctx = cpu.translation_ctx();
        let pa = mem
            .translate(&ctx, KERNEL_BASE + 0x1000, camo_mem::AccessType::Read)
            .unwrap();
        mem.protect_stage2(
            camo_mem::Frame::containing(pa),
            camo_mem::S2Attr::execute_only(),
        )
        .unwrap();
        cpu.state.set_sysreg(SysReg::VbarEl1, KERNEL_BASE + 0x8000);
        cpu.state.gprs[1] = KERNEL_BASE + 0x1000;
        let step = cpu.step(&mut mem).unwrap();
        assert!(matches!(
            step,
            Step::FaultTaken {
                fault: MemFault::Stage2 { .. }
            }
        ));
        assert_eq!(cpu.state.sysreg(SysReg::FarEl1), KERNEL_BASE + 0x1000);
    }
}

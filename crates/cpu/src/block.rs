//! The basic-block translation engine.
//!
//! A *block* is a maximal straight-line run of decoded instructions
//! starting at one physical address, optionally closed by a single
//! branch-class terminator. [`Cpu::run_block`](crate::Cpu::run_block)
//! executes a whole block per call: the fetch permission walk is hoisted
//! to block entry (one two-stage translation covers the block, which by
//! construction never leaves its page), the per-instruction decode is
//! amortised across every future execution of the block, and cycle /
//! instruction accumulation is folded into the CPU's counters once at
//! block exit.
//!
//! # What ends a block
//!
//! Decoding stops, in decreasing order of frequency:
//!
//! * **at a branch** (`B`, `BL`, `BR`, `BLR`, `RET`, `CBZ`, `CBNZ`, and
//!   the combined auth-and-branch forms `RETA*`, `BLRA*`, `BRA*`) — the
//!   branch is *included* as the block's terminator, so a hot loop body
//!   plus its backward branch is a single block;
//! * **at `SVC`, `BRK` or `ERET`** — included as terminators too: the
//!   executor's per-instruction semantics handle them completely, and
//!   the non-`Executed` step they report ends the `run_block` call, so
//!   upcalls and exception-level changes surface to the run loop exactly
//!   as the step path surfaces them;
//! * **at the page boundary** — one permission walk at entry covers the
//!   block only while every instruction shares the entry page;
//! * **before an instruction that breaks block assumptions** — an `MSR`
//!   to a TTBR (the translation context captured at call entry would go
//!   stale), an `MRS` of `CNTVCT_EL0` (reads the live cycle counter,
//!   which batched accumulation folds in only at call exit), or any
//!   PAuth instruction on a pre-ARMv8.3 core (the step path owns the
//!   §5.5 NOP-or-UNDEFINED gating); other `MSR`/`MRS` join the body —
//!   kernel entry/exit is dense with them;
//! * **at a word that does not decode** — the step path raises the
//!   architectural error;
//! * **after [`MAX_BLOCK_INSNS`] instructions** — a memory bound, not a
//!   semantic one; the continuation is simply its own block.
//!
//! # Invalidation
//!
//! Every cached block carries two freshness stamps from decode time: the
//! [`Memory`](camo_mem::Memory) translation **generation** (bumped by
//! every `map` / `unmap` / `set_attr` / `protect_stage2` / `tlb_flush`)
//! and the **write version** of the physical frame holding its code
//! (bumped by every store into the frame — translated or
//! direct-to-physical). A version mismatch means the bytes changed —
//! self-modifying code, a module reloaded into the frame, an attacker
//! write — and discards the block. A generation mismatch with
//! *unchanged* bytes re-stamps the block instead: the permission walk at
//! block entry (which runs on every execution and is what enforces
//! unmaps and permission downgrades) has just revalidated the mapping
//! under the new translation configuration, so the decoded bytes are
//! still exactly what a fresh decode would produce. Without the
//! re-stamp, workloads that remap constantly (module churn, fork storms
//! — one generation bump per op) would flush every block in the machine
//! on every op. A store *inside* a running block that hits the block's
//! own frame aborts execution after that store, so the very next
//! instruction is re-fetched from the modified bytes exactly as the
//! step path would.
//!
//! # The trace tier
//!
//! This cache is *tier 1* of a two-tier engine: each entry carries a
//! hotness counter, and chains headed by a hot block are promoted into
//! flattened, guard-checked **traces** — see [`crate::trace`].

use camo_isa::{decode, Insn, SysReg};
use camo_mem::{PhysMem, PAGE_SIZE};

/// Number of direct-mapped block-cache slots (power of two; blocks start
/// only at branch targets and fall-through points, so this covers far
/// more code than the same number of icache slots).
pub const BLOCK_CACHE_SIZE: usize = 8192;

/// Upper bound on straight-line instructions per block (memory bound;
/// longer runs chain into follow-on blocks).
pub const MAX_BLOCK_INSNS: usize = 128;

/// Upper bound on blocks executed per [`crate::Cpu::run_block`] call
/// (same-page chaining). The cap is what keeps a spin loop from chaining
/// forever inside one call, so run-loop step budgets still bound
/// execution.
pub const MAX_CHAIN: usize = 64;

/// Direct-mapped slot for the block starting at `pa`.
///
/// Fibonacci-hashed rather than low-bits indexed: block start addresses
/// repeat their page offsets across pages (function prologues cluster),
/// so plain `(pa >> 2) & mask` would fold every page onto the same 4 KiB
/// of index space and conflict-miss heavily. The multiply spreads the
/// page number into the index.
pub(crate) fn block_slot(pa: u64) -> usize {
    const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;
    ((pa >> 2).wrapping_mul(GOLDEN) >> 51) as usize & (BLOCK_CACHE_SIZE - 1)
}

/// One translated basic block.
#[derive(Debug, Clone)]
pub(crate) struct BlockEntry {
    /// Physical address of the first instruction (the cache key).
    pub pa: u64,
    /// Translation generation the block was decoded under (re-stamped in
    /// place when the entry walk revalidates the block under a newer
    /// configuration with unchanged bytes — see the module docs).
    pub generation: u64,
    /// Write version of the code frame at decode time.
    pub version: u64,
    /// The straight-line body, in fetch order.
    pub body: Vec<Insn>,
    /// The closing branch, when the block ended at one.
    pub terminator: Option<Insn>,
    /// Set (with `body` empty and no terminator) when the entry
    /// instruction decodes but must execute through the one-instruction
    /// step semantics (`SVC`, `BRK`, `ERET`, `MSR`/`MRS`, PAuth forms on
    /// a pre-v8.3 core). Caching the decoded form spares the kernel
    /// entry/exit path — which is dense with these — a second permission
    /// walk and an icache probe per visit.
    pub fallback: Option<Insn>,
    /// Cost-model cycles of the whole block (body + terminator),
    /// precomputed at decode time so a fully-executed block charges one
    /// addition. Blocks are decoded under the CPU's current cost model;
    /// swapping the model clears the cache.
    pub cycles: u64,
    /// Cache hits since decode (or since the last promotion), the
    /// hotness signal for the trace tier ([`crate::trace`]): reaching
    /// [`crate::trace::HOT_THRESHOLD`] starts recording the chain this
    /// block heads, and resets the counter so an aliasing second hot
    /// block does not immediately re-trigger a rebuild.
    pub hot: u32,
    /// Set when a recording headed by this block finalized without a loop
    /// edge: the chain is straight-line, a trace adds entry-validation
    /// cost for no stitching win, and re-recording every promotion period
    /// would only repeat the discovery. Cleared naturally when the entry
    /// is evicted or invalidated (the code may have changed shape).
    pub no_trace: bool,
}

/// How the block builder treats one decoded instruction.
enum InsnClass {
    /// Pure straight-line work: joins the body.
    Straight,
    /// Straight-line, but writes memory: joins the body and triggers the
    /// self-modification re-check after it executes.
    Store,
    /// A branch: closes the block as its terminator.
    Terminator,
    /// Must run through the one-instruction step path.
    Fallback,
}

fn classify(insn: &Insn, pauth: bool) -> InsnClass {
    if !pauth && insn.is_pauth() {
        // §5.5 pre-ARMv8.3 gating (hint-form NOPs, register-form
        // UNDEFINED) lives in the step path.
        return InsnClass::Fallback;
    }
    match insn {
        Insn::B { .. }
        | Insn::Bl { .. }
        | Insn::Br { .. }
        | Insn::Blr { .. }
        | Insn::Ret { .. }
        | Insn::Cbz { .. }
        | Insn::Cbnz { .. }
        | Insn::Reta { .. }
        | Insn::Blra { .. }
        | Insn::Bra { .. } => InsnClass::Terminator,
        // SVC/BRK/ERET close a block like a branch: the executor's
        // per-instruction semantics handle them completely, and the
        // non-`Executed` step they report ends the run_block call, so
        // the caller observes the upcall/exception exactly as the step
        // path would. (ERET's EL change makes the captured translation
        // context stale, which is precisely why the call must end.)
        Insn::Svc { .. } | Insn::Brk { .. } | Insn::Eret => InsnClass::Terminator,
        // System-register moves join blocks — kernel entry/exit is dense
        // with them — except the two that break block assumptions: a TTBR
        // write changes the translation context captured at call entry,
        // and a CNTVCT read observes the live cycle counter, which the
        // batched accumulation only folds in at call exit.
        Insn::Msr {
            sr: SysReg::Ttbr0El1 | SysReg::Ttbr1El1,
            ..
        }
        | Insn::Mrs {
            sr: SysReg::CntvctEl0,
            ..
        } => InsnClass::Fallback,
        Insn::Str { .. } | Insn::Stp { .. } => InsnClass::Store,
        _ => InsnClass::Straight,
    }
}

/// Whether `insn` writes memory (the mid-block self-modification check
/// runs after these).
pub(crate) fn is_store(insn: &Insn) -> bool {
    matches!(insn, Insn::Str { .. } | Insn::Stp { .. })
}

/// Decodes the block starting at `pa`, stamped with the freshness pair it
/// was decoded under. Never fails: a leading instruction that cannot join
/// a block yields an *empty* block, which the executor serves through the
/// step path (and which is itself cached, so repeated `SVC`/`BRK` sites
/// do not re-decode every visit).
pub(crate) fn decode_block(
    phys: &PhysMem,
    pa: u64,
    generation: u64,
    version: u64,
    pauth: bool,
    cost: &camo_isa::CostModel,
) -> Box<BlockEntry> {
    let mut body = Vec::new();
    let mut terminator = None;
    let mut fallback = None;
    let mut cycles = 0u64;
    let mut off = 0u64;
    while pa % PAGE_SIZE + off < PAGE_SIZE && body.len() < MAX_BLOCK_INSNS {
        // Within a page every word is backed (frames are whole pages and
        // the entry translation proved the frame allocated).
        let Some(word) = phys.read_u32(pa + off) else {
            break;
        };
        let Some(insn) = decode(word) else {
            break; // the step path raises UndefinedInsn at this pc
        };
        match classify(&insn, pauth) {
            InsnClass::Straight | InsnClass::Store => {
                cycles += cost.cycles(&insn);
                body.push(insn);
                off += 4;
            }
            InsnClass::Terminator => {
                cycles += cost.cycles(&insn);
                terminator = Some(insn);
                break;
            }
            InsnClass::Fallback => {
                if body.is_empty() {
                    fallback = Some(insn);
                }
                break;
            }
        }
    }
    Box::new(BlockEntry {
        pa,
        generation,
        version,
        body,
        terminator,
        fallback,
        cycles,
        hot: 0,
        no_trace: false,
    })
}

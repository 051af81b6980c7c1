//! The trace tier of the translation engine (tier 2).
//!
//! Tier 1 ([`crate::block`]) caches single basic blocks and chains them
//! within one [`Cpu::run_block`] call, but still pays a cache probe, a
//! chain-target computation and a per-instruction `Insn` match for every
//! block executed. This module promotes *hot chains* into **traces**: one
//! cached unit stitching the frequently-taken block sequence together,
//! with the per-instruction dispatch flattened into a pre-resolved
//! function-pointer array (the classic threaded-interpreter step beyond a
//! block cache). Operands are folded at build time — shifted immediates,
//! bitfield masks, `ADR` targets and key selections become plain struct
//! fields — so an op's handler does no decoding of its own at all. A
//! trace that closes a loop jumps back into itself, so a hot loop retires
//! up to [`TRACE_CALL_INSNS`] instructions per `run_block` call with a
//! *single* entry validation.
//!
//! # Promotion and recording
//!
//! Every tier-1 block carries a hotness counter, bumped on each cache
//! hit. When a block reaches [`HOT_THRESHOLD`] and no trace covers its
//! `(physical, virtual)` entry, the engine starts *recording*: for the
//! rest of the current call it notes each fully-executed block at the
//! chain-on point (address pair, terminator presence, observed next PC).
//! Recording stops at [`MAX_TRACE_BLOCKS`], when the chain revisits a
//! recorded block (a closed loop — the trace will jump back internally),
//! or at any event a trace cannot contain (a step-path fallback, a fault,
//! a self-modifying store, an executed trace). A block whose own
//! `SVC`/`BRK`/`ERET` terminator ended the call is recorded before the
//! recording stops: the trace then closes with that terminator, which
//! ends the call from inside the trace, so syscall entry and exit paths
//! run in tier 2 up to and including the instruction that leaves them.
//! When the call returns, the
//! recording is *finalized*: each block is re-decoded from the current
//! bytes, the bodies are flattened into the op array, and the whole unit
//! is stamped with the current translation generation plus the write
//! version of every constituent code page. A recording of one block that
//! does not loop back into itself is discarded — it would re-run exactly
//! what its tier-1 entry already runs, paying entry validation for no
//! stitching or looping win. Promotion is driven purely by executed
//! instructions, so it is deterministic: a fleet replayed sequentially
//! promotes exactly the traces the parallel run promoted.
//!
//! # Guards and side exits
//!
//! A trace predicts one concrete path. Every control-flow op inside it
//! compares the target it actually computed against the recorded
//! `expected` target: on a match execution falls through (or jumps back
//! for the loop edge), on a mismatch the op has already performed its
//! full architectural effect, so the trace simply materializes the PC and
//! *side-exits* back to tier 1 — never replaying or undoing anything.
//! A store that wrote the frame of any constituent page side-exits right
//! after itself, which is strictly stronger than tier 1's own
//! self-modification abort. The guard compares the store's destination
//! frame (reported by the memo accessors) with the pages' frames: inside
//! one trace execution only the trace's own stores can move those pages'
//! write versions, so this equals re-reading every page version — still
//! the check for a store that took the general, frame-less path.
//! `SVC`/`BRK`/`ERET` and faults end the call through the shared step
//! semantics exactly as tier 1 does.
//!
//! # Memory runs
//!
//! Consecutive no-writeback `LDR/STR/LDP/STP` ops of one block body that
//! share a base register no load of theirs writes, and whose accesses fit
//! one page-sized window, fuse into one op (a `MemRun`): the base is
//! read once, the window translated once per access type, and the
//! accesses performed in order on that frame. When that is not provably
//! exact (the window crosses a page at run time, the caches are off, a
//! translation fails, a store would hit the trace's own code) the run
//! replays its accesses through the per-op handlers, so faults and side
//! exits land exactly where they would unfused, and refunds the charge
//! of any access it did not reach.
//!
//! # Folds
//!
//! One build-time pass over each block (see `fold_block`) collapses the
//! instruction shapes Camouflage adds to every call and every kernel
//! entry into single ops. Besides merging immediate adds/subs that
//! accumulate into one register, it folds four shapes:
//!
//! 1. `MOVZ`/`MOVN`/`ADR` followed by `MOVK`s into the same register →
//!    one constant;
//! 2. that constant followed by `MSR sr, rX` of the same register → one
//!    op that writes both (the XOM key setter's step per key half);
//! 3. a constant into rA, an optional `MOV rB, rS` (`ADD #0`), `BFM rA ←
//!    rB`, then `PAC*`/`AUT*` with modifier rA → one op through the
//!    site's PAC memo (the modifier construction of Listing 3 and of the
//!    data-pointer accessors);
//! 4. an immediate add/sub into rX that ends a block body, followed by
//!    the block's `CBZ`/`CBNZ` on rX → one guard op (a loop counter).
//!
//! A fused op charges the summed cycles and instruction count of what it
//! replaced, and the pass is exact by construction. It recognises shapes
//! from each op's decoded `insn`, never from handler pointers (the
//! linker may merge identical handlers). No fold crosses a block start,
//! so every loop-edge target is still the first op of its block. Only a
//! shape's last instruction may fault or leave the trace (a trapped
//! `MSR`, a failed guard), so the effects of the members before it are
//! exactly the step path's. A fused op keeps the VA of its *first*
//! instruction, because the loop edge resumes at `ops[target].va`; a
//! trap or guard derives its own instruction's VA as `va + 4·(count−1)`.
//! Aliasing registers (a copy or `BFM` source equal to rA, `XZR`/`SP`
//! destinations) leave a shape unfused.
//!
//! # Entry validation and invalidation
//!
//! At trace entry the engine checks, in order: the entry `(pa, va)` pair,
//! the write version of every constituent page (bytes unchanged), and the
//! translation generation. A generation match proves every mapping the
//! trace spans is exactly as it was stamped — any `map`/`unmap`/
//! `set_attr`/stage-2 change bumps the generation — so the per-page
//! fetch-permission walks are skipped on the hot path. On a generation
//! mismatch the walks re-run for every page under the current
//! configuration: success re-stamps the trace (the module-churn
//! re-stamp rule of [`crate::block`], applied per page), while a failed
//! walk or a moved page version discards the trace and falls back to
//! tier 1, which raises any fault at the architecturally correct point.
//!
//! # PAC sites
//!
//! Each `PAC*`/`AUT*` op in a trace owns a private one-entry memo keyed
//! on `(value, modifier, key, tbi)` — the pre-resolved QARMA schedule +
//! MAC-memo slot for that site. A hit bypasses the shared PAC unit
//! entirely (the architectural counters still advance identically); a
//! miss computes through the PAC unit as usual and refills the site.
//! Site hits therefore do not show up in the `pac_memo_*` observability
//! counters — those count the shared unit only.

use crate::block;
use crate::exec::{class_of, ec, mask_lo, to_pac_key, Cpu, CpuError, Step};
use crate::pac::{strip_pac, KeyClass};
use camo_isa::{AddrMode, CostModel, Insn, PacKey, PairMode, Reg, SysReg};
use camo_mem::{AccessType, El, Frame, MemFault, Memory, TransMemo, TranslationCtx, PAGE_SIZE};
use camo_qarma::QarmaKey;

/// Number of direct-mapped trace-cache slots (power of two). Traces only
/// form at hot block entries, so far fewer slots than the block cache
/// cover the working set.
pub const TRACE_CACHE_SIZE: usize = 2048;

/// Tier-1 block-cache hits before a block's chain is promoted to a trace.
pub const HOT_THRESHOLD: u32 = 16;

/// Upper bound on blocks recorded into one trace.
pub const MAX_TRACE_BLOCKS: usize = 16;

/// Upper bound on distinct code pages a trace may span (each page costs a
/// stamp check at entry and a permission walk after a generation change).
pub const MAX_TRACE_PAGES: usize = 4;

/// Upper bound on flattened ops per trace (memory bound).
pub const MAX_TRACE_OPS: usize = 512;

/// Upper bound on instructions retired per [`Cpu::run_block`] call once a
/// trace loops internally. Equal to tier 1's own per-call retirement
/// bound (`MAX_CHAIN × MAX_BLOCK_INSNS`), so the documented overshoot
/// bound of the kernel's instruction budgets is unchanged by the trace
/// engine.
pub const TRACE_CALL_INSNS: u64 = (block::MAX_CHAIN * block::MAX_BLOCK_INSNS) as u64;

/// Direct-mapped slot for the trace entered at `pa` (same Fibonacci
/// spread as [`crate::block`]'s cache, narrowed to this cache's size).
pub(crate) fn trace_slot(pa: u64) -> usize {
    const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;
    ((pa >> 2).wrapping_mul(GOLDEN) >> 53) as usize & (TRACE_CACHE_SIZE - 1)
}

/// What a guard op does with control when its prediction holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Pass {
    /// Fall through to the next op (mid-trace terminator whose target is
    /// the next stitched block).
    Next,
    /// Jump back to the op at this index (the loop edge).
    Jump(u32),
    /// Leave the trace with `state.pc = expected` (the trace's exit).
    End,
}

/// What one executed op tells the trace runner. Kept register-sized on
/// purpose: every op execution returns one of these through a function
/// pointer, so a by-value `Result` payload here would force every handler
/// call through a stack return slot. The rare call-ending outcome parks
/// its `Result` in [`TraceCtx::exit`] instead.
#[derive(Clone, Copy, PartialEq, Eq)]
pub(crate) enum OpOutcome {
    /// Retired; continue with the next op.
    Next,
    /// Retired; continue at the op index (a taken loop edge).
    Jump(u32),
    /// Retired, but the prediction failed or a store hit a constituent
    /// page: `state.pc` is set, leave the trace to tier 1.
    Side,
    /// Retired through [`Pass::End`]: `state.pc` is set, leave the trace.
    End,
    /// The op ended the whole `run_block` call (SVC/BRK/ERET, a vectored
    /// fault, an unhandled fault, an undefined encoding); the outcome is
    /// in [`TraceCtx::exit`].
    Exit,
}

/// Borrows of the trace's guard state handed to each op: the constituent
/// pages (store guards), the per-site PAC memos, the fused memory runs,
/// the parking slot for a call-ending outcome (see [`OpOutcome::Exit`]),
/// and the charge a fused run that left early did not retire.
pub(crate) struct TraceCtx<'a> {
    pages: &'a [TracePage],
    sites: &'a mut [PacSite],
    mems: &'a mut [TransMemo],
    runs: &'a [MemRun],
    exit: Option<Result<Step, CpuError>>,
    refund_cycles: u64,
    refund_insns: u64,
}

/// The pre-resolved handler for one flattened op.
pub(crate) type OpFn =
    fn(&mut Cpu, &mut Memory, &TranslationCtx, &TraceOp, &mut TraceCtx) -> OpOutcome;

/// One flattened instruction inside a trace.
///
/// The operand fields are *pre-folded* at build time by [`make_op`]:
/// shifted immediates, bitfield masks and `ADR` targets land in
/// `imm`/`imm2`, register operands in `rd`/`rn`/`rm`, hint-form PAC key
/// aliases are resolved into `key`, and so on. Which fields mean what is
/// a private contract between `make_op` and the handler it installed in
/// `exec`; `insn` keeps the full decoded form for the generic fallback
/// handler.
#[derive(Debug, Clone, Copy)]
pub(crate) struct TraceOp {
    exec: OpFn,
    insn: Insn,
    /// Virtual address of the instruction (ops carry their own PC; the
    /// architectural PC is materialized only when the trace is left).
    va: u64,
    /// The next PC the recording observed — the guard's prediction.
    expected: u64,
    /// Precomputed taken-branch target for PC-relative branches (the
    /// `BFM` rotation of a folded modifier).
    target: u64,
    /// First pre-folded operand payload (constant, folded immediate,
    /// field shift …).
    imm: u64,
    /// Second pre-folded operand payload (keep-mask, field mask …).
    imm2: u64,
    /// Cost-model cycles, precomputed at build time (the sum over every
    /// folded instruction for a superop).
    cycles: u32,
    /// Architectural instructions this op retires (1, or the length of
    /// the shape a fused op replaced — see [`fold_block`]).
    count: u16,
    pass: Pass,
    /// Index into the trace's PAC-site memos, translation memos (memory
    /// ops) or memory runs (a fused run), by handler; `u16::MAX` when the
    /// op has none.
    site: u16,
    rd: Reg,
    rn: Reg,
    rm: Reg,
    /// Fourth register operand: the copy source of a folded modifier.
    rs: Reg,
    key: PacKey,
    mode: AddrMode,
    pmode: PairMode,
    sr: SysReg,
}

/// One constituent code page of a trace, with its freshness stamps.
#[derive(Debug, Clone, Copy)]
pub(crate) struct TracePage {
    va: u64,
    pa: u64,
    frame: Frame,
    version: u64,
}

/// A per-op PAC memo: the whole sign/auth computation this site last
/// performed. Validated per execution against the live key material and
/// `SCTLR` enables, so key switches and `SCTLR` writes inside the trace
/// are honoured exactly.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct PacSite {
    valid: bool,
    ok: bool,
    tbi: bool,
    key: QarmaKey,
    modifier: u64,
    value: u64,
    result: u64,
}

/// What one access of a [`MemRun`] does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RunKind {
    Ldr,
    Str,
    Ldp,
    Stp,
}

impl RunKind {
    /// Bytes the access touches.
    fn bytes(self) -> i64 {
        match self {
            RunKind::Ldr | RunKind::Str => 8,
            RunKind::Ldp | RunKind::Stp => 16,
        }
    }
}

/// One access of a [`MemRun`], resolved for the single-frame fast path.
#[derive(Debug, Clone, Copy)]
struct RunAccess {
    kind: RunKind,
    /// Byte offset from the run's window start (below [`PAGE_SIZE`]).
    rel: u16,
    rt: Reg,
    rt2: Reg,
}

/// A fused memory run: two or more consecutive no-writeback
/// `LDR/STR [Xn, #imm]` / `LDP/STP [Xn, #simm]` ops of one block body that
/// share a base register no load of the run writes, executed by one
/// [`op_mem_run`] op.
#[derive(Debug, Clone)]
pub(crate) struct MemRun {
    /// Offset (wrapping) from the base register to the lowest byte any
    /// access touches: the window start.
    lo: u64,
    /// Bytes from the window start to one past the highest byte touched
    /// (at most [`PAGE_SIZE`]).
    span: u64,
    has_loads: bool,
    has_stores: bool,
    /// Memo slots of the run's read and write translations.
    read_memo: u16,
    write_memo: u16,
    accesses: Vec<RunAccess>,
    /// The same accesses as ordinary per-op handlers, for the fallback.
    ops: Vec<TraceOp>,
}

/// One cached trace.
#[derive(Debug, Clone)]
pub(crate) struct TraceEntry {
    /// Physical address of the entry instruction (the cache key).
    pub(crate) entry_pa: u64,
    /// Virtual address the entry was recorded at (ops carry VAs, so an
    /// aliased mapping of the same frame must not enter this trace).
    pub(crate) entry_va: u64,
    /// Translation generation the page walks were last valid under
    /// (re-stamped after a successful re-walk of every page).
    generation: u64,
    pages: Vec<TracePage>,
    ops: Vec<TraceOp>,
    sites: Vec<PacSite>,
    mems: Vec<TransMemo>,
    runs: Vec<MemRun>,
}

/// One block noted during recording.
#[derive(Debug, Clone, Copy)]
struct RecordedBlock {
    pa: u64,
    va: u64,
    has_term: bool,
    /// The PC observed after the block executed.
    next: u64,
}

/// An in-flight recording (lives at most one `run_block` call).
#[derive(Debug, Clone)]
pub(crate) struct TraceRecorder {
    blocks: Vec<RecordedBlock>,
    done: bool,
}

impl TraceRecorder {
    pub(crate) fn new() -> Self {
        TraceRecorder {
            blocks: Vec::new(),
            done: false,
        }
    }

    /// Notes a fully-executed block and the PC it handed to the chain.
    pub(crate) fn record(&mut self, pa: u64, va: u64, has_term: bool, next: u64) {
        if self.done {
            return;
        }
        self.blocks.push(RecordedBlock {
            pa,
            va,
            has_term,
            next,
        });
        if self.blocks.len() >= MAX_TRACE_BLOCKS || self.blocks.iter().any(|b| b.va == next) {
            // Full, or the chain just closed a loop back into the
            // recording: the finalized trace will jump internally.
            self.done = true;
        }
    }

    /// Stops appending (an event a trace cannot contain occurred); the
    /// blocks already recorded still finalize at call end.
    pub(crate) fn finish(&mut self) {
        self.done = true;
    }
}

/// What probing the trace cache did for one chain position.
pub(crate) enum TraceOutcome {
    /// No fresh trace at this entry; run tier 1.
    NotEntered,
    /// A trace executed and left via a guard (`state.pc` is set); the
    /// chain continues at the new PC.
    Continued,
    /// A trace executed an op that ended the call.
    Ended(Result<Step, CpuError>),
}

impl Cpu {
    /// Probes, validates and runs the trace entered at `(pa, pc)`, if
    /// any. Cycle/instruction charges go into the caller's accumulators.
    pub(crate) fn try_trace(
        &mut self,
        mem: &mut Memory,
        ctx: &TranslationCtx,
        pc: u64,
        pa: u64,
        acc_cycles: &mut u64,
        acc_insns: &mut u64,
    ) -> TraceOutcome {
        let slot = trace_slot(pa);
        // Read-only fast reject first: this probe runs at every chain
        // position, and most positions head no trace — the `take`/put
        // dance (two slot writes) is saved for actual entries.
        match self.trace_cache[slot].as_ref() {
            Some(t) if t.entry_pa == pa && t.entry_va == pc => {}
            _ => return TraceOutcome::NotEntered,
        }
        let mut tr = self.trace_cache[slot].take().expect("probed above");
        // Bytes first: any moved page version means the code changed and
        // the flattened ops are stale — discard.
        for p in &tr.pages {
            if mem.phys().frame_version(p.frame) != p.version {
                self.stats.trace_invalidations += 1;
                return TraceOutcome::NotEntered;
            }
        }
        // No instruction changes the translation generation, so this is
        // the value the calling `run_block` started under.
        let generation = mem.translation_generation();
        if tr.generation != generation {
            // The translation configuration moved since the stamps. Re-run
            // the fetch-permission walk for every constituent page under
            // the current configuration; a failure (unmap, execute
            // revocation, stage-2 seal) or a moved mapping discards the
            // trace — tier 1 then raises any fault at the right point.
            for p in &tr.pages {
                match mem.fetch_loc(ctx, p.va) {
                    Ok(walked) if walked == p.pa => {}
                    _ => {
                        self.stats.trace_invalidations += 1;
                        return TraceOutcome::NotEntered;
                    }
                }
            }
            tr.generation = generation;
        }
        if let Some(rec) = self.trace_recorder.as_mut() {
            // A recording cannot span a trace execution (the recorded
            // chain would have a gap); keep the prefix.
            rec.finish();
        }
        self.stats.trace_hits += 1;
        let out = self.run_trace(mem, ctx, &mut tr, acc_cycles, acc_insns);
        self.trace_cache[slot] = Some(tr);
        out
    }

    fn run_trace(
        &mut self,
        mem: &mut Memory,
        ctx: &TranslationCtx,
        tr: &mut TraceEntry,
        acc_cycles: &mut u64,
        acc_insns: &mut u64,
    ) -> TraceOutcome {
        let ops: &[TraceOp] = &tr.ops;
        let mut tc = TraceCtx {
            pages: &tr.pages,
            sites: &mut tr.sites,
            mems: &mut tr.mems,
            runs: &tr.runs,
            exit: None,
            refund_cycles: 0,
            refund_insns: 0,
        };
        let mut cycles = 0u64;
        let mut insns = 0u64;
        let mut i = 0usize;
        let out = loop {
            let op = &ops[i];
            // Charge-then-execute, like the step path: a faulting op is
            // still charged.
            cycles += u64::from(op.cycles);
            insns += u64::from(op.count);
            match (op.exec)(self, mem, ctx, op, &mut tc) {
                OpOutcome::Next => i += 1,
                OpOutcome::Jump(target) => {
                    if *acc_insns + insns >= TRACE_CALL_INSNS {
                        // The per-call retirement bound: leave at the loop
                        // edge; the next call re-enters the trace.
                        self.state.pc = ops[target as usize].va;
                        break TraceOutcome::Continued;
                    }
                    i = target as usize;
                }
                OpOutcome::Side | OpOutcome::End => break TraceOutcome::Continued,
                OpOutcome::Exit => {
                    break TraceOutcome::Ended(
                        tc.exit.take().expect("an Exit op parks its outcome"),
                    );
                }
            }
        };
        // A fused memory run that left the trace part-way was charged for
        // accesses it never executed (zero otherwise).
        *acc_cycles += cycles - tc.refund_cycles;
        *acc_insns += insns - tc.refund_insns;
        out
    }

    /// Builds and installs a trace from the call's recording, re-decoding
    /// every block from the *current* bytes and stamping the current
    /// generation and page versions.
    pub(crate) fn finalize_trace(&mut self, mem: &Memory, rec: TraceRecorder) {
        let Some(first) = rec.blocks.first().copied() else {
            return;
        };
        let generation = mem.translation_generation();
        let phys = mem.phys();
        let mut pages: Vec<TracePage> = Vec::new();
        let mut ops: Vec<TraceOp> = Vec::new();
        // Block-entry VAs → op index, for resolving the loop edge.
        let mut starts: Vec<(u64, u32)> = Vec::new();
        let mut sites: u16 = 0;
        let mut mems: u16 = 0;
        let mut runs: Vec<MemRun> = Vec::new();
        // Ops are only usable up to the last terminator (a trace must end
        // in a guard that sets the PC); trailing fall-through bodies are
        // truncated.
        let mut kept = 0usize;
        let mut last_next = 0u64;
        for b in &rec.blocks {
            let page_va = b.va & !(PAGE_SIZE - 1);
            let page_pa = b.pa & !(PAGE_SIZE - 1);
            if !pages.iter().any(|p| p.pa == page_pa && p.va == page_va) {
                if pages.len() == MAX_TRACE_PAGES {
                    break;
                }
                let frame = Frame::containing(page_pa);
                pages.push(TracePage {
                    va: page_va,
                    pa: page_pa,
                    frame,
                    version: phys.frame_version(frame),
                });
            }
            let block =
                block::decode_block(phys, b.pa, generation, 0, self.features.pauth, &self.cost);
            if block.fallback.is_some()
                || (block.body.is_empty() && block.terminator.is_none())
                || block.terminator.is_some() != b.has_term
            {
                // The bytes changed shape since the recording executed
                // (a store later in the same call): stop stitching here.
                break;
            }
            if ops.len() + block.body.len() + usize::from(b.has_term) > MAX_TRACE_OPS {
                break;
            }
            let end = b.va + 4 * block.body.len() as u64;
            if block.terminator.is_none() && b.next != end {
                // A page-boundary fall-through: the recorded next must be
                // the fall-through PC or the bytes changed.
                break;
            }
            starts.push((b.va, ops.len() as u32));
            let body: Vec<TraceOp> = block
                .body
                .iter()
                .enumerate()
                .map(|(i, insn)| {
                    make_op(insn, b.va + 4 * i as u64, &self.cost, &mut sites, &mut mems)
                })
                .collect();
            let term = block
                .terminator
                .map(|term| make_term(&term, end, b.next, &self.cost, &mut sites, &mut mems));
            let (body, term) = fold_block(&body, term);
            fuse_mem_runs(&body, &mut ops, &mut runs, &mut mems);
            if let Some(term) = term {
                ops.push(term);
                kept = ops.len();
                last_next = b.next;
            }
        }
        ops.truncate(kept);
        let Some(last) = ops.last_mut() else {
            // No terminator survived — nothing worth caching.
            self.decline_trace(first.pa);
            return;
        };
        // The final guard either closes the loop back into the trace or
        // exits to the recorded continuation. A recording that neither
        // loops nor stitched at least two blocks is declined: it would
        // re-run exactly what its tier-1 entry already runs, paying trace
        // entry validation for no win — and the head block remembers the
        // decline, because re-recording every promotion period would only
        // repeat the discovery.
        let stitched = starts
            .iter()
            .filter(|(_, idx)| (*idx as usize) < kept)
            .count();
        match starts
            .iter()
            .find(|(va, idx)| *va == last_next && (*idx as usize) < kept)
        {
            Some(&(_, idx)) => last.pass = Pass::Jump(idx),
            None if stitched >= 2 => last.pass = Pass::End,
            None => {
                self.decline_trace(first.pa);
                return;
            }
        }
        // Drop pages only truncated ops touched (a stale stamp there
        // would invalidate spuriously).
        pages.retain(|p| ops.iter().any(|o| o.va & !(PAGE_SIZE - 1) == p.va));
        let entry = Box::new(TraceEntry {
            entry_pa: first.pa,
            entry_va: first.va,
            generation,
            pages,
            ops,
            sites: vec![PacSite::default(); usize::from(sites)],
            mems: vec![TransMemo::default(); usize::from(mems)],
            runs,
        });
        self.stats.trace_misses += 1;
        self.trace_cache[trace_slot(first.pa)] = Some(entry);
    }

    /// Marks the tier-1 entry heading a declined recording so it is not
    /// promoted again (see [`block::BlockEntry::no_trace`]).
    fn decline_trace(&mut self, pa: u64) {
        let slot = block::block_slot(pa);
        if let Some(e) = self.block_cache[slot].as_mut() {
            if e.pa == pa {
                e.no_trace = true;
            }
        }
    }
}

/// The build-time fold pass over one block (see the module docs' *Folds*):
/// folds the body's shapes, then merges a counter update that ends the
/// body into the block's `CBZ`/`CBNZ`. Folds stay inside the block, so its
/// first op — a possible loop-edge target — keeps the block's entry VA.
fn fold_block(body: &[TraceOp], term: Option<TraceOp>) -> (Vec<TraceOp>, Option<TraceOp>) {
    let mut out = Vec::with_capacity(body.len());
    let mut i = 0;
    while i < body.len() {
        let (op, used) = fold_at(&body[i..]);
        out.push(op);
        i += used;
    }
    let term = term.map(
        |t| match out.last().and_then(|last| fold_counter(last, &t)) {
            Some(fused) => {
                out.pop();
                fused
            }
            None => t,
        },
    );
    (out, term)
}

/// Folds the longest shape starting at `ops[0]`; returns the op and how
/// many ops it replaced.
fn fold_at(ops: &[TraceOp]) -> (TraceOp, usize) {
    if let Some((ra, c, n)) = constant(ops) {
        if let Some(&msr) = ops.get(n) {
            if matches!(msr.insn, Insn::Msr { rt, .. } if rt == ra) {
                // Shape 2: the key setter's constant + `MSR`.
                let mut op = fused(&ops[..=n]);
                op.exec = op_const_msr;
                op.rd = ra;
                op.sr = msr.sr;
                op.imm = c;
                return (op, n + 1);
            }
        }
        if let Some(folded) = fold_modifier(ops, ra, c, n) {
            return folded;
        }
        // Shape 1: the constant alone.
        let mut op = fused(&ops[..n]);
        op.imm = c;
        return (op, n);
    }
    if let Some((r, mut delta)) = imm_accum(&ops[0]) {
        // Immediate adds/subs accumulating into one register: the
        // intermediate values are unobservable, the final value is the
        // same wrapping sum. The fused op is normalized to `AddImm` (its
        // `imm` is authoritative; the `imm12` in its `insn` is not).
        let mut n = 1;
        while let Some((rn, d)) = ops.get(n).and_then(imm_accum) {
            if rn != r {
                break;
            }
            delta = delta.wrapping_add(d);
            n += 1;
        }
        if n > 1 {
            let mut op = fused(&ops[..n]);
            op.exec = op_add_imm;
            op.insn = Insn::AddImm {
                rd: r,
                rn: r,
                imm12: 0,
                shifted: false,
            };
            op.rd = r;
            op.rn = r;
            op.imm = delta;
            return (op, n);
        }
    }
    (ops[0], 1)
}

/// Shape 3 after the constant `c` in `ra` (`ops[..n]`): an optional `MOV
/// rB, rS` (`ADD rB, rS, #0`), `BFM ra ← rB`, then `PAC*`/`AUT*` whose
/// modifier register is `ra`. The fused op writes rB, then ra, then
/// signs or authenticates — the order the step path writes them in.
fn fold_modifier(ops: &[TraceOp], ra: Reg, c: u64, n: usize) -> Option<(TraceOp, usize)> {
    let mut k = n;
    let mut copy = None;
    if let Some(op) = ops.get(k) {
        if matches!(op.insn, Insn::AddImm { .. }) && op.imm == 0 && op.rd != ra && op.rn != ra {
            copy = Some((op.rd, op.rn));
            k += 1;
        }
    }
    let bfm = ops.get(k)?;
    let Insn::Bfm { rd, rn, immr, imms } = bfm.insn else {
        return None;
    };
    let (rb, rs) = copy.unwrap_or((rn, rn));
    if rd != ra || rn != rb || rn == ra || matches!(rb, Reg::Xzr | Reg::Sp) {
        return None;
    }
    let auth = ops.get(k + 1)?;
    let exec: OpFn = match auth.insn {
        Insn::Pac { .. } | Insn::Pac1716 { .. } => op_mod_pac,
        Insn::Aut { .. } | Insn::Aut1716 { .. } => op_mod_aut,
        _ => return None,
    };
    if auth.rn != ra {
        return None;
    }
    // One rotate covers both BFM shapes: the field lands where the mask
    // says, in the low bits (BFXIL) or at `64 - immr` (BFI).
    let (r, s) = (u32::from(immr), u32::from(imms));
    let mask = if s >= r {
        mask_lo(s - r + 1)
    } else {
        mask_lo(s + 1) << (64 - r)
    };
    let mut op = fused(&ops[..k + 2]);
    op.exec = exec;
    op.rd = auth.rd;
    op.rn = ra;
    op.rm = rb;
    op.rs = rs;
    op.key = auth.key;
    op.site = auth.site;
    op.imm = c & !mask;
    op.imm2 = mask;
    op.target = u64::from(r);
    Some((op, k + 2))
}

/// Shape 4: `last` (the body's final op) adds an immediate into the
/// register the block's `CBZ`/`CBNZ` tests. The fused guard keeps the
/// add's VA and derives the branch's own fall-through from `count`.
fn fold_counter(last: &TraceOp, term: &TraceOp) -> Option<TraceOp> {
    let exec: OpFn = match term.insn {
        Insn::Cbz { .. } => op_count_cbz,
        Insn::Cbnz { .. } => op_count_cbnz,
        _ => return None,
    };
    let (rd, rn, delta) = imm_add(last)?;
    if rd != term.rd || matches!(rd, Reg::Xzr | Reg::Sp) {
        return None;
    }
    let mut op = *term;
    op.exec = exec;
    op.insn = last.insn;
    op.va = last.va;
    op.rd = rd;
    op.rn = rn;
    op.imm = delta;
    op.cycles += last.cycles;
    op.count += last.count;
    Some(op)
}

/// The constant a `MOVZ`/`MOVN`/`ADR` at `ops[0]` and the `MOVK`s into the
/// same register after it build: `(register, value, ops used)`.
fn constant(ops: &[TraceOp]) -> Option<(Reg, u64, usize)> {
    let first = &ops[0];
    if !matches!(
        first.insn,
        Insn::Movz { .. } | Insn::Movn { .. } | Insn::Adr { .. }
    ) || matches!(first.rd, Reg::Xzr | Reg::Sp)
    {
        return None;
    }
    let mut c = first.imm;
    let mut n = 1;
    while let Some(op) = ops.get(n) {
        if !matches!(op.insn, Insn::Movk { rd, .. } if rd == first.rd) {
            break;
        }
        c = (c & op.imm2) | op.imm;
        n += 1;
    }
    Some((first.rd, c, n))
}

/// `members[0]` charging the summed cycles and instruction count of all
/// `members` (it keeps the first member's VA).
fn fused(members: &[TraceOp]) -> TraceOp {
    let mut op = members[0];
    op.cycles = members.iter().map(|m| m.cycles).sum();
    op.count = members.iter().map(|m| m.count).sum();
    op
}

/// The add form `(rd, rn, wrapping delta)` of an immediate `ADD`/`SUB`
/// (a folded accumulation is normalized to `AddImm`, its `imm`
/// authoritative).
fn imm_add(op: &TraceOp) -> Option<(Reg, Reg, u64)> {
    match op.insn {
        Insn::AddImm { rd, rn, .. } => Some((rd, rn, op.imm)),
        Insn::SubImm { rd, rn, .. } => Some((rd, rn, op.imm.wrapping_neg())),
        _ => None,
    }
}

/// The accumulation `(register, delta)` of an immediate add/sub into its
/// own source register.
fn imm_accum(op: &TraceOp) -> Option<(Reg, u64)> {
    imm_add(op)
        .filter(|&(rd, rn, _)| rd == rn && rd != Reg::Xzr)
        .map(|(rd, _, delta)| (rd, delta))
}

/// The memory-run shape of an op, `(base, offset, access)`, when it can
/// join a [`MemRun`]: a no-writeback `LDR/STR/LDP/STP` whose loads do not
/// overwrite the base (the run reads the base register once).
fn run_shape(insn: &Insn) -> Option<(Reg, i64, RunKind)> {
    match *insn {
        Insn::Ldr {
            rt,
            rn,
            mode: AddrMode::Unsigned(imm),
        } if rt != rn => Some((rn, i64::from(imm), RunKind::Ldr)),
        Insn::Str {
            rn,
            mode: AddrMode::Unsigned(imm),
            ..
        } => Some((rn, i64::from(imm), RunKind::Str)),
        Insn::Ldp {
            rt,
            rt2,
            rn,
            mode: PairMode::SignedOffset(imm),
        } if rt != rn && rt2 != rn => Some((rn, i64::from(imm), RunKind::Ldp)),
        Insn::Stp {
            rn,
            mode: PairMode::SignedOffset(imm),
            ..
        } => Some((rn, i64::from(imm), RunKind::Stp)),
        _ => None,
    }
}

/// Appends one block's `body` to `ops`, replacing each maximal run of two
/// or more consecutive same-base memory ops whose accesses fit one page
/// window with a single [`op_mem_run`] op. The run op charges the summed
/// cycles and instruction count of its accesses; its per-op handlers are
/// kept in the [`MemRun`] for the fallback.
fn fuse_mem_runs(body: &[TraceOp], ops: &mut Vec<TraceOp>, runs: &mut Vec<MemRun>, mems: &mut u16) {
    let mut i = 0;
    while i < body.len() {
        let Some((base, off, kind)) = run_shape(&body[i].insn) else {
            ops.push(body[i]);
            i += 1;
            continue;
        };
        let (mut lo, mut hi) = (off, off + kind.bytes());
        let mut shapes = vec![(off, kind)];
        while let Some((rn, off, kind)) = body
            .get(i + shapes.len())
            .and_then(|op| run_shape(&op.insn))
        {
            let (wlo, whi) = (lo.min(off), hi.max(off + kind.bytes()));
            if rn != base || whi - wlo > PAGE_SIZE as i64 {
                break;
            }
            (lo, hi) = (wlo, whi);
            shapes.push((off, kind));
        }
        let end = i + shapes.len();
        let members = &body[i..end];
        if members.len() < 2 {
            ops.push(body[i]);
            i += 1;
            continue;
        }
        let accesses: Vec<RunAccess> = members
            .iter()
            .zip(shapes)
            .map(|(m, (off, kind))| RunAccess {
                kind,
                rel: (off - lo) as u16,
                rt: m.rd,
                rt2: m.rm,
            })
            .collect();
        let mut op = fused(members);
        op.exec = op_mem_run;
        op.site = runs.len() as u16;
        runs.push(MemRun {
            lo: lo as u64,
            span: (hi - lo) as u64,
            has_loads: accesses
                .iter()
                .any(|a| matches!(a.kind, RunKind::Ldr | RunKind::Ldp)),
            has_stores: accesses
                .iter()
                .any(|a| matches!(a.kind, RunKind::Str | RunKind::Stp)),
            read_memo: alloc_site(mems),
            write_memo: alloc_site(mems),
            accesses,
            ops: members.to_vec(),
        });
        ops.push(op);
        i = end;
    }
}

fn alloc_site(sites: &mut u16) -> u16 {
    let i = *sites;
    *sites += 1;
    i
}

/// Builds the flattened op for one body instruction, folding its operands
/// into the flat [`TraceOp`] fields and picking the specialized handler
/// (also the handler table for terminators — [`make_term`] layers the
/// guard data on top).
fn make_op(insn: &Insn, va: u64, cost: &CostModel, sites: &mut u16, mems: &mut u16) -> TraceOp {
    let mut op = TraceOp {
        exec: op_step,
        insn: *insn,
        va,
        expected: va + 4,
        target: 0,
        imm: 0,
        imm2: 0,
        cycles: cost.cycles(insn) as u32,
        count: 1,
        pass: Pass::Next,
        site: u16::MAX,
        rd: Reg::Xzr,
        rn: Reg::Xzr,
        rm: Reg::Xzr,
        rs: Reg::Xzr,
        key: PacKey::IA,
        mode: AddrMode::Unsigned(0),
        pmode: PairMode::SignedOffset(0),
        sr: SysReg::CntvctEl0,
    };
    op.exec = match *insn {
        Insn::Movz { rd, imm16, shift } => {
            op.rd = rd;
            op.imm = u64::from(imm16) << (16 * shift);
            op_mov_const
        }
        Insn::Movn { rd, imm16, shift } => {
            op.rd = rd;
            op.imm = !(u64::from(imm16) << (16 * shift));
            op_mov_const
        }
        Insn::Adr { rd, offset } => {
            op.rd = rd;
            op.imm = va.wrapping_add(offset as i64 as u64);
            op_mov_const
        }
        Insn::Movk { rd, imm16, shift } => {
            op.rd = rd;
            op.imm = u64::from(imm16) << (16 * shift);
            op.imm2 = !(0xFFFFu64 << (16 * shift));
            op_movk
        }
        Insn::AddImm {
            rd,
            rn,
            imm12,
            shifted,
        } => {
            op.rd = rd;
            op.rn = rn;
            op.imm = if shifted {
                u64::from(imm12) << 12
            } else {
                u64::from(imm12)
            };
            op_add_imm
        }
        Insn::SubImm {
            rd,
            rn,
            imm12,
            shifted,
        } => {
            op.rd = rd;
            op.rn = rn;
            op.imm = if shifted {
                u64::from(imm12) << 12
            } else {
                u64::from(imm12)
            };
            op_sub_imm
        }
        Insn::AddReg { rd, rn, rm } => {
            op.rd = rd;
            op.rn = rn;
            op.rm = rm;
            op_add_reg
        }
        Insn::SubReg { rd, rn, rm } => {
            op.rd = rd;
            op.rn = rn;
            op.rm = rm;
            op_sub_reg
        }
        Insn::AndReg { rd, rn, rm } => {
            op.rd = rd;
            op.rn = rn;
            op.rm = rm;
            op_and_reg
        }
        Insn::OrrReg { rd, rn, rm } => {
            op.rd = rd;
            op.rn = rn;
            op.rm = rm;
            op_orr_reg
        }
        Insn::EorReg { rd, rn, rm } => {
            op.rd = rd;
            op.rn = rn;
            op.rm = rm;
            op_eor_reg
        }
        Insn::Bfm { rd, rn, immr, imms } => {
            op.rd = rd;
            op.rn = rn;
            let r = u32::from(immr);
            let s = u32::from(imms);
            if s >= r {
                // Extract-and-insert-low (BFXIL shape):
                //   (dst & !mask) | ((src >> r) & mask)
                op.imm = u64::from(r);
                op.imm2 = mask_lo(s - r + 1);
            } else {
                // Insert-at-lsb (BFI shape):
                //   (dst & !(mask << lsb)) | ((src << lsb) & (mask << lsb))
                op.imm = u64::from(64 - r);
                op.imm2 = mask_lo(s + 1) << (64 - r);
            }
            if s >= r {
                op_bfm_lo
            } else {
                op_bfm_hi
            }
        }
        Insn::Ubfm { rd, rn, immr, imms } => {
            op.rd = rd;
            op.rn = rn;
            let r = u32::from(immr);
            let s = u32::from(imms);
            if s >= r {
                // LSR/UBFX shape: (src >> r) & mask.
                op.imm = u64::from(r);
                op.imm2 = mask_lo(s - r + 1);
                op_ubfm_lsr
            } else {
                // LSL/UBFIZ shape: (src & mask) << (64 - r).
                op.imm = u64::from(64 - r);
                op.imm2 = mask_lo(s + 1);
                op_ubfm_lsl
            }
        }
        Insn::Ldr { rt, rn, mode } => {
            op.rd = rt;
            op.rn = rn;
            op.mode = mode;
            op.site = alloc_site(mems);
            op_ldr
        }
        Insn::Str { rt, rn, mode } => {
            op.rd = rt;
            op.rn = rn;
            op.mode = mode;
            op.site = alloc_site(mems);
            op_str
        }
        Insn::Ldp { rt, rt2, rn, mode } => {
            op.rd = rt;
            op.rm = rt2;
            op.rn = rn;
            op.pmode = mode;
            op.site = alloc_site(mems);
            op_ldp
        }
        Insn::Stp { rt, rt2, rn, mode } => {
            op.rd = rt;
            op.rm = rt2;
            op.rn = rn;
            op.pmode = mode;
            op.site = alloc_site(mems);
            op_stp
        }
        Insn::Msr { sr, rt } => {
            op.sr = sr;
            op.rd = rt;
            op_msr
        }
        Insn::Mrs { rt, sr } => {
            op.sr = sr;
            op.rd = rt;
            op_mrs
        }
        Insn::Xpaci { rd } | Insn::Xpacd { rd } => {
            op.rd = rd;
            op_xpac
        }
        Insn::Nop => op_nop,
        Insn::B { .. } => op_b,
        Insn::Bl { .. } => op_bl,
        Insn::Br { rn } => {
            op.rn = rn;
            op_br
        }
        Insn::Blr { rn } => {
            op.rn = rn;
            op_blr
        }
        Insn::Ret { rn } => {
            op.rn = rn;
            op_ret
        }
        Insn::Cbz { rt, .. } => {
            op.rd = rt;
            op_cbz
        }
        Insn::Cbnz { rt, .. } => {
            op.rd = rt;
            op_cbnz
        }
        Insn::Pac { key, rd, rn } => {
            op.key = key;
            op.rd = rd;
            op.rn = rn;
            op.site = alloc_site(sites);
            op_pac
        }
        Insn::Aut { key, rd, rn } => {
            op.key = key;
            op.rd = rd;
            op.rn = rn;
            op.site = alloc_site(sites);
            op_aut
        }
        Insn::PacSp { key } => {
            op.key = to_pac_key(key);
            op.rd = Reg::LR;
            op.site = alloc_site(sites);
            op_pac_sp
        }
        Insn::AutSp { key } => {
            op.key = to_pac_key(key);
            op.rd = Reg::LR;
            op.site = alloc_site(sites);
            op_aut_sp
        }
        Insn::Pac1716 { key } => {
            // Same handler as the register form: modifier in IP0, value
            // in IP1, key alias resolved here.
            op.key = to_pac_key(key);
            op.rd = Reg::IP1;
            op.rn = Reg::IP0;
            op.site = alloc_site(sites);
            op_pac
        }
        Insn::Aut1716 { key } => {
            op.key = to_pac_key(key);
            op.rd = Reg::IP1;
            op.rn = Reg::IP0;
            op.site = alloc_site(sites);
            op_aut
        }
        Insn::Reta { key } => {
            op.key = to_pac_key(key);
            op.rd = Reg::LR;
            op.site = alloc_site(sites);
            op_reta
        }
        Insn::Blra { key, rn, rm } => {
            op.key = to_pac_key(key);
            op.rn = rn;
            op.rm = rm;
            op.site = alloc_site(sites);
            op_blra
        }
        Insn::Bra { key, rn, rm } => {
            op.key = to_pac_key(key);
            op.rn = rn;
            op.rm = rm;
            op.site = alloc_site(sites);
            op_bra
        }
        // SVC/BRK/ERET/PACGA (and anything future) run through the full
        // one-instruction step semantics.
        _ => op_step,
    };
    op
}

/// Builds the guarded op for a block terminator: prediction from the
/// recording, precomputed PC-relative target.
fn make_term(
    insn: &Insn,
    va: u64,
    next: u64,
    cost: &CostModel,
    sites: &mut u16,
    mems: &mut u16,
) -> TraceOp {
    let mut op = make_op(insn, va, cost, sites, mems);
    op.expected = next;
    op.target = match insn {
        Insn::B { offset }
        | Insn::Bl { offset }
        | Insn::Cbz { offset, .. }
        | Insn::Cbnz { offset, .. } => va.wrapping_add(*offset as i64 as u64),
        _ => 0,
    };
    op
}

/// Applies the guard: the op computed `actual` as the next PC. A match
/// follows the trace's plan; a mismatch materializes the PC and leaves.
#[inline]
fn guard(cpu: &mut Cpu, op: &TraceOp, actual: u64) -> OpOutcome {
    if actual == op.expected {
        match op.pass {
            Pass::Next => OpOutcome::Next,
            Pass::Jump(i) => OpOutcome::Jump(i),
            Pass::End => {
                cpu.state.pc = actual;
                OpOutcome::End
            }
        }
    } else {
        cpu.state.pc = actual;
        OpOutcome::Side
    }
}

/// The post-store self-modification guard: a store that hit any
/// constituent code page leaves the trace after the store, exactly as
/// tier 1 aborts its block (the trace is strictly more conservative — it
/// also leaves for stores into *other* constituent pages).
///
/// `written` is the frame the store wrote, when it took the
/// single-translation path. Inside one trace execution only the trace's
/// own stores can move its pages' write versions (entry validated them,
/// and the first store that hits one leaves), so comparing the
/// destination frame with the pages is equivalent to re-reading every
/// page version — which remains the check for a store that took the
/// general path (`None`: page-crossing, or caches off).
#[inline]
fn smc_check(
    cpu: &mut Cpu,
    mem: &Memory,
    op: &TraceOp,
    tc: &TraceCtx,
    written: Option<Frame>,
) -> OpOutcome {
    let hit = match written {
        Some(frame) => tc.pages.iter().any(|p| p.frame == frame),
        None => tc
            .pages
            .iter()
            .any(|p| mem.phys().frame_version(p.frame) != p.version),
    };
    if hit {
        cpu.state.pc = op.va + 4;
        return OpOutcome::Side;
    }
    OpOutcome::Next
}

/// The generic fallback: full one-instruction step semantics (used for
/// `SVC`/`BRK`/`ERET`/`PACGA`), guarded like any other op.
fn op_step(
    cpu: &mut Cpu,
    mem: &mut Memory,
    ctx: &TranslationCtx,
    op: &TraceOp,
    tc: &mut TraceCtx,
) -> OpOutcome {
    // Materialize the PC first so an unhandled fault observes the same
    // architectural state the step path would leave.
    cpu.state.pc = op.va;
    match cpu.execute(mem, op.insn, op.va, ctx) {
        Ok(Step::Executed) => {
            if cpu.state.pc == op.expected {
                match op.pass {
                    Pass::Next => OpOutcome::Next,
                    Pass::Jump(i) => OpOutcome::Jump(i),
                    Pass::End => OpOutcome::End,
                }
            } else {
                OpOutcome::Side
            }
        }
        other => {
            tc.exit = Some(other);
            OpOutcome::Exit
        }
    }
}

macro_rules! trace_mem_try {
    ($cpu:expr, $op:expr, $tc:expr, $e:expr) => {{
        // Bind first: borrows inside `$e` (the op's memo slot) must end
        // before the fault arm takes `$tc` again.
        let result = $e;
        match result {
            Ok(v) => v,
            Err(fault) => {
                // Tier 1 reaches `vectored_fault` with the PC still at the
                // faulting instruction; match it before vectoring.
                $cpu.state.pc = $op.va;
                $tc.exit = Some($cpu.vectored_fault(fault, $op.va, false));
                return OpOutcome::Exit;
            }
        }
    }};
}

/// `MOVZ`/`MOVN`/`ADR`: the whole result folded to a constant at build.
fn op_mov_const(
    cpu: &mut Cpu,
    _mem: &mut Memory,
    _ctx: &TranslationCtx,
    op: &TraceOp,
    _tc: &mut TraceCtx,
) -> OpOutcome {
    cpu.state.write(op.rd, op.imm);
    OpOutcome::Next
}

fn op_movk(
    cpu: &mut Cpu,
    _mem: &mut Memory,
    _ctx: &TranslationCtx,
    op: &TraceOp,
    _tc: &mut TraceCtx,
) -> OpOutcome {
    let old = cpu.state.read(op.rd);
    cpu.state.write(op.rd, (old & op.imm2) | op.imm);
    OpOutcome::Next
}

fn op_add_imm(
    cpu: &mut Cpu,
    _mem: &mut Memory,
    _ctx: &TranslationCtx,
    op: &TraceOp,
    _tc: &mut TraceCtx,
) -> OpOutcome {
    let v = cpu.state.read(op.rn).wrapping_add(op.imm);
    cpu.state.write(op.rd, v);
    OpOutcome::Next
}

fn op_sub_imm(
    cpu: &mut Cpu,
    _mem: &mut Memory,
    _ctx: &TranslationCtx,
    op: &TraceOp,
    _tc: &mut TraceCtx,
) -> OpOutcome {
    let v = cpu.state.read(op.rn).wrapping_sub(op.imm);
    cpu.state.write(op.rd, v);
    OpOutcome::Next
}

fn op_add_reg(
    cpu: &mut Cpu,
    _mem: &mut Memory,
    _ctx: &TranslationCtx,
    op: &TraceOp,
    _tc: &mut TraceCtx,
) -> OpOutcome {
    let v = cpu.state.read(op.rn).wrapping_add(cpu.state.read(op.rm));
    cpu.state.write(op.rd, v);
    OpOutcome::Next
}

fn op_sub_reg(
    cpu: &mut Cpu,
    _mem: &mut Memory,
    _ctx: &TranslationCtx,
    op: &TraceOp,
    _tc: &mut TraceCtx,
) -> OpOutcome {
    let v = cpu.state.read(op.rn).wrapping_sub(cpu.state.read(op.rm));
    cpu.state.write(op.rd, v);
    OpOutcome::Next
}

fn op_and_reg(
    cpu: &mut Cpu,
    _mem: &mut Memory,
    _ctx: &TranslationCtx,
    op: &TraceOp,
    _tc: &mut TraceCtx,
) -> OpOutcome {
    let v = cpu.state.read(op.rn) & cpu.state.read(op.rm);
    cpu.state.write(op.rd, v);
    OpOutcome::Next
}

fn op_orr_reg(
    cpu: &mut Cpu,
    _mem: &mut Memory,
    _ctx: &TranslationCtx,
    op: &TraceOp,
    _tc: &mut TraceCtx,
) -> OpOutcome {
    let v = cpu.state.read(op.rn) | cpu.state.read(op.rm);
    cpu.state.write(op.rd, v);
    OpOutcome::Next
}

fn op_eor_reg(
    cpu: &mut Cpu,
    _mem: &mut Memory,
    _ctx: &TranslationCtx,
    op: &TraceOp,
    _tc: &mut TraceCtx,
) -> OpOutcome {
    let v = cpu.state.read(op.rn) ^ cpu.state.read(op.rm);
    cpu.state.write(op.rd, v);
    OpOutcome::Next
}

/// `BFM`, extract-and-insert-low shape: `imm` = field shift, `imm2` =
/// low mask.
fn op_bfm_lo(
    cpu: &mut Cpu,
    _mem: &mut Memory,
    _ctx: &TranslationCtx,
    op: &TraceOp,
    _tc: &mut TraceCtx,
) -> OpOutcome {
    let src = cpu.state.read(op.rn);
    let dst = cpu.state.read(op.rd);
    let field = (src >> op.imm) & op.imm2;
    cpu.state.write(op.rd, (dst & !op.imm2) | field);
    OpOutcome::Next
}

/// `BFM`, insert-at-lsb shape: `imm` = lsb, `imm2` = positioned mask.
fn op_bfm_hi(
    cpu: &mut Cpu,
    _mem: &mut Memory,
    _ctx: &TranslationCtx,
    op: &TraceOp,
    _tc: &mut TraceCtx,
) -> OpOutcome {
    let src = cpu.state.read(op.rn);
    let dst = cpu.state.read(op.rd);
    cpu.state
        .write(op.rd, (dst & !op.imm2) | ((src << op.imm) & op.imm2));
    OpOutcome::Next
}

/// `UBFM`, right-shift shape: `imm` = shift, `imm2` = mask.
fn op_ubfm_lsr(
    cpu: &mut Cpu,
    _mem: &mut Memory,
    _ctx: &TranslationCtx,
    op: &TraceOp,
    _tc: &mut TraceCtx,
) -> OpOutcome {
    let v = (cpu.state.read(op.rn) >> op.imm) & op.imm2;
    cpu.state.write(op.rd, v);
    OpOutcome::Next
}

/// `UBFM`, left-shift shape: `imm` = shift, `imm2` = pre-shift mask.
fn op_ubfm_lsl(
    cpu: &mut Cpu,
    _mem: &mut Memory,
    _ctx: &TranslationCtx,
    op: &TraceOp,
    _tc: &mut TraceCtx,
) -> OpOutcome {
    let v = (cpu.state.read(op.rn) & op.imm2) << op.imm;
    cpu.state.write(op.rd, v);
    OpOutcome::Next
}

fn op_ldr(
    cpu: &mut Cpu,
    mem: &mut Memory,
    ctx: &TranslationCtx,
    op: &TraceOp,
    tc: &mut TraceCtx,
) -> OpOutcome {
    let addr = cpu.addr_single(op.rn, op.mode);
    let v = trace_mem_try!(
        cpu,
        op,
        tc,
        mem.read_u64_memo(ctx, addr, &mut tc.mems[usize::from(op.site)])
    );
    cpu.state.write(op.rd, v);
    OpOutcome::Next
}

fn op_str(
    cpu: &mut Cpu,
    mem: &mut Memory,
    ctx: &TranslationCtx,
    op: &TraceOp,
    tc: &mut TraceCtx,
) -> OpOutcome {
    let addr = cpu.addr_single(op.rn, op.mode);
    let v = cpu.state.read(op.rd);
    let written = trace_mem_try!(
        cpu,
        op,
        tc,
        mem.write_u64_memo(ctx, addr, v, &mut tc.mems[usize::from(op.site)])
    );
    smc_check(cpu, mem, op, tc, written)
}

fn op_ldp(
    cpu: &mut Cpu,
    mem: &mut Memory,
    ctx: &TranslationCtx,
    op: &TraceOp,
    tc: &mut TraceCtx,
) -> OpOutcome {
    let addr = cpu.addr_pair(op.rn, op.pmode);
    let (v1, v2) = trace_mem_try!(
        cpu,
        op,
        tc,
        mem.read_u64_pair_memo(ctx, addr, &mut tc.mems[usize::from(op.site)])
    );
    cpu.state.write(op.rd, v1);
    cpu.state.write(op.rm, v2);
    OpOutcome::Next
}

fn op_stp(
    cpu: &mut Cpu,
    mem: &mut Memory,
    ctx: &TranslationCtx,
    op: &TraceOp,
    tc: &mut TraceCtx,
) -> OpOutcome {
    let addr = cpu.addr_pair(op.rn, op.pmode);
    let v1 = cpu.state.read(op.rd);
    let v2 = cpu.state.read(op.rm);
    let written = trace_mem_try!(
        cpu,
        op,
        tc,
        mem.write_u64_pair_memo(ctx, addr, v1, v2, &mut tc.mems[usize::from(op.site)])
    );
    smc_check(cpu, mem, op, tc, written)
}

/// A fused memory run (see [`MemRun`]): one translation per access type,
/// then every access in order on the one frame they all land in, each
/// stored qword bumping the frame's write version as `write_u64` does.
/// Whenever that shortcut is not provably exact — the window crosses a
/// page, the caches are off, a translation fails, or a store would land in
/// one of the trace's own code pages — the run executes through its
/// per-op handlers instead (see [`mem_run_fallback`]).
fn op_mem_run(
    cpu: &mut Cpu,
    mem: &mut Memory,
    ctx: &TranslationCtx,
    op: &TraceOp,
    tc: &mut TraceCtx,
) -> OpOutcome {
    let runs = tc.runs;
    let run = &runs[usize::from(op.site)];
    // No load of the run writes the base, so one read serves every access.
    let start = cpu.state.read(op.rn).wrapping_add(run.lo);
    let off = start % PAGE_SIZE;
    if off + run.span > PAGE_SIZE || !mem.caching() {
        return mem_run_fallback(cpu, mem, ctx, run, tc);
    }
    let Some(frame) = run_frame(mem, ctx, start, run, tc) else {
        return mem_run_fallback(cpu, mem, ctx, run, tc);
    };
    let Some(mut page) = mem.phys_mut().page_mut(frame) else {
        return mem_run_fallback(cpu, mem, ctx, run, tc);
    };
    let off = off as usize;
    for a in &run.accesses {
        let at = off + usize::from(a.rel);
        match a.kind {
            RunKind::Ldr => {
                let v = page.read_u64(at);
                cpu.state.write(a.rt, v);
            }
            RunKind::Str => page.write_u64(at, cpu.state.read(a.rt)),
            RunKind::Ldp => {
                let v1 = page.read_u64(at);
                let v2 = page.read_u64(at + 8);
                cpu.state.write(a.rt, v1);
                cpu.state.write(a.rt2, v2);
            }
            RunKind::Stp => {
                let v1 = cpu.state.read(a.rt);
                let v2 = cpu.state.read(a.rt2);
                page.write_u64(at, v1);
                page.write_u64(at + 8, v2);
            }
        }
    }
    OpOutcome::Next
}

/// The frame a run's single-page window at `start` lands in, translated
/// once per access type the run performs through its own memos; `None`
/// when a translation fails or a store would hit a trace code page. Both
/// translations walk the same stage-1 entry, so they name one frame.
#[inline]
fn run_frame(
    mem: &Memory,
    ctx: &TranslationCtx,
    start: u64,
    run: &MemRun,
    tc: &mut TraceCtx,
) -> Option<Frame> {
    let mut read = None;
    if run.has_loads {
        let memo = &mut tc.mems[usize::from(run.read_memo)];
        read = Some(
            mem.translate_memo(ctx, start, AccessType::Read, memo)
                .ok()?,
        );
    }
    if !run.has_stores {
        return read.map(Frame::containing);
    }
    let memo = &mut tc.mems[usize::from(run.write_memo)];
    let frame = Frame::containing(
        mem.translate_memo(ctx, start, AccessType::Write, memo)
            .ok()?,
    );
    (!tc.pages.iter().any(|p| p.frame == frame)).then_some(frame)
}

/// A fused run's exact fallback: its accesses through the ordinary per-op
/// handlers, in order, so faults, side exits and their PCs match the
/// unfused trace (and so the step path). The run op was charged for every
/// access up front; when one leaves the trace — a fault, or a store into
/// the trace's own code — the accesses after it never execute, and their
/// charge is refunded exactly as the step path never charges them.
#[cold]
#[inline(never)]
fn mem_run_fallback(
    cpu: &mut Cpu,
    mem: &mut Memory,
    ctx: &TranslationCtx,
    run: &MemRun,
    tc: &mut TraceCtx,
) -> OpOutcome {
    for (k, member) in run.ops.iter().enumerate() {
        let out = (member.exec)(cpu, mem, ctx, member, tc);
        if out != OpOutcome::Next {
            let rest = &run.ops[k + 1..];
            tc.refund_cycles = rest.iter().map(|m| u64::from(m.cycles)).sum();
            tc.refund_insns = rest.iter().map(|m| u64::from(m.count)).sum();
            return out;
        }
    }
    OpOutcome::Next
}

fn op_msr(
    cpu: &mut Cpu,
    _mem: &mut Memory,
    _ctx: &TranslationCtx,
    op: &TraceOp,
    tc: &mut TraceCtx,
) -> OpOutcome {
    msr(cpu, op, tc, op.va)
}

/// Shape 2 of the fold pass: the constant `imm` into `rd`, then `MSR sr,
/// rd`. At EL0 the `MSR` traps at its own VA with the constant already
/// written, exactly as the unfused pair would.
fn op_const_msr(
    cpu: &mut Cpu,
    _mem: &mut Memory,
    _ctx: &TranslationCtx,
    op: &TraceOp,
    tc: &mut TraceCtx,
) -> OpOutcome {
    cpu.state.write(op.rd, op.imm);
    msr(cpu, op, tc, op.va + 4 * (u64::from(op.count) - 1))
}

/// `MSR op.sr, op.rd` at `va`: the EL0 trap, the key-write count and the
/// system-register write of the step semantics.
#[inline]
fn msr(cpu: &mut Cpu, op: &TraceOp, tc: &mut TraceCtx, va: u64) -> OpOutcome {
    if cpu.state.el != El::El1 && op.sr != SysReg::CntvctEl0 {
        cpu.take_exception(ec::TRAPPED_MSR, 0, va, None, false);
        tc.exit = Some(Ok(Step::FaultTaken {
            fault: MemFault::Permission {
                va,
                access: AccessType::Write,
                el: El::El0,
            },
        }));
        return OpOutcome::Exit;
    }
    if op.sr.is_pauth_key() {
        cpu.stats.key_writes += 1;
    }
    let v = cpu.state.read(op.rd);
    cpu.state.set_sysreg(op.sr, v);
    OpOutcome::Next
}

fn op_mrs(
    cpu: &mut Cpu,
    _mem: &mut Memory,
    _ctx: &TranslationCtx,
    op: &TraceOp,
    tc: &mut TraceCtx,
) -> OpOutcome {
    if cpu.state.el != El::El1 && op.sr != SysReg::CntvctEl0 {
        cpu.take_exception(ec::TRAPPED_MSR, 0, op.va, None, false);
        tc.exit = Some(Ok(Step::FaultTaken {
            fault: MemFault::Permission {
                va: op.va,
                access: AccessType::Read,
                el: El::El0,
            },
        }));
        return OpOutcome::Exit;
    }
    // `MRS CNTVCT_EL0` is fallback-classed and can never join a trace,
    // so this is always a plain system-register read.
    let v = cpu.state.sysreg(op.sr);
    cpu.state.write(op.rd, v);
    OpOutcome::Next
}

fn op_xpac(
    cpu: &mut Cpu,
    _mem: &mut Memory,
    _ctx: &TranslationCtx,
    op: &TraceOp,
    _tc: &mut TraceCtx,
) -> OpOutcome {
    let v = strip_pac(cpu.state.read(op.rd), cpu.tbi_user);
    cpu.state.write(op.rd, v);
    OpOutcome::Next
}

fn op_nop(
    _cpu: &mut Cpu,
    _mem: &mut Memory,
    _ctx: &TranslationCtx,
    _op: &TraceOp,
    _tc: &mut TraceCtx,
) -> OpOutcome {
    OpOutcome::Next
}

fn op_b(
    cpu: &mut Cpu,
    _mem: &mut Memory,
    _ctx: &TranslationCtx,
    op: &TraceOp,
    _tc: &mut TraceCtx,
) -> OpOutcome {
    guard(cpu, op, op.target)
}

fn op_bl(
    cpu: &mut Cpu,
    _mem: &mut Memory,
    _ctx: &TranslationCtx,
    op: &TraceOp,
    _tc: &mut TraceCtx,
) -> OpOutcome {
    cpu.state.write(Reg::LR, op.va + 4);
    guard(cpu, op, op.target)
}

fn op_br(
    cpu: &mut Cpu,
    _mem: &mut Memory,
    _ctx: &TranslationCtx,
    op: &TraceOp,
    _tc: &mut TraceCtx,
) -> OpOutcome {
    let actual = cpu.state.read(op.rn);
    guard(cpu, op, actual)
}

fn op_blr(
    cpu: &mut Cpu,
    _mem: &mut Memory,
    _ctx: &TranslationCtx,
    op: &TraceOp,
    _tc: &mut TraceCtx,
) -> OpOutcome {
    // Read the target before the LR write, like the step semantics
    // (BLR LR branches to the *old* LR).
    let actual = cpu.state.read(op.rn);
    cpu.state.write(Reg::LR, op.va + 4);
    guard(cpu, op, actual)
}

fn op_ret(
    cpu: &mut Cpu,
    _mem: &mut Memory,
    _ctx: &TranslationCtx,
    op: &TraceOp,
    _tc: &mut TraceCtx,
) -> OpOutcome {
    let actual = cpu.state.read(op.rn);
    guard(cpu, op, actual)
}

fn op_cbz(
    cpu: &mut Cpu,
    _mem: &mut Memory,
    _ctx: &TranslationCtx,
    op: &TraceOp,
    _tc: &mut TraceCtx,
) -> OpOutcome {
    let actual = if cpu.state.read(op.rd) == 0 {
        op.target
    } else {
        op.va + 4
    };
    guard(cpu, op, actual)
}

fn op_cbnz(
    cpu: &mut Cpu,
    _mem: &mut Memory,
    _ctx: &TranslationCtx,
    op: &TraceOp,
    _tc: &mut TraceCtx,
) -> OpOutcome {
    let actual = if cpu.state.read(op.rd) != 0 {
        op.target
    } else {
        op.va + 4
    };
    guard(cpu, op, actual)
}

/// Shape 4 of the fold pass: `rd = rn + imm`, then `CBZ rd`. The op keeps
/// the add's VA, so the branch falls through to `va + 4·count`.
fn op_count_cbz(
    cpu: &mut Cpu,
    _mem: &mut Memory,
    _ctx: &TranslationCtx,
    op: &TraceOp,
    _tc: &mut TraceCtx,
) -> OpOutcome {
    let v = cpu.state.read(op.rn).wrapping_add(op.imm);
    cpu.state.write(op.rd, v);
    let actual = if v == 0 {
        op.target
    } else {
        op.va + 4 * u64::from(op.count)
    };
    guard(cpu, op, actual)
}

/// Shape 4 with `CBNZ` (the countdown loop's back edge).
fn op_count_cbnz(
    cpu: &mut Cpu,
    _mem: &mut Memory,
    _ctx: &TranslationCtx,
    op: &TraceOp,
    _tc: &mut TraceCtx,
) -> OpOutcome {
    let v = cpu.state.read(op.rn).wrapping_add(op.imm);
    cpu.state.write(op.rd, v);
    let actual = if v != 0 {
        op.target
    } else {
        op.va + 4 * u64::from(op.count)
    };
    guard(cpu, op, actual)
}

/// The site-memoized PAC sign: architecturally identical to
/// [`Cpu::do_pac`] (same NOP-when-disabled rule, same counter), with the
/// whole computation served from the site when the inputs repeat.
fn site_pac(cpu: &mut Cpu, site: &mut PacSite, key: PacKey, rd: Reg, modifier: u64) {
    if !cpu.state.key_enabled(key.to_pauth_key()) {
        return; // architecturally a NOP when the key is disabled
    }
    let value = cpu.state.read(rd);
    let qkey = cpu.key_for(key);
    let tbi = cpu.tbi_user;
    if site.valid
        && site.value == value
        && site.modifier == modifier
        && site.key == qkey
        && site.tbi == tbi
    {
        cpu.state.write(rd, site.result);
        cpu.stats.pac_signs += 1;
        return;
    }
    let signed = cpu.pac_unit.add_pac(value, modifier, qkey, tbi);
    *site = PacSite {
        valid: true,
        ok: true,
        tbi,
        key: qkey,
        modifier,
        value,
        result: signed,
    };
    cpu.state.write(rd, signed);
    cpu.stats.pac_signs += 1;
}

fn count_auth(cpu: &mut Cpu, ok: bool, class: KeyClass) {
    if ok {
        cpu.stats.pac_auth_ok += 1;
    } else {
        cpu.stats.pac_auth_fail += 1;
        match class {
            KeyClass::Instruction => cpu.stats.pac_auth_fail_instr += 1,
            KeyClass::Data => cpu.stats.pac_auth_fail_data += 1,
        }
    }
}

/// The site-memoized authentication: architecturally identical to
/// [`Cpu::do_aut`] (same disabled-key passthrough, same ok/fail counter
/// classes, same corrupted-pointer result on failure).
fn site_aut(cpu: &mut Cpu, site: &mut PacSite, key: PacKey, rd: Reg, modifier: u64) -> u64 {
    let value = cpu.state.read(rd);
    if !cpu.state.key_enabled(key.to_pauth_key()) {
        return value;
    }
    let qkey = cpu.key_for(key);
    let tbi = cpu.tbi_user;
    let class = class_of(key);
    if site.valid
        && site.value == value
        && site.modifier == modifier
        && site.key == qkey
        && site.tbi == tbi
    {
        count_auth(cpu, site.ok, class);
        cpu.state.write(rd, site.result);
        return site.result;
    }
    let (ok, out) = match cpu.pac_unit.auth_pac(value, modifier, qkey, class, tbi) {
        Ok(stripped) => (true, stripped),
        Err(corrupted) => (false, corrupted),
    };
    count_auth(cpu, ok, class);
    *site = PacSite {
        valid: true,
        ok,
        tbi,
        key: qkey,
        modifier,
        value,
        result: out,
    };
    cpu.state.write(rd, out);
    out
}

/// `PACxx` register form and `PACIA1716`-style hint form (key alias,
/// value register and modifier register pre-resolved by [`make_op`]).
fn op_pac(
    cpu: &mut Cpu,
    _mem: &mut Memory,
    _ctx: &TranslationCtx,
    op: &TraceOp,
    tc: &mut TraceCtx,
) -> OpOutcome {
    let modifier = cpu.state.read(op.rn);
    site_pac(
        cpu,
        &mut tc.sites[usize::from(op.site)],
        op.key,
        op.rd,
        modifier,
    );
    OpOutcome::Next
}

/// `AUTxx` register form and `AUTIA1716`-style hint form.
fn op_aut(
    cpu: &mut Cpu,
    _mem: &mut Memory,
    _ctx: &TranslationCtx,
    op: &TraceOp,
    tc: &mut TraceCtx,
) -> OpOutcome {
    let modifier = cpu.state.read(op.rn);
    site_aut(
        cpu,
        &mut tc.sites[usize::from(op.site)],
        op.key,
        op.rd,
        modifier,
    );
    OpOutcome::Next
}

/// The modifier a shape-3 fold builds: the copy `rm ← rs` (a plain
/// rewrite of `rm` when the shape had no copy), then `rn ← BFM(constant,
/// rm)` — `imm` is the constant with the field cleared, `imm2` the field
/// mask, `target` the `BFM` rotation.
#[inline]
fn build_modifier(cpu: &mut Cpu, op: &TraceOp) -> u64 {
    let src = cpu.state.read(op.rs);
    cpu.state.write(op.rm, src);
    let modifier = op.imm | (src.rotate_right(op.target as u32) & op.imm2);
    cpu.state.write(op.rn, modifier);
    modifier
}

/// Shape 3 of the fold pass, signing: build the modifier, then `PAC*`
/// through the site memo. A disabled key leaves the sign a NOP, the
/// modifier registers still written.
fn op_mod_pac(
    cpu: &mut Cpu,
    _mem: &mut Memory,
    _ctx: &TranslationCtx,
    op: &TraceOp,
    tc: &mut TraceCtx,
) -> OpOutcome {
    let modifier = build_modifier(cpu, op);
    site_pac(
        cpu,
        &mut tc.sites[usize::from(op.site)],
        op.key,
        op.rd,
        modifier,
    );
    OpOutcome::Next
}

/// Shape 3 of the fold pass, authenticating.
fn op_mod_aut(
    cpu: &mut Cpu,
    _mem: &mut Memory,
    _ctx: &TranslationCtx,
    op: &TraceOp,
    tc: &mut TraceCtx,
) -> OpOutcome {
    let modifier = build_modifier(cpu, op);
    site_aut(
        cpu,
        &mut tc.sites[usize::from(op.site)],
        op.key,
        op.rd,
        modifier,
    );
    OpOutcome::Next
}

fn op_pac_sp(
    cpu: &mut Cpu,
    _mem: &mut Memory,
    _ctx: &TranslationCtx,
    op: &TraceOp,
    tc: &mut TraceCtx,
) -> OpOutcome {
    let modifier = cpu.state.sp();
    site_pac(
        cpu,
        &mut tc.sites[usize::from(op.site)],
        op.key,
        op.rd,
        modifier,
    );
    OpOutcome::Next
}

fn op_aut_sp(
    cpu: &mut Cpu,
    _mem: &mut Memory,
    _ctx: &TranslationCtx,
    op: &TraceOp,
    tc: &mut TraceCtx,
) -> OpOutcome {
    let modifier = cpu.state.sp();
    site_aut(
        cpu,
        &mut tc.sites[usize::from(op.site)],
        op.key,
        op.rd,
        modifier,
    );
    OpOutcome::Next
}

fn op_reta(
    cpu: &mut Cpu,
    _mem: &mut Memory,
    _ctx: &TranslationCtx,
    op: &TraceOp,
    tc: &mut TraceCtx,
) -> OpOutcome {
    let modifier = cpu.state.sp();
    let actual = site_aut(
        cpu,
        &mut tc.sites[usize::from(op.site)],
        op.key,
        op.rd,
        modifier,
    );
    guard(cpu, op, actual)
}

fn op_blra(
    cpu: &mut Cpu,
    _mem: &mut Memory,
    _ctx: &TranslationCtx,
    op: &TraceOp,
    tc: &mut TraceCtx,
) -> OpOutcome {
    let modifier = cpu.state.read(op.rm);
    // Authenticate first, then write LR — step-semantics order.
    let actual = site_aut(
        cpu,
        &mut tc.sites[usize::from(op.site)],
        op.key,
        op.rn,
        modifier,
    );
    cpu.state.write(Reg::LR, op.va + 4);
    guard(cpu, op, actual)
}

fn op_bra(
    cpu: &mut Cpu,
    _mem: &mut Memory,
    _ctx: &TranslationCtx,
    op: &TraceOp,
    tc: &mut TraceCtx,
) -> OpOutcome {
    let modifier = cpu.state.read(op.rm);
    let actual = site_aut(
        cpu,
        &mut tc.sites[usize::from(op.site)],
        op.key,
        op.rn,
        modifier,
    );
    guard(cpu, op, actual)
}

#[cfg(test)]
mod tests {
    use super::*;
    use camo_isa::{encode, PauthKey, Reg};
    use camo_mem::{S1Attr, KERNEL_BASE};
    use camo_qarma::QarmaKey;

    const CALL_LOOP: u64 = KERNEL_BASE + 0x100;

    /// `BFI x16, x17, #32, #32` of Listing 3.
    fn listing3_bfi() -> Insn {
        Insn::bfi(Reg::IP0, Reg::IP1, 32, 32)
    }

    /// The empty function of Figure 2 under Camouflage: the Listing 3
    /// modifier and `PACIB` in the prologue, the frame record, and the
    /// modifier and `AUTIB` in the epilogue.
    fn empty_fn() -> Vec<Insn> {
        vec![
            Insn::Adr {
                rd: Reg::IP0,
                offset: 0,
            },
            Insn::mov_sp(Reg::IP1, Reg::Sp),
            listing3_bfi(),
            Insn::Pac {
                key: PacKey::IB,
                rd: Reg::LR,
                rn: Reg::IP0,
            },
            Insn::Stp {
                rt: Reg::FP,
                rt2: Reg::LR,
                rn: Reg::Sp,
                mode: PairMode::Pre(-16),
            },
            Insn::mov_sp(Reg::FP, Reg::Sp),
            Insn::Ldp {
                rt: Reg::FP,
                rt2: Reg::LR,
                rn: Reg::Sp,
                mode: PairMode::Post(16),
            },
            Insn::Adr {
                rd: Reg::IP0,
                offset: -4 * 7,
            },
            Insn::mov_sp(Reg::IP1, Reg::Sp),
            listing3_bfi(),
            Insn::Aut {
                key: PacKey::IB,
                rd: Reg::LR,
                rn: Reg::IP0,
            },
            Insn::ret(),
        ]
    }

    /// The uninstrumented loop calling the empty function `x0` times.
    fn call_loop() -> Vec<Insn> {
        vec![
            Insn::mov(Reg::x(19), Reg::LR),
            Insn::mov(Reg::x(20), Reg::x(0)),
            Insn::Bl {
                offset: (KERNEL_BASE as i64 - (CALL_LOOP + 8) as i64) as i32,
            },
            Insn::SubImm {
                rd: Reg::x(20),
                rn: Reg::x(20),
                imm12: 1,
                shifted: false,
            },
            Insn::Cbnz {
                rt: Reg::x(20),
                offset: -8,
            },
            Insn::mov(Reg::LR, Reg::x(19)),
            Insn::ret(),
        ]
    }

    /// A core with the empty function at [`KERNEL_BASE`], the call loop
    /// at [`CALL_LOOP`] and a stack page above the text.
    fn fig2_machine() -> (Cpu, Memory) {
        let mut mem = Memory::new();
        let table = mem.new_table();
        let text = mem.map_new(table, KERNEL_BASE, S1Attr::kernel_text());
        let stack = KERNEL_BASE + PAGE_SIZE;
        mem.map_new(table, stack, S1Attr::kernel_data());
        for (base, code) in [(0, empty_fn()), (CALL_LOOP - KERNEL_BASE, call_loop())] {
            for (i, insn) in code.iter().enumerate() {
                mem.phys_mut()
                    .write_u32(text.base() + base + 4 * i as u64, encode(insn))
                    .unwrap();
            }
        }
        let mut cpu = Cpu::default();
        cpu.state.set_sysreg(SysReg::Ttbr0El1, table.raw());
        cpu.state.set_sysreg(SysReg::Ttbr1El1, table.raw());
        cpu.state.set_pauth_key(PauthKey::IB, QarmaKey::new(13, 14));
        cpu.state.sp_el1 = stack + PAGE_SIZE - 64;
        (cpu, mem)
    }

    #[test]
    fn trace_op_stays_96_bytes() {
        assert_eq!(std::mem::size_of::<TraceOp>(), 96);
    }

    /// The Figure-2 loop is one trace of 15 instructions per call: the
    /// empty function (11 body ops + `RET`), the call loop's `SUB`+`CBNZ`
    /// and its `BL`. The two modifier sequences fold to one op each and
    /// the counter joins its branch, so the trace dispatches 8 ops — and
    /// stays bit-identical to the step path.
    #[test]
    fn fig2_call_loop_folds_fifteen_instructions_into_eight_ops() {
        const ITERS: u64 = 200;
        let (mut cpu, mut mem) = fig2_machine();
        let traced = cpu.call(&mut mem, CALL_LOOP, &[ITERS], 1 << 20).unwrap();
        let trace = cpu
            .trace_cache
            .iter()
            .flatten()
            .find(|t| t.entry_va == KERNEL_BASE)
            .expect("the call loop promoted into a trace headed by the callee");
        let counts: Vec<u16> = trace.ops.iter().map(|op| op.count).collect();
        assert_eq!(counts, [4, 1, 1, 1, 4, 1, 2, 1], "ops per fused shape");
        assert_eq!(counts.iter().map(|&c| u64::from(c)).sum::<u64>(), 15);

        let (mut step, mut step_mem) = fig2_machine();
        step.set_block_engine(false);
        step.set_caching(false);
        step_mem.set_caching(false);
        let reference = step
            .call(&mut step_mem, CALL_LOOP, &[ITERS], 1 << 20)
            .unwrap();
        assert_eq!(traced, reference);
        assert_eq!(cpu.state.gprs, step.state.gprs);
        assert!(cpu.stats().arch_eq(&step.stats()));
    }

    /// Folds `insns` as one block body at [`KERNEL_BASE`] with `term`
    /// closing it; returns each resulting op's `count`.
    fn fold_counts(insns: &[Insn], term: Option<Insn>) -> Vec<u16> {
        let cost = CostModel::default();
        let (mut sites, mut mems) = (0, 0);
        let body: Vec<TraceOp> = insns
            .iter()
            .enumerate()
            .map(|(i, insn)| {
                make_op(
                    insn,
                    KERNEL_BASE + 4 * i as u64,
                    &cost,
                    &mut sites,
                    &mut mems,
                )
            })
            .collect();
        let end = KERNEL_BASE + 4 * insns.len() as u64;
        let term = term.map(|t| make_term(&t, end, end + 4, &cost, &mut sites, &mut mems));
        let (body, term) = fold_block(&body, term);
        body.iter().chain(&term).map(|op| op.count).collect()
    }

    fn movz(rd: Reg, imm16: u16) -> Insn {
        Insn::Movz {
            rd,
            imm16,
            shift: 0,
        }
    }

    fn movk(rd: Reg, imm16: u16, shift: u8) -> Insn {
        Insn::Movk { rd, imm16, shift }
    }

    fn pacdb(rd: Reg, rn: Reg) -> Insn {
        Insn::Pac {
            key: PacKey::DB,
            rd,
            rn,
        }
    }

    /// Each shape folds whole, and each aliasing variant stays unfused.
    #[test]
    fn fold_pass_takes_exact_shapes_only() {
        let (x0, x1, x8, x9) = (Reg::x(0), Reg::x(1), Reg::x(8), Reg::x(9));
        let key_half = [
            movz(x0, 1),
            movk(x0, 2, 1),
            movk(x0, 3, 2),
            movk(x0, 4, 3),
            Insn::Msr {
                sr: SysReg::ApibKeyLoEl1,
                rt: x0,
            },
        ];
        assert_eq!(fold_counts(&key_half, None), [5]);
        // A MOVK into another register ends the constant, and the MOVK
        // and MSR after it have no constant to join.
        let mut other = key_half;
        other[2] = movk(x1, 3, 2);
        assert_eq!(fold_counts(&other, None), [2, 1, 1, 1]);
        // Data-pointer modifier: MOVZ type; BFI obj; PACDB.
        let data = [movz(x9, 0xFB45), Insn::bfi(x9, x0, 16, 48), pacdb(x8, x9)];
        assert_eq!(fold_counts(&data, None), [3]);
        // BFM source equal to rA, or the sign using another modifier.
        let self_bfm = [movz(x9, 1), Insn::bfi(x9, x9, 16, 48), pacdb(x8, x9)];
        assert_eq!(fold_counts(&self_bfm, None), [1, 1, 1]);
        let other_mod = [movz(x9, 1), Insn::bfi(x9, x0, 16, 48), pacdb(x8, x1)];
        assert_eq!(fold_counts(&other_mod, None), [1, 1, 1]);
        // The copy source equal to rA, or an XZR constant.
        let copy_ra = [
            movz(x9, 1),
            Insn::mov_sp(x1, x9),
            Insn::bfi(x9, x1, 32, 32),
            pacdb(x8, x9),
        ];
        assert_eq!(fold_counts(&copy_ra, None), [1, 1, 1, 1]);
        let zr = [movz(Reg::Xzr, 1), Insn::bfi(Reg::Xzr, x0, 16, 48)];
        assert_eq!(fold_counts(&zr, None), [1, 1]);
        // The counter joins its branch only when the branch tests it.
        let count = [Insn::SubImm {
            rd: x0,
            rn: x0,
            imm12: 1,
            shifted: false,
        }];
        let cbnz = |rt| Insn::Cbnz { rt, offset: -4 };
        assert_eq!(fold_counts(&count, Some(cbnz(x0))), [2]);
        assert_eq!(fold_counts(&count, Some(cbnz(x1))), [1, 1]);
    }
}

//! Trace-tier contract tests: bit-identity with the block and step
//! engines, counter behaviour, and every invalidation edge re-proven for
//! traces — self-modifying code inside and across trace pages, unmapping
//! (the module-unload shape), stage-2 execute revocation, generation
//! re-stamping, slot recycling, the per-call retirement bound, fused
//! memory runs, and the build-time folds of the Camouflage shapes.

use camo_cpu::{trace, Cpu, CpuStats, Step};
use camo_isa::{encode, AddrMode, Insn, PacKey, PairMode, Reg, SysReg};
use camo_mem::{
    AccessType, El, Frame, MemFault, Memory, S1Attr, S2Attr, TableId, KERNEL_BASE, PAGE_SIZE,
};
use proptest::prelude::*;

/// Loads `insns` at KERNEL_BASE (text), with a data page above and a
/// writable+executable page at +2 pages for self-modifying tests.
fn machine(insns: &[Insn]) -> (Cpu, Memory) {
    let mut mem = Memory::new();
    let table = mem.new_table();
    let text = mem.map_new(table, KERNEL_BASE, S1Attr::kernel_text());
    mem.map_new(table, KERNEL_BASE + PAGE_SIZE, S1Attr::kernel_data());
    // Writable AND executable (self-modifying-code playground).
    mem.map_new(
        table,
        KERNEL_BASE + 2 * PAGE_SIZE,
        S1Attr {
            el0_read: false,
            el0_write: false,
            el0_exec: false,
            el1_write: true,
            el1_exec: true,
        },
    );
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
    cpu.state.set_sysreg(SysReg::VbarEl1, KERNEL_BASE + 0x8000);
    cpu.state
        .set_pauth_key(camo_isa::PauthKey::IB, camo_qarma::QarmaKey::new(7, 9));
    cpu.state.sp_el1 = KERNEL_BASE + 2 * PAGE_SIZE - 64;
    (cpu, mem)
}

/// A hot loop with loads, stores, PAC sign/auth, and immediate-accumulate
/// runs (the superop-folding shape). 200 iterations: far past
/// [`trace::HOT_THRESHOLD`], so the loop block promotes and the trace
/// serves the bulk of the retirement.
fn hot_loop_program(iters: u16) -> Vec<Insn> {
    vec![
        Insn::Movz {
            rd: Reg::x(0),
            imm16: iters,
            shift: 0,
        },
        Insn::Movz {
            rd: Reg::x(1),
            imm16: 0,
            shift: 0,
        },
        Insn::Adr {
            rd: Reg::x(19),
            offset: PAGE_SIZE as i32 - 2 * 4,
        },
        // loop (index 3):
        Insn::AddImm {
            rd: Reg::x(1),
            rn: Reg::x(1),
            imm12: 3,
            shifted: false,
        },
        Insn::AddImm {
            rd: Reg::x(1),
            rn: Reg::x(1),
            imm12: 4,
            shifted: false,
        },
        Insn::Str {
            rt: Reg::x(1),
            rn: Reg::x(19),
            mode: AddrMode::Unsigned(16),
        },
        Insn::Ldr {
            rt: Reg::x(2),
            rn: Reg::x(19),
            mode: AddrMode::Unsigned(16),
        },
        Insn::Pac {
            key: PacKey::IB,
            rd: Reg::x(2),
            rn: Reg::x(0),
        },
        Insn::Aut {
            key: PacKey::IB,
            rd: Reg::x(2),
            rn: Reg::x(0),
        },
        Insn::SubImm {
            rd: Reg::x(0),
            rn: Reg::x(0),
            imm12: 1,
            shifted: false,
        },
        Insn::Cbnz {
            rt: Reg::x(0),
            offset: -4 * 7,
        },
        Insn::Brk { imm: 0x42 },
    ]
}

/// Drives `cpu` with `step` or `run_block` until a `BrkTrap` surfaces and
/// returns its immediate.
fn run_to_brk(cpu: &mut Cpu, mem: &mut Memory, blocks: bool) -> u16 {
    for _ in 1..1_000_000 {
        let step = if blocks {
            cpu.run_block(mem).expect("benign program")
        } else {
            cpu.step(mem).expect("benign program")
        };
        if let Step::BrkTrap { imm } = step {
            return imm;
        }
    }
    panic!("program never reached a BRK");
}

/// Drives `cpu` until the program's closing `BRK #0x42`.
fn drive(cpu: &mut Cpu, mem: &mut Memory, blocks: bool) {
    assert_eq!(run_to_brk(cpu, mem, blocks), 0x42);
}

enum Engine {
    Step,
    Blocks,
    Traces,
}

fn configure(cpu: &mut Cpu, engine: &Engine) {
    match engine {
        Engine::Step | Engine::Blocks => cpu.set_trace_engine(false),
        Engine::Traces => assert!(cpu.trace_engine(), "traces default on"),
    }
}

fn run_arm(program: &[Insn], engine: Engine) -> (Cpu, Memory) {
    let (mut cpu, mut mem) = machine(program);
    configure(&mut cpu, &engine);
    drive(&mut cpu, &mut mem, !matches!(engine, Engine::Step));
    (cpu, mem)
}

fn assert_arch_identical(a: &Cpu, b: &Cpu) {
    assert_eq!(a.state.gprs, b.state.gprs, "register files diverged");
    assert_eq!(a.state.pc, b.state.pc);
    assert_eq!(a.cycles(), b.cycles(), "cycle counts diverged");
    assert!(
        a.stats().arch_eq(&b.stats()),
        "architectural counters diverged: {:?} vs {:?}",
        a.stats(),
        b.stats()
    );
}

#[test]
fn hot_loop_forms_a_trace_and_stays_bit_identical() {
    let program = hot_loop_program(200);
    let (cpu_s, _) = run_arm(&program, Engine::Step);
    let (cpu_b, _) = run_arm(&program, Engine::Blocks);
    let (cpu_t, _) = run_arm(&program, Engine::Traces);
    assert_arch_identical(&cpu_t, &cpu_s);
    assert_arch_identical(&cpu_t, &cpu_b);
    let stats = cpu_t.stats();
    assert!(stats.trace_misses > 0, "the hot loop installed a trace");
    // One hit is the expected shape: a looping trace retires up to
    // TRACE_CALL_INSNS per entry, so the whole remaining loop fits in a
    // single trace execution.
    assert!(
        stats.trace_hits > 0,
        "the installed trace actually ran: {stats:?}"
    );
    let off = cpu_b.stats();
    assert_eq!(
        (off.trace_hits, off.trace_misses, off.trace_invalidations),
        (0, 0, 0),
        "trace tier off is off"
    );
}

#[test]
fn stats_merge_and_delta_cover_trace_counters() {
    let a = CpuStats {
        trace_hits: 7,
        trace_misses: 3,
        trace_invalidations: 2,
        ..CpuStats::default()
    };
    let mut b = a;
    b.merge(&a);
    assert_eq!(
        (b.trace_hits, b.trace_misses, b.trace_invalidations),
        (14, 6, 4)
    );
    let d = b.delta_since(&a);
    assert_eq!(
        (d.trace_hits, d.trace_misses, d.trace_invalidations),
        (7, 3, 2)
    );
    // Simulator-observability counters: invisible to arch_eq.
    assert!(a.arch_eq(&b));
}

/// A store executed *inside* a warm trace that hits one of the trace's
/// own pages must side-exit after the store and invalidate the trace at
/// its next entry — with the architectural outcome bit-identical to the
/// step path. The loop lives on the writable+executable page; phase 1
/// stores to the data page (trace forms and runs), phase 2 redirects the
/// store into the loop's own page.
#[test]
fn store_into_own_trace_page_side_exits_and_invalidates() {
    let smc_page = KERNEL_BASE + 2 * PAGE_SIZE;
    let loop_body = [
        Insn::AddImm {
            rd: Reg::x(1),
            rn: Reg::x(1),
            imm12: 1,
            shifted: false,
        },
        Insn::Str {
            rt: Reg::x(1),
            rn: Reg::x(19),
            mode: AddrMode::Unsigned(0),
        },
        Insn::SubImm {
            rd: Reg::x(0),
            rn: Reg::x(0),
            imm12: 1,
            shifted: false,
        },
        Insn::Cbnz {
            rt: Reg::x(0),
            offset: -4 * 3,
        },
        Insn::Brk { imm: 0x42 },
    ];
    let run = |traces: bool, use_blocks: bool| {
        let (mut cpu, mut mem) = machine(&[]);
        cpu.set_trace_engine(traces);
        let ctx = cpu.translation_ctx();
        let pa = mem.translate(&ctx, smc_page, AccessType::Execute).unwrap();
        for (i, insn) in loop_body.iter().enumerate() {
            mem.phys_mut()
                .write_u32(pa + 4 * i as u64, encode(insn))
                .unwrap();
        }
        // Phase 1: store to the data page — the loop is benign and hot.
        cpu.state.pc = smc_page;
        cpu.state.gprs[0] = 100;
        cpu.state.gprs[1] = 0;
        cpu.state.gprs[19] = KERNEL_BASE + PAGE_SIZE;
        drive(&mut cpu, &mut mem, use_blocks);
        assert_eq!(cpu.state.gprs[1], 100);
        let warm = cpu.stats();
        // Phase 2: the store now lands in the loop's own code page (a
        // data slot past the code — the *frame* write version moves
        // regardless of which bytes change).
        cpu.state.pc = smc_page;
        cpu.state.gprs[0] = 50;
        cpu.state.gprs[1] = 0;
        cpu.state.gprs[19] = smc_page + 0x800;
        drive(&mut cpu, &mut mem, use_blocks);
        assert_eq!(cpu.state.gprs[1], 50, "self-page stores stay correct");
        (cpu, warm)
    };
    let (cpu_t, warm) = run(true, true);
    let (cpu_s, _) = run(false, false);
    assert_arch_identical(&cpu_t, &cpu_s);
    assert!(warm.trace_hits > 0, "phase 1 ran the trace");
    assert!(
        cpu_t.stats().trace_invalidations > warm.trace_invalidations,
        "phase 2's self-page stores moved the page version: the trace \
         must be discarded at re-entry, not silently re-run"
    );
}

/// Builds a loop spanning two adjacent text pages (the tier-1 blocks end
/// at the page boundary and chain across it, so the trace stitches blocks
/// from both pages and stamps both). Returns the machine plus the loop
/// head VA and the physical address of the second page's `SubImm`.
fn cross_page_machine() -> (Cpu, Memory, u64, u64) {
    let mut mem = Memory::new();
    let table = mem.new_table();
    let p1 = mem.map_new(table, KERNEL_BASE, S1Attr::kernel_text());
    let p2 = mem.map_new(table, KERNEL_BASE + PAGE_SIZE, S1Attr::kernel_text());
    let boundary = KERNEL_BASE + PAGE_SIZE;
    // loop: (boundary-8) add x1,#2 ; (boundary-4) add x1,#3
    //       [page boundary]
    //       (boundary)   sub x0,#1 ; (boundary+4) cbnz x0, loop
    //       (boundary+8) brk #0x42
    let insns: [(u64, Insn); 5] = [
        (
            p1.base() + PAGE_SIZE - 8,
            Insn::AddImm {
                rd: Reg::x(1),
                rn: Reg::x(1),
                imm12: 2,
                shifted: false,
            },
        ),
        (
            p1.base() + PAGE_SIZE - 4,
            Insn::AddImm {
                rd: Reg::x(1),
                rn: Reg::x(1),
                imm12: 3,
                shifted: false,
            },
        ),
        (
            p2.base(),
            Insn::SubImm {
                rd: Reg::x(0),
                rn: Reg::x(0),
                imm12: 1,
                shifted: false,
            },
        ),
        (
            p2.base() + 4,
            Insn::Cbnz {
                rt: Reg::x(0),
                offset: -12,
            },
        ),
        (p2.base() + 8, Insn::Brk { imm: 0x42 }),
    ];
    for (pa, insn) in &insns {
        mem.phys_mut().write_u32(*pa, encode(insn)).unwrap();
    }
    let mut cpu = Cpu::default();
    cpu.state
        .set_sysreg(SysReg::Ttbr0El1, TableId::from_raw(table.raw()).raw());
    cpu.state.set_sysreg(SysReg::Ttbr1El1, table.raw());
    cpu.state.set_sysreg(SysReg::VbarEl1, KERNEL_BASE + 0x8000);
    (cpu, mem, boundary - 8, p2.base())
}

/// Patching code on the *second* page of a two-page trace must be caught
/// by the per-page write-version stamps at trace entry.
#[test]
fn smc_across_trace_pages_invalidates_at_entry() {
    let run = |traces: bool, use_blocks: bool| {
        let (mut cpu, mut mem, loop_va, sub_pa) = cross_page_machine();
        cpu.set_trace_engine(traces);
        // Phase 1: warm the cross-page loop.
        cpu.state.pc = loop_va;
        cpu.state.gprs[0] = 200;
        cpu.state.gprs[1] = 0;
        drive(&mut cpu, &mut mem, use_blocks);
        assert_eq!(cpu.state.gprs[1], 200 * 5);
        let warm = cpu.stats();
        // Patch the second page: sub #1 becomes sub #2.
        mem.phys_mut()
            .write_u32(
                sub_pa,
                encode(&Insn::SubImm {
                    rd: Reg::x(0),
                    rn: Reg::x(0),
                    imm12: 2,
                    shifted: false,
                }),
            )
            .unwrap();
        // Phase 2: an even counter now finishes in half the iterations.
        cpu.state.pc = loop_va;
        cpu.state.gprs[0] = 100;
        cpu.state.gprs[1] = 0;
        drive(&mut cpu, &mut mem, use_blocks);
        assert_eq!(cpu.state.gprs[1], 50 * 5, "patched bytes executed");
        (cpu, warm)
    };
    let (cpu_t, warm) = run(true, true);
    let (cpu_s, _) = run(false, false);
    assert_arch_identical(&cpu_t, &cpu_s);
    assert!(warm.trace_hits > 0, "the cross-page trace ran in phase 1");
    assert!(
        cpu_t.stats().trace_invalidations > warm.trace_invalidations,
        "the second page's moved write version must kill the trace"
    );
}

/// Unmapping one page of a multi-page trace (the module-unload shape)
/// must be caught at the very next entry even though the *entry* page
/// still translates: the generation bump forces the per-page permission
/// re-walk, the second page's walk fails and discards the trace, and
/// tier 1 then raises the translation fault at the architecturally
/// correct instruction — the first one on the unmapped page.
#[test]
fn unmap_discards_the_trace_and_faults_next_entry() {
    let (mut cpu, mut mem, loop_va, _) = cross_page_machine();
    cpu.state.pc = loop_va;
    cpu.state.gprs[0] = 200;
    cpu.state.gprs[1] = 0;
    drive(&mut cpu, &mut mem, true);
    let warm = cpu.stats();
    assert!(warm.trace_hits > 0, "cross-page trace is warm");
    let table = TableId::from_raw(cpu.state.sysreg(SysReg::Ttbr1El1));
    assert!(mem.unmap(table, KERNEL_BASE + PAGE_SIZE));
    cpu.state.pc = loop_va;
    cpu.state.gprs[0] = 10;
    // First call: the entry page still maps, so the trace is probed; the
    // re-walk of the unmapped page discards it, and tier 1 runs the
    // first page's block and chains into the fault.
    let step = loop {
        match cpu.run_block(&mut mem).expect("vectored, not fatal") {
            Step::Executed => continue,
            other => break other,
        }
    };
    assert!(
        matches!(
            step,
            Step::FaultTaken {
                fault: MemFault::Translation { .. }
            }
        ),
        "unmapped trace page must raise the translation fault, got {step:?}"
    );
    assert_eq!(cpu.state.el, El::El1, "vectored to EL1");
    assert!(
        cpu.stats().trace_invalidations > warm.trace_invalidations,
        "the failed per-page re-walk discarded the trace"
    );
}

/// A stage-2 execute revocation must fault the next trace entry even
/// though the trace (and its stage-1 mapping) is warm — the generation
/// bump forces the re-walk, which now fails at stage 2.
#[test]
fn stage2_exec_revocation_faults_next_trace_entry() {
    let program = hot_loop_program(200);
    let (mut cpu, mut mem) = machine(&program);
    drive(&mut cpu, &mut mem, true);
    assert!(cpu.stats().trace_hits > 0, "trace is warm");
    let ctx = cpu.translation_ctx();
    let pa = mem.translate(&ctx, KERNEL_BASE, AccessType::Read).unwrap();
    mem.protect_stage2(
        Frame::containing(pa),
        S2Attr {
            read: true,
            write: false,
            exec: false,
        },
    )
    .unwrap();
    cpu.state.pc = KERNEL_BASE;
    let step = cpu.run_block(&mut mem).expect("vectored, not fatal");
    assert!(
        matches!(
            step,
            Step::FaultTaken {
                fault: MemFault::Stage2 { .. }
            }
        ),
        "revoked execute must fault the trace entry, got {step:?}"
    );
}

/// A generation bump with unchanged bytes (module churn, fork storms —
/// one bump per op) must *re-stamp* the trace after a successful per-page
/// re-walk, not discard it: the whole fleet's traces surviving constant
/// remapping is what makes the tier worth having.
#[test]
fn generation_bump_restamps_the_trace_in_place() {
    let program = hot_loop_program(200);
    let (mut cpu, mut mem) = machine(&program);
    drive(&mut cpu, &mut mem, true);
    let warm = cpu.stats();
    assert!(warm.trace_hits > 0, "trace is warm");
    let table = TableId::from_raw(cpu.state.sysreg(SysReg::Ttbr1El1));
    mem.map_new(table, KERNEL_BASE + 32 * PAGE_SIZE, S1Attr::kernel_data());
    cpu.state.pc = KERNEL_BASE;
    drive(&mut cpu, &mut mem, true);
    let stats = cpu.stats();
    assert_eq!(
        stats.trace_invalidations, warm.trace_invalidations,
        "unrelated remapping must not invalidate the trace"
    );
    assert!(
        stats.trace_hits > warm.trace_hits,
        "the re-stamped trace kept serving"
    );
    assert_eq!(
        stats.trace_misses, warm.trace_misses,
        "no re-install was needed"
    );
}

/// Mirror of the trace cache's slot hash (`trace::trace_slot`), used to
/// construct aliasing hot loops; see the block-engine twin for the
/// kept-in-sync argument.
fn trace_slot(pa: u64) -> usize {
    const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;
    ((pa >> 2).wrapping_mul(GOLDEN) >> 53) as usize & (trace::TRACE_CACHE_SIZE - 1)
}

/// Two hot loops whose entry addresses alias one trace slot: installing
/// the second evicts the first, and re-running the first must re-install
/// and execute its own ops — never the slot's previous occupant's.
#[test]
fn recycled_trace_slot_never_serves_the_evicted_trace() {
    let (mut cpu, mut mem) = machine(&[]);
    let table = TableId::from_raw(cpu.state.sysreg(SysReg::Ttbr1El1));
    let mut seen: std::collections::HashMap<usize, (u64, u64)> = std::collections::HashMap::new();
    let mut pair = None;
    for i in 0..100_000u64 {
        let va = KERNEL_BASE + (16 + i) * PAGE_SIZE;
        let frame = mem.map_new(table, va, S1Attr::kernel_text());
        let pa = frame.base();
        if let Some(&first) = seen.get(&trace_slot(pa)) {
            pair = Some((first, (va, pa)));
            break;
        }
        seen.insert(trace_slot(pa), (va, pa));
    }
    let ((va_a, pa_a), (va_b, pa_b)) = pair.expect("a collision among 100k frames");
    // Each page hosts: loop: add x1,#k ; sub x0,#1 ; cbnz loop ; brk.
    for (pa, k) in [(pa_a, 3u16), (pa_b, 5u16)] {
        let insns = [
            Insn::AddImm {
                rd: Reg::x(1),
                rn: Reg::x(1),
                imm12: k,
                shifted: false,
            },
            Insn::SubImm {
                rd: Reg::x(0),
                rn: Reg::x(0),
                imm12: 1,
                shifted: false,
            },
            Insn::Cbnz {
                rt: Reg::x(0),
                offset: -8,
            },
            Insn::Brk { imm: 0x42 },
        ];
        for (i, insn) in insns.iter().enumerate() {
            mem.phys_mut()
                .write_u32(pa + 4 * i as u64, encode(insn))
                .unwrap();
        }
    }
    let run_loop = |cpu: &mut Cpu, mem: &mut Memory, va: u64| {
        cpu.state.pc = va;
        cpu.state.gprs[0] = 300;
        cpu.state.gprs[1] = 0;
        drive(cpu, mem, true);
        cpu.state.gprs[1]
    };
    assert_eq!(run_loop(&mut cpu, &mut mem, va_a), 300 * 3);
    let after_a = cpu.stats();
    assert!(after_a.trace_hits > 0, "loop A traced");
    assert_eq!(run_loop(&mut cpu, &mut mem, va_b), 300 * 5, "B's own ops");
    let after_b = cpu.stats();
    assert!(after_b.trace_misses > after_a.trace_misses, "B installed");
    assert_eq!(
        run_loop(&mut cpu, &mut mem, va_a),
        300 * 3,
        "A re-ran its own ops after eviction, not B's"
    );
    assert!(
        cpu.stats().trace_misses > after_b.trace_misses,
        "A re-installed into the recycled slot"
    );
}

/// One `run_block` call into a looping trace retires at most
/// [`trace::TRACE_CALL_INSNS`] instructions — the same per-call bound as
/// tier 1's chain cap, so kernel instruction budgets keep their
/// documented overshoot bound with the trace tier on.
#[test]
fn trace_call_retirement_is_bounded() {
    let program = hot_loop_program(200);
    let (mut cpu, mut mem) = machine(&program);
    // Warm the loop trace.
    drive(&mut cpu, &mut mem, true);
    assert!(cpu.stats().trace_hits > 0);
    // Re-enter at the loop head (past the Movz prologue, which would
    // reset the counter) with a counter far past the per-call bound.
    cpu.state.pc = KERNEL_BASE + 4 * 3;
    cpu.state.gprs[0] = 1_000_000;
    cpu.state.gprs[1] = 0;
    let before = cpu.stats().instructions;
    cpu.run_block(&mut mem).expect("mid-loop return");
    let retired = cpu.stats().instructions - before;
    assert!(
        retired <= trace::TRACE_CALL_INSNS,
        "one call retired {retired} > bound {}",
        trace::TRACE_CALL_INSNS
    );
    assert!(
        retired > trace::TRACE_CALL_INSNS / 2,
        "a looping trace should get close to the bound, retired {retired}"
    );
}

// ---------------------------------------------------------------------
// Fused memory runs. A run of same-base `LDR/STR/LDP/STP` ops inside one
// block body executes as one trace op on one frame; whenever that is not
// provably exact it falls back to the per-op handlers and refunds the
// charge of the accesses it did not reach. The benchmark workloads never
// take the fallback, so these tests are its coverage.
// ---------------------------------------------------------------------

const DATA: u64 = KERNEL_BASE + PAGE_SIZE;
const SMC_PAGE: u64 = KERNEL_BASE + 2 * PAGE_SIZE;
/// A read-only data page (see [`map_rodata_and_vectors`]).
const RODATA: u64 = KERNEL_BASE + 3 * PAGE_SIZE;
/// `BRK` immediate at the same-EL synchronous vector: a vectored fault.
const FAULT_BRK: u16 = 0x43;

fn load(rt: u8, rn: Reg, off: u16) -> Insn {
    Insn::Ldr {
        rt: Reg::x(rt),
        rn,
        mode: AddrMode::Unsigned(off),
    }
}

fn store(rt: u8, rn: Reg, off: u16) -> Insn {
    Insn::Str {
        rt: Reg::x(rt),
        rn,
        mode: AddrMode::Unsigned(off),
    }
}

fn load_pair(rt: u8, rt2: u8, rn: Reg, off: i16) -> Insn {
    Insn::Ldp {
        rt: Reg::x(rt),
        rt2: Reg::x(rt2),
        rn,
        mode: PairMode::SignedOffset(off),
    }
}

fn store_pair(rt: u8, rt2: u8, rn: Reg, off: i16) -> Insn {
    Insn::Stp {
        rt: Reg::x(rt),
        rt2: Reg::x(rt2),
        rn,
        mode: PairMode::SignedOffset(off),
    }
}

fn imm(rd: u8, add: bool, imm12: u16) -> Insn {
    let (rd, rn) = (Reg::x(rd), Reg::x(rd));
    if add {
        Insn::AddImm {
            rd,
            rn,
            imm12,
            shifted: false,
        }
    } else {
        Insn::SubImm {
            rd,
            rn,
            imm12,
            shifted: false,
        }
    }
}

/// `CBNZ x0` from instruction index `at` back to index `to`.
fn loop_back(at: usize, to: usize) -> Insn {
    Insn::Cbnz {
        rt: Reg::x(0),
        offset: -4 * (at - to) as i32,
    }
}

/// Maps a read-only data page at [`RODATA`] (first qwords non-zero) and a
/// vector page whose same-EL synchronous entry is `BRK #FAULT_BRK`.
fn map_rodata_and_vectors(cpu: &mut Cpu, mem: &mut Memory) {
    let table = TableId::from_raw(cpu.state.sysreg(SysReg::Ttbr1El1));
    let ro = mem.map_new(table, RODATA, S1Attr::kernel_rodata());
    for i in 0..8u64 {
        mem.phys_mut()
            .write_u64(ro.base() + 8 * i, 0x0B0B_0000 + i)
            .unwrap();
    }
    let vbar = cpu.state.sysreg(SysReg::VbarEl1);
    let vectors = mem.map_new(table, vbar, S1Attr::kernel_text());
    mem.phys_mut()
        .write_u32(
            vectors.base() + camo_cpu::vector::SYNC_SAME_EL,
            encode(&Insn::Brk { imm: FAULT_BRK }),
        )
        .unwrap();
}

/// The bytes of the data and self-modifying pages.
fn data_bytes(cpu: &Cpu, mem: &Memory) -> Vec<u8> {
    let ctx = cpu.translation_ctx();
    let mut out = vec![0u8; 2 * PAGE_SIZE as usize];
    for (i, chunk) in out.chunks_mut(PAGE_SIZE as usize).enumerate() {
        let pa = mem
            .translate(&ctx, DATA + i as u64 * PAGE_SIZE, AccessType::Read)
            .unwrap();
        mem.phys().read_bytes(pa, chunk).unwrap();
    }
    out
}

/// Runs `phases` on one machine under `engine`: each `(pc, x0, x19, brk)`
/// starts at `pc` with those registers and runs to the `BRK #brk` it
/// expects.
fn run_phases(
    program: &[Insn],
    engine: &Engine,
    init: impl Fn(&mut Cpu, &mut Memory),
    phases: &[(u64, u64, u64, u16)],
) -> (Cpu, Memory) {
    let (mut cpu, mut mem) = machine(program);
    configure(&mut cpu, engine);
    init(&mut cpu, &mut mem);
    for &(pc, x0, x19, brk) in phases {
        cpu.state.pc = pc;
        cpu.state.gprs[0] = x0;
        cpu.state.gprs[19] = x19;
        let blocks = !matches!(engine, Engine::Step);
        assert_eq!(run_to_brk(&mut cpu, &mut mem, blocks), brk);
    }
    (cpu, mem)
}

/// Runs the three engines and checks registers, PC, cycles, architectural
/// counters, fault syndrome and the data pages agree; returns the traced
/// core.
fn three_arms(
    program: &[Insn],
    init: impl Fn(&mut Cpu, &mut Memory),
    phases: &[(u64, u64, u64, u16)],
) -> Cpu {
    let (cpu_s, mem_s) = run_phases(program, &Engine::Step, &init, phases);
    let (cpu_b, mem_b) = run_phases(program, &Engine::Blocks, &init, phases);
    let (cpu_t, mem_t) = run_phases(program, &Engine::Traces, &init, phases);
    for (cpu, mem) in [(&cpu_b, &mem_b), (&cpu_t, &mem_t)] {
        assert_arch_identical(cpu, &cpu_s);
        for sr in [SysReg::ElrEl1, SysReg::FarEl1, SysReg::EsrEl1] {
            assert_eq!(cpu.state.sysreg(sr), cpu_s.state.sysreg(sr), "{sr:?}");
        }
        assert!(
            data_bytes(cpu, mem) == data_bytes(&cpu_s, &mem_s),
            "memory diverged"
        );
    }
    assert!(cpu_t.stats().trace_hits > 0, "the loop ran as a trace");
    cpu_t
}

/// A run whose 32-byte window walks across the data page's end: the
/// iterations that straddle the boundary take the per-op fallback, the
/// others the single-frame path, and every arm agrees.
#[test]
fn fused_run_straddling_a_page_matches_the_step_path() {
    let program = [
        Insn::Movz {
            rd: Reg::x(1),
            imm16: 0x1111,
            shift: 0,
        },
        // loop (1):
        store_pair(1, 0, Reg::x(19), 0),
        store(0, Reg::x(19), 16),
        load(3, Reg::x(19), 8),
        load_pair(4, 5, Reg::x(19), 16),
        store(4, Reg::x(19), 24),
        imm(19, true, 8),
        imm(1, true, 3),
        imm(0, false, 1),
        loop_back(9, 1),
        Insn::Brk { imm: 0x42 },
    ];
    // 200 iterations from 960 bytes below the boundary: the trace forms
    // long before iterations 117–119 straddle it.
    let start = SMC_PAGE - 960;
    three_arms(&program, |_, _| {}, &[(KERNEL_BASE, 200, start, 0x42)]);
}

/// A load-then-store run turned onto a read-only page: both loads retire,
/// the first store faults (vectored), and the trace charges exactly the
/// step path's cycles — the second store's charge is refunded.
#[test]
fn fused_run_store_fault_on_read_only_page_matches_the_step_path() {
    let program = [
        load(2, Reg::x(19), 0),
        load(3, Reg::x(19), 8),
        store(2, Reg::x(19), 16),
        store(3, Reg::x(19), 24),
        imm(0, false, 1),
        loop_back(5, 0),
        Insn::Brk { imm: 0x42 },
    ];
    let cpu = three_arms(
        &program,
        map_rodata_and_vectors,
        &[
            (KERNEL_BASE, 100, DATA, 0x42),
            (KERNEL_BASE, 100, RODATA, FAULT_BRK),
        ],
    );
    assert_eq!(
        (cpu.state.gprs[2], cpu.state.gprs[3]),
        (0x0B0B_0000, 0x0B0B_0001),
        "the loads before the faulting store retired"
    );
    assert_eq!(cpu.state.sysreg(SysReg::ElrEl1), KERNEL_BASE + 8);
    assert_eq!(cpu.state.sysreg(SysReg::FarEl1), RODATA + 16);
}

/// A run whose first store rewrites the trace's own code: the trace
/// leaves right after that store (the rewritten instruction runs, not the
/// stale op), refunds the rest of the run, and is discarded at its next
/// entry.
#[test]
fn fused_run_store_into_own_code_leaves_after_that_store() {
    let loop_body = [
        store(1, Reg::x(19), 0),
        store(4, Reg::x(19), 0x100),
        load(2, Reg::x(19), 0x100),
        imm(0, false, 1),
        loop_back(4, 0),
        Insn::Brk { imm: 0x42 },
    ];
    let patched = Insn::Movz {
        rd: Reg::x(2),
        imm16: 0x77,
        shift: 0,
    };
    // In phase 2, x19 points at instruction 2: the first store replaces
    // the `LDR x2` with `MOVZ x2, #0x77` and rewrites instruction 3
    // unchanged.
    let word = u64::from(encode(&patched)) | u64::from(encode(&loop_body[3])) << 32;
    let init = |cpu: &mut Cpu, mem: &mut Memory| {
        let ctx = cpu.translation_ctx();
        let pa = mem.translate(&ctx, SMC_PAGE, AccessType::Execute).unwrap();
        for (i, insn) in loop_body.iter().enumerate() {
            mem.phys_mut()
                .write_u32(pa + 4 * i as u64, encode(insn))
                .unwrap();
        }
        cpu.state.gprs[1] = word;
        cpu.state.gprs[4] = 0xDEAD;
    };
    let cpu = three_arms(
        &[],
        init,
        &[
            (SMC_PAGE, 100, DATA, 0x42),
            (SMC_PAGE, 1, SMC_PAGE + 8, 0x42),
            (SMC_PAGE, 30, DATA, 0x42),
        ],
    );
    assert_eq!(cpu.state.gprs[2], 0x77, "the rewritten instruction ran");
    // Nothing else in the three phases moves a trace page.
    assert!(
        cpu.stats().trace_invalidations > 0,
        "the rewritten page must discard the trace at its next entry"
    );
}

/// A load that overwrites the run's base register ends fusion there: the
/// accesses after it use the loaded base, exactly as the step path does.
#[test]
fn load_overwriting_the_base_ends_the_fused_run() {
    let program = [
        // loop (0):
        Insn::Adr {
            rd: Reg::x(19),
            offset: PAGE_SIZE as i32,
        },
        load(2, Reg::x(19), 0),
        load(19, Reg::x(19), 8),
        load(3, Reg::x(19), 0),
        store(3, Reg::x(19), 16),
        imm(0, false, 1),
        loop_back(6, 0),
        Insn::Brk { imm: 0x42 },
    ];
    let init = |cpu: &mut Cpu, mem: &mut Memory| {
        let ctx = cpu.translation_ctx();
        let pa = mem.translate(&ctx, DATA, AccessType::Read).unwrap();
        for (off, v) in [(0, 0x1234), (8, DATA + 0x100), (0x100, 0x5555)] {
            mem.phys_mut().write_u64(pa + off, v).unwrap();
        }
    };
    let cpu = three_arms(&program, init, &[(KERNEL_BASE, 100, 0, 0x42)]);
    assert_eq!(
        (cpu.state.gprs[2], cpu.state.gprs[3]),
        (0x1234, 0x5555),
        "the load after the base overwrite used the new base"
    );
}

/// A small deterministic generator for the property below.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A loop around `len` random same-base (`x19`) memory ops over x1..x8,
/// then `x19 += stride`.
fn random_run_program(seed: u64, len: usize, stride: u16) -> Vec<Insn> {
    let mut s = seed;
    let mut program = Vec::new();
    for _ in 0..len {
        let r = splitmix(&mut s);
        let rt = 1 + (r >> 8) as u8 % 8;
        let rt2 = 1 + (r >> 16) as u8 % 8;
        let off = (r >> 24) % 9;
        program.push(match r % 4 {
            0 => load(rt, Reg::x(19), 8 * off as u16),
            1 => store(rt, Reg::x(19), 8 * off as u16),
            2 => load_pair(rt, rt2, Reg::x(19), 8 * off as i16 - 32),
            _ => store_pair(rt, rt2, Reg::x(19), 8 * off as i16 - 32),
        });
    }
    let n = program.len();
    program.extend([
        imm(19, true, stride),
        imm(0, false, 1),
        loop_back(n + 2, 0),
        Insn::Brk { imm: 0x42 },
    ]);
    program
}

proptest! {
    /// Random same-base runs — any mix of `LDR/STR/LDP/STP`, random
    /// offsets, unaligned bases, windows that cross from the data page
    /// into the next — match a caches-off step-path core exactly.
    #[test]
    fn random_fused_runs_match_the_caches_off_step_path(
        seed in any::<u64>(),
        len in 2usize..=8,
        stride in 1u16..=12,
        below in 64u64..=2048,
    ) {
        let program = random_run_program(seed, len, stride);
        let run = |traced: bool| {
            let (mut cpu, mut mem) = machine(&program);
            if !traced {
                make_reference(&mut cpu, &mut mem);
            }
            for r in 1..=8 {
                cpu.state.gprs[r] = seed.rotate_left(8 * r as u32) ^ r as u64;
            }
            // Past one call's chain cap, so the installed trace gets entered.
            cpu.state.gprs[0] = 160;
            cpu.state.gprs[19] = SMC_PAGE - below;
            drive(&mut cpu, &mut mem, traced);
            (cpu, mem)
        };
        let (cpu_t, mem_t) = run(true);
        let (cpu_s, mem_s) = run(false);
        assert_arch_identical(&cpu_t, &cpu_s);
        prop_assert!(data_bytes(&cpu_t, &mem_t) == data_bytes(&cpu_s, &mem_s));
        prop_assert!(cpu_t.stats().trace_hits > 0);
    }
}

// ---------------------------------------------------------------------
// Build-time folds. Trace finalization collapses constant-building
// `MOVZ/MOVN/ADR + MOVK`s, the key setter's constant + `MSR`, the
// modifier construction + `PAC*/AUT*`, and a counter update + its
// `CBZ/CBNZ` into single ops. Each test runs a traced core against a
// caches-off step core — the reference every engine is gated against —
// and compares registers, system registers, cycles, architectural
// counters and the touched memory.
// ---------------------------------------------------------------------

/// Turns `cpu`/`mem` into the caches-off step reference.
fn make_reference(cpu: &mut Cpu, mem: &mut Memory) {
    cpu.set_block_engine(false);
    cpu.set_caching(false);
    mem.set_caching(false);
}

/// Registers, system registers, cycles, counters and the data pages of
/// `a` and the reference `b` agree.
fn assert_state_identical(a: (&Cpu, &Memory), b: (&Cpu, &Memory)) {
    assert_arch_identical(a.0, b.0);
    for sr in SysReg::ALL {
        assert_eq!(a.0.state.sysreg(sr), b.0.state.sysreg(sr), "{sr:?}");
    }
    assert_eq!(
        (a.0.state.el, a.0.state.sp_el0, a.0.state.sp_el1),
        (b.0.state.el, b.0.state.sp_el0, b.0.state.sp_el1)
    );
    assert!(
        data_bytes(a.0, a.1) == data_bytes(b.0, b.1),
        "memory diverged"
    );
}

/// Runs `program` on a traced core and on the reference, each from
/// `KERNEL_BASE` with `x0 = iters` after `init`, to the closing
/// `BRK #0x42`; checks they agree and returns the traced core.
fn fold_arms(program: &[Insn], iters: u64, init: impl Fn(&mut Cpu)) -> Cpu {
    let run = |traced: bool| {
        let (mut cpu, mut mem) = machine(program);
        if !traced {
            make_reference(&mut cpu, &mut mem);
        }
        init(&mut cpu);
        cpu.state.gprs[0] = iters;
        drive(&mut cpu, &mut mem, traced);
        (cpu, mem)
    };
    let (cpu_t, mem_t) = run(true);
    let (cpu_s, mem_s) = run(false);
    assert_state_identical((&cpu_t, &mem_t), (&cpu_s, &mem_s));
    assert!(cpu_t.stats().trace_hits > 0, "the loop ran as a trace");
    cpu_t
}

/// True for one value of `r` in `n`: a generator's 1-in-`n` choice.
fn one_in(r: u64, n: u64) -> bool {
    r.is_multiple_of(n)
}

/// Registers the random fold bodies draw from: x1..x12 and the IP pair
/// (x0 is the loop counter, x19 the data base).
fn fold_reg(r: u64) -> Reg {
    match r % 14 {
        12 => Reg::IP0,
        13 => Reg::IP1,
        n => Reg::x(1 + n as u8),
    }
}

/// `MSR` targets of the random bodies: every key half, the `SCTLR` key
/// enables, and registers a kernel entry path writes.
const MSR_TARGETS: [SysReg; 15] = [
    SysReg::ApiaKeyLoEl1,
    SysReg::ApiaKeyHiEl1,
    SysReg::ApibKeyLoEl1,
    SysReg::ApibKeyHiEl1,
    SysReg::ApdaKeyLoEl1,
    SysReg::ApdaKeyHiEl1,
    SysReg::ApdbKeyLoEl1,
    SysReg::ApdbKeyHiEl1,
    SysReg::ApgaKeyLoEl1,
    SysReg::ApgaKeyHiEl1,
    SysReg::SctlrEl1,
    SysReg::ContextidrEl1,
    SysReg::TpidrEl1,
    SysReg::SpEl0,
    SysReg::ElrEl1,
];

/// Pushes a constant build into `rd`: `MOVZ`/`MOVN`/`ADR`, then up to
/// three `MOVK`s — one in eight into another register.
fn push_constant(p: &mut Vec<Insn>, s: &mut u64, rd: Reg) {
    let r = splitmix(s);
    p.push(match r % 3 {
        0 => Insn::Movz {
            rd,
            imm16: (r >> 8) as u16,
            shift: (r >> 24) as u8 % 4,
        },
        1 => Insn::Movn {
            rd,
            imm16: (r >> 8) as u16,
            shift: (r >> 24) as u8 % 4,
        },
        _ => Insn::Adr {
            rd,
            offset: ((r >> 8) % 8192) as i32 - 4096,
        },
    });
    for _ in 0..(r >> 32) % 4 {
        let k = splitmix(s);
        p.push(Insn::Movk {
            rd: if one_in(k, 8) { fold_reg(k >> 60) } else { rd },
            imm16: (k >> 8) as u16,
            shift: (k >> 24) as u8 % 4,
        });
    }
}

/// A destination for a fold shape: mostly a pool register, one in ten
/// `XZR` (a constant nothing can observe).
fn fold_dest(r: u64) -> Reg {
    if one_in(r, 10) {
        Reg::Xzr
    } else {
        fold_reg(r >> 4)
    }
}

/// A loop of `shapes` random fold shapes, then `SUB x0, #1; CBNZ x0`.
/// Each shape is one of: a constant; a constant + `MSR`; a modifier
/// construction + `PAC*/AUT*` (sometimes stored); a counter update + a
/// `CBZ/CBNZ` skipping one instruction. Aliasing variants that must stay
/// unfused are drawn too: copy or `BFM` sources equal to rA, a `MOVK` or
/// a modifier register naming another register, a branch on another
/// register, and `XZR`/`SP` operands.
fn random_fold_program(seed: u64, shapes: usize) -> Vec<Insn> {
    let mut s = seed;
    let mut p = Vec::new();
    for _ in 0..shapes {
        let r = splitmix(&mut s);
        let ra = fold_dest(r >> 8);
        match r % 4 {
            0 => push_constant(&mut p, &mut s, ra),
            1 => {
                push_constant(&mut p, &mut s, ra);
                let k = splitmix(&mut s);
                p.push(Insn::Msr {
                    sr: MSR_TARGETS[(k % MSR_TARGETS.len() as u64) as usize],
                    rt: if one_in(k, 8) { fold_reg(k >> 8) } else { ra },
                });
            }
            2 => {
                push_constant(&mut p, &mut s, ra);
                let k = splitmix(&mut s);
                let mut rb = fold_dest(k >> 8);
                if one_in(k, 2) {
                    // The copy: usually `MOV rB, SP`, sometimes from a pool
                    // register or rA, sometimes into SP or rA.
                    let rs = match (k >> 16) % 4 {
                        0 => ra,
                        1 => fold_reg(k >> 20),
                        _ => Reg::Sp,
                    };
                    if one_in(k >> 24, 8) {
                        rb = if one_in(k >> 27, 2) { Reg::Sp } else { ra };
                    }
                    p.push(Insn::AddImm {
                        rd: rb,
                        rn: rs,
                        imm12: if one_in(k >> 28, 8) { 8 } else { 0 },
                        shifted: false,
                    });
                }
                if rb == Reg::Sp || one_in(k >> 32, 8) {
                    rb = ra;
                }
                p.push(Insn::Bfm {
                    rd: ra,
                    rn: rb,
                    immr: (k >> 36) as u8 % 64,
                    imms: (k >> 42) as u8 % 64,
                });
                let key = [PacKey::IA, PacKey::IB, PacKey::DA, PacKey::DB][(k >> 48) as usize % 4];
                let rd = fold_reg(k >> 50);
                let modifier = if one_in(k >> 54, 8) {
                    fold_reg(k >> 57)
                } else {
                    ra
                };
                p.push(if one_in(k >> 62, 2) {
                    Insn::Pac {
                        key,
                        rd,
                        rn: modifier,
                    }
                } else {
                    Insn::Aut {
                        key,
                        rd,
                        rn: modifier,
                    }
                });
                if (k >> 63) == 1 {
                    p.push(Insn::Str {
                        rt: rd,
                        rn: Reg::x(19),
                        mode: AddrMode::Unsigned(8 * (k % 8) as u16),
                    });
                }
            }
            _ => {
                let k = splitmix(&mut s);
                let rx = fold_reg(k >> 8);
                let rn = if one_in(k, 2) { rx } else { fold_reg(k >> 12) };
                let imm12 = (k >> 16) as u16 % 8;
                p.push(if one_in(k >> 20, 2) {
                    Insn::AddImm {
                        rd: rx,
                        rn,
                        imm12,
                        shifted: false,
                    }
                } else {
                    Insn::SubImm {
                        rd: rx,
                        rn,
                        imm12,
                        shifted: false,
                    }
                });
                let rt = match (k >> 24) % 8 {
                    0 => fold_reg(k >> 28),
                    1 => Reg::Xzr,
                    _ => rx,
                };
                p.push(if one_in(k >> 32, 2) {
                    Insn::Cbz { rt, offset: 8 }
                } else {
                    Insn::Cbnz { rt, offset: 8 }
                });
                p.push(imm(1 + (k >> 40) as u8 % 12, true, 1));
            }
        }
    }
    let n = p.len();
    p.extend([
        imm(0, false, 1),
        loop_back(n + 1, 0),
        Insn::Brk { imm: 0x42 },
    ]);
    p
}

proptest! {
    /// Random bodies of the four fold shapes and their aliasing variants
    /// match the caches-off step path in every register, system
    /// register, counter and data byte.
    #[test]
    fn random_fold_shapes_match_the_caches_off_step_path(
        seed in any::<u64>(),
        shapes in 1usize..=6,
    ) {
        let program = random_fold_program(seed, shapes);
        fold_arms(&program, 160, |cpu| {
            for r in 1..=18 {
                cpu.state.gprs[r] = seed.rotate_left(4 * r as u32) ^ (r as u64) << 40;
            }
            cpu.state.gprs[19] = DATA;
        });
    }
}

/// A single-block countdown loop: the counter update and its `CBNZ` fuse
/// into the block's only op, which is also the loop edge's target. Each
/// `run_block` call leaves at `TRACE_CALL_INSNS` and the next resumes at
/// that op's VA — the `SUB`'s, not the `CBNZ`'s, or every call would
/// retire one extra `CBNZ`.
#[test]
fn countdown_loop_resumes_at_the_fused_counter_after_the_call_bound() {
    let program = [imm(0, false, 1), loop_back(1, 0), Insn::Brk { imm: 0x42 }];
    let cpu = fold_arms(&program, 60_000, |_| {});
    assert_eq!(cpu.stats().instructions, 2 * 60_000 + 1);
    assert!(
        cpu.stats().trace_hits > 10,
        "the loop crossed the per-call bound many times: {:?}",
        cpu.stats()
    );
}

/// The key setter's constant + `MSR` at a loop head that the per-call
/// bound keeps resuming: the fused op is the loop target, so it must
/// keep the `MOVZ`'s VA.
#[test]
fn key_setter_loop_head_resumes_whole_after_the_call_bound() {
    let mut program = Vec::new();
    for (i, sr) in [SysReg::ApibKeyLoEl1, SysReg::ApibKeyHiEl1]
        .into_iter()
        .enumerate()
    {
        program.push(Insn::Movz {
            rd: Reg::x(1),
            imm16: 0x1111 * (i as u16 + 1),
            shift: 0,
        });
        for shift in 1..4u8 {
            program.push(Insn::Movk {
                rd: Reg::x(1),
                imm16: 0x0101 * u16::from(shift) + i as u16,
                shift,
            });
        }
        program.push(Insn::Msr { sr, rt: Reg::x(1) });
    }
    let n = program.len();
    program.extend([
        imm(0, false, 1),
        loop_back(n + 1, 0),
        Insn::Brk { imm: 0x42 },
    ]);
    let iters = 4 * trace::TRACE_CALL_INSNS / n as u64;
    let cpu = fold_arms(&program, iters, |_| {});
    assert_eq!(cpu.stats().key_writes, 2 * iters);
    assert_eq!(
        cpu.state.sysreg(SysReg::ApibKeyHiEl1),
        0x0304_0203_0102_2222
    );
}

/// The Listing 3 prologue/epilogue pair under a disabled key: the folded
/// `PACIB`/`AUTIB` are NOPs, yet x16 and x17 still take the modifier and
/// SP. Phases alternate the enable bit so the site memo filled while
/// enabled is never served while disabled (and vice versa).
#[test]
fn folded_modifier_under_a_disabled_key_is_a_nop_that_still_writes() {
    let modifier = |back: i32| {
        [
            Insn::Adr {
                rd: Reg::IP0,
                offset: back,
            },
            Insn::AddImm {
                rd: Reg::IP1,
                rn: Reg::Sp,
                imm12: 0,
                shifted: false,
            },
            Insn::Bfm {
                rd: Reg::IP0,
                rn: Reg::IP1,
                immr: 32,
                imms: 31,
            },
        ]
    };
    let mut program = modifier(0).to_vec();
    program.push(Insn::Pac {
        key: PacKey::IB,
        rd: Reg::LR,
        rn: Reg::IP0,
    });
    program.extend(modifier(-16));
    program.push(Insn::Aut {
        key: PacKey::IB,
        rd: Reg::LR,
        rn: Reg::IP0,
    });
    program.extend([imm(0, false, 1), loop_back(9, 0), Insn::Brk { imm: 0x42 }]);
    let sctlr = camo_isa::sysreg::sctlr::EN_ALL;
    let phases = [sctlr, sctlr & !camo_isa::sysreg::sctlr::EN_IB, sctlr];
    let run = |traced: bool| {
        let (mut cpu, mut mem) = machine(&program);
        if !traced {
            make_reference(&mut cpu, &mut mem);
        }
        let mut after = Vec::new();
        for enables in phases {
            cpu.state.set_sysreg(SysReg::SctlrEl1, enables);
            cpu.state.pc = KERNEL_BASE;
            cpu.state.gprs[0] = 100;
            cpu.state.gprs[16] = 0;
            cpu.state.gprs[17] = 0;
            cpu.state.gprs[30] = KERNEL_BASE + 0x40;
            drive(&mut cpu, &mut mem, traced);
            after.push((cpu.stats(), cpu.state.gprs));
        }
        (cpu, mem, after)
    };
    let (cpu_t, mem_t, phases_t) = run(true);
    let (cpu_s, mem_s, phases_s) = run(false);
    assert_state_identical((&cpu_t, &mem_t), (&cpu_s, &mem_s));
    for (t, s) in phases_t.iter().zip(&phases_s) {
        assert_eq!(t.1, s.1, "registers agree after every phase");
        assert!(t.0.arch_eq(&s.0), "counters agree after every phase");
    }
    let (enabled, disabled) = (&phases_t[0], &phases_t[1]);
    assert_eq!(enabled.0.pac_signs, 100);
    assert_eq!(
        (disabled.0.pac_signs, disabled.0.pac_auth_ok),
        (enabled.0.pac_signs, enabled.0.pac_auth_ok),
        "a disabled key signs and authenticates nothing"
    );
    let sp = cpu_t.state.sp_el1;
    assert_eq!(disabled.1[16], (sp << 32) | (KERNEL_BASE & 0xFFFF_FFFF));
    assert_eq!(disabled.1[17], sp);
    assert_eq!(disabled.1[30], KERNEL_BASE + 0x40, "LR passed through");
    assert!(cpu_t.stats().trace_hits >= 3, "every phase ran the trace");
}

/// A trace recorded at EL1 *can* be entered at EL0: entry checks the
/// entry `(pa, va)` pair, the page versions and the translation
/// generation, and the EL0 fetch walk at the entry succeeds on a page
/// executable at both levels. (The kernel's page presets never make
/// such a page; this test maps one.) The fused key-setter op then traps
/// at the `MSR`'s own VA with the constant already in x1 and the key
/// register untouched, exactly like the step path.
#[test]
fn fused_msr_entered_at_el0_traps_at_the_msr() {
    const DUAL: u64 = KERNEL_BASE + 4 * PAGE_SIZE;
    let mut program = vec![Insn::Movz {
        rd: Reg::x(1),
        imm16: 0x1111,
        shift: 0,
    }];
    for shift in 1..4u8 {
        program.push(Insn::Movk {
            rd: Reg::x(1),
            imm16: 0x1111 * (u16::from(shift) + 1),
            shift,
        });
    }
    program.extend([
        Insn::Msr {
            sr: SysReg::ApibKeyLoEl1,
            rt: Reg::x(1),
        },
        imm(0, false, 1),
        loop_back(6, 0),
        Insn::Brk { imm: 0x42 },
    ]);
    let run = |traced: bool| {
        let (mut cpu, mut mem) = machine(&[]);
        if !traced {
            make_reference(&mut cpu, &mut mem);
        }
        let table = TableId::from_raw(cpu.state.sysreg(SysReg::Ttbr1El1));
        let dual = mem.map_new(
            table,
            DUAL,
            S1Attr {
                el0_read: true,
                el0_write: false,
                el0_exec: true,
                el1_write: false,
                el1_exec: true,
            },
        );
        for (i, insn) in program.iter().enumerate() {
            mem.phys_mut()
                .write_u32(dual.base() + 4 * i as u64, encode(insn))
                .unwrap();
        }
        // Record and run the trace at EL1.
        cpu.state.pc = DUAL;
        cpu.state.gprs[0] = 100;
        drive(&mut cpu, &mut mem, traced);
        let warm = cpu.stats();
        // Re-enter the loop head at EL0.
        cpu.state.el = El::El0;
        cpu.state.pc = DUAL;
        cpu.state.gprs[0] = 5;
        cpu.state.gprs[1] = 0;
        cpu.state.set_sysreg(SysReg::ApibKeyLoEl1, 0xAAAA);
        let step = if traced {
            cpu.run_block(&mut mem)
        } else {
            (0..5)
                .map(|_| cpu.step(&mut mem))
                .last()
                .expect("five steps")
        };
        (cpu, mem, warm, step.expect("a vectored trap"))
    };
    let (cpu_t, mem_t, warm, step_t) = run(true);
    let (cpu_s, mem_s, _, step_s) = run(false);
    assert_eq!(step_t, step_s);
    assert!(matches!(step_t, Step::FaultTaken { .. }), "{step_t:?}");
    assert_state_identical((&cpu_t, &mem_t), (&cpu_s, &mem_s));
    assert_eq!(
        cpu_t.stats().trace_hits,
        warm.trace_hits + 1,
        "the EL0 entry ran the trace"
    );
    assert_eq!(
        cpu_t.state.sysreg(SysReg::ElrEl1),
        DUAL + 16,
        "ELR at the MSR"
    );
    assert_eq!(
        cpu_t.state.sysreg(SysReg::EsrEl1) >> 26,
        camo_cpu::ec::TRAPPED_MSR
    );
    assert_eq!(
        cpu_t.state.gprs[1], 0x4444_3333_2222_1111,
        "constant written"
    );
    assert_eq!(
        cpu_t.state.sysreg(SysReg::ApibKeyLoEl1),
        0xAAAA,
        "key untouched"
    );
}

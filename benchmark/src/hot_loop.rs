//! `hot_loop`: the Figure-2 Camouflage call loop on one bare core, one
//! host thread. Each timed rep is one `Cpu::call` of the call loop.

use crate::micro;
use crate::util::{
    arch_fields, failed_ops, peak_rss_mib, repeat, setup_time, throughput, Digest, Phase, Rep,
    SetupSchedule, Tracer,
};
use crate::Outcome;
use camo_bench::fig2;
use camo_codegen::CfiScheme;
use camo_cpu::{CallResult, Cpu, CpuError, CpuStats, Step, CALL_SENTINEL};
use camo_isa::{PauthKey, Reg};
use camo_mem::Memory;
use camo_qarma::QarmaKey;
use camo_workloads::derive_seed;
use std::time::Instant;

/// Simulated calls (loop iterations) per timed rep.
const ITERS: u64 = 200_000;
/// `Cpu::call`'s engine-invocation budget, as the Figure-2 harness sets it.
const MAX_STEPS: u64 = 64 * ITERS + 1024;
/// Set-ups per untraced run, one before the timed phase and the rest
/// spread through it.
const SETUPS: usize = 30;

struct Machine {
    cpu: Cpu,
    mem: Memory,
    entry: u64,
}

impl Machine {
    /// The call-loop machine with instruction keys drawn from `seed`.
    fn build(seed: u64) -> Machine {
        let (mut cpu, mem, entry) = fig2::build_call_loop(CfiScheme::Camouflage);
        for (i, key) in [PauthKey::IA, PauthKey::IB].into_iter().enumerate() {
            let i = 2 * i as u64;
            let value = QarmaKey::new(derive_seed(seed, i), derive_seed(seed, i + 1));
            cpu.state.set_pauth_key(key, value);
        }
        Machine { cpu, mem, entry }
    }

    fn call(&mut self) -> Result<(CallResult, CpuStats), CpuError> {
        let before = self.cpu.stats();
        let result = self
            .cpu
            .call(&mut self.mem, self.entry, &[ITERS], MAX_STEPS)?;
        Ok((result, self.cpu.stats().delta_since(&before)))
    }

    /// `Cpu::call` done by hand, one span per `Cpu::run_block`: the same
    /// argument, link-register sentinel and engine-invocation budget.
    fn traced_call(
        &mut self,
        tracer: &mut Tracer,
        parent: u32,
    ) -> Result<(CallResult, CpuStats), CpuError> {
        let before = self.cpu.stats();
        let cycles0 = self.cpu.cycles();
        self.cpu.state.gprs[0] = ITERS;
        self.cpu.state.write(Reg::LR, CALL_SENTINEL);
        self.cpu.state.pc = self.entry;
        for _ in 0..MAX_STEPS {
            let insns0 = self.cpu.stats().instructions;
            let start = tracer.now();
            let step = self.cpu.run_block(&mut self.mem)?;
            let insns = self.cpu.stats().instructions - insns0;
            tracer.record("Cpu::run_block", parent, insns, start);
            if step == Step::SentinelReturn {
                let delta = self.cpu.stats().delta_since(&before);
                let result = CallResult {
                    x0: self.cpu.state.gprs[0],
                    cycles: self.cpu.cycles() - cycles0,
                    instructions: delta.instructions,
                };
                return Ok((result, delta));
            }
        }
        Err(CpuError::TimedOut { steps: MAX_STEPS })
    }
}

fn digest(result: &CallResult, delta: &CpuStats) -> u64 {
    Digest::new()
        .words(&[result.x0, result.cycles, result.instructions])
        .words(&arch_fields(delta))
        .finish()
}

/// Builds and warms a machine (the first call builds blocks and traces
/// and fills the PAC memo); returns it with the seconds that took.
fn setup(seed: u64) -> Result<(Machine, f64), CpuError> {
    let start = Instant::now();
    let mut m = Machine::build(seed);
    m.call()?;
    Ok((m, start.elapsed().as_secs_f64()))
}

/// The digest of one call on the reference interpreter: block and trace
/// engines, decoded-instruction cache, PAC memo and TLB all off.
fn reference(seed: u64) -> Option<u64> {
    let mut m = Machine::build(seed);
    m.cpu.set_block_engine(false);
    m.cpu.set_trace_engine(false);
    m.cpu.set_caching(false);
    m.mem.set_caching(false);
    m.call().ok().map(|(r, d)| digest(&r, &d))
}

/// One timed rep of `Machine::call`; keeps the first rep's result.
fn timed_call(m: &mut Machine, first: &mut Option<(CallResult, CpuStats)>) -> Rep {
    let start = Instant::now();
    let outcome = m.call();
    let wall = start.elapsed().as_secs_f64();
    let rep = Rep {
        ops: ITERS,
        insns: outcome.as_ref().map_or(0, |(r, _)| r.instructions),
        wall,
        digest: outcome.as_ref().ok().map(|(r, d)| digest(r, d)),
    };
    if first.is_none() {
        *first = outcome.ok();
    }
    rep
}

/// One rep of `Machine::traced_call` under its own parent span.
fn traced_rep(m: &mut Machine, tracer: &mut Tracer) -> Rep {
    let start = Instant::now();
    let rep = tracer.open("rep", 0, 0);
    let outcome = m.traced_call(tracer, rep);
    tracer.close(rep);
    Rep {
        ops: ITERS,
        insns: outcome.as_ref().map_or(0, |(r, _)| r.instructions),
        wall: start.elapsed().as_secs_f64(),
        digest: outcome.ok().map(|(r, d)| digest(&r, &d)),
    }
}

pub fn run(seed: u64, seconds: f64, trace: bool) -> Outcome {
    let mut out = Outcome::default();
    let (mut m, first_setup) = match setup(seed) {
        Ok(x) => x,
        Err(e) => return Outcome::setup_failed(ITERS, &e.to_string()),
    };
    // Read at a fixed point, so it does not depend on how many reps the
    // host manages in the timed phase.
    out.set("peak_rss_mib", peak_rss_mib());
    // The traced run alternates untraced and traced reps, so both arms of
    // the overhead comparison see the same host conditions.
    let mut first = None;
    let mut tracer = Tracer::new();
    let mut setups = vec![first_setup];
    let mut schedule = SetupSchedule::new(seconds, if trace { 0 } else { SETUPS - 1 });
    let phase = Phase::start();
    let (reps, traced): (Vec<Rep>, Vec<Option<Rep>>) = repeat(seconds, 3, || {
        if schedule.due() {
            setups.push(setup(seed).map_or(f64::NAN, |(_, secs)| secs));
        }
        let untraced = timed_call(&mut m, &mut first);
        (untraced, trace.then(|| traced_rep(&mut m, &mut tracer)))
    })
    .into_iter()
    .unzip();
    let cpu_util = phase.cpu_util(1);
    let traced: Vec<Rep> = traced.into_iter().flatten().collect();
    let reference = reference(seed);
    if reference.is_none() {
        out.errors.push("reference interpreter run failed".into());
    }
    out.count(&reps, reference);
    out.count(&traced, reference);
    out.rep_note("untraced reps", &reps);
    out.set("host.cpu_util", cpu_util);
    if !trace {
        out.set("steps_per_sec", throughput(&reps));
        if let Some((r, _)) = &first {
            out.set("sim_cycles_per_op", r.cycles as f64 / ITERS as f64);
        }
        if setups.iter().any(|s| s.is_nan()) {
            out.errors.push("a set-up failed".into());
        }
        out.set("setup_s", setup_time(&setups));
        return out;
    }

    out.rep_note("traced reps", &traced);
    // The traced replica must reproduce the untraced calls bit for bit.
    if failed_ops(&traced, reps[0].digest) > 0 {
        out.replica_diverged("traced run_block replica diverged from Cpu::call");
    } else {
        let (ns, calls) = tracer.total("Cpu::run_block");
        let insns: u64 = traced.iter().map(|r| r.insns).sum();
        out.set("cpu.ns_per_insn", ns as f64 / insns as f64);
        out.set("cpu.insns_per_run_block", insns as f64 / calls as f64);
        out.set(
            "trace.overhead_frac",
            1.0 - throughput(&traced) / throughput(&reps),
        );
    }
    if let Some((_, delta)) = &first {
        out.counters(delta, ITERS, 0);
    }
    out.unit_costs(&micro::measure());
    out.write_trace(&tracer, "hot_loop");
    out
}

//! The repository benchmark. See `README.md` for the workloads, the
//! metrics and how to run it.

mod fleet;
mod hot_loop;
mod metrics;
mod micro;
mod util;

use metrics::Metric;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::ExitCode;
use util::{failed_ops, quantile, Rep, Tracer};

/// Seconds one run measures by default (`run_seconds` in BENCHMARK.json).
pub const RUN_SECONDS: u32 = 30;
const DEFAULT_SEED: u64 = 0xCAF0_0D5E;
const WORKLOAD_NAMES: [&str; 3] = ["hot_loop", "lmbench", "fleet_mix"];

const USAGE: &str = "usage: camo_benchmark --workload <hot_loop|lmbench|fleet_mix|all> \
[--seed <n>] [--seconds <s>] [--trace <0|1>]
       camo_benchmark --describe | --benchmark-json";

/// What one workload run measured and checked.
#[derive(Default)]
pub struct Outcome {
    /// Ops attempted, over every timed rep and traced replica.
    pub attempted: u64,
    /// Ops that returned a `KernelError`/`CpuError` or whose rep digest
    /// differs from the reference interpreter's.
    pub failed: u64,
    /// Checks that failed outside the op count (reference run, replica
    /// identity); any entry makes the run incorrect.
    pub errors: Vec<String>,
    pub values: BTreeMap<String, f64>,
    /// Metrics that were not measured, with the reason.
    pub unavailable: BTreeMap<String, String>,
    /// Why the traced-only metrics are withheld, if they are.
    pub withheld: Option<String>,
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn setup_failed(ops: u64, why: &str) -> Outcome {
        Outcome {
            attempted: ops,
            failed: ops,
            errors: vec![format!("set-up failed: {why}")],
            ..Outcome::default()
        }
    }

    /// Adds `reps` to the op counts, failing those whose digest is not
    /// `reference`.
    pub fn count(&mut self, reps: &[Rep], reference: Option<u64>) {
        self.attempted += reps.iter().map(|r| r.ops).sum::<u64>();
        self.failed += failed_ops(reps, reference);
    }

    /// Notes how many reps ran and how their rates spread.
    pub fn rep_note(&mut self, what: &str, reps: &[Rep]) {
        let rates: Vec<f64> = reps.iter().map(Rep::rate).collect();
        let at = |q: f64| quantile(&rates, q) / 1e6;
        self.notes.push(format!(
            "{what}: {} reps, M steps/s p10 {:.1} p50 {:.1} p95 {:.1} max {:.1}",
            reps.len(),
            at(0.1),
            at(0.5),
            at(0.95),
            at(1.0)
        ));
    }

    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.values.insert(name.into(), value);
    }

    fn set_ratio(&mut self, name: &str, ratio: Option<f64>, what: &str) {
        match ratio {
            Some(r) => self.set(name, r),
            None => {
                self.unavailable
                    .insert(name.to_string(), format!("no {what} in a rep"));
            }
        }
    }

    /// The always-on `CpuStats` counters of one rep (`ops` tenant ops or
    /// simulated calls, `syscalls` syscalls).
    pub fn counters(&mut self, s: &camo_cpu::CpuStats, ops: u64, syscalls: u64) {
        let per_op = |n: u64| n as f64 / ops as f64;
        self.set("kernel.syscalls", per_op(syscalls));
        self.set("kernel.exceptions", per_op(s.exceptions));
        self.set("kernel.key_writes", per_op(s.key_writes));
        let trace_share = util::ratio(s.trace_hits, s.trace_hits + s.block_hits);
        self.set_ratio("cpu.trace_share", trace_share, "block or trace hits");
        let block_hits = util::ratio(s.block_hits, s.block_hits + s.block_misses);
        self.set_ratio("cpu.block_hit_ratio", block_hits, "block-cache probes");
        let icache = util::ratio(s.icache_hits, s.icache_hits + s.icache_misses);
        self.set_ratio(
            "cpu.icache_hit_ratio",
            icache,
            "decoded-instruction-cache probes",
        );
        self.set("cpu.block_invalidations", s.block_invalidations as f64);
        self.set("cpu.trace_invalidations", s.trace_invalidations as f64);
        self.set("cpu.trace_builds", s.trace_misses as f64);
        self.set("cpu.chain_follows", s.chain_follows as f64);
        let pac_ops = s.pac_signs + s.pac_auth_ok + s.pac_auth_fail;
        self.set(
            "pac.ops_per_kinsn",
            pac_ops as f64 * 1e3 / s.instructions as f64,
        );
        let memo = util::ratio(s.pac_memo_hits, s.pac_memo_hits + s.pac_memo_misses);
        self.set_ratio("pac.memo_hit_ratio", memo, "PAC memo probes");
        self.set("pac.qarma_evals", s.pac_memo_misses as f64);
        let tlb = util::ratio(s.tlb_hits, s.tlb_hits + s.tlb_misses);
        self.set_ratio("mem.tlb_hit_ratio", tlb, "TLB probes");
        self.set("mem.tlb_misses", s.tlb_misses as f64);
        self.set("isa.decodes", (s.block_misses + s.icache_misses) as f64);
        self.notes.push(format!(
            "counts per rep: {} insns, {pac_ops} PAC ops ({} memo hits, {} QARMA evals), \
             {} TLB hits, {} TLB misses, {} decodes",
            s.instructions,
            s.pac_memo_hits,
            s.pac_memo_misses,
            s.tlb_hits,
            s.tlb_misses,
            s.block_misses + s.icache_misses
        ));
    }

    pub fn unit_costs(&mut self, u: &micro::UnitCosts) {
        self.set("pac.mac_hit_ns", u.mac_hit_ns);
        self.set("pac.mac_miss_ns", u.mac_miss_ns);
        self.set("mem.translate_hit_ns", u.translate_hit_ns);
        self.set("mem.translate_miss_ns", u.translate_miss_ns);
        self.set("isa.decode_ns", u.decode_ns);
        self.notes.push(
            "pac.mac_*_ns, mem.translate_*_ns and isa.decode_ns are unit costs per call \
             (micro-timed), not busy time"
                .into(),
        );
        if !u.counts_ok {
            self.notes
                .push("unit-cost loops did not hit/miss as intended; treat them as suspect".into());
        }
    }

    /// A traced replica did not reproduce the untraced run: the run is
    /// incorrect and the replica's numbers are withheld.
    pub fn replica_diverged(&mut self, what: &str) {
        self.errors.push(what.to_string());
        self.withheld = Some(what.to_string());
    }

    /// Writes the spans under the build directory, once, at the end.
    pub fn write_trace(&mut self, tracer: &Tracer, workload: &str) {
        let dir = std::env::var("CARGO_TARGET_DIR")
            .unwrap_or_else(|_| concat!(env!("CARGO_MANIFEST_DIR"), "/target").to_string());
        let path = std::path::Path::new(&dir)
            .join("bench-traces")
            .join(format!("{workload}.csv"));
        match tracer.write_csv(&path) {
            Ok(()) => self.notes.push(format!(
                "{} spans written to {}",
                tracer.spans.len(),
                path.display()
            )),
            Err(e) => self.notes.push(format!("spans not written: {e}")),
        }
    }

    fn correct(&self) -> bool {
        self.errors.is_empty() && self.failed == 0 && self.attempted > 0
    }
}

/// Why a per-layer metric has no value on `workload`.
fn not_measured(workload: &str, metric: &str) -> &'static str {
    match (workload, metric.split('.').next().unwrap_or("")) {
        ("hot_loop", "smp" | "workloads") => {
            "hot_loop runs one bare core: no FleetDriver, no tenants"
        }
        ("hot_loop", "kernel") => "hot_loop runs no kernel",
        ("lmbench", "workloads") => "lmbench has only the web tenant",
        (_, "cpu") => "Cpu::run_block is driven from outside only on hot_loop",
        (_, "kernel") => "Kernel::run_user is replayed only on lmbench",
        _ => "not measured on this workload",
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut parsed = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: f64::from(RUN_SECONDS),
        trace: false,
    };
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => parsed.workload = value()?,
            "--seed" => {
                let v = value()?;
                parsed.seed = match v.strip_prefix("0x") {
                    Some(hex) => u64::from_str_radix(hex, 16),
                    None => v.parse(),
                }
                .map_err(|e| format!("--seed {v}: {e}"))?;
            }
            "--seconds" => {
                let v = value()?;
                parsed.seconds = v
                    .parse::<f64>()
                    .ok()
                    .filter(|s| *s > 0.0 && s.is_finite())
                    .ok_or(format!("--seconds {v}: not a positive number"))?;
            }
            "--trace" => {
                parsed.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace {v}: expected 0 or 1")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if parsed.workload != "all" && !WORKLOAD_NAMES.contains(&parsed.workload.as_str()) {
        return Err(format!("unknown workload {:?}", parsed.workload));
    }
    Ok(parsed)
}

fn run(workload: &str, args: &Args) -> Outcome {
    match workload {
        "hot_loop" => hot_loop::run(args.seed, args.seconds, args.trace),
        "lmbench" => fleet::run(fleet::Kind::Lmbench, args.seed, args.seconds, args.trace),
        _ => fleet::run(fleet::Kind::FleetMix, args.seed, args.seconds, args.trace),
    }
}

/// The metrics of `out` this run reports, with their values, in registry
/// order, printing each by name and unit (and every gap with its reason).
fn report(workload: &str, out: &mut Outcome, trace: bool) -> Vec<(&'static Metric, f64)> {
    let attempted = out.attempted.max(1) as f64;
    out.set("ok_op_frac", 1.0 - out.failed as f64 / attempted);
    for note in &out.notes {
        println!("# {workload}: {note}");
    }
    for error in &out.errors {
        println!("# {workload}: ERROR {error}");
    }
    let registry = if trace {
        metrics::PER_LAYER
    } else {
        metrics::END_TO_END
    };
    let mut reported = Vec::new();
    for m in registry {
        match out.values.get(m.name) {
            Some(&v) if v.is_finite() => {
                println!("{workload} {} {v} {}", m.name, m.unit);
                reported.push((m, v));
            }
            _ => {
                let why = out
                    .unavailable
                    .get(m.name)
                    .map(String::as_str)
                    .or(out.withheld.as_deref())
                    .unwrap_or_else(|| not_measured(workload, m.name));
                println!("{workload} {} unavailable ({why})", m.name);
                reported.push((m, 0.0));
            }
        }
    }
    if !trace {
        // The failure share itself (the JSON carries ok_op_frac), and the
        // run's host share.
        println!(
            "{workload} failed_op_frac {} frac",
            out.failed as f64 / attempted
        );
        if let Some(util) = out.values.get("host.cpu_util") {
            println!("{workload} host.cpu_util {util} frac");
        }
    }
    reported
}

fn main() -> ExitCode {
    let mut argv = std::env::args().skip(1).peekable();
    match argv.peek().map(String::as_str) {
        Some("--describe") => {
            print!("{}", metrics::describe());
            return ExitCode::SUCCESS;
        }
        Some("--benchmark-json") => {
            print!("{}", metrics::benchmark_json(RUN_SECONDS));
            return ExitCode::SUCCESS;
        }
        _ => {}
    }
    let args = match parse_args(argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let workloads: Vec<&str> = if args.workload == "all" {
        WORKLOAD_NAMES.to_vec()
    } else {
        vec![args.workload.as_str()]
    };
    let (mut attempted, mut failed, mut correct) = (0, 0, true);
    let mut json = String::new();
    for workload in &workloads {
        let mut out = run(workload, &args);
        for (m, value) in report(workload, &mut out, args.trace) {
            let key = if workloads.len() > 1 {
                format!("{workload}.{}", m.name)
            } else {
                m.name.to_string()
            };
            if !json.is_empty() {
                json.push_str(", ");
            }
            let _ = write!(
                json,
                "\"{key}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.unit
            );
        }
        attempted += out.attempted;
        failed += out.failed;
        correct &= out.correct();
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{json}}}}}",
        attempted.max(1)
    );
    ExitCode::SUCCESS
}

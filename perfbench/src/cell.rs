//! Running one cell through the public run API, untraced or traced.
//!
//! Cells are driven through `build_machine` / `Machine::new` and the
//! `Result` of the engine, never through `run_workload`, which panics
//! on a timeout: a timed-out or invalid cell is counted as failed and
//! the run goes on.

use std::time::Instant;

use tlr_core::{build_machine, Machine, WorkloadSpec};
use tlr_sim::config::MachineConfig;
use tlr_sim::prof::Profiler;
use tlr_sim::MachineStats;

use crate::spans::Recorder;

/// How often the traced run times a single `advance_within` call.
/// Timing every call doubles the host time of a bus-saturated cell.
pub const SAMPLE_EVERY: u64 = 64;

/// `advance_within` calls per recorded span in the traced run.
pub const BATCH: u64 = 4096;

/// The outcome of one cell run.
pub struct CellRun {
    /// Host seconds from the first engine call to the end of
    /// validation.
    pub wall_s: f64,
    /// `advance_within` calls, counted from outside (traced runs only).
    pub advance_calls: u64,
    pub stats: MachineStats,
    pub profile: Option<Box<Profiler>>,
    /// `Err` when the cell timed out or failed validation.
    pub outcome: Result<(), String>,
}

impl CellRun {
    /// FNV-1a 64 over the full statistics (histograms and conflict map
    /// included; the map is a `BTreeMap`, so the text is stable).
    pub fn fingerprint(&self) -> u64 {
        format!("{:?}", self.stats)
            .bytes()
            .fold(0xcbf2_9ce4_8422_2325, |h, b| {
                (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
            })
    }
}

/// Builds the machine and runs it to quiescence with `Machine::run`.
pub fn run_plain(spec: &dyn WorkloadSpec, cfg: &MachineConfig) -> CellRun {
    let mut m = build_machine(cfg, spec);
    let t = Instant::now();
    let outcome = match m.run() {
        Ok(()) => spec.validate(&m),
        Err(e) => Err(e.to_string()),
    };
    CellRun {
        wall_s: t.elapsed().as_secs_f64(),
        advance_calls: 0,
        stats: m.stats().clone(),
        profile: m.take_profile(),
        outcome,
    }
}

/// Runs the cell with a span at each call boundary: the workload
/// build, `Machine::new` with the memory image, batches of
/// `advance_within`, `settle_idle_charges`, `finalize_stats` and
/// `validate`. The drive loop is `Machine::run`'s event-engine loop,
/// spelt out so its calls can be timed; `cfg` must select the event
/// engine. Every [`SAMPLE_EVERY`]th call's duration in nanoseconds is
/// appended to `advance_ns`.
pub fn run_traced(
    spec: &dyn WorkloadSpec,
    cfg: &MachineConfig,
    cell: u32,
    rec: &mut Recorder,
    advance_ns: &mut Vec<u64>,
) -> CellRun {
    let root = rec.open("cell", None, cell);

    let workload_span = rec.open("workloads.build", Some(root), cell);
    let programs = spec.programs(cfg.scheme);
    let image = spec.memory_image();
    let locks = spec.lock_addrs(cfg.scheme);
    rec.close(workload_span);

    let machine_span = rec.open("machine.new", Some(root), cell);
    let mut m = Machine::new(cfg.clone(), programs, locks);
    for (addr, val) in image {
        m.init_word(addr, val);
    }
    rec.close(machine_span);

    let run_from = rec.now_ns();
    let mut span = rec.open("engine.advance", Some(root), cell);
    let mut calls = 0u64;
    let mut timed_out = false;
    while !m.is_quiesced() {
        if m.cycle() >= cfg.max_cycles {
            timed_out = true;
            break;
        }
        if calls.is_multiple_of(SAMPLE_EVERY) {
            let t = Instant::now();
            m.advance_within(cfg.max_cycles);
            advance_ns.push(t.elapsed().as_nanos() as u64);
        } else {
            m.advance_within(cfg.max_cycles);
        }
        calls += 1;
        if calls.is_multiple_of(BATCH) {
            rec.close(span);
            span = rec.open("engine.advance", Some(root), cell);
        }
    }
    rec.close(span);

    let span = rec.open("engine.settle", Some(root), cell);
    m.settle_idle_charges();
    rec.close(span);

    let outcome = if timed_out {
        Err(tlr_core::SimTimeout { cycle: m.cycle() }.to_string())
    } else {
        let span = rec.open("engine.finalize", Some(root), cell);
        m.finalize_stats();
        rec.close(span);
        let span = rec.open("validate", Some(root), cell);
        let v = spec.validate(&m);
        rec.close(span);
        v
    };
    let wall_s = (rec.now_ns() - run_from) as f64 * 1e-9;
    rec.close(root);

    CellRun {
        wall_s,
        advance_calls: calls,
        stats: m.stats().clone(),
        profile: m.take_profile(),
        outcome,
    }
}

//! The TLR simulator's benchmark: host speed of the simulator and the
//! simulated speedup of TLR, end to end and layer by layer.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <apps16-bus|counter256-dir|conflict16-tlr> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One process runs one machine at a time on one thread (a closed
//! loop, no worker pool). A run checks the cycle-stepped oracle
//! against the event engine on a reduced size of the workload, runs
//! one profiled reference pass over every cell, then repeats timed
//! passes for `--seconds`. Every cell is validated and its statistics
//! must repeat the reference pass exactly. With `--trace 0` the last
//! stdout line carries the end-to-end metrics; with `--trace 1` a
//! traced pass follows each untraced one, and the line carries the
//! per-layer metrics. Details and the files written
//! are in `perfbench/README.md`. The exit code is 0 only when every
//! check passed.

mod cell;
mod json;
mod layers;
mod spans;
mod structs;
mod workloads;

use std::fs;
use std::process::ExitCode;
use std::time::Instant;

use tlr_core::{build_machine, WorkloadSpec};
use tlr_sim::config::{Engine, Scheme};

use cell::{run_plain, run_traced, CellRun};
use json::Json;
use layers::PassTimes;
use spans::Recorder;
use workloads::{Size, Workload};

/// Timed passes a run makes at the least, however short `--seconds`.
const MIN_PASSES: usize = 3;

/// `setup_s` rounds after each timed pass. A machine builds in
/// milliseconds, so `setup_s` needs more samples than `wall_s`.
const SETUP_ROUNDS: usize = 5;

/// Where result files go, relative to the directory the benchmark is
/// run from.
const OUT_DIR: &str = ".bench_out";

const USAGE: &str = "usage: perfbench --workload <apps16-bus|counter256-dir|conflict16-tlr> \
                     [--seed <u64>] [--seconds <s>] [--trace <0|1>]";

/// One reported metric.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &str, value: f64, unit: &'static str) -> Self {
        Metric {
            name: name.to_string(),
            value,
            unit,
        }
    }
}

/// The median of a non-empty sample.
pub fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile of a sorted sample (0 when empty).
pub fn percentile(sorted: &[u64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1] as f64
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

impl Args {
    fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, 1, 20.0, false);
        while let Some(flag) = it.next() {
            let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => {
                    workload = Some(
                        Workload::parse(&val).ok_or_else(|| format!("unknown workload {val:?}"))?,
                    );
                }
                "--seed" => seed = val.parse().map_err(|_| format!("bad seed {val:?}"))?,
                "--seconds" => {
                    seconds = val
                        .parse::<f64>()
                        .ok()
                        .filter(|s| s.is_finite() && *s >= 0.0)
                        .ok_or_else(|| format!("bad seconds {val:?}"))?;
                }
                "--trace" => {
                    trace = match val.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("bad trace {val:?} (expected 0 or 1)")),
                    };
                }
                _ => return Err(format!("unknown flag {flag:?}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed,
            seconds,
            trace,
        })
    }
}

/// Cell runs attempted and failed, and every check that did not hold.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

impl Tally {
    fn record(&mut self, label: &str, run: &CellRun) {
        self.attempted += 1;
        if let Err(e) = &run.outcome {
            self.failed += 1;
            self.problems.push(format!("{label}: {e}"));
        }
    }
}

/// What the profiled reference pass saw of one cell.
struct Reference {
    label: String,
    scheme: Scheme,
    fingerprint: u64,
    parallel_cycles: u64,
    elapsed_cycles: u64,
    steps: u64,
    live_ticks: u64,
}

struct Bench {
    workload: Workload,
    seed: u64,
    programs: Vec<Box<dyn WorkloadSpec>>,
    /// (program index, scheme), program-major.
    cells: Vec<(usize, Scheme)>,
    tally: Tally,
    reference: Vec<Reference>,
}

impl Bench {
    fn new(workload: Workload, seed: u64) -> Self {
        let programs = workload.programs(Size::Full);
        let cells = (0..programs.len())
            .flat_map(|p| workload.schemes().iter().map(move |&s| (p, s)))
            .collect();
        Bench {
            workload,
            seed,
            programs,
            cells,
            tally: Tally::default(),
            reference: Vec::new(),
        }
    }

    fn label(&self, cell: usize) -> String {
        let (p, scheme) = self.cells[cell];
        format!("{} {}", self.programs[p].name(), scheme.label())
    }

    fn config(&self, scheme: Scheme, profile: bool) -> tlr_sim::config::MachineConfig {
        self.workload
            .config(Size::Full, scheme, self.seed, Engine::EventDriven, profile)
    }

    /// The profiled reference pass: per-cell fingerprints, cycles,
    /// steps and live ticks.
    fn reference_pass(&mut self) {
        for (c, &(p, scheme)) in self.cells.clone().iter().enumerate() {
            let run = run_plain(self.programs[p].as_ref(), &self.config(scheme, true));
            let label = self.label(c);
            self.tally.record(&label, &run);
            let engine = &run
                .profile
                .as_ref()
                .expect("the reference pass is profiled")
                .engine;
            self.reference.push(Reference {
                label,
                scheme,
                fingerprint: run.fingerprint(),
                parallel_cycles: run.stats.parallel_cycles,
                elapsed_cycles: run.stats.elapsed_cycles,
                steps: engine.steps,
                live_ticks: engine.live_ticks,
            });
        }
    }

    /// Checks a cell's statistics against the reference pass.
    fn check_repeat(&mut self, cell: usize, run: &CellRun, what: &str) {
        self.tally.record(&self.reference[cell].label.clone(), run);
        if run.fingerprint() != self.reference[cell].fingerprint {
            let msg = format!(
                "{}: {what} statistics differ from the reference pass (fingerprint {:016x} != {:016x})",
                self.reference[cell].label,
                run.fingerprint(),
                self.reference[cell].fingerprint
            );
            self.tally.problems.push(msg);
        }
    }

    /// One untraced, unprofiled pass over every cell; returns the summed
    /// run time (a `wall_s` sample).
    fn untraced_pass(&mut self) -> f64 {
        let mut wall = 0.0;
        for (c, &(p, scheme)) in self.cells.clone().iter().enumerate() {
            let run = run_plain(self.programs[p].as_ref(), &self.config(scheme, false));
            wall += run.wall_s;
            self.check_repeat(c, &run, "untraced");
        }
        wall
    }

    /// Builds every cell's machine and drops it; returns the summed
    /// host seconds in `build_machine` (a `setup_s` sample).
    fn setup_round(&self) -> f64 {
        self.cells
            .iter()
            .map(|&(p, scheme)| {
                let cfg = self.config(scheme, false);
                let t = Instant::now();
                let m = build_machine(&cfg, self.programs[p].as_ref());
                let s = t.elapsed().as_secs_f64();
                drop(m);
                s
            })
            .sum()
    }

    /// One traced, profiled pass over every cell, recording spans into
    /// `rec` and sampled `advance_within` durations into `advance_ns`.
    fn traced_pass(&mut self, rec: &mut Recorder, advance_ns: &mut Vec<u64>) -> Vec<CellRun> {
        let mut runs = Vec::new();
        for (c, &(p, scheme)) in self.cells.clone().iter().enumerate() {
            let cfg = self.config(scheme, true);
            let run = run_traced(self.programs[p].as_ref(), &cfg, c as u32, rec, advance_ns);
            self.check_repeat(c, &run, "traced");
            runs.push(run);
        }
        runs
    }

    /// Runs a reduced size of the workload on both engines and
    /// requires identical statistics: the cycle-stepped engine is the
    /// in-repo oracle for the event engine.
    fn oracle_check(&mut self) {
        let w = self.workload;
        for spec in w.programs(Size::Oracle) {
            for &scheme in w.schemes() {
                let label = format!(
                    "oracle {} {} x{}",
                    spec.name(),
                    scheme.label(),
                    w.procs(Size::Oracle)
                );
                let run = |engine| {
                    run_plain(
                        spec.as_ref(),
                        &w.config(Size::Oracle, scheme, self.seed, engine, false),
                    )
                };
                let (event, cycle) = (run(Engine::EventDriven), run(Engine::CycleStepped));
                self.tally.record(&format!("{label} event"), &event);
                self.tally.record(&format!("{label} cycle"), &cycle);
                if event.stats != cycle.stats {
                    self.tally.problems.push(format!(
                        "{label}: event-engine statistics differ from the cycle-stepped oracle \
                         (parallel cycles {} vs {}, elapsed {} vs {})",
                        event.stats.parallel_cycles,
                        cycle.stats.parallel_cycles,
                        event.stats.elapsed_cycles,
                        cycle.stats.elapsed_cycles,
                    ));
                }
            }
        }
    }

    /// `sim_cycles_tlr` and `tlr_speedup` from the reference pass.
    fn simulated(&self) -> (f64, f64) {
        let schemes = self.workload.schemes();
        let (base, tlr) = (schemes[0], schemes[schemes.len() - 1]);
        let cycles = |s: Scheme| {
            self.reference
                .iter()
                .filter(move |r| r.scheme == s)
                .map(|r| r.parallel_cycles as f64)
        };
        let tlr_cycles: f64 = cycles(tlr).sum();
        let ratios: Vec<f64> = cycles(base).zip(cycles(tlr)).map(|(b, t)| b / t).collect();
        let geomean = (ratios.iter().map(|r| r.ln()).sum::<f64>() / ratios.len() as f64).exp();
        (tlr_cycles, geomean)
    }

    fn provenance(&self) -> Json {
        let w = self.workload;
        Json::obj([
            ("workload", Json::str(w.name())),
            ("seed", Json::Int(self.seed)),
            ("engine", Json::str(Engine::EventDriven.label())),
            ("oracle_engine", Json::str(Engine::CycleStepped.label())),
            ("interconnect", Json::str(w.interconnect().label())),
            ("policy", Json::str(workloads::POLICY.label())),
            ("procs", Json::Int(w.procs(Size::Full) as u64)),
            ("rustc", Json::str(env!("PERFBENCH_RUSTC"))),
            ("commit", Json::str(git_commit())),
            (
                "nproc",
                Json::Int(std::thread::available_parallelism().map_or(0, |n| n.get() as u64)),
            ),
            (
                "caches",
                Json::str("cold: every cell is a whole run from empty caches"),
            ),
        ])
    }

    fn cells_json(&self) -> Json {
        Json::Arr(
            self.reference
                .iter()
                .map(|r| {
                    Json::obj([
                        ("cell", Json::str(&r.label)),
                        ("parallel_cycles", Json::Int(r.parallel_cycles)),
                        ("elapsed_cycles", Json::Int(r.elapsed_cycles)),
                        ("steps", Json::Int(r.steps)),
                        ("live_ticks", Json::Int(r.live_ticks)),
                        ("fingerprint", Json::str(format!("{:016x}", r.fingerprint))),
                    ])
                })
                .collect(),
        )
    }
}

/// The commit of the checkout the benchmark runs in, read from
/// `.git` without running git; "unknown" outside a git checkout.
fn git_commit() -> String {
    let read = |p: &str| fs::read_to_string(format!(".git/{p}")).ok();
    let Some(head) = read("HEAD") else {
        return "unknown".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(c) = read(reference) {
        return c.trim().to_string();
    }
    read("packed-refs")
        .and_then(|p| {
            p.lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split(' ').next())
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Peak resident memory of this process in MiB (`VmHWM`).
fn peak_rss_mb() -> Result<f64, String> {
    let status =
        fs::read_to_string("/proc/self/status").map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

fn quartiles(v: &[f64]) -> (f64, f64) {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let half = s.len() / 2;
    (
        median(&s[..half.max(1)]),
        median(&s[s.len() - half.max(1)..]),
    )
}

fn metrics_json(metrics: &[Metric]) -> Json {
    Json::obj(metrics.iter().map(|m| {
        (
            m.name.clone(),
            Json::obj([("value", Json::Num(m.value)), ("unit", Json::str(m.unit))]),
        )
    }))
}

fn run(args: &Args) -> Result<bool, String> {
    let mut bench = Bench::new(args.workload, args.seed);
    let w = args.workload;
    let provenance = bench.provenance();
    println!("provenance {}", provenance.render());

    let checks_from = Instant::now();
    bench.oracle_check();
    bench.reference_pass();
    println!(
        "oracle check and reference pass took {:.3} s",
        checks_from.elapsed().as_secs_f64()
    );
    for r in &bench.reference {
        println!(
            "cell {:<34} cycles={} elapsed={} steps={} live_ticks={}",
            r.label, r.parallel_cycles, r.elapsed_cycles, r.steps, r.live_ticks
        );
    }

    // Timed passes until `--seconds` have passed. A traced run
    // alternates untraced and traced passes, so drift in the host's
    // speed falls on both alike and `trace.overhead_frac` stays fair.
    let (mut setups, mut walls) = (Vec::new(), Vec::new());
    let mut rec = Recorder::new();
    let mut times = PassTimes {
        self_s: Vec::new(),
        wall_s: Vec::new(),
    };
    let mut traced = None;
    let mut advance_ns = Vec::new();
    let start = Instant::now();
    while walls.len() < MIN_PASSES || start.elapsed().as_secs_f64() < args.seconds {
        walls.push(bench.untraced_pass());
        setups.extend((0..SETUP_ROUNDS).map(|_| bench.setup_round()));
        if args.trace {
            let from = rec.spans().len();
            let runs = bench.traced_pass(&mut rec, &mut advance_ns);
            times.self_s.push(rec.self_times(from));
            times.wall_s.push(runs.iter().map(|r| r.wall_s).sum());
            traced = Some(runs);
        }
    }
    let wall_s = median(&walls);
    let (q1, q3) = quartiles(&walls);
    println!(
        "wall_s median {wall_s:.4} s over {} passes (quartiles {q1:.4} .. {q3:.4})",
        walls.len()
    );

    let samples = |v: &[f64]| Json::Arr(v.iter().map(|&x| Json::Num(x)).collect());
    let mut extra = vec![
        ("setup_s_samples", samples(&setups)),
        ("wall_s_passes", samples(&walls)),
    ];
    let metrics = if let Some(runs) = traced {
        let structs = structs::timings();
        for (r, run) in bench.reference.iter().zip(&runs) {
            let n = |f: fn(&tlr_sim::NodeStats) -> u64| run.stats.sum(f);
            println!(
                "layers {:<34} elisions={} commits={} restarts={} deferrals={} nacks={} instructions={}",
                r.label,
                n(|s| s.elisions_started),
                n(|s| s.commits),
                n(tlr_sim::NodeStats::restarts),
                n(|s| s.requests_deferred),
                n(|s| s.nacks_sent),
                n(|s| s.instructions),
            );
        }
        let per_layer = layers::metrics(
            &runs,
            w.procs(Size::Full),
            &mut advance_ns,
            &times,
            wall_s,
            &structs,
        );
        extra.push(("traced_wall_s_passes", samples(&times.wall_s)));
        extra.push(("spans", rec.to_json()));
        extra.push((
            "self_s_per_pass",
            Json::Arr(
                times
                    .self_s
                    .iter()
                    .map(|m| Json::obj(m.iter().map(|(&k, &v)| (k, Json::Num(v)))))
                    .collect(),
            ),
        ));
        per_layer
    } else {
        let (tlr_cycles, speedup) = bench.simulated();
        let cycles: u64 = bench.reference.iter().map(|r| r.parallel_cycles).sum();
        let t = &bench.tally;
        let failed_frac = t.failed as f64 / t.attempted as f64;
        println!(
            "failed_frac {failed_frac} ({} of {} cell runs)",
            t.failed, t.attempted
        );
        vec![
            Metric::new("setup_s", median(&setups), "s"),
            Metric::new("wall_s", wall_s, "s"),
            Metric::new("sim_cycles_per_s", cycles as f64 / wall_s, "cycles/s"),
            Metric::new("peak_rss_mb", peak_rss_mb()?, "MiB"),
            Metric::new("sim_cycles_tlr", tlr_cycles, "cycles"),
            Metric::new("tlr_speedup", speedup, "ratio"),
            Metric::new("completed_frac", 1.0 - failed_frac, "fraction"),
        ]
    };
    for m in &metrics {
        println!("metric {:<36} {} {}", m.name, m.value, m.unit);
    }

    let t = &bench.tally;
    for p in &t.problems {
        println!("FAIL {p}");
    }
    let correct = t.problems.is_empty();

    let mut doc = vec![
        ("provenance", provenance),
        ("cells", bench.cells_json()),
        ("trace", Json::Bool(args.trace)),
        ("correct", Json::Bool(correct)),
        (
            "problems",
            Json::Arr(t.problems.iter().map(Json::str).collect()),
        ),
        ("metrics", metrics_json(&metrics)),
    ];
    doc.extend(extra);
    fs::create_dir_all(OUT_DIR).map_err(|e| format!("{OUT_DIR}: {e}"))?;
    let path = format!(
        "{OUT_DIR}/{}-seed{}-trace{}.json",
        w.name(),
        args.seed,
        u8::from(args.trace)
    );
    fs::write(&path, Json::obj(doc).render() + "\n").map_err(|e| format!("{path}: {e}"))?;
    println!("results written to {path}");

    let line = Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Int(t.attempted)),
        ("failed", Json::Int(t.failed)),
        ("metrics", metrics_json(&metrics)),
    ]);
    println!("{}", line.render());
    Ok(correct)
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

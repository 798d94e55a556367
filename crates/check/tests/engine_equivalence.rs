//! The engine-equivalence wall: the discrete-event engine must be
//! byte-identical to the cycle-stepped oracle — same `MachineStats`,
//! same trace events, same final cycle — on fuzzed configurations
//! (including chaos streams), on explicit fault-intensity sweeps, and
//! on the workload families behind every figure/table binary.

use std::collections::HashSet;
use std::sync::Arc;

use tlr_check::diff::{check_engines, trace_digest};
use tlr_check::fuzz::arbitrary_config;
use tlr_check::oracle::OracleWorkload;
use tlr_check::{prop, Source};
use tlr_core::run::{build_machine, WorkloadSpec};
use tlr_core::{run_preemptive, Machine, Preemption};
use tlr_cpu::{Asm, Program};
use tlr_mem::Addr;
use tlr_sim::config::{
    Engine, Interconnect, MachineConfig, MachineConfigBuilder, PolicyKind, RetentionPolicy, Scheme,
};
use tlr_sim::MachineStats;
use tlr_sync::tatas::{self, TatasRegs};
use tlr_sim::fault::FaultConfig;
use tlr_sim::pool::Pool;
use tlr_sim::prof::{ProfConfig, WakeSource};
use tlr_workloads::{apps, micro};

/// One differential case: a fuzzed configuration (geometry, latencies,
/// retention, timestamp width, jitter, faults) and a fuzzed oracle
/// workload, compared across both engines for each paper scheme.
fn diff_case(s: &mut Source) -> Result<(), String> {
    let cfg = arbitrary_config(s);
    let w = OracleWorkload::arbitrary(s, cfg.num_procs, 4);
    for scheme in [Scheme::Base, Scheme::Sle, Scheme::Tlr] {
        let mut c = cfg.clone();
        c.scheme = scheme;
        check_engines(|engine| {
            let mut c = c.clone();
            c.engine = engine;
            w.build_machine(&c)
        })
        .map_err(|e| format!("scheme {scheme}: {e}\n    config: {c:?}\n    workload: {w:?}"))?;
    }
    Ok(())
}

#[test]
fn event_engine_matches_oracle_on_fuzzed_configs() {
    // 35 fuzzed configs x BASE/SLE/TLR = 105 engine comparisons by
    // default; `TLR_CHECK_CASES` scales the sweep. Roughly a third of
    // the configs draw an active chaos stream (see
    // `fuzz::arbitrary_config`), so spurious aborts, bus reorders and
    // network delays are all exercised differentially.
    let mut cfg = prop::Config::from_env(35);
    cfg.max_shrink_checks = 48;
    prop::check_with_pool("engine_equivalence", cfg, &Pool::from_env(), diff_case);
}

#[test]
fn event_engine_matches_oracle_under_explicit_chaos() {
    // Guaranteed-chaos cells (the fuzzed sweep only reaches faults
    // probabilistically): every fault kind active, intensity cycling
    // through the full range, across the three paper schemes.
    for i in 0..4u32 {
        let fault_seed = 0x0ddc_0ffe_u64.wrapping_add(u64::from(i) * 0x9e37_79b9);
        let level = 1 + i % FaultConfig::MAX_INTENSITY;
        for scheme in [Scheme::Base, Scheme::Sle, Scheme::Tlr] {
            let mut src = Source::from_seed(fault_seed);
            let procs = src.usize_in(2..=3);
            let w = OracleWorkload::arbitrary(&mut src, procs, 3);
            let cfg = MachineConfig::builder()
                .scheme(scheme)
                .procs(procs)
                .seed(src.next_raw())
                .max_cycles(8_000_000)
                .faults(FaultConfig::intensity(fault_seed, level))
                .build();
            check_engines(|engine| {
                let mut c = cfg.clone();
                c.engine = engine;
                w.build_machine(&c)
            })
            .unwrap_or_else(|e| {
                panic!(
                    "chaos divergence (scheme {scheme}, fault seed {fault_seed:#x}, \
                     intensity {level}): {e}\n    workload: {w:?}"
                )
            });
        }
    }
}

#[test]
fn event_engine_matches_oracle_on_binary_workloads() {
    // Small-scale instances of the workload families behind the
    // figure/table/experiment binaries; `run_cell` builds the same
    // machines at full scale.
    let workloads: Vec<(&str, Box<dyn WorkloadSpec>)> = vec![
        ("multiple_counter", Box::new(micro::multiple_counter(3, 24))),
        ("single_counter", Box::new(micro::single_counter(3, 24))),
        ("doubly_linked_list", Box::new(micro::doubly_linked_list(3, 9))),
        ("mp3d", Box::new(apps::mp3d(3, 6, 16))),
        ("mp3d_coarse", Box::new(apps::mp3d_coarse(3, 6, 16))),
        ("barnes", Box::new(apps::barnes(3, 4, 3))),
        ("radiosity", Box::new(apps::radiosity(3, 4, 4))),
        ("water_nsq", Box::new(apps::water_nsq(3, 4, 4))),
        ("ocean_cont", Box::new(apps::ocean_cont(3, 2, 4))),
        ("raytrace", Box::new(apps::raytrace(3, 6))),
    ];
    for scheme in [Scheme::Base, Scheme::Sle, Scheme::Tlr] {
        for (name, w) in &workloads {
            let mut cfg = MachineConfig::paper_default(scheme, 3);
            cfg.max_cycles = 60_000_000;
            cfg.seed = 0xe4e2_5eed;
            check_engines(|engine| {
                let mut c = cfg.clone();
                c.engine = engine;
                let mut m = build_machine(&c, w.as_ref());
                m.enable_trace_with_capacity(1 << 14);
                m
            })
            .unwrap_or_else(|e| panic!("{name}/{scheme}: {e}"));
        }
    }
}

#[test]
fn event_engine_stops_at_the_halt_that_quiesces_the_machine() {
    // Regression: when the last core's `halt` ran in a full step, the
    // burst that followed ticked one more cycle and charged it to the
    // run. These seeds hit that overshoot at the benchmark's
    // conflict16-tlr oracle size.
    let cells: [(Box<dyn WorkloadSpec>, Scheme, u64); 2] = [
        (Box::new(micro::single_counter(16, 512)), Scheme::Tlr, 105),
        (
            Box::new(micro::doubly_linked_list(16, 256)),
            Scheme::Sle,
            37,
        ),
    ];
    for (w, scheme, seed) in &cells {
        let cfg = MachineConfig::builder()
            .scheme(*scheme)
            .procs(16)
            .seed(*seed)
            .build();
        check_engines(|engine| {
            let mut c = cfg.clone();
            c.engine = engine;
            build_machine(&c, w.as_ref())
        })
        .unwrap_or_else(|e| panic!("{}/{scheme} seed {seed}: {e}", w.name()));
    }
}

/// Runs `w` on the directory under both engines and returns the event
/// run's wake histogram, so a cell can prove which wake sources it
/// exercised.
fn check_directory_cell(w: &dyn WorkloadSpec, cfg: &MachineConfig) -> [u64; WakeSource::COUNT] {
    let label = format!("{} x{} {:?}", w.name(), cfg.num_procs, cfg.policy);
    check_engines(|engine| {
        let mut c = cfg.clone();
        c.engine = engine;
        build_machine(&c, w)
    })
    .unwrap_or_else(|e| panic!("{label}: {e}"));
    let mut c = cfg.clone();
    c.profile = ProfConfig::on();
    let mut m = build_machine(&c, w);
    m.run().unwrap_or_else(|e| panic!("{label}: {e}"));
    m.take_profile().expect("profiling was enabled").engine.wake
}

#[test]
fn event_engine_matches_oracle_on_wide_directory_machines() {
    // 96 and 160 processors: the engine's active, woken and target
    // sets span two and three bitset words, the last one partial.
    let dir = |procs| {
        MachineConfig::builder()
            .scheme(Scheme::Tlr)
            .procs(procs)
            .interconnect(Interconnect::Directory)
            .seed(0x160)
    };
    // The backoff policy forces NACK retention, so refused requesters
    // sleep on retry timers that only the wake calendar can fire.
    let cfg = dir(96).policy(PolicyKind::Backoff).build();
    let hist = check_directory_cell(&micro::single_counter(96, 384), &cfg);
    assert!(
        wakes(&hist, WakeSource::RetryTimer) > 0,
        "x96 backoff never woke on a retry timer"
    );
    let cfg = dir(160).build();
    let hist = check_directory_cell(&micro::multiple_counter(160, 160), &cfg);
    assert!(
        wakes(&hist, WakeSource::Directory) > 0,
        "x160 never woke on the directory"
    );
}

const LOCK: u64 = 0x100;
const BLOCKS: [u64; 5] = [0x2000, 0x3000, 0x4000, 0x5000, 0x6000];

/// `procs` threads, each running `iters` critical sections under one
/// test&test&set lock. Each critical section increments the five
/// blocks in a thread-rotated order with a `delay`-cycle compute delay
/// before every block after the first, then a random post-release
/// delay. The rotation builds long marker/probe chains, so restarts
/// land while the core is still inside a delay.
fn delayed_chains(procs: usize, iters: u64, delay: u32) -> Vec<Arc<Program>> {
    (0..procs)
        .map(|rot| {
            let mut a = Asm::new(format!("delayed-chain-{rot}"));
            let (lock, n, v, addr) = (a.reg(), a.reg(), a.reg(), a.reg());
            let r = TatasRegs::alloc(&mut a);
            tatas::init_regs(&mut a, &r);
            a.li(lock, LOCK);
            a.li(n, iters);
            let top = a.here();
            tatas::acquire(&mut a, lock, &r);
            for k in 0..BLOCKS.len() {
                if k > 0 {
                    a.delay(delay);
                }
                a.li(addr, BLOCKS[(rot + k) % BLOCKS.len()]);
                a.load(v, addr, 0);
                a.addi(v, v, 1);
                a.store(v, addr, 0);
            }
            tatas::release(&mut a, lock, &r);
            a.rand_delay(2, 12);
            a.addi(n, n, -1);
            a.bne(n, r.zero, top);
            a.done();
            Arc::new(a.finish())
        })
        .collect()
}

fn delayed_chain_machine(cfg: &MachineConfig, iters: u64, delay: u32) -> Machine {
    let programs = delayed_chains(cfg.num_procs, iters, delay);
    let mut m = Machine::new(cfg.clone(), programs, HashSet::from([Addr(LOCK)]));
    m.enable_trace();
    m
}

/// Checks `cfg` on the delayed-chain workload under both engines,
/// checks the final block values, and returns the event run's stats
/// and wake histogram.
fn check_delayed_chains(
    cfg: &MachineConfig,
    iters: u64,
    delay: u32,
) -> (MachineStats, [u64; WakeSource::COUNT]) {
    let label = format!(
        "x{} {:?} {:?} {:?} seed {}",
        cfg.num_procs, cfg.interconnect, cfg.retention, cfg.policy, cfg.seed
    );
    check_engines(|engine| {
        let mut c = cfg.clone();
        c.engine = engine;
        delayed_chain_machine(&c, iters, delay)
    })
    .unwrap_or_else(|e| panic!("{label}: {e}"));
    let mut c = cfg.clone();
    c.profile = ProfConfig::on();
    let mut m = delayed_chain_machine(&c, iters, delay);
    m.run().unwrap_or_else(|e| panic!("{label}: {e}"));
    for &b in &BLOCKS {
        assert_eq!(m.final_word(Addr(b)), cfg.num_procs as u64 * iters, "{label}: block {b:#x}");
    }
    let wake = m.take_profile().expect("profiling was enabled").engine.wake;
    (m.stats().clone(), wake)
}

fn wakes(hist: &[u64; WakeSource::COUNT], src: WakeSource) -> u64 {
    hist[WakeSource::ALL.iter().position(|&s| s == src).unwrap()]
}

fn tlr5(seed: u64) -> MachineConfigBuilder {
    MachineConfig::builder().scheme(Scheme::Tlr).procs(5).seed(seed).max_cycles(20_000_000)
}

#[test]
fn event_engine_matches_oracle_with_delays_inside_contended_critical_sections() {
    // Markers and probes abort transactions while their cores sit in
    // a parked compute delay; the abort's restore must see the delay
    // counter settled exactly up to the delivery.
    let mut restarts = 0;
    for seed in 1..=6 {
        for interconnect in [Interconnect::Snooping, Interconnect::Directory] {
            let cfg = tlr5(seed).interconnect(interconnect).build();
            let (stats, hist) = check_delayed_chains(&cfg, 16, 8);
            restarts += stats.sum(|n| n.restarts_conflict);
            let label = format!("seed {seed} {interconnect:?}");
            assert!(stats.sum(|n| n.probes_sent) > 0, "{label}: no probes");
            assert!(wakes(&hist, WakeSource::IdleTimer) > 0, "{label}: no delay parked");
        }
    }
    assert!(restarts > 0, "no transaction was ever aborted");
}

#[test]
fn event_engine_matches_oracle_with_delays_under_nack_retention() {
    // A NACKed requester may sit in a delay (its miss was issued
    // before the delay began): its calendar wake is the earlier of the
    // delay's last tick and its retry.
    for (retention, policy) in [
        (RetentionPolicy::Nack, PolicyKind::Timestamp),
        (RetentionPolicy::Deferral, PolicyKind::Backoff),
    ] {
        let mut retries = 0;
        for seed in [4, 5] {
            let cfg = tlr5(seed).retention(retention).policy(policy).build();
            let (stats, hist) = check_delayed_chains(&cfg, 10, 12);
            retries += wakes(&hist, WakeSource::RetryTimer);
            let label = format!("{policy:?} seed {seed}");
            assert!(stats.sum(|n| n.nacks_received) > 0, "{label}: no NACKs");
            assert!(wakes(&hist, WakeSource::IdleTimer) > 0, "{label}: no delay parked");
        }
        assert!(retries > 0, "{retention:?}/{policy:?}: no wake on a retry timer");
    }
}

#[test]
fn event_engine_matches_oracle_with_delays_under_chaos() {
    // An open transaction draws fault randomness every tick, so its
    // delays must never park; delays outside transactions still do.
    // The spurious-abort rate is raised well above the graded presets
    // (1 in 512 transactional node-cycles) so that a skipped draw
    // would move later aborts.
    let mut spurious = 0;
    for level in 1..=FaultConfig::MAX_INTENSITY {
        let seed = 0xde1a_u64 + u64::from(level);
        let faults = FaultConfig {
            spurious_abort_chance: 1 << 11,
            ..FaultConfig::intensity(seed, level)
        };
        let cfg = tlr5(seed).faults(faults).build();
        let (stats, _) = check_delayed_chains(&cfg, 8, 10);
        spurious += stats.faults.spurious_aborts;
    }
    assert!(spurious > 0, "no spurious abort was ever injected");
}

#[test]
fn event_engine_matches_oracle_under_preemption_mid_delay() {
    // `run_preemptive` deschedules and reschedules nodes between
    // steps; with 24-cycle delays many preemptions land mid-delay.
    let p = Preemption::new(409, 61);
    for scheme in [Scheme::Base, Scheme::Tlr] {
        let cfg = MachineConfig::builder()
            .scheme(scheme)
            .procs(4)
            .seed(7)
            .max_cycles(20_000_000)
            .build();
        let run = |engine| {
            let mut c = cfg.clone();
            c.engine = engine;
            let mut m = delayed_chain_machine(&c, 16, 24);
            let report =
                run_preemptive(&mut m, p).unwrap_or_else(|e| panic!("{scheme} {engine:?}: {e}"));
            (m, report)
        };
        let (ev, ev_report) = run(Engine::EventDriven);
        let (cy, cy_report) = run(Engine::CycleStepped);
        assert!(ev_report.preemptions > 20, "{scheme}: too few preemptions: {ev_report:?}");
        assert_eq!(ev_report, cy_report, "{scheme}: preemption reports");
        assert_eq!(ev.cycle(), cy.cycle(), "{scheme}: final cycle");
        assert!(ev.stats() == cy.stats(), "{scheme}: stats differ");
        assert_eq!(trace_digest(&ev), trace_digest(&cy), "{scheme}: traces differ");
    }
}

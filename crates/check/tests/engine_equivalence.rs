//! The engine-equivalence wall: the discrete-event engine must be
//! byte-identical to the cycle-stepped oracle — same `MachineStats`,
//! same trace events, same final cycle — on fuzzed configurations
//! (including chaos streams), on explicit fault-intensity sweeps, and
//! on the workload families behind every figure/table binary.

use tlr_check::diff::check_engines;
use tlr_check::fuzz::arbitrary_config;
use tlr_check::oracle::OracleWorkload;
use tlr_check::{prop, Source};
use tlr_core::run::{build_machine, WorkloadSpec};
use tlr_sim::config::{Interconnect, MachineConfig, PolicyKind, Scheme};
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
    let wakes = |hist: &[u64; WakeSource::COUNT], src: WakeSource| {
        hist[WakeSource::ALL.iter().position(|&s| s == src).unwrap()]
    };
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

//! The benchmark's three workloads and the machine configurations
//! their cells run under.
//!
//! Each workload is a fixed set of cells (one workload program under
//! one scheme). Every cell is a whole cold run: caches, predictors and
//! directory state start empty, as in the paper's figures. Why each
//! workload exists, and which layer it loads, is written down in
//! `perfbench/README.md`.

use tlr_core::WorkloadSpec;
use tlr_sim::config::{Engine, Interconnect, MachineConfig, PolicyKind, Scheme};
use tlr_sim::prof::ProfConfig;
use tlr_workloads::apps::figure11_apps;
use tlr_workloads::micro::{doubly_linked_list, multiple_counter, single_counter};

/// The cycle budget of every cell. The largest cell at full size runs
/// about 3 M cycles, so a cell that reaches this is livelocked, and
/// counts as failed instead of holding the run hostage.
pub const MAX_CYCLES: u64 = 25_000_000;

/// The conflict policy every cell runs under: the paper's.
pub const POLICY: PolicyKind = PolicyKind::Timestamp;

/// One of the benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The seven Figure 11 kernels at 16 processors on the snooping
    /// bus: bus-saturated, node ticks dominate host time.
    Apps16Bus,
    /// `multiple_counter` at 256 processors on the home directory:
    /// hundreds of parked spinners, the engine's scans dominate.
    Counter256Dir,
    /// `single_counter` and `doubly_linked_list` at 16 processors on
    /// the bus: the paper's high-conflict regime.
    Conflict16Tlr,
}

/// Which size of a workload to build.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The measured size.
    Full,
    /// A reduced size cheap enough to run on the cycle-stepped oracle.
    Oracle,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::Apps16Bus,
        Workload::Counter256Dir,
        Workload::Conflict16Tlr,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Apps16Bus => "apps16-bus",
            Workload::Counter256Dir => "counter256-dir",
            Workload::Conflict16Tlr => "conflict16-tlr",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    pub fn interconnect(self) -> Interconnect {
        match self {
            Workload::Counter256Dir => Interconnect::Directory,
            Workload::Apps16Bus | Workload::Conflict16Tlr => Interconnect::Snooping,
        }
    }

    /// The schemes each program runs under. The first is the baseline
    /// and the last is BASE+SLE+TLR: `tlr_speedup` pairs them.
    ///
    /// `conflict16-tlr` has no BASE cells: at 16 processors BASE
    /// livelocks on these two kernels for about half of all seeds
    /// (every store-conditional keeps failing; with latency jitter off
    /// it does not happen), and a cell that never ends cannot be timed.
    /// Its baseline is BASE+SLE, the paper's own foil for TLR under
    /// conflicts (Figures 9 and 10).
    pub fn schemes(self) -> &'static [Scheme] {
        match self {
            Workload::Apps16Bus | Workload::Counter256Dir => &[Scheme::Base, Scheme::Tlr],
            Workload::Conflict16Tlr => &[Scheme::Sle, Scheme::Tlr],
        }
    }

    pub fn procs(self, size: Size) -> usize {
        match (self, size) {
            (Workload::Counter256Dir, Size::Full) => 256,
            // 256 processors on the cycle-stepped oracle cost seconds
            // even for one increment each; 64 keeps the directory and
            // the spin parking while the check stays under a second.
            (Workload::Counter256Dir, Size::Oracle) => 64,
            (Workload::Apps16Bus | Workload::Conflict16Tlr, _) => 16,
        }
    }

    /// The workload programs, sized so one pass over every cell takes
    /// a few host seconds (see `perfbench/README.md` for the sizing).
    pub fn programs(self, size: Size) -> Vec<Box<dyn WorkloadSpec>> {
        let procs = self.procs(size);
        match (self, size) {
            // Half the Figure 11 default scale of 512.
            (Workload::Apps16Bus, Size::Full) => figure11_apps(procs, 256),
            (Workload::Apps16Bus, Size::Oracle) => figure11_apps(procs, 32),
            // Four increments per processor: the spinners stay parked
            // on the one lock for the whole run.
            (Workload::Counter256Dir, Size::Full) => vec![Box::new(multiple_counter(procs, 1024))],
            (Workload::Counter256Dir, Size::Oracle) => vec![Box::new(multiple_counter(procs, 64))],
            // Twice the Figure 9/10 default sizes, so the short cells
            // add up to a steady pass.
            (Workload::Conflict16Tlr, Size::Full) => vec![
                Box::new(single_counter(procs, 8192)),
                Box::new(doubly_linked_list(procs, 4096)),
            ],
            (Workload::Conflict16Tlr, Size::Oracle) => vec![
                Box::new(single_counter(procs, 512)),
                Box::new(doubly_linked_list(procs, 256)),
            ],
        }
    }

    /// The machine configuration of one cell. Every knob the run
    /// depends on is set here, so no process-global default leaks in.
    pub fn config(
        self,
        size: Size,
        scheme: Scheme,
        seed: u64,
        engine: Engine,
        profile: bool,
    ) -> MachineConfig {
        MachineConfig::builder()
            .scheme(scheme)
            .procs(self.procs(size))
            .interconnect(self.interconnect())
            .policy(POLICY)
            .engine(engine)
            .profile(if profile {
                ProfConfig::on()
            } else {
                ProfConfig::off()
            })
            .seed(seed)
            .max_cycles(MAX_CYCLES)
            .build()
    }
}

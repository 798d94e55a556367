//! Per-layer metrics of a traced run: work counts from `MachineStats`
//! and the profiler's engine counters, host times from the spans.

use std::collections::BTreeMap;

use tlr_sim::prof::WakeSource;

use crate::cell::CellRun;
use crate::{median, percentile, Metric};

/// The metric-name suffix of each wake source.
fn wake_name(source: WakeSource) -> &'static str {
    match source {
        WakeSource::ActiveFloor => "active_floor",
        WakeSource::Bus => "bus",
        WakeSource::Network => "network",
        WakeSource::SnoopFront => "snoop_front",
        WakeSource::IdleTimer => "idle_timer",
        WakeSource::RetryTimer => "retry_timer",
        WakeSource::Directory => "directory",
        WakeSource::Bound => "bound",
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Host times of the traced passes, one entry per pass.
pub struct PassTimes {
    /// Self time per span name.
    pub self_s: Vec<BTreeMap<&'static str, f64>>,
    /// The untraced `wall_s` scope of each traced pass.
    pub wall_s: Vec<f64>,
}

impl PassTimes {
    fn median_self(&self, name: &str) -> f64 {
        let v: Vec<f64> = self
            .self_s
            .iter()
            .map(|m| m.get(name).copied().unwrap_or(0.0))
            .collect();
        median(&v)
    }
}

/// Every per-layer metric. `runs` is one traced pass over all cells
/// (the counts repeat exactly from pass to pass), `advance_ns` the
/// sampled `advance_within` durations of every traced pass, and
/// `untraced_wall_s` the median pass of the same run with tracing off.
pub fn metrics(
    runs: &[CellRun],
    procs: usize,
    advance_ns: &mut [u64],
    times: &PassTimes,
    untraced_wall_s: f64,
    structs: &[(&'static str, f64)],
) -> Vec<Metric> {
    let sum = |f: &dyn Fn(&CellRun) -> u64| runs.iter().map(f).sum::<u64>() as f64;
    let node_sum = |f: fn(&tlr_sim::NodeStats) -> u64| sum(&|r| r.stats.sum(f));
    let engine = |f: fn(&tlr_sim::prof::EngineProf) -> u64| {
        sum(&|r| r.profile.as_ref().map_or(0, |p| f(&p.engine)))
    };

    let elapsed = sum(&|r| r.stats.elapsed_cycles);
    let node_cycles = elapsed * procs as f64;
    let steps = engine(|e| e.steps);
    let live_ticks = engine(|e| e.live_ticks);
    let advance_s = times.median_self("engine.advance");

    // Occupancy windows never overlap, so ordered requests times the
    // window over the covered cycles is exact; summed over cells it is
    // the cycle-weighted mean.
    let (mut bus_busy, mut dir_busy, mut bus_cycles, mut dir_bank_cycles, mut net_sent) =
        (0.0, 0.0, 0.0, 0.0, 0.0);
    for p in runs.iter().filter_map(|r| r.profile.as_ref()) {
        for s in p.samples() {
            bus_busy += (s.bus_ordered * p.bus_occupancy) as f64;
            dir_busy += (s.dir_ordered * p.bus_occupancy) as f64;
            bus_cycles += s.cycles as f64;
            dir_bank_cycles += (s.cycles * p.dir_banks as u64) as f64;
            net_sent += s.net_sent as f64;
        }
    }

    advance_ns.sort_unstable();

    let mut out = vec![
        Metric::new(
            "workloads.build_s",
            times.median_self("workloads.build"),
            "s",
        ),
        Metric::new("machine.new_s", times.median_self("machine.new"), "s"),
        Metric::new("engine.advance_calls", sum(&|r| r.advance_calls), "count"),
        Metric::new("engine.steps", steps, "count"),
        Metric::new("engine.live_ticks", live_ticks, "count"),
        Metric::new("engine.step_ratio", ratio(steps, elapsed), "ratio"),
        Metric::new("engine.tick_ratio", ratio(live_ticks, node_cycles), "ratio"),
        Metric::new("engine.advance_s", advance_s, "s"),
        Metric::new("engine.ns_per_step", ratio(advance_s * 1e9, steps), "ns"),
        Metric::new(
            "engine.ns_per_live_tick",
            ratio(advance_s * 1e9, live_ticks),
            "ns",
        ),
        Metric::new("engine.advance_ns.p50", percentile(advance_ns, 0.50), "ns"),
        Metric::new("engine.advance_ns.p99", percentile(advance_ns, 0.99), "ns"),
    ];
    for (k, source) in WakeSource::ALL.into_iter().enumerate() {
        let name = format!("engine.wake.{}", wake_name(source));
        out.push(Metric::new(
            &name,
            sum(&|r| r.profile.as_ref().map_or(0, |p| p.engine.wake[k])),
            "count",
        ));
    }
    out.extend([
        Metric::new("engine.burst_cycles", engine(|e| e.burst_cycles), "cycles"),
        Metric::new(
            "engine.spin_settle_cycles",
            engine(|e| e.spin_settle_cycles),
            "cycles",
        ),
        Metric::new(
            "engine.idle_settle_cycles",
            engine(|e| e.idle_settle_cycles),
            "cycles",
        ),
        Metric::new("engine.settle_s", times.median_self("engine.settle"), "s"),
        Metric::new(
            "engine.finalize_s",
            times.median_self("engine.finalize"),
            "s",
        ),
        Metric::new("validate_s", times.median_self("validate"), "s"),
        Metric::new("cpu.instructions", node_sum(|n| n.instructions), "count"),
        Metric::new(
            "cpu.ipc",
            ratio(node_sum(|n| n.instructions), node_cycles),
            "instr/cycle",
        ),
        Metric::new("bus.transactions", sum(&|r| r.stats.bus.total()), "count"),
        Metric::new(
            "bus.arb_wait_cycles",
            sum(&|r| r.stats.bus.arbitration_wait_cycles),
            "cycles",
        ),
        Metric::new("bus.occupancy", ratio(bus_busy, bus_cycles), "fraction"),
        Metric::new(
            "dir.requests_ordered",
            sum(&|r| r.stats.dir.requests_ordered),
            "count",
        ),
        Metric::new(
            "dir.bank_occupancy",
            ratio(dir_busy, dir_bank_cycles),
            "fraction",
        ),
        Metric::new("net.sent", net_sent, "count"),
        Metric::new(
            "mem.c2c_transfers",
            sum(&|r| r.stats.cache_to_cache_transfers),
            "count",
        ),
        Metric::new(
            "mem.memory_supplies",
            sum(&|r| r.stats.memory_supplies),
            "count",
        ),
        Metric::new(
            "cache.accesses",
            node_sum(|n| n.l1_hits + n.l1_misses),
            "count",
        ),
        Metric::new("cache.victim_hits", node_sum(|n| n.victim_hits), "count"),
    ]);
    out.extend(
        structs
            .iter()
            .map(|&(name, ns)| Metric::new(name, ns, "ns")),
    );

    let elisions = node_sum(|n| n.elisions_started);
    let commits = node_sum(|n| n.commits);
    out.extend([
        Metric::new("txn.elisions", elisions, "count"),
        Metric::new("txn.commits", commits, "count"),
        Metric::new(
            "txn.restarts",
            node_sum(tlr_sim::NodeStats::restarts),
            "count",
        ),
        Metric::new(
            "txn.fallbacks",
            node_sum(tlr_sim::NodeStats::fallbacks),
            "count",
        ),
        Metric::new("txn.deferrals", node_sum(|n| n.requests_deferred), "count"),
        Metric::new("txn.markers", node_sum(|n| n.markers_sent), "count"),
        Metric::new("txn.probes", node_sum(|n| n.probes_sent), "count"),
        Metric::new("txn.nacks", node_sum(|n| n.nacks_sent), "count"),
        Metric::new("txn.commit_ratio", ratio(commits, elisions), "ratio"),
        Metric::new(
            "txn.wasted_frac",
            ratio(node_sum(|n| n.wasted_cycles), node_cycles),
            "fraction",
        ),
        Metric::new(
            "cyc.busy_frac",
            ratio(node_sum(|n| n.busy_cycles), node_cycles),
            "fraction",
        ),
        Metric::new(
            "cyc.lock_stall_frac",
            ratio(node_sum(|n| n.lock_stall_cycles), node_cycles),
            "fraction",
        ),
        Metric::new(
            "cyc.data_stall_frac",
            ratio(node_sum(|n| n.data_stall_cycles), node_cycles),
            "fraction",
        ),
        Metric::new(
            "cyc.sb_full_frac",
            ratio(node_sum(|n| n.store_buffer_full_cycles), node_cycles),
            "fraction",
        ),
        Metric::new(
            "cyc.commit_wait_frac",
            ratio(node_sum(|n| n.commit_wait_cycles), node_cycles),
            "fraction",
        ),
        Metric::new(
            "trace.overhead_frac",
            median(&times.wall_s) / untraced_wall_s - 1.0,
            "fraction",
        ),
    ]);
    out
}

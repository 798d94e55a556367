//! Host time per operation of the per-access structures, timed from
//! the benchmark through their public calls. The operations are those
//! of `crates/bench/benches/structures.rs`.

use std::hint::black_box;
use std::time::Instant;

use tlr_core::{RmwPredictor, StorePairPredictor};
use tlr_mem::addr::{Addr, LineAddr};
use tlr_mem::line::{CacheLine, LineData, Moesi};
use tlr_mem::msg::{BusReqKind, BusRequest};
use tlr_mem::timestamp::Timestamp;
use tlr_mem::{Bus, Cache, Network, WriteBuffer};

use crate::median;

/// Operations per timed round, and rounds per structure (the median
/// round is reported).
const OPS: u64 = 100_000;
const ROUNDS: usize = 7;

fn ns_per_op(mut op: impl FnMut()) -> f64 {
    for _ in 0..OPS / 10 {
        op();
    }
    let rounds: Vec<f64> = (0..ROUNDS)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..OPS {
                op();
            }
            t.elapsed().as_nanos() as f64 / OPS as f64
        })
        .collect();
    median(&rounds)
}

/// `(metric name, ns/op)` for every structure.
pub fn timings() -> Vec<(&'static str, f64)> {
    let mut out = Vec::new();

    let mut cache = Cache::new(512, 4);
    for i in 0..1024u64 {
        cache.insert(CacheLine::new(
            LineAddr(i),
            Moesi::Shared,
            LineData::zeroed(),
        ));
    }
    let mut i = 0u64;
    out.push((
        "struct.cache_hit_lookup_ns",
        ns_per_op(|| {
            i = (i + 7) % 1024;
            black_box(cache.get_mut(LineAddr(black_box(i))).is_some());
        }),
    ));

    let mut small = Cache::new(16, 2);
    let mut j = 0u64;
    out.push((
        "struct.cache_insert_evict_ns",
        ns_per_op(|| {
            j += 1;
            black_box(small.insert(CacheLine::new(
                LineAddr(j),
                Moesi::Shared,
                LineData::zeroed(),
            )));
        }),
    ));

    let mut wb = WriteBuffer::new(64);
    out.push((
        "struct.write_buffer_merge_forward_ns",
        ns_per_op(|| {
            wb.write(Addr(64), 1)
                .expect("an empty write buffer has room");
            wb.write(Addr(72), 2)
                .expect("the second word merges into the same line");
            black_box(wb.read_word(black_box(Addr(72))));
            wb.clear();
        }),
    ));

    let (a, t) = (Timestamp::new(12345, 3), Timestamp::new(12346, 9));
    out.push((
        "struct.timestamp_wins_over_ns",
        ns_per_op(|| {
            black_box(black_box(a).wins_over(black_box(t), 32));
        }),
    ));

    let mut rmw = RmwPredictor::new(128, true);
    out.push((
        "struct.rmw_predictor_ns",
        ns_per_op(|| {
            rmw.record_load(black_box(42), LineAddr(7));
            rmw.record_store(LineAddr(7));
            black_box(rmw.predicts_store(42));
        }),
    ));

    let mut sle = StorePairPredictor::new(64, true);
    out.push((
        "struct.sle_predictor_ns",
        ns_per_op(|| {
            sle.observe_atomic_store(black_box(10), Addr(64), 0, 1);
            sle.observe_store(Addr(64), 0);
            black_box(sle.should_elide(10));
        }),
    ));

    let mut bus = Bus::new(16, 4);
    let mut now = 0;
    out.push((
        "struct.bus_enqueue_order_ns",
        ns_per_op(|| {
            bus.enqueue(
                3,
                BusRequest {
                    requester: 3,
                    line: LineAddr(9),
                    kind: BusReqKind::GetX,
                    ts: None,
                    karma: 0,
                    wb_data: None,
                    enqueued_at: now,
                },
            );
            now += 4;
            black_box(bus.tick(now));
        }),
    ));

    let mut net: Network<u64> = Network::new();
    let mut at = 0;
    out.push((
        "struct.network_send_drain_ns",
        ns_per_op(|| {
            net.send(at + 20, 1);
            net.send(at + 20, 2);
            at += 20;
            black_box(net.drain_ready(at).len());
        }),
    ));

    out
}

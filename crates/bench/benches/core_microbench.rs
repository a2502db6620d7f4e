//! Criterion micro-benchmarks for the mechanisms §2.2 of the paper analyses:
//! route lookup through the tree-only matrix, pipe scheduling
//! (enqueue/dequeue through the bandwidth queue and delay line), scheduler
//! data structures (timing wheel vs. binary heap at many-pipe scale),
//! distillation cost, and greedy pipe-to-core assignment.
//!
//! Besides the human-readable table, a `cargo bench` run writes the
//! measurements to `BENCH_core_microbench.json` (via `mn_bench::report`) so
//! CI can archive the perf trajectory PR over PR.

use criterion::{criterion_group, BatchSize, Criterion};

use mn_assign::{greedy_k_clusters, Binding, BindingParams};
use mn_distill::{distill, DistillationMode};
use mn_emucore::{HardwareProfile, MultiCoreEmulator};
use mn_packet::{FlowKey, Packet, PacketId, Protocol, TcpFlags, TransportHeader, VnId};
use mn_pipe::EmuPipe;
use mn_routing::RoutingMatrix;
use mn_topology::generators::{
    path_pairs_topology, ring_topology, star_topology, transit_stub_topology, PathPairsParams,
    RingParams, StarParams, TransitStubParams,
};
use mn_util::rngs::seeded_rng;
use mn_util::{ByteSize, EventHeap, SimTime, TimerWheel};

fn bench_routing(c: &mut Criterion) {
    let topo = ring_topology(&RingParams::default());
    let d = distill(&topo, DistillationMode::HopByHop);
    let matrix = RoutingMatrix::build(&d);
    let vns = matrix.vns().to_vec();
    let mut group = c.benchmark_group("route_lookup");
    group.bench_function("matrix", |b| {
        let mut i = 0usize;
        b.iter(|| {
            let a = vns[i % vns.len()];
            let z = vns[(i * 7 + 3) % vns.len()];
            i += 1;
            std::hint::black_box(matrix.lookup(a, z));
        })
    });
    group.finish();

    c.bench_function("routing_matrix_build_ring420", |b| {
        b.iter(|| std::hint::black_box(RoutingMatrix::build(&d)))
    });
}

fn bench_pipe(c: &mut Criterion) {
    let topo = ring_topology(&RingParams::default());
    let d = distill(&topo, DistillationMode::HopByHop);
    let attrs = d.pipe(mn_distill::PipeId(0)).attrs;
    c.bench_function("pipe_enqueue_dequeue", |b| {
        b.iter_batched(
            || (EmuPipe::<u64>::new(attrs), seeded_rng(1)),
            |(mut pipe, mut rng)| {
                for i in 0..64u64 {
                    let t = SimTime::from_micros(i * 50);
                    let _ = pipe.enqueue(t, ByteSize::from_bytes(1500), i, &mut rng);
                    std::hint::black_box(pipe.dequeue_ready(t));
                }
                std::hint::black_box(pipe.drain_all())
            },
            BatchSize::SmallInput,
        )
    });
}

fn bench_distillation(c: &mut Criterion) {
    let ring = ring_topology(&RingParams::default());
    let ts = transit_stub_topology(&TransitStubParams::sized_for(320, 3)).topology;
    let mut group = c.benchmark_group("distillation");
    group.sample_size(10);
    group.bench_function("hop_by_hop_ring420", |b| {
        b.iter(|| std::hint::black_box(distill(&ring, DistillationMode::HopByHop)))
    });
    group.bench_function("last_mile_ring420", |b| {
        b.iter(|| std::hint::black_box(distill(&ring, DistillationMode::LAST_MILE)))
    });
    group.bench_function("end_to_end_ring420", |b| {
        b.iter(|| std::hint::black_box(distill(&ring, DistillationMode::EndToEnd)))
    });
    group.bench_function("last_mile_transit_stub320", |b| {
        b.iter(|| std::hint::black_box(distill(&ts, DistillationMode::LAST_MILE)))
    });
    group.finish();
}

fn bench_assignment(c: &mut Criterion) {
    let topo = ring_topology(&RingParams::default());
    let d = distill(&topo, DistillationMode::HopByHop);
    c.bench_function("greedy_k_clusters_4cores", |b| {
        b.iter(|| std::hint::black_box(greedy_k_clusters(&d, 4, 7)))
    });
}

fn tcp_packet(id: u64, src: VnId, dst: VnId, now: SimTime) -> Packet {
    Packet::new(
        PacketId(id),
        FlowKey {
            src,
            dst,
            src_port: 1000,
            dst_port: 2000,
            protocol: Protocol::Tcp,
        },
        TransportHeader::Tcp {
            seq: 0,
            ack: 0,
            payload_len: 1460,
            flags: TcpFlags::ACK,
            window: 65535,
        },
        now,
    )
}

/// The fig4-capacity hot loop: per-packet route lookup + ingress + scheduler
/// advance on a single unconstrained core. This is the path the dense
/// ID-indexed tables optimise; track it PR over PR.
fn bench_submit_path(c: &mut Criterion) {
    let topo = star_topology(&StarParams {
        clients: 64,
        ..StarParams::default()
    });
    let d = distill(&topo, DistillationMode::HopByHop);
    let matrix = RoutingMatrix::build(&d);
    let binding = Binding::bind(d.vns(), &BindingParams::new(4, 1));
    let mut emu =
        MultiCoreEmulator::single_core(&d, matrix, &binding, HardwareProfile::unconstrained(), 7);
    let vns: Vec<VnId> = binding.vns().collect();
    let mut i = 0u64;
    c.bench_function("core_submit_advance", |b| {
        b.iter(|| {
            let now = SimTime::from_micros(i * 20);
            let src = vns[i as usize % vns.len()];
            let dst = vns[(i as usize + 7) % vns.len()];
            std::hint::black_box(emu.submit(now, tcp_packet(i, src, dst, now)).unwrap());
            if i.is_multiple_of(32) {
                std::hint::black_box(emu.advance(now).unwrap());
            }
            i += 1;
        })
    });
}

/// Deterministic pseudo-random pipe delay in `[1 ms, 16 ms)` — the spread of
/// queueing + transmission + propagation deadlines a loaded core juggles.
fn pipe_delay_ns(i: u64) -> u64 {
    1_000_000 + i.wrapping_mul(2_654_435_761) % 15_000_000
}

/// The scheduler data structures at many-pipe scale: 4096 pipes each with a
/// pending exit deadline, serviced in 100 µs ticks. Every pop reschedules
/// the pipe, so the pending count stays at 4096 — the steady state of a
/// fully loaded core. This is the O(log n) → O(1) gap the timing wheel
/// exists for: the heap pays a 12-level sift per operation at this scale,
/// the wheel a constant slot access.
fn bench_steady_state_many_pipes(c: &mut Criterion) {
    const PIPES: u64 = 4096;
    const TICK_NS: u64 = 100_000;
    let mut group = c.benchmark_group("steady_state_many_pipes");

    group.bench_function("wheel_4096_pipes", |b| {
        let mut wheel: TimerWheel<u64> = TimerWheel::new();
        for i in 0..PIPES {
            wheel.push(SimTime::from_nanos(pipe_delay_ns(i)), i);
        }
        let mut now_ns = 0u64;
        let mut reschedules = PIPES;
        b.iter(|| {
            now_ns += TICK_NS;
            let now = SimTime::from_nanos(now_ns);
            while let Some((_, pipe)) = wheel.pop_due(now) {
                wheel.push(
                    SimTime::from_nanos(now_ns + pipe_delay_ns(pipe ^ reschedules)),
                    pipe,
                );
                reschedules += 1;
            }
            std::hint::black_box(wheel.len())
        })
    });

    group.bench_function("heap_4096_pipes", |b| {
        let mut heap: EventHeap<u64> = EventHeap::new();
        for i in 0..PIPES {
            heap.push(SimTime::from_nanos(pipe_delay_ns(i)), i);
        }
        let mut now_ns = 0u64;
        let mut reschedules = PIPES;
        b.iter(|| {
            now_ns += TICK_NS;
            let now = SimTime::from_nanos(now_ns);
            while let Some((_, pipe)) = heap.pop_due(now) {
                heap.push(
                    SimTime::from_nanos(now_ns + pipe_delay_ns(pipe ^ reschedules)),
                    pipe,
                );
                reschedules += 1;
            }
            std::hint::black_box(heap.len())
        })
    });

    group.finish();

    // The same steady state end to end: a single unconstrained core with
    // 4096 installed pipes (256 sender/receiver pairs over 8-hop paths,
    // hop-by-hop distillation), per-packet submit + periodic advance. Each
    // packet traverses 8 pipes, so the scheduler wheel carries deadlines
    // across the whole pipe table at all times.
    let (topo, pairs) = path_pairs_topology(&PathPairsParams {
        pairs: 256,
        hops: 8,
        ..PathPairsParams::default()
    });
    let d = distill(&topo, DistillationMode::HopByHop);
    assert!(d.pipe_count() >= 4096, "paths must install ≥ 4k pipes");
    let matrix = RoutingMatrix::build(&d);
    let binding = Binding::bind(d.vns(), &BindingParams::new(4, 1));
    let mut emu =
        MultiCoreEmulator::single_core(&d, matrix, &binding, HardwareProfile::unconstrained(), 7);
    let endpoints: Vec<(VnId, VnId)> = pairs
        .iter()
        .map(|&(a, b)| {
            (
                binding.vn_at(a).expect("pair source is bound"),
                binding.vn_at(b).expect("pair sink is bound"),
            )
        })
        .collect();
    let mut deliveries = Vec::new();
    let mut i = 0u64;
    c.bench_function("steady_state_emulator_4096_pipes", |b| {
        b.iter(|| {
            let now = SimTime::from_micros(i * 20);
            let (src, dst) = endpoints[i as usize % endpoints.len()];
            std::hint::black_box(emu.submit(now, tcp_packet(i, src, dst, now)).unwrap());
            if i.is_multiple_of(32) {
                deliveries.clear();
                emu.advance_into(now, &mut deliveries).unwrap();
                std::hint::black_box(deliveries.len());
            }
            i += 1;
        })
    });
}

criterion_group!(
    benches,
    bench_routing,
    bench_pipe,
    bench_distillation,
    bench_assignment,
    bench_submit_path,
    bench_steady_state_many_pipes
);

fn main() {
    // Skip measurements when driven by the test harness (`cargo test`).
    if criterion::invoked_as_test() {
        return;
    }
    let results: Vec<(String, f64, u64)> = benches()
        .into_iter()
        .map(|r| (r.name, r.mean_ns, r.iters))
        .collect();
    match mn_bench::report::write_bench_json("core_microbench", &results) {
        Ok(path) => println!("bench report written to {path}"),
        Err(err) => eprintln!("could not write bench report: {err}"),
    }
}

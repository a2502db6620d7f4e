//! Zero-allocation guarantee for the single-core steady state.
//!
//! The paper's core forwards near-gigabit traffic while scheduling tens of
//! thousands of pipes; that only works if the per-packet path does no
//! avoidable work. This test pins the reproduction to the same discipline: a
//! counting global allocator (`mn_util::alloc`, which `mn-benchmark` reports
//! memory with too) wraps the system allocator, the emulator is
//! warmed until every buffer (the timing wheel's arena, pipe queues,
//! tick/delivery scratch) has reached its steady-state capacity, and a
//! further measured run of submit + advance must perform **zero** heap
//! allocations on this thread. The sharded route table's lookup path gets
//! its own guard: row shards and the chunked route store must resolve
//! without touching the heap, rewired or not. The threaded executor's guard reads the
//! process-wide byte counter too, so it runs with every other test here
//! held off ([`exclusive`]).

use std::sync::{PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

mod common;

use common::on_threads;

use mn_assign::{Binding, BindingParams};
use mn_distill::{distill, DistillationMode};
use mn_emucore::{Emulator, HardwareProfile, SubmitOutcome};
use mn_packet::{FlowKey, Packet, PacketId, Protocol, TcpFlags, TransportHeader, VnId};
use mn_routing::RoutingMatrix;
use mn_topology::generators::{ring_topology, star_topology, RingParams, StarParams};
use mn_util::alloc::{
    thread_alloc_bytes as alloc_bytes, thread_alloc_calls as alloc_calls, total_allocated_bytes,
};
use mn_util::{SimDuration, SimTime};

#[global_allocator]
static ALLOCATOR: mn_util::alloc::CountingAlloc = mn_util::alloc::CountingAlloc;

/// Taken shared by every test in this file and exclusively by the one whose
/// window reads [`mn_util::alloc::total_allocated_bytes`], which counts every
/// thread of the process.
static PROCESS: RwLock<()> = RwLock::new(());

fn shared() -> RwLockReadGuard<'static, ()> {
    // A panicking test poisons nothing the lock guards: it guards no data.
    PROCESS.read().unwrap_or_else(PoisonError::into_inner)
}

fn exclusive() -> RwLockWriteGuard<'static, ()> {
    PROCESS.write().unwrap_or_else(PoisonError::into_inner)
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
            // Small payloads keep every pipe well below line rate, so queue
            // depths (and their backing buffers) settle during warm-up
            // instead of creeping for the whole run.
            payload_len: 200,
            flags: TcpFlags::ACK,
            window: 65535,
        },
        now,
    )
}

/// Drives `iters` submit/advance cycles starting at packet/time index
/// `start`: one submit per 20 µs of virtual time, one advance per eight.
fn drive(
    emu: &mut Emulator,
    vns: &[VnId],
    deliveries: &mut Vec<mn_emucore::Delivery>,
    start: u64,
    iters: u64,
) -> u64 {
    let mut delivered = 0;
    for i in start..start + iters {
        let now = SimTime::from_micros(i * 20);
        let src = vns[i as usize % vns.len()];
        let dst = vns[(i as usize + 7) % vns.len()];
        let _ = emu.submit(now, tcp_packet(i, src, dst, now));
        if i % 8 == 0 {
            deliveries.clear();
            emu.advance_into(now, deliveries).unwrap();
            delivered += deliveries.len() as u64;
        }
    }
    delivered
}

/// What a bulk driver keeps between batches: the batch it drains into
/// `submit_batch`, the outcomes it gets back and the deliveries.
#[derive(Default)]
struct Feed {
    batch: Vec<(SimTime, Packet)>,
    outcomes: Vec<SubmitOutcome>,
    deliveries: Vec<mn_emucore::Delivery>,
}

/// [`drive`] (or, at [`SLOW_CADENCE_NS`], [`drive_slow`]) through
/// `submit_batch`, as the benchmark feeds it: the eight packets between two
/// advances go in as one batch.
fn drive_batched(
    emu: &mut Emulator,
    vns: &[VnId],
    feed: &mut Feed,
    cadence_ns: u64,
    start: u64,
    iters: u64,
) -> u64 {
    let mut delivered = 0;
    for i in start..start + iters {
        let now = SimTime::from_nanos(i * cadence_ns);
        let src = vns[i as usize % vns.len()];
        let dst = vns[(i as usize + 7) % vns.len()];
        feed.batch.push((now, tcp_packet(i, src, dst, now)));
        if i % 8 == 0 {
            feed.outcomes.clear();
            emu.submit_batch(feed.batch.drain(..), &mut feed.outcomes)
                .unwrap();
            feed.deliveries.clear();
            emu.advance_into(now, &mut feed.deliveries).unwrap();
            delivered += feed.deliveries.len() as u64;
        }
    }
    delivered
}

#[test]
fn steady_state_survives_a_bandwidth_renegotiation_without_allocating() {
    let _process = shared();
    // Runtime reconfiguration must not break the zero-alloc guarantee: a
    // mid-run bandwidth renegotiation (the dynamics engine's in-place
    // parameter update) and a running CBR episode both ride the warmed
    // tick path.
    let topo = star_topology(&StarParams {
        clients: 64,
        ..StarParams::default()
    });
    let d = distill(&topo, DistillationMode::HopByHop);
    let matrix = RoutingMatrix::build(&d);
    let binding = Binding::bind(d.vns(), &BindingParams::new(4, 1));
    let mut emu = Emulator::single_core(&d, matrix, &binding, HardwareProfile::unconstrained(), 7);
    let vns: Vec<VnId> = binding.vns().collect();
    let mut deliveries: Vec<mn_emucore::Delivery> = Vec::new();

    // A CBR episode on one spoke pipe runs through warm-up and the whole
    // measured window: a fluid demand of 1 953 125 b/s and its recompute
    // epochs. The epoch period does not line up with the 20 µs submit
    // cadence, and need not: the wheel's arena reaches its peak in warm-up
    // whichever slots the deadlines fall in.
    let cbr_pipe = mn_distill::PipeId(0);
    assert!(emu.set_pipe_compensation(
        cbr_pipe,
        Some(mn_util::DataRate::from_bps(1_953_125)),
        SimTime::ZERO,
    ));
    let warmed = drive(&mut emu, &vns, &mut deliveries, 0, 30_000);
    assert!(warmed > 0, "warm-up must deliver packets");

    // Pre-renegotiation steady state: zero allocations.
    let before = alloc_calls();
    let delivered = drive(&mut emu, &vns, &mut deliveries, 30_000, 5_000);
    let delta = alloc_calls() - before;
    assert!(delivered > 0, "steady state must deliver packets");
    assert_eq!(
        delta, 0,
        "pre-renegotiation steady state allocated {delta}x"
    );

    // Renegotiate the pipe's bandwidth in place. The call itself must not
    // allocate — it is the dynamics engine's per-event hot operation.
    let renegotiated = {
        let mut attrs = d.pipe(cbr_pipe).attrs;
        attrs.bandwidth = attrs.bandwidth.mul_f64(0.5);
        attrs
    };
    let before = alloc_calls();
    assert!(emu.update_pipe_attrs(cbr_pipe, renegotiated));
    assert_eq!(alloc_calls() - before, 0, "update_pipe_attrs allocated");

    // A re-warm lets queue depths settle at the new bandwidth (the slower
    // pipe holds more packets, so its queue and the wheel may grow to the
    // new high-water marks once)…
    let _ = drive(&mut emu, &vns, &mut deliveries, 35_000, 20_000);
    // …after which the renegotiated steady state is allocation-free again.
    let before = alloc_calls();
    let delivered = drive(&mut emu, &vns, &mut deliveries, 55_000, 10_000);
    let delta = alloc_calls() - before;
    assert!(
        delivered > 0,
        "renegotiated steady state must deliver packets"
    );
    assert_eq!(
        emu.total_stats().fluid_modelled_bytes,
        317_343,
        "1 953 125 b/s from 0 to the last advance, at 1 299 840 µs"
    );
    assert_eq!(
        delta, 0,
        "post-renegotiation steady state made {delta} heap allocations; \
         reconfiguration must keep the per-packet path allocation-free"
    );
}

#[test]
fn fluid_epochs_and_mid_run_resize_allocate_nothing() {
    let _process = shared();
    // The hybrid fast path's steady state: live fluid bulk flows force a
    // fair-share recompute every epoch (the `advance_into` chop), and each
    // recompute redistributes per-pipe demands to the cores. All of that —
    // the water-fill solve, the goodput integrals, the residual updates —
    // must ride retained scratch. A mid-run demand resize (the flash-crowd
    // control operation) is held to the same bar: the resize call itself
    // and the re-shared steady state after it allocate nothing.
    let topo = star_topology(&StarParams {
        clients: 64,
        ..StarParams::default()
    });
    let d = distill(&topo, DistillationMode::HopByHop);
    let matrix = RoutingMatrix::build(&d);
    let binding = Binding::bind(d.vns(), &BindingParams::new(4, 1));
    let mut emu = Emulator::single_core(&d, matrix, &binding, HardwareProfile::unconstrained(), 7);
    let vns: Vec<VnId> = binding.vns().collect();
    let mut deliveries: Vec<mn_emucore::Delivery> = Vec::new();

    // The measured window spans many default epochs (2^23 ns ≈ 8.4 ms), so
    // it exercises the chop + solve + redistribute path, not just plain
    // ticking.
    assert!(emu.add_fluid_flow(
        1,
        vns[1],
        vns[33],
        mn_util::DataRate::from_mbps(4),
        500_000,
        SimTime::ZERO,
    ));
    assert!(emu.add_fluid_flow(
        2,
        vns[2],
        vns[34],
        mn_util::DataRate::from_mbps(2),
        3,
        SimTime::ZERO,
    ));

    let warmed = drive(&mut emu, &vns, &mut deliveries, 0, 30_000);
    assert!(warmed > 0, "warm-up must deliver packets");

    // Steady state with live fluid flows: epochs fire, rates re-solve,
    // residuals update — zero allocations.
    let before = alloc_calls();
    let delivered = drive(&mut emu, &vns, &mut deliveries, 30_000, 5_000);
    let delta = alloc_calls() - before;
    assert!(delivered > 0, "steady state must deliver packets");
    assert_eq!(
        delta, 0,
        "steady state with fluid epochs allocated {delta}x; \
         the recompute path must run on retained scratch"
    );

    // Mid-run resize: the flash-crowd grows. The call settles integrals,
    // re-solves the fair share and pushes changed residuals — in place.
    let before = alloc_calls();
    assert!(emu.resize_fluid_flow(
        1,
        mn_util::DataRate::from_mbps(6),
        750_000,
        SimTime::from_micros(35_000 * 20),
    ));
    assert_eq!(alloc_calls() - before, 0, "resize_fluid_flow allocated");

    // A short re-warm lets packet queues settle against the shrunken
    // residual, after which the resized steady state is allocation-free.
    let _ = drive(&mut emu, &vns, &mut deliveries, 35_000, 10_000);
    let before = alloc_calls();
    let delivered = drive(&mut emu, &vns, &mut deliveries, 45_000, 5_000);
    let delta = alloc_calls() - before;
    assert!(delivered > 0, "resized steady state must deliver packets");
    assert_eq!(
        delta, 0,
        "post-resize steady state made {delta} heap allocations; \
         fluid reconfiguration must keep the hybrid path allocation-free"
    );

    // The fluid machinery really ran: both flows integrated goodput and the
    // modelled population is the resized one.
    assert!(emu.fluid_flow_goodput_bytes(1).unwrap() > 0);
    assert!(emu.fluid_flow_goodput_bytes(2).unwrap() > 0);
    assert_eq!(emu.fluid().modelled_clients(), 750_003);
    assert!(
        emu.total_stats().fluid_modelled_bytes > 0,
        "cores metered fluid-consumed capacity"
    );
}

/// The steady-state lookup path of the sharded copy-on-write route table —
/// `route_id` (row shard + slot) and `pipes` (chunked store) — performs no
/// heap allocation, including on a table generation produced by an
/// incremental rewire (mixed shared and freshly published row shards).
#[test]
fn sharded_route_lookups_allocate_nothing() {
    let _process = shared();
    let topo = ring_topology(&RingParams {
        routers: 8,
        clients_per_router: 2,
        ..RingParams::default()
    });
    let mut d = distill(&topo, DistillationMode::HopByHop);
    let matrix = RoutingMatrix::build(&d);
    let binding = Binding::bind(d.vns(), &BindingParams::new(4, 1));
    let mut emu = Emulator::single_core(&d, matrix, &binding, HardwareProfile::unconstrained(), 7);
    // Fail a transit pipe (both directions) through the incremental path so
    // the table in force is a rewired copy-on-write generation, not the
    // pristine build.
    let far = emu
        .route_table()
        .route_id(0, emu.route_table().endpoint_count() / 2)
        .expect("ring routes all pairs");
    let victim = emu.route_table().pipes(far)[1];
    let reverse = {
        let p = d.pipe(victim);
        d.find_pipe(p.dst, p.src).expect("duplex link")
    };
    for p in [victim, reverse] {
        d.pipe_attrs_mut(p).unwrap().bandwidth = mn_util::DataRate::ZERO;
    }
    let update = emu.reroute(&d, &[victim, reverse]);
    assert!(!update.is_empty(), "failing a transit link rewires routes");
    // Every pair lookup plus the per-hop pipe-sequence access, repeatedly:
    // zero allocator calls.
    let table = emu.route_table();
    let n = table.endpoint_count();
    let before = alloc_calls();
    let mut hops = 0usize;
    for _ in 0..100 {
        for s in 0..n {
            for t in 0..n {
                if let Some(id) = table.route_id(s, t) {
                    hops += std::hint::black_box(table.pipes(id)).len();
                }
            }
        }
    }
    let delta = alloc_calls() - before;
    assert!(hops > 0, "lookups resolved routes");
    assert_eq!(
        delta, 0,
        "steady-state route lookups made {delta} heap allocations; \
         the sharded table's lookup path must be allocation-free"
    );
}

/// The tree-only matrix's on-demand route resolution — a predecessor walk
/// into a caller-supplied buffer — performs no heap allocation once the
/// buffer is warmed, including after an incremental reroute has rewritten
/// the trees in place. This is the path the sharded table's build and
/// rewire resolve every route through.
#[test]
fn on_demand_route_resolution_allocates_nothing_when_warmed() {
    let _process = shared();
    let topo = ring_topology(&RingParams {
        routers: 8,
        clients_per_router: 2,
        ..RingParams::default()
    });
    let mut d = distill(&topo, DistillationMode::HopByHop);
    let mut matrix = RoutingMatrix::build(&d);
    // Rewire through the incremental path so the trees measured below are
    // update products, not pristine build output.
    let vns = matrix.vns().to_vec();
    let victim = matrix.lookup(vns[0], vns[8]).expect("ring routes").pipes[1];
    let reverse = {
        let p = d.pipe(victim);
        d.find_pipe(p.dst, p.src).expect("duplex link")
    };
    for p in [victim, reverse] {
        d.pipe_attrs_mut(p).unwrap().bandwidth = mn_util::DataRate::ZERO;
    }
    let update = matrix.update_pipes(&d, &[victim, reverse]);
    assert!(!update.is_empty(), "failing a transit link rewires routes");
    // Warm the buffer to the longest route, then resolve every pair
    // repeatedly: zero allocator calls.
    let n = matrix.vn_count();
    let mut buf = Vec::with_capacity(matrix.max_route_length());
    let before = alloc_calls();
    let mut hops = 0usize;
    for _ in 0..100 {
        for s in 0..n {
            for t in 0..n {
                if matrix.materialize_at(s, t, &mut buf) {
                    hops += std::hint::black_box(&buf).len();
                }
            }
        }
    }
    let delta = alloc_calls() - before;
    assert!(hops > 0, "walks resolved routes");
    assert_eq!(
        delta, 0,
        "warmed on-demand route resolution made {delta} heap allocations; \
         the predecessor walk must be allocation-free"
    );
}

/// The submit cadence of [`drive_slow`]: 65 µs.
const SLOW_CADENCE_NS: u64 = 65_000;

/// Like [`drive`], but one submit per [`SLOW_CADENCE_NS`]. The last-mile
/// ring below carries 2 Mb/s client access pipes; the 20 µs cadence would
/// push every source past line rate and the resulting permanent overload
/// has its own (pre-existing) allocation noise that would mask what this
/// file's compensation test pins. At this cadence each VN sources ~1.7 Mb/s
/// — below access line rate, like every other workload in this file.
fn drive_slow(
    emu: &mut Emulator,
    vns: &[VnId],
    deliveries: &mut Vec<mn_emucore::Delivery>,
    start: u64,
    iters: u64,
) -> u64 {
    let mut delivered = 0;
    for i in start..start + iters {
        let now = SimTime::from_nanos(i * SLOW_CADENCE_NS);
        let src = vns[i as usize % vns.len()];
        let dst = vns[(i as usize + 7) % vns.len()];
        let _ = emu.submit(now, tcp_packet(i, src, dst, now));
        if i % 8 == 0 {
            deliveries.clear();
            emu.advance_into(now, deliveries).unwrap();
            delivered += deliveries.len() as u64;
        }
    }
    delivered
}

/// Compensation rides the same zero-alloc discipline: a last-mile
/// distillation with per-pipe compensation demand installed on every
/// collapsed mesh pipe must tick, fire fluid epochs and forward
/// foreground packets without a single allocator call — and a mid-run
/// compensation retune (the control operation a measured-utilisation
/// feedback loop would issue) is held to the same bar.
#[test]
fn compensated_steady_state_allocates_nothing() {
    let _process = shared();
    let topo = ring_topology(&RingParams {
        routers: 8,
        clients_per_router: 2,
        ..RingParams::default()
    });
    let d = distill(&topo, DistillationMode::LAST_MILE);
    let matrix = RoutingMatrix::build(&d);
    let binding = Binding::bind(d.vns(), &BindingParams::new(4, 1));
    let mut emu = Emulator::single_core(&d, matrix, &binding, HardwareProfile::unconstrained(), 7);
    // Install the distiller-derived compensation demand on every collapsed
    // pipe, exactly as `Experiment::compensation` does at build time.
    let rates = mn_distill::compensation_rates(&d, 0.5);
    assert!(!rates.is_empty(), "the mesh has collapsed pipes");
    for &(pipe, rate) in &rates {
        assert!(emu.set_pipe_compensation(pipe, Some(rate), SimTime::ZERO));
    }
    let vns: Vec<VnId> = binding.vns().collect();
    let mut deliveries: Vec<mn_emucore::Delivery> = Vec::new();

    let warmed = drive_slow(&mut emu, &vns, &mut deliveries, 0, 30_000);
    assert!(warmed > 0, "warm-up must deliver packets");

    // Steady state with live compensation on every mesh pipe: zero
    // allocations.
    let before = alloc_calls();
    let delivered = drive_slow(&mut emu, &vns, &mut deliveries, 30_000, 5_000);
    let delta = alloc_calls() - before;
    assert!(
        delivered > 0,
        "compensated steady state must deliver packets"
    );
    assert_eq!(
        delta, 0,
        "compensated steady state made {delta} heap allocations; \
         the compensation path must ride the retained fluid scratch"
    );

    // Retune the compensation load in place (0.5 -> 0.75) on the warmed
    // emulator: the calls themselves must not allocate…
    let retuned = mn_distill::compensation_rates(&d, 0.75);
    let at = SimTime::from_nanos(35_000 * SLOW_CADENCE_NS);
    let before = alloc_calls();
    for &(pipe, rate) in &retuned {
        assert!(emu.set_pipe_compensation(pipe, Some(rate), at));
    }
    assert_eq!(alloc_calls() - before, 0, "set_pipe_compensation allocated");

    // …and after a re-warm against the shrunken residuals, the retuned
    // steady state is allocation-free again.
    let _ = drive_slow(&mut emu, &vns, &mut deliveries, 35_000, 10_000);
    let before = alloc_calls();
    let delivered = drive_slow(&mut emu, &vns, &mut deliveries, 45_000, 5_000);
    let delta = alloc_calls() - before;
    assert!(delivered > 0, "retuned steady state must deliver packets");
    assert_eq!(
        delta, 0,
        "post-retune steady state made {delta} heap allocations; \
         compensation retuning must keep the per-packet path allocation-free"
    );
    assert!(
        emu.total_stats().fluid_modelled_bytes > 0,
        "the compensation demand really consumed pipe capacity"
    );
}

#[test]
fn a_warmed_timer_wheel_allocates_nothing() {
    let _process = shared();
    // The scheduler alone, on no cadence aligned to its slots: every 20 µs
    // of virtual time one push, due within the next 40 ms, and every due
    // pop. Deadlines past the 33.5 ms level-0 revolution file under level 1
    // and cascade back, and some land in the slot being popped. Warm-up
    // runs 10 s, past the first 8.6 s level-1 block boundary, where the
    // deadlines that cross it wait in the overflow heap. Warmed, the arena
    // holds the peak of pending entries, the run the fullest slot and the
    // heap the most entries a crossing puts in it, so a million more steps
    // (20 s, two more crossings) make no allocator call.
    const STEP_NS: u64 = 20_000;
    const WARM: u64 = 500_000;
    let mut wheel: mn_util::TimerWheel<u32> = mn_util::TimerWheel::new();
    let mut state = 0x9E37_79B9_7F4A_7C15_u64;
    let mut step = |wheel: &mut mn_util::TimerWheel<u32>, i: u64| {
        // xorshift64: a fixed, allocation-free stream of deadlines.
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        let now = SimTime::from_nanos(i * STEP_NS);
        wheel.push(now + SimDuration::from_nanos(state % 40_000_000), i as u32);
        std::iter::from_fn(|| wheel.pop_due(now)).count()
    };
    for i in 0..WARM {
        step(&mut wheel, i);
    }
    assert!(wheel.len() > 800, "{} pending after warm-up", wheel.len());

    let before = alloc_calls();
    let popped: usize = (WARM..WARM + 1_000_000).map(|i| step(&mut wheel, i)).sum();
    let delta = alloc_calls() - before;
    assert!(popped > 990_000, "{popped} pops in a million steps");
    assert_eq!(
        delta, 0,
        "a warmed timer wheel made {delta} heap allocations in a million steps"
    );
}

#[test]
fn single_core_steady_state_allocates_nothing() {
    let _process = shared();
    let topo = star_topology(&StarParams {
        clients: 64,
        ..StarParams::default()
    });
    let d = distill(&topo, DistillationMode::HopByHop);
    let matrix = RoutingMatrix::build(&d);
    let binding = Binding::bind(d.vns(), &BindingParams::new(4, 1));
    let mut emu = Emulator::single_core(&d, matrix, &binding, HardwareProfile::unconstrained(), 7);
    let vns: Vec<VnId> = binding.vns().collect();
    let mut deliveries: Vec<mn_emucore::Delivery> = Vec::new();

    // Warm-up: 0.6 s of virtual time, many level-0 revolutions of the timing
    // wheel (33.5 ms each), so its arena, every pipe queue and every scratch
    // buffer reaches its steady-state capacity.
    let warmed = drive(&mut emu, &vns, &mut deliveries, 0, 30_000);
    assert!(warmed > 0, "warm-up must deliver packets");

    // Measured steady state: not a single allocator call on this thread.
    let before = alloc_calls();
    let delivered = drive(&mut emu, &vns, &mut deliveries, 30_000, 10_000);
    let delta = alloc_calls() - before;
    assert!(delivered > 0, "steady state must deliver packets");
    assert_eq!(
        delta, 0,
        "steady-state submit/advance made {delta} heap allocations; \
         the per-packet path must be allocation-free"
    );

    // The same traffic through `submit_batch`: the admission buffers the
    // batch is resolved through warm up once, then not a single call.
    let mut feed = Feed::default();
    let _ = drive_batched(&mut emu, &vns, &mut feed, 20_000, 40_000, 1_000);
    let before = alloc_calls();
    let delivered = drive_batched(&mut emu, &vns, &mut feed, 20_000, 41_000, 10_000);
    let delta = alloc_calls() - before;
    assert!(delivered > 0, "batched steady state must deliver packets");
    assert_eq!(
        delta, 0,
        "steady-state submit_batch/advance made {delta} heap allocations"
    );
}

#[test]
fn threaded_steady_state_allocates_nothing_on_any_thread() {
    let _process = exclusive();
    // The threaded executor as the benchmark drives it: `submit_batch`
    // sends each core its share of a batch in one request and
    // `advance_into` collects one reply per core, every buffer travelling
    // to the worker and back. Warmed, neither the calling thread nor a
    // worker allocates: the process-wide byte counter stands still too, so
    // a buffer that only travels one way (and is rebuilt each call) shows.
    // The two-core ring of `two_core_steady_state_allocates_nothing`.
    let topo = ring_topology(&RingParams {
        routers: 8,
        clients_per_router: 2,
        ..RingParams::default()
    });
    let d = distill(&topo, DistillationMode::HopByHop);
    let matrix = RoutingMatrix::build(&d);
    let binding = Binding::bind(d.vns(), &BindingParams::new(4, 2));
    let pod = mn_assign::greedy_k_clusters(&d, 2, 7);
    let profile = HardwareProfile::unconstrained();
    let mut emu = Emulator::new(&d, pod, matrix, &binding, profile, 7).threaded();
    let vns: Vec<VnId> = binding.vns().collect();
    let mut feed = Feed::default();

    let warmed = drive_batched(&mut emu, &vns, &mut feed, SLOW_CADENCE_NS, 0, 30_000);
    assert!(warmed > 0, "warm-up must deliver packets");
    let before = (alloc_calls(), total_allocated_bytes());
    let delivered = drive_batched(&mut emu, &vns, &mut feed, SLOW_CADENCE_NS, 30_000, 10_000);
    let calls = alloc_calls() - before.0;
    let bytes = total_allocated_bytes() - before.1;
    assert!(delivered > 0, "steady state must deliver packets");
    assert!(emu.total_stats().tunnels_out > 0, "the ring crosses cores");
    assert_eq!(
        calls, 0,
        "threaded submit_batch/advance_into made {calls} heap allocations \
         on the calling thread"
    );
    assert_eq!(
        bytes, 0,
        "threaded submit_batch/advance_into requested {bytes} B process-wide"
    );
}

#[test]
fn steady_state_survives_a_restore_without_allocating() {
    let _process = shared();
    // A checkpoint is only a recovery policy if the emulator it rebuilds is
    // as good as the one it captured. Restore drops every scratch buffer
    // (they hold no state) and rebuilds queues and wheels at exactly their
    // content, so the restored emulator re-warms once — and then the same
    // traffic allocates nothing, as it did before the checkpoint.
    let topo = star_topology(&StarParams {
        clients: 64,
        ..StarParams::default()
    });
    let d = distill(&topo, DistillationMode::HopByHop);
    let matrix = RoutingMatrix::build(&d);
    let binding = Binding::bind(d.vns(), &BindingParams::new(4, 1));
    let mut emu = Emulator::single_core(&d, matrix, &binding, HardwareProfile::unconstrained(), 7);
    let vns: Vec<VnId> = binding.vns().collect();
    let mut deliveries: Vec<mn_emucore::Delivery> = Vec::new();
    let warmed = drive(&mut emu, &vns, &mut deliveries, 0, 30_000);
    assert!(warmed > 0, "warm-up must deliver packets");

    let bytes = emu.snapshot().unwrap().to_bytes();
    let mut restored = Emulator::restore_bytes(&bytes).expect("state reconstructs");
    assert!(restored.snapshot().unwrap().to_bytes() == bytes);

    let _ = drive(&mut restored, &vns, &mut deliveries, 30_000, 30_000);
    let before = alloc_calls();
    let delivered = drive(&mut restored, &vns, &mut deliveries, 60_000, 10_000);
    let delta = alloc_calls() - before;
    assert!(delivered > 0, "restored steady state must deliver packets");
    assert_eq!(
        delta, 0,
        "steady state after a restore made {delta} heap allocations; \
         restore must not trade away the allocation-free per-packet path"
    );
}

#[test]
fn two_core_steady_state_allocates_nothing() {
    let _process = shared();
    // The same bar across a core boundary: on two inline cores a ring's
    // routes cross from one core's pipes to the other's, so descriptors are
    // copied out of one slab into the tick output's tunnel buffer, wait in
    // the peer's inbox and take a slot in the peer's slab. Slabs, free
    // lists, pipe queues, inboxes and tunnel buffers all reach their capacity
    // in warm-up; the measured window allocates nothing. (`drive_slow` because
    // this ring has the 2 Mb/s access pipes its doc comment describes.)
    let topo = ring_topology(&RingParams {
        routers: 8,
        clients_per_router: 2,
        ..RingParams::default()
    });
    let d = distill(&topo, DistillationMode::HopByHop);
    let matrix = RoutingMatrix::build(&d);
    let binding = Binding::bind(d.vns(), &BindingParams::new(4, 2));
    let pod = mn_assign::greedy_k_clusters(&d, 2, 7);
    let mut emu = Emulator::new(
        &d,
        pod,
        matrix,
        &binding,
        HardwareProfile::unconstrained(),
        7,
    );
    let vns: Vec<VnId> = binding.vns().collect();
    let mut deliveries: Vec<mn_emucore::Delivery> = Vec::new();

    let warmed = drive_slow(&mut emu, &vns, &mut deliveries, 0, 30_000);
    assert!(warmed > 0, "warm-up must deliver packets");
    let tunnels_before = emu.total_stats().tunnels_out;

    let before = alloc_calls();
    let delivered = drive_slow(&mut emu, &vns, &mut deliveries, 30_000, 10_000);
    let delta = alloc_calls() - before;
    assert!(delivered > 0, "steady state must deliver packets");
    assert!(
        emu.total_stats().tunnels_out > tunnels_before + 1_000,
        "the measured window must cross the core boundary"
    );
    assert_eq!(
        delta, 0,
        "two-core steady state made {delta} heap allocations; \
         the tunnel boundary must be allocation-free"
    );
}

#[test]
fn runner_tcp_steady_state_allocates_next_to_nothing() {
    let _process = shared();
    // One level up: the whole driver loop — TCP endpoints polled into the
    // runner's own buffers, one live timer event per endpoint, the emulator
    // underneath. Not zero: buffers sized by traffic history (a receiver's
    // out-of-order list) can still meet a new high-water mark after warm-up.
    // But far below one call per packet.
    let topo = ring_topology(&RingParams {
        routers: 5,
        clients_per_router: 8,
        ..RingParams::default()
    });
    let mut runner = modelnet::Experiment::new(topo)
        .distillation(DistillationMode::HopByHop)
        .cores(1)
        .edge_nodes(4)
        .unconstrained_hardware()
        .seed(17)
        .build()
        .expect("experiment builds");
    let vns = runner.vn_ids();
    for i in 0..20 {
        runner.add_bulk_flow(vns[i], vns[(i + 16) % vns.len()], None, SimTime::ZERO);
    }
    runner.run_for(SimDuration::from_secs(2)).unwrap();

    let (before, submitted) = (alloc_calls(), runner.packets_submitted());
    runner.run_for(SimDuration::from_secs(1)).unwrap();
    let calls = alloc_calls() - before;
    let packets = runner.packets_submitted() - submitted;
    assert!(packets > 2_000, "the flows must be in full swing");
    assert!(
        calls as f64 <= 0.05 * packets as f64,
        "{calls} allocator calls for {packets} submitted packets"
    );
}

/// Takes a checkpoint with `take` and checks its allocation budget: the
/// bytes sit in one block of exactly their length, that is the largest
/// block the calling thread requests, and beside it and `copies` blocks of
/// its length (`EmulatorSnapshot::to_bytes`) the thread requests at most
/// `scratch` bytes, in at most 8 allocator calls in all. The scratch is
/// the timer wheels' `entries_in_order` `Vec`s of references, one a
/// non-empty wheel, sized by what is pending, made once by the measuring
/// run and once by the writing run; a section staged in a block of its own
/// (a copied core encoding) would not fit.
/// The scratch budget of a checkpoint with little traffic pending.
const LIGHT: u64 = 16 << 10;

fn one_exact_buffer(
    what: &str,
    copies: u64,
    scratch: u64,
    take: impl FnOnce() -> Vec<u8>,
) -> Vec<u8> {
    mn_util::alloc::take_thread_largest_alloc();
    let (calls, requested) = (alloc_calls(), alloc_bytes());
    let bytes = take();
    let (calls, requested) = (alloc_calls() - calls, alloc_bytes() - requested);
    let largest = mn_util::alloc::take_thread_largest_alloc();
    let frames = 1 + copies;
    let beside = requested - frames * bytes.len() as u64;
    println!(
        "{what}: {} B, largest block {largest} B, {beside} B in {} calls beside",
        bytes.len(),
        calls - frames
    );
    assert_eq!(
        bytes.capacity(),
        bytes.len(),
        "{what}: capacity beyond the bytes"
    );
    assert_eq!(
        largest,
        bytes.len(),
        "{what}: the largest block is not the checkpoint"
    );
    assert!(
        beside <= scratch && calls <= 8,
        "{what}: {} allocator calls requesting {beside} bytes beside the frame",
        calls - frames
    );
    bytes
}

#[test]
fn a_checkpoint_is_one_buffer_and_a_restore_copies_no_payload() {
    let _process = shared();
    // The allocation budget of the checkpoint path. The frame is measured
    // (its encoder run on a measuring writer) before it is written, so a
    // checkpoint — a run's first, a later one, a restored runner's first —
    // is ONE block of exactly its length: no staged emulator payload, no
    // copy into a frame, no buffer grown by doubling. The run is
    // routing-heavy and light on traffic, so the wheels' scratch beside it
    // is a few KiB.
    let topo = ring_topology(&RingParams {
        routers: 12,
        clients_per_router: 8,
        ..RingParams::default()
    });
    let build = || {
        let mut runner = modelnet::Experiment::new(topo.clone())
            .distillation(DistillationMode::HopByHop)
            .cores(1)
            .edge_nodes(4)
            .unconstrained_hardware()
            .seed(17)
            .build()
            .expect("experiment builds");
        let vns = runner.vn_ids();
        for i in 0..4 {
            runner.add_bulk_flow(vns[i], vns[(i + 40) % vns.len()], None, SimTime::ZERO);
        }
        runner
    };
    let mut runner = build();
    runner.run_for(SimDuration::from_secs(1)).unwrap();
    let first = one_exact_buffer("first checkpoint", 0, LIGHT, || runner.snapshot().unwrap());
    runner.run_for(SimDuration::from_millis(300)).unwrap();
    let second = one_exact_buffer("second checkpoint", 0, LIGHT, || runner.snapshot().unwrap());
    assert!(second.len() > 100_000 && second.len().abs_diff(first.len()) < 4096);

    // Restore decodes the borrowed bytes in place: the state it rebuilds is
    // many blocks, none of them as large as the payload — which a private
    // copy of the payload (or of the nested emulator frame) would be.
    let mut fresh = build();
    mn_util::alloc::take_thread_largest_alloc();
    fresh.recover_from(&second).unwrap();
    let largest = mn_util::alloc::take_thread_largest_alloc();
    assert!(
        largest < second.len() / 2,
        "restoring {} bytes requested a {largest}-byte block",
        second.len()
    );
    let again = one_exact_buffer("a restored runner's first", 0, LIGHT, || {
        fresh.snapshot().unwrap()
    });
    assert!(again == second);

    // A buffer with room is written in place: no block of its size.
    let mut kept = again;
    let at = kept.as_ptr();
    mn_util::alloc::take_thread_largest_alloc();
    fresh.snapshot_into(&mut kept).unwrap();
    let largest = mn_util::alloc::take_thread_largest_alloc();
    assert!(kept == second && kept.as_ptr() == at && largest < second.len() / 2);
}

#[test]
fn a_traffic_heavy_checkpoint_is_one_exact_buffer_on_either_executor() {
    let _process = shared();
    // Thousands of descriptors in flight, each written with its packet:
    // what the cores hold outweighs the routing state here, which is where
    // a buffer sized from the routing state alone fell short and doubled.
    // On the threaded executor each worker encodes its core for the
    // measuring pass and the writing pass appends those encodings; its
    // frame is the inline one's, byte for byte.
    let topo = ring_topology(&RingParams {
        routers: 8,
        clients_per_router: 8,
        ..RingParams::default()
    });
    let d = distill(&topo, DistillationMode::HopByHop);
    let binding = Binding::bind(d.vns(), &BindingParams::new(4, 2));
    let pod = mn_assign::greedy_k_clusters(&d, 2, 7);
    let profile = HardwareProfile::unconstrained();
    let mut inline = Emulator::new(
        &d,
        pod.clone(),
        RoutingMatrix::build(&d),
        &binding,
        profile,
        7,
    );
    let threaded = Emulator::new(&d, pod, RoutingMatrix::build(&d), &binding, profile, 7);
    let mut threaded = on_threads(threaded);
    let vns: Vec<VnId> = binding.vns().collect();
    // Every VN sources ~15 Mb/s into a 2 Mb/s access pipe: queues fill.
    drive_batched(&mut inline, &vns, &mut Feed::default(), 2_000, 0, 20_000);
    drive_batched(&mut threaded, &vns, &mut Feed::default(), 2_000, 0, 20_000);
    let in_flight: usize = inline.cores().iter().map(|core| core.in_flight()).sum();
    println!("{in_flight} descriptors in flight");
    assert!(in_flight > 2_000, "{in_flight} descriptors in flight");

    // (`to_bytes` copies the frame into a second block of its length.)
    // The inline executor sorts each core's pending entries on this thread,
    // once a run: ~175 KiB of references here; the workers sort theirs.
    let heavy = 256 << 10;
    let on_inline = one_exact_buffer("inline", 1, heavy, || inline.snapshot().unwrap().to_bytes());
    let on_threaded = one_exact_buffer("threaded", 1, heavy, || {
        threaded.snapshot().unwrap().to_bytes()
    });
    assert!(on_inline == on_threaded);
}

#[test]
fn a_route_table_restore_allocates_per_chunk_not_per_route() {
    let _process = shared();
    // The route arena's allocation budget. Routes live back to back in
    // chunks of 1024 (`ROUTE_CHUNK` in `mn_routing::table`), a chunk being
    // its `Arc`, its offsets and its pipes, and the encoding is those two
    // runs as they lie: decoding 100 000 routes is at most 3 allocator calls
    // per chunk plus 64 for the chunk list and the rows, columns and
    // geometry, and requests no more bytes than the arena it fills (4 B a
    // route and a hop in memory; the bound allows 8 B a hop) plus 64 KiB —
    // in particular no content index, which nothing on the forwarding path
    // reads: the first intern builds it (two blocks: the fingerprints, then
    // the slots, sized once).
    // Dropping the table frees 3 blocks per chunk plus 16. A `Vec` per
    // route made both at least 100 000.
    const ROUTES: usize = 100_000;
    let chunks = ROUTES.div_ceil(1024) as u64;
    let mut table = mn_routing::RouteTable::new(2);
    let mut hops = 0;
    for i in 0..ROUTES {
        let pipes = [i, i + 1, i % 7].map(mn_distill::PipeId::from_index);
        table.intern(&pipes[..2 + i % 2]);
        hops += 2 + i % 2;
    }
    table.set_pair(0, 1, mn_routing::RouteId(ROUTES as u32 - 1));
    let mut w = mn_util::ByteWriter::new();
    table.encode(&mut w);
    let bytes = w.into_bytes();

    let (calls, requested) = (alloc_calls(), alloc_bytes());
    let mut restored =
        mn_routing::RouteTable::decode(&mut mn_util::ByteReader::new(&bytes)).unwrap();
    let (calls, requested) = (alloc_calls() - calls, alloc_bytes() - requested);
    assert_eq!(restored.route_count(), ROUTES);
    assert!(
        calls <= 3 * chunks + 64,
        "{calls} allocator calls decoding {ROUTES} routes in {chunks} chunks"
    );
    let arena = (4 * ROUTES + 8 * hops) as u64;
    assert!(
        requested <= arena + (64 << 10),
        "{requested} B requested decoding a {arena}-byte arena"
    );
    // The first intern is what builds the index: 8 B a route of
    // fingerprints, 16 B a slot at 4/3 to 8/3 slots a route.
    let index = alloc_bytes();
    let known = [6, 7].map(mn_distill::PipeId);
    assert_eq!(restored.intern_pipes(&known), mn_routing::RouteId(6));
    let index = alloc_bytes() - index;
    assert!(index >= 24 * ROUTES as u64, "{index} B for the index");
    let again = alloc_calls();
    assert_eq!(restored.intern_pipes(&known), mn_routing::RouteId(6));
    assert_eq!(alloc_calls(), again, "built once");

    let frees = mn_util::alloc::thread_free_calls();
    drop(restored);
    let frees = mn_util::alloc::thread_free_calls() - frees;
    assert!(
        frees <= 3 * chunks + 16,
        "{frees} blocks freed dropping {ROUTES} routes in {chunks} chunks"
    );
    println!("{ROUTES} routes, {chunks} chunks: {calls} allocator calls ({requested} B) to decode, {index} B for the index on first intern, {frees} frees to drop");
}

#[test]
fn a_route_table_build_probes_no_index_and_requests_what_it_holds() {
    let _process = shared();
    // `RouteTable::build` appends each location pair's route with no
    // content-index probe: two location pairs never share a route (its
    // first pipe leaves the source location, its last enters the
    // destination), so every probe would miss, and the index is left to the
    // first intern to build, as after a decode. On the paper's 20 x 20 ring
    // (159 600 routes) the build probes nothing and requests no more than
    // the arena — 4 B a route and a hop in its sealed chunks (the bound
    // allows 8 B a hop; scale_claims (i'') pins 4), plus the open chunk's
    // two buffers, grown once by doubling to the longest chunk (at most
    // twice it) — the rows (4 B a location pair), the columns (4 B an
    // endpoint) and 64 KiB. An index would be another 4 MiB of slots.
    let topo = ring_topology(&RingParams {
        routers: 20,
        clients_per_router: 20,
        ..RingParams::default()
    });
    let d = distill(&topo, DistillationMode::HopByHop);
    let matrix = RoutingMatrix::build(&d);
    let (calls, requested) = (alloc_calls(), alloc_bytes());
    let table = mn_routing::RouteTable::build(&matrix, d.vns());
    let (calls, requested) = (alloc_calls() - calls, alloc_bytes() - requested);
    let (routes, n) = (table.route_count(), d.vns().len());
    assert_eq!(routes, n * (n - 1));
    assert_eq!(table.content_index_probes(), 0);
    let bytes = |id: usize| 4 + 8 * table.pipes(mn_routing::RouteId(id as u32)).len();
    let chunks: Vec<usize> = (0..routes)
        .step_by(1024)
        .map(|first| (first..routes.min(first + 1024)).map(bytes).sum())
        .collect();
    let arena = chunks.iter().sum::<usize>() + 2 * chunks.iter().max().unwrap();
    let held = (arena + 4 * n * n + 4 * n) as u64;
    println!("build of {routes} routes: {calls} allocator calls, {requested} B requested, {held} B arena + rows + columns");
    assert!(
        requested <= held + (64 << 10),
        "{requested} B requested building a table of {held} B"
    );
}

/// A rewire walks each run of pairs through the resolver's scratch, which
/// every table generation cloned from the built one shares: the build sizes
/// it once and no flap sizes it again, and once the buffers a run is held
/// in have grown, each cycle of one link's flap requests the bytes the last
/// did. On the 32 x 8 ring with 16 endpoints a location, `ctl_live4k`'s
/// geometry, as a publish does it: clone, then rewire the clone.
#[test]
fn repeated_flaps_of_one_link_request_the_same_bytes_and_size_the_resolver_once() {
    let _process = shared();
    let topo = ring_topology(&RingParams {
        routers: 32,
        clients_per_router: 8,
        ..RingParams::default()
    });
    let mut d = distill(&topo, DistillationMode::HopByHop);
    let mut matrix = RoutingMatrix::build(&d);
    let locations: Vec<_> = (0..16).flat_map(|_| d.vns().to_vec()).collect();
    let mut table = mn_routing::RouteTable::build(&matrix, &locations);
    assert_eq!(table.resolver_memo_sizings(), 1, "sized by the build");
    // The first duplex pair is a ring link.
    let link = [mn_distill::PipeId(0), mn_distill::PipeId(1)];
    let healthy = link.map(|p| d.pipe(p).attrs.bandwidth);
    let mut cycle = |table: &mut mn_routing::RouteTable| {
        let before = alloc_bytes();
        for up in [false, true] {
            for (&p, &bandwidth) in link.iter().zip(&healthy) {
                let attrs = d.pipe_attrs_mut(p).unwrap();
                attrs.bandwidth = if up {
                    bandwidth
                } else {
                    mn_util::DataRate::ZERO
                };
            }
            let update = matrix.update_pipes(&d, &link);
            assert!(!update.is_empty(), "a ring link carries routes");
            let mut next = table.clone();
            next.rewire_in_place(&matrix, &locations, &update.changed_pairs);
            *table = next;
        }
        alloc_bytes() - before
    };
    // The first cycle interns the detours and copies the index; the second
    // still grows buffers the first left short.
    let first = cycle(&mut table);
    cycle(&mut table);
    let steady: Vec<u64> = (0..4).map(|_| cycle(&mut table)).collect();
    println!("one flap cycle: {first} B the first time, then {steady:?} B");
    assert!(
        steady.windows(2).all(|pair| pair[0] == pair[1]),
        "bytes per cycle: {steady:?}"
    );
    assert_eq!(table.resolver_memo_sizings(), 1, "sized once, by the build");
}

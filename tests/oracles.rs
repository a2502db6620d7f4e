//! Closed-form oracles: the emulator measured against queueing theory.
//!
//! (i) **M/D/1.** Poisson arrivals of fixed-size packets at one pipe form
//! an M/D/1 queue: the service time is `S = size / bandwidth`, the load
//! `ρ = λ·S`, and Pollaczek–Khinchine gives the mean wait before service,
//! `W = ρ·S / (2(1 − ρ))`. A packet's wait is what its delivery shows
//! beyond `S` and the pipe's latency. Successive waits are correlated, so
//! the tolerance is a batch-means interval: three standard errors of the
//! means of consecutive batches. That bounds the waits at the ideal
//! delivery times (`delivered_at - emulation_error`); a core notices a
//! delivery up to one tick of its hardware profile after that, which every
//! delivery is checked against, so the waits as delivered are within the
//! interval plus one tick.
//!
//! (ii) **M/D/1/K.** The same arrivals at a pipe whose bandwidth queue
//! holds `K` packets — the one in service among them, as the pipe counts
//! every packet that has not finished draining — form an M/D/1/K queue.
//! Its loss probability follows from the chain embedded at departures: a
//! departure leaves `j` behind with the probabilities of Poisson arrivals
//! in one service time, `a_k = e^{−ρ} ρ^k / k!`, capped at `K − 1`; its
//! stationary law `π` is the balance equations solved forward from
//! `π_0`, and by PASTA an arrival finds the queue full with probability
//! `1 − 1/(π_0 + ρ)`. Losses cluster, so the tolerance is again three
//! standard errors of the batch means of the lost fraction.
//!
//! (iii) **Bernoulli loss.** Packets paced far below capacity never queue,
//! so on a path of two pipes that each drop a packet with probability `p`
//! only the loss draws decide a packet's fate: each is delivered
//! independently with probability `q = (1 − p)²`, and the delivered count
//! of `N` is binomial. The tolerance is the two-sided 99.9 % normal
//! interval, `q ± 3.29·√(q(1 − q)/N)`.
//!
//! (iv) **TCP through `Runner`.** A long-lived Reno flow over a path whose
//! data direction drops a packet with probability `p`, and nothing else
//! (no queueing: the links run at 1 Gb/s, a hundred times the flow), is
//! the case Mathis et al. (CCR 1997) model: goodput `B = (MSS/RTT)·C/√p`,
//! with `C = √(3/2)` when every segment is acknowledged. The band was fixed
//! before the first run: `B` over `(MSS/RTT)·√(3/(2p))` must lie in
//! `[0.5, 1.0]` at each `p` ∈ {0.5, 1, 2} %. Our receiver acknowledges
//! every second segment, which the same derivation turns into `C = √(3/4)`,
//! a ratio of 0.71 (random rather than periodic loss raises it a little,
//! timeouts, which the formula leaves out, lower it at the larger `p`);
//! 1.0 is the every-segment constant, which delayed acknowledgements
//! cannot reach. `RTT` is the path's round trip: four 25 ms links. Four
//! such paths, one flow each, run side by side and their goodputs are
//! averaged over the run after its first two seconds.
//! And `N` ∈ {2, 4, 8} flows with equal round trips through one drop-tail
//! bottleneck whose queue holds a round trip of data must, after a warm-up,
//! carry at least 90 % of its capacity in goodput, shared with Jain's
//! fairness index `(Σx)²/(N·Σx²)` of at least 0.9.

mod common;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use common::on_threads;
use mn_assign::{Binding, BindingParams, CoreId, PipeOwnershipDirectory};
use mn_distill::{distill, DistillationMode, PipeId};
use mn_emucore::{Delivery, Emulator, HardwareProfile};
use mn_packet::{FlowKey, Packet, PacketId, Protocol, TransportHeader, VnId};
use mn_routing::RoutingMatrix;
use mn_topology::{LinkAttrs, NodeId, NodeKind, Topology};
use mn_util::{DataRate, SimDuration, SimTime};
use modelnet::{FlowId, Runner, TcpConfig};

/// 1 000 wire bytes (972 of UDP payload) at 8 Mb/s: 1 ms of service.
const PAYLOAD: u32 = 972;
const BANDWIDTH_MBPS: u64 = 8;
const SERVICE: SimDuration = SimDuration::from_millis(1);
const LATENCY: SimDuration = SimDuration::from_millis(2);
/// Packets a run offers; the first batch's worth is the warm-up and is not
/// counted, the rest form `BATCHES` batches.
const PACKETS: usize = 31_500;
const BATCHES: usize = 20;

/// An emulator over one duplex link between two VNs, on one core, whose
/// queues hold `queue_len` packets; and the two VNs.
fn one_pipe(queue_len: usize) -> (Emulator, VnId, VnId) {
    let mut topo = Topology::new();
    let a = topo.add_node(NodeKind::Client);
    let b = topo.add_node(NodeKind::Client);
    let attrs = LinkAttrs::new(DataRate::from_mbps(BANDWIDTH_MBPS), LATENCY);
    topo.add_link(a, b, attrs).unwrap();
    let mut d = distill(&topo, DistillationMode::HopByHop);
    for p in 0..d.pipe_count() {
        d.pipe_attrs_mut(PipeId::from_index(p)).unwrap().queue_len = queue_len;
    }
    let binding = Binding::bind(d.vns(), &BindingParams::new(1, 1));
    let (src, dst) = (binding.vn_at(a).unwrap(), binding.vn_at(b).unwrap());
    let pod = PipeOwnershipDirectory::single_core(d.pipe_count());
    let emu = Emulator::new(&d, pod, RoutingMatrix::build(&d), &binding, profile(), 1);
    (emu, src, dst)
}

fn profile() -> HardwareProfile {
    HardwareProfile::unconstrained()
}

fn packet(id: usize, src: VnId, dst: VnId, now: SimTime) -> Packet {
    let flow = FlowKey {
        src,
        dst,
        src_port: 1,
        dst_port: 2,
        protocol: Protocol::Udp,
    };
    let header = TransportHeader::Udp {
        payload_len: PAYLOAD,
        seq: id as u64,
    };
    Packet::new(PacketId(id as u64), flow, header, now)
}

/// Advances `emu` wakeup by wakeup up to `until`, appending deliveries.
fn run_to(emu: &mut Emulator, until: SimTime, sink: &mut Vec<Delivery>) {
    while let Some(t) = emu.next_wakeup().filter(|&t| t <= until) {
        emu.advance_into(t, sink).unwrap();
    }
    emu.advance_into(until, sink).unwrap();
}

/// Offers `packets` seeded Poisson arrivals at load `rho` and runs the
/// emulator dry: each packet's arrival time and every delivery.
fn offer(
    emu: &mut Emulator,
    (src, dst): (VnId, VnId),
    packets: usize,
    rho: f64,
    seed: u64,
) -> (Vec<SimTime>, Vec<Delivery>) {
    assert_eq!(
        packet(0, src, dst, SimTime::ZERO)
            .header
            .wire_size()
            .as_bytes(),
        1_000
    );
    let mut rng = StdRng::seed_from_u64(seed);
    let mean_gap = SERVICE.as_nanos() as f64 / rho;
    let (mut now, mut arrivals, mut sink) = (SimTime::ZERO, Vec::new(), Vec::new());
    for id in 0..packets {
        let gap = -mean_gap * (1.0 - rng.gen::<f64>()).ln();
        now += SimDuration::from_nanos(gap.round() as u64);
        run_to(emu, now, &mut sink);
        emu.submit(now, packet(id, src, dst, now)).unwrap();
        arrivals.push(now);
    }
    while let Some(t) = emu.next_wakeup() {
        emu.advance_into(t, &mut sink).unwrap();
    }
    (arrivals, sink)
}

/// Every packet's wait in nanoseconds at its ideal delivery time, by
/// arrival, for seeded Poisson arrivals at load `rho`.
fn waits(mut emu: Emulator, src: VnId, dst: VnId, rho: f64, seed: u64) -> Vec<f64> {
    let (arrivals, sink) = offer(&mut emu, (src, dst), PACKETS, rho, seed);
    assert_eq!(sink.len(), PACKETS, "every packet is delivered");
    let mut waits = vec![0.0; PACKETS];
    for d in &sink {
        let late = d.emulation_error;
        assert!(late <= profile().tick, "late by {late:?}");
        let id = d.packet.id.0 as usize;
        let transit = d.delivered_at - late - arrivals[id];
        waits[id] = transit.as_nanos() as f64 - (SERVICE + LATENCY).as_nanos() as f64;
    }
    waits
}

/// The mean after the warm-up batch, and three standard errors of the
/// batch means.
fn batch_means(waits: &[f64]) -> (f64, f64) {
    let size = waits.len() / (BATCHES + 1);
    let means: Vec<f64> = waits[size..]
        .chunks_exact(size)
        .map(|batch| batch.iter().sum::<f64>() / size as f64)
        .collect();
    let n = means.len() as f64;
    let mean = means.iter().sum::<f64>() / n;
    let var = means.iter().map(|m| (m - mean).powi(2)).sum::<f64>() / (n - 1.0);
    (mean, 3.0 * (var / n).sqrt())
}

fn pollaczek_khinchine(rho: f64) -> f64 {
    rho * SERVICE.as_nanos() as f64 / (2.0 * (1.0 - rho))
}

#[test]
fn one_pipe_under_poisson_arrivals_waits_as_md1_on_both_executors() {
    for (rho, seed) in [(0.3, 11), (0.6, 12), (0.9, 13)] {
        let (emu, src, dst) = one_pipe(1 << 20);
        let inline = waits(emu, src, dst, rho, seed);
        let (mean, half_width) = batch_means(&inline);
        let expected = pollaczek_khinchine(rho);
        println!("rho {rho}: mean wait {mean:.0} ns, P-K {expected:.0} ns, +- {half_width:.0} ns");
        assert!(
            (mean - expected).abs() <= half_width,
            "rho {rho}: mean wait {mean:.0} ns against {expected:.0} ns (+- {half_width:.0} ns)"
        );
        let (emu, src, dst) = one_pipe(1 << 20);
        let threaded = waits(on_threads(emu), src, dst, rho, seed);
        assert!(threaded == inline, "rho {rho}: the executors disagree");
    }
}

/// Places in the M/D/1/K pipe's queue, the packet in service included.
const K: usize = 5;
/// Packets a loss run offers: a warm-up batch and `BATCHES` batches.
const LOSS_PACKETS: usize = 21_000;

/// The M/D/1/K loss probability at load `rho` (see the module docs).
fn md1k_loss(rho: f64, k: usize) -> f64 {
    let a: Vec<f64> = (0..k)
        .scan(f64::exp(-rho), |term, j| {
            let aj = *term;
            *term *= rho / (j + 1) as f64;
            Some(aj)
        })
        .collect();
    // π_j = π_0 a_j + Σ_{i=1}^{j+1} π_i a_{j+1−i} for j < K − 1, solved
    // for π_{j+1}; π_0 = 1 until normalised.
    let mut pi = vec![1.0];
    for j in 0..k - 1 {
        let below: f64 = (1..=j).map(|i| pi[i] * a[j + 1 - i]).sum();
        pi.push((pi[j] - pi[0] * a[j] - below) / a[0]);
    }
    let pi0 = pi[0] / pi.iter().sum::<f64>();
    1.0 - 1.0 / (pi0 + rho)
}

/// Whether each offered packet was lost, by arrival.
fn losses(mut emu: Emulator, src: VnId, dst: VnId, rho: f64, seed: u64) -> Vec<f64> {
    let (_, sink) = offer(&mut emu, (src, dst), LOSS_PACKETS, rho, seed);
    let mut lost = vec![1.0; LOSS_PACKETS];
    for d in &sink {
        lost[d.packet.id.0 as usize] = 0.0;
    }
    lost
}

#[test]
fn a_full_queue_loses_as_md1k_on_both_executors() {
    for (rho, seed) in [(0.9, 21), (1.2, 22)] {
        let (emu, src, dst) = one_pipe(K);
        let inline = losses(emu, src, dst, rho, seed);
        let (lost, half_width) = batch_means(&inline);
        let expected = md1k_loss(rho, K);
        println!("rho {rho}, K {K}: lost {lost:.4}, M/D/1/K {expected:.4}, +- {half_width:.4}");
        assert!(
            (lost - expected).abs() <= half_width,
            "rho {rho}: lost {lost:.4} against {expected:.4} (+- {half_width:.4})"
        );
        let (emu, src, dst) = one_pipe(K);
        let threaded = losses(on_threads(emu), src, dst, rho, seed);
        assert!(threaded == inline, "rho {rho}: the executors disagree");
    }
}

/// Packets a Bernoulli-loss run offers, one every `GAP`.
const BERNOULLI_PACKETS: usize = 10_000;
/// A 1 000-byte packet drains in 80 µs at 100 Mb/s: a packet a millisecond
/// is an 8 % load, and no packet waits for another.
const GAP: SimDuration = SimDuration::from_millis(1);
/// The two-sided 99.9 % point of the standard normal.
const Z_999: f64 = 3.29;

/// An emulator over VNs `a` and `b` joined through a router, every pipe
/// dropping with probability `loss`, on `cores` cores: on two, the path's
/// first pipe (and its reverse) runs on core 0 and its second on core 1.
fn lossy_path(loss: f64, cores: usize) -> (Emulator, VnId, VnId) {
    let mut topo = Topology::new();
    let a = topo.add_node(NodeKind::Client);
    let router = topo.add_node(NodeKind::Stub);
    let b = topo.add_node(NodeKind::Client);
    let attrs = LinkAttrs::new(DataRate::from_mbps(100), LATENCY).with_loss(loss);
    topo.add_link(a, router, attrs).unwrap();
    topo.add_link(router, b, attrs).unwrap();
    let d = distill(&topo, DistillationMode::HopByHop);
    let owners = d.pipes().map(|(_, pipe)| {
        let first = pipe.src == a || pipe.dst == a;
        CoreId(usize::from(!first) % cores)
    });
    let pod = PipeOwnershipDirectory::from_owners(owners.collect(), cores);
    let binding = Binding::bind(d.vns(), &BindingParams::new(1, cores));
    let (src, dst) = (binding.vn_at(a).unwrap(), binding.vn_at(b).unwrap());
    let emu = Emulator::new(&d, pod, RoutingMatrix::build(&d), &binding, profile(), 7);
    (emu, src, dst)
}

/// Offers `BERNOULLI_PACKETS` packets from `src` to `dst`, one every
/// `GAP`, and runs the emulator dry: each delivery's packet id, time and
/// hop count.
fn paced(mut emu: Emulator, src: VnId, dst: VnId) -> Vec<(u64, SimTime, usize)> {
    let mut sink = Vec::new();
    for id in 0..BERNOULLI_PACKETS {
        let now = SimTime::ZERO + GAP * id as u64;
        run_to(&mut emu, now, &mut sink);
        emu.submit(now, packet(id, src, dst, now)).unwrap();
    }
    while let Some(t) = emu.next_wakeup() {
        emu.advance_into(t, &mut sink).unwrap();
    }
    let seen = sink.iter().map(|d| (d.packet.id.0, d.delivered_at, d.hops));
    seen.collect()
}

#[test]
fn two_lossy_pipes_deliver_as_bernoulli_draws_on_both_executors_at_one_and_two_cores() {
    for loss in [0.01, 0.1] {
        let q = (1.0 - loss) * (1.0 - loss);
        let n = BERNOULLI_PACKETS as f64;
        let half_width = Z_999 * (q * (1.0 - q) / n).sqrt();
        for cores in [1, 2] {
            let (emu, src, dst) = lossy_path(loss, cores);
            let inline = paced(emu, src, dst);
            let delivered = inline.len() as f64 / n;
            println!(
                "p {loss}, {cores} core(s): delivered {delivered:.4}, (1 - p)^2 {q:.4}, \
                 +- {half_width:.4}"
            );
            assert!(
                (delivered - q).abs() <= half_width,
                "p {loss}, {cores} core(s): delivered {delivered:.4} against {q:.4} \
                 (+- {half_width:.4})"
            );
            assert!(inline.iter().all(|&(_, _, hops)| hops == 2));
            let (emu, src, dst) = lossy_path(loss, cores);
            let threaded = paced(on_threads(emu), src, dst);
            assert!(
                threaded == inline,
                "p {loss}, {cores} core(s): the executors disagree"
            );
        }
    }
}

/// One TCP data segment's payload.
const MSS: f64 = 1_460.0;
/// Each link's one-way latency on a Mathis path; four make a round trip.
const HOP: SimDuration = SimDuration::from_millis(25);
/// Independent Mathis paths, one flow each.
const MATHIS_PATHS: usize = 4;
/// Goodput is measured from here on: slow start is over.
const WARM_UP: SimTime = SimTime::from_secs(2);

/// A runner over `paths` copies of client — router — client, every link
/// 1 Gb/s and [`HOP`] long, each path's router → receiver pipe dropping
/// with probability `loss`; on two cores each path's second hop is on core
/// 1. Returns the runner and each path's (sender, receiver).
fn mathis_paths(loss: f64, cores: usize, threaded: bool) -> (Runner, Vec<(VnId, VnId)>) {
    let mut topo = Topology::new();
    let attrs = LinkAttrs::new(DataRate::from_mbps(1_000), HOP);
    let mut ends = Vec::new();
    for _ in 0..MATHIS_PATHS {
        let a = topo.add_node(NodeKind::Client);
        let router = topo.add_node(NodeKind::Stub);
        let b = topo.add_node(NodeKind::Client);
        topo.add_link(a, router, attrs).unwrap();
        topo.add_link(router, b, attrs).unwrap();
        ends.push((a, router, b));
    }
    let mut d = distill(&topo, DistillationMode::HopByHop);
    let receivers: Vec<_> = ends.iter().map(|&(_, _, b)| b).collect();
    let lossy: Vec<PipeId> = (d.pipes())
        .filter(|(_, pipe)| receivers.contains(&pipe.dst))
        .map(|(id, _)| id)
        .collect();
    for p in lossy {
        d.pipe_attrs_mut(p).unwrap().loss_rate = loss;
    }
    let second_hop =
        |pipe: &mn_distill::Pipe| receivers.contains(&pipe.src) || receivers.contains(&pipe.dst);
    let owners = d
        .pipes()
        .map(|(_, pipe)| CoreId(usize::from(second_hop(pipe)) % cores));
    runner_over(&d, owners.collect(), cores, threaded, &ends_of(&ends))
}

fn ends_of(ends: &[(NodeId, NodeId, NodeId)]) -> Vec<(NodeId, NodeId)> {
    ends.iter().map(|&(a, _, b)| (a, b)).collect()
}

/// A runner over `d` with the given pipe owners, and the VNs at each pair
/// of `ends`.
fn runner_over(
    d: &mn_distill::DistilledTopology,
    owners: Vec<CoreId>,
    cores: usize,
    threaded: bool,
    ends: &[(NodeId, NodeId)],
) -> (Runner, Vec<(VnId, VnId)>) {
    let pod = PipeOwnershipDirectory::from_owners(owners, cores);
    let binding = Binding::bind(d.vns(), &BindingParams::new(1, cores));
    let vns = ends
        .iter()
        .map(|&(a, b)| (binding.vn_at(a).unwrap(), binding.vn_at(b).unwrap()))
        .collect();
    let mut emu = Emulator::new(d, pod, RoutingMatrix::build(d), &binding, profile(), 3);
    if threaded {
        emu = on_threads(emu);
    }
    (
        Runner::with_backend(emu, binding, TcpConfig::default()),
        vns,
    )
}

/// Bytes each flow had acknowledged at [`WARM_UP`] and at `end`.
fn acked_between(runner: &mut Runner, flows: &[FlowId], end: SimTime) -> Vec<f64> {
    runner.run_until(WARM_UP).unwrap();
    let start: Vec<u64> = flows.iter().map(|&f| runner.flow_bytes_acked(f)).collect();
    runner.run_until(end).unwrap();
    let window = (end - WARM_UP).as_secs_f64();
    let bytes = flows
        .iter()
        .zip(start)
        .map(|(&f, s)| runner.flow_bytes_acked(f) - s);
    bytes.map(|b| b as f64 / window).collect()
}

/// Each Mathis path's goodput in bytes per second at loss `p`.
fn mathis_goodputs(loss: f64, cores: usize, threaded: bool) -> Vec<f64> {
    let (mut runner, pairs) = mathis_paths(loss, cores, threaded);
    let flows: Vec<FlowId> = (pairs.iter().enumerate())
        .map(|(i, &(a, b))| runner.add_bulk_flow(a, b, None, SimTime::from_millis(i as u64)))
        .collect();
    acked_between(&mut runner, &flows, SimTime::from_secs(40))
}

#[test]
fn reno_under_random_loss_follows_mathis_on_both_executors_at_one_and_two_cores() {
    let rtt = (HOP * 4).as_secs_f64();
    for loss in [0.005f64, 0.01, 0.02] {
        let mathis = MSS / rtt * (3.0 / (2.0 * loss)).sqrt();
        for cores in [1, 2] {
            let inline = mathis_goodputs(loss, cores, false);
            let mean = inline.iter().sum::<f64>() / inline.len() as f64;
            let ratio = mean / mathis;
            println!(
                "p {loss}, {cores} core(s): {mean:.0} B/s against {mathis:.0} B/s, ratio {ratio:.3}"
            );
            assert!(
                (0.5..=1.0).contains(&ratio),
                "p {loss}, {cores} core(s): goodput {mean:.0} B/s is {ratio:.3} of Mathis"
            );
            let threaded = mathis_goodputs(loss, cores, true);
            assert!(
                threaded == inline,
                "p {loss}, {cores} core(s): the executors disagree"
            );
        }
    }
}

/// The bottleneck's capacity.
const BOTTLENECK_MBPS: u64 = 10;

/// `n` senders and `n` receivers joined by a 10 Mb/s, 10 ms bottleneck
/// whose queue holds 25 packets (about one round trip of data: access
/// links are 100 Mb/s and 1 ms, so the round trip is about 24 ms); on two
/// cores the bottleneck and the receivers' side are on core 1.
fn dumbbell(n: usize, cores: usize, threaded: bool) -> (Runner, Vec<(VnId, VnId)>) {
    let mut topo = Topology::new();
    let left = topo.add_node(NodeKind::Stub);
    let right = topo.add_node(NodeKind::Stub);
    let access = LinkAttrs::new(DataRate::from_mbps(100), SimDuration::from_millis(1));
    let bottleneck = LinkAttrs::new(
        DataRate::from_mbps(BOTTLENECK_MBPS),
        SimDuration::from_millis(10),
    );
    topo.add_link(left, right, bottleneck).unwrap();
    let mut ends = Vec::new();
    for _ in 0..n {
        let (a, b) = (
            topo.add_node(NodeKind::Client),
            topo.add_node(NodeKind::Client),
        );
        topo.add_link(a, left, access).unwrap();
        topo.add_link(right, b, access).unwrap();
        ends.push((a, b));
    }
    let mut d = distill(&topo, DistillationMode::HopByHop);
    let narrow: Vec<PipeId> = (d.pipes())
        .filter(|(_, pipe)| [pipe.src, pipe.dst] == [left, right])
        .map(|(id, _)| id)
        .collect();
    d.pipe_attrs_mut(narrow[0]).unwrap().queue_len = 25;
    let right_side = |pipe: &mn_distill::Pipe| pipe.src == right || pipe.dst == right;
    let owners = d
        .pipes()
        .map(|(_, pipe)| CoreId(usize::from(right_side(pipe)) % cores));
    runner_over(&d, owners.collect(), cores, threaded, &ends)
}

#[test]
fn reno_flows_fill_a_drop_tail_bottleneck_fairly_on_both_executors_at_one_and_two_cores() {
    let capacity = BOTTLENECK_MBPS as f64 * 1e6 / 8.0;
    for n in [2, 4, 8] {
        for cores in [1, 2] {
            let goodputs = |threaded| {
                let (mut runner, pairs) = dumbbell(n, cores, threaded);
                let flows: Vec<FlowId> = (pairs.iter().enumerate())
                    .map(|(i, &(a, b))| {
                        runner.add_bulk_flow(a, b, None, SimTime::from_millis(7 * i as u64))
                    })
                    .collect();
                acked_between(&mut runner, &flows, SimTime::from_secs(12))
            };
            let inline = goodputs(false);
            let total: f64 = inline.iter().sum();
            let squares: f64 = inline.iter().map(|x| x * x).sum();
            let jain = total * total / (n as f64 * squares);
            let share = total / capacity;
            println!("{n} flows, {cores} core(s): {share:.3} of capacity, Jain {jain:.3}");
            assert!(
                share >= 0.9,
                "{n} flows, {cores} core(s): {share:.3} of capacity"
            );
            assert!(
                jain >= 0.9,
                "{n} flows, {cores} core(s): Jain's index {jain:.3}"
            );
            assert!(
                goodputs(true) == inline,
                "{n} flows, {cores} core(s): executors disagree"
            );
        }
    }
}

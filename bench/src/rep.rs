//! One rep of one workload: build, warm up, timed window, control cycles where
//! the workload has them, checkpoints, restore into a fresh build, tail, drain,
//! output checks.

use std::time::Instant;

use mn_util::alloc;

use crate::stats::{HostProbe, InputRng};
use crate::sut::{self, Batch, Delivered, Emu, Outcomes, Target, VnId};
use crate::trace::Tracer;
use crate::workload::{draw_pair, Control, Inputs, Traffic, Workload, CHURN_RESERVE};

/// What one rep measured. Times are host seconds as measured.
#[derive(Debug, Clone, Default)]
pub struct RepResult {
    /// One sample per build: the rep's first emulator and the one the
    /// checkpoint is restored into.
    pub setup_s: Vec<f64>,
    pub window_s: f64,
    /// Pipe transits completed inside the timed window.
    pub window_hops: u64,
    /// Packets offered (generator) or submitted by the stacks (TCP) in it.
    pub window_packets: u64,
    pub window_virtual_s: f64,
    /// Allocator calls and bytes requested by this thread / process in it.
    pub window_alloc_calls: u64,
    pub window_alloc_bytes: u64,
    /// Host seconds of each link taken down, each link brought back and each
    /// leave+rejoin. Empty for a workload without control cycles.
    pub flap_down_s: Vec<f64>,
    pub flap_up_s: Vec<f64>,
    pub churn_s: Vec<f64>,
    pub trees_per_flap: f64,
    pub checkpoint_s: Vec<f64>,
    pub restore_s: f64,
    pub snapshot_bytes: usize,
    /// Peak bytes in use over the rep, above what was in use when it began.
    pub peak_bytes: usize,
    /// Hash of everything the emulation produced; equal across reps of one
    /// seed, across backends, and across the restore.
    pub digest: u64,
    pub counters: sut::Counters,
    pub delivered: u64,
    pub sched_err_ns: u64,
    pub attempted: u64,
    pub failed: u64,
    /// TCP only: per-flow acked bytes and total retransmissions at the end
    /// of the timed window.
    pub flow_acked_bytes: Vec<u64>,
    pub retransmissions: u64,
    /// Host seconds of each virtual second of the TCP window.
    pub window_slices_s: Vec<f64>,
    /// Bytes in use at the start and end of the timed window.
    pub window_mem_bytes: (usize, usize),
    /// How far the emulation sits from its model, in virtual time (exact for
    /// a seed). Generator workloads: the scheduling error packets picked up,
    /// as a share of the delay the pipe model prescribed for them. TCP: mean
    /// relative distance of per-flow goodput from the reference simulator's
    /// fair share, over the timed window.
    pub model_err_pct: f64,
    /// Pipe transits over the whole rep.
    pub hops_total: u64,
    /// Sequential backends only: packets dropped by pipes over the rep.
    pub pipe_drops: u64,
    /// Bytes requested from the allocator by one checkpoint.
    pub checkpoint_alloc_bytes: u64,
    /// Host-probe times taken between the rep's phases, outside every timed
    /// section: after set-up, the window, the control cycles and the restore.
    pub probes_s: Vec<f64>,
}

/// How to build the rep's emulators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BuildVia {
    /// `modelnet::Experiment`, where the workload allows it.
    Facade,
    /// Phase by phase, each under a span.
    Stepwise,
}

/// Running totals over deliveries: what the digest and the ledger read.
#[derive(Debug, Clone, Default)]
struct Tally {
    offered: u64,
    refused: u64,
    delivered: u64,
    hops: u64,
    delivered_at_sum: u64,
    /// Σ time inside the emulated network, scheduling error included.
    delay_ns: u64,
    sched_err_ns: u64,
}

impl Tally {
    fn absorb(&mut self, deliveries: &[Delivered]) {
        for d in deliveries {
            self.delivered += 1;
            self.hops += d.hops as u64;
            self.delivered_at_sum = self
                .delivered_at_sum
                .wrapping_add(d.delivered_at.as_nanos());
            self.delay_ns += d.core_delay().as_nanos();
            self.sched_err_ns += d.emulation_error.as_nanos();
        }
    }
}

/// The open-loop generator. Single thread; after its buffers are sized it
/// allocates nothing.
#[derive(Clone)]
pub struct Generator {
    payload: u32,
    pace_ns: u64,
    batch_size: usize,
    pairs: InputRng,
    vns: Vec<VnId>,
    limit: usize,
    routed: Option<Vec<(usize, usize)>>,
    clock_ns: u64,
    next_id: u64,
    batch: Batch,
    outcomes: Outcomes,
    deliveries: Vec<Delivered>,
}

impl Generator {
    pub fn new(
        traffic: Traffic,
        pairs: InputRng,
        vns: Vec<VnId>,
        routed: Option<Vec<(usize, usize)>>,
    ) -> Self {
        let Traffic::Generator {
            payload,
            pace_ns,
            batch,
        } = traffic
        else {
            panic!("the generator drives generator workloads");
        };
        let limit = vns.len() - CHURN_RESERVE;
        Generator {
            payload,
            pace_ns,
            batch_size: batch,
            pairs,
            vns,
            limit,
            routed,
            clock_ns: 0,
            next_id: 0,
            batch: Vec::with_capacity(batch),
            outcomes: Vec::with_capacity(batch),
            // Room for every delivery of the deepest burst: the harness must
            // not be what allocates inside a window.
            deliveries: Vec::with_capacity(64 * batch),
        }
    }

    /// Fills the batch buffer with the next `n` packets.
    #[inline]
    fn fill(&mut self, n: usize) {
        for _ in 0..n {
            let (s, d) = draw_pair(&mut self.pairs, self.limit, self.routed.as_deref());
            let now = sut::virtual_nanos(self.clock_ns);
            self.batch.push((
                now,
                sut::udp_packet(self.next_id, self.vns[s], self.vns[d], self.payload, now),
            ));
            self.next_id += 1;
            self.clock_ns += self.pace_ns;
        }
    }

    /// Offers `packets` packets, advancing the emulation after every batch.
    fn drive(
        &mut self,
        emu: &mut Emu,
        packets: u64,
        tally: &mut Tally,
        trace: &mut Tracer,
    ) -> Result<(), String> {
        let mut left = packets;
        while left > 0 {
            let n = left.min(self.batch_size as u64) as usize;
            left -= n as u64;
            trace.span("harness.generate", || self.fill(n));
            self.outcomes.clear();
            let (batch, outcomes) = (&mut self.batch, &mut self.outcomes);
            trace.span("emucore.submit_batch", || emu.submit_batch(batch, outcomes))?;
            tally.offered += n as u64;
            tally.refused += self.outcomes.iter().filter(|o| !sut::accepted(o)).count() as u64;
            // Advance to the last packet's timestamp.
            let now = sut::virtual_nanos(self.clock_ns - self.pace_ns);
            self.deliveries.clear();
            let deliveries = &mut self.deliveries;
            trace.span("emucore.advance_into", || emu.advance_into(now, deliveries))?;
            tally.absorb(&self.deliveries);
        }
        Ok(())
    }

    /// Advances until every offered packet is delivered or counted as
    /// unreachable. `next_wakeup` alone cannot end the loop: fluid flows
    /// re-solve on an epoch grid forever. Gives up a few virtual seconds past
    /// the last submission; the ledger then reports what is missing.
    fn drain(
        &mut self,
        emu: &mut Emu,
        tally: &mut Tally,
        trace: &mut Tracer,
    ) -> Result<(), String> {
        let give_up_ns = self.clock_ns + 5_000_000_000;
        while tally.delivered + tally.refused + emu.total_stats().dropped_unreachable
            < tally.offered
        {
            let Some(t) = trace.span("emucore.next_wakeup", || emu.next_wakeup()) else {
                break;
            };
            if t.as_nanos() > give_up_ns {
                break;
            }
            self.clock_ns = self.clock_ns.max(t.as_nanos());
            self.deliveries.clear();
            let deliveries = &mut self.deliveries;
            trace.span("emucore.advance_into", || emu.advance_into(t, deliveries))?;
            tally.absorb(&self.deliveries);
        }
        Ok(())
    }

    /// One round of the window's own loop with only the calls into the
    /// emulator on the clock: their time, over the pipe transits completed.
    pub fn timed_round(&mut self, emu: &mut Emu, packets: u64) -> Result<sut::Timed, String> {
        let (mut tally, mut tracer) = (Tally::default(), Tracer::on());
        self.drive(emu, packets, &mut tally, &mut tracer)?;
        let calls_ns: u64 = tracer
            .spans()
            .iter()
            .filter(|s| s.name != "harness.generate")
            .map(|s| s.duration_ns())
            .sum();
        Ok(sut::Timed {
            seconds: calls_ns as f64 / 1e9,
            ops: tally.hops,
        })
    }

    /// The generator alone against a sink that does nothing: proof that it
    /// does not allocate. Returns the allocator calls it made.
    pub fn dry_run(&mut self, packets: u64) -> u64 {
        let calls = alloc::thread_alloc_calls();
        let mut left = packets;
        while left > 0 {
            let n = left.min(self.batch_size as u64) as usize;
            left -= n as u64;
            self.fill(n);
            std::hint::black_box(&self.batch);
            self.batch.clear();
        }
        alloc::thread_alloc_calls() - calls
    }
}

/// What offers traffic in this rep, with the harness-side state that has to
/// be cloned when the run forks at the restore.
#[derive(Clone)]
enum Source {
    Generator(Box<Generator>),
    Tcp { flows: Vec<sut::FlowId> },
}

impl Source {
    fn drive(
        &mut self,
        emu: &mut Emu,
        amount: u64,
        tally: &mut Tally,
        trace: &mut Tracer,
    ) -> Result<(), String> {
        match self {
            Source::Generator(g) => g.drive(emu, amount, tally, trace),
            Source::Tcp { .. } if amount == 0 => Ok(()),
            Source::Tcp { .. } => trace.span("modelnet.run_for", || emu.run_for_millis(amount)),
        }
    }

    /// Virtual "now" for control operations.
    fn now(&self, emu: &Emu) -> sut::VirtualTime {
        match self {
            Source::Generator(g) => sut::virtual_nanos(g.clock_ns),
            Source::Tcp { .. } => emu.now(),
        }
    }
}

fn build(
    target: &Target,
    w: &Workload,
    via: BuildVia,
    sequential: bool,
    trace: &mut Tracer,
) -> Result<Emu, String> {
    let mut plan = w.plan;
    if sequential {
        plan.threaded = false;
    }
    if via == BuildVia::Facade && plan.multiplexed_vns.is_none() {
        Emu::build(target, plan)
    } else {
        Ok(Emu::build_stepwise(target, plan, trace))
    }
}

/// The chain's routed pairs as VN indices, without any that touch the churn
/// reserve; `None` for topologies that route every pair.
pub fn routed_indices(target: &Target, emu: &Emu) -> Option<Vec<(usize, usize)>> {
    let limit = emu.vns().len() - CHURN_RESERVE;
    target.routed_pairs.as_ref().map(|pairs| {
        pairs
            .iter()
            .map(|&(a, b)| {
                let vn = |n| emu.vn_at(n).expect("chain ends are clients").index();
                (vn(a), vn(b))
            })
            .filter(|&(a, b)| a < limit && b < limit)
            .collect()
    })
}

fn fnv(mut h: u64, v: u64) -> u64 {
    for byte in v.to_le_bytes() {
        h = (h ^ byte as u64).wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Hash of everything observable the emulation produced.
pub fn result_digest(c: &sut::Counters, extra: &[u64]) -> u64 {
    let fields = [
        c.packets_offered,
        c.packets_admitted,
        c.packets_delivered,
        c.tunnels_out,
        c.tunnels_in,
        c.physical_drops_nic,
        c.physical_drops_cpu,
        c.bytes_in,
        c.bytes_out,
        c.cbr_injected,
        c.dropped_unreachable,
        c.fluid_modelled_bytes,
    ];
    fields
        .iter()
        .chain(extra)
        .fold(0xCBF2_9CE4_8422_2325, |h, &v| fnv(h, v))
}

/// Finishes one fork of the run — tail traffic, then drain — and returns its
/// digest.
fn finish(
    emu: &mut Emu,
    source: &mut Source,
    tail: u64,
    tally: &mut Tally,
    trace: &mut Tracer,
) -> Result<u64, String> {
    source.drive(emu, tail, tally, trace)?;
    match source {
        Source::Generator(g) => {
            g.drain(emu, tally, trace)?;
            Ok(result_digest(
                &emu.total_stats(),
                &[
                    tally.delivered,
                    tally.hops,
                    tally.delivered_at_sum,
                    tally.sched_err_ns,
                ],
            ))
        }
        Source::Tcp { flows } => {
            let acked: u64 = flows.iter().map(|&f| emu.flow_bytes_acked(f)).sum();
            let retx: u64 = flows.iter().map(|&f| emu.flow_retransmissions(f)).sum();
            Ok(result_digest(
                &emu.total_stats(),
                &[
                    emu.packets_submitted(),
                    emu.packets_delivered(),
                    acked,
                    retx,
                    emu.now().as_nanos(),
                ],
            ))
        }
    }
}

/// Mean over flows of |goodput − reference fair share| / fair share, in per
/// cent, over the first `virtual_s` seconds.
fn model_error_pct(acked_bytes: &[u64], reference_bps: &[f64], virtual_s: f64) -> f64 {
    let errors: Vec<f64> = acked_bytes
        .iter()
        .zip(reference_bps)
        .filter(|(_, &rate)| rate > 0.0)
        .map(|(&bytes, &rate)| (bytes as f64 * 8.0 / virtual_s - rate).abs() / rate)
        .collect();
    100.0 * errors.iter().sum::<f64>() / errors.len().max(1) as f64
}

/// The running emulation a control cycle acts on.
struct Live<'a> {
    emu: &'a mut Emu,
    source: &'a mut Source,
    tally: &'a mut Tally,
}

/// Link flaps, then VN churn, against the live emulator, with `control.gap`
/// of traffic after every cycle. No traffic is offered while a link is down
/// or a VN is away (a topology without a second path would have to refuse
/// it); packets already inside the pipes stay there, so every operation
/// still hits a live emulator.
fn control_cycles(
    live: &mut Live,
    control: &Control,
    inputs: &Inputs,
    links: &[sut::Link],
    vns: &[VnId],
    r: &mut RepResult,
    trace: &mut Tracer,
) -> Result<(), String> {
    let mut trees = 0usize;
    for &index in &inputs.flap_links {
        let link = links[index];
        for (up, name) in [(false, "flap_down"), (true, "flap_up")] {
            let id = trace.open_span(name);
            let t = Instant::now();
            let (ok, recomputed) = live.emu.set_link(&link, up, trace);
            let elapsed = t.elapsed().as_secs_f64();
            trace.close_span(id);
            let samples = if up {
                &mut r.flap_up_s
            } else {
                &mut r.flap_down_s
            };
            samples.push(elapsed);
            trees += recomputed;
            r.attempted += 1;
            r.failed += u64::from(!ok);
        }
        live.source
            .drive(live.emu, control.gap, live.tally, trace)?;
    }
    r.trees_per_flap = trees as f64 / (2 * inputs.flap_links.len()).max(1) as f64;
    for &vn in &inputs.churn_vns {
        let at = live.source.now(live.emu);
        let id = trace.open_span("churn_cycle");
        let t = Instant::now();
        let ok = live.emu.leave_and_rejoin(vns[vn], at, trace);
        r.churn_s.push(t.elapsed().as_secs_f64());
        trace.close_span(id);
        r.attempted += 1;
        r.failed += u64::from(!ok);
        live.source
            .drive(live.emu, control.gap, live.tally, trace)?;
    }
    Ok(())
}

/// Runs one rep. `sequential` forces the cooperative backend over the same
/// partition (the reference a threaded workload's digest must equal).
pub fn run_rep(
    w: &Workload,
    target: &Target,
    seed: u64,
    via: BuildVia,
    sequential: bool,
    trace: &mut Tracer,
    probe: &HostProbe,
) -> Result<RepResult, String> {
    let mut r = RepResult::default();
    // What the harness itself holds (the topology, the host probe's array,
    // earlier results and traces) is not the emulator's memory.
    alloc::reset_peak();
    let held_before = alloc::bytes_in_use();

    // ---- set-up: topology in hand → emulator ready, flows installed --------
    let span = trace.open_span("setup");
    let start = Instant::now();
    let mut emu = build(target, w, via, sequential, trace)?;
    let vns = emu.vns();
    let routed = routed_indices(target, &emu);
    let links = emu.flap_candidates();
    let inputs = Inputs::generate(w, seed, vns.len(), routed.as_deref(), links.len());
    for (tag, &(s, d)) in inputs.fluid.iter().enumerate() {
        r.attempted += 1;
        r.failed += u64::from(!emu.add_fluid_flow(tag as u64, vns[s], vns[d], 1));
    }
    let mut source = match w.traffic {
        Traffic::Generator { .. } => Source::Generator(Box::new(Generator::new(
            w.traffic,
            inputs.pair_stream.clone(),
            vns.clone(),
            routed,
        ))),
        Traffic::Tcp { .. } => Source::Tcp {
            flows: inputs
                .flows
                .iter()
                .map(|&(s, d)| emu.add_tcp_flow(vns[s], vns[d]))
                .collect(),
        },
    };
    r.setup_s.push(start.elapsed().as_secs_f64());
    trace.close_span(span);
    r.probes_s.push(probe.run());

    let mut tally = Tally::default();
    let s = w.sizes;

    // ---- warm-up, then the timed window ------------------------------------
    source.drive(&mut emu, s.warm, &mut tally, trace)?;
    let tally_before = tally.clone();
    let pipes_before = emu.pipe_totals();
    let submitted_before = emu.packets_submitted();
    let virtual_before = source.now(&emu);
    let calls = alloc::thread_alloc_calls();
    let bytes = alloc::total_allocated_bytes();
    r.window_mem_bytes.0 = alloc::bytes_in_use();
    let span = trace.open_span("window");
    let start = Instant::now();
    if let Some(control) = w.control.filter(|c| c.timed) {
        let mut live = Live {
            emu: &mut emu,
            source: &mut source,
            tally: &mut tally,
        };
        control_cycles(&mut live, &control, &inputs, &links, &vns, &mut r, trace)?;
    } else if let Source::Tcp { .. } = source {
        // One virtual second at a time, so growth with virtual time shows.
        let mut left = s.timed;
        while left > 0 {
            let slice = left.min(1_000);
            left -= slice;
            let t = Instant::now();
            source.drive(&mut emu, slice, &mut tally, trace)?;
            r.window_slices_s.push(t.elapsed().as_secs_f64());
        }
    } else {
        source.drive(&mut emu, s.timed, &mut tally, trace)?;
    }
    r.window_s = start.elapsed().as_secs_f64();
    trace.close_span(span);
    r.probes_s.push(probe.run());
    r.window_alloc_calls = alloc::thread_alloc_calls() - calls;
    r.window_alloc_bytes = alloc::total_allocated_bytes() - bytes;
    r.window_mem_bytes.1 = alloc::bytes_in_use();
    r.window_virtual_s = (source.now(&emu).as_nanos() - virtual_before.as_nanos()) as f64 / 1e9;
    match &source {
        Source::Generator(_) => {
            r.window_hops = tally.hops - tally_before.hops;
            r.window_packets = tally.offered - tally_before.offered;
        }
        Source::Tcp { flows } => {
            let (now, before) = emu
                .pipe_totals()
                .zip(pipes_before)
                .ok_or("TCP workloads run on the sequential backend")?;
            r.window_hops = now.transits - before.transits;
            r.window_packets = emu.packets_submitted() - submitted_before;
            r.flow_acked_bytes = flows.iter().map(|&f| emu.flow_bytes_acked(f)).collect();
            r.retransmissions = flows.iter().map(|&f| emu.flow_retransmissions(f)).sum();
            let reference = sut::reference_rates_bps(target, &emu, &inputs.flows);
            r.model_err_pct = model_error_pct(&r.flow_acked_bytes, &reference, r.window_virtual_s);
        }
    }

    // ---- control cycles that are not the window: each operation is timed on
    // ---- its own, for the per-layer metrics ---------------------------------
    if let Some(control) = w.control.filter(|c| !c.timed) {
        let span = trace.open_span("control");
        let mut live = Live {
            emu: &mut emu,
            source: &mut source,
            tally: &mut tally,
        };
        control_cycles(&mut live, &control, &inputs, &links, &vns, &mut r, trace)?;
        trace.close_span(span);
        r.probes_s.push(probe.run());
    }

    // ---- checkpoints --------------------------------------------------------
    let mut snapshot = Vec::new();
    for _ in 0..s.checkpoints {
        let bytes = alloc::total_allocated_bytes();
        let t = Instant::now();
        snapshot = trace.span("modelnet.snapshot", || emu.checkpoint())?;
        r.checkpoint_s.push(t.elapsed().as_secs_f64());
        r.checkpoint_alloc_bytes = alloc::total_allocated_bytes() - bytes;
        r.attempted += 1;
    }
    r.snapshot_bytes = snapshot.len();
    if trace.enabled() {
        emu.emulator_snapshot_parts(trace)?;
    }

    // ---- the uninterrupted run finishes; then a fresh build is restored
    // ---- from the checkpoint and must finish identically ------------------
    let mut forked_source = source.clone();
    let mut forked_tally = tally.clone();
    let digest = finish(&mut emu, &mut source, s.tail, &mut tally, trace)?;
    r.counters = emu.total_stats();
    let pipes = emu.pipe_totals();
    drop(emu);

    let span = trace.open_span("setup");
    let start = Instant::now();
    let mut restored = build(target, w, via, sequential, trace)?;
    r.setup_s.push(start.elapsed().as_secs_f64());
    trace.close_span(span);
    let t = Instant::now();
    trace.span("modelnet.recover_from", || restored.restore(&snapshot))?;
    r.restore_s = t.elapsed().as_secs_f64();
    r.attempted += 1;
    r.probes_s.push(probe.run());
    // A restore that loses anything does not re-serialise to the same bytes.
    r.failed += u64::from(restored.checkpoint()? != snapshot);
    drop(snapshot);
    let restored_digest = finish(
        &mut restored,
        &mut forked_source,
        s.tail,
        &mut forked_tally,
        trace,
    )?;
    drop(restored);
    if restored_digest != digest {
        return Err(format!(
            "{}: the restored run diverged from the uninterrupted one (digest {restored_digest:016x} vs {digest:016x})",
            w.name
        ));
    }

    // ---- ledger -------------------------------------------------------------
    r.digest = digest;
    r.delivered = tally.delivered;
    r.hops_total = pipes.map_or(tally.hops, |p| p.transits);
    r.sched_err_ns = tally.sched_err_ns;
    r.peak_bytes = alloc::peak_bytes_in_use() - held_before;
    let c = &r.counters;
    match &source {
        Source::Generator(_) => {
            // After the drain every offered packet is delivered or was
            // dropped at a failed link. Anything else — refused at submit,
            // dropped by a pipe or (under the unconstrained profile) by the
            // NIC/CPU model, or simply missing — is a failed operation.
            r.model_err_pct =
                100.0 * tally.sched_err_ns as f64 / (tally.delay_ns - tally.sched_err_ns) as f64;
            r.attempted += tally.offered;
            r.failed += tally
                .offered
                .saturating_sub(tally.delivered + c.dropped_unreachable);
            if tally.delivered + c.dropped_unreachable > tally.offered {
                return Err(format!(
                    "{}: more packets came out than went in: offered {}, delivered {}, unreachable {}",
                    w.name, tally.offered, tally.delivered, c.dropped_unreachable
                ));
            }
        }
        Source::Tcp { flows } => {
            // The stacks keep sending, so the run ends with packets inside:
            // admitted = delivered + pipe drops + unreachable + in flight.
            r.attempted += flows.len() as u64;
            r.failed += r.flow_acked_bytes.iter().filter(|&&b| b == 0).count() as u64;
            let pipes = pipes.ok_or("TCP workloads run on the sequential backend")?;
            r.pipe_drops = pipes.drops;
            let accounted =
                c.packets_delivered + pipes.drops + c.dropped_unreachable + pipes.in_flight;
            if c.packets_admitted != accounted || c.physical_drops() != 0 {
                return Err(format!(
                    "{}: packet ledger does not close: admitted {}, delivered {}, pipe drops {}, unreachable {}, in flight {}, physical drops {}",
                    w.name, c.packets_admitted, c.packets_delivered, pipes.drops, c.dropped_unreachable, pipes.in_flight, c.physical_drops()
                ));
            }
        }
    }
    Ok(r)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_changes_with_any_counter_and_any_extra() {
        let base = sut::Counters::default();
        let d0 = result_digest(&base, &[1, 2]);
        assert_eq!(d0, result_digest(&base, &[1, 2]));
        assert_ne!(d0, result_digest(&base, &[1, 3]));
        assert_ne!(d0, result_digest(&base, &[2, 1]));
        let bumped = sut::Counters {
            dropped_unreachable: 1,
            ..base
        };
        assert_ne!(d0, result_digest(&bumped, &[1, 2]));
    }

    #[test]
    fn model_error_is_the_mean_relative_distance_from_the_reference() {
        // 1 s: flow 0 moves 1000 bit/s against 1000 (0 %), flow 1 moves 500
        // against 1000 (50 %); a flow the reference cannot route is left out.
        let err = model_error_pct(&[125, 62, 10], &[1000.0, 992.0, 0.0], 1.0);
        assert!((err - 25.0).abs() < 1e-9, "{err}");
    }
}

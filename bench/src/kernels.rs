//! Per-layer metrics: what the traced rep's spans say about each call into a
//! layer, plus the layer kernels — each stage run alone over the inputs the
//! workload generated — and the hop ledger that checks the two against each
//! other.

use crate::rep::{routed_indices, Generator, RepResult};
use crate::stats::{lowest, median, tail};
use crate::sut::{self, BareCore, Emu, RouteKernel, Target, Timed};
use crate::trace::{durations_ns, self_times_ns, Span, Tracer};
use crate::workload::{draw_pair, Inputs, Traffic, Workload, CHURN_RESERVE};

const MIB: f64 = 1024.0 * 1024.0;

/// The workload whose hop ledger must close: long routes, so the per-hop
/// stages carry nearly all of a packet's cost.
pub const LEDGER_WORKLOAD: &str = "fwd_chain8";

/// How much of the whole hop the stages' sum may leave open, in per cent of
/// the whole (the ROADMAP's rule for the ledger).
const LEDGER_OPEN_PCT: f64 = 15.0;

/// How far the sum may *exceed* the whole. The sum is a bare core fed the
/// same packets, the whole has the backend dispatch and the coordinator on
/// top of that core, so the parts cannot honestly cost more than the whole:
/// this much is measurement noise, more is a ledger that counts something
/// twice.
const LEDGER_OVER_PCT: f64 = 5.0;

/// Each layer kernel runs this many times; the fastest pass is the reading,
/// as for every other timing.
const KERNEL_PASSES: usize = 5;

/// Refuses a breakdown that does not add up: if the hop ledger of a traced
/// run is open by more than the tolerance, or its parts exceed the whole,
/// says which stages went into it and fails, so that no results file is
/// written around it.
pub fn check_hop_ledger(run: &crate::report::WorkloadRun) -> Result<(), String> {
    let value = |name: &str| {
        run.readings
            .iter()
            .find(|r| r.name == name)
            .map_or(0.0, |r| r.value)
    };
    let open_by = value("emucore.hop_unattributed_share");
    if (-LEDGER_OVER_PCT..=LEDGER_OPEN_PCT).contains(&open_by) {
        return Ok(());
    }
    let mut message = format!(
        "{}: the hop ledger does not close: the stages sum to {:.1} ns of a {:.1} ns hop ({open_by:.1} % open; {LEDGER_OPEN_PCT} % open to {LEDGER_OVER_PCT} % over allowed). Stage inputs:",
        run.workload,
        value("emucore.hop_sum_ns"),
        value("emucore.hop_whole_ns"),
    );
    for stage in [
        "emucore.submit_ns_per_pkt",
        "emucore.advance_ns_per_hop",
        "routing.lookup_ns",
        "emucore.core_ingress_ns_per_pkt",
        "emucore.core_tick_ns_per_hop",
        "emucore.route_step_ns",
        "pipe.enqueue_ns",
        "util.wheel_push_ns",
        "util.wheel_pop_ns",
        "pipe.dequeue_ns",
        "emucore.tick_glue_ns",
    ] {
        message.push_str(&format!("\n  {stage} = {:.1}", value(stage)));
    }
    Err(message)
}

/// Pairs replayed through the route-lookup kernel and the hop ledger.
const LOOKUPS: usize = 200_000;

/// Packets per turn of the hop ledger (a few milliseconds a side), and the
/// turns that only warm both sides up.
const LEDGER_ROUND: usize = 4_096;
const LEDGER_WARM_ROUNDS: usize = 12;

/// Spans called `name` that are direct children of the first span called
/// `parent`, as durations in nanoseconds.
fn children_ns(spans: &[Span], parent: &str, name: &str) -> Vec<f64> {
    let Some(parent) = spans.iter().position(|s| s.name == parent) else {
        return Vec::new();
    };
    spans
        .iter()
        .filter(|s| s.parent == Some(parent) && s.name == name)
        .map(|s| s.duration_ns() as f64)
        .collect()
}

fn median_or_zero(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        median(values)
    }
}

/// The share (per cent) of every "setup" span that its named children cover.
fn setup_attributed_pct(spans: &[Span]) -> f64 {
    let own = self_times_ns(spans);
    let (mut total, mut unattributed) = (0.0, 0.0);
    for (s, &own_ns) in spans.iter().zip(&own) {
        if s.name == "setup" {
            total += s.duration_ns() as f64;
            unattributed += own_ns as f64;
        }
    }
    if total == 0.0 {
        0.0
    } else {
        100.0 * (1.0 - unattributed / total)
    }
}

/// What the window of one traced rep spent behind each call, in nanoseconds.
struct WindowCalls {
    window_ns: f64,
    submit_ns: f64,
    advance: Vec<f64>,
    generate_ns: f64,
}

impl WindowCalls {
    fn of(spans: &[Span]) -> WindowCalls {
        let total = |name: &str| children_ns(spans, "window", name).iter().sum::<f64>();
        WindowCalls {
            window_ns: durations_ns(spans, "window").iter().sum(),
            submit_ns: total("emucore.submit_batch"),
            advance: children_ns(spans, "window", "emucore.advance_into"),
            generate_ns: total("harness.generate"),
        }
    }
}

/// The fastest of [`KERNEL_PASSES`] passes of a kernel.
fn fastest(mut kernel: impl FnMut() -> Timed) -> Timed {
    (1..KERNEL_PASSES).fold(kernel(), |best, _| best.faster(kernel()))
}

/// The median over one rep's operations, then the fastest rep, in
/// microseconds; 0 for a workload without such operations.
fn fastest_median_us(reps: &[RepResult], samples: impl Fn(&RepResult) -> &[f64]) -> f64 {
    let per_rep: Vec<f64> = reps
        .iter()
        .map(&samples)
        .filter(|s| !s.is_empty())
        .map(|s| median(s) * 1e6)
        .collect();
    if per_rep.is_empty() {
        0.0
    } else {
        lowest(&per_rep)
    }
}

/// The tail of the operations of every rep pooled, in microseconds.
fn pooled_tail_us(reps: &[RepResult], samples: impl Fn(&RepResult) -> &[f64]) -> f64 {
    let pooled: Vec<f64> = reps
        .iter()
        .flat_map(|r| samples(r).iter().map(|s| s * 1e6))
        .collect();
    tail(&pooled).map_or(0.0, |(_, v)| v)
}

/// Every per-layer value this workload can measure, as `(name, value)`.
/// `traced` holds every traced rep with its spans, fastest window first;
/// `untraced` the reps of the untraced half of the pass. A timing is the
/// fastest of its samples, like the end-to-end readings.
pub fn layer_metrics(
    w: &Workload,
    target: &Target,
    seed: u64,
    traced: &[(RepResult, Vec<Span>)],
    untraced: &[RepResult],
) -> Vec<(&'static str, f64)> {
    let mut out: Vec<(&'static str, f64)> = Vec::new();
    let (first, spans) = &traced[0];
    let mean_s = |name: &str| {
        let d = durations_ns(spans, name);
        d.iter().sum::<f64>() / 1e9 / d.len().max(1) as f64
    };

    // ---- set-up phases (two builds per rep: the mean of both) ---------------
    out.push(("distill.distill_s", mean_s("distill.distill")));
    out.push(("assign.cluster_s", mean_s("assign.cluster")));
    out.push(("assign.bind_s", mean_s("assign.bind")));
    out.push(("routing.matrix_build_s", mean_s("routing.matrix_build")));
    out.push(("emucore.construct_s", mean_s("emucore.construct")));
    out.push((
        "harness.setup_attributed_share",
        setup_attributed_pct(spans),
    ));

    // ---- the timed window ------------------------------------------------------
    // Every traced rep does the same work, so packets and hops are the first
    // one's; each call's cost is its lowest total over the traced reps.
    let calls: Vec<WindowCalls> = traced.iter().map(|(_, s)| WindowCalls::of(s)).collect();
    let packets = first.window_packets.max(1) as f64;
    let hops = first.window_hops.max(1) as f64;
    let least = |f: &dyn Fn(&WindowCalls) -> f64| lowest(&calls.iter().map(f).collect::<Vec<_>>());
    let window_ns = least(&|c| c.window_ns);
    let submit_ns = least(&|c| c.submit_ns);
    let advance_ns = least(&|c| c.advance.iter().sum());
    if let Traffic::Generator { .. } = w.traffic {
        out.push(("emucore.submit_ns_per_pkt", submit_ns / packets));
        out.push(("emucore.advance_ns_per_hop", advance_ns / hops));
        out.push(("emucore.submit_share", 100.0 * submit_ns / window_ns));
        out.push(("emucore.advance_share", 100.0 * advance_ns / window_ns));
        let advance_us: Vec<f64> = calls[0].advance.iter().map(|ns| ns / 1e3).collect();
        out.push(("emucore.advance_p50_us", median_or_zero(&advance_us)));
        out.push((
            "emucore.advance_ptail_us",
            tail(&advance_us).map_or(0.0, |(_, v)| v),
        ));
        out.push((
            "emucore.wakeup_ns",
            median_or_zero(&durations_ns(spans, "emucore.next_wakeup")),
        ));
        out.push((
            "harness.gen_ns_per_pkt",
            least(&|c| c.generate_ns) / packets,
        ));
        out.push((
            "emucore.sched_err_mean_us",
            first.sched_err_ns as f64 / first.delivered.max(1) as f64 / 1e3,
        ));
    }
    let c = &first.counters;
    out.push((
        "emucore.tunnel_share",
        100.0 * c.tunnels_out as f64 / first.hops_total.max(1) as f64,
    ));
    out.push((
        "emucore.drop_share",
        100.0 * first.pipe_drops as f64 / c.packets_admitted.max(1) as f64,
    ));
    // Allocation counts come from an untraced rep: the tracer's own span
    // buffer allocates.
    let plain = &untraced[0];
    let plain_packets = plain.window_packets.max(1) as f64;
    out.push((
        "emucore.steady_allocs_per_mpkt",
        plain.window_alloc_calls as f64 * 1e6 / plain_packets,
    ));
    out.push((
        "emucore.steady_alloc_bytes_per_pkt",
        plain.window_alloc_bytes as f64 / plain_packets,
    ));
    out.push((
        "modelnet.sim_rate",
        first.window_virtual_s / (window_ns / 1e9),
    ));

    // ---- the Runner's own loop ---------------------------------------------------
    if let Traffic::Tcp { .. } = w.traffic {
        out.push(("modelnet.runner_ns_per_pkt", window_ns / packets));
        let slices = &first.window_slices_s;
        if slices.len() >= 6 {
            out.push(("modelnet.late_vs_early", slices[5] / slices[1]));
        }
        let grown = plain.window_mem_bytes.1 as f64 - plain.window_mem_bytes.0 as f64;
        out.push((
            "modelnet.mem_growth_mib_per_sim_s",
            grown / MIB / plain.window_virtual_s,
        ));
        out.push((
            "transport.retx_share",
            100.0 * first.retransmissions as f64 / packets,
        ));
    }

    // ---- control plane: whole operations from the untraced reps, their parts
    // ---- from the traced rep's spans ---------------------------------------------
    let us = |name: &str| -> Vec<f64> {
        durations_ns(spans, name)
            .iter()
            .map(|ns| ns / 1e3)
            .collect()
    };
    out.push((
        "emucore.flap_down_us",
        fastest_median_us(untraced, |r| &r.flap_down_s),
    ));
    out.push((
        "emucore.flap_up_us",
        fastest_median_us(untraced, |r| &r.flap_up_s),
    ));
    out.push((
        "emucore.flap_ptail_us",
        pooled_tail_us(untraced, |r| &r.flap_down_s),
    ));
    out.push((
        "emucore.churn_us",
        fastest_median_us(untraced, |r| &r.churn_s),
    ));
    out.push((
        "emucore.churn_ptail_us",
        pooled_tail_us(untraced, |r| &r.churn_s),
    ));
    out.push(("emucore.reroute_us", median_or_zero(&us("emucore.reroute"))));
    out.push((
        "emucore.update_attrs_us",
        median_or_zero(&us("emucore.update_pipe_attrs")),
    ));
    out.push(("routing.trees_per_flap", first.trees_per_flap));
    out.push((
        "emucore.vn_leave_us",
        median_or_zero(&us("emucore.vn_leave")),
    ));
    out.push(("emucore.vn_join_us", median_or_zero(&us("emucore.vn_join"))));
    out.push(("emucore.snapshot_ms", mean_s("emucore.snapshot") * 1e3));
    out.push((
        "emucore.snapshot_to_bytes_ms",
        mean_s("emucore.snapshot_to_bytes") * 1e3,
    ));
    out.push((
        "emucore.snapshot_from_bytes_ms",
        mean_s("emucore.snapshot_from_bytes") * 1e3,
    ));
    out.push((
        "emucore.ckpt_alloc_mib",
        plain.checkpoint_alloc_bytes as f64 / MIB,
    ));

    // ---- layer kernels -----------------------------------------------------------
    let mut plan = w.plan;
    plan.threaded = false;
    let emu = Emu::build_stepwise(target, plan, &mut Tracer::off());
    let vn_count = emu.vns().len();
    let routed = routed_indices(target, &emu);
    let links = emu.flap_candidates();
    let inputs = Inputs::generate(w, seed, vn_count, routed.as_deref(), links.len());
    // The generator, before the emulator it would have fed goes away.
    let mut generator = match w.traffic {
        Traffic::Generator { .. } => Some(Generator::new(
            w.traffic,
            inputs.pair_stream.clone(),
            emu.vns(),
            routed.clone(),
        )),
        Traffic::Tcp { .. } => None,
    };
    let pairs: Vec<(usize, usize)> = match w.traffic {
        Traffic::Tcp { .. } => inputs.flows.iter().cycle().take(LOOKUPS).copied().collect(),
        Traffic::Generator { .. } => {
            let mut stream = inputs.pair_stream.clone();
            (0..LOOKUPS)
                .map(|_| draw_pair(&mut stream, vn_count - CHURN_RESERVE, routed.as_deref()))
                .collect()
        }
    };
    let (payload, pace_ns, batch) = match w.traffic {
        Traffic::Generator {
            payload,
            pace_ns,
            batch,
        } => (payload, pace_ns, batch),
        Traffic::Tcp { .. } => (1460, 20_000, 64),
    };
    let mut routes = RouteKernel::build(&emu);
    let lookup = fastest(|| routes.lookups(&pairs));
    // One wave is the pipe transits one advance of the workload services.
    let wave = batch * (hops / packets).ceil() as usize;
    let hop_stages = || sut::kernel_hop_stages(&routes, &pairs, payload, wave, 200_000 / wave);
    let stages = (1..KERNEL_PASSES).fold(hop_stages(), |best, _| best.faster(hop_stages()));
    // The first flappable link: a workload without control cycles draws none.
    let link = links[inputs.flap_links.first().copied().unwrap_or(0)];
    let mut patch = routes.flap(&emu, &link);
    for _ in 1..KERNEL_PASSES {
        let (update_pipes, rewire) = routes.flap(&emu, &link);
        patch = (patch.0.faster(update_pipes), patch.1.faster(rewire));
    }
    let spsc = fastest(|| sut::kernel_spsc(1 << 20));
    let codec = fastest(|| sut::kernel_codec(1 << 20));
    let tcp = fastest(|| sut::kernel_tcp(20_000));

    out.push(("routing.table_build_s", routes.table_build_s));
    out.push((
        "routing.route_state_mib",
        routes.resident_bytes as f64 / MIB,
    ));
    out.push(("routing.lookup_ns", lookup.ns_per_op()));
    out.push(("routing.update_pipes_us", patch.0.ns_per_op() / 1e3));
    out.push(("routing.rewire_us", patch.1.ns_per_op() / 1e3));
    out.push(("emucore.route_step_ns", stages.route_step.ns_per_op()));
    out.push(("pipe.enqueue_ns", stages.enqueue.ns_per_op()));
    out.push(("pipe.dequeue_ns", stages.dequeue.ns_per_op()));
    out.push(("util.wheel_push_ns", stages.wheel_push.ns_per_op()));
    out.push(("util.wheel_pop_ns", stages.wheel_pop.ns_per_op()));
    out.push(("util.spsc_ns", spsc.ns_per_op()));
    // The codec kernel's operations are bytes.
    out.push((
        "util.codec_mib_per_s",
        codec.ops as f64 / MIB / codec.seconds,
    ));
    out.push(("transport.tcp_segment_ns", tcp.ns_per_op()));

    // ---- the generator alone, and the hop ledger ------------------------------------
    if let Some(generator) = generator.as_mut() {
        // A dry window against a sink that does nothing, after one that
        // sizes the generator's buffers.
        generator.dry_run(10_000);
        out.push(("harness.gen_allocs", generator.dry_run(200_000) as f64));
    }
    // One hop, whole: the window's own loop against the emulator, everything
    // behind `submit_batch` and `advance_into` per pipe transit. One hop,
    // summed: a bare core fed the same packets (ingress, with its route
    // lookup, once per packet, so a hop carries 1/route-length of it; tick
    // per transit). The two take turns, a few milliseconds each, so that
    // whatever the host does to one it does to the other, and the reading is
    // the median round of each: measured one after the other, seconds apart,
    // the same two figures sat anywhere from 15 % under to 18 % over each
    // other on a shared host. What the sum leaves over is what sits above
    // the core: backend dispatch and the multi-core coordinator. The five
    // stage kernels break the tick down further; their own remainder is the
    // tick loop's glue. A TCP workload has no generator loop to be the
    // whole; its bare core is still timed.
    let mut emu = emu;
    let mut bare = BareCore::new(&emu, &routes, payload, pace_ns, batch);
    let (mut whole, mut sum, mut ingress, mut tick) = (vec![], vec![], vec![], vec![]);
    for (round, chunk) in pairs.chunks(LEDGER_ROUND).enumerate() {
        let window = generator.as_mut().map(|g| {
            g.timed_round(&mut emu, chunk.len() as u64)
                .expect("the kernels' emulator is sequential: no worker can fail")
        });
        let (core_ingress, core_tick) = bare.round(chunk);
        // The first rounds fill queues, wheel and buffers on both sides.
        if round >= LEDGER_WARM_ROUNDS && core_tick.ops > 0 {
            whole.extend(window.map(|w| w.ns_per_op()));
            ingress.push(core_ingress.ns_per_op());
            tick.push(core_tick.ns_per_op());
            sum.push(core_ingress.seconds * 1e9 / core_tick.ops as f64 + core_tick.ns_per_op());
        }
    }
    let (sum, tick) = (median(&sum), median(&tick));
    let stage_sum: f64 = [
        stages.route_step,
        stages.enqueue,
        stages.wheel_push,
        stages.wheel_pop,
        stages.dequeue,
    ]
    .iter()
    .map(|stage| stage.ns_per_op())
    .sum();
    out.push(("emucore.core_ingress_ns_per_pkt", median(&ingress)));
    out.push(("emucore.core_tick_ns_per_hop", tick));
    out.push(("emucore.tick_glue_ns", tick - stage_sum));
    if !whole.is_empty() {
        let whole = median(&whole);
        out.push(("emucore.hop_whole_ns", whole));
        out.push(("emucore.hop_sum_ns", sum));
        out.push((
            "emucore.hop_unattributed_share",
            100.0 * (1.0 - sum / whole),
        ));
    }
    out
}

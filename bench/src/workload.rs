//! The five workloads and the seeded inputs each one feeds the emulator.
//!
//! Every workload runs the same rep (see `rep.rs`): build, warm up, a timed
//! window, checkpoints, a restore into a fresh build, a tail that proves the
//! restored run continues bit-identically, drain, checks. What differs is the
//! topology, how the pipes are spread over cores, what offers the traffic,
//! whether link flaps and VN churn are part of the work, and how much of each
//! phase there is — i.e. which layers do the work. The topology is fixed per
//! workload; `--seed` picks endpoint pairs, flow endpoints, flapped links and
//! churned VNs.

use crate::stats::InputRng;
use crate::sut::{BuildPlan, TopoSpec};

/// What offers the packets.
#[derive(Debug, Clone, Copy)]
pub enum Traffic {
    /// The benchmark's own open-loop generator, paced in *virtual* time: one
    /// UDP datagram of `payload` bytes every `pace_ns`, `batch` of them per
    /// `submit_batch` + `advance_into`. Fixed work: phase sizes are packets.
    Generator {
        payload: u32,
        pace_ns: u64,
        batch: usize,
    },
    /// A closed loop of `flows` window-limited TCP bulk senders driven by the
    /// `Runner`'s own event loop. Phase sizes are virtual milliseconds.
    Tcp { flows: usize },
}

/// Phase sizes, in the traffic's own unit (packets or virtual milliseconds).
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    pub warm: u64,
    /// The timed window's pure forwarding; 0 where the control cycles are
    /// the window.
    pub timed: u64,
    /// Traffic after the restore, on both the original and the restored run.
    pub tail: u64,
    pub checkpoints: usize,
}

/// Link flaps and VN churn against the live emulator, for the workloads whose
/// layers they exercise. One flap cycle is a link taken down and brought back
/// (two operations), one churn cycle a VN that leaves and rejoins; `gap`
/// packets of traffic follow every cycle, so each hits an emulator with
/// packets inside.
#[derive(Debug, Clone, Copy)]
pub struct Control {
    pub flap_cycles: usize,
    pub churn_cycles: usize,
    pub gap: u64,
    /// `true`: the cycles and their gaps *are* the timed window, and
    /// `hops_per_s` is what the emulator forwards while its routes are being
    /// rewritten. `false`: they follow a pure forwarding window and only the
    /// per-layer metrics time them.
    pub timed: bool,
}

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    /// One line: which layers this workload loads and why it is here.
    pub why: &'static str,
    pub topo: TopoSpec,
    /// Bandwidth-queue depth of every link; `None` keeps the generators'
    /// 50 slots. The open-loop generator offers a whole batch between two
    /// advances, so every pipe sees its arrivals in bursts: deep queues keep
    /// those bursts from tail-dropping, which would be failed operations.
    pub queue_len: Option<usize>,
    pub plan: BuildPlan,
    pub traffic: Traffic,
    pub fluid_flows: usize,
    pub sizes: Sizes,
    pub control: Option<Control>,
    /// Timed reps of a run of `RUN_SECONDS`: a fixed count, so that a faster
    /// emulator does not get more draws at its best rep than a slower one.
    /// Sized so that the run takes about that long on the baseline host.
    pub reps: usize,
}

/// VNs set aside for churn: no traffic is ever addressed to or from them, so
/// a leave can never refuse a packet.
pub const CHURN_RESERVE: usize = 8;

/// How long one run measures, and what `BENCHMARK.json` tells the driver to
/// pass as `--seconds`.
pub const RUN_SECONDS: u64 = 16;

/// Fewer reps than this cannot tell a quiet moment from a noisy one.
pub const MIN_REPS: usize = 5;

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "fwd_chain8",
        why: "8-hop routes over 4096 pipes: pipe enqueue/dequeue and the timer wheel do the work, one lookup per 8 hops",
        topo: TopoSpec::Chain { pairs: 256, hops: 8 },
        queue_len: Some(4096),
        plan: BuildPlan { cores: 1, threaded: false, multiplexed_vns: None },
        traffic: Traffic::Generator { payload: 1000, pace_ns: 20_000, batch: 64 },
        fluid_flows: 0,
        sizes: Sizes { warm: 200_000, timed: 600_000, tail: 20_000, checkpoints: 2 },
        control: None,
        reps: 12,
    },
    Workload {
        name: "fwd_star512",
        why: "2-hop routes between random pairs of 512 VNs: admission, route lookup over 30 MiB of route state and delivery dominate, the hop loop does little",
        topo: TopoSpec::Star { clients: 512 },
        queue_len: Some(4096),
        plan: BuildPlan { cores: 1, threaded: false, multiplexed_vns: None },
        traffic: Traffic::Generator { payload: 1000, pace_ns: 20_000, batch: 64 },
        fluid_flows: 0,
        sizes: Sizes { warm: 200_000, timed: 500_000, tail: 20_000, checkpoints: 2 },
        control: None,
        reps: 13,
    },
    Workload {
        name: "xcore2_ring",
        why: "2 threaded cores over a 16x16 ring: tunnel rings, the epoch barrier and coordinator commands, which no 1-core workload touches",
        topo: TopoSpec::Ring { routers: 16, clients_per_router: 16, ring_mbps: 1000, access_mbps: 100 },
        queue_len: Some(4096),
        plan: BuildPlan { cores: 2, threaded: true, multiplexed_vns: None },
        traffic: Traffic::Generator { payload: 1000, pace_ns: 20_000, batch: 256 },
        fluid_flows: 0,
        sizes: Sizes { warm: 100_000, timed: 400_000, tail: 20_480, checkpoints: 2 },
        control: Some(Control { flap_cycles: 8, churn_cycles: 32, gap: 512, timed: false }),
        reps: 11,
    },
    Workload {
        name: "tcp_ring",
        why: "200 TCP flows through Runner::run_for on the paper's 20x20 ring: transport and the driver event loop, not emucore, set the pace",
        topo: TopoSpec::Ring { routers: 20, clients_per_router: 20, ring_mbps: 20, access_mbps: 2 },
        queue_len: None,
        plan: BuildPlan { cores: 1, threaded: false, multiplexed_vns: None },
        traffic: Traffic::Tcp { flows: 200 },
        fluid_flows: 0,
        sizes: Sizes { warm: 0, timed: 6_000, tail: 500, checkpoints: 2 },
        control: None,
        reps: 15,
    },
    Workload {
        name: "ctl_live4k",
        why: "4096 VNs over 256 locations with fluid flows, flapped and churned while forwarding: route patches, tree recomputes, fluid re-solves and state serialisation, the write side of routing and emucore",
        topo: TopoSpec::Ring { routers: 32, clients_per_router: 8, ring_mbps: 1000, access_mbps: 100 },
        queue_len: Some(4096),
        plan: BuildPlan { cores: 1, threaded: false, multiplexed_vns: Some(4096) },
        traffic: Traffic::Generator { payload: 200, pace_ns: 16_384, batch: 64 },
        fluid_flows: 64,
        sizes: Sizes { warm: 20_000, timed: 0, tail: 10_000, checkpoints: 2 },
        control: Some(Control { flap_cycles: 8, churn_cycles: 128, gap: 500, timed: true }),
        reps: 12,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    /// The same workload with every phase cut to a quarter and the fewest
    /// reps a reading can rest on (`run --quick`).
    pub fn quick(mut self) -> Workload {
        let s = &mut self.sizes;
        s.warm /= 4;
        s.timed /= 4;
        s.tail /= 4;
        if let Some(c) = &mut self.control {
            c.flap_cycles = (c.flap_cycles / 4).max(2);
            c.churn_cycles = (c.churn_cycles / 4).max(11);
        }
        self.reps = MIN_REPS;
        self
    }

    /// Timed reps of a run that is to measure for `seconds`.
    pub fn reps_for(&self, seconds: f64) -> usize {
        ((self.reps as f64 * seconds / RUN_SECONDS as f64).round() as usize).max(MIN_REPS)
    }
}

/// Everything `--seed` decides, drawn before any emulator exists. Indices are
/// into the VN list in binding order; link draws are resolved against the
/// pipe graph at use.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// Seed of the per-packet endpoint-pair stream.
    pub pair_stream: InputRng,
    /// `(src, dst)` VN indices of the TCP flows.
    pub flows: Vec<(usize, usize)>,
    /// `(src, dst)` VN indices of the fluid flows.
    pub fluid: Vec<(usize, usize)>,
    /// Indices into the flap candidates, one per cycle: evenly spaced from a
    /// seeded offset, wrapping around when there are more cycles than
    /// candidates. How many distinct links are flapped, and how far apart
    /// they sit, then does not depend on the seed — route state grows with
    /// both, and `snapshot_mib` and `peak_mem_mib` are exact counts.
    pub flap_links: Vec<usize>,
    /// VN indices to churn, one per cycle, all inside the reserve.
    pub churn_vns: Vec<usize>,
}

/// Draws an ordered pair of distinct VN indices below `limit`; when the
/// topology only routes `routed` pairs, one of those in either direction.
#[inline]
pub fn draw_pair(
    rng: &mut InputRng,
    limit: usize,
    routed: Option<&[(usize, usize)]>,
) -> (usize, usize) {
    if let Some(routed) = routed {
        let draw = rng.next_u64();
        let (a, b) = routed[(draw >> 1) as usize % routed.len()];
        return if draw & 1 == 0 { (a, b) } else { (b, a) };
    }
    let src = rng.below(limit as u64) as usize;
    let mut dst = rng.below(limit as u64 - 1) as usize;
    if dst >= src {
        dst += 1;
    }
    (src, dst)
}

/// Draws a TCP flow that runs clockwise round a ring of `routers` routers
/// with `per_router` clients each: an even-numbered client as sender, an
/// odd-numbered one 1 to `routers/2 - 1` routers further on as receiver.
/// Every link then carries data in one direction only and no client both
/// sends and receives, which is the traffic the reference simulator's
/// fair-share model (one capacity per link, whatever the direction) is exact
/// for — `model_err_pct` compares against it.
pub fn draw_clockwise_flow(
    rng: &mut InputRng,
    routers: usize,
    per_router: usize,
    limit: usize,
) -> (usize, usize) {
    loop {
        let from = rng.below(routers as u64) as usize;
        let ahead = 1 + rng.below((routers / 2 - 1) as u64) as usize;
        let to = (from + ahead) % routers;
        let src = from * per_router + 2 * rng.below(per_router as u64 / 2) as usize;
        let dst = to * per_router + 2 * rng.below(per_router as u64 / 2) as usize + 1;
        if src < limit && dst < limit {
            return (src, dst);
        }
    }
}

impl Inputs {
    /// `vn_count` VNs are bound; traffic uses the first `vn_count -
    /// CHURN_RESERVE` of them (or the `routed` pairs), churn the rest;
    /// `links` links may be flapped.
    pub fn generate(
        w: &Workload,
        seed: u64,
        vn_count: usize,
        routed: Option<&[(usize, usize)]>,
        links: usize,
    ) -> Inputs {
        let limit = vn_count - CHURN_RESERVE;
        let mut rng = InputRng::new(seed, 1);
        let flows = match w.traffic {
            Traffic::Tcp { flows } => {
                let TopoSpec::Ring {
                    routers,
                    clients_per_router,
                    ..
                } = w.topo
                else {
                    panic!("TCP workloads run on a ring");
                };
                (0..flows)
                    .map(|_| draw_clockwise_flow(&mut rng, routers, clients_per_router, limit))
                    .collect()
            }
            Traffic::Generator { .. } => Vec::new(),
        };
        let fluid = (0..w.fluid_flows)
            .map(|_| draw_pair(&mut rng, limit, routed))
            .collect();
        // Evenly spaced from a seeded offset: on a symmetric topology every
        // seed then flaps a rotation of the same set.
        let (flap_cycles, churn_cycles) = w
            .control
            .map_or((0, 0), |c| (c.flap_cycles, c.churn_cycles));
        let offset = rng.below(links as u64) as usize;
        let stride = (links / flap_cycles.max(1)).max(1);
        let flap_links = (0..flap_cycles)
            .map(|i| (offset + i * stride) % links)
            .collect();
        let churn_vns = (0..churn_cycles)
            .map(|_| limit + rng.below(CHURN_RESERVE as u64) as usize)
            .collect();
        Inputs {
            pair_stream: InputRng::new(seed, 2),
            flows,
            fluid,
            flap_links,
            churn_vns,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_repeat_for_a_seed_and_differ_across_seeds() {
        let w = find("tcp_ring").unwrap();
        let a = Inputs::generate(w, 1, 400, None, 20);
        let b = Inputs::generate(w, 1, 400, None, 20);
        let c = Inputs::generate(w, 2, 400, None, 20);
        assert_eq!(a.flows, b.flows);
        assert_eq!(a.flap_links, b.flap_links);
        assert_ne!(a.flows, c.flows);
        let w = find("ctl_live4k").unwrap();
        assert_ne!(
            Inputs::generate(w, 1, 400, None, 20).churn_vns,
            Inputs::generate(w, 2, 400, None, 20).churn_vns
        );
    }

    #[test]
    fn traffic_never_touches_the_churn_reserve_and_pairs_are_distinct() {
        let w = find("ctl_live4k").unwrap();
        let inputs = Inputs::generate(w, 3, 1000, None, 32);
        let mut stream = inputs.pair_stream.clone();
        for _ in 0..10_000 {
            let (s, d) = draw_pair(&mut stream, 1000 - CHURN_RESERVE, None);
            assert!(s != d && s < 992 && d < 992);
        }
        assert!(inputs
            .fluid
            .iter()
            .all(|&(s, d)| s != d && s < 992 && d < 992));
        assert!(inputs.churn_vns.iter().all(|&v| (992..1000).contains(&v)));
        // More cycles than links: every link is flapped, none more than once
        // more often than another.
        let w = Workload {
            control: Some(Control {
                flap_cycles: 40,
                ..w.control.unwrap()
            }),
            ..*w
        };
        let inputs = Inputs::generate(&w, 3, 1000, None, 32);
        let mut count = [0usize; 32];
        inputs.flap_links.iter().for_each(|&l| count[l] += 1);
        assert!(count.iter().all(|&c| c == 1 || c == 2));
    }

    #[test]
    fn tcp_flows_run_clockwise_between_senders_and_receivers() {
        let mut rng = InputRng::new(4, 4);
        for _ in 0..2_000 {
            let (src, dst) = draw_clockwise_flow(&mut rng, 20, 20, 392);
            assert!(src < 392 && dst < 392 && src % 2 == 0 && dst % 2 == 1);
            let ahead = (dst / 20 + 20 - src / 20) % 20;
            assert!((1..=9).contains(&ahead), "{src} -> {dst}");
        }
    }

    #[test]
    fn routed_pairs_are_used_in_both_directions_only() {
        let routed = [(0usize, 1usize), (2, 3)];
        let mut rng = InputRng::new(5, 5);
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..200 {
            seen.insert(draw_pair(&mut rng, 4, Some(&routed)));
        }
        let want: std::collections::BTreeSet<_> =
            [(0, 1), (1, 0), (2, 3), (3, 2)].into_iter().collect();
        assert_eq!(seen, want);
    }

    #[test]
    fn names_are_unique_and_every_why_is_one_line() {
        for (i, w) in WORKLOADS.iter().enumerate() {
            assert!(WORKLOADS[i + 1..].iter().all(|o| o.name != w.name));
            assert!(!w.why.contains('\n') && w.why.len() <= 200, "{}", w.name);
        }
    }

    #[test]
    fn every_workload_has_exactly_one_kind_of_timed_window() {
        for w in &WORKLOADS {
            let control_is_window = w.control.is_some_and(|c| c.timed);
            assert_eq!(control_is_window, w.sizes.timed == 0, "{}", w.name);
            assert!(w.reps >= MIN_REPS && w.quick().reps_for(2.0) == MIN_REPS);
            assert_eq!(w.reps_for(RUN_SECONDS as f64), w.reps);
        }
    }
}

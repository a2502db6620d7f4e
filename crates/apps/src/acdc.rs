//! ACDC: a two-metric adaptive application-layer overlay (§5.3, Figure 12).
//!
//! ACDC builds the lowest-*cost* overlay distribution tree that still meets a
//! target end-to-end *delay* from the root. Cost and delay are independent
//! metrics of the underlying IP network; nodes probe a logarithmic-size set
//! of candidate parents, learn each candidate's cost and delay to the root,
//! and re-parent when the delay target is violated (delay repair) or when a
//! cheaper parent still meets the target (cost optimisation). The Figure 12
//! experiment perturbs IP link delays mid-run and watches the overlay repair
//! itself, then re-optimise cost once conditions subside.
//!
//! Cost between node pairs is supplied at construction as an oracle matrix
//! (computed off-line from the IP topology's per-link costs, exactly as the
//! paper assigns link costs with GT-ITM); delay is *measured* through the
//! emulated network with probe round trips, so injected delay changes are
//! observed the same way the real system would observe them.

use std::any::Any;
use std::collections::HashMap;

use mn_edge::{AppCtx, Application, Message};
use mn_packet::VnId;
use mn_util::rngs::derived_rng;
use mn_util::{SimDuration, SimTime};

/// Configuration of one ACDC overlay node.
#[derive(Debug, Clone)]
pub struct AcdcConfig {
    /// All overlay members (the 120 participants in the paper's run).
    pub members: Vec<VnId>,
    /// The root of the distribution tree.
    pub root: VnId,
    /// Target maximum delay from the root, in seconds (1.5 s in the paper).
    pub delay_target_s: f64,
    /// Period between adaptation rounds.
    pub probe_period: SimDuration,
    /// Number of candidate parents probed each round (O(log n)).
    pub probe_fanout: usize,
    /// Cost oracle: `cost[i][j]` is the IP-path cost between members `i` and
    /// `j` (indexed by position in `members`).
    pub cost: Vec<Vec<f64>>,
    /// RNG seed for candidate selection.
    pub seed: u64,
}

impl AcdcConfig {
    fn index_of(&self, vn: VnId) -> Option<usize> {
        self.members.iter().position(|&m| m == vn)
    }

    fn cost_between(&self, a: VnId, b: VnId) -> f64 {
        match (self.index_of(a), self.index_of(b)) {
            (Some(i), Some(j)) => self.cost[i][j],
            _ => f64::INFINITY,
        }
    }
}

/// Overlay protocol messages.
#[derive(Debug, Clone, Copy)]
enum AcdcMessage {
    /// Measure the RTT to a candidate and learn its state.
    Probe { nonce: u64 },
    /// Probe answer: the responder's current delay to the root (seconds) and
    /// whether it is attached to the tree at all.
    ProbeReply {
        nonce: u64,
        delay_to_root_s: f64,
        attached: bool,
        depth: u32,
    },
}

const PROBE_BYTES: u32 = 120;
const PROBE_REPLY_BYTES: u32 = 140;

/// Timer tokens.
const TIMER_ROUND: u64 = 1;

/// One ACDC overlay node.
pub struct AcdcNode {
    me: VnId,
    config: AcdcConfig,
    /// Current parent (None for the root or while detached).
    parent: Option<VnId>,
    /// Measured one-way delay to the root through the current parent,
    /// in seconds.
    delay_to_root_s: f64,
    /// Depth in the tree (root = 0).
    depth: u32,
    /// Outstanding probes: nonce → (candidate, sent_at).
    outstanding: HashMap<u64, (VnId, SimTime)>,
    /// Results gathered in the current round: candidate → (rtt_s, reply).
    round_results: HashMap<VnId, (f64, f64, bool, u32)>,
    next_nonce: u64,
    parent_switches: u64,
    rng: rand::rngs::StdRng,
}

impl AcdcNode {
    /// Creates an overlay node.
    pub fn new(me: VnId, config: AcdcConfig) -> Self {
        let is_root = me == config.root;
        let seed = config.seed ^ (me.0 as u64);
        AcdcNode {
            me,
            config,
            parent: None,
            delay_to_root_s: if is_root { 0.0 } else { f64::INFINITY },
            depth: if is_root { 0 } else { u32::MAX },
            outstanding: HashMap::new(),
            round_results: HashMap::new(),
            next_nonce: 0,
            parent_switches: 0,
            rng: derived_rng(seed, 0xACDC),
        }
    }

    /// The node's current parent in the tree.
    pub fn parent(&self) -> Option<VnId> {
        self.parent
    }

    /// The node's measured delay to the root, in seconds
    /// (infinite while detached).
    pub fn delay_to_root_s(&self) -> f64 {
        self.delay_to_root_s
    }

    /// Returns `true` once the node has joined the tree (the root always is).
    pub fn is_attached(&self) -> bool {
        self.me == self.config.root || self.parent.is_some()
    }

    /// The cost of the overlay edge to the current parent, from the oracle.
    pub fn parent_cost(&self) -> f64 {
        match self.parent {
            Some(p) => self.config.cost_between(self.me, p),
            None => 0.0,
        }
    }

    /// Number of times this node changed parent.
    pub fn parent_switches(&self) -> u64 {
        self.parent_switches
    }

    fn is_root(&self) -> bool {
        self.me == self.config.root
    }

    fn pick_candidates(&mut self) -> Vec<VnId> {
        use rand::seq::SliceRandom;
        let mut candidates: Vec<VnId> = self
            .config
            .members
            .iter()
            .copied()
            .filter(|&m| m != self.me && Some(m) != self.parent)
            .collect();
        candidates.shuffle(&mut self.rng);
        candidates.truncate(self.config.probe_fanout);
        // Always keep the root in the candidate mix so a detached node can
        // join even with an unlucky shuffle.
        if !candidates.contains(&self.config.root) && self.config.root != self.me {
            candidates.push(self.config.root);
        }
        candidates
    }

    fn start_round(&mut self, ctx: &mut AppCtx) {
        self.round_results.clear();
        // Probe the current parent too, to refresh our own delay estimate.
        let mut targets = self.pick_candidates();
        if let Some(p) = self.parent {
            targets.push(p);
        }
        for candidate in targets {
            let nonce = self.next_nonce;
            self.next_nonce += 1;
            self.outstanding.insert(nonce, (candidate, ctx.now()));
            ctx.send(
                candidate,
                Message::new(PROBE_BYTES, AcdcMessage::Probe { nonce }),
            );
        }
        ctx.set_timer(self.config.probe_period, TIMER_ROUND);
    }

    /// Evaluates the gathered probe results and switches parent if that
    /// improves the (delay, cost) objective.
    fn adapt(&mut self, ctx: &mut AppCtx) {
        if self.is_root() {
            self.delay_to_root_s = 0.0;
            self.depth = 0;
            return;
        }
        let target = self.config.delay_target_s;

        // Refresh our own estimate through the current parent first.
        if let Some(p) = self.parent {
            if let Some(&(rtt, parent_delay, attached, depth)) = self.round_results.get(&p) {
                if attached {
                    self.delay_to_root_s = parent_delay + rtt / 2.0;
                    self.depth = depth.saturating_add(1);
                } else {
                    // Parent fell off the tree: detach.
                    self.parent = None;
                    self.delay_to_root_s = f64::INFINITY;
                }
            }
        }

        // Candidate evaluation: delay through candidate = its delay to root +
        // half the measured RTT; cost = oracle cost of the overlay edge.
        let current_cost = self.parent_cost();
        let current_delay = self.delay_to_root_s;
        let mut best: Option<(VnId, f64, f64)> = None;
        for (&candidate, &(rtt, cand_delay, attached, depth)) in &self.round_results {
            if !attached || Some(candidate) == self.parent {
                continue;
            }
            // Loop prevention: never pick a candidate deeper than us unless we
            // are detached (depth comparison keeps the structure a tree).
            if self.parent.is_some() && depth >= self.depth {
                continue;
            }
            let delay = cand_delay + rtt / 2.0;
            let cost = self.config.cost_between(self.me, candidate);
            let better = match (self.parent, best) {
                (None, None) => true,
                (None, Some((_, bd, _))) => delay < bd,
                (Some(_), _) => {
                    let meets = delay <= target;
                    let current_meets = current_delay <= target;
                    let candidate_beats_best = match best {
                        None => true,
                        Some((_, bd, bc)) => {
                            if current_meets {
                                cost < bc || (cost == bc && delay < bd)
                            } else {
                                delay < bd
                            }
                        }
                    };
                    if current_meets {
                        // Only switch for a cheaper edge that still meets the
                        // delay target.
                        meets && cost < current_cost && candidate_beats_best
                    } else {
                        // Delay repair: take the lowest-delay candidate.
                        delay < current_delay && candidate_beats_best
                    }
                }
            };
            if better {
                best = Some((candidate, delay, cost));
            }
        }
        if let Some((candidate, delay, _)) = best {
            self.parent = Some(candidate);
            self.delay_to_root_s = delay;
            self.depth = self
                .round_results
                .get(&candidate)
                .map(|&(_, _, _, d)| d.saturating_add(1))
                .unwrap_or(u32::MAX);
            self.parent_switches += 1;
            ctx.record("acdc_parent_switches", 1.0);
        }
        ctx.record("acdc_delay_to_root_s", self.delay_to_root_s.min(1e6));
    }
}

impl Application for AcdcNode {
    fn on_start(&mut self, ctx: &mut AppCtx) {
        if self.is_root() {
            self.delay_to_root_s = 0.0;
            self.depth = 0;
        }
        // Stagger the first round so nodes do not probe in lock step.
        let jitter = SimDuration::from_millis_f64(
            (self.me.0 as f64 % 97.0) / 97.0 * self.config.probe_period.as_millis_f64(),
        );
        ctx.set_timer(jitter, TIMER_ROUND);
    }

    fn on_message(&mut self, ctx: &mut AppCtx, from: VnId, message: Message) {
        let Some(msg) = message.body_as::<AcdcMessage>().copied() else {
            return;
        };
        match msg {
            AcdcMessage::Probe { nonce } => {
                ctx.send(
                    from,
                    Message::new(
                        PROBE_REPLY_BYTES,
                        AcdcMessage::ProbeReply {
                            nonce,
                            delay_to_root_s: self.delay_to_root_s,
                            attached: self.is_attached(),
                            depth: self.depth,
                        },
                    ),
                );
            }
            AcdcMessage::ProbeReply {
                nonce,
                delay_to_root_s,
                attached,
                depth,
            } => {
                if let Some((candidate, sent_at)) = self.outstanding.remove(&nonce) {
                    let rtt = (ctx.now() - sent_at).as_secs_f64();
                    self.round_results
                        .insert(candidate, (rtt, delay_to_root_s, attached, depth));
                }
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut AppCtx, token: u64) {
        if token == TIMER_ROUND {
            // Evaluate what last round's probes found, then start a new round.
            self.adapt(ctx);
            self.start_round(ctx);
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

/// Off-line helpers the Figure 12 harness uses to summarise the overlay.
pub mod summary {
    use super::*;

    /// The total cost of the current overlay tree (sum of every node's edge
    /// to its parent) given read access to every node.
    pub fn tree_cost<'a>(nodes: impl Iterator<Item = &'a AcdcNode>) -> f64 {
        nodes.map(|n| n.parent_cost()).sum()
    }

    /// The worst delay to the root among attached nodes, in seconds, and the
    /// number of attached nodes.
    pub fn max_delay<'a>(nodes: impl Iterator<Item = &'a AcdcNode>) -> (f64, usize) {
        let mut max = 0.0f64;
        let mut attached = 0;
        for n in nodes {
            if n.is_attached() && n.delay_to_root_s().is_finite() {
                attached += 1;
                max = max.max(n.delay_to_root_s());
            }
        }
        (max, attached)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config(n: u32) -> AcdcConfig {
        let members: Vec<VnId> = (0..n).map(VnId).collect();
        // Simple symmetric cost: |i - j|.
        let cost = (0..n)
            .map(|i| (0..n).map(|j| (i as f64 - j as f64).abs()).collect())
            .collect();
        AcdcConfig {
            members,
            root: VnId(0),
            delay_target_s: 1.5,
            probe_period: SimDuration::from_secs(5),
            probe_fanout: 3,
            cost,
            seed: 9,
        }
    }

    #[test]
    fn root_is_attached_with_zero_delay() {
        let node = AcdcNode::new(VnId(0), config(8));
        assert!(node.is_attached());
        assert_eq!(node.delay_to_root_s(), 0.0);
        assert_eq!(node.parent(), None);
        assert_eq!(node.parent_cost(), 0.0);
    }

    #[test]
    fn probe_gets_a_reply_with_state() {
        let mut root = AcdcNode::new(VnId(0), config(8));
        let mut ctx = AppCtx::new(SimTime::from_millis(5));
        root.on_message(
            &mut ctx,
            VnId(3),
            Message::new(PROBE_BYTES, AcdcMessage::Probe { nonce: 42 }),
        );
        let actions = ctx.into_actions();
        match &actions[0] {
            mn_edge::AppAction::Send { to, message } => {
                assert_eq!(*to, VnId(3));
                match message.body_as::<AcdcMessage>() {
                    Some(AcdcMessage::ProbeReply {
                        nonce,
                        attached,
                        delay_to_root_s,
                        ..
                    }) => {
                        assert_eq!(*nonce, 42);
                        assert!(*attached);
                        assert_eq!(*delay_to_root_s, 0.0);
                    }
                    other => panic!("unexpected reply {other:?}"),
                }
            }
            other => panic!("unexpected action {other:?}"),
        }
    }

    #[test]
    fn detached_node_joins_through_the_root() {
        let mut node = AcdcNode::new(VnId(5), config(8));
        assert!(!node.is_attached());
        // Simulate a completed probe of the root with a 100 ms RTT.
        node.round_results.insert(VnId(0), (0.1, 0.0, true, 0));
        let mut ctx = AppCtx::new(SimTime::from_secs(1));
        node.adapt(&mut ctx);
        assert_eq!(node.parent(), Some(VnId(0)));
        assert!((node.delay_to_root_s() - 0.05).abs() < 1e-9);
        assert_eq!(node.parent_switches(), 1);
    }

    #[test]
    fn attached_node_switches_to_cheaper_parent_only_within_target() {
        let mut node = AcdcNode::new(VnId(5), config(8));
        // Attach through the root (cost |5-0| = 5).
        node.round_results.insert(VnId(0), (0.2, 0.0, true, 0));
        let mut ctx = AppCtx::new(SimTime::from_secs(1));
        node.adapt(&mut ctx);
        assert_eq!(node.parent(), Some(VnId(0)));
        // Candidate VnId(4): cost 1, delay well within target, shallower
        // depth requirement satisfied (depth 0 < our depth 1 is false — it
        // must be strictly shallower than us, and our depth is 1, so only
        // depth-0 candidates qualify; use the root's sibling at depth 0).
        node.round_results.clear();
        node.round_results
            .insert(node.parent.unwrap(), (0.2, 0.0, true, 0));
        node.round_results.insert(VnId(4), (0.1, 0.05, true, 0));
        let mut ctx = AppCtx::new(SimTime::from_secs(6));
        node.adapt(&mut ctx);
        assert_eq!(
            node.parent(),
            Some(VnId(4)),
            "cheaper parent within target wins"
        );
        // A cheaper candidate that would violate the delay target is refused.
        node.round_results.clear();
        node.round_results.insert(VnId(4), (0.1, 0.05, true, 0));
        node.round_results.insert(VnId(6), (0.1, 5.0, true, 0));
        let mut ctx = AppCtx::new(SimTime::from_secs(11));
        node.adapt(&mut ctx);
        assert_eq!(node.parent(), Some(VnId(4)));
    }

    #[test]
    fn delay_violation_triggers_repair_even_at_higher_cost() {
        let mut node = AcdcNode::new(VnId(5), config(8));
        node.round_results.insert(VnId(4), (0.2, 0.0, true, 0));
        let mut ctx = AppCtx::new(SimTime::from_secs(1));
        node.adapt(&mut ctx);
        assert_eq!(node.parent(), Some(VnId(4)));
        // The parent's delay to root balloons past the target; a higher-cost
        // but faster candidate exists.
        node.round_results.clear();
        node.round_results.insert(VnId(4), (0.2, 3.0, true, 0));
        node.round_results.insert(VnId(1), (0.2, 0.0, true, 0));
        let mut ctx = AppCtx::new(SimTime::from_secs(6));
        node.adapt(&mut ctx);
        assert_eq!(node.parent(), Some(VnId(1)), "delay repair overrides cost");
    }

    #[test]
    fn summary_helpers_aggregate() {
        let cfg = config(4);
        let mut nodes: Vec<AcdcNode> = (0..4)
            .map(|i| AcdcNode::new(VnId(i), cfg.clone()))
            .collect();
        // Attach 1..3 directly to the root by hand.
        for (i, node) in nodes.iter_mut().enumerate().skip(1) {
            node.parent = Some(VnId(0));
            node.delay_to_root_s = 0.1 * i as f64;
        }
        let cost = summary::tree_cost(nodes.iter());
        assert_eq!(cost, 1.0 + 2.0 + 3.0);
        let (max_delay, attached) = summary::max_delay(nodes.iter());
        assert_eq!(attached, 4);
        assert!((max_delay - 0.3).abs() < 1e-12);
    }

    #[test]
    fn start_round_probes_a_bounded_candidate_set() {
        let mut node = AcdcNode::new(VnId(3), config(32));
        let mut ctx = AppCtx::new(SimTime::ZERO);
        node.start_round(&mut ctx);
        let sends = ctx
            .into_actions()
            .iter()
            .filter(|a| matches!(a, mn_edge::AppAction::Send { .. }))
            .count();
        // fanout + root (+ parent when attached).
        assert!(sends <= node.config.probe_fanout + 2);
        assert!(sends >= node.config.probe_fanout);
    }
}

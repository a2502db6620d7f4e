//! A gnutella-style flooding overlay.
//!
//! The largest single experiment reported in the paper evaluated the
//! evolution and connectivity of a 10,000-node network of unmodified gnutella
//! clients by mapping 100 VNs onto each of 100 edge machines. This module
//! provides the equivalent workload: each node maintains a small set of
//! overlay neighbours, floods PING messages with a TTL, learns about other
//! peers from the PONGs that come back, and the experiment harness measures
//! how much of the network each node can reach.

use std::any::Any;
use std::collections::HashSet;

use mn_edge::{AppCtx, Application, Message};
use mn_packet::VnId;
use mn_util::SimDuration;

/// Configuration of one gnutella node.
#[derive(Debug, Clone)]
pub struct GnutellaConfig {
    /// Initial neighbour set (bootstrap peers).
    pub neighbours: Vec<VnId>,
    /// TTL of flooded PINGs.
    pub ttl: u8,
    /// Period between PING floods.
    pub ping_period: SimDuration,
    /// Maximum neighbours to keep (new peers learned from PONGs are added up
    /// to this bound).
    pub max_neighbours: usize,
}

impl Default for GnutellaConfig {
    fn default() -> Self {
        GnutellaConfig {
            neighbours: Vec::new(),
            ttl: 7,
            ping_period: SimDuration::from_secs(10),
            max_neighbours: 8,
        }
    }
}

/// Gnutella protocol messages.
#[derive(Debug, Clone, Copy)]
enum GnutellaMessage {
    /// A flooded liveness probe.
    Ping { origin: VnId, id: u64, ttl: u8 },
    /// The answer, routed directly back to the origin.
    Pong {
        responder: VnId,
        #[allow(dead_code)]
        id: u64,
    },
}

const PING_BYTES: u32 = 83;
const PONG_BYTES: u32 = 97;

const TIMER_PING: u64 = 1;

/// One gnutella node.
pub struct GnutellaNode {
    me: VnId,
    config: GnutellaConfig,
    neighbours: Vec<VnId>,
    /// Peers heard from (via PONG) — the node's view of the network.
    known_peers: HashSet<VnId>,
    /// Flood duplicate suppression: (origin, id) pairs already forwarded.
    seen: HashSet<(VnId, u64)>,
    next_ping_id: u64,
    pings_forwarded: u64,
    pongs_received: u64,
}

impl GnutellaNode {
    /// Creates a node with the given bootstrap configuration.
    pub fn new(me: VnId, config: GnutellaConfig) -> Self {
        GnutellaNode {
            me,
            neighbours: config.neighbours.clone(),
            config,
            known_peers: HashSet::new(),
            seen: HashSet::new(),
            next_ping_id: 0,
            pings_forwarded: 0,
            pongs_received: 0,
        }
    }

    /// Peers this node has heard from.
    pub fn known_peers(&self) -> usize {
        self.known_peers.len()
    }

    /// PINGs forwarded on behalf of other nodes.
    pub fn pings_forwarded(&self) -> u64 {
        self.pings_forwarded
    }

    /// PONGs received for this node's own floods.
    pub fn pongs_received(&self) -> u64 {
        self.pongs_received
    }

    fn add_peer(&mut self, peer: VnId) {
        if peer == self.me {
            return;
        }
        self.known_peers.insert(peer);
        if self.neighbours.len() < self.config.max_neighbours && !self.neighbours.contains(&peer) {
            self.neighbours.push(peer);
        }
    }

    fn flood(&mut self, ctx: &mut AppCtx, origin: VnId, id: u64, ttl: u8, skip: Option<VnId>) {
        if ttl == 0 {
            return;
        }
        for &n in &self.neighbours {
            if Some(n) == skip || n == origin {
                continue;
            }
            ctx.send(
                n,
                Message::new(PING_BYTES, GnutellaMessage::Ping { origin, id, ttl }),
            );
        }
    }
}

impl Application for GnutellaNode {
    fn on_start(&mut self, ctx: &mut AppCtx) {
        // Stagger the first flood to avoid synchronised bursts.
        let jitter = SimDuration::from_millis((self.me.0 as u64 * 37) % 1000);
        ctx.set_timer(jitter, TIMER_PING);
    }

    fn on_message(&mut self, ctx: &mut AppCtx, from: VnId, message: Message) {
        let Some(msg) = message.body_as::<GnutellaMessage>().copied() else {
            return;
        };
        match msg {
            GnutellaMessage::Ping { origin, id, ttl } => {
                self.add_peer(from);
                if origin == self.me || !self.seen.insert((origin, id)) {
                    return;
                }
                // Answer the origin directly and keep flooding.
                ctx.send(
                    origin,
                    Message::new(
                        PONG_BYTES,
                        GnutellaMessage::Pong {
                            responder: self.me,
                            id,
                        },
                    ),
                );
                self.pings_forwarded += 1;
                self.flood(ctx, origin, id, ttl.saturating_sub(1), Some(from));
            }
            GnutellaMessage::Pong { responder, id: _ } => {
                self.pongs_received += 1;
                self.add_peer(responder);
                ctx.record("gnutella_known_peers", self.known_peers.len() as f64);
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut AppCtx, token: u64) {
        if token == TIMER_PING {
            let id = self.next_ping_id;
            self.next_ping_id += 1;
            self.seen.insert((self.me, id));
            self.flood(ctx, self.me, id, self.config.ttl, None);
            ctx.set_timer(self.config.ping_period, TIMER_PING);
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mn_util::SimTime;

    fn node(me: u32, neighbours: &[u32]) -> GnutellaNode {
        GnutellaNode::new(
            VnId(me),
            GnutellaConfig {
                neighbours: neighbours.iter().copied().map(VnId).collect(),
                ..GnutellaConfig::default()
            },
        )
    }

    #[test]
    fn ping_floods_to_all_neighbours_except_sender() {
        let mut n = node(1, &[2, 3, 4]);
        let mut ctx = AppCtx::new(SimTime::ZERO);
        n.on_message(
            &mut ctx,
            VnId(2),
            Message::new(
                PING_BYTES,
                GnutellaMessage::Ping {
                    origin: VnId(9),
                    id: 5,
                    ttl: 3,
                },
            ),
        );
        let sends: Vec<VnId> = ctx
            .into_actions()
            .into_iter()
            .filter_map(|a| match a {
                mn_edge::AppAction::Send { to, .. } => Some(to),
                _ => None,
            })
            .collect();
        // One PONG to the origin + forwards to 3 and 4 (not back to 2).
        assert!(sends.contains(&VnId(9)));
        assert!(sends.contains(&VnId(3)) && sends.contains(&VnId(4)));
        assert!(!sends.iter().filter(|&&v| v == VnId(2)).any(|_| true));
        assert_eq!(n.pings_forwarded(), 1);
    }

    #[test]
    fn duplicate_pings_are_suppressed() {
        let mut n = node(1, &[2, 3]);
        let ping = GnutellaMessage::Ping {
            origin: VnId(9),
            id: 5,
            ttl: 3,
        };
        let mut ctx = AppCtx::new(SimTime::ZERO);
        n.on_message(&mut ctx, VnId(2), Message::new(PING_BYTES, ping));
        let first = ctx.action_count();
        let mut ctx2 = AppCtx::new(SimTime::from_millis(1));
        n.on_message(&mut ctx2, VnId(3), Message::new(PING_BYTES, ping));
        assert!(first > 0);
        assert_eq!(
            ctx2.action_count(),
            0,
            "second copy of the flood is dropped"
        );
    }

    #[test]
    fn ttl_zero_stops_the_flood() {
        let mut n = node(1, &[2, 3]);
        let mut ctx = AppCtx::new(SimTime::ZERO);
        n.on_message(
            &mut ctx,
            VnId(2),
            Message::new(
                PING_BYTES,
                GnutellaMessage::Ping {
                    origin: VnId(9),
                    id: 1,
                    ttl: 1,
                },
            ),
        );
        let sends: Vec<VnId> = ctx
            .into_actions()
            .into_iter()
            .filter_map(|a| match a {
                mn_edge::AppAction::Send { to, .. } => Some(to),
                _ => None,
            })
            .collect();
        // Only the PONG goes out; the decremented TTL of 0 stops forwarding.
        assert_eq!(sends, vec![VnId(9)]);
    }

    #[test]
    fn pongs_grow_the_known_peer_set_and_neighbours() {
        let mut n = node(1, &[2]);
        for peer in 3..9 {
            let mut ctx = AppCtx::new(SimTime::ZERO);
            n.on_message(
                &mut ctx,
                VnId(peer),
                Message::new(
                    PONG_BYTES,
                    GnutellaMessage::Pong {
                        responder: VnId(peer),
                        id: 0,
                    },
                ),
            );
        }
        assert_eq!(n.known_peers(), 6);
        assert_eq!(n.pongs_received(), 6);
    }

    #[test]
    fn timer_floods_own_ping() {
        let mut n = node(1, &[2, 3, 4]);
        let mut ctx = AppCtx::new(SimTime::from_secs(1));
        n.on_timer(&mut ctx, TIMER_PING);
        let actions = ctx.into_actions();
        let sends = actions
            .iter()
            .filter(|a| matches!(a, mn_edge::AppAction::Send { .. }))
            .count();
        assert_eq!(sends, 3);
        // And the next round is armed.
        assert!(actions.iter().any(|a| matches!(
            a,
            mn_edge::AppAction::SetTimer {
                token: TIMER_PING,
                ..
            }
        )));
    }
}

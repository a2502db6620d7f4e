//! CFS: a cooperative block store over Chord, with prefetching.
//!
//! The paper reproduces the CFS paper's experiments: a 1 MB file is split
//! into 8 KB blocks striped across the participating nodes (each block lives
//! on the Chord successor of its identifier); a client downloads the file
//! while keeping up to a *prefetch window* of block fetches outstanding, and
//! the download speed as a function of that window is the published result
//! (CFS Figures 6–7, reproduced as this repository's Figures 7–8
//! experiments). Lookups are routed through Chord finger tables, so both the
//! lookup and the fetch cross the emulated wide-area network.

use std::any::Any;
use std::collections::HashMap;

use mn_edge::{AppCtx, Application, Message};
use mn_packet::VnId;
use mn_util::SimTime;

use crate::chord::{ChordId, ChordRing};

/// Protocol messages exchanged by CFS nodes.
#[derive(Debug, Clone)]
pub enum CfsMessage {
    /// A Chord lookup for the owner of `key`, routed hop by hop; the answer
    /// goes directly back to `origin`.
    Lookup {
        /// The block identifier being resolved.
        key: ChordId,
        /// Block index (carried for the client's bookkeeping).
        block: u64,
        /// Node that issued the lookup.
        origin: VnId,
    },
    /// The lookup answer: `owner` stores the block.
    LookupResult {
        /// Block index.
        block: u64,
        /// Owning node.
        owner: VnId,
    },
    /// A request for the contents of a block.
    BlockRequest {
        /// Block index.
        block: u64,
    },
    /// The block contents (represented only by their size).
    BlockReply {
        /// Block index.
        block: u64,
        /// Payload bytes.
        bytes: u32,
    },
}

/// Wire sizes of the control messages (bytes).
const LOOKUP_BYTES: u32 = 60;
const LOOKUP_RESULT_BYTES: u32 = 48;
const BLOCK_REQUEST_BYTES: u32 = 44;
const BLOCK_HEADER_BYTES: u32 = 64;

/// Configuration of a CFS download experiment.
#[derive(Debug, Clone, Copy)]
pub struct CfsConfig {
    /// Name of the file (determines block placement).
    pub file_seed: u64,
    /// Total file size in bytes (the paper uses 1 MB).
    pub file_bytes: u64,
    /// Block size in bytes (CFS uses 8 KB).
    pub block_bytes: u32,
    /// Prefetch window in bytes: the maximum amount of block data allowed to
    /// be outstanding (looked-up or requested but not yet received).
    pub prefetch_window: u64,
}

impl Default for CfsConfig {
    fn default() -> Self {
        CfsConfig {
            file_seed: 1,
            file_bytes: 1024 * 1024,
            block_bytes: 8 * 1024,
            prefetch_window: 24 * 1024,
        }
    }
}

impl CfsConfig {
    /// Number of blocks in the file.
    pub fn block_count(&self) -> u64 {
        self.file_bytes.div_ceil(self.block_bytes as u64)
    }

    fn file_name(&self) -> String {
        format!("file-{}", self.file_seed)
    }

    fn block_key(&self, block: u64) -> ChordId {
        ChordId::of_block(&self.file_name(), block)
    }
}

/// A CFS server: stores the blocks whose identifiers it owns and answers
/// Chord lookups.
pub struct CfsServer {
    me: VnId,
    ring: ChordRing,
    blocks_served: u64,
    lookups_forwarded: u64,
    lookups_answered: u64,
}

impl CfsServer {
    /// Creates a server for `me` with the given static ring membership.
    pub fn new(me: VnId, ring: ChordRing) -> Self {
        CfsServer {
            me,
            ring,
            blocks_served: 0,
            lookups_forwarded: 0,
            lookups_answered: 0,
        }
    }

    /// Blocks served so far.
    pub fn blocks_served(&self) -> u64 {
        self.blocks_served
    }

    /// Lookups this node answered as owner.
    pub fn lookups_answered(&self) -> u64 {
        self.lookups_answered
    }

    /// Lookups this node forwarded along the ring.
    pub fn lookups_forwarded(&self) -> u64 {
        self.lookups_forwarded
    }

    fn handle(&mut self, ctx: &mut AppCtx, from: VnId, message: CfsMessage, block_bytes: u32) {
        match message {
            CfsMessage::Lookup { key, block, origin } => match self.ring.next_hop(self.me, key) {
                None => {
                    // We are the owner: answer the origin directly.
                    self.lookups_answered += 1;
                    ctx.send(
                        origin,
                        Message::new(
                            LOOKUP_RESULT_BYTES,
                            CfsMessage::LookupResult {
                                block,
                                owner: self.me,
                            },
                        ),
                    );
                }
                Some(next) => {
                    self.lookups_forwarded += 1;
                    ctx.send(
                        next,
                        Message::new(LOOKUP_BYTES, CfsMessage::Lookup { key, block, origin }),
                    );
                }
            },
            CfsMessage::BlockRequest { block } => {
                self.blocks_served += 1;
                ctx.send(
                    from,
                    Message::new(
                        block_bytes + BLOCK_HEADER_BYTES,
                        CfsMessage::BlockReply {
                            block,
                            bytes: block_bytes,
                        },
                    ),
                );
            }
            _ => {}
        }
    }
}

impl Application for CfsServer {
    fn on_start(&mut self, _ctx: &mut AppCtx) {}

    fn on_message(&mut self, ctx: &mut AppCtx, from: VnId, message: Message) {
        if let Ok(msg) = message.into_body::<CfsMessage>() {
            // The reply carries the standard CFS 8 KB block.
            self.handle(ctx, from, *msg, 8 * 1024);
        }
    }

    fn on_timer(&mut self, _ctx: &mut AppCtx, _token: u64) {}

    fn as_any(&self) -> &dyn Any {
        self
    }
}

/// Per-block download state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BlockState {
    NotStarted,
    LookingUp,
    Fetching,
    Done,
}

/// The CFS client: downloads the configured file through the ring while
/// honouring the prefetch window, and records the achieved speed.
pub struct CfsClient {
    me: VnId,
    ring: ChordRing,
    config: CfsConfig,
    state: Vec<BlockState>,
    owners: HashMap<u64, VnId>,
    outstanding_bytes: u64,
    completed: u64,
    started_at: Option<SimTime>,
    finished_at: Option<SimTime>,
    server: CfsServer,
}

impl CfsClient {
    /// Creates a client on `me` (which also serves its share of blocks).
    pub fn new(me: VnId, ring: ChordRing, config: CfsConfig) -> Self {
        let blocks = config.block_count() as usize;
        CfsClient {
            me,
            server: CfsServer::new(me, ring.clone()),
            ring,
            config,
            state: vec![BlockState::NotStarted; blocks],
            owners: HashMap::new(),
            outstanding_bytes: 0,
            completed: 0,
            started_at: None,
            finished_at: None,
        }
    }

    /// Returns `true` once every block has arrived.
    pub fn is_complete(&self) -> bool {
        self.finished_at.is_some()
    }

    /// Download duration, once complete.
    pub fn download_time(&self) -> Option<mn_util::SimDuration> {
        Some(self.finished_at? - self.started_at?)
    }

    /// Download speed in kilobytes per second (the unit of the paper's CFS
    /// figures), once complete.
    pub fn download_speed_kbytes_per_sec(&self) -> Option<f64> {
        let t = self.download_time()?.as_secs_f64();
        if t <= 0.0 {
            return None;
        }
        Some(self.config.file_bytes as f64 / 1024.0 / t)
    }

    /// Blocks received so far.
    pub fn blocks_completed(&self) -> u64 {
        self.completed
    }

    fn issue_work(&mut self, ctx: &mut AppCtx) {
        let window = self
            .config
            .prefetch_window
            .max(self.config.block_bytes as u64);
        let block_bytes = self.config.block_bytes as u64;
        for block in 0..self.config.block_count() {
            if self.outstanding_bytes + block_bytes > window {
                break;
            }
            let idx = block as usize;
            if self.state[idx] != BlockState::NotStarted {
                continue;
            }
            let key = self.config.block_key(block);
            let owner_known = self.owners.get(&block).copied().or_else(|| {
                // Blocks we own ourselves need no network activity at all for
                // the lookup; resolve locally like the real client would.
                let owner = self.ring.owner_of(key)?;
                (owner == self.me).then_some(owner)
            });
            self.outstanding_bytes += block_bytes;
            match owner_known {
                Some(owner) if owner == self.me => {
                    // Local block: complete immediately.
                    self.state[idx] = BlockState::Done;
                    self.outstanding_bytes -= block_bytes;
                    self.completed += 1;
                }
                Some(owner) => {
                    self.state[idx] = BlockState::Fetching;
                    ctx.send(
                        owner,
                        Message::new(BLOCK_REQUEST_BYTES, CfsMessage::BlockRequest { block }),
                    );
                }
                None => {
                    self.state[idx] = BlockState::LookingUp;
                    let first_hop = self
                        .ring
                        .next_hop(self.me, key)
                        .expect("multi-node ring has a next hop");
                    ctx.send(
                        first_hop,
                        Message::new(
                            LOOKUP_BYTES,
                            CfsMessage::Lookup {
                                key,
                                block,
                                origin: self.me,
                            },
                        ),
                    );
                }
            }
        }
        if self.completed == self.config.block_count() && self.finished_at.is_none() {
            self.finished_at = Some(ctx.now());
            if let Some(speed) = self.download_speed_kbytes_per_sec() {
                ctx.record("cfs_download_kbytes_per_sec", speed);
            }
        }
    }
}

impl Application for CfsClient {
    fn on_start(&mut self, ctx: &mut AppCtx) {
        self.started_at = Some(ctx.now());
        self.issue_work(ctx);
    }

    fn on_message(&mut self, ctx: &mut AppCtx, from: VnId, message: Message) {
        let Ok(msg) = message.into_body::<CfsMessage>() else {
            return;
        };
        match *msg {
            CfsMessage::LookupResult { block, owner } => {
                self.owners.insert(block, owner);
                let idx = block as usize;
                if self.state[idx] == BlockState::LookingUp {
                    self.state[idx] = BlockState::Fetching;
                    ctx.send(
                        owner,
                        Message::new(BLOCK_REQUEST_BYTES, CfsMessage::BlockRequest { block }),
                    );
                }
            }
            CfsMessage::BlockReply { block, bytes } => {
                let idx = block as usize;
                if self.state[idx] == BlockState::Fetching {
                    self.state[idx] = BlockState::Done;
                    self.completed += 1;
                    self.outstanding_bytes = self
                        .outstanding_bytes
                        .saturating_sub(bytes.max(self.config.block_bytes) as u64);
                    self.issue_work(ctx);
                }
            }
            // The client node also serves its share of the ring.
            other => self
                .server
                .handle(ctx, from, other, self.config.block_bytes),
        }
    }

    fn on_timer(&mut self, _ctx: &mut AppCtx, _token: u64) {}

    fn as_any(&self) -> &dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_block_count() {
        let c = CfsConfig::default();
        assert_eq!(c.block_count(), 128);
        let odd = CfsConfig {
            file_bytes: 100_000,
            block_bytes: 8192,
            ..CfsConfig::default()
        };
        assert_eq!(odd.block_count(), 13);
    }

    #[test]
    fn client_completes_locally_owned_blocks_without_network() {
        // Single-node ring: every block is local, the download completes in
        // the on_start callback without sending anything.
        let ring = ChordRing::new([VnId(0)]);
        let mut client = CfsClient::new(VnId(0), ring, CfsConfig::default());
        let mut ctx = AppCtx::new(SimTime::from_secs(1));
        client.on_start(&mut ctx);
        assert!(client.is_complete());
        assert_eq!(client.blocks_completed(), 128);
        // Only the completion record, no sends.
        let actions = ctx.into_actions();
        assert!(actions
            .iter()
            .all(|a| !matches!(a, mn_edge::AppAction::Send { .. })));
    }

    #[test]
    fn client_respects_prefetch_window() {
        let members: Vec<VnId> = (0..12).map(VnId).collect();
        let ring = ChordRing::new(members.clone());
        let config = CfsConfig {
            prefetch_window: 16 * 1024, // two blocks
            ..CfsConfig::default()
        };
        let mut client = CfsClient::new(members[0], ring, config);
        let mut ctx = AppCtx::new(SimTime::ZERO);
        client.on_start(&mut ctx);
        let sends = ctx
            .into_actions()
            .into_iter()
            .filter(|a| matches!(a, mn_edge::AppAction::Send { .. }))
            .count();
        // At most two remote blocks may be outstanding (locally owned blocks
        // complete without counting against the window).
        assert!(
            sends <= 2,
            "issued {sends} remote operations with a 2-block window"
        );
        assert!(!client.is_complete());
    }

    #[test]
    fn server_answers_lookups_it_owns_and_forwards_the_rest() {
        let members: Vec<VnId> = (0..12).map(VnId).collect();
        let ring = ChordRing::new(members.clone());
        let key = ChordId::of_block("file-1", 7);
        let owner = ring.owner_of(key).unwrap();
        let mut server = CfsServer::new(owner, ring.clone());
        let mut ctx = AppCtx::new(SimTime::ZERO);
        server.handle(
            &mut ctx,
            VnId(0),
            CfsMessage::Lookup {
                key,
                block: 7,
                origin: VnId(0),
            },
            8192,
        );
        assert_eq!(server.lookups_answered(), 1);
        assert_eq!(server.lookups_forwarded(), 0);
        // A non-owner forwards.
        let not_owner = members.iter().copied().find(|&m| m != owner).unwrap();
        let mut other = CfsServer::new(not_owner, ring);
        let mut ctx2 = AppCtx::new(SimTime::ZERO);
        other.handle(
            &mut ctx2,
            VnId(0),
            CfsMessage::Lookup {
                key,
                block: 7,
                origin: VnId(0),
            },
            8192,
        );
        assert_eq!(other.lookups_forwarded(), 1);
    }

    #[test]
    fn server_serves_blocks_with_full_wire_size() {
        let ring = ChordRing::new((0..4).map(VnId));
        let mut server = CfsServer::new(VnId(1), ring);
        let mut ctx = AppCtx::new(SimTime::ZERO);
        server.handle(
            &mut ctx,
            VnId(2),
            CfsMessage::BlockRequest { block: 3 },
            8192,
        );
        assert_eq!(server.blocks_served(), 1);
        let actions = ctx.into_actions();
        match &actions[0] {
            mn_edge::AppAction::Send { to, message } => {
                assert_eq!(*to, VnId(2));
                assert_eq!(message.wire_size, 8192 + BLOCK_HEADER_BYTES);
            }
            other => panic!("unexpected action {other:?}"),
        }
    }
}

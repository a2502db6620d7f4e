//! Chord: consistent hashing and finger-table routing.
//!
//! CFS stores blocks on the Chord successor of each block identifier. The
//! paper's CFS experiments run with a small, static membership (the 12 RON
//! nodes), so this implementation models a stable ring: identifiers are
//! 64-bit points on the ring, every node knows the full membership at start
//! (as the experiment scripts arrange), and lookups are resolved by walking
//! fingers — each hop still crosses the emulated network, which is what makes
//! lookup latency sensitive to the underlying topology.

use mn_packet::VnId;

/// A point on the Chord identifier circle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ChordId(pub u64);

impl ChordId {
    /// Hashes an arbitrary byte string onto the ring (FNV-1a, sufficient for
    /// load spreading in the emulation).
    pub fn hash(data: &[u8]) -> ChordId {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for &b in data {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        // A final mix spreads short, similar inputs across the whole ring.
        h ^= h >> 33;
        h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
        h ^= h >> 33;
        ChordId(h)
    }

    /// The identifier of a VN (its position on the ring).
    pub fn of_vn(vn: VnId) -> ChordId {
        Self::hash(format!("vn-{}", vn.0).as_bytes())
    }

    /// The identifier of block `index` of a named file.
    pub fn of_block(file: &str, index: u64) -> ChordId {
        Self::hash(format!("{file}#{index}").as_bytes())
    }
}

/// Returns `true` if `x` lies in the half-open ring interval `(from, to]`.
pub fn chord_interval_contains(from: ChordId, to: ChordId, x: ChordId) -> bool {
    if from == to {
        // The interval covers the whole ring.
        return true;
    }
    if from < to {
        x > from && x <= to
    } else {
        x > from || x <= to
    }
}

/// A static view of the Chord ring: every member and its identifier.
#[derive(Debug, Clone, Default)]
pub struct ChordRing {
    /// Members sorted by ring identifier.
    members: Vec<(ChordId, VnId)>,
}

impl ChordRing {
    /// Builds the ring from a membership list.
    pub fn new(members: impl IntoIterator<Item = VnId>) -> Self {
        let mut members: Vec<(ChordId, VnId)> = members
            .into_iter()
            .map(|vn| (ChordId::of_vn(vn), vn))
            .collect();
        members.sort();
        members.dedup();
        ChordRing { members }
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Returns `true` if the ring has no members.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// The successor of identifier `id`: the first member whose identifier is
    /// at or after `id` on the circle.
    pub fn successor(&self, id: ChordId) -> Option<VnId> {
        if self.members.is_empty() {
            return None;
        }
        match self.members.iter().find(|(mid, _)| *mid >= id) {
            Some((_, vn)) => Some(*vn),
            None => Some(self.members[0].1),
        }
    }

    /// The member owning (storing) identifier `id` — its successor.
    pub fn owner_of(&self, id: ChordId) -> Option<VnId> {
        self.successor(id)
    }

    /// The finger table of `node`: for each power-of-two offset, the
    /// successor of `node_id + 2^i`. Deduplicated, excluding the node itself
    /// where possible, giving the O(log n) neighbour set Chord routes over.
    pub fn fingers(&self, node: VnId) -> Vec<VnId> {
        let me = ChordId::of_vn(node);
        let mut fingers = Vec::new();
        for i in 0..64u32 {
            let target = ChordId(me.0.wrapping_add(1u64 << i));
            if let Some(s) = self.successor(target) {
                if s != node && !fingers.contains(&s) {
                    fingers.push(s);
                }
            }
        }
        fingers
    }

    /// The next hop `node` uses to route a lookup for `key`: the finger
    /// closest to (but not past) the key, or the key's owner when `node`
    /// already points at it. Returns `None` for a single-node ring.
    pub fn next_hop(&self, node: VnId, key: ChordId) -> Option<VnId> {
        let owner = self.owner_of(key)?;
        if owner == node {
            return None;
        }
        let me = ChordId::of_vn(node);
        // Closest preceding finger: among fingers, the one whose id lies in
        // (me, key) and is closest to the key.
        let mut best: Option<(ChordId, VnId)> = None;
        for f in self.fingers(node) {
            let fid = ChordId::of_vn(f);
            if chord_interval_contains(me, key, fid) {
                let better = match best {
                    None => true,
                    Some((bid, _)) => chord_interval_contains(bid, key, fid),
                };
                if better {
                    best = Some((fid, f));
                }
            }
        }
        Some(best.map(|(_, f)| f).unwrap_or(owner))
    }

    /// All members.
    pub fn members(&self) -> impl Iterator<Item = VnId> + '_ {
        self.members.iter().map(|(_, vn)| *vn)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ring(n: u32) -> ChordRing {
        ChordRing::new((0..n).map(VnId))
    }

    #[test]
    fn interval_wraps_around_the_ring() {
        let a = ChordId(100);
        let b = ChordId(200);
        assert!(chord_interval_contains(a, b, ChordId(150)));
        assert!(!chord_interval_contains(a, b, ChordId(250)));
        assert!(chord_interval_contains(b, a, ChordId(250)));
        assert!(chord_interval_contains(b, a, ChordId(50)));
        assert!(!chord_interval_contains(b, a, ChordId(150)));
        // (x, x] is the full ring.
        assert!(chord_interval_contains(a, a, ChordId(999)));
    }

    #[test]
    fn successor_is_circular() {
        let r = ring(12);
        let members: Vec<(ChordId, VnId)> = r.members().map(|m| (ChordId::of_vn(m), m)).collect();
        let max = members.iter().max().unwrap().1;
        // Just past the largest identifier wraps to the smallest.
        let past = ChordId(ChordId::of_vn(max).0.wrapping_add(1));
        let min = members.iter().min().unwrap().1;
        assert_eq!(r.successor(past), Some(min));
    }

    #[test]
    fn owner_is_stable_and_deterministic() {
        let r = ring(12);
        let key = ChordId::of_block("paper.pdf", 3);
        assert_eq!(r.owner_of(key), r.owner_of(key));
        // Ownership is spread: not every block lands on the same node.
        let owners: std::collections::HashSet<VnId> = (0..128)
            .map(|i| r.owner_of(ChordId::of_block("f", i)).unwrap())
            .collect();
        assert!(
            owners.len() >= 6,
            "blocks should spread over the ring: {}",
            owners.len()
        );
    }

    #[test]
    fn fingers_are_logarithmic() {
        let r = ring(64);
        for vn in [VnId(0), VnId(17), VnId(63)] {
            let f = r.fingers(vn);
            assert!(!f.is_empty());
            assert!(
                f.len() <= 16,
                "finger table of a 64-node ring should be O(log n), got {}",
                f.len()
            );
            assert!(!f.contains(&vn));
        }
    }

    #[test]
    fn next_hop_reaches_the_owner() {
        let r = ring(12);
        let key = ChordId::of_block("x", 9);
        let owner = r.owner_of(key).unwrap();
        let mut cur = VnId(0);
        let mut steps = 0;
        while let Some(next) = r.next_hop(cur, key) {
            cur = next;
            steps += 1;
            assert!(steps <= 12);
        }
        assert_eq!(cur, owner);
    }

    #[test]
    fn empty_and_single_rings() {
        let empty = ChordRing::new([]);
        assert!(empty.is_empty());
        assert_eq!(empty.successor(ChordId(1)), None);
        let single = ChordRing::new([VnId(3)]);
        assert_eq!(single.owner_of(ChordId(42)), Some(VnId(3)));
        assert_eq!(single.next_hop(VnId(3), ChordId(42)), None);
    }
}

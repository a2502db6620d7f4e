//! Copy-on-write route storage keyed by location: one row per location.
//!
//! The per-packet path must not hash: the core looks routes up for every
//! submitted packet, and descriptors reference their route on every hop and
//! on every inter-core tunnel. [`RouteTable`] therefore flattens the routing
//! state the Binding phase produces into ID-indexed structures — and, unlike
//! the paper's dense `endpoint_count²` pair table, keys all of it by
//! **location**, the only thing a route depends on:
//!
//! * `store` — each **distinct** route stored exactly once, addressed by
//!   [`RouteId`] (the handle descriptors carry instead of a cloned route).
//!   Routes live inline, back to back, in an arena of chunks of
//!   `ROUTE_CHUNK` (1024) routes: a chunk is its `Arc`, a `u32` end offset
//!   per route and one run of pipes — three allocations per chunk, none per
//!   route. Sealed chunks are shared by every generation, so retaining the
//!   ids in flight costs reference bumps, and a chunk's two runs are also
//!   its encoded form: a checkpoint writes them as they lie (pipe ids
//!   narrowed to the `u32` they are everywhere else) and a restore copies
//!   them back in bulk.
//! * `rows` — **one row shard per location slot**, mapping a destination
//!   location slot to its raw `RouteId`, page-grouped into shared blocks of
//!   `BLOCK_ROWS` (1024) rows. A row stores only the window `[base, base +
//!   width)` that actually holds routable columns: narrow windows (≤ 4
//!   entries) are kept inline in the block with no heap allocation at all,
//!   wider windows spill to an `Arc<[u32]>` that successive generations
//!   share.
//! * `cols` — an endpoint is nothing but its 4-byte column entry: the slot
//!   of the location it is bound at, plus a departed bit. Any number of
//!   endpoints multiplexed onto one location read the one row, so route
//!   state is O(locations²) + 4 B per endpoint, a co-located join or leave
//!   writes one column entry and touches no row, and there are no per-endpoint
//!   replicas to keep equal.
//!
//! The per-packet lookup is a fixed chain of indexed loads — source column,
//! destination column, block, row shard, slot (inline rows resolve the slot
//! inside the already-loaded shard) — with no hashing, no allocation, and
//! no data-dependent depth.
//!
//! **Reconfiguration is O(changed).** [`RouteTable::rewire_in_place`]
//! patches only the rows whose routes actually changed, and a copy-on-write
//! publish clones O(locations / `BLOCK_ROWS`) block handles plus only the
//! blocks holding patched rows: untouched blocks and untouched spilled rows
//! keep literally the same allocation across the publish (`Arc` identity is
//! pinned by tests), so a 1-link flap costs O(affected locations + touched
//! blocks) — flat in the endpoint count. The route store *and* the
//! content-dedup index carry forward structurally — a rewire that brings
//! back known routes re-interns nothing.
//!
//! **Interning is one probe.** A route a rewire or a join resolves enters
//! through [`RouteTable::intern_pipes`]: one fixed multiplicative
//! fingerprint over the pipe sequence, one linear probe of a flat
//! `(fingerprint, id)` slot array, and a match is **verified against the
//! store itself** — the index keeps no second copy of any route, a
//! collision costs a comparison and can never alias, and ids are
//! first-id-wins. The index is a pure function of the append-only store, so
//! the bulk writers, each unsharing the store once, leave it out: `decode`
//! fills whole chunks, and `build` appends every location pair's route
//! unprobed (its first pipe leaves the source location and its last enters
//! the destination, so no two pairs share a route and every probe would
//! miss). The first `find` builds it, in one pass in id order over a table
//! sized once: a run or a restore that only forwards never pays for it. It
//! sits with the store behind one `Arc`: generations share both, and the
//! first to intern new content copies the chunk handles, the open tail and
//! the index — flat, 16 B per slot at 4/3 to 8/3 slots per route: ≤ 43 B
//! per route — so a link-up or an oscillation, which intern nothing, never
//! pays.
//!
//! Endpoint indices are the dense VN indices of the binding (`VnId::index`),
//! but the table is deliberately typed on `usize` so `mn-routing` stays
//! independent of `mn-packet`. The published table is immutable from the
//! cores' point of view: a routing change builds the next generation (cheap,
//! structurally shared) and swaps the `Arc<RouteTable>`.

use std::sync::{Arc, OnceLock};

use serde::{Deserialize, Serialize};

use mn_distill::PipeId;
use mn_topology::NodeId;
use mn_util::{ByteReader, ByteWriter, Codec, CodecError};

use crate::matrix::RoutingMatrix;

mn_util::codec_record! {
    /// Handle to an interned route in a [`RouteTable`].
    #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
    pub struct RouteId(pub u32);
}

impl RouteId {
    /// Returns the raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Sentinel for "no route" in the row shards.
const NO_ROUTE: u32 = u32::MAX;

/// Set in an endpoint's column entry while it is departed. The slot bits
/// stay (routes *toward* a departed endpoint still resolve, so descriptors
/// in flight drain); the bit itself is never encoded.
const DEPARTED: u32 = 1 << 31;

/// Widest row window kept inline in the shard table. Inline rows cost no
/// heap allocation and no reference-count traffic on a copy-on-write
/// publish — for row-sparse workloads (disjoint path pairs) the whole pair
/// mapping is a flat memcpy.
const INLINE_ROW_CAP: usize = 4;

/// Routes per sealed chunk of the append-only route store.
const ROUTE_CHUNK: usize = 1024;

/// Entries (rows, or column entries) per shared block. A copy-on-write
/// publish clones the block tables (`locations / BLOCK_ROWS` plus
/// `endpoints / BLOCK_ROWS` reference bumps) plus only the blocks holding
/// patched rows, so publish cost is O(touched blocks), flat in the endpoint
/// count for a fixed-fanout change.
const BLOCK_ROWS: usize = 1024;

/// One location's row shard: destination location slot → raw `RouteId`,
/// stored as a dense window over the columns that are actually routable.
#[derive(Debug, Clone, PartialEq)]
enum RowShard {
    /// Every destination unroutable (also the [`RouteTable::new`] initial
    /// state, and the row of a location with no live endpoint).
    Empty,
    /// A window of at most [`INLINE_ROW_CAP`] destinations, stored inline.
    Inline {
        base: u32,
        len: u8,
        slots: [u32; INLINE_ROW_CAP],
    },
    /// A wider window, heap-allocated and shared copy-on-write: successive
    /// table generations point at the same allocation until it is patched.
    Spilled { base: u32, slots: Arc<[u32]> },
}

impl RowShard {
    /// The raw id for a destination (`NO_ROUTE` outside the window). This
    /// is half of the per-packet lookup: one window test, one slot read.
    #[inline]
    fn raw(&self, dst: usize) -> u32 {
        match self {
            RowShard::Empty => NO_ROUTE,
            RowShard::Inline { base, len, slots } => {
                let i = dst.wrapping_sub(*base as usize);
                if i < *len as usize {
                    slots[i]
                } else {
                    NO_ROUTE
                }
            }
            RowShard::Spilled { base, slots } => {
                let i = dst.wrapping_sub(*base as usize);
                if i < slots.len() {
                    slots[i]
                } else {
                    NO_ROUTE
                }
            }
        }
    }

    /// The stored window as `(base, width)`.
    fn window(&self) -> (usize, usize) {
        match self {
            RowShard::Empty => (0, 0),
            RowShard::Inline { base, len, .. } => (*base as usize, *len as usize),
            RowShard::Spilled { base, slots } => (*base as usize, slots.len()),
        }
    }

    /// Normalises a window of raw ids into shard form: unroutable edges are
    /// trimmed, all-unroutable collapses to [`RowShard::Empty`], narrow
    /// windows inline, wide ones spill to a fresh shared allocation.
    fn from_window(base: usize, values: &[u32]) -> RowShard {
        let Some(first) = values.iter().position(|&v| v != NO_ROUTE) else {
            return RowShard::Empty;
        };
        let last = values
            .iter()
            .rposition(|&v| v != NO_ROUTE)
            .expect("a first routable entry implies a last");
        let trimmed = &values[first..=last];
        let base = (base + first) as u32;
        if trimmed.len() <= INLINE_ROW_CAP {
            let mut slots = [NO_ROUTE; INLINE_ROW_CAP];
            slots[..trimmed.len()].copy_from_slice(trimmed);
            RowShard::Inline {
                base,
                len: trimmed.len() as u8,
                slots,
            }
        } else {
            RowShard::Spilled {
                base,
                slots: trimmed.into(),
            }
        }
    }

    /// The bytes the shard's encoding takes.
    fn encoded_len(&self) -> usize {
        match self {
            RowShard::Empty => 1,
            RowShard::Inline { len, .. } => 6 + 4 * *len as usize,
            RowShard::Spilled { slots, .. } => 13 + 4 * slots.len(),
        }
    }

    /// Checks every id against the store's `route_count` and the window
    /// against the table's `columns`.
    fn check(&self, route_count: usize, columns: usize) -> Result<(), CodecError> {
        use CodecError::Invalid;
        let (base, width) = self.window();
        let mut ids = (base..base + width).map(|column| self.raw(column));
        if ids.any(|raw| raw != NO_ROUTE && raw as usize >= route_count) {
            return Err(Invalid("row shard names a route the store does not hold"));
        }
        if base + width > columns {
            return Err(Invalid("row window outside the column range"));
        }
        Ok(())
    }

    /// `true` when two shards are literally the same storage: a shared slot
    /// allocation for spilled rows, bit-identical content for the
    /// allocation-free forms.
    fn same_storage(&self, other: &RowShard) -> bool {
        match (self, other) {
            (RowShard::Empty, RowShard::Empty) => true,
            (
                RowShard::Inline { base, len, slots },
                RowShard::Inline {
                    base: b,
                    len: l,
                    slots: s,
                },
            ) => base == b && len == l && slots == s,
            (RowShard::Spilled { slots: a, .. }, RowShard::Spilled { slots: b, .. }) => {
                Arc::ptr_eq(a, b)
            }
            _ => false,
        }
    }

    /// Applies `patches` (destination index, new raw id), returning the
    /// patched row — or `None` when every patch matches the stored value,
    /// leaving the shard (and its shared allocation) untouched. Windows
    /// grow to cover newly routable destinations and are re-trimmed, so an
    /// oscillating link returns the row to its exact pre-failure form.
    ///
    /// When every routable patch lands inside the stored window, the
    /// window cannot change and the patch takes an early-out: one slot
    /// copy, patches written in place, no re-trim. Clearing patches keep
    /// the stored bounds on this path — re-deriving them is an O(width)
    /// normalisation that a flapping link would pay twice per flap, and a
    /// kept window is semantically identical (interior gaps already read
    /// as unroutable) while never exceeding the row's high-water width.
    fn patched(&self, patches: &[(usize, u32)]) -> Option<RowShard> {
        if patches.iter().all(|&(d, raw)| self.raw(d) == raw) {
            return None;
        }
        let (base, width) = self.window();
        if width > 0
            && patches
                .iter()
                .all(|&(d, raw)| raw == NO_ROUTE || d.wrapping_sub(base) < width)
        {
            return Some(self.patched_in_window(patches));
        }
        let (mut lo, mut hi) = if width == 0 {
            (usize::MAX, 0)
        } else {
            (base, base + width)
        };
        for &(d, raw) in patches {
            if raw != NO_ROUTE {
                lo = lo.min(d);
                hi = hi.max(d + 1);
            }
        }
        if lo >= hi {
            // Every remaining patch clears entries of a row that had none:
            // unreachable because the no-op test above would have caught it,
            // but collapse defensively rather than panic on an empty window.
            return Some(RowShard::Empty);
        }
        let mut scratch = vec![NO_ROUTE; hi - lo];
        match self {
            RowShard::Empty => {}
            RowShard::Inline { base, len, slots } => {
                let b = *base as usize - lo;
                scratch[b..b + *len as usize].copy_from_slice(&slots[..*len as usize]);
            }
            RowShard::Spilled { base, slots } => {
                let b = *base as usize - lo;
                scratch[b..b + slots.len()].copy_from_slice(slots);
            }
        }
        for &(d, raw) in patches {
            // A patch outside the computed window is necessarily a clearing
            // one (routable patches extended the window above): the scratch
            // there is conceptually NO_ROUTE already, so it is a no-op —
            // indexing it would walk off the buffer.
            if (lo..hi).contains(&d) {
                scratch[d - lo] = raw;
            }
        }
        Some(RowShard::from_window(lo, &scratch))
    }

    /// The window-unchanged early-out of [`RowShard::patched`]: every
    /// routable patch is inside the stored window, so the shard keeps its
    /// base and width — inline rows are patched in a register copy, spilled
    /// rows in a single freshly allocated slot copy. Patches outside the
    /// window are necessarily clearing ones and read as unroutable there
    /// already, so they are skipped.
    fn patched_in_window(&self, patches: &[(usize, u32)]) -> RowShard {
        match self {
            RowShard::Empty => unreachable!("the early-out requires a non-empty window"),
            RowShard::Inline { base, len, slots } => {
                let mut slots = *slots;
                for &(d, raw) in patches {
                    let i = d.wrapping_sub(*base as usize);
                    if i < *len as usize {
                        slots[i] = raw;
                    }
                }
                RowShard::Inline {
                    base: *base,
                    len: *len,
                    slots,
                }
            }
            RowShard::Spilled { base, slots } => {
                let mut copy: Arc<[u32]> = Arc::from(&slots[..]);
                let buf = Arc::get_mut(&mut copy).expect("freshly allocated slot copy is unique");
                for &(d, raw) in patches {
                    let i = d.wrapping_sub(*base as usize);
                    if i < buf.len() {
                        buf[i] = raw;
                    }
                }
                RowShard::Spilled {
                    base: *base,
                    slots: copy,
                }
            }
        }
    }
}

/// The shard verbatim — a tag byte (0 empty, 1 inline, 2 spilled), the
/// window's base, then its slots: a width byte and the ids inline, a `u32`
/// run spilled — so a restored row patches exactly like the captured one.
/// Form and geometry are checked as read; what the shard names is
/// [`RowShard::check`]ed once the store and the column count are known.
impl Codec for RowShard {
    const MIN_BYTES: usize = 1;

    fn put(&self, w: &mut ByteWriter) {
        match self {
            RowShard::Empty => w.put_u8(0),
            RowShard::Inline { base, len, slots } => {
                (1u8, *base, *len).put(w);
                slots[..*len as usize].iter().for_each(|slot| slot.put(w));
            }
            RowShard::Spilled { base, slots } => {
                (2u8, *base).put(w);
                u32::put_run(slots, w);
            }
        }
    }

    fn get(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        use CodecError::Invalid;
        Ok(match r.get_u8()? {
            0 => RowShard::Empty,
            1 => {
                let (base, len) = <(u32, u8)>::get(r)?;
                if len as usize > INLINE_ROW_CAP {
                    return Err(Invalid("inline row too wide"));
                }
                let mut slots = [NO_ROUTE; INLINE_ROW_CAP];
                for slot in &mut slots[..len as usize] {
                    *slot = u32::get(r)?;
                }
                RowShard::Inline { base, len, slots }
            }
            2 => RowShard::Spilled {
                base: u32::get(r)?,
                slots: u32::get_run(r)?.into(),
            },
            _ => return Err(Invalid("unknown row shard tag")),
        })
    }
}

/// One chunk of the route arena: up to [`ROUTE_CHUNK`] routes back to back.
#[derive(Debug, Clone, Default)]
struct Chunk {
    /// Route `i` of the chunk is `pipes[ends[i - 1]..ends[i]]` (from 0 for
    /// the first).
    ends: Vec<u32>,
    pipes: Vec<PipeId>,
}

impl Chunk {
    #[inline]
    fn get(&self, at: usize) -> &[PipeId] {
        let start = at.checked_sub(1).map_or(0, |prev| self.ends[prev]);
        &self.pipes[start as usize..self.ends[at] as usize]
    }
}

/// Append-only interned route storage with its content index, shared by
/// table generations behind one `Arc`: a clone is one reference bump, and
/// the first generation to intern new content copies (`Arc::make_mut`) the
/// chunk handles, the open tail — fewer than `ROUTE_CHUNK` routes; it is
/// sealed the moment it fills — and the index. Sealed chunks are never
/// copied, and a link-up or an oscillation, which intern nothing, copy
/// nothing.
#[derive(Debug, Clone, Default)]
struct RouteStore {
    sealed: Vec<Arc<Chunk>>,
    tail: Chunk,
    /// One past the largest pipe id any stored route names (0: none).
    pipe_bound: usize,
    /// Built by the first [`RouteStore::find`]: `build` appends and
    /// `decode` fills chunks without it.
    index: OnceLock<ContentIndex>,
    /// Test-only: the index, whenever it is built, folds every sequence to
    /// the same fingerprint (see [`ContentIndex::degenerate`]).
    #[cfg(test)]
    degenerate: bool,
}

impl RouteStore {
    fn len(&self) -> usize {
        self.sealed.len() * ROUTE_CHUNK + self.tail.ends.len()
    }

    /// The interned route at `index` (panics out of range): chunk, its
    /// `ends`, its `pipes`.
    #[inline]
    fn get(&self, index: usize) -> &[PipeId] {
        match self.sealed.get(index / ROUTE_CHUNK) {
            Some(chunk) => chunk.get(index % ROUTE_CHUNK),
            None => self.tail.get(index - self.sealed.len() * ROUTE_CHUNK),
        }
    }

    /// Every chunk in id order, the tail last.
    fn chunks(&self) -> impl Iterator<Item = &Chunk> {
        self.sealed.iter().map(|c| &**c).chain([&self.tail])
    }

    /// Fingerprints `pipes` and probes the index — built here if this is
    /// the store's first lookup — for the first id interned with exactly
    /// this content, verified against the arena. `probes` counts the slots
    /// inspected and the comparisons.
    fn find(&self, pipes: &[PipeId], probes: &mut u64) -> (u64, Option<RouteId>) {
        let index = self.index.get_or_init(|| self.build_index());
        let fingerprint = index.fingerprint(pipes);
        let content = |id: u32| self.get(id as usize);
        let known = index.probe(fingerprint, pipes, content, probes);
        (fingerprint, known.ok())
    }

    /// The content index of the routes stored so far, in one pass in id
    /// order: every fingerprint chunk by chunk (a sequential read), the
    /// table sized once, then the inserts — first-id-wins and verified
    /// against the store, exactly as `find` then `append` one by one.
    fn build_index(&self) -> ContentIndex {
        let mut index = ContentIndex::default();
        #[cfg(test)]
        {
            index.degenerate = self.degenerate;
        }
        let mut fingerprints = Vec::with_capacity(self.len());
        for chunk in self.chunks() {
            fingerprints.extend((0..chunk.ends.len()).map(|at| index.fingerprint(chunk.get(at))));
        }
        index.reserve(fingerprints.len().max(1));
        let content = |id: u32| self.get(id as usize);
        for (id, &fingerprint) in fingerprints.iter().enumerate() {
            if let Err(free) = index.probe(fingerprint, self.get(id), content, &mut 0) {
                index.slots[free] = (fingerprint, id as u32);
                index.len += 1;
            }
        }
        index
    }

    /// Appends a route to the arena, indexing it under `new_content` (its
    /// fingerprint) when the index does not hold its content yet (`None`
    /// also for a store with no index yet: its first `find` covers it).
    /// A route that fills the tail seals it: the sealed chunk is an exact
    /// copy, three allocations, and the tail keeps its buffers, so
    /// appending any number of chunks grows them at most to the longest
    /// chunk, once.
    fn append(&mut self, pipes: &[PipeId], new_content: Option<u64>) -> RouteId {
        assert!(self.len() < NO_ROUTE as usize, "route table overflow");
        let id = RouteId(self.len() as u32);
        self.tail.pipes.extend_from_slice(pipes);
        let bound = pipes.iter().map(|p| p.index() + 1).max();
        self.pipe_bound = self.pipe_bound.max(bound.unwrap_or(0));
        let end = u32::try_from(self.tail.pipes.len()).expect("a chunk's pipes fit u32 offsets");
        self.tail.ends.push(end);
        if self.tail.ends.len() == ROUTE_CHUNK {
            self.sealed.push(Arc::new(self.tail.clone()));
            self.tail.ends.clear();
            self.tail.pipes.clear();
        }
        if let Some(fingerprint) = new_content {
            let index = self.index.get_mut().expect("a failed find built the index");
            index.insert(fingerprint, id);
        }
        id
    }

    /// Fills an empty store from the chunk form [`RouteTable::encode`]
    /// writes: a chunk count, then per chunk its `ends` and its pipes as
    /// `u32` runs, each copied in bulk into the chunk's two buffers.
    fn fill_chunks(&mut self, r: &mut ByteReader) -> Result<(), CodecError> {
        use CodecError::Invalid;
        // A chunk is at least its two count prefixes; the tail is always
        // written, and only ever short of full (a full one is sealed).
        let chunks = r.get_count(<(Vec<u32>, Vec<u32>)>::MIN_BYTES)?;
        if chunks == 0 || (chunks - 1) * ROUTE_CHUNK >= NO_ROUTE as usize {
            return Err(Invalid(
                "route store has no tail chunk, or more routes than ids",
            ));
        }
        self.sealed.reserve_exact(chunks - 1);
        let mut bound = 0;
        for at in 1..=chunks {
            let ends = r.get_u32s()?;
            let (full, tail) = (ends.len() == ROUTE_CHUNK, at == chunks);
            if ends.len() > ROUTE_CHUNK || full == tail {
                return Err(Invalid(
                    "every chunk is full, except the tail, which is not",
                ));
            }
            if ends.windows(2).any(|pair| pair[0] > pair[1]) {
                return Err(Invalid("a chunk's route ends decrease"));
            }
            let words = r.get_count(u32::MIN_BYTES)?;
            if ends.last().map_or(0, |&end| end as usize) != words {
                return Err(Invalid("a chunk's last route end is not its pipe count"));
            }
            let words = r.take_bytes(words * 4)?.chunks_exact(4);
            let pipes = words.map(|word| {
                let pipe = u32::from_le_bytes(word.try_into().expect("4-byte chunk")) as usize;
                bound = bound.max(pipe + 1);
                PipeId(pipe)
            });
            let chunk = Chunk {
                ends,
                pipes: pipes.collect(),
            };
            match tail {
                true => self.tail = chunk,
                false => self.sealed.push(Arc::new(chunk)),
            }
        }
        self.pipe_bound = bound;
        Ok(())
    }
}

/// Content → first-id index over the route store: one flat open-addressed
/// table of `(fingerprint, id)` slots (`id == NO_ROUTE`: empty), a power of
/// two long, linear probing, load ≤ 3/4. It holds no route content: a probe
/// ([`RouteStore::find`]) that meets its fingerprint **verifies against
/// the table's own store** (`store.get(id) == pipes`), so a collision
/// costs one more comparison and can never alias two routes. Inserts only
/// follow a failed probe, hence first-id-wins. The fingerprint is a fixed
/// function of the pipe sequence (no seed, no per-process state) and slot
/// order is never observable: lookups return ids, nothing iterates.
///
/// Copying it for a generation that interns new content is a flat memcpy
/// of 16 B per slot — 4/3 to 8/3 slots per route, so under 43 B a route.
#[derive(Debug, Clone, Default)]
struct ContentIndex {
    slots: Vec<(u64, u32)>,
    /// Occupied slots.
    len: usize,
    /// Test-only: fold every sequence to the same fingerprint, forcing
    /// every probe through the verify-against-store path.
    #[cfg(test)]
    degenerate: bool,
}

impl ContentIndex {
    /// The fixed multiplicative fold of a pipe sequence.
    fn fingerprint(&self, pipes: &[PipeId]) -> u64 {
        #[cfg(test)]
        if self.degenerate {
            return 0;
        }
        pipes.iter().fold(pipes.len() as u64, |h, p| {
            (h.rotate_left(5) ^ p.index() as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
        })
    }

    /// First slot of a fingerprint's probe sequence: its top bits, the
    /// best-mixed ones of a multiplicative fold.
    fn home(&self, fingerprint: u64) -> usize {
        (fingerprint >> (64 - self.slots.len().trailing_zeros())) as usize
    }

    /// Walks `fingerprint`'s probe sequence: the first id under that
    /// fingerprint whose stored route (read through `content`) is `pipes`,
    /// or the free slot the sequence ends at. The table has slots: it is
    /// only ever built by [`RouteStore::build_index`], which reserves some.
    fn probe<'s>(
        &self,
        fingerprint: u64,
        pipes: &[PipeId],
        content: impl Fn(u32) -> &'s [PipeId],
        probes: &mut u64,
    ) -> Result<RouteId, usize> {
        let mut at = self.home(fingerprint);
        loop {
            let (slot_fingerprint, id) = self.slots[at];
            *probes += 1;
            if id == NO_ROUTE {
                return Err(at);
            }
            if slot_fingerprint == fingerprint {
                *probes += 1;
                if content(id) == pipes {
                    return Ok(RouteId(id));
                }
            }
            at = (at + 1) & (self.slots.len() - 1);
        }
    }

    /// Makes room for `extra` more entries at load ≤ 3/4, rehashing at most
    /// once.
    fn reserve(&mut self, extra: usize) {
        let entries = self.len + extra;
        if entries * 4 > self.slots.len() * 3 {
            let grown = (entries * 4 / 3 + 1).next_power_of_two().max(16);
            let old = std::mem::replace(&mut self.slots, vec![(0, NO_ROUTE); grown]);
            for slot in old.into_iter().filter(|slot| slot.1 != NO_ROUTE) {
                self.place(slot);
            }
        }
    }

    /// Records `id` under `fingerprint`. The caller has just failed to find
    /// this content, so no comparison is needed: the entry goes into the
    /// first free slot of its probe sequence.
    fn insert(&mut self, fingerprint: u64, id: RouteId) {
        self.reserve(1);
        self.place((fingerprint, id.0));
        self.len += 1;
    }

    fn place(&mut self, slot: (u64, u32)) {
        let mut at = self.home(slot.0);
        while self.slots[at].1 != NO_ROUTE {
            at = (at + 1) & (self.slots.len() - 1);
        }
        self.slots[at] = slot;
    }
}

/// Endpoint ⇄ location geometry: the distinct locations in deterministic
/// first-appearance order, and which endpoints are live at each. Shared by
/// every table generation over the same binding, so rewires pay no per-call
/// grouping rebuild. The per-slot endpoint lists are `Arc`-shared so a churn
/// publish that rebinds one endpoint clones O(locations) handles plus the
/// one mutated list — not the whole per-endpoint geometry.
#[derive(Debug, Default, Clone)]
struct LocationIndex {
    /// Distinct locations in first-appearance order.
    locations: Vec<NodeId>,
    /// Node index → location slot ([`NO_SLOT`]: no location there), dense up
    /// to the highest located node: a lookup is one load, like the matrix's
    /// own node → VN table, and a rewire resolves only the locations its
    /// changed pairs name.
    slot_of_node: Vec<u32>,
    /// Endpoint indices bound to each location slot, strictly ascending.
    /// Departed endpoints are removed from their list; the slot itself
    /// persists once created.
    endpoints: Vec<Arc<[u32]>>,
}

/// "No location at this node" in [`LocationIndex::slot_of_node`].
const NO_SLOT: u32 = u32::MAX;

impl LocationIndex {
    /// Builds the geometry, also returning each endpoint's location slot
    /// (the table's column map).
    fn build(locations: &[NodeId]) -> (Self, Vec<u32>) {
        let mut idx = LocationIndex::default();
        let mut lists: Vec<Vec<u32>> = Vec::new();
        let mut slot_of_endpoint = Vec::with_capacity(locations.len());
        for (e, &loc) in locations.iter().enumerate() {
            let slot = idx.slot_of(loc).unwrap_or_else(|| {
                lists.push(Vec::new());
                idx.add_location(loc)
            });
            lists[slot as usize].push(e as u32);
            slot_of_endpoint.push(slot);
        }
        idx.endpoints = lists.into_iter().map(Arc::from).collect();
        (idx, slot_of_endpoint)
    }

    /// The slot of the location at `node`, if there is one.
    #[inline]
    fn slot_of(&self, node: NodeId) -> Option<u32> {
        let slot = self.slot_of_node.get(node.index()).copied();
        slot.filter(|&slot| slot != NO_SLOT)
    }

    /// Appends `node` as a new location (the caller has checked it is not
    /// one yet, and pushes its endpoint list) and returns its slot.
    fn add_location(&mut self, node: NodeId) -> u32 {
        let slot = self.locations.len() as u32;
        self.locations.push(node);
        if self.slot_of_node.len() <= node.index() {
            self.slot_of_node.resize(node.index() + 1, NO_SLOT);
        }
        self.slot_of_node[node.index()] = slot;
        slot
    }

    /// Each location slot's dense index in `matrix` (`None`: not a VN
    /// there), resolved once so per-pair work is pure array indexing.
    fn vn_of_slot(&self, matrix: &RoutingMatrix) -> Vec<Option<usize>> {
        self.locations
            .iter()
            .map(|&loc| matrix.vn_index(loc))
            .collect()
    }
}

/// Chunks a flat vector into shared blocks of [`BLOCK_ROWS`] entries (the
/// last block may be short).
fn blocks_from_flat<T: Clone>(flat: Vec<T>) -> Vec<Arc<[T]>> {
    flat.chunks(BLOCK_ROWS).map(Arc::from).collect()
}

/// Mutable access to one block, copy-on-write: a block shared with another
/// table generation is copied once (row shards are cloned — their slot
/// allocations stay shared), an unshared block is written in place.
fn block_mut<T: Clone>(blocks: &mut [Arc<[T]>], block: usize) -> &mut [T] {
    if Arc::get_mut(&mut blocks[block]).is_none() {
        blocks[block] = Arc::from(&blocks[block][..]);
    }
    Arc::get_mut(&mut blocks[block]).expect("block was just unshared")
}

/// Appends one entry, copying at most the (short) tail block.
fn push_entry<T: Clone>(blocks: &mut Vec<Arc<[T]>>, value: T) {
    match blocks.last_mut() {
        Some(last) if last.len() < BLOCK_ROWS => {
            let mut copy = last.to_vec();
            copy.push(value);
            *last = Arc::from(copy);
        }
        _ => blocks.push(Arc::from(vec![value])),
    }
}

/// The raw id of the matrix's current route between two VN indices,
/// interned (through `intern`) on first sight; `NO_ROUTE` when an end is not
/// a matrix VN or the destination is unreachable. `pipes` is the reusable
/// buffer the tree-only matrix walks the route into — only a content-index
/// miss copies it out.
#[inline]
fn resolve(
    matrix: &RoutingMatrix,
    ms: Option<usize>,
    md: Option<usize>,
    pipes: &mut Vec<PipeId>,
    intern: &mut impl FnMut(&[PipeId]) -> RouteId,
) -> u32 {
    match (ms, md) {
        (Some(ms), Some(md)) if matrix.materialize_at(ms, md, pipes) => intern(pipes).0,
        _ => NO_ROUTE,
    }
}

/// Derives location slot `si`'s row from the matrix: one column per other
/// slot with a live endpoint (same-location pairs stay local, never routed).
/// `bufs` are scratch: the route walked, the row at full width.
fn derive_row(
    matrix: &RoutingMatrix,
    locs: &LocationIndex,
    vn_of_slot: &[Option<usize>],
    si: usize,
    (pipes, ids): &mut (Vec<PipeId>, Vec<u32>),
    intern: &mut impl FnMut(&[PipeId]) -> RouteId,
) -> RowShard {
    ids.clear();
    ids.resize(vn_of_slot.len(), NO_ROUTE);
    if let Some(ms) = vn_of_slot[si] {
        for (di, id) in ids.iter_mut().enumerate() {
            if di != si && !locs.endpoints[di].is_empty() {
                *id = resolve(matrix, Some(ms), vn_of_slot[di], pipes, intern);
            }
        }
    }
    RowShard::from_window(0, ids)
}

/// Memory accounting snapshot for a [`RouteTable`] (see
/// [`RouteTable::memory`]). `resident_bytes` is a structural estimate
/// (requested capacities; allocator headers are not counted) meant for
/// order-of-magnitude comparison against `dense_equivalent_bytes`, the
/// `endpoint_count² × 4` bytes a dense pair table would spend.
#[derive(Debug, Clone, Copy, Default)]
pub struct RouteStateMemory {
    /// Estimated heap bytes held by the table (rows, columns, route store,
    /// content and location indexes).
    pub resident_bytes: usize,
    /// What a dense `endpoint_count²` pair table would spend on the pair
    /// mapping alone.
    pub dense_equivalent_bytes: usize,
    /// Locations whose row spilled to a heap allocation.
    pub distinct_row_allocations: usize,
    /// Locations whose row is stored inline (no heap allocation).
    pub inline_rows: usize,
}

/// Copy-on-write route lookup state for one emulation, one row per location.
#[derive(Debug, Clone, Default)]
pub struct RouteTable {
    /// Each distinct route, stored once, in structurally shared chunks,
    /// with the content index over them (pipe sequence → first id with that
    /// content), carried forward structurally so incremental rewires
    /// reuse any retained route — a restored link maps back to its
    /// pre-failure `RouteId` instead of growing the table on every flap.
    store: Arc<RouteStore>,
    /// One row shard per location slot, page-grouped into shared blocks of
    /// [`BLOCK_ROWS`] rows: `rows[slot / BLOCK_ROWS][slot % BLOCK_ROWS]`.
    /// The row of a location with no live endpoint is `Empty`.
    rows: Vec<Arc<[RowShard]>>,
    endpoint_count: usize,
    /// Each endpoint's location slot, with [`DEPARTED`] set while it is
    /// unbound — all there is to an endpoint. Blocked and shared like the
    /// rows, so a churn publish that adds or rebinds one endpoint copies at
    /// most one [`BLOCK_ROWS`]-entry block instead of the whole map.
    cols: Vec<Arc<[u32]>>,
    /// Content-index work done for this table and the generations it was
    /// cloned from (see [`RouteTable::content_index_probes`]).
    index_probes: u64,
    /// Endpoint/location geometry, shared across generations.
    locs: Arc<LocationIndex>,
    /// Bumped by every rewire, bind and unbind, so drivers and tests can
    /// observe that a routing change took effect.
    version: u64,
}

impl RouteTable {
    /// Creates a table over `endpoint_count` endpoints, each at a location
    /// of its own (`NodeId(i)` for endpoint `i`), all pairs unroutable.
    /// Routes are added with [`RouteTable::intern`] and wired to pairs with
    /// [`RouteTable::set_pair`].
    pub fn new(endpoint_count: usize) -> Self {
        let own: Vec<NodeId> = (0..endpoint_count).map(NodeId).collect();
        let mut table = Self::rowless(&own);
        table.rows = blocks_from_flat(vec![RowShard::Empty; endpoint_count]);
        table
    }

    /// A table over the given binding with no rows yet: [`RouteTable::new`]
    /// gives every location an empty one, `derive_rows` derives them.
    fn rowless(locations: &[NodeId]) -> Self {
        let (locs, slot_of_endpoint) = LocationIndex::build(locations);
        RouteTable {
            store: Arc::default(),
            rows: Vec::new(),
            endpoint_count: locations.len(),
            cols: blocks_from_flat(slot_of_endpoint),
            index_probes: 0,
            locs: Arc::new(locs),
            version: 0,
        }
    }

    /// The row shard of a location slot (`None` out of range).
    #[inline]
    fn row(&self, slot: usize) -> Option<&RowShard> {
        self.rows.get(slot / BLOCK_ROWS)?.get(slot % BLOCK_ROWS)
    }

    /// The column entry of an endpoint (`None` out of range): its location
    /// slot, with [`DEPARTED`] set while it is unbound.
    #[inline]
    fn col(&self, endpoint: usize) -> Option<u32> {
        self.cols
            .get(endpoint / BLOCK_ROWS)?
            .get(endpoint % BLOCK_ROWS)
            .copied()
    }

    /// The location slot a live endpoint is bound at (`None` out of range
    /// or departed). One load, no search: liveness is a bit of the column.
    #[inline]
    fn live_slot(&self, endpoint: usize) -> Option<usize> {
        self.col(endpoint)
            .filter(|col| col & DEPARTED == 0)
            .map(|col| col as usize)
    }

    /// The row a live endpoint reads: its location's.
    #[inline]
    fn live_row(&self, endpoint: usize) -> Option<&RowShard> {
        self.row(self.live_slot(endpoint)?)
    }

    /// Replaces one location's row shard, copy-on-write on its block.
    fn set_row(&mut self, slot: usize, shard: RowShard) {
        block_mut(&mut self.rows, slot / BLOCK_ROWS)[slot % BLOCK_ROWS] = shard;
    }

    /// Overwrites one endpoint's column entry, copy-on-write on its block.
    fn set_col(&mut self, endpoint: usize, col: u32) {
        block_mut(&mut self.cols, endpoint / BLOCK_ROWS)[endpoint % BLOCK_ROWS] = col;
    }

    /// Flattens a routing matrix for the given endpoint locations:
    /// `locations[i]` is the topology node endpoint `i` is bound to. Each
    /// distinct location pair's route is interned once into the source
    /// location's row, and every endpoint bound there reads that row — the
    /// pair mapping costs O(locations²) plus 4 B per endpoint, not
    /// O(endpoints²). Same-location pairs stay unroutable — callers deliver
    /// those locally without touching a route.
    pub fn build(matrix: &RoutingMatrix, locations: &[NodeId]) -> Self {
        let mut table = Self::rowless(locations);
        table.derive_rows(matrix);
        table
    }

    /// Derives every location's row of a still rowless table, in slot
    /// order (which fixes the order routes are interned in), appending to a
    /// store unshared once, with no probe: no two location pairs share a
    /// route (see the module docs), so each is new content.
    fn derive_rows(&mut self, matrix: &RoutingMatrix) {
        let locs = Arc::clone(&self.locs);
        let vn_of_slot = locs.vn_of_slot(matrix);
        let mut bufs = (Vec::new(), Vec::new());
        let store = Arc::make_mut(&mut self.store);
        debug_assert!(store.len() == 0 && store.index.get().is_none());
        let mut append = |pipes: &[PipeId]| store.append(pipes, None);
        let rows = (0..locs.locations.len())
            .map(|si| derive_row(matrix, &locs, &vn_of_slot, si, &mut bufs, &mut append));
        self.rows = blocks_from_flat(rows.collect());
    }

    /// Re-wires only the given changed location pairs against the updated
    /// matrix, retaining every existing route id — the one way a built
    /// table follows a routing change, driven by
    /// [`RoutingMatrix::update_pipes`](crate::RoutingMatrix::update_pipes).
    /// A new route whose pipe sequence already exists (e.g. a restored link
    /// bringing back the pre-failure path) resolves to its old id, so
    /// oscillating links do not grow the table. Untouched rows — and the
    /// `RouteId`s of descriptors in flight on them — are not visited at
    /// all, and keep literally the same allocation; a touched row is
    /// patched once per run of `changed` pairs naming its location as the
    /// source (`update_pipes` lists a source's pairs together: once),
    /// however many endpoints are bound there.
    pub fn rewire_in_place(
        &mut self,
        matrix: &RoutingMatrix,
        locations: &[NodeId],
        changed: &[(NodeId, NodeId)],
    ) {
        assert_eq!(
            locations.len(),
            self.endpoint_count,
            "locations must match the endpoint set the table was built over"
        );
        if changed.is_empty() {
            return;
        }
        // The table's own geometry is authoritative — callers must pass the
        // binding it was built over. The element-wise check is O(endpoints),
        // which would dominate an O(changed) rewire at high multiplexing, so
        // it guards debug builds only.
        debug_assert!(
            self.geometry_matches(locations),
            "rewire_in_place locations must match the geometry the table was built over"
        );
        let locs = Arc::clone(&self.locs);
        let mut patches: Vec<(usize, u32)> = Vec::new();
        let mut pipes = Vec::new();
        // One row patch per run of pairs sharing a source, in the order
        // given: `RoutingMatrix::update_pipes` reports a recomputed tree's
        // pairs together. Every step is a load keyed by a node the pairs
        // name — nothing here is sized by the location or VN count.
        for run in changed.chunk_by(|a, b| a.0 == b.0) {
            let src_loc = run[0].0;
            let Some(ss) = locs.slot_of(src_loc) else {
                continue; // no endpoint ever bound there: nothing to rewire
            };
            let ms = matrix.vn_index(src_loc);
            patches.clear();
            for &(_, dst_loc) in run {
                if dst_loc == src_loc {
                    continue; // same-location pairs stay local, never routed
                }
                let Some(ds) = locs.slot_of(dst_loc) else {
                    continue;
                };
                // Resolved (and interned) even when nothing will read it, so
                // `RouteId`s never depend on which locations are populated.
                let md = matrix.vn_index(dst_loc);
                let raw = resolve(matrix, ms, md, &mut pipes, &mut |p| self.intern_pipes(p));
                if !locs.endpoints[ds as usize].is_empty() {
                    patches.push((ds as usize, raw));
                }
            }
            if !locs.endpoints[ss as usize].is_empty() {
                self.patch_row(ss as usize, &patches);
            }
        }
        self.version += 1;
    }

    /// The geometry invariant the rewire path relies on: every endpoint
    /// listed under a location slot is actually bound there. Departed
    /// endpoints are in no list, so they are (correctly) exempt.
    fn geometry_matches(&self, locations: &[NodeId]) -> bool {
        locations.len() == self.endpoint_count
            && self.locs.endpoints.iter().enumerate().all(|(s, list)| {
                list.iter()
                    .all(|&e| locations.get(e as usize) == Some(&self.locs.locations[s]))
            })
    }

    /// Patches one location's row; a no-op patch leaves the shard (and its
    /// block) untouched.
    fn patch_row(&mut self, slot: usize, patches: &[(usize, u32)]) {
        let row = self.row(slot).expect("location slot in range");
        if let Some(patched) = row.patched(patches) {
            self.set_row(slot, patched);
        }
    }

    /// Binds `endpoint` at `location` — the join half of live endpoint
    /// churn. `endpoint` must be either the next fresh index
    /// (`endpoint_count`, growing the table by one column entry) or a
    /// previously unbound index rejoining.
    ///
    /// A join at a location that already has a live endpoint is **one
    /// column write**: the newcomer reads the location's row. A join at a
    /// fresh or fully departed location derives that one row from the matrix
    /// and refreshes the location's destination column in the other live
    /// locations' rows (O(locations) patches — flat in the endpoint count).
    /// Route ids are append-only throughout, so descriptors in flight keep
    /// resolving.
    ///
    /// Returns `false` (changing nothing) when the endpoint is already
    /// bound or the index is non-contiguous.
    pub fn bind_endpoint(
        &mut self,
        matrix: &RoutingMatrix,
        endpoint: usize,
        location: NodeId,
    ) -> bool {
        if endpoint > self.endpoint_count || self.is_endpoint_bound(endpoint) {
            return false;
        }
        // Resolve (or create) the location slot and insert the endpoint
        // into its (shared) ascending list.
        let locs = Arc::make_mut(&mut self.locs);
        let slot = locs.slot_of(location).unwrap_or_else(|| {
            locs.endpoints.push(Arc::from(Vec::new()));
            push_entry(&mut self.rows, RowShard::Empty);
            locs.add_location(location)
        }) as usize;
        let list = &locs.endpoints[slot];
        let first_here = list.is_empty();
        let mut grown = list.to_vec();
        grown.insert(
            list.partition_point(|&e| (e as usize) < endpoint),
            endpoint as u32,
        );
        locs.endpoints[slot] = grown.into();
        if endpoint == self.endpoint_count {
            push_entry(&mut self.cols, slot as u32);
            self.endpoint_count += 1;
        } else {
            self.set_col(endpoint, slot as u32);
        }
        if first_here {
            // First live endpoint at this location: derive its row from the
            // matrix. The other rows' columns toward it are either absent
            // (new slot) or stale (routing changed while it was fully
            // departed) — refresh them, one patch per live source location.
            let locs = Arc::clone(&self.locs);
            let vn_of_slot = locs.vn_of_slot(matrix);
            let mut bufs = (Vec::new(), Vec::new());
            let mut intern = |p: &[PipeId]| self.intern_pipes(p);
            let row = derive_row(matrix, &locs, &vn_of_slot, slot, &mut bufs, &mut intern);
            self.set_row(slot, row);
            for si in 0..locs.locations.len() {
                if si != slot && !locs.endpoints[si].is_empty() {
                    let (ms, md) = (vn_of_slot[si], vn_of_slot[slot]);
                    let raw = resolve(matrix, ms, md, &mut bufs.0, &mut |p| self.intern_pipes(p));
                    self.patch_row(si, &[(slot, raw)]);
                }
            }
        }
        self.version += 1;
        true
    }

    /// Unbinds `endpoint` — the leave half of live endpoint churn: its
    /// column entry is marked departed (new lookups from it fail) and it
    /// leaves its location's endpoint list. No row is touched unless it
    /// was the last endpoint there, in which case the location's row is
    /// cleared. Everything else — including the other rows' columns toward
    /// it and every interned route a descriptor in flight may still
    /// reference — is retained, which is what makes the departure drain
    /// deterministic. O(1) blocks touched.
    ///
    /// Returns `false` when the endpoint is out of range or not bound.
    pub fn unbind_endpoint(&mut self, endpoint: usize) -> bool {
        let Some(slot) = self.live_slot(endpoint) else {
            return false;
        };
        let list = &mut Arc::make_mut(&mut self.locs).endpoints[slot];
        let shrunk: Vec<u32> = list
            .iter()
            .copied()
            .filter(|&e| e as usize != endpoint)
            .collect();
        let emptied = shrunk.is_empty();
        *list = shrunk.into();
        if emptied {
            self.set_row(slot, RowShard::Empty);
        }
        self.set_col(endpoint, slot as u32 | DEPARTED);
        self.version += 1;
        true
    }

    /// `true` when the endpoint is currently bound at some location.
    pub fn is_endpoint_bound(&self, endpoint: usize) -> bool {
        self.live_slot(endpoint).is_some()
    }

    /// The location `endpoint` is bound at — or, once departed, was last
    /// bound at (`None` out of range).
    pub fn endpoint_location(&self, endpoint: usize) -> Option<NodeId> {
        let slot = self.col(endpoint)? & !DEPARTED;
        Some(self.locs.locations[slot as usize])
    }

    /// `true` when at least one live endpoint is bound at `location`.
    pub fn has_endpoints_at(&self, location: NodeId) -> bool {
        let slot = self.locs.slot_of(location);
        slot.is_some_and(|s| !self.locs.endpoints[s as usize].is_empty())
    }

    /// The id of the route with exactly this pipe sequence, interning it
    /// first if the table has never seen the content — the one way routes
    /// enter the table from a matrix. One fingerprint, one probe; only a
    /// miss unshares the store (a publish-shared one is copied here, once
    /// per generation), copies `pipes` into the arena and inserts under the
    /// same fingerprint.
    pub fn intern_pipes(&mut self, pipes: &[PipeId]) -> RouteId {
        match self.store.find(pipes, &mut self.index_probes) {
            (_, Some(known)) => known,
            (fingerprint, None) => Arc::make_mut(&mut self.store).append(pipes, Some(fingerprint)),
        }
    }

    /// Stores a route and returns a **fresh** handle even when the content
    /// is already interned; the content index keeps the first id interned
    /// for any given pipe sequence, so later rewires dedup against it.
    /// Callers wiring pairs by hand are still responsible for reusing ids
    /// where they want sharing (see [`RouteTable::build`]).
    pub fn intern(&mut self, pipes: &[PipeId]) -> RouteId {
        let (fingerprint, known) = self.store.find(pipes, &mut self.index_probes);
        Arc::make_mut(&mut self.store).append(pipes, known.is_none().then_some(fingerprint))
    }

    /// Monotonic change counter, bumped by every rewire.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Wires the ordered *location* pair two endpoints are bound at to an
    /// interned route, growing the source row's window as needed: the wire
    /// covers every endpoint co-located with `src` and with `dst`.
    ///
    /// # Panics
    ///
    /// Panics if `src` is out of range or departed, `dst` is out of range,
    /// or the route id is.
    pub fn set_pair(&mut self, src: usize, dst: usize, id: RouteId) {
        let src = self.live_slot(src).expect("src endpoint out of range");
        let dst = self.col(dst).expect("dst endpoint out of range") & !DEPARTED;
        assert!(id.index() < self.route_count(), "route id out of range");
        self.patch_row(src, &[(dst as usize, id.0)]);
    }

    /// The route for an ordered endpoint pair, or `None` if the pair is
    /// unroutable, the source is departed or either index is out of range.
    /// This is the per-packet lookup: a fixed chain of indexed loads — both
    /// columns, block, row shard, slot (inline rows resolve the slot inside
    /// the already-loaded shard) — with no hashing and no allocation. A
    /// departed *destination* still resolves: descriptors in flight toward
    /// it drain on their routes.
    #[inline]
    pub fn route_id(&self, src: usize, dst: usize) -> Option<RouteId> {
        let col = self.col(dst)? & !DEPARTED;
        match self.live_row(src)?.raw(col as usize) {
            NO_ROUTE => None,
            id => Some(RouteId(id)),
        }
    }

    /// The pipe sequence of an interned route (the per-hop access).
    ///
    /// # Panics
    ///
    /// Panics if the id did not come from this table.
    #[inline]
    pub fn pipes(&self, id: RouteId) -> &[PipeId] {
        self.store.get(id.index())
    }

    /// [`RouteTable::route_id`] and its route's first pipe (`None` for an
    /// empty route too): the admission lookup, columns → row → chunk → pipe.
    #[inline]
    pub fn first_hop(&self, src: usize, dst: usize) -> Option<(RouteId, PipeId)> {
        let id = self.route_id(src, dst)?;
        Some((id, *self.pipes(id).first()?))
    }

    /// Number of distinct routes stored.
    pub fn route_count(&self) -> usize {
        self.store.len()
    }

    /// Number of endpoints the column map covers.
    pub fn endpoint_count(&self) -> usize {
        self.endpoint_count
    }

    /// `true` when the row `src` reads (its location's) is literally the
    /// same storage in `self` and `other`: a shared heap allocation for
    /// spilled rows, a bit-identical allocation-free form for inline/empty
    /// rows. `false` when `src` is not live in both. Diagnostic for the
    /// copy-on-write publish tests.
    pub fn row_storage_shared(&self, other: &RouteTable, src: usize) -> bool {
        matches!((self.live_row(src), other.live_row(src)), (Some(a), Some(b)) if a.same_storage(b))
    }

    /// Running total of content-index work — slots inspected plus store
    /// comparisons over every lookup this table and its ancestors made.
    /// Exact and deterministic, so tests can state lookup cost as a count.
    #[doc(hidden)]
    pub fn content_index_probes(&self) -> u64 {
        self.index_probes
    }

    /// Serialises the table for a checkpoint, in the form it is held in:
    /// the route arena chunk by chunk — each chunk's `ends`, then its pipes
    /// narrowed to `u32`, as two bulk runs — one row shard **per location
    /// slot**, verbatim (window geometry included, so a restored row
    /// patches exactly like the captured one), then the column map without
    /// the departed bits, the location geometry and the version. The
    /// content-dedup index is not written — it is a pure function of the
    /// store, rebuilt first-id-wins by the restored table's first lookup.
    /// The layout is written out rather than declared: the arena goes out
    /// as it lies in memory, and what [`RouteTable::decode`] checks spans
    /// sections (chunk ends against pipe runs, rows against the store and
    /// the columns, endpoint lists against the columns).
    pub fn encode(&self, w: &mut ByteWriter) {
        assert!(self.store.pipe_bound as u64 <= 1 << 32, "pipe ids fit u32");
        w.put_usize(self.endpoint_count);
        w.put_u64(self.version);
        w.put_len(self.store.sealed.len() + 1);
        for chunk in self.store.chunks() {
            w.put_u32s(&chunk.ends);
            w.put_u32s_from(chunk.pipes.iter().map(|p| p.index() as u32));
        }
        w.put_len(self.locs.locations.len());
        for block in &self.rows {
            block.iter().for_each(|row| row.put(w));
        }
        for e in 0..self.endpoint_count {
            w.put_u32(self.col(e).expect("endpoint in range") & !DEPARTED);
        }
        for &loc in &self.locs.locations {
            w.put_usize(loc.index());
        }
        for list in &self.locs.endpoints {
            w.put_u32s(list);
        }
    }

    /// The bytes [`RouteTable::encode`] writes, from lengths alone —
    /// O(chunks + locations) — so a first checkpoint is one allocation.
    pub fn encoded_len(&self) -> usize {
        let chunks = self.store.chunks();
        let store: usize = chunks
            .map(|c| 16 + 4 * (c.ends.len() + c.pipes.len()))
            .sum();
        let rows = self.rows.iter().flat_map(|block| block.iter());
        let rows: usize = rows.map(RowShard::encoded_len).sum();
        let lists = self.locs.endpoints.iter();
        let geometry: usize = lists.map(|list| 16 + 4 * list.len()).sum();
        32 + store + rows + 4 * self.endpoint_count + geometry
    }

    /// Rebuilds a table from bytes produced by [`RouteTable::encode`].
    /// Route ids are the positions the routes were interned at, so every
    /// stored id — including the ones descriptors in flight carry — keeps
    /// resolving to the same route, and re-encoding the result reproduces
    /// the input byte for byte.
    ///
    /// Nothing read is trusted, and every invariant the table relies on is
    /// checked here rather than where it is used: counts are bounded by the
    /// bytes left; every chunk but the last is full, the last is not, each
    /// chunk's `ends` never decrease and finish on its pipe count; route
    /// ids, row windows and columns are range-checked; locations are
    /// distinct; each location's endpoint list is strictly ascending and
    /// names only endpoints whose column is that location; a location with
    /// no endpoint carries no row. A damaged snapshot is a typed error
    /// here, not a panic or a wrong answer on the forwarding path later.
    pub fn decode(r: &mut ByteReader) -> Result<Self, CodecError> {
        use CodecError::Invalid;
        // An endpoint is at least its column.
        let endpoint_count = r.get_count(u32::MIN_BYTES)?;
        let version = u64::get(r)?;
        let mut store = RouteStore::default();
        store.fill_chunks(r)?;
        let route_count = store.len();
        // A location is its row tag, its node and the count of its endpoint
        // list.
        let slots = r.get_count(<(RowShard, NodeId, Vec<u32>)>::MIN_BYTES)?;
        let mut rows = Vec::with_capacity(slots);
        for _ in 0..slots {
            rows.push(RowShard::get(r)?);
        }
        let mut cols_flat = Vec::with_capacity(endpoint_count);
        for _ in 0..endpoint_count {
            cols_flat.push(u32::get(r)?);
        }
        if slots > DEPARTED as usize || cols_flat.iter().any(|&c| c as usize >= slots) {
            return Err(Invalid("column is not a location slot"));
        }
        // A location's node index sizes the dense node → slot map, so it is
        // bounded like a count, by the bytes left: eight nodes a byte (the
        // matrix that follows in an emulator's snapshot alone spends four
        // bytes on every node).
        let node_limit = r.remaining().saturating_mul(8);
        let mut locs = LocationIndex::default();
        for _ in 0..slots {
            let loc = NodeId::get(r)?;
            if loc.index() >= node_limit {
                return Err(Invalid("location node index beyond the input"));
            }
            if locs.slot_of(loc).is_some() {
                return Err(Invalid("location listed twice"));
            }
            locs.add_location(loc);
        }
        // Every endpoint is departed until its location's list claims it.
        cols_flat.iter_mut().for_each(|c| *c |= DEPARTED);
        for (slot, row) in (0..).zip(&rows) {
            let list = Vec::<u32>::get(r)?;
            if list.windows(2).any(|pair| pair[0] >= pair[1]) {
                return Err(Invalid("location's endpoints are not strictly ascending"));
            }
            for &e in &list {
                match cols_flat.get_mut(e as usize) {
                    Some(col) if *col == slot | DEPARTED => *col = slot,
                    _ => return Err(Invalid("location lists an endpoint not bound there")),
                }
            }
            if list.is_empty() && *row != RowShard::Empty {
                return Err(Invalid("location without endpoints carries a row"));
            }
            row.check(route_count, slots)?;
            locs.endpoints.push(Arc::from(list));
        }
        Ok(RouteTable {
            store: Arc::new(store),
            rows: blocks_from_flat(rows),
            endpoint_count,
            cols: blocks_from_flat(cols_flat),
            index_probes: 0,
            locs: Arc::new(locs),
            version,
        })
    }

    /// One past the largest pipe id any interned route names (0 when no
    /// route has a pipe): what a restore checks against the pipes the
    /// emulator actually has, tracked as routes are appended or decoded.
    pub fn pipe_bound(&self) -> usize {
        self.store.pipe_bound
    }

    /// Memory accounting for the route state (see [`RouteStateMemory`]).
    /// Walks the structure; intended for benchmarks and reports, not the
    /// hot path.
    pub fn memory(&self) -> RouteStateMemory {
        use std::mem::size_of;
        const ARC_HEADER: usize = 16; // strong + weak counts
        let mut mem = RouteStateMemory {
            dense_equivalent_bytes: self.endpoint_count * self.endpoint_count * 4,
            ..RouteStateMemory::default()
        };
        // Rows: the block table, the blocks themselves (each counted once —
        // generations share them, but one table owns each at least once),
        // and each spilled slot allocation.
        let mut bytes = self.rows.capacity() * size_of::<Arc<[RowShard]>>();
        for block in &self.rows {
            bytes += block.len() * size_of::<RowShard>() + ARC_HEADER;
            for row in block.iter() {
                match row {
                    RowShard::Empty => {}
                    RowShard::Inline { .. } => mem.inline_rows += 1,
                    RowShard::Spilled { slots, .. } => {
                        mem.distinct_row_allocations += 1;
                        bytes += slots.len() * 4 + ARC_HEADER;
                    }
                }
            }
        }
        // The store, from capacities: its own block, the chunk table, each
        // chunk's `Arc` and two buffers, and the content index's slots (none
        // until a first lookup builds it).
        let store = &*self.store;
        bytes += ARC_HEADER + size_of::<RouteStore>();
        bytes += store.sealed.capacity() * size_of::<Arc<Chunk>>();
        bytes += store.sealed.len() * (ARC_HEADER + size_of::<Chunk>());
        for chunk in store.chunks() {
            bytes += chunk.ends.capacity() * 4 + chunk.pipes.capacity() * size_of::<PipeId>();
        }
        let index_slots = store.index.get().map_or(0, |index| index.slots.capacity());
        bytes += index_slots * size_of::<(u64, u32)>();
        // Column map (blocked and shared like the rows).
        bytes += self.cols.capacity() * size_of::<Arc<[u32]>>();
        bytes += self
            .cols
            .iter()
            .map(|b| b.len() * 4 + ARC_HEADER)
            .sum::<usize>();
        // Location geometry.
        let locs = &*self.locs;
        bytes += locs.locations.capacity() * size_of::<NodeId>() + locs.slot_of_node.capacity() * 4;
        let lists = locs.endpoints.iter();
        bytes += lists
            .map(|v| v.len() * 4 + ARC_HEADER + size_of::<Arc<[u32]>>())
            .sum::<usize>();
        mem.resident_bytes = bytes;
        mem
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mn_distill::{distill, DistillationMode};
    use mn_topology::generators::{ring_topology, RingParams};
    use proptest::prelude::*;
    use std::collections::HashMap;

    /// A 6-router ring, hop-by-hop, with two endpoints bound at every VN
    /// location (endpoint `i` and `i + 6` share one).
    fn multiplexed_ring() -> (mn_distill::DistilledTopology, RoutingMatrix, Vec<NodeId>) {
        let topo = ring_topology(&RingParams {
            routers: 6,
            clients_per_router: 1,
            ..RingParams::default()
        });
        let d = distill(&topo, DistillationMode::HopByHop);
        let matrix = RoutingMatrix::build(&d);
        let mut locations = d.vns().to_vec();
        locations.extend(d.vns().to_vec());
        (d, matrix, locations)
    }

    fn ring_table() -> (RouteTable, usize) {
        let topo = ring_topology(&RingParams {
            routers: 6,
            clients_per_router: 2,
            ..RingParams::default()
        });
        let d = distill(&topo, DistillationMode::HopByHop);
        let matrix = RoutingMatrix::build(&d);
        let locations = d.vns().to_vec();
        let n = locations.len();
        (RouteTable::build(&matrix, &locations), n)
    }

    #[test]
    fn codec_round_trip_is_byte_stable_and_preserves_lookups() {
        // A multiplexed table (two endpoints per location) exercises shared
        // rows, the column map and the location geometry; a rewire before
        // the checkpoint exercises patched windows and a bumped version.
        let topo = ring_topology(&RingParams {
            routers: 6,
            clients_per_router: 1,
            ..RingParams::default()
        });
        let d = distill(&topo, DistillationMode::HopByHop);
        let mut matrix = RoutingMatrix::build(&d);
        let mut locations = d.vns().to_vec();
        locations.extend(d.vns().to_vec());
        let mut table = RouteTable::build(&matrix, &locations);
        let mut d2 = d.clone();
        let victim = table.pipes(table.route_id(0, 1).unwrap())[0];
        d2.pipe_attrs_mut(victim).unwrap().bandwidth = mn_util::DataRate::ZERO;
        let update = matrix.update_pipes(&d2, &[victim]);
        table.rewire_in_place(&matrix, &locations, &update.changed_pairs);

        let bytes = encoded(&table);
        let mut restored =
            RouteTable::decode(&mut mn_util::ByteReader::new(&bytes)).expect("decodes");

        assert_eq!(bytes, encoded(&restored), "snapshot → restore → snapshot");

        assert_eq!(restored.endpoint_count(), table.endpoint_count());
        assert_eq!(restored.route_count(), table.route_count());
        assert_eq!(restored.version(), table.version());
        let n = table.endpoint_count();
        for s in 0..n {
            for t in 0..n {
                assert_eq!(restored.route_id(s, t), table.route_id(s, t), "{s}->{t}");
                if let Some(id) = table.route_id(s, t) {
                    assert_eq!(restored.pipes(id), table.pipes(id));
                }
            }
        }
        // The restored table rewires identically: restore the failed link
        // and apply the update to both tables.
        let update = matrix.update_pipes(&d, &[victim]);
        table.rewire_in_place(&matrix, &locations, &update.changed_pairs);
        restored.rewire_in_place(&matrix, &locations, &update.changed_pairs);
        assert_eq!(restored.version(), table.version());
        assert_eq!(restored.route_count(), table.route_count());
        for s in 0..n {
            for t in 0..n {
                assert_eq!(restored.route_id(s, t), table.route_id(s, t), "{s}->{t}");
            }
        }
    }

    impl RouteTable {
        /// Every invariant the table's operations rely on, read off the
        /// private state: what `decode` must establish from hostile bytes.
        fn assert_sound(&self) {
            let locs = &self.locs;
            let slots = locs.locations.len();
            assert_eq!(locs.endpoints.len(), slots);
            let located = locs.slot_of_node.iter().filter(|&&s| s != NO_SLOT);
            assert_eq!(located.count(), slots, "locations are distinct");
            for (slot, &loc) in locs.locations.iter().enumerate() {
                assert_eq!(locs.slot_of(loc), Some(slot as u32));
            }
            assert_eq!(self.rows.iter().map(|b| b.len()).sum::<usize>(), slots);
            let cols: Vec<u32> = self.cols.iter().flat_map(|b| b.iter().copied()).collect();
            assert_eq!(cols.len(), self.endpoint_count);
            assert!(cols.iter().all(|&c| ((c & !DEPARTED) as usize) < slots));
            let mut live = 0;
            for (slot, list) in locs.endpoints.iter().enumerate() {
                assert!(list.windows(2).all(|w| w[0] < w[1]), "ascending lists");
                for &e in list.iter() {
                    assert_eq!(cols[e as usize], slot as u32, "listed where bound, live");
                }
                live += list.len();
                let row = self.row(slot).unwrap();
                let (base, width) = row.window();
                assert!(base + width <= slots, "window inside the columns");
                assert!((base..base + width)
                    .all(|c| row.raw(c) == NO_ROUTE || (row.raw(c) as usize) < self.route_count()));
                assert!(!list.is_empty() || matches!(row, RowShard::Empty));
            }
            let departed = cols.iter().filter(|&&c| c & DEPARTED != 0).count();
            assert_eq!(live + departed, self.endpoint_count, "listed or departed");
            let bytes = encoded(self);
            assert_eq!(self.encoded_len(), bytes.len());
            let again = RouteTable::decode(&mut mn_util::ByteReader::new(&bytes)).unwrap();
            assert!(again.store.index.get().is_none(), "no index until a lookup");
            assert_eq!(again.pipe_bound(), self.pipe_bound());
            assert!(bytes == encoded(&again), "encode -> decode -> encode");
        }
    }

    fn encoded(table: &RouteTable) -> Vec<u8> {
        let mut w = mn_util::ByteWriter::new();
        table.encode(&mut w);
        w.into_bytes()
    }

    #[test]
    fn mutated_encodings_decode_to_a_sound_table_or_a_typed_error() {
        // Every single-byte mutation (each bit flipped, the byte zeroed, the
        // byte saturated) of a valid encoding of the multiplexed, rewired
        // ring table with one endpoint departed: decoding may refuse it,
        // but must never panic, and a table it accepts must hold every
        // invariant, answer every lookup without panicking and hold no
        // more memory than a small multiple of the input.
        let (d, mut matrix, locations) = multiplexed_ring();
        let mut table = RouteTable::build(&matrix, &locations);
        let mut d2 = d.clone();
        let victim = table.pipes(table.route_id(0, 1).unwrap())[0];
        d2.pipe_attrs_mut(victim).unwrap().bandwidth = mn_util::DataRate::ZERO;
        let update = matrix.update_pipes(&d2, &[victim]);
        table.rewire_in_place(&matrix, &locations, &update.changed_pairs);
        assert!(table.unbind_endpoint(4));
        table.assert_sound();
        let bytes = encoded(&table);
        let (mut accepted, mut refused) = (0usize, 0usize);
        for at in 0..bytes.len() {
            let flips = (0..8).map(|bit| bytes[at] ^ (1 << bit));
            for value in flips.chain([0x00, 0xFF]) {
                if value == bytes[at] {
                    continue;
                }
                let mut mutated = bytes.clone();
                mutated[at] = value;
                match RouteTable::decode(&mut mn_util::ByteReader::new(&mutated)) {
                    Ok(restored) => {
                        accepted += 1;
                        restored.assert_sound();
                        let n = restored.endpoint_count();
                        assert!(n <= mutated.len(), "byte {at} -> {value:#04x}");
                        for s in 0..n {
                            for t in 0..n {
                                if let Some(id) = restored.route_id(s, t) {
                                    std::hint::black_box(restored.pipes(id));
                                }
                            }
                        }
                        let resident = restored.memory().resident_bytes;
                        assert!(
                            resident <= 64 * mutated.len(),
                            "byte {at} -> {value:#04x}: {resident} B resident"
                        );
                    }
                    Err(mn_util::CodecError::Invalid(_) | mn_util::CodecError::Eof) => refused += 1,
                    Err(other) => panic!("byte {at} -> {value:#04x}: unexpected {other:?}"),
                }
            }
        }
        // Both outcomes occur: pipe ids (32 bits of them) and the version are
        // free-form, every count and index is not.
        assert!(accepted > 0 && refused > 0, "{accepted} / {refused}");
    }

    /// `encode`'s output written by hand: `chunk_count`, each chunk's
    /// `(ends, pipes)`, then one row per location, the columns, the
    /// location nodes and their endpoint lists.
    fn crafted(
        chunk_count: usize,
        chunks: &[(&[u32], &[u32])],
        rows: &[RowShard],
        cols: &[u32],
        locations: &[usize],
        lists: &[&[u32]],
    ) -> Result<RouteTable, mn_util::CodecError> {
        let mut w = mn_util::ByteWriter::new();
        w.put_usize(cols.len());
        w.put_u64(7);
        w.put_len(chunk_count);
        for (ends, pipes) in chunks {
            w.put_u32s(ends);
            w.put_u32s(pipes);
        }
        w.put_len(rows.len());
        rows.iter().for_each(|row| row.put(&mut w));
        cols.iter().for_each(|&c| w.put_u32(c));
        locations.iter().for_each(|&loc| w.put_usize(loc));
        lists.iter().for_each(|list| w.put_u32s(list));
        let bytes = w.into_bytes();
        let mut r = mn_util::ByteReader::new(&bytes);
        let table = RouteTable::decode(&mut r)?;
        r.finish()?;
        Ok(table)
    }

    /// Two single-pipe routes (pipes 5 and 6) in the tail chunk.
    const TAIL: (&[u32], &[u32]) = (&[1, 2], &[5, 6]);

    /// The rows of two locations: slot 0 -> slot 1 is route `to_1`, the
    /// reverse is route `to_0` (`NO_ROUTE`: the empty row).
    fn two_rows(to_1: u32, to_0: u32) -> [RowShard; 2] {
        [
            RowShard::from_window(1, &[to_1]),
            RowShard::from_window(0, &[to_0]),
        ]
    }

    #[test]
    fn decode_refuses_tables_it_could_not_serve() {
        use mn_util::CodecError::Invalid;
        // Endpoints 0 and 2 at location 10 (slot 0), endpoint 1 at location
        // 11 (slot 1); slot 0 -> slot 1 is route 0, the reverse is route 1.
        let rows = two_rows(0, 1);
        let table = |rows: &[RowShard], locations: &[usize], lists: &[&[u32]]| {
            crafted(1, &[TAIL], rows, &[0, 1, 0], locations, lists)
        };
        let refused = |rows: &[RowShard], locations: &[usize], lists: &[&[u32]]| {
            table(rows, locations, lists).err()
        };
        let sound = table(&rows, &[10, 11], &[&[0, 2], &[1]]).unwrap();
        sound.assert_sound();
        assert_eq!(sound.route_id(2, 1), Some(RouteId(0)));
        assert_eq!(sound.route_id(1, 2), Some(RouteId(1)));
        assert_eq!(sound.pipes(RouteId(1)), &[PipeId(6)]);
        assert_eq!(sound.pipe_bound(), 7);
        // (a) An endpoint list that is not strictly ascending: the binary
        // searches over it would mis-answer.
        for list in [[2, 0], [0, 0]] {
            assert_eq!(
                refused(&rows, &[10, 11], &[&list, &[1]]),
                Some(Invalid("location's endpoints are not strictly ascending"))
            );
        }
        // (b) One node listed as two locations.
        assert_eq!(
            refused(&rows, &[10, 10], &[&[0, 2], &[1]]),
            Some(Invalid("location listed twice"))
        );
        // (b') A node index the input has no bytes for: it would size the
        // dense node -> slot map.
        assert_eq!(
            refused(&rows, &[10, 1 << 40], &[&[0, 2], &[1]]),
            Some(Invalid("location node index beyond the input"))
        );
        // (c) A window wider than the location count — though no wider
        // than the endpoint count, which used to pass — and a row naming a
        // route the chunks do not hold.
        let wide = [rows[0].clone(), RowShard::from_window(1, &[1, 1])];
        assert_eq!(
            refused(&wide, &[10, 11], &[&[0, 2], &[1]]),
            Some(Invalid("row window outside the column range"))
        );
        assert_eq!(
            refused(&two_rows(2, 1), &[10, 11], &[&[0, 2], &[1]]),
            Some(Invalid("row shard names a route the store does not hold"))
        );
        // (d) Rows are per location, so what co-located endpoints can
        // disagree on is the location itself: a list naming an endpoint
        // whose column is another slot, and a row at a location whose list
        // is empty (every endpoint there departed).
        assert_eq!(
            refused(&rows, &[10, 11], &[&[0], &[1, 2]]),
            Some(Invalid("location lists an endpoint not bound there"))
        );
        assert_eq!(
            refused(&rows, &[10, 11], &[&[], &[1]]),
            Some(Invalid("location without endpoints carries a row"))
        );
        // Departures written soundly: one endpoint of a location leaves and
        // its row stays for the other, routes toward it intact; the last
        // one of a location leaves with the row.
        let left = table(&rows, &[10, 11], &[&[0], &[1]]).unwrap();
        left.assert_sound();
        assert_eq!(left.route_id(2, 1), None);
        assert_eq!(left.route_id(0, 1), Some(RouteId(0)));
        assert_eq!(left.route_id(1, 2), Some(RouteId(1)));
        assert!(!left.is_endpoint_bound(2) && left.is_endpoint_bound(0));
        let left = table(&two_rows(0, NO_ROUTE), &[10, 11], &[&[0, 2], &[]]).unwrap();
        left.assert_sound();
        assert_eq!(left.route_id(0, 1), Some(RouteId(0)));
        assert!(!left.is_endpoint_bound(1));
    }

    #[test]
    fn decode_refuses_chunks_it_could_not_serve() {
        use mn_util::CodecError::Invalid;
        // The sound table of `decode_refuses_tables_it_could_not_serve`
        // under other route stores.
        let (tail, rows) = (TAIL, two_rows(0, 1));
        let crafted_chunks = |count, chunks: &[(&[u32], &[u32])]| {
            crafted(
                count,
                chunks,
                &rows,
                &[0, 1, 0],
                &[10, 11],
                &[&[0, 2], &[1]],
            )
        };
        let refused = |count, chunks: &[(&[u32], &[u32])]| crafted_chunks(count, chunks).err();
        // (a) Route ends that decrease, or do not finish on the pipe count:
        // `pipes(id)` would slice backwards or past the run.
        assert_eq!(
            refused(1, &[(&[2, 1], &[5, 6])]),
            Some(Invalid("a chunk's route ends decrease"))
        );
        for ends in [&[1, 1][..], &[1, 3], &[]] {
            assert_eq!(
                refused(1, &[(ends, &[5, 6])]),
                Some(Invalid("a chunk's last route end is not its pipe count"))
            );
        }
        // (b) A short chunk ahead of the tail, a full or over-full tail, no
        // tail at all: ids are chunk * 1024 + position.
        let full: Vec<u32> = (1..=ROUTE_CHUNK as u32).collect();
        let shape = Some(Invalid(
            "every chunk is full, except the tail, which is not",
        ));
        assert_eq!(refused(2, &[tail, tail]), shape);
        assert_eq!(refused(1, &[(&full, &full)]), shape);
        let over: Vec<u32> = (1..=ROUTE_CHUNK as u32 + 1).collect();
        assert_eq!(refused(2, &[(&over, &over), tail]), shape);
        assert_eq!(
            refused(0, &[]),
            Some(Invalid(
                "route store has no tail chunk, or more routes than ids"
            ))
        );
        let two = crafted_chunks(2, &[(&full, &full), tail]).unwrap();
        two.assert_sound();
        assert_eq!(two.route_count(), ROUTE_CHUNK + 2);
        assert_eq!(two.pipes(RouteId(ROUTE_CHUNK as u32)), &[PipeId(5)]);
        // (c) A chunk count the bytes left cannot hold.
        assert_eq!(
            refused(1 << 40, &[tail]),
            Some(Invalid("length prefix exceeds input"))
        );
        assert_eq!(refused(2, &[tail]), shape, "the rows read as a chunk");
    }

    #[test]
    fn a_restored_table_interns_through_an_index_built_on_first_use() {
        // Straddling a chunk boundary, with one content stored under two
        // ids: the first intern of anything builds the index over all of
        // it, known content comes back under its first id and new content
        // appends — whether fingerprints tell routes apart or (degenerate)
        // every probe has to compare against the store.
        let mut table = RouteTable::new(2);
        let content = |i: usize| [PipeId(i % 500), PipeId(i / 500)][..1 + i % 2].to_vec();
        let mut first_id = HashMap::new();
        for i in 0..ROUTE_CHUNK + 40 {
            let id = table.intern(&content(i));
            first_id.entry(content(i)).or_insert(id);
        }
        assert!(first_id.len() < table.route_count(), "some content repeats");
        let bytes = encoded(&table);
        for degenerate in [false, true] {
            let mut restored = RouteTable::decode(&mut mn_util::ByteReader::new(&bytes)).unwrap();
            Arc::make_mut(&mut restored.store).degenerate = degenerate;
            let forwarding = restored.clone();
            assert_eq!(
                restored.intern_pipes(&content(502)),
                RouteId(2),
                "first id wins"
            );
            assert_eq!(restored.route_count(), table.route_count());
            // Built once, in the store both generations still share.
            assert!(forwarding.store.index.get().is_some());
            assert!(Arc::ptr_eq(&forwarding.store, &restored.store));
            assert_eq!(restored.store.index.get().unwrap().len, first_id.len());
            for i in 0..ROUTE_CHUNK + 40 {
                assert_eq!(
                    restored.intern_pipes(&content(i)),
                    first_id[&content(i)],
                    "route {i}"
                );
            }
            let fresh = restored.intern_pipes(&[PipeId(9), PipeId(9), PipeId(9)]);
            assert_eq!(fresh.index(), table.route_count(), "new content appends");
            assert_eq!(restored.intern_pipes(&[PipeId(9); 3]), fresh);
            assert_eq!(forwarding.route_count(), table.route_count());
            restored.assert_sound();
        }
    }

    #[test]
    fn row_shards_and_route_ids_keep_the_record_contract() {
        let wide: Vec<u32> = (0..INLINE_ROW_CAP as u32 + 3).collect();
        for shard in [
            RowShard::Empty,
            RowShard::from_window(5, &[NO_ROUTE, 7, 9]),
            RowShard::from_window(2, &wide),
        ] {
            mn_util::codec::record_contract(shard);
        }
        mn_util::codec::record_contract(RouteId(41));
    }

    #[test]
    fn decode_keeps_duplicate_content_under_both_ids() {
        // `intern` always appends, so a hand-assembled store can hold one
        // pipe sequence twice; a restore must not merge the two ids.
        let mut table = RouteTable::new(2);
        let a = table.intern(&[PipeId(1), PipeId(2)]);
        let b = table.intern(&[PipeId(1), PipeId(2)]);
        assert_ne!(a, b);
        table.set_pair(0, 1, a);
        table.set_pair(1, 0, b);
        let bytes = encoded(&table);
        let mut restored =
            RouteTable::decode(&mut mn_util::ByteReader::new(&bytes)).expect("decodes");
        assert_eq!(restored.route_count(), 2);
        assert_eq!(restored.route_id(0, 1), Some(a));
        assert_eq!(restored.route_id(1, 0), Some(b));
        assert!(restored.store.index.get().is_none(), "built by a lookup");
        assert_eq!(
            restored.intern_pipes(&[PipeId(1), PipeId(2)]),
            a,
            "first id wins"
        );
        assert_eq!(restored.store.index.get().unwrap().len, 1);
    }

    /// Today's index before it went flat, kept as the oracle: a
    /// `HashMap` from pipe sequence to the first id interned with it.
    #[derive(Default)]
    struct MapOracle {
        first_id: HashMap<Vec<PipeId>, RouteId>,
        routes: usize,
    }

    impl MapOracle {
        fn intern_pipes(&mut self, pipes: &[PipeId]) -> RouteId {
            match self.first_id.get(pipes) {
                Some(&id) => id,
                None => self.intern(pipes),
            }
        }

        fn intern(&mut self, pipes: &[PipeId]) -> RouteId {
            let id = RouteId(self.routes as u32);
            self.first_id.entry(pipes.to_vec()).or_insert(id);
            self.routes += 1;
            id
        }

        /// Accounts for the routes a rewire or a bind appended to `table`
        /// (each must be content the map had never seen — the old code
        /// interned only on a miss), then checks that every pair resolves
        /// to the first id of its content.
        fn absorb_and_check(&mut self, table: &RouteTable) {
            for i in self.routes..table.route_count() {
                let id = RouteId(i as u32);
                let fresh = self.first_id.insert(table.pipes(id).to_vec(), id);
                assert!(fresh.is_none(), "route {i} re-interns known content");
            }
            self.routes = table.route_count();
            let n = table.endpoint_count();
            for (s, t) in (0..n * n).map(|i| (i / n, i % n)) {
                if let Some(id) = table.route_id(s, t) {
                    assert_eq!(self.first_id[table.pipes(id)], id, "pair {s}->{t}");
                }
            }
        }
    }

    #[derive(Debug, Clone)]
    enum IndexOp {
        InternPipes(Vec<usize>),
        Intern(Vec<usize>),
        /// Fail (or restore) both directions of a ring link, then
        /// clone-and-rewire as a publish does.
        Flap(usize, bool),
        Unbind(usize),
        /// Bind an endpoint (if departed) at the location of another.
        Bind(usize, usize),
    }

    fn arb_index_op() -> impl Strategy<Value = IndexOp> {
        // A four-pipe alphabet and short sequences: repeats are common.
        let pipes = || prop::collection::vec(0usize..4, 0..4);
        prop_oneof![
            3 => pipes().prop_map(IndexOp::InternPipes),
            1 => pipes().prop_map(IndexOp::Intern),
            3 => (0usize..64, any::<bool>()).prop_map(|(k, up)| IndexOp::Flap(k, up)),
            2 => (0usize..12).prop_map(IndexOp::Unbind),
            2 => (0usize..12, 0usize..12).prop_map(|(e, at)| IndexOp::Bind(e, at)),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Collisions cannot alias, and ids equal the old map's: under random
        /// interleavings of every operation that interns, the flat index —
        /// once with its real fingerprint, once with a degenerate one that
        /// sends every probe through the store comparison and every insert
        /// through one cluster — hands out exactly the ids the map did. The
        /// build leaves no index; the first intern builds it.
        #[test]
        fn flat_index_built_on_first_intern_hands_out_the_ids_the_map_did(
            ops in prop::collection::vec(arb_index_op(), 1..24),
        ) {
            let (mut d, mut matrix, mut locations) = multiplexed_ring();
            let healthy: Vec<_> = d.pipes().map(|(_, p)| p.attrs).collect();
            let mut tables = [
                RouteTable::build(&matrix, &locations),
                RouteTable::rowless(&locations),
            ];
            Arc::make_mut(&mut tables[1].store).degenerate = true;
            tables[1].derive_rows(&matrix);
            for table in &mut tables {
                prop_assert!(table.store.index.get().is_none(), "no index after build");
                let last = RouteId(table.route_count() as u32 - 1);
                let known = table.pipes(last).to_vec();
                prop_assert_eq!(table.intern_pipes(&known), last);
                prop_assert_eq!(table.store.index.get().unwrap().len, table.route_count());
            }
            // Degenerate, every id shares one cluster in id order: finding
            // the last inspected every slot and compared every route.
            let degenerate_probes = 2 * tables[1].route_count() as u64;
            prop_assert_eq!(tables[1].content_index_probes(), degenerate_probes);
            prop_assert!(tables[0].content_index_probes() < degenerate_probes);
            let mut oracle = MapOracle::default();
            oracle.absorb_and_check(&tables[0]);
            MapOracle::default().absorb_and_check(&tables[1]);
            for op in ops {
                match &op {
                    IndexOp::InternPipes(raw) | IndexOp::Intern(raw) => {
                        let pipes: Vec<PipeId> = raw.iter().map(|&p| PipeId(p)).collect();
                        let always = matches!(op, IndexOp::Intern(_));
                        let want = if always {
                            oracle.intern(&pipes)
                        } else {
                            oracle.intern_pipes(&pipes)
                        };
                        for table in &mut tables {
                            let got = if always {
                                table.intern(&pipes)
                            } else {
                                table.intern_pipes(&pipes)
                            };
                            prop_assert_eq!(got, want, "{:?}", op);
                        }
                    }
                    IndexOp::Flap(k, up) => {
                        let k = k % (d.pipe_count() / 2);
                        let link = [PipeId(2 * k), PipeId(2 * k + 1)];
                        for p in link {
                            d.pipe_attrs_mut(p).unwrap().bandwidth = if *up {
                                healthy[p.index()].bandwidth
                            } else {
                                mn_util::DataRate::ZERO
                            };
                        }
                        let update = matrix.update_pipes(&d, &link);
                        for table in &mut tables {
                            let mut next = table.clone();
                            next.rewire_in_place(&matrix, &locations, &update.changed_pairs);
                            *table = next;
                        }
                    }
                    IndexOp::Unbind(e) => {
                        for table in &mut tables {
                            table.unbind_endpoint(*e);
                        }
                        if !tables[0].has_endpoints_at(locations[*e]) {
                            matrix.remove_source(locations[*e]);
                        }
                    }
                    IndexOp::Bind(e, at) => {
                        if !tables[0].is_endpoint_bound(*e) {
                            locations[*e] = locations[*at];
                            matrix.add_source(&d, locations[*e]);
                            for table in &mut tables {
                                prop_assert!(table.bind_endpoint(&matrix, *e, locations[*e]));
                            }
                        }
                    }
                }
                let mut degenerate_view = MapOracle {
                    first_id: oracle.first_id.clone(),
                    routes: oracle.routes,
                };
                degenerate_view.absorb_and_check(&tables[1]);
                oracle.absorb_and_check(&tables[0]);
                tables.iter().for_each(RouteTable::assert_sound);
                prop_assert_eq!(tables[0].route_count(), tables[1].route_count());
            }
        }
    }

    #[derive(Debug, Clone)]
    enum ArenaOp {
        InternPipes(Vec<usize>),
        Intern(Vec<usize>),
        /// Clone as a publish does, then intern into the clone.
        PublishThenIntern(Vec<usize>),
        Unbind(usize),
        Bind(usize, usize),
    }

    fn arb_arena_op() -> impl Strategy<Value = ArenaOp> {
        // Lengths 0..=12 over a three-pipe alphabet: short routes repeat,
        // long ones are new content.
        let pipes = || prop::collection::vec(0usize..3, 0..13);
        prop_oneof![
            3 => pipes().prop_map(ArenaOp::InternPipes),
            3 => pipes().prop_map(ArenaOp::Intern),
            2 => pipes().prop_map(ArenaOp::PublishThenIntern),
            1 => (0usize..12).prop_map(ArenaOp::Unbind),
            1 => (0usize..12, 0usize..12).prop_map(|(e, at)| ArenaOp::Bind(e, at)),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The arena against a `Vec<Vec<PipeId>>`: whatever mix of interning
        /// doors, publishes and churn fills it, across the chunk boundaries,
        /// every id resolves to the content it was given — on the generation
        /// that interned and on the one it was cloned from, whose tail a
        /// clone's appends never reach and whose sealed chunks it shares —
        /// and the encoding round-trips byte for byte, duplicates included.
        #[test]
        fn arena_holds_what_a_vec_of_vecs_does(
            chunks in 0usize..3,
            short_by in 0usize..6,
            ops in prop::collection::vec(arb_arena_op(), 1..24),
        ) {
            let (d, mut matrix, mut locations) = multiplexed_ring();
            let mut table = RouteTable::build(&matrix, &locations);
            let mut oracle: Vec<Vec<PipeId>> =
                (0..table.route_count()).map(|i| table.pipes(RouteId(i as u32)).to_vec()).collect();
            // Filled (content repeating every 91 ids) to just short of the
            // boundary: the ops straddle 1023 / 1024 / 1025, or 2048.
            while oracle.len() + short_by < chunks * ROUTE_CHUNK {
                let i = oracle.len();
                let pipes = vec![PipeId(100 + i % 7); i % 13];
                prop_assert_eq!(table.intern(&pipes), RouteId(i as u32));
                oracle.push(pipes);
            }
            let mut parent = table.clone();
            for op in ops {
                match &op {
                    ArenaOp::InternPipes(raw) | ArenaOp::Intern(raw) | ArenaOp::PublishThenIntern(raw) => {
                        let pipes: Vec<PipeId> = raw.iter().map(|&p| PipeId(p)).collect();
                        if matches!(op, ArenaOp::PublishThenIntern(_)) {
                            parent = table.clone();
                        }
                        let first = oracle.iter().position(|known| *known == pipes);
                        let (got, want) = match (&op, first) {
                            (ArenaOp::Intern(_), _) | (_, None) => {
                                oracle.push(pipes.clone());
                                let always = matches!(op, ArenaOp::Intern(_));
                                let got = if always { table.intern(&pipes) } else { table.intern_pipes(&pipes) };
                                (got, oracle.len() - 1)
                            }
                            (_, Some(first)) => (table.intern_pipes(&pipes), first),
                        };
                        prop_assert_eq!(got, RouteId(want as u32), "{:?}", op);
                    }
                    ArenaOp::Unbind(e) => {
                        table.unbind_endpoint(*e);
                        if !table.has_endpoints_at(locations[*e]) {
                            matrix.remove_source(locations[*e]);
                        }
                    }
                    ArenaOp::Bind(e, at) => {
                        if !table.is_endpoint_bound(*e) {
                            locations[*e] = locations[*at];
                            matrix.add_source(&d, locations[*e]);
                            prop_assert!(table.bind_endpoint(&matrix, *e, locations[*e]));
                        }
                    }
                }
                // Routes a bind interned itself are the table's word.
                for i in oracle.len()..table.route_count() {
                    oracle.push(table.pipes(RouteId(i as u32)).to_vec());
                }
                prop_assert_eq!(table.route_count(), oracle.len());
                for generation in [&table, &parent] {
                    for (i, content) in oracle.iter().enumerate().take(generation.route_count()) {
                        prop_assert_eq!(generation.pipes(RouteId(i as u32)), &content[..]);
                    }
                    prop_assert_eq!(generation.store.sealed.len(), generation.route_count() / ROUTE_CHUNK);
                }
                let shared = parent.store.sealed.iter().zip(&table.store.sealed);
                prop_assert!(shared.into_iter().all(|(a, b)| Arc::ptr_eq(a, b)));
                table.assert_sound();
                // What the chunks decode to is what the oracle holds.
                let bytes = encoded(&table);
                let restored = RouteTable::decode(&mut mn_util::ByteReader::new(&bytes)).unwrap();
                prop_assert_eq!(restored.route_count(), oracle.len());
                for (i, content) in oracle.iter().enumerate() {
                    prop_assert_eq!(restored.pipes(RouteId(i as u32)), &content[..]);
                }
            }
        }
    }

    #[test]
    fn every_route_a_build_appends_is_new_content() {
        // Why `build` may append without a probe: two location pairs never
        // share a route. Interning each built route again finds its own id.
        use mn_topology::generators::{path_pairs_topology, star_topology};
        let star = star_topology(&mn_topology::generators::StarParams {
            clients: 12,
            ..Default::default()
        });
        let ring = ring_topology(&RingParams {
            routers: 6,
            clients_per_router: 2,
            ..RingParams::default()
        });
        let params = mn_topology::generators::PathPairsParams {
            pairs: 4,
            hops: 3,
            ..Default::default()
        };
        let mut cases: Vec<(RoutingMatrix, Vec<NodeId>)> =
            [star, ring, path_pairs_topology(&params).0]
                .iter()
                .map(|topo| {
                    let d = distill(topo, DistillationMode::HopByHop);
                    (RoutingMatrix::build(&d), d.vns().to_vec())
                })
                .collect();
        let (_, matrix, locations) = multiplexed_ring();
        cases.push((matrix, locations));
        for (matrix, locations) in cases {
            let mut table = RouteTable::build(&matrix, &locations);
            let routes = table.route_count();
            assert!(routes > 0);
            for k in 0..routes as u32 {
                let pipes = table.pipes(RouteId(k)).to_vec();
                assert_eq!(table.intern_pipes(&pipes), RouteId(k));
            }
            assert_eq!(table.route_count(), routes);
        }
    }

    #[test]
    fn covers_every_distinct_pair() {
        let (table, n) = ring_table();
        assert_eq!(table.endpoint_count(), n);
        for s in 0..n {
            for d in 0..n {
                let id = table.route_id(s, d);
                if s == d {
                    assert!(id.is_none(), "diagonal pairs are local, not routed");
                } else {
                    let id = id.expect("connected ring has all-pairs routes");
                    assert!(table.pipes(id).len() >= 2);
                    assert_eq!(table.first_hop(s, d), Some((id, table.pipes(id)[0])));
                }
            }
        }
    }

    #[test]
    fn routes_are_interned_not_duplicated() {
        let (table, n) = ring_table();
        // At most one stored route per ordered pair, and strictly fewer than
        // the pair count whenever any two pairs share a location pair (here
        // locations are unique per VN, so it is exactly n*(n-1)).
        assert_eq!(table.route_count(), n * (n - 1));
        // Distinct pairs resolve to distinct interned routes at most once:
        // the same id is returned for repeated lookups, with no copy.
        let a = table.route_id(0, 1).unwrap();
        let b = table.route_id(0, 1).unwrap();
        assert_eq!(a, b);
        assert!(std::ptr::eq(table.pipes(a), table.pipes(b)));
    }

    #[test]
    fn shared_locations_share_one_route_and_one_row() {
        let topo = ring_topology(&RingParams {
            routers: 6,
            clients_per_router: 1,
            ..RingParams::default()
        });
        let d = distill(&topo, DistillationMode::HopByHop);
        let matrix = RoutingMatrix::build(&d);
        // Bind two endpoints to every location: 12 endpoints over 6 locations.
        let mut locations = d.vns().to_vec();
        locations.extend(d.vns().to_vec());
        let table = RouteTable::build(&matrix, &locations);
        let n = d.vns().len();
        // Endpoint i and i+n share a location, so (i, j) and (i+n, j) must
        // resolve to the same interned route — and so must (i, j + n),
        // since co-located destinations share a column.
        for i in 0..n {
            for j in 0..n {
                if i == j {
                    continue;
                }
                assert_eq!(table.route_id(i, j), table.route_id(i + n, j));
                assert_eq!(table.route_id(i, j), table.route_id(i, j + n));
            }
        }
        // Co-located endpoints read one row: there are six (6-column rows
        // -> spilled), not twelve.
        for i in 0..n {
            assert!(table.row_storage_shared(&table, i));
        }
        assert_eq!(
            table.memory().distinct_row_allocations,
            n,
            "wide rows spill"
        );
        // Same-location pairs are unroutable (handled as local delivery).
        for i in 0..n {
            assert!(table.route_id(i, i + n).is_none());
        }
        // 6 locations -> 30 distinct ordered location pairs, stored once each.
        assert_eq!(table.route_count(), 30);
    }

    #[test]
    fn unbind_then_bind_round_trips_and_keeps_drain_routes() {
        let topo = ring_topology(&RingParams {
            routers: 6,
            clients_per_router: 2,
            ..RingParams::default()
        });
        let d = distill(&topo, DistillationMode::HopByHop);
        let matrix = RoutingMatrix::build(&d);
        let locations = d.vns().to_vec();
        let mut table = RouteTable::build(&matrix, &locations);
        let n = locations.len();
        let fresh = RouteTable::build(&matrix, &locations);
        let departed = 3;
        let inbound_before = table.route_id(0, departed).unwrap();
        assert!(table.is_endpoint_bound(departed));
        assert!(table.unbind_endpoint(departed));
        assert!(!table.is_endpoint_bound(departed));
        assert!(!table.unbind_endpoint(departed), "double-leave refused");
        // New lookups *from* the departed endpoint fail; routes *toward*
        // it survive so in-flight descriptors drain on pre-departure ids.
        for t in 0..n {
            assert!(table.route_id(departed, t).is_none());
        }
        assert_eq!(table.route_id(0, departed), Some(inbound_before));
        assert_eq!(table.pipes(inbound_before), fresh.pipes(inbound_before));
        // Rejoin at the same (now empty) location: sibling-less path.
        assert!(table.bind_endpoint(&matrix, departed, locations[departed]));
        assert!(!table.bind_endpoint(&matrix, departed, locations[departed]));
        for s in 0..n {
            for t in 0..n {
                let a = table.route_id(s, t).map(|id| table.pipes(id).to_vec());
                let b = fresh.route_id(s, t).map(|id| fresh.pipes(id).to_vec());
                assert_eq!(a, b, "{s}->{t}");
            }
        }
    }

    #[test]
    fn join_with_a_live_sibling_shares_its_row_shard() {
        let topo = ring_topology(&RingParams {
            routers: 6,
            clients_per_router: 1,
            ..RingParams::default()
        });
        let d = distill(&topo, DistillationMode::HopByHop);
        let matrix = RoutingMatrix::build(&d);
        let mut locations = d.vns().to_vec();
        locations.extend(d.vns().to_vec());
        let mut table = RouteTable::build(&matrix, &locations);
        let n = d.vns().len();
        let before = table.clone();
        assert!(table.unbind_endpoint(0));
        // Endpoint n stays live at the same location: neither the leave nor
        // the rejoin touches a row — every location keeps its allocation.
        assert!(table.bind_endpoint(&matrix, 0, locations[0]));
        for s in 0..2 * n {
            assert!(table.row_storage_shared(&before, s), "row of {s}");
        }
        assert_eq!(table.memory().distinct_row_allocations, n);
        for j in 0..2 * n {
            assert_eq!(table.route_id(0, j), table.route_id(n, j), "->{j}");
        }
    }

    #[test]
    fn bind_grows_the_table_by_one_fresh_endpoint() {
        let (mut table, n) = ring_table();
        let fresh = table.clone();
        let topo = ring_topology(&RingParams {
            routers: 6,
            clients_per_router: 2,
            ..RingParams::default()
        });
        let d = distill(&topo, DistillationMode::HopByHop);
        let matrix = RoutingMatrix::build(&d);
        let home = d.vns()[0];
        assert!(
            !table.bind_endpoint(&matrix, n + 1, home),
            "non-contiguous fresh index refused"
        );
        assert!(table.bind_endpoint(&matrix, n, home));
        assert_eq!(table.endpoint_count(), n + 1);
        // The newcomer is co-located with endpoint 0: identical routes,
        // and nothing about the pre-existing pairs moved.
        for t in 0..n {
            assert_eq!(table.route_id(n, t), table.route_id(0, t));
            assert_eq!(table.route_id(t, n), table.route_id(t, 0));
            for s in 0..n {
                assert_eq!(table.route_id(s, t), fresh.route_id(s, t));
            }
        }
    }

    #[test]
    fn rejoin_after_reroute_refreshes_stale_columns() {
        // The stale-column hazard: while a location is fully departed, the
        // matrix drops its source tree and reroutes report no pairs toward
        // it, so other rows' columns toward that slot go stale. A rejoin
        // must refresh them from the matrix, not trust the old ids.
        let topo = ring_topology(&RingParams {
            routers: 6,
            clients_per_router: 2,
            ..RingParams::default()
        });
        let mut d = distill(&topo, DistillationMode::HopByHop);
        let mut matrix = RoutingMatrix::build(&d);
        let locations = d.vns().to_vec();
        let mut table = RouteTable::build(&matrix, &locations);
        let n = locations.len();
        let departed = 0;
        let home = locations[departed];
        assert!(table.unbind_endpoint(departed));
        assert!(matrix.remove_source(home));
        // Fail a pipe the old inbound routes used, reroute the survivors.
        let victim = d.out_pipes(home)[0];
        let original = d.pipe(victim).attrs;
        d.pipe_attrs_mut(victim).unwrap().bandwidth = mn_util::DataRate::ZERO;
        let update = matrix.update_pipes(&d, &[victim]);
        table.rewire_in_place(&matrix, &locations, &update.changed_pairs);
        *d.pipe_attrs_mut(victim).unwrap() = original;
        let update = matrix.update_pipes(&d, &[victim]);
        table.rewire_in_place(&matrix, &locations, &update.changed_pairs);
        // Rejoin: matrix source first, then the table bind.
        assert!(matrix.add_source(&d, home));
        assert!(table.bind_endpoint(&matrix, departed, home));
        let fresh = RouteTable::build(&matrix, &locations);
        for s in 0..n {
            for t in 0..n {
                let a = table.route_id(s, t).map(|id| table.pipes(id).to_vec());
                let b = fresh.route_id(s, t).map(|id| fresh.pipes(id).to_vec());
                assert_eq!(a, b, "{s}->{t}");
            }
        }
    }

    #[test]
    fn rewire_preserves_untouched_ids_and_dedups_restored_routes() {
        let topo = ring_topology(&RingParams {
            routers: 6,
            clients_per_router: 2,
            ..RingParams::default()
        });
        let mut d = distill(&topo, DistillationMode::HopByHop);
        let mut matrix = RoutingMatrix::build(&d);
        let locations = d.vns().to_vec();
        let mut table = RouteTable::build(&matrix, &locations);
        let baseline: Vec<Option<RouteId>> = (0..locations.len() * locations.len())
            .map(|i| table.route_id(i / locations.len(), i % locations.len()))
            .collect();
        let count_after_build = table.route_count();
        // Fail one transit pipe both ways, rewire only the changed pairs.
        let victim = matrix.lookup(locations[0], locations[6]).unwrap().pipes[1];
        let reverse = {
            let p = d.pipe(victim);
            d.find_pipe(p.dst, p.src).expect("duplex link")
        };
        let original = d.pipe(victim).attrs;
        let flap = |d: &mut mn_distill::DistilledTopology,
                    matrix: &mut RoutingMatrix,
                    table: &mut RouteTable,
                    attrs: mn_distill::PipeAttrs| {
            *d.pipe_attrs_mut(victim).unwrap() = attrs;
            *d.pipe_attrs_mut(reverse).unwrap() = attrs;
            let update = matrix.update_pipes(d, &[victim, reverse]);
            assert!(!update.is_empty());
            table.rewire_in_place(matrix, &locations, &update.changed_pairs);
            update
        };
        let failed = mn_distill::PipeAttrs {
            bandwidth: mn_util::DataRate::ZERO,
            ..original
        };
        let before_down = table.clone();
        let down = flap(&mut d, &mut matrix, &mut table, failed);
        let count_after_down = table.route_count();
        // Untouched pairs keep their exact RouteId; changed pairs resolve to
        // routes avoiding the failed pipe.
        let n = locations.len();
        let changed: std::collections::HashSet<(usize, usize)> = down
            .changed_pairs
            .iter()
            .map(|&(a, b)| {
                let si = locations.iter().position(|&l| l == a).unwrap();
                let di = locations.iter().position(|&l| l == b).unwrap();
                (si, di)
            })
            .collect();
        let changed_sources: std::collections::HashSet<usize> =
            changed.iter().map(|&(s, _)| s).collect();
        for s in 0..n {
            for t in 0..n {
                if changed.contains(&(s, t)) {
                    if let Some(id) = table.route_id(s, t) {
                        assert!(!table.pipes(id).contains(&victim));
                        assert!(!table.pipes(id).contains(&reverse));
                    }
                } else {
                    assert_eq!(
                        table.route_id(s, t),
                        baseline[s * n + t],
                        "untouched pair ({s},{t}) must keep its RouteId"
                    );
                }
            }
            // Copy-on-write publish: untouched sources keep literally the
            // same row allocation; rewired sources get a fresh one.
            assert_eq!(
                table.row_storage_shared(&before_down, s),
                !changed_sources.contains(&s),
                "row storage of source {s}"
            );
        }
        // Restore: every pair maps back to its original id, and a second
        // full flap cycle does not grow the table (oscillation-safe dedup).
        flap(&mut d, &mut matrix, &mut table, original);
        for s in 0..n {
            for t in 0..n {
                assert_eq!(table.route_id(s, t), baseline[s * n + t]);
            }
        }
        assert_eq!(table.route_count(), count_after_down);
        flap(&mut d, &mut matrix, &mut table, failed);
        flap(&mut d, &mut matrix, &mut table, original);
        assert_eq!(table.route_count(), count_after_down);
        assert!(
            count_after_down > count_after_build,
            "detour routes interned"
        );
        assert_eq!(table.version(), 4, "one bump per rewire");
    }

    #[test]
    fn out_of_range_lookups_are_none() {
        let (table, n) = ring_table();
        assert!(table.route_id(n, 0).is_none());
        assert!(table.route_id(0, n + 100).is_none());
        assert!(table.route_id(usize::MAX, usize::MAX).is_none());
        assert!(table.first_hop(n, 0).is_none());
        assert!(table.first_hop(0, n + 100).is_none());
    }

    #[test]
    fn manual_construction_for_tests() {
        let mut table = RouteTable::new(2);
        let id = table.intern(&[PipeId(3), PipeId(5)]);
        table.set_pair(0, 1, id);
        assert_eq!(table.route_id(0, 1), Some(id));
        assert_eq!(table.route_id(1, 0), None);
        assert_eq!(table.pipes(id), &[PipeId(3), PipeId(5)]);
        // The admission lookup: route and first pipe, none for an empty route.
        assert_eq!(table.first_hop(0, 1), Some((id, PipeId(3))));
        assert_eq!(table.first_hop(1, 0), None);
        let empty = table.intern(&[]);
        table.set_pair(0, 1, empty);
        assert_eq!(table.route_id(0, 1), Some(empty));
        assert_eq!(table.first_hop(0, 1), None);
    }

    #[test]
    fn set_pair_grows_windows_inline_then_spills() {
        let mut table = RouteTable::new(16);
        let ids: Vec<RouteId> = (0..8).map(|i| table.intern(&[PipeId(i)])).collect();
        // Scattered writes on one row: window grows, stays inline while
        // narrow (no allocation to share), spills once it widens.
        let inline_and_spilled = |table: &RouteTable| {
            let mem = table.memory();
            (mem.inline_rows, mem.distinct_row_allocations)
        };
        table.set_pair(0, 5, ids[0]);
        assert_eq!(inline_and_spilled(&table), (1, 0), "1-wide row is inline");
        table.set_pair(0, 7, ids[1]);
        assert_eq!(inline_and_spilled(&table), (1, 0), "3-wide row is inline");
        assert_eq!(table.route_id(0, 6), None, "window gap is unroutable");
        table.set_pair(0, 12, ids[2]);
        assert_eq!(inline_and_spilled(&table), (0, 1), "8-wide row spills");
        assert_eq!(table.route_id(0, 5), Some(ids[0]));
        assert_eq!(table.route_id(0, 7), Some(ids[1]));
        assert_eq!(table.route_id(0, 12), Some(ids[2]));
        assert_eq!(table.route_id(0, 4), None);
        assert_eq!(table.route_id(0, 13), None);
        // Overwrites do not move the window; other rows are untouched.
        table.set_pair(0, 7, ids[3]);
        assert_eq!(table.route_id(0, 7), Some(ids[3]));
        for s in 1..16 {
            for t in 0..16 {
                assert!(table.route_id(s, t).is_none());
            }
        }
    }

    #[test]
    fn memory_is_sub_dense_for_multiplexed_endpoints() {
        // 512 endpoints over 8 locations: 8 rows, and the route state stays
        // far below the dense n² pair table.
        let topo = ring_topology(&RingParams {
            routers: 8,
            clients_per_router: 1,
            ..RingParams::default()
        });
        let d = distill(&topo, DistillationMode::HopByHop);
        let matrix = RoutingMatrix::build(&d);
        let base = d.vns().to_vec();
        let locations: Vec<NodeId> = (0..512).map(|i| base[i % base.len()]).collect();
        let table = RouteTable::build(&matrix, &locations);
        let mem = table.memory();
        assert_eq!(table.endpoint_count(), 512);
        assert_eq!(mem.dense_equivalent_bytes, 512 * 512 * 4);
        assert_eq!(mem.distinct_row_allocations, 8, "one row per location");
        assert!(
            mem.resident_bytes * 10 < mem.dense_equivalent_bytes,
            "resident {} vs dense {}",
            mem.resident_bytes,
            mem.dense_equivalent_bytes
        );
        // And the lookups still resolve: cross-location pairs route,
        // co-located pairs stay local.
        assert!(table.route_id(0, 1).is_some());
        assert!(table.route_id(0, base.len()).is_none());
    }

    #[test]
    fn clearing_patch_outside_the_final_window_is_a_noop() {
        // A patch batch can clear a destination a diverged row never held
        // while another patch genuinely changes the row: the clearing patch
        // lands outside the computed window and must be skipped, not
        // indexed (regression: this used to walk off the scratch buffer).
        let mut table = RouteTable::new(16);
        let id = table.intern(&[PipeId(1)]);
        table.set_pair(0, 3, id);
        assert_eq!(table.route_id(0, 3), Some(id));
        // Simulate the mixed batch through the public surface: clear a far
        // destination (already unroutable on this row) and rewire dst 3.
        let other = table.intern(&[PipeId(2)]);
        let empty_row = RowShard::Empty;
        let patched = empty_row
            .patched(&[(10, NO_ROUTE), (3, other.0)])
            .expect("the routable patch changes the row");
        assert_eq!(patched.raw(3), other.0);
        assert_eq!(patched.raw(10), NO_ROUTE);
        let narrow = RowShard::from_window(3, &[id.0]);
        let patched = narrow
            .patched(&[(12, NO_ROUTE), (3, other.0)])
            .expect("the routable patch changes the row");
        assert_eq!(patched.raw(3), other.0);
        assert_eq!(patched.raw(12), NO_ROUTE);
    }

    #[test]
    fn route_store_chunks_survive_sealing() {
        let mut table = RouteTable::new(4);
        let count = ROUTE_CHUNK * 2 + 7;
        let ids: Vec<RouteId> = (0..count)
            .map(|i| table.intern(&[PipeId(i), PipeId(i + 1)]))
            .collect();
        assert_eq!(table.route_count(), count);
        for (i, &id) in ids.iter().enumerate() {
            assert_eq!(table.pipes(id), &[PipeId(i), PipeId(i + 1)]);
        }
        // Cloning shares the sealed chunks; interning into the clone leaves
        // the original untouched.
        let mut clone = table.clone();
        let extra = clone.intern(&[PipeId(999_999)]);
        assert_eq!(clone.route_count(), count + 1);
        assert_eq!(table.route_count(), count);
        assert_eq!(clone.pipes(extra), &[PipeId(999_999)]);
        assert_eq!(table.store.sealed.len(), 2);
        let shared = table.store.sealed.iter().zip(&clone.store.sealed);
        assert!(shared.into_iter().all(|(a, b)| Arc::ptr_eq(a, b)));
    }
}

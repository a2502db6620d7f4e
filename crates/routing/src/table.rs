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
//!   per route and one run of 4-byte pipe ids — three allocations per
//!   chunk, none per route. Sealed chunks are shared by every generation, so
//!   retaining the ids in flight costs reference bumps. A checkpoint writes
//!   none of the routes a row reads, only those descriptors in flight alone
//!   read ([`RouteTable::encode_section`]): the rows and their routes are a
//!   function of the matrix and the geometry, which a restore derives them
//!   from ([`RouteTable::decode_section`]).
//! * `rows` — **one row shard per location slot**, mapping a destination
//!   location slot to its raw `RouteId`, page-grouped into shared blocks of
//!   `BLOCK_ROWS` (1024) rows. A row stores only the window `[base, base +
//!   width)` that actually holds routable columns: narrow windows (≤ 4
//!   entries) are kept inline in the block with no heap allocation at all,
//!   wider windows spill to an `Arc<[u32]>` that successive generations
//!   share. A row visits only its source's structural component's slots,
//!   as no route leaves one: a build costs O(routes + locations).
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
//! **Interning is one probe.** A route enters through one fixed
//! multiplicative fingerprint — a prefix fold over the pipe sequence,
//! finished with its length — one linear probe of a flat
//! `(fingerprint, id)` slot array, and a match is **verified against the
//! store itself** — the index keeps no second copy of any route, a
//! collision costs a comparison and can never alias, and ids are
//! first-id-wins. A rewire or a join resolves a run of pairs sharing a
//! source at a time (the `resolver` module): one walk of the source's tree
//! yields every route and its fold, the fold of a shared prefix computed
//! once; every home slot of the run is read before its first probe, so the
//! run's lookups wait on memory together; then the run is interned in pair
//! order, each route exactly as [`RouteTable::intern_pipes`] would intern
//! it, so ids and probe counts do not depend on the batching. No snapshot
//! holds the index, so the fingerprint is an in-memory choice: the index is
//! a pure function of the append-only store, so the bulk writers, each
//! unsharing the store once, leave it out: `build` and a restore's derive
//! append every location pair's route unprobed (its first pipe leaves the
//! source location and its last enters the destination, so no two pairs
//! share a route and every probe would miss), a restore then the held
//! routes, which a checkpoint wrote distinct from those. The first `find`
//! builds it, in one pass in id order over a table sized once: a run or a
//! restore that only forwards never pays for it. It sits with the store
//! behind one `Arc`: generations share both, and the first to intern new
//! content copies the chunk handles, the open tail and the index — flat,
//! 16 B per slot at 4/3 to 8/3 slots per route: ≤ 43 B per route — so a
//! link-up or an oscillation, which intern nothing, never pays.
//!
//! Endpoint indices are the dense VN indices of the binding (`VnId::index`),
//! but the table is deliberately typed on `usize` so `mn-routing` stays
//! independent of `mn-packet`. The published table is immutable from the
//! cores' point of view: a routing change builds the next generation (cheap,
//! structurally shared) and swaps the `Arc<RouteTable>`.

use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

use mn_distill::PipeId;
use mn_topology::NodeId;
use mn_util::{ByteReader, ByteWriter, Codec, CodecError};

use crate::matrix::RoutingMatrix;
use crate::resolver::{fold, fold_pipes, Pipes, Resolver, Route, Run};

mn_util::codec_record! {
    /// Handle to an interned route in a [`RouteTable`].
    #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
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

    /// The window's raw ids, in column order.
    fn ids(&self) -> &[u32] {
        match self {
            RowShard::Empty => &[],
            RowShard::Inline { len, slots, .. } => &slots[..*len as usize],
            RowShard::Spilled { slots, .. } => slots,
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
        let routable = |&v: &u32| v != NO_ROUTE;
        let (Some(first), Some(last)) = (
            values.iter().position(routable),
            values.iter().rposition(routable),
        ) else {
            return RowShard::Empty;
        };
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
                // Invariant: an `Arc` built the line above has one strong
                // and no weak reference, so `get_mut` returns it.
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
    /// Built lazily, by the first [`RouteStore::find`]: `build` and
    /// `decode_section` append without it.
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

    /// The index, built here if this is the store's first lookup.
    fn index(&self) -> &ContentIndex {
        self.index.get_or_init(|| self.build_index())
    }

    /// Fingerprints `pipes` (`fold` is [`fold_pipes`] of them) and probes
    /// the index for the first id interned with exactly this content,
    /// verified against the arena. `probes` counts the slots inspected and
    /// the comparisons.
    fn find(&self, pipes: Pipes, fold: u64, probes: &mut u64) -> (u64, Option<RouteId>) {
        let index = self.index();
        let fingerprint = index.finish(fold, pipes.len());
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
            let routes = (0..chunk.ends.len()).map(|at| Pipes(chunk.get(at), None));
            fingerprints.extend(routes.map(|pipes| index.finish(fold_pipes(pipes), pipes.len())));
        }
        index.reserve(fingerprints.len().max(1));
        let content = |id: u32| self.get(id as usize);
        for (id, &fingerprint) in fingerprints.iter().enumerate() {
            let pipes = Pipes(self.get(id), None);
            if let Err(free) = index.probe(fingerprint, pipes, content, &mut 0) {
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
    fn append(&mut self, Pipes(head, last): Pipes, new_content: Option<u64>) -> RouteId {
        assert!(self.len() < NO_ROUTE as usize, "route table overflow");
        let id = RouteId(self.len() as u32);
        self.tail.pipes.extend_from_slice(head);
        if let Some(last) = last {
            self.tail.pipes.push(last);
        }
        // Invariant: a chunk holds at most `ROUTE_CHUNK` routes, each a
        // walk up one component's tree, so fewer hops than its nodes; a
        // built chunk's offsets fit u32 below 4 M nodes a component (a
        // matrix row of 16 MiB). A restore's held routes are ends of a
        // `u32` run that rises to their pipe count ("held routes' ends do
        // not rise to their pipes"), so appending them overflows only
        // within routes of 2^32 pipes: a 16 GiB frame.
        let end = u32::try_from(self.tail.pipes.len()).expect("a chunk's pipes fit u32 offsets");
        self.tail.ends.push(end);
        if self.tail.ends.len() == ROUTE_CHUNK {
            self.sealed.push(Arc::new(self.tail.clone()));
            self.tail.ends.clear();
            self.tail.pipes.clear();
        }
        // A store with no index yet indexes this route with the rest at
        // its first `find`.
        if let (Some(fingerprint), Some(index)) = (new_content, self.index.get_mut()) {
            index.insert(fingerprint, id);
        }
        id
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
/// of 16 B per slot — 4/3 to 8/3 slots per route, so under 43 B a route:
/// the largest per-route term of the route state, as the arena holds 4 B a
/// route and 4 B a hop.
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
    /// The fingerprint of a pipe sequence of `len` pipes whose fold
    /// ([`fold_pipes`], or a resolver's prefix fold) is `state`: the fixed
    /// multiplicative fold finished with the length.
    fn finish(&self, state: u64, len: usize) -> u64 {
        #[cfg(test)]
        if self.degenerate {
            return 0;
        }
        fold(state, len as u64)
    }

    /// First slot of a fingerprint's probe sequence: its top bits, the
    /// best-mixed ones of a multiplicative fold.
    fn home(&self, fingerprint: u64) -> usize {
        (fingerprint >> (64 - self.slots.len().trailing_zeros())) as usize
    }

    /// Starts reading `fingerprint`'s home slot, so that a probe issued
    /// after a run's others finds it in cache: a run's lookups then wait
    /// on memory together, not one after another.
    #[inline]
    fn prefetch(&self, fingerprint: u64) {
        let slot = &self.slots[self.home(fingerprint)];
        #[cfg(target_arch = "x86_64")]
        // SAFETY: a prefetch is a hint to the cache: it reads nothing the
        // program observes and never faults, and `slot` is a live
        // reference besides.
        unsafe {
            use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
            _mm_prefetch::<_MM_HINT_T0>((slot as *const (u64, u32)).cast());
        }
        #[cfg(not(target_arch = "x86_64"))]
        std::hint::black_box(slot.1);
    }

    /// Walks `fingerprint`'s probe sequence: the first id under that
    /// fingerprint whose stored route (read through `content`) is `pipes`,
    /// or the free slot the sequence ends at. The table has slots: it is
    /// only ever built by [`RouteStore::build_index`], which reserves some.
    fn probe<'s>(
        &self,
        fingerprint: u64,
        pipes: Pipes,
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
                if pipes.is(content(id)) {
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
    /// Each node's structural component, the matrix's (none: one component).
    node_component: Arc<[u32]>,
    /// Slots by component, ascending: `by_component[starts[c]..starts[c + 1]]`.
    by_component: Vec<u32>,
    starts: Vec<u32>,
}

/// "No location at this node" in [`LocationIndex::slot_of_node`].
const NO_SLOT: u32 = u32::MAX;

impl LocationIndex {
    /// Builds the geometry over the nodes' components, also returning each
    /// endpoint's location slot (the table's column map).
    fn build(locations: &[NodeId], node_component: Arc<[u32]>) -> (Self, Vec<u32>) {
        let mut idx = LocationIndex {
            node_component,
            ..LocationIndex::default()
        };
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
        let (c, end) = (self.component(node), self.by_component.len() as u32);
        self.starts.resize(self.starts.len().max(c + 2), end);
        self.by_component.insert(self.starts[c + 1] as usize, slot);
        self.starts[c + 1..].iter_mut().for_each(|s| *s += 1);
        slot
    }

    /// `node`'s structural component (0 outside the map).
    fn component(&self, node: NodeId) -> usize {
        let c = self.node_component.get(node.index());
        c.map_or(0, |&c| c as usize)
    }

    /// The columns of slot `si`'s row, ascending: every other live slot of
    /// its component (no route leaves it; same-location pairs stay local).
    fn row_columns(&self, si: usize) -> impl DoubleEndedIterator<Item = usize> + Clone + '_ {
        let c = self.component(self.locations[si]);
        let slots = &self.by_component[self.starts[c] as usize..self.starts[c + 1] as usize];
        let slots = slots.iter().map(|&di| di as usize);
        slots.filter(move |&di| di != si && !self.endpoints[di].is_empty())
    }

    /// Sizes `row` to the window slot `si`'s columns span, unroutable, and
    /// returns the window's first column.
    fn row_window(&self, si: usize, row: &mut Vec<u32>) -> usize {
        let mut columns = self.row_columns(si);
        let first = columns.next();
        let last = columns.next_back().or(first);
        row.clear();
        row.resize(first.zip(last).map_or(0, |(a, b)| b + 1 - a), NO_ROUTE);
        first.unwrap_or(0)
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
    // Invariant: the block is unshared — it was, or it was just replaced by
    // a fresh copy — so `get_mut` returns it.
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

/// The resolver scratch table generations share, whoever last held it.
fn lock(resolver: &Mutex<Resolver>) -> MutexGuard<'_, Resolver> {
    // A panic mid-run leaves nothing a later run trusts: it stamps anew.
    resolver.lock().unwrap_or_else(PoisonError::into_inner)
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

/// The ids a checkpoint writes a [`RouteTable`]'s routes under: only the
/// routes something reads, the rows' in order of first appearance (slot,
/// then column), then those only descriptors in flight read, by pipe
/// sequence — a function of the state, not of the intern history.
#[derive(Debug, Clone)]
pub struct RouteNumbering {
    /// Each stored route's canonical id (`NO_ROUTE`: not kept).
    canonical: Vec<u32>,
    /// The kept routes' stored ids, in canonical order.
    kept: Vec<u32>,
}

impl RouteNumbering {
    /// The id a checkpoint writes for the stored route `id`.
    pub fn canonical(&self, id: RouteId) -> RouteId {
        RouteId(self.canonical[id.index()])
    }
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
    /// The route resolver's scratch, shared by every generation cloned
    /// from this one: sized once, whichever generation rewires.
    resolver: Arc<Mutex<Resolver>>,
    /// `Some(n)`: the rows read routes `0..n`, each first in id order, as a
    /// built or a decoded table's may (an append leaves it; a row write
    /// clears it).
    rows_read: Option<usize>,
}

impl RouteTable {
    /// Creates a table over `endpoint_count` endpoints, each at a location
    /// of its own (`NodeId(i)` for endpoint `i`), all pairs unroutable.
    /// Routes are added with [`RouteTable::intern`] and wired to pairs with
    /// [`RouteTable::set_pair`].
    pub fn new(endpoint_count: usize) -> Self {
        let own: Vec<NodeId> = (0..endpoint_count).map(NodeId).collect();
        let (locs, cols) = LocationIndex::build(&own, Arc::default());
        let mut table = Self::with_geometry(cols, locs);
        table.rows = blocks_from_flat(vec![RowShard::Empty; endpoint_count]);
        table
    }

    /// A table with no route and no row over this geometry.
    fn with_geometry(cols: Vec<u32>, locs: LocationIndex) -> Self {
        RouteTable {
            store: Arc::default(),
            rows: Vec::new(),
            endpoint_count: cols.len(),
            cols: blocks_from_flat(cols),
            index_probes: 0,
            locs: Arc::new(locs),
            resolver: Arc::default(),
            rows_read: Some(0),
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
        self.rows_read = None;
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
        let (locs, cols) = LocationIndex::build(locations, Arc::clone(&matrix.node_component));
        let mut table = Self::with_geometry(cols, locs);
        table.derive_rows(matrix);
        table
    }

    /// Derives every location's row of a still rowless table, in slot
    /// order (which fixes the order routes are interned in), appending to a
    /// store unshared once, with no probe: no two location pairs share a
    /// route (see the module docs), so each is new content.
    fn derive_rows(&mut self, matrix: &RoutingMatrix) {
        let (locs, resolver) = (Arc::clone(&self.locs), Arc::clone(&self.resolver));
        let (mut resolver, mut row) = (lock(&resolver), Vec::new());
        let store = Arc::make_mut(&mut self.store);
        debug_assert!(store.len() == 0 && store.index.get().is_none());
        let rows = (0..locs.locations.len()).map(|si| {
            if locs.endpoints[si].is_empty() {
                return RowShard::Empty;
            }
            let mut run = resolver.run(matrix, locs.locations[si]);
            let base = locs.row_window(si, &mut row);
            for di in locs.row_columns(si) {
                let route = run.route(locs.locations[di]);
                let appended = run.pipes(route).map(|(pipes, _)| store.append(pipes, None));
                row[di - base] = appended.map_or(NO_ROUTE, |id| id.0);
            }
            RowShard::from_window(base, &row)
        });
        self.rows = blocks_from_flat(rows.collect());
        self.rows_read = Some(self.route_count());
    }

    /// Interns `routes` of `run`, in order, into `ids` (the raw id,
    /// `NO_ROUTE` where unroutable). Every home slot is read before the
    /// first probe, so the lookups wait on memory together; the probes and
    /// appends then go in order, so ids and probe counts are those of one
    /// [`RouteTable::intern_pipes`] a route. No two routes of a run are the
    /// same content, so none of its lookups depends on another's append.
    fn intern_run(&mut self, run: &Run, routes: &[Route], ids: &mut Vec<u32>) {
        let mut routed = routes.iter().filter_map(|&r| run.pipes(r)).peekable();
        if routed.peek().is_some() {
            let index = self.store.index();
            routed.for_each(|(pipes, fold)| index.prefetch(index.finish(fold, pipes.len())));
        }
        ids.clear();
        for &route in routes {
            let interned = run
                .pipes(route)
                .map(|(p, fold)| self.intern_folded(p, fold));
            ids.push(interned.map_or(NO_ROUTE, |id| id.0));
        }
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
    /// however many endpoints are bound there. A run's routes come from one
    /// walk of the source's tree (see the `resolver` module): a predecessor
    /// is read once per run, not once per route crossing it.
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
        let (locs, resolver) = (Arc::clone(&self.locs), Arc::clone(&self.resolver));
        let mut resolver = lock(&resolver);
        let (mut routes, mut ids, mut patches) = (Vec::new(), Vec::new(), Vec::new());
        // One walk and one row patch per run of pairs sharing a source, in
        // the order given: `RoutingMatrix::update_pipes` reports a
        // recomputed tree's pairs together. Every step is a load keyed by a
        // node the pairs name — nothing here is sized by the location or VN
        // count.
        for pairs in changed.chunk_by(|a, b| a.0 == b.0) {
            let src = pairs[0].0;
            let Some(ss) = locs.slot_of(src) else {
                continue; // no endpoint ever bound there: nothing to rewire
            };
            // Resolved (and interned) even when nothing will read it, so
            // `RouteId`s never depend on which locations are populated;
            // same-location pairs stay local, never routed.
            let others = pairs.iter().filter(|&&(_, dst)| dst != src);
            let dsts = others.filter_map(|&(_, dst)| locs.slot_of(dst));
            let mut run = resolver.run(matrix, src);
            let nodes = dsts.clone().map(|ds| locs.locations[ds as usize]);
            routes.clear();
            routes.extend(nodes.map(|dst| run.route(dst)));
            self.intern_run(&run, &routes, &mut ids);
            patches.clear();
            for (ds, &raw) in dsts.map(|ds| ds as usize).zip(&ids) {
                if !locs.endpoints[ds].is_empty() {
                    patches.push((ds, raw));
                }
            }
            if !locs.endpoints[ss as usize].is_empty() {
                self.patch_row(ss as usize, &patches);
            }
        }
    }

    /// [`RouteTable::rewire_in_place`] one pair at a time: each route
    /// walked alone and interned at once, one row patch per run. The
    /// oracle the run-at-a-time rewire is tested against.
    #[doc(hidden)]
    pub fn rewire_pair_by_pair(&mut self, matrix: &RoutingMatrix, changed: &[(NodeId, NodeId)]) {
        let (locs, mut pipes, mut patches) = (Arc::clone(&self.locs), Vec::new(), Vec::new());
        for pairs in changed.chunk_by(|a, b| a.0 == b.0) {
            let src = pairs[0].0;
            let Some(ss) = locs.slot_of(src) else {
                continue;
            };
            patches.clear();
            for &(_, dst) in pairs.iter().filter(|&&(_, dst)| dst != src) {
                let Some(ds) = locs.slot_of(dst) else {
                    continue;
                };
                let raw = match (matrix.vn_index(src), matrix.vn_index(dst)) {
                    (Some(ms), Some(md)) if matrix.materialize_at(ms, md, &mut pipes) => {
                        self.intern_pipes(&pipes).0
                    }
                    _ => NO_ROUTE,
                };
                if !locs.endpoints[ds as usize].is_empty() {
                    patches.push((ds as usize, raw));
                }
            }
            if !locs.endpoints[ss as usize].is_empty() {
                self.patch_row(ss as usize, &patches);
            }
        }
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
        // Invariant: `slot` is a location slot, and the rows hold one shard
        // per location slot (the decoder reads one for each slot it lists;
        // binding an endpoint at a new slot appends one). Callers pass a
        // live endpoint's column, which the decoder checks is a location
        // slot ("column is not a location slot"), or a slot the rewire read
        // off the location runs.
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
    /// and refreshes the location's destination column in the rows of its
    /// component's other live locations (a patch each, flat in endpoints).
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
            let (locs, resolver) = (Arc::clone(&self.locs), Arc::clone(&self.resolver));
            let (mut resolver, mut ids, mut row) = (lock(&resolver), Vec::new(), Vec::new());
            let mut run = resolver.run(matrix, location);
            let dsts = locs.row_columns(slot).map(|di| locs.locations[di]);
            let routes: Vec<Route> = dsts.map(|dst| run.route(dst)).collect();
            self.intern_run(&run, &routes, &mut ids);
            let base = locs.row_window(slot, &mut row);
            for (di, &raw) in locs.row_columns(slot).zip(&ids) {
                row[di - base] = raw;
            }
            self.set_row(slot, RowShard::from_window(base, &row));
            for si in locs.row_columns(slot) {
                let mut run = resolver.run(matrix, locs.locations[si]);
                let route = [run.route(location)];
                self.intern_run(&run, &route, &mut ids);
                self.patch_row(si, &[(slot, ids[0])]);
            }
        }
        true
    }

    /// Unbinds `endpoint` — the leave half of live endpoint churn: its
    /// column entry is marked departed (new lookups from it fail) and it
    /// leaves its location's endpoint list, touching O(1) blocks. If it was
    /// the last endpoint there, the location's row and its component's rows'
    /// columns toward it are cleared (a patch each, as a first join there
    /// refreshes them), so the rows stay what [`RouteTable::build`]
    /// derives for the live endpoints. Every interned route is retained, so
    /// descriptors in flight drain deterministically on their ids.
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
            self.clear_column(slot);
        }
        self.set_col(endpoint, slot as u32 | DEPARTED);
        true
    }

    /// Clears every live row's column toward `slot`, a location with no
    /// live endpoint.
    fn clear_column(&mut self, slot: usize) {
        let locs = Arc::clone(&self.locs);
        for si in locs.row_columns(slot) {
            self.patch_row(si, &[(slot, NO_ROUTE)]);
        }
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
        let pipes = Pipes(pipes, None);
        self.intern_folded(pipes, fold_pipes(pipes))
    }

    /// [`RouteTable::intern_pipes`] of a route whose fold is known.
    fn intern_folded(&mut self, pipes: Pipes, fold: u64) -> RouteId {
        match self.store.find(pipes, fold, &mut self.index_probes) {
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
        let pipes = Pipes(pipes, None);
        let (fingerprint, known) =
            self.store
                .find(pipes, fold_pipes(pipes), &mut self.index_probes);
        Arc::make_mut(&mut self.store).append(pipes, known.is_none().then_some(fingerprint))
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
        // The documented panics: the caller names the endpoints.
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
    /// departed *destination* resolves while a sibling stays at its
    /// location; once its location's last endpoint leaves, it resolves to
    /// `None` ([`RouteTable::unbind_endpoint`]), and descriptors in flight
    /// toward it drain on the routes they hold by id.
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

    /// Predecessor reads the route resolver has made for this table and
    /// every generation sharing its scratch. Exact, so tests can state walk
    /// cost as a count.
    #[doc(hidden)]
    pub fn predecessor_steps(&self) -> u64 {
        lock(&self.resolver).steps
    }

    /// Times the resolver shared with this table sized its per-node memo:
    /// once per graph, however many generations and rewires use it.
    #[doc(hidden)]
    pub fn resolver_memo_sizings(&self) -> u64 {
        lock(&self.resolver).sizings
    }

    /// Every route id the rows hold, slot by slot, in column order.
    fn row_routes(&self) -> impl Iterator<Item = u32> + '_ {
        let rows = self.rows.iter().flat_map(|block| block.iter());
        let ids = rows.flat_map(|row| row.ids().iter().copied());
        ids.filter(|&id| id != NO_ROUTE)
    }

    /// The numbering a checkpoint writes the routes under, and how many of
    /// them the rows read: those come first, the routes only descriptors
    /// read after them. The numbering is `None` where it is the identity (a
    /// built or derived table's; a restored table is canonical exactly
    /// then). `held` appends every descriptor's route, and is called, and
    /// its error returned, only when some route is read by no row.
    pub fn numbering<E>(
        &self,
        held: impl FnOnce(&mut Vec<RouteId>) -> Result<(), E>,
    ) -> Result<(usize, Option<RouteNumbering>), E> {
        let count = self.route_count();
        if self.rows_read == Some(count) {
            return Ok((count, None));
        }
        let (mut canonical, mut kept) = (vec![NO_ROUTE; count], Vec::new());
        let row_routes: Box<dyn Iterator<Item = u32>> = match self.rows_read {
            Some(rows) => Box::new(0..rows as u32),
            None => Box::new(self.row_routes()),
        };
        for id in row_routes {
            if canonical[id as usize] == NO_ROUTE {
                canonical[id as usize] = kept.len() as u32;
                kept.push(id);
            }
        }
        let rows = kept.len();
        let mut extra = Vec::new();
        if rows < count {
            held(&mut extra)?;
        }
        // The routes no row reads, each once; equal content is one route,
        // kept under its first id.
        extra.retain(|id| canonical[id.index()] == NO_ROUTE);
        extra.sort_unstable_by(|a, b| self.pipes(*a).cmp(self.pipes(*b)).then(a.cmp(b)));
        extra.dedup();
        for (at, &id) in extra.iter().enumerate() {
            if at == 0 || self.pipes(extra[at - 1]) != self.pipes(id) {
                kept.push(id.0);
            }
            canonical[id.index()] = kept.len() as u32 - 1;
        }
        let identity =
            kept.len() == count && kept.iter().enumerate().all(|(at, &id)| at == id as usize);
        Ok((
            rows,
            (!identity).then_some(RouteNumbering { canonical, kept }),
        ))
    }

    /// Serialises what a restore cannot derive ([`RouteTable::decode_section`]):
    /// the geometry, then the routes only descriptors read — `numbering`'s
    /// past the first `rows` ([`RouteTable::numbering`]) — as `ends` and
    /// pipes, two `u32` runs.
    pub fn encode_section(
        &self,
        w: &mut ByteWriter,
        rows: usize,
        numbering: Option<&RouteNumbering>,
    ) {
        // The column map without the departed bits, each location slot's
        // node, and each slot's endpoint list.
        w.put_usize(self.endpoint_count);
        w.put_len(self.locs.locations.len());
        for block in &self.cols {
            block.iter().for_each(|&col| w.put_u32(col & !DEPARTED));
        }
        for &loc in &self.locs.locations {
            w.put_usize(loc.index());
        }
        for list in &self.locs.endpoints {
            w.put_u32s(list);
        }
        let count = numbering.map_or(self.route_count(), |n| n.kept.len());
        let stored = |at: usize| numbering.map_or(at, |n| n.kept[at] as usize);
        let held = (rows..count).map(|at| self.store.get(stored(at)));
        let mut end = 0;
        w.put_len(count - rows);
        held.clone().for_each(|pipes| {
            end += pipes.len() as u32;
            w.put_u32(end);
        });
        w.put_len(end as usize);
        held.for_each(|pipes| w.put_bare_u32s(pipes.iter().map(|p| p.0)));
    }

    /// Reads the geometry [`RouteTable::encode_section`] writes for `slots`
    /// slots, checked: columns name slots, locations are distinct nodes of
    /// `matrix` (they size the node → slot map), and each list ascends
    /// strictly and names endpoints whose column it is; the rest departed.
    fn get_geometry(
        r: &mut ByteReader,
        endpoints: usize,
        slots: usize,
        matrix: &RoutingMatrix,
    ) -> Result<(Vec<u32>, LocationIndex), CodecError> {
        use CodecError::Invalid;
        let mut cols = Vec::with_capacity(endpoints);
        for _ in 0..endpoints {
            cols.push(u32::get(r)?);
        }
        if slots > DEPARTED as usize || cols.iter().any(|&c| c as usize >= slots) {
            return Err(Invalid("column is not a location slot"));
        }
        let (mut locs, _) = LocationIndex::build(&[], Arc::clone(&matrix.node_component));
        for _ in 0..slots {
            let loc = NodeId::get(r)?;
            if loc.index() >= matrix.node_count {
                return Err(Invalid("location node index beyond the matrix"));
            }
            if locs.slot_of(loc).is_some() {
                return Err(Invalid("location listed twice"));
            }
            locs.add_location(loc);
        }
        // Every endpoint is departed until its location's list claims it.
        cols.iter_mut().for_each(|c| *c |= DEPARTED);
        for slot in 0..slots as u32 {
            let list = Vec::<u32>::get(r)?;
            if list.windows(2).any(|pair| pair[0] >= pair[1]) {
                return Err(Invalid("location's endpoints are not strictly ascending"));
            }
            for &e in &list {
                match cols.get_mut(e as usize) {
                    Some(col) if *col == slot | DEPARTED => *col = slot,
                    _ => return Err(Invalid("location lists an endpoint not bound there")),
                }
            }
            locs.endpoints.push(Arc::from(list));
        }
        Ok((cols, locs))
    }

    /// `true` when both tables bind each endpoint at the same location.
    fn same_geometry(&self, other: &RouteTable) -> bool {
        let cols = self.cols.iter().flat_map(|block| block.iter());
        self.locs.locations == other.locs.locations
            && self.locs.endpoints == other.locs.endpoints
            && cols.eq(other.cols.iter().flat_map(|block| block.iter()))
    }

    /// Reads what [`RouteTable::encode_section`] writes over the restored
    /// `matrix`: the rows derived as [`RouteTable::build`] derives them, or
    /// `own`'s, shared, when `own` is exactly a build (no row written, no
    /// route appended) over the same geometry and, as the caller checks,
    /// the same matrix; then the held routes, each non-empty, over the
    /// matrix's pipes and not the route the rows give between its ends.
    pub fn decode_section(
        r: &mut ByteReader,
        matrix: &RoutingMatrix,
        own: Option<&RouteTable>,
    ) -> Result<Self, CodecError> {
        use CodecError::Invalid;
        // An endpoint is at least its column; a location its node and the
        // count of its endpoint list.
        let endpoints = r.get_count(u32::MIN_BYTES)?;
        let slots = r.get_count(<(NodeId, Vec<u32>)>::MIN_BYTES)?;
        let (cols, locs) = Self::get_geometry(r, endpoints, slots, matrix)?;
        // The held routes' ends, read in place, then their pipes: the store
        // is the only copy of the routes a restore keeps.
        let count = r.get_count(u32::MIN_BYTES)?;
        let (ends, _) = r.take_bytes(4 * count)?.as_chunks();
        let ends = || ends.iter().map(|&end| u32::from_le_bytes(end) as usize);
        let pipes: Vec<PipeId> = r.get_u32s()?.into_iter().map(PipeId).collect();
        let held = || {
            ends().scan(0, |from, end| {
                Some(&pipes[std::mem::replace(from, end)..end])
            })
        };
        if ends().try_fold(0, |from, end| (end > from).then_some(end)) != Some(pipes.len()) {
            return Err(Invalid("held routes' ends do not rise to their pipes"));
        }
        if pipes.iter().any(|p| p.index() >= matrix.pipe_count()) {
            return Err(Invalid("held route names a pipe the matrix does not hold"));
        }
        let mut table = Self::with_geometry(cols, locs);
        match own {
            Some(own) if own.rows_read == Some(own.route_count()) && own.same_geometry(&table) => {
                table = own.clone()
            }
            _ => table.derive_rows(matrix),
        }
        if count > NO_ROUTE as usize - table.route_count() {
            return Err(Invalid("more routes than ids"));
        }
        for pipes in held() {
            let (first, last) = (pipes[0].index(), pipes[pipes.len() - 1].index());
            let slot = |node: u32| table.locs.slot_of(NodeId(node as usize));
            let ends = slot(matrix.pipe_src[first]).zip(slot(matrix.pipe_dst[last]));
            let row = ends.and_then(|(s, d)| Some(table.row(s as usize)?.raw(d as usize)));
            if row.is_some_and(|id| id != NO_ROUTE && table.pipes(RouteId(id)) == pipes) {
                return Err(Invalid("held route equal to a derived one"));
            }
        }
        if count > 0 {
            let store = Arc::make_mut(&mut table.store);
            // A shared table's content index would not see the appends: the
            // first lookup builds it again.
            store.index.take();
            held().for_each(|pipes| {
                store.append(Pipes(pipes, None), None);
            });
        }
        Ok(table)
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
        bytes += (locs.by_component.capacity() + locs.starts.capacity()) * 4;
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

    /// [`multiplexed_ring`] with the first pipe of `0 -> 1` failed (the
    /// access pipe out of endpoint 0's location) and the table rewired
    /// around it; the routes it took from the rows are held, as descriptors
    /// in flight on them would hold them. Also returns the healthy topology.
    fn flapped_ring() -> (
        mn_distill::DistilledTopology,
        RoutingMatrix,
        Vec<NodeId>,
        RouteTable,
        Vec<RouteId>,
    ) {
        let (d, mut matrix, locations) = multiplexed_ring();
        let mut table = RouteTable::build(&matrix, &locations);
        let victim = table.pipes(table.route_id(0, 1).unwrap())[0];
        let ids = (0..table.route_count() as u32).map(RouteId);
        let held: Vec<RouteId> = ids
            .filter(|&id| table.pipes(id).contains(&victim))
            .collect();
        let mut down = d.clone();
        down.pipe_attrs_mut(victim).unwrap().bandwidth = mn_util::DataRate::ZERO;
        let update = matrix.update_pipes(&down, &[victim]);
        table.rewire_in_place(&matrix, &locations, &update.changed_pairs);
        (d, matrix, locations, table, held)
    }

    /// `table`'s route section as a checkpoint writes it while descriptors
    /// in flight hold `held`.
    fn section(table: &RouteTable, held: &[RouteId]) -> Vec<u8> {
        let numbering = table.numbering(|ids| {
            ids.extend_from_slice(held);
            Ok::<_, ()>(())
        });
        let (rows, numbering) = numbering.unwrap();
        let mut w = ByteWriter::new();
        table.encode_section(&mut w, rows, numbering.as_ref());
        w.into_bytes()
    }

    /// Every route `table` stores, as held routes.
    fn every_route(table: &RouteTable) -> Vec<RouteId> {
        (0..table.route_count() as u32).map(RouteId).collect()
    }

    /// `decode_section` of the whole of `bytes`.
    fn decoded(
        bytes: &[u8],
        matrix: &RoutingMatrix,
        own: Option<&RouteTable>,
    ) -> Result<RouteTable, CodecError> {
        let mut r = ByteReader::new(bytes);
        let table = RouteTable::decode_section(&mut r, matrix, own)?;
        r.finish()?;
        Ok(table)
    }

    /// The pipes `table` routes `src -> dst` on.
    fn route(table: &RouteTable, src: usize, dst: usize) -> Option<&[PipeId]> {
        table.route_id(src, dst).map(|id| table.pipes(id))
    }

    #[test]
    fn section_round_trip_is_byte_stable_and_preserves_lookups() {
        // A multiplexed table (two endpoints per location) exercises shared
        // rows, the column map and the location geometry; a failure before
        // the checkpoint exercises rewired rows and held routes.
        let (d, mut matrix, locations, mut table, held) = flapped_ring();
        let bytes = section(&table, &held);
        let mut restored = decoded(&bytes, &matrix, None).expect("decodes");
        restored.assert_sound();
        assert!(
            restored.store.index.get().is_none(),
            "no index until a lookup"
        );
        let again = section(&restored, &every_route(&restored));
        assert_eq!(bytes, again, "snapshot → restore → snapshot");

        // The rows read the same routes, and the held routes follow them in
        // pipe order.
        assert_eq!(restored.endpoint_count(), table.endpoint_count());
        let n = table.endpoint_count();
        for (s, t) in (0..n * n).map(|i| (i / n, i % n)) {
            assert_eq!(route(&restored, s, t), route(&table, s, t), "{s}->{t}");
        }
        let mut held_pipes: Vec<&[PipeId]> = held.iter().map(|&id| table.pipes(id)).collect();
        held_pipes.sort();
        let rows = restored.route_count() - held.len();
        let restored_held =
            (rows..restored.route_count()).map(|id| restored.pipes(RouteId(id as u32)));
        assert!(restored_held.eq(held_pipes));

        // The restored table rewires identically: the link comes back and
        // both tables map its routes onto the held ones, interning nothing.
        let victim = table.pipes(held[0])[0];
        let count = (table.route_count(), restored.route_count());
        let update = matrix.update_pipes(&d, &[victim]);
        table.rewire_in_place(&matrix, &locations, &update.changed_pairs);
        restored.rewire_in_place(&matrix, &locations, &update.changed_pairs);
        assert_eq!((table.route_count(), restored.route_count()), count);
        for (s, t) in (0..n * n).map(|i| (i / n, i % n)) {
            assert_eq!(route(&restored, s, t), route(&table, s, t), "{s}->{t}");
        }
    }

    impl RouteTable {
        /// Every invariant the table's operations rely on, read off the
        /// private state: what `decode_section` must establish from hostile
        /// bytes.
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
        }
    }

    #[test]
    fn mutated_sections_decode_to_a_sound_table_or_a_typed_error() {
        // Every single-byte mutation (each bit flipped, the byte zeroed, the
        // byte saturated) of the flapped ring's section, with its held
        // routes, decoded over the flapped matrix alone and beside a fresh
        // build it may share: decoding may refuse it, but must never panic,
        // and a table it accepts must hold every invariant, answer every
        // lookup without panicking and hold no more memory than a small
        // multiple of the input.
        let (_, matrix, locations, table, held) = flapped_ring();
        let fresh = RouteTable::build(&matrix, &locations);
        let bytes = section(&table, &held);
        for own in [None, Some(&fresh)] {
            let (mut accepted, mut refused) = (0usize, 0usize);
            for at in 0..bytes.len() {
                let flips = (0..8).map(|bit| bytes[at] ^ (1 << bit));
                for value in flips.chain([0x00, 0xFF]) {
                    if value == bytes[at] {
                        continue;
                    }
                    let mut mutated = bytes.clone();
                    mutated[at] = value;
                    let mut r = ByteReader::new(&mutated);
                    match RouteTable::decode_section(&mut r, &matrix, own) {
                        Ok(restored) => {
                            accepted += 1;
                            restored.assert_sound();
                            let n = restored.endpoint_count();
                            assert!(n <= mutated.len(), "byte {at} -> {value:#04x}");
                            for (s, t) in (0..n * n).map(|i| (i / n, i % n)) {
                                std::hint::black_box(route(&restored, s, t));
                            }
                            let resident = restored.memory().resident_bytes;
                            assert!(
                                resident <= 64 * mutated.len(),
                                "byte {at} -> {value:#04x}: {resident} B resident"
                            );
                        }
                        Err(CodecError::Invalid(_) | CodecError::Eof) => refused += 1,
                        Err(other) => panic!("byte {at} -> {value:#04x}: unexpected {other:?}"),
                    }
                }
            }
            let (shared, len) = (own.is_some(), bytes.len());
            println!("{len} B, own table {shared}: {accepted} accepted, {refused} refused");
            // Both outcomes occur: pipe ids are free-form below the
            // matrix's count, every count and index is not.
            assert!(accepted > 0 && refused > 0, "{accepted} / {refused}");
        }
    }

    /// A route section written by hand: the column map, the location nodes
    /// and their endpoint lists, then the held routes' ends and pipes.
    fn crafted(
        matrix: &RoutingMatrix,
        cols: &[u32],
        locations: &[NodeId],
        lists: &[&[u32]],
        (ends, pipes): (&[u32], &[u32]),
    ) -> Result<RouteTable, CodecError> {
        let mut w = ByteWriter::new();
        w.put_usize(cols.len());
        w.put_len(locations.len());
        cols.iter().for_each(|&c| w.put_u32(c));
        locations.iter().for_each(|loc| w.put_usize(loc.index()));
        lists.iter().for_each(|list| w.put_u32s(list));
        w.put_u32s(ends);
        w.put_u32s(pipes);
        decoded(&w.into_bytes(), matrix, None)
    }

    #[test]
    fn decode_section_refuses_sections_it_could_not_serve() {
        use CodecError::Invalid;
        // Endpoints 0 and 2 at location `a` (slot 0), endpoint 1 at `b`
        // (slot 1), no held route unless a case gives some.
        let (_, matrix, vns) = multiplexed_ring();
        let (a, b) = (vns[0], vns[1]);
        let none: (&[u32], &[u32]) = (&[], &[]);
        let table = |locations: &[NodeId], lists: &[&[u32]], held: (&[u32], &[u32])| {
            crafted(&matrix, &[0, 1, 0], locations, lists, held)
        };
        let refused = |locations: &[NodeId], lists: &[&[u32]]| table(locations, lists, none).err();
        let sound = table(&[a, b], &[&[0, 2], &[1]], none).unwrap();
        sound.assert_sound();
        let a_to_b = sound.route_id(2, 1).unwrap();
        assert_eq!(sound.route_id(0, 1), Some(a_to_b));
        assert!(sound.route_id(1, 2).is_some());
        // (a) An endpoint list that is not strictly ascending: the binary
        // searches over it would mis-answer.
        for list in [[2, 0], [0, 0]] {
            assert_eq!(
                refused(&[a, b], &[&list, &[1]]),
                Some(Invalid("location's endpoints are not strictly ascending"))
            );
        }
        // (b) One node listed as two locations, and a node the matrix does
        // not have: it would size the dense node -> slot map.
        assert_eq!(
            refused(&[a, a], &[&[0, 2], &[1]]),
            Some(Invalid("location listed twice"))
        );
        assert_eq!(
            refused(&[a, NodeId(1 << 40)], &[&[0, 2], &[1]]),
            Some(Invalid("location node index beyond the matrix"))
        );
        // (c) A column naming no slot, and a list naming an endpoint whose
        // column is another slot.
        assert_eq!(
            crafted(&matrix, &[0, 2, 0], &[a, b], &[&[0, 2], &[1]], none).err(),
            Some(Invalid("column is not a location slot"))
        );
        assert_eq!(
            refused(&[a, b], &[&[0], &[1, 2]]),
            Some(Invalid("location lists an endpoint not bound there"))
        );
        // Departures: one endpoint of a location leaves and its row stays
        // for the other, routes toward it intact; the last one of a
        // location leaves with its row and the columns toward it.
        let left = table(&[a, b], &[&[0], &[1]], none).unwrap();
        left.assert_sound();
        assert_eq!(left.route_id(2, 1), None);
        assert_eq!(left.route_id(0, 1), Some(a_to_b));
        assert!(left.route_id(1, 2).is_some());
        assert!(!left.is_endpoint_bound(2) && left.is_endpoint_bound(0));
        let left = table(&[a, b], &[&[0, 2], &[]], none).unwrap();
        left.assert_sound();
        assert_eq!(left.route_id(0, 1), None);
        assert!(!left.is_endpoint_bound(1));
        // (d) Held routes: ends that do not rise from 0 to the pipe count,
        // a pipe the matrix does not hold, the route the rows give.
        let derived: Vec<u32> = sound.pipes(a_to_b).iter().map(|p| p.0).collect();
        let p = derived[0];
        let lists: &[&[u32]] = &[&[0, 2], &[1]];
        for ends in [&[0, 2][..], &[2, 1], &[1], &[3]] {
            assert_eq!(
                table(&[a, b], lists, (ends, &[p, p])).err(),
                Some(Invalid("held routes' ends do not rise to their pipes"))
            );
        }
        let beyond = matrix.pipe_count() as u32;
        assert_eq!(
            table(&[a, b], lists, (&[2], &[p, beyond])).err(),
            Some(Invalid("held route names a pipe the matrix does not hold"))
        );
        assert_eq!(
            table(&[a, b], lists, (&[derived.len() as u32], &derived)).err(),
            Some(Invalid("held route equal to a derived one"))
        );
        let held = table(&[a, b], lists, (&[1, 3], &[p, p, p])).unwrap();
        held.assert_sound();
        let rows = sound.route_count();
        assert_eq!(held.route_count(), rows + 2);
        assert_eq!(held.pipes(RouteId(rows as u32 + 1)), &[PipeId(p); 2]);
    }

    #[test]
    fn a_restored_table_interns_through_an_index_built_on_first_use() {
        // Held routes straddling a chunk boundary behind the derived ones:
        // the first intern of anything builds the index over all of them,
        // known content comes back under its id and new content appends —
        // whether fingerprints tell routes apart or (degenerate) every
        // probe has to compare against the store.
        let topo = ring_topology(&RingParams {
            routers: 6,
            clients_per_router: 2,
            ..RingParams::default()
        });
        let matrix = RoutingMatrix::build(&distill(&topo, DistillationMode::HopByHop));
        let mut table = RouteTable::build(&matrix, matrix.vns());
        // Distinct, and none a derived route, which visits no pipe twice.
        let pipes = matrix.pipe_count();
        assert!(pipes * pipes > ROUTE_CHUNK + 40);
        let content = |i: usize| [i % pipes, i % pipes, i / pipes].map(PipeId::from_index);
        let held: Vec<RouteId> = (0..ROUTE_CHUNK + 40)
            .map(|i| table.intern(&content(i)))
            .collect();
        let bytes = section(&table, &held);
        for degenerate in [false, true] {
            let mut restored = decoded(&bytes, &matrix, None).unwrap();
            assert_eq!(restored.route_count(), table.route_count());
            Arc::make_mut(&mut restored.store).degenerate = degenerate;
            let forwarding = restored.clone();
            let known = RouteId(restored.route_count() as u32 - 2);
            let pipes = restored.pipes(known).to_vec();
            assert_eq!(restored.intern_pipes(&pipes), known);
            // Built once, in the store both generations still share.
            assert!(forwarding.store.index.get().is_some());
            assert!(Arc::ptr_eq(&forwarding.store, &restored.store));
            let len = restored.store.index.get().unwrap().len;
            assert_eq!(len, restored.route_count());
            for id in every_route(&restored) {
                let pipes = restored.pipes(id).to_vec();
                assert_eq!(restored.intern_pipes(&pipes), id);
            }
            let fresh = restored.intern_pipes(&[PipeId(9); 4]);
            assert_eq!(fresh.index(), table.route_count(), "new content appends");
            assert_eq!(restored.intern_pipes(&[PipeId(9); 4]), fresh);
            assert_eq!(forwarding.route_count(), table.route_count());
            restored.assert_sound();
        }
    }

    #[test]
    fn route_ids_keep_the_record_contract() {
        mn_util::codec::record_contract(RouteId(41));
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
                {
                    let node_component = Arc::clone(&matrix.node_component);
                    let (locs, cols) = LocationIndex::build(&locations, node_component);
                    RouteTable::with_geometry(cols, locs)
                },
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
                        let pipes: Vec<PipeId> = raw.iter().map(|&p| PipeId::from_index(p)).collect();
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
                        let link = [PipeId::from_index(2 * k), PipeId::from_index(2 * k + 1)];
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
        /// clone's appends never reach and whose sealed chunks it shares.
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
                let pipes = vec![PipeId::from_index(100 + i % 7); i % 13];
                prop_assert_eq!(table.intern(&pipes), RouteId(i as u32));
                oracle.push(pipes);
            }
            let mut parent = table.clone();
            for op in ops {
                match &op {
                    ArenaOp::InternPipes(raw) | ArenaOp::Intern(raw) | ArenaOp::PublishThenIntern(raw) => {
                        let pipes: Vec<PipeId> = raw.iter().map(|&p| PipeId::from_index(p)).collect();
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
            }
        }
    }

    #[test]
    fn a_build_over_disjoint_paths_reads_a_predecessor_a_hop_and_a_location() {
        // `fwd_chain8`'s geometry: 256 disjoint 8-hop paths, 512 locations
        // and 512 routes. A row visits its own component's slots only, so
        // the build reads at most one predecessor a hop of every route and
        // one a location.
        use mn_topology::generators::{path_pairs_topology, PathPairsParams};
        let params = PathPairsParams {
            pairs: 256,
            hops: 8,
            ..Default::default()
        };
        let d = distill(&path_pairs_topology(&params).0, DistillationMode::HopByHop);
        let table = RouteTable::build(&RoutingMatrix::build(&d), d.vns());
        let (routes, locations) = (table.route_count(), table.locs.locations.len());
        assert_eq!((routes, locations), (512, 512));
        let mut hops = (0..routes).map(|id| table.pipes(RouteId(id as u32)).len());
        assert!(hops.all(|hops| hops == 8));
        let steps = table.predecessor_steps();
        println!("{routes} routes over {locations} locations: {steps} predecessor reads");
        assert!(steps <= (routes * 8 + locations) as u64, "{steps} reads");
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
        // New lookups from and toward the departed endpoint, the last at
        // its location, fail; the route toward it survives in the store,
        // so in-flight descriptors drain on pre-departure ids.
        for t in 0..n {
            assert!(table.route_id(departed, t).is_none());
            assert!(table.route_id(t, departed).is_none());
        }
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
            .map(|i| table.intern(&[PipeId::from_index(i), PipeId::from_index(i + 1)]))
            .collect();
        assert_eq!(table.route_count(), count);
        for (i, &id) in ids.iter().enumerate() {
            assert_eq!(
                table.pipes(id),
                &[PipeId::from_index(i), PipeId::from_index(i + 1)]
            );
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

//! A minimal binary codec for the snapshot subsystem.
//!
//! The emulator's checkpoint format (see `mn_emucore::snapshot`) needs a
//! deterministic, versioned, checksummed byte encoding that works offline —
//! the vendored `serde` stand-in is marker-only, so encoding is hand-rolled
//! here. Everything is little-endian and fixed-width; sequences are
//! length-prefixed with a `u64` count. Floats are encoded as their IEEE-754
//! bit patterns, so encode → decode → encode is byte-stable even for NaN
//! payloads.
//!
//! A persisted type states its layout once, as a [`Codec`] impl: records
//! through [`codec_record!`](crate::codec_record), whose field list is the
//! layout, enums by one hand-written impl holding both directions. The
//! [`ByteWriter`] / [`ByteReader`] primitives below are what those impls —
//! and the few layouts too irregular to declare — are written in.

use std::fmt;

use crate::rate::{ByteSize, DataRate};
use crate::time::{SimDuration, SimTime};

/// Decoding failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The input ended before the value was complete.
    Eof,
    /// The header magic did not match.
    BadMagic,
    /// The format version is not one this build can read.
    BadVersion(u32),
    /// The payload checksum did not match the header.
    BadChecksum,
    /// A decoded value was structurally invalid (enum tag, count, range).
    Invalid(&'static str),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Eof => write!(f, "unexpected end of input"),
            CodecError::BadMagic => write!(f, "bad snapshot magic"),
            CodecError::BadVersion(v) => write!(f, "unsupported snapshot format version {v}"),
            CodecError::BadChecksum => write!(f, "snapshot checksum mismatch (corrupt input)"),
            CodecError::Invalid(what) => write!(f, "invalid snapshot field: {what}"),
        }
    }
}

impl std::error::Error for CodecError {}

/// FNV-1a 64-bit hash, the digest golden tests and the benchmark take of a
/// run's output. No frame this build reads is summed with it: it is
/// byte-serial, which is why snapshot frames moved to [`checksum64`].
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = 0xCBF2_9CE4_8422_2325u64;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

const SUM_P1: u64 = 0x9E37_79B1_85EB_CA87;
const SUM_P2: u64 = 0xC2B2_AE3D_27D4_EB4F;
const SUM_P3: u64 = 0x1656_67B1_9E37_79F9;

/// One lane step: a bijection of `lane` for any `word` and of `word` for any
/// `lane`, so a changed word always changes its lane.
#[inline(always)]
fn sum_round(lane: u64, word: u64) -> u64 {
    (lane.wrapping_add(word.wrapping_mul(SUM_P2)).rotate_left(31)).wrapping_mul(SUM_P1)
}

/// Folds `word` into the running sum; a bijection in either argument.
#[inline(always)]
fn sum_fold(sum: u64, word: u64) -> u64 {
    ((sum ^ sum_round(0, word)).rotate_left(27)).wrapping_mul(SUM_P1) ^ SUM_P3
}

/// The payload checksum of snapshot frames since version 2: little-endian 8-byte
/// words folded into four independent lanes (32 bytes a step, so the
/// multiplies overlap instead of queueing as in [`fnv1a64`]), the lanes
/// merged, then the total length and the tail (whole words, a last partial
/// word zero-padded) folded in. Constants are fixed and unseeded: a byte
/// string has one sum on every host and build. Every step is a bijection of
/// the state it updates, so changing any one word changes the sum.
pub fn checksum64(bytes: &[u8]) -> u64 {
    let mut lanes = [
        SUM_P1.wrapping_add(SUM_P2),
        SUM_P2,
        0,
        SUM_P1.wrapping_neg(),
    ];
    let mut stripes = bytes.chunks_exact(32);
    for stripe in &mut stripes {
        for (lane, word) in lanes.iter_mut().zip(stripe.chunks_exact(8)) {
            *lane = sum_round(*lane, u64::from_le_bytes(word.try_into().unwrap()));
        }
    }
    let sum = lanes.into_iter().fold(bytes.len() as u64, sum_fold);
    stripes.remainder().chunks(8).fold(sum, |sum, tail| {
        let mut word = [0u8; 8];
        word[..tail.len()].copy_from_slice(tail);
        sum_fold(sum, u64::from_le_bytes(word))
    })
}

/// The checksum function a frame's format version selects.
pub type ChecksumFn = fn(&[u8]) -> u64;

/// [`checksum64`] of a payload around the frame nested at `nested`: the
/// bytes up to the end of the nested frame's 16-byte header and the bytes
/// from its 8-byte checksum on, each summed and the two sums folded. The
/// nested payload is left to the nested frame's own sum, so an outer frame
/// costs a pass over its own fields only — and still sees any change to the
/// nested frame's length, version or checksum. Panics unless `nested` is a
/// whole frame's span inside `payload`.
pub fn checksum64_around(payload: &[u8], nested: std::ops::Range<usize>) -> u64 {
    let (head, tail) = (nested.start + 16, nested.end - 8);
    assert!(head <= tail, "the nested span holds a frame");
    sum_fold(checksum64(&payload[..head]), checksum64(&payload[tail..]))
}

/// An append-only little-endian byte sink — or, made by
/// [`ByteWriter::measuring`], one that stores nothing and only counts what
/// it is given: an encoder run on one states its own length, so a buffer
/// can be sized to the encoding exactly ([`ByteWriter::write_exact`]).
#[derive(Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
    /// A measuring writer's count; `None` in one that stores.
    measured: Option<usize>,
}

impl ByteWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        ByteWriter::default()
    }

    /// Creates a writer that stores nothing: [`ByteWriter::len`] is what
    /// the calls made on it would have written, frames and runs included.
    pub fn measuring() -> Self {
        ByteWriter {
            buf: Vec::new(),
            measured: Some(0),
        }
    }

    /// Creates a writer with exactly `capacity` bytes pre-allocated. A
    /// buffer of megabytes (a checkpoint) is offered to the kernel for huge
    /// pages (`advise_huge_pages`).
    pub fn with_capacity(capacity: usize) -> Self {
        ByteWriter::reusing(Vec::new(), capacity)
    }

    /// Consumes the writer, returning the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written (or, measuring, counted) so far.
    pub fn len(&self) -> usize {
        self.measured.unwrap_or(self.buf.len())
    }

    /// Returns `true` if nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Borrow of the bytes written so far.
    pub fn as_slice(&self) -> &[u8] {
        &self.buf
    }

    /// Wraps `buf`, emptied, with room for `capacity` bytes: its own
    /// allocation if that is large enough, else — the old one freed first —
    /// one of exactly `capacity` bytes, as [`ByteWriter::with_capacity`]
    /// makes it.
    pub fn reusing(mut buf: Vec<u8>, capacity: usize) -> Self {
        buf.clear();
        if buf.capacity() < capacity {
            drop(buf);
            buf = Vec::with_capacity(capacity);
            advise_huge_pages(&buf);
        }
        ByteWriter {
            buf,
            measured: None,
        }
    }

    /// Writes what `encode` appends into `buf`, replacing what it held, in
    /// one allocation of exactly its length: `encode` runs on a measuring
    /// writer, then on one [`ByteWriter::reusing`] `buf` for that length.
    /// An error from the first run leaves `buf` as it was; from the second,
    /// empty.
    pub fn write_exact<E>(
        buf: &mut Vec<u8>,
        mut encode: impl FnMut(&mut ByteWriter) -> Result<(), E>,
    ) -> Result<(), E> {
        let mut measure = ByteWriter::measuring();
        encode(&mut measure)?;
        let mut w = ByteWriter::reusing(std::mem::take(buf), measure.len());
        encode(&mut w)?;
        debug_assert_eq!(w.len(), measure.len(), "the encoder wrote what it measured");
        *buf = w.into_bytes();
        Ok(())
    }

    /// Appends `bytes`, or counts them.
    #[inline]
    fn append(&mut self, bytes: &[u8]) {
        match &mut self.measured {
            Some(len) => *len += bytes.len(),
            None => self.buf.extend_from_slice(bytes),
        }
    }

    /// Overwrites the eight bytes at `at` (a length word reserved before its
    /// value was known); nothing, measuring.
    pub fn patch_u64(&mut self, at: usize, v: u64) {
        if self.measured.is_none() {
            self.buf[at..at + 8].copy_from_slice(&v.to_le_bytes());
        }
    }

    /// Opens a checksummed frame — magic, version, a reserved length word —
    /// and returns where its payload starts, for [`ByteWriter::end_frame`].
    /// The payload is whatever is written in between, streamed in place.
    pub fn begin_frame(&mut self, magic: u32, version: u32) -> usize {
        self.put_u32(magic);
        self.put_u32(version);
        self.put_u64(0);
        self.len()
    }

    /// Closes the frame whose payload starts at `payload_start`: back-patches
    /// the length word and appends [`checksum64`] of the payload.
    pub fn end_frame(&mut self, payload_start: usize) {
        self.close_frame(payload_start, checksum64);
    }

    /// [`ByteWriter::end_frame`] for a frame that nests another, closed one
    /// at the writer positions `nested`: appends [`checksum64_around`] it.
    pub fn end_frame_around(&mut self, payload_start: usize, nested: std::ops::Range<usize>) {
        let nested = nested.start - payload_start..nested.end - payload_start;
        self.close_frame(payload_start, |payload| checksum64_around(payload, nested));
    }

    /// Patches the frame's length word and appends `sum` of its payload (a
    /// word counted, measuring).
    fn close_frame(&mut self, payload_start: usize, sum: impl FnOnce(&[u8]) -> u64) {
        self.patch_u64(payload_start - 8, (self.len() - payload_start) as u64);
        let sum = match self.measured {
            Some(_) => 0,
            None => sum(&self.buf[payload_start..]),
        };
        self.put_u64(sum);
    }

    /// Appends a count prefix and each word's bytes, reserved at once.
    fn put_words<const N: usize>(&mut self, words: impl ExactSizeIterator<Item = [u8; N]>) {
        self.put_len(words.len());
        if let Some(len) = &mut self.measured {
            *len += words.len() * N;
            return;
        }
        let start = self.buf.len();
        self.buf.resize(start + words.len() * N, 0);
        for (chunk, word) in self.buf[start..].chunks_exact_mut(N).zip(words) {
            chunk.copy_from_slice(&word);
        }
    }

    /// Appends a count-prefixed run of `u32`s: the bytes `put_len` and one
    /// `put_u32` per element would write.
    pub fn put_u32s(&mut self, values: &[u32]) {
        self.put_u32s_from(values.iter().copied());
    }

    /// [`ByteWriter::put_u32s`] from an iterator, so index newtypes encode
    /// without a staging `Vec`.
    pub fn put_u32s_from(&mut self, values: impl ExactSizeIterator<Item = u32>) {
        self.put_words(values.map(u32::to_le_bytes));
    }

    /// Appends a count-prefixed run of `u64`s; an iterator, so index
    /// newtypes encode without a staging `Vec`.
    pub fn put_u64s(&mut self, values: impl ExactSizeIterator<Item = u64>) {
        self.put_words(values.map(u64::to_le_bytes));
    }

    /// Appends raw bytes verbatim.
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.append(bytes);
    }

    /// Appends one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.append(&[v]);
    }

    /// Appends a `u16`, little-endian.
    pub fn put_u16(&mut self, v: u16) {
        self.append(&v.to_le_bytes());
    }

    /// Appends a `u32`, little-endian.
    pub fn put_u32(&mut self, v: u32) {
        self.append(&v.to_le_bytes());
    }

    /// Appends a `u64`, little-endian.
    pub fn put_u64(&mut self, v: u64) {
        self.append(&v.to_le_bytes());
    }

    /// Appends a `u128`, little-endian.
    pub fn put_u128(&mut self, v: u128) {
        self.append(&v.to_le_bytes());
    }

    /// Appends a `usize` as a `u64`.
    pub fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// Appends a sequence length prefix.
    pub fn put_len(&mut self, len: usize) {
        self.put_u64(len as u64);
    }

    /// Appends a virtual-time instant.
    pub fn put_time(&mut self, t: SimTime) {
        t.put(self);
    }

    /// Appends a virtual-time duration.
    pub fn put_duration(&mut self, d: SimDuration) {
        d.put(self);
    }

    /// Appends an optional instant via a presence byte.
    pub fn put_opt_time(&mut self, t: Option<SimTime>) {
        t.put(self);
    }
}

/// Advises the kernel that the whole 2 MiB pages inside `buf`'s allocation
/// may be backed by transparent huge pages. A checkpoint is written once
/// into memory the allocator often takes fresh from the kernel, which
/// otherwise faults in one 4 KiB page at a time: ~1 500 faults for a 6 MiB
/// buffer, about half its write time on a 2-vCPU VM. Advice only: the
/// contents are untouched and an error changes nothing.
#[cfg(target_os = "linux")]
fn advise_huge_pages(buf: &Vec<u8>) {
    const HUGE: usize = 2 << 20;
    const MADV_HUGEPAGE: i32 = 14;
    extern "C" {
        fn madvise(addr: *mut std::ffi::c_void, len: usize, advice: i32) -> i32;
    }
    let base = buf.as_ptr() as usize;
    let start = base.next_multiple_of(HUGE);
    let end = (base + buf.capacity()) / HUGE * HUGE;
    if start < end {
        // SAFETY: the range lies inside `buf`'s allocation, and the advice
        // changes how its pages are backed, never what they hold.
        unsafe { madvise(start as *mut std::ffi::c_void, end - start, MADV_HUGEPAGE) };
    }
}

#[cfg(not(target_os = "linux"))]
fn advise_huge_pages(_: &Vec<u8>) {}

/// A cursor over encoded bytes, mirroring [`ByteWriter`].
#[derive(Debug)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// Creates a reader positioned at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        ByteReader { buf, pos: 0 }
    }

    /// Verifies a frame written by [`ByteWriter::begin_frame`] /
    /// [`ByteWriter::end_frame`] that spans exactly `bytes` and returns its
    /// version word and a reader over its payload, borrowed. `checksum_for`
    /// maps the version to the checksum that version carries, or refuses it.
    pub fn open_frame(
        bytes: &'a [u8],
        magic: u32,
        checksum_for: impl FnOnce(u32) -> Result<ChecksumFn, CodecError>,
    ) -> Result<(u32, Self), CodecError> {
        let mut r = ByteReader::new(bytes);
        if r.get_u32()? != magic {
            return Err(CodecError::BadMagic);
        }
        let version = r.get_u32()?;
        let checksum = checksum_for(version)?;
        let len = r.get_len()?;
        let payload = r.take_bytes(len)?;
        let recorded = r.get_u64()?;
        r.finish()?;
        if checksum(payload) != recorded {
            return Err(CodecError::BadChecksum);
        }
        Ok((version, ByteReader::new(payload)))
    }

    /// `Ok` once every byte has been consumed: a decoder that stopped early,
    /// or input with anything appended, is corrupt.
    pub fn finish(&self) -> Result<(), CodecError> {
        match self.is_exhausted() {
            true => Ok(()),
            false => Err(CodecError::Invalid("trailing bytes")),
        }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Returns `true` if every byte has been consumed.
    pub fn is_exhausted(&self) -> bool {
        self.remaining() == 0
    }

    /// Takes the next `n` raw bytes.
    pub fn take_bytes(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return Err(CodecError::Eof);
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Reads one byte.
    pub fn get_u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take_bytes(1)?[0])
    }

    /// Reads a little-endian `u16`.
    pub fn get_u16(&mut self) -> Result<u16, CodecError> {
        Ok(u16::from_le_bytes(self.take_bytes(2)?.try_into().unwrap()))
    }

    /// Reads a little-endian `u32`.
    pub fn get_u32(&mut self) -> Result<u32, CodecError> {
        Ok(u32::from_le_bytes(self.take_bytes(4)?.try_into().unwrap()))
    }

    /// Reads a little-endian `u64`.
    pub fn get_u64(&mut self) -> Result<u64, CodecError> {
        Ok(u64::from_le_bytes(self.take_bytes(8)?.try_into().unwrap()))
    }

    /// Reads a little-endian `u128`.
    pub fn get_u128(&mut self) -> Result<u128, CodecError> {
        Ok(u128::from_le_bytes(
            self.take_bytes(16)?.try_into().unwrap(),
        ))
    }

    /// Reads a `usize` encoded as a `u64`, rejecting values that do not fit.
    pub fn get_usize(&mut self) -> Result<usize, CodecError> {
        usize::try_from(self.get_u64()?).map_err(|_| CodecError::Invalid("usize overflow"))
    }

    /// Reads a byte-string length prefix, bounded by the bytes remaining.
    pub fn get_len(&mut self) -> Result<usize, CodecError> {
        self.get_count(u8::MIN_BYTES)
    }

    /// Reads the count prefix of a sequence whose records take at least
    /// `min_record_bytes` each, bounded by the *records* the remaining bytes
    /// can hold, so `Vec::with_capacity(count)` stays near the input's size
    /// (a record of no bytes is bounded as one of a byte).
    pub fn get_count(&mut self, min_record_bytes: usize) -> Result<usize, CodecError> {
        let count = self.get_usize()?;
        if count > self.remaining() / min_record_bytes.max(1) {
            return Err(CodecError::Invalid("length prefix exceeds input"));
        }
        Ok(count)
    }

    fn get_words<const N: usize, T>(
        &mut self,
        word: impl Fn([u8; N]) -> T,
    ) -> Result<Vec<T>, CodecError> {
        let count = self.get_count(N)?;
        let words = self.take_bytes(count * N)?.chunks_exact(N);
        Ok(words.map(|w| word(w.try_into().unwrap())).collect())
    }

    /// Reads a run written by [`ByteWriter::put_u32s`].
    pub fn get_u32s(&mut self) -> Result<Vec<u32>, CodecError> {
        self.get_words(u32::from_le_bytes)
    }

    /// Reads a run written by [`ByteWriter::put_u64s`].
    pub fn get_u64s(&mut self) -> Result<Vec<u64>, CodecError> {
        self.get_words(u64::from_le_bytes)
    }
}

/// A type with one persisted layout, written and read by the one
/// declaration: a wire scalar, a shape over other `Codec` types, or a record
/// declared with [`codec_record!`](crate::codec_record). `put` → `get` →
/// `put` is byte-stable, `put` writes exactly [`Codec::encoded_len`] bytes,
/// and `get` refuses what it cannot represent with a typed [`CodecError`] —
/// never a panic, never an allocation beyond what the remaining input could
/// hold.
pub trait Codec: Sized {
    /// The fewest bytes any value's encoding takes: what a count prefix over
    /// a run of them is bounded with ([`ByteReader::get_count`]).
    const MIN_BYTES: usize;

    /// The bytes [`Codec::put`] writes for this value: `put` run on a
    /// [`ByteWriter::measuring`] writer, so the layout is stated once.
    fn encoded_len(&self) -> usize {
        let mut w = ByteWriter::measuring();
        self.put(&mut w);
        w.len()
    }

    /// Appends the value.
    fn put(&self, w: &mut ByteWriter);

    /// Reads a value [`Codec::put`] wrote.
    fn get(r: &mut ByteReader<'_>) -> Result<Self, CodecError>;

    /// Appends `items` as a `Vec` carries them: a count, then each item. A
    /// hook, so fixed-width words can write the same bytes in bulk.
    fn put_run(items: &[Self], w: &mut ByteWriter) {
        w.put_len(items.len());
        items.iter().for_each(|item| item.put(w));
    }

    /// Reads what [`Codec::put_run`] wrote, the count bounded by the items
    /// the input can still hold.
    fn get_run(r: &mut ByteReader<'_>) -> Result<Vec<Self>, CodecError> {
        let count = r.get_count(Self::MIN_BYTES)?;
        let mut items = Vec::with_capacity(count);
        for _ in 0..count {
            items.push(Self::get(r)?);
        }
        Ok(items)
    }
}

/// Little-endian integers, each as wide as its type (`usize` as a `u64`);
/// `u32` and `u64` runs are one bulk copy.
macro_rules! wire_integers {
    ($($ty:ty: $bytes:literal, $put:ident, $get:ident $(, $put_run:ident, $get_run:ident)?;)*) => {$(
        impl Codec for $ty {
            const MIN_BYTES: usize = $bytes;

            #[inline]
            fn put(&self, w: &mut ByteWriter) {
                w.$put(*self);
            }

            #[inline]
            fn get(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
                r.$get()
            }
            $(
                fn put_run(items: &[Self], w: &mut ByteWriter) {
                    w.$put_run(items.iter().copied());
                }

                fn get_run(r: &mut ByteReader<'_>) -> Result<Vec<Self>, CodecError> {
                    r.$get_run()
                }
            )?
        }
    )*};
}

wire_integers! {
    u8: 1, put_u8, get_u8;
    u16: 2, put_u16, get_u16;
    u32: 4, put_u32, get_u32, put_u32s_from, get_u32s;
    u64: 8, put_u64, get_u64, put_u64s, get_u64s;
    u128: 16, put_u128, get_u128;
    usize: 8, put_usize, get_usize;
}

/// Quantities carried as a `u64` count of their unit.
macro_rules! wire_quantities {
    ($($ty:ty: $to:ident, $from:ident;)*) => {$(
        impl Codec for $ty {
            const MIN_BYTES: usize = 8;

            #[inline]
            fn put(&self, w: &mut ByteWriter) {
                w.put_u64(self.$to());
            }

            #[inline]
            fn get(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
                Ok(<$ty>::$from(r.get_u64()?))
            }
        }
    )*};
}

wire_quantities! {
    SimTime: as_nanos, from_nanos;
    SimDuration: as_nanos, from_nanos;
    DataRate: as_bps, from_bps;
    ByteSize: as_bytes, from_bytes;
}

/// Its IEEE-754 bit pattern, so even a NaN's payload round-trips.
impl Codec for f64 {
    const MIN_BYTES: usize = 8;

    #[inline]
    fn put(&self, w: &mut ByteWriter) {
        w.put_u64(self.to_bits());
    }

    #[inline]
    fn get(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        Ok(f64::from_bits(r.get_u64()?))
    }
}

/// One byte, 0 or 1; any other is refused.
impl Codec for bool {
    const MIN_BYTES: usize = 1;

    #[inline]
    fn put(&self, w: &mut ByteWriter) {
        w.put_u8(*self as u8);
    }

    #[inline]
    fn get(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        match r.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(CodecError::Invalid("bool")),
        }
    }
}

/// A presence byte, then the value if there is one.
impl<T: Codec> Codec for Option<T> {
    const MIN_BYTES: usize = 1;

    fn put(&self, w: &mut ByteWriter) {
        self.is_some().put(w);
        if let Some(value) = self {
            value.put(w);
        }
    }

    fn get(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        Ok(match bool::get(r)? {
            true => Some(T::get(r)?),
            false => None,
        })
    }
}

/// A count, then the items ([`Codec::put_run`]).
impl<T: Codec> Codec for Vec<T> {
    const MIN_BYTES: usize = 8;

    fn put(&self, w: &mut ByteWriter) {
        T::put_run(self, w);
    }

    fn get(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        T::get_run(r)
    }
}

/// The items back to back: the length is the type's.
impl<T: Codec, const N: usize> Codec for [T; N] {
    const MIN_BYTES: usize = N * T::MIN_BYTES;

    fn put(&self, w: &mut ByteWriter) {
        self.iter().for_each(|item| item.put(w));
    }

    fn get(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        let items: Vec<T> = (0..N).map(|_| T::get(r)).collect::<Result<_, _>>()?;
        Ok(items.try_into().ok().expect("N items were read"))
    }
}

/// The elements in order.
macro_rules! tuples {
    ($(($($t:ident),+))*) => {$(
        impl<$($t: Codec),+> Codec for ($($t,)+) {
            const MIN_BYTES: usize = 0 $(+ $t::MIN_BYTES)+;

            #[allow(non_snake_case)]
            fn put(&self, w: &mut ByteWriter) {
                let ($($t,)+) = self;
                $($t.put(w);)+
            }

            fn get(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
                Ok(($($t::get(r)?,)+))
            }
        }
    )*};
}

tuples! {
    (A, B)
    (A, B, C)
    (A, B, C, D)
    (A, B, C, D, E)
    (A, B, C, D, E, F)
    (A, B, C, D, E, F, G)
    (A, B, C, D, E, F, G, H)
}

/// A record field a snapshot does not carry — scratch, or state rebuilt
/// after a restore: it writes nothing and reads back as `T::default()`. It
/// dereferences to the `T` it holds, and is not part of the record's `Debug`
/// form either.
#[derive(Clone, Default)]
pub struct Transient<T>(pub T);

impl<T> fmt::Debug for Transient<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("_")
    }
}

impl<T> std::ops::Deref for Transient<T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.0
    }
}

impl<T> std::ops::DerefMut for Transient<T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.0
    }
}

impl<T: Default> Codec for Transient<T> {
    const MIN_BYTES: usize = 0;

    fn put(&self, _: &mut ByteWriter) {}

    fn get(_: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        Ok(Transient::default())
    }
}

/// Declares a persisted record: the struct as written, and its [`Codec`]
/// impl — fields written and read in declaration order, `MIN_BYTES` the sum
/// of the fields' minimums. The field list *is* the record's layout, so
/// editing it is a format change. A tuple struct of one field (an id
/// newtype) is encoded as that field. Each trailing
/// `refuse value if <condition> => "why";` turns a decoded record for which
/// the condition holds into [`CodecError::Invalid`] — for what the record can
/// tell wrong on its own; checks that need context stay where it is used.
#[macro_export]
macro_rules! codec_record {
    (
        $(#[$meta:meta])*
        $vis:vis struct $name:ident {
            $($(#[$fmeta:meta])* $fvis:vis $field:ident: $ty:ty),* $(,)?
        }
        $(refuse $value:ident if $bad:expr => $why:literal;)*
    ) => {
        $(#[$meta])*
        $vis struct $name {
            $($(#[$fmeta])* $fvis $field: $ty,)*
        }

        impl $crate::codec::Codec for $name {
            const MIN_BYTES: usize = 0 $(+ <$ty as $crate::codec::Codec>::MIN_BYTES)*;

            fn put(&self, w: &mut $crate::codec::ByteWriter) {
                $($crate::codec::Codec::put(&self.$field, w);)*
            }

            fn get(
                r: &mut $crate::codec::ByteReader<'_>,
            ) -> Result<Self, $crate::codec::CodecError> {
                let record = $name {
                    $($field: $crate::codec::Codec::get(r)?,)*
                };
                $(
                    let $value = &record;
                    if $bad {
                        return Err($crate::codec::CodecError::Invalid($why));
                    }
                )*
                Ok(record)
            }
        }
    };
    (
        $(#[$meta:meta])*
        $vis:vis struct $name:ident($fvis:vis $ty:ty);
    ) => {
        $(#[$meta])*
        $vis struct $name($fvis $ty);

        impl $crate::codec::Codec for $name {
            const MIN_BYTES: usize = <$ty as $crate::codec::Codec>::MIN_BYTES;

            #[inline]
            fn put(&self, w: &mut $crate::codec::ByteWriter) {
                $crate::codec::Codec::put(&self.0, w);
            }

            #[inline]
            fn get(
                r: &mut $crate::codec::ByteReader<'_>,
            ) -> Result<Self, $crate::codec::CodecError> {
                Ok($name($crate::codec::Codec::get(r)?))
            }
        }
    };
}

/// Checks the contract every [`Codec`] type keeps, on `sample`: its bytes
/// read back to a value that writes the same bytes, with nothing left over;
/// they are [`Codec::encoded_len`] long and at least [`Codec::MIN_BYTES`];
/// and every strict prefix of them is refused with an error, not read and
/// not a panic. Test support for the crates that declare records; panics on
/// a breach.
#[doc(hidden)]
pub fn record_contract<T: Codec + fmt::Debug>(sample: T) {
    let mut w = ByteWriter::new();
    sample.put(&mut w);
    let bytes = w.into_bytes();
    assert_eq!(
        sample.encoded_len(),
        bytes.len(),
        "{sample:?}: encoded_len is not the bytes written"
    );
    assert!(
        T::MIN_BYTES <= bytes.len(),
        "{sample:?}: MIN_BYTES {} above the {} bytes written",
        T::MIN_BYTES,
        bytes.len()
    );
    let mut r = ByteReader::new(&bytes);
    let back = T::get(&mut r).unwrap_or_else(|e| panic!("{sample:?} does not read back: {e}"));
    assert!(r.is_exhausted(), "{sample:?}: bytes left over");
    let mut again = ByteWriter::new();
    back.put(&mut again);
    assert!(
        again.as_slice() == bytes,
        "{sample:?} reads back as {back:?}, which writes other bytes"
    );
    for len in 0..bytes.len() {
        let cut = T::get(&mut ByteReader::new(&bytes[..len]));
        assert!(cut.is_err(), "{sample:?} cut to {len} bytes still reads");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bytes_of<T: Codec>(value: T) -> Vec<u8> {
        let mut w = ByteWriter::new();
        value.put(&mut w);
        w.into_bytes()
    }

    #[test]
    fn scalar_roundtrip() {
        assert_eq!(bytes_of(300u16), [44, 1]);
        assert_eq!(bytes_of(12_345usize), 12_345u64.to_le_bytes());
        assert_eq!(bytes_of(SimTime::from_micros(42)), 42_000u64.to_le_bytes());
        assert_eq!(bytes_of(-0.125f64), (-0.125f64).to_bits().to_le_bytes());
        assert_eq!(bytes_of(None::<SimTime>), [0]);
        let mut w = ByteWriter::new();
        w.put_time(SimTime::from_micros(42));
        w.put_duration(SimDuration::from_millis(9));
        w.put_opt_time(Some(SimTime::from_secs(1)));
        let times = (
            SimTime::from_micros(42),
            SimDuration::from_millis(9),
            Some(SimTime::from_secs(1)),
        );
        assert_eq!(w.as_slice(), bytes_of(times));

        record_contract(7u8);
        record_contract(300u16);
        record_contract(70_000u32);
        record_contract(u64::MAX - 1);
        record_contract(u128::MAX / 3);
        record_contract(12_345usize);
        record_contract(-0.125f64);
        record_contract((true, false));
        record_contract(times);
        record_contract((DataRate::from_mbps(10), ByteSize::from_kb(4)));
        record_contract((vec![1u32, 2], vec![3u64], vec![Some(4u16), None]));
        record_contract([vec![true], vec![]]);
        assert_eq!(<(u8, [u64; 3], Vec<bool>)>::MIN_BYTES, 1 + 24 + 8);
    }

    #[test]
    fn nan_bit_pattern_is_stable() {
        let nan = f64::from_bits(0x7FF8_0000_0000_1234);
        let back = f64::get(&mut ByteReader::new(&bytes_of(nan))).unwrap();
        assert_eq!(back.to_bits(), nan.to_bits());
    }

    #[test]
    fn eof_and_invalid_are_reported() {
        let mut r = ByteReader::new(&[1]);
        assert!(bool::get(&mut r).unwrap());
        assert_eq!(r.get_u64(), Err(CodecError::Eof));

        let mut r = ByteReader::new(&[9]);
        assert_eq!(bool::get(&mut r), Err(CodecError::Invalid("bool")));

        // A corrupt length prefix larger than the input is rejected before
        // any allocation.
        let mut w = ByteWriter::new();
        w.put_u64(1 << 40);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(
            r.get_len(),
            Err(CodecError::Invalid("length prefix exceeds input"))
        );
    }

    /// The 1 MiB reference input: a byte pattern with no short period.
    fn pattern(len: usize) -> Vec<u8> {
        (0..len as u64)
            .map(|i| (i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 56) as u8)
            .collect()
    }

    /// `checksum64` written the slow, obvious way: the definition the lanes
    /// and iterator chains of the real one must agree with.
    fn checksum64_by_the_book(bytes: &[u8]) -> u64 {
        let word = |at: usize| {
            let mut word = [0u8; 8];
            for (i, b) in bytes[at..].iter().take(8).enumerate() {
                word[i] = *b;
            }
            u64::from_le_bytes(word)
        };
        let mut lanes = [
            SUM_P1.wrapping_add(SUM_P2),
            SUM_P2,
            0,
            SUM_P1.wrapping_neg(),
        ];
        let striped = bytes.len() / 32 * 32;
        for at in (0..striped).step_by(8) {
            lanes[at / 8 % 4] = sum_round(lanes[at / 8 % 4], word(at));
        }
        let mut sum = bytes.len() as u64;
        for lane in lanes {
            sum = sum_fold(sum, lane);
        }
        for at in (striped..bytes.len()).step_by(8) {
            sum = sum_fold(sum, word(at));
        }
        sum
    }

    #[test]
    fn checksum64_matches_reference_vectors() {
        // Pinned: frames on disk carry these sums.
        let big = pattern(1 << 20);
        for (len, want) in [
            (0usize, 0x1a68_88c7_bea1_675eu64),
            (1, 0x10a0_89c0_5a0d_cf2c),
            (31, 0x15fb_66e4_2b82_53b1),
            (32, 0x483f_499a_2468_95e6),
            (33, 0xb465_7e38_dc22_88f4),
            (1 << 20, 0x2d79_bbe0_ade1_c068),
        ] {
            assert_eq!(checksum64(&big[..len]), want, "{len} bytes");
        }
        for len in (0..200).chain([4095, 4096, 4097]) {
            assert_eq!(
                checksum64(&big[..len]),
                checksum64_by_the_book(&big[..len]),
                "{len} bytes"
            );
        }
    }

    #[test]
    fn checksum64_sees_every_bit_every_length_and_zero_padding() {
        let bytes = pattern(101);
        let sum = checksum64(&bytes);
        for bit in 0..bytes.len() * 8 {
            let mut flipped = bytes.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            assert_ne!(checksum64(&flipped), sum, "bit {bit}");
        }
        for len in 0..bytes.len() {
            assert_ne!(checksum64(&bytes[..len]), sum, "truncated to {len}");
        }
        // The tail's zero padding is not mistaken for data.
        let zeros = [0u8; 64];
        let sums: Vec<u64> = (0..=64).map(|len| checksum64(&zeros[..len])).collect();
        for (len, sum) in sums.iter().enumerate() {
            assert!(!sums[..len].contains(sum), "{len} zero bytes");
        }
    }

    #[test]
    fn bulk_runs_are_the_per_element_encoding_byte_for_byte() {
        let narrow: Vec<u32> = (0..1000u32).map(|i| i.wrapping_mul(0x9E37_79B9)).collect();
        let wide: Vec<u64> = narrow.iter().map(|&v| (v as u64) << 29 | 5).collect();
        for count in [0, 1, 7, 1000] {
            let mut bulk = ByteWriter::new();
            bulk.put_u32s(&narrow[..count]);
            bulk.put_u64s(wide[..count].iter().copied());
            // What version-1 encoders wrote, one element at a time.
            let mut each = ByteWriter::new();
            each.put_len(count);
            narrow[..count].iter().for_each(|&v| each.put_u32(v));
            each.put_len(count);
            wide[..count].iter().for_each(|&v| each.put_u64(v));
            assert_eq!(bulk.as_slice(), each.as_slice());

            let mut r = ByteReader::new(bulk.as_slice());
            assert_eq!(r.get_u32s().unwrap(), narrow[..count]);
            assert_eq!(r.get_u64s().unwrap(), wide[..count]);
            assert!(r.finish().is_ok());
        }
    }

    #[test]
    fn counts_are_bounded_by_records_not_bytes() {
        // 40 bytes follow the prefix: room for ten u32s or five u64s, which
        // `get_len` alone (count <= bytes left) would let through as 40.
        let mut w = ByteWriter::new();
        w.put_len(11);
        w.put_bytes(&[0; 40]);
        let too_many = CodecError::Invalid("length prefix exceeds input");
        let read = |bytes: &ByteWriter| {
            let at = || ByteReader::new(bytes.as_slice());
            (
                at().get_u32s().map(|v| v.len()),
                at().get_u64s().map(|v| v.len()),
            )
        };
        assert_eq!(read(&w), (Err(too_many.clone()), Err(too_many.clone())));
        assert_eq!(
            ByteReader::new(w.as_slice()).get_count(4),
            Err(too_many.clone())
        );
        assert_eq!(ByteReader::new(w.as_slice()).get_count(3), Ok(11));
        w.patch_u64(0, 10);
        assert_eq!(read(&w), (Ok(10), Err(too_many.clone())));
        w.patch_u64(0, u64::MAX);
        assert_eq!(read(&w), (Err(too_many.clone()), Err(too_many)));
    }

    #[test]
    fn frames_nest_and_refuse_what_they_should() {
        const OUTER: u32 = 0x4F55_5452;
        const INNER: u32 = 0x494E_4E52;
        let current = |version| match version {
            2 => Ok(checksum64 as ChecksumFn),
            v => Err(CodecError::BadVersion(v)),
        };
        let mut w = ByteWriter::new();
        let outer = w.begin_frame(OUTER, 2);
        w.put_u32(7);
        let inner = w.begin_frame(INNER, 2);
        w.put_bytes(b"streamed in place");
        w.end_frame(inner);
        let inner_end = w.len();
        w.put_u8(9);
        w.end_frame(outer);
        let bytes = w.into_bytes();

        let (version, mut r) = ByteReader::open_frame(&bytes, OUTER, current).unwrap();
        assert_eq!(version, 2);
        assert_eq!(r.get_u32().unwrap(), 7);
        let nested = r.take_bytes(inner_end - inner + 16).unwrap();
        assert_eq!(r.get_u8().unwrap(), 9);
        assert!(r.finish().is_ok());
        let (_, mut r) = ByteReader::open_frame(nested, INNER, current).unwrap();
        assert_eq!(r.take_bytes(17).unwrap(), b"streamed in place");
        assert_eq!(
            ByteReader::new(nested).finish(),
            Err(CodecError::Invalid("trailing bytes"))
        );

        let open = |bytes: &[u8]| ByteReader::open_frame(bytes, OUTER, current).map(|_| ());
        assert_eq!(open(nested), Err(CodecError::BadMagic));
        let mut padded = bytes.clone();
        padded.push(0);
        assert_eq!(open(&padded), Err(CodecError::Invalid("trailing bytes")));
        let mut other_version = bytes.clone();
        other_version[4] = 3;
        assert_eq!(open(&other_version), Err(CodecError::BadVersion(3)));
        let mut flipped = bytes.clone();
        flipped[20] ^= 1;
        assert_eq!(open(&flipped), Err(CodecError::BadChecksum));
        for len in 0..bytes.len() {
            assert!(open(&bytes[..len]).is_err(), "truncated to {len}");
        }
    }

    #[test]
    fn a_measuring_writer_counts_what_a_storing_one_writes() {
        // Frames nested and patched, bulk runs, scalars and raw bytes: the
        // same calls on a measuring writer count the bytes a storing one
        // holds, at every step, and store none; `write_exact` then writes
        // them into one block of exactly that length.
        let encode = |w: &mut ByteWriter| -> Result<Vec<usize>, ()> {
            let mut lens = Vec::new();
            let outer = w.begin_frame(1, 2);
            (7u8, 300u16, Some(SimTime::from_nanos(5))).put(w);
            w.put_u32s(&[1, 2, 3]);
            w.put_u64s([4u64, 5].into_iter());
            lens.push(w.len());
            let inner = w.begin_frame(3, 4);
            w.put_bytes(b"streamed");
            w.end_frame(inner);
            let nested = inner - 16..w.len();
            w.patch_u64(outer - 8, 0);
            lens.push(w.len());
            w.end_frame_around(outer, nested);
            lens.push(w.len());
            Ok(lens)
        };
        let (mut measure, mut store) = (ByteWriter::measuring(), ByteWriter::new());
        assert_eq!(encode(&mut measure), encode(&mut store));
        assert_eq!(measure.len(), store.len());
        assert!(measure.as_slice().is_empty() && !measure.is_empty());
        let mut buf = vec![0u8; 3];
        ByteWriter::write_exact(&mut buf, |w| encode(w).map(|_| ())).unwrap();
        assert!(buf == store.as_slice() && buf.capacity() == buf.len());
        let refused = ByteWriter::write_exact(&mut buf, |_| Err("refused"));
        assert!(refused.is_err() && buf == store.as_slice(), "untouched");
    }

    #[test]
    fn a_sum_around_a_nested_frame_sees_every_byte_but_the_nested_payload() {
        // The outer frame of an `MNRS` checkpoint: its sum covers its own
        // fields and the nested frame's header and checksum — every bit of
        // those changes it — and none of the nested payload, which the
        // nested frame's own sum covers.
        let mut w = ByteWriter::new();
        let outer = w.begin_frame(1, 3);
        w.put_u64(7);
        let nested_start = w.len();
        let inner = w.begin_frame(2, 3);
        w.put_bytes(&pattern(100));
        w.end_frame(inner);
        let nested = nested_start..w.len();
        w.put_bytes(b"after");
        w.end_frame_around(outer, nested.clone());
        let bytes = w.into_bytes();
        let payload = &bytes[outer..bytes.len() - 8];
        let span = nested.start - outer..nested.end - outer;
        let sum = checksum64_around(payload, span.clone());
        assert_eq!(bytes[bytes.len() - 8..], sum.to_le_bytes());
        let inner_payload = span.start + 16..span.end - 8;
        for bit in 0..payload.len() * 8 {
            let mut flipped = payload.to_vec();
            flipped[bit / 8] ^= 1 << (bit % 8);
            let seen = checksum64_around(&flipped, span.clone()) != sum;
            assert_eq!(seen, !inner_payload.contains(&(bit / 8)), "bit {bit}");
        }
        // Bytes moved across the gap are seen too: each side has its length.
        let mut shifted = payload.to_vec();
        shifted.remove(0);
        assert_ne!(
            checksum64_around(&shifted, span.start - 1..span.end - 1),
            sum
        );
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        // Standard FNV-1a test vectors.
        assert_eq!(fnv1a64(b""), 0xCBF2_9CE4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xAF63_DC4C_8601_EC8C);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171F73967E8);
    }
}

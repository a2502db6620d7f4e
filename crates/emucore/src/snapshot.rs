//! Deterministic checkpoint/restore of the emulator state.
//!
//! A snapshot captures the *complete* state of a running emulation — every
//! pipe's queue contents and drain clock, per-core timing wheels (stale
//! entries included), staged and in-flight tunnel descriptors, CBR meters,
//! fluid flows and their epoch cursor, the published route-table generation
//! and routing matrix (tombstones and free slots verbatim), VN membership
//! and entry-core assignment, per-core counters and accuracy logs, and the
//! exact position of every deterministic RNG stream. Restoring a snapshot
//! and running forward is **bit-identical** to never having stopped: same
//! deliveries at the same virtual times, same stats, same RNG draws — on
//! either execution backend, at any core count.
//!
//! The wire format is a versioned, checksummed frame (`MNSP`: magic, version,
//! payload length, payload, checksum of the payload): a truncated, corrupted,
//! padded or unsupported-version snapshot is a structured [`CodecError`],
//! never a mis-restore. A build reads the version it writes and the one
//! before, here 5 and 4; a version bump retires the decoder two behind.
//! Version 5 moved the tunnels in flight from a section of their own into
//! each target core's inbox and dropped each pipe's retired RED fields (17
//! bytes), both of which a version-4 frame still carries and the decoder
//! still reads. What is *not* captured: application state (traffic sources
//! attached to a [`crate::Emulator`] via a runner live outside the emulator;
//! the runner documents its own policy) and coordinator scratch buffers,
//! which are rebuilt empty.

use mn_util::codec::checksum64;
use mn_util::{ByteReader, CodecError};

/// Magic bytes identifying an emulator snapshot ("MNSP").
pub const SNAPSHOT_MAGIC: u32 = 0x4D4E_5350;

/// Current snapshot format version, the only one written. Bumped on any
/// format change; decoders read this version and the one before, and
/// reject every other with [`CodecError::BadVersion`].
pub const SNAPSHOT_VERSION: u32 = 5;

/// A serialized emulator checkpoint: one verified `MNSP` frame.
///
/// Produced by [`crate::Emulator::snapshot`] (a wrapper over
/// [`crate::Emulator::snapshot_into`], the one encoder) and restored by
/// [`crate::Emulator::restore`]. The payload does not record which executor
/// the cores were on, so a snapshot taken on the inline executor restores
/// onto the threaded one (and vice versa) with bit-identical continuation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EmulatorSnapshot {
    /// Only ever a frame the encoder just closed or [`Self::verify`] passed.
    pub(crate) framed: Vec<u8>,
}

impl EmulatorSnapshot {
    /// The verified frame's version word and a reader over its payload
    /// (after the 16-byte header), for restore.
    pub(crate) fn reader(&self) -> (u32, ByteReader<'_>) {
        let version = u32::from_le_bytes(self.framed[4..8].try_into().expect("4 bytes"));
        let payload = &self.framed[16..self.framed.len() - 8];
        (version, ByteReader::new(payload))
    }

    /// The frame, for storage, as the encoder wrote it or
    /// [`Self::from_bytes`] verified it.
    pub fn to_bytes(&self) -> Vec<u8> {
        self.framed.clone()
    }

    /// Checks a frame (magic, a version this build reads, length, that
    /// version's checksum, nothing after it) and returns its version with a
    /// reader that borrows the payload.
    pub(crate) fn verify(bytes: &[u8]) -> Result<(u32, ByteReader<'_>), CodecError> {
        ByteReader::open_frame(bytes, SNAPSHOT_MAGIC, |version| match version {
            4 | 5 => Ok(checksum64),
            v => Err(CodecError::BadVersion(v)),
        })
    }

    /// Parses and validates a framed snapshot. Rejects bad magic, versions
    /// this build cannot read, truncation, trailing bytes and checksum
    /// mismatches.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, CodecError> {
        Self::verify(bytes)?;
        let framed = bytes.to_vec();
        Ok(EmulatorSnapshot { framed })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mn_util::ByteWriter;

    #[test]
    fn framing_detects_corruption_truncation_and_bad_version() {
        let mut w = ByteWriter::new();
        let start = w.begin_frame(SNAPSHOT_MAGIC, SNAPSHOT_VERSION);
        w.put_bytes(&[1, 2, 3, 4, 5, 6, 7, 8]);
        w.end_frame(start);
        let snap = EmulatorSnapshot {
            framed: w.into_bytes(),
        };
        let bytes = snap.to_bytes();
        assert_eq!(EmulatorSnapshot::from_bytes(&bytes).unwrap(), snap);
        let (version, payload) = snap.reader();
        assert_eq!((version, payload.remaining()), (SNAPSHOT_VERSION, 8));

        // Anything after the checksum: refused, not ignored.
        let mut padded = bytes.clone();
        padded.push(0);
        assert_eq!(
            EmulatorSnapshot::from_bytes(&padded),
            Err(CodecError::Invalid("trailing bytes"))
        );

        // Flip a payload bit: checksum mismatch.
        let mut corrupt = bytes.clone();
        corrupt[16] ^= 0x40;
        assert!(matches!(
            EmulatorSnapshot::from_bytes(&corrupt),
            Err(CodecError::BadChecksum)
        ));

        // Truncate: structured EOF, not a panic.
        assert!(EmulatorSnapshot::from_bytes(&bytes[..bytes.len() - 3]).is_err());

        // Wrong magic.
        let mut wrong_magic = bytes.clone();
        wrong_magic[0] ^= 0xFF;
        assert!(matches!(
            EmulatorSnapshot::from_bytes(&wrong_magic),
            Err(CodecError::BadMagic)
        ));

        // Future version.
        let mut future = bytes;
        future[4] = 0xEE;
        assert!(matches!(
            EmulatorSnapshot::from_bytes(&future),
            Err(CodecError::BadVersion(_))
        ));
    }
}

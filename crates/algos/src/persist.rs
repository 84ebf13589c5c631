//! `SaveState`/`LoadState`: byte codecs for the durable essence of each
//! incremental state.
//!
//! A state's *durable essence* is exactly what the paper's incremental
//! model needs to resume after a restart: the stored query parameters
//! (SSSP/Reach source, Sim pattern) plus the status `D^r` — values, and
//! for the weakly deducible classes the timestamps and logical clock that
//! linearize the contributor order `<_C`. Engine scratch (worklist,
//! epoch arrays) is rebuildable and deliberately **not** serialized; a
//! restored state starts on a fresh engine.
//!
//! The encoding is a little-endian, length-prefixed byte stream with a
//! magic word and an embedded class name, so blobs are self-describing
//! and a blob fed to the wrong class fails loudly instead of
//! reinterpreting bytes. Integrity (checksums) is the caller's job — the
//! durability layer CRCs whole checkpoint files; this codec only
//! validates structure and semantic invariants (sizes against the graph,
//! stamp/clock consistency).

use incgraph_core::status::Status;

/// Magic word opening every state blob (`"IST1"` little-endian).
pub(crate) const MAGIC: u32 = 0x3154_5349;

/// Why a state blob could not be loaded.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StateLoadError {
    /// The blob ended before the declared structure did.
    Truncated,
    /// The magic word is wrong — not a state blob at all.
    BadMagic,
    /// The blob belongs to a different query class.
    WrongClass {
        /// Class the caller asked for.
        expected: String,
        /// Class named inside the blob.
        found: String,
    },
    /// A stored size disagrees with the graph being restored against.
    SizeMismatch {
        /// Size implied by the graph.
        expected: usize,
        /// Size found in the blob.
        found: usize,
    },
    /// A structural or semantic invariant is violated.
    Malformed(String),
}

impl std::fmt::Display for StateLoadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StateLoadError::Truncated => write!(f, "state blob truncated"),
            StateLoadError::BadMagic => write!(f, "not a state blob (bad magic)"),
            StateLoadError::WrongClass { expected, found } => {
                write!(
                    f,
                    "state blob is for class `{found}`, expected `{expected}`"
                )
            }
            StateLoadError::SizeMismatch { expected, found } => {
                write!(f, "state sized for {found} vars, graph implies {expected}")
            }
            StateLoadError::Malformed(detail) => write!(f, "malformed state blob: {detail}"),
        }
    }
}

impl std::error::Error for StateLoadError {}

/// Little-endian primitive writers.
pub fn put_u8(out: &mut Vec<u8>, v: u8) {
    out.push(v);
}

/// Appends a little-endian `u32`.
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a little-endian `u64`.
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Opens a blob with the magic word and the class name.
pub(crate) fn header(name: &str) -> Vec<u8> {
    let mut out = Vec::new();
    put_u32(&mut out, MAGIC);
    debug_assert!(name.len() <= u8::MAX as usize);
    put_u8(&mut out, name.len() as u8);
    out.extend_from_slice(name.as_bytes());
    out
}

/// A bounds-checked little-endian reader over a state blob. Public so
/// that a [`Deducible`](crate::Deducible) class defined outside this
/// crate can read its parameters back.
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    pub(crate) fn new(buf: &'a [u8]) -> Self {
        ByteReader { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], StateLoadError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or(StateLoadError::Truncated)?;
        let slice = &self.buf[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, StateLoadError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, StateLoadError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, StateLoadError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads a length declared in the blob, guarding against lengths that
    /// could not possibly fit in the remaining bytes (corrupt blobs must
    /// fail, not allocate).
    pub(crate) fn len(&mut self, elem_bytes: usize) -> Result<usize, StateLoadError> {
        let n = self.u64()?;
        let remaining = (self.buf.len() - self.pos) as u64;
        if n.checked_mul(elem_bytes as u64)
            .is_none_or(|b| b > remaining)
        {
            return Err(StateLoadError::Truncated);
        }
        Ok(n as usize)
    }

    /// The blob must be fully consumed — trailing garbage is corruption.
    pub(crate) fn finish(self) -> Result<(), StateLoadError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(StateLoadError::Malformed(format!(
                "{} trailing bytes",
                self.buf.len() - self.pos
            )))
        }
    }
}

/// Checks the magic word and the class name, returning a reader
/// positioned at the class payload.
pub(crate) fn expect_header<'a>(
    name: &str,
    bytes: &'a [u8],
) -> Result<ByteReader<'a>, StateLoadError> {
    let mut r = ByteReader::new(bytes);
    if r.u32()? != MAGIC {
        return Err(StateLoadError::BadMagic);
    }
    let n = r.u8()? as usize;
    let found = std::str::from_utf8(r.take(n)?)
        .map_err(|_| StateLoadError::Malformed("class name is not utf-8".into()))?;
    if found != name {
        return Err(StateLoadError::WrongClass {
            expected: name.into(),
            found: found.into(),
        });
    }
    Ok(r)
}

/// Peeks the class name of a blob without decoding the payload — the
/// dispatcher's routing key.
pub fn peek_class(bytes: &[u8]) -> Result<String, StateLoadError> {
    let mut r = ByteReader::new(bytes);
    if r.u32()? != MAGIC {
        return Err(StateLoadError::BadMagic);
    }
    let n = r.u8()? as usize;
    Ok(std::str::from_utf8(r.take(n)?)
        .map_err(|_| StateLoadError::Malformed("class name is not utf-8".into()))?
        .to_string())
}

/// A status value and its one-word persisted (and digest) encoding.
pub trait Word: Copy + PartialEq + std::fmt::Debug + Send + Sync {
    /// The value as a `u64`.
    fn enc(self) -> u64;

    /// Inverse of [`enc`](Self::enc); bit patterns outside the value
    /// domain are corruption.
    fn dec(bits: u64) -> Result<Self, StateLoadError>;
}

impl Word for u64 {
    fn enc(self) -> u64 {
        self
    }

    fn dec(bits: u64) -> Result<u64, StateLoadError> {
        Ok(bits)
    }
}

impl Word for u32 {
    fn enc(self) -> u64 {
        self as u64
    }

    fn dec(bits: u64) -> Result<u32, StateLoadError> {
        u32::try_from(bits)
            .map_err(|_| StateLoadError::Malformed(format!("value {bits} exceeds u32")))
    }
}

impl Word for bool {
    fn enc(self) -> u64 {
        self as u64
    }

    fn dec(bits: u64) -> Result<bool, StateLoadError> {
        match bits {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(StateLoadError::Malformed(format!("boolean encoded as {b}"))),
        }
    }
}

/// Serializes a status: length, stamp flag, packed values, stamps, clock.
pub(crate) fn put_status<V: Word>(out: &mut Vec<u8>, s: &Status<V>) {
    put_u64(out, s.len() as u64);
    put_u8(out, s.tracks_stamps() as u8);
    for x in 0..s.len() {
        put_u64(out, s.get(x).enc());
    }
    if s.tracks_stamps() {
        for &st in s.stamps() {
            put_u64(out, st);
        }
        put_u64(out, s.clock());
    }
}

/// Deserializes a status written by [`put_status`].
pub(crate) fn read_status<V: Word>(r: &mut ByteReader<'_>) -> Result<Status<V>, StateLoadError> {
    let n = r.len(8)?;
    let tracked = match r.u8()? {
        0 => false,
        1 => true,
        b => return Err(StateLoadError::Malformed(format!("stamp flag {b}"))),
    };
    let mut vals = Vec::with_capacity(n);
    for _ in 0..n {
        vals.push(V::dec(r.u64()?)?);
    }
    let (stamps, clock) = if tracked {
        let mut stamps = Vec::with_capacity(n);
        for _ in 0..n {
            stamps.push(r.u64()?);
        }
        let clock = r.u64()?;
        if stamps.iter().any(|&s| s > clock) {
            return Err(StateLoadError::Malformed(
                "timestamp beyond the logical clock".into(),
            ));
        }
        (stamps, clock)
    } else {
        (Vec::new(), 0)
    };
    Ok(Status::from_parts(vals, stamps, clock))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reader_rejects_truncation_and_trailing_bytes() {
        let mut out = Vec::new();
        put_u64(&mut out, 7);
        let mut r = ByteReader::new(&out[..4]);
        assert_eq!(r.u64(), Err(StateLoadError::Truncated));
        let r2 = ByteReader::new(&out);
        assert!(matches!(r2.finish(), Err(StateLoadError::Malformed(_))));
    }

    #[test]
    fn header_roundtrip_and_class_mismatch() {
        let h = header("sssp");
        assert_eq!(peek_class(&h).unwrap(), "sssp");
        assert!(expect_header("sssp", &h).is_ok());
        assert!(matches!(
            expect_header("cc", &h),
            Err(StateLoadError::WrongClass { .. })
        ));
        assert!(matches!(
            expect_header("cc", b"junk"),
            Err(StateLoadError::BadMagic)
        ));
    }

    #[test]
    fn status_roundtrip_with_and_without_stamps() {
        let plain = Status::from_values(vec![3u64, 9, 1]);
        let mut out = Vec::new();
        put_status(&mut out, &plain);
        let mut r = ByteReader::new(&out);
        let back = read_status::<u64>(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(back.values(), plain.values());
        assert!(!back.tracks_stamps());

        let stamped = Status::from_parts(vec![true, false], vec![2, 0], 2);
        let mut out = Vec::new();
        put_status(&mut out, &stamped);
        let mut r = ByteReader::new(&out);
        let back = read_status::<bool>(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(back.values(), stamped.values());
        assert_eq!(back.stamps(), stamped.stamps());
        assert_eq!(back.clock(), 2);
    }

    #[test]
    fn oversized_length_fails_instead_of_allocating() {
        let mut out = Vec::new();
        put_u64(&mut out, u64::MAX);
        let mut r = ByteReader::new(&out);
        assert_eq!(r.len(8), Err(StateLoadError::Truncated));
    }
}

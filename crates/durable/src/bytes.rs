//! Little-endian byte codec shared by the WAL and checkpoint formats.
//!
//! Deliberately mirrors the shape of `incgraph_algos::persist` (which is
//! private to that crate): length-prefixed, bounds-checked reads that
//! fail loudly on truncation or oversized lengths instead of allocating.
//! Corruption here surfaces as [`DurableError::Corrupt`]; whether that is
//! fatal depends on where it happens (a torn WAL tail is truncated, a
//! corrupt checkpoint is skipped for an older one).

use crate::DurableError;

pub(crate) fn put_u8(out: &mut Vec<u8>, v: u8) {
    out.push(v);
}

pub(crate) fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_bytes(out: &mut Vec<u8>, bytes: &[u8]) {
    put_u64(out, bytes.len() as u64);
    out.extend_from_slice(bytes);
}

fn corrupt(what: &str) -> DurableError {
    DurableError::Corrupt(what.to_string())
}

/// Bounds-checked little-endian reader.
pub(crate) struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    pub(crate) fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    pub(crate) fn take(&mut self, n: usize) -> Result<&'a [u8], DurableError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| corrupt("truncated"))?;
        let slice = &self.buf[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    pub(crate) fn u8(&mut self) -> Result<u8, DurableError> {
        Ok(self.take(1)?[0])
    }

    pub(crate) fn u16(&mut self) -> Result<u16, DurableError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    pub(crate) fn u32(&mut self) -> Result<u32, DurableError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    pub(crate) fn u64(&mut self) -> Result<u64, DurableError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads a declared element count, rejecting counts that cannot fit in
    /// the remaining bytes — corrupt lengths must fail, not allocate.
    pub(crate) fn len(&mut self, elem_bytes: usize) -> Result<usize, DurableError> {
        let n = self.u64()?;
        let remaining = (self.buf.len() - self.pos) as u64;
        if n.checked_mul(elem_bytes as u64)
            .is_none_or(|b| b > remaining)
        {
            return Err(corrupt("declared length exceeds remaining bytes"));
        }
        Ok(n as usize)
    }

    /// Reads a length-prefixed byte string written by [`put_bytes`].
    pub(crate) fn bytes(&mut self) -> Result<&'a [u8], DurableError> {
        let n = self.len(1)?;
        self.take(n)
    }

    /// Whether every byte has been read.
    pub(crate) fn at_end(&self) -> bool {
        self.pos == self.buf.len()
    }

    pub(crate) fn finish(self) -> Result<(), DurableError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(corrupt("trailing bytes"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_and_bounds() {
        let mut out = Vec::new();
        put_u8(&mut out, 7);
        put_u32(&mut out, 0xDEAD_BEEF);
        put_u64(&mut out, u64::MAX - 1);
        put_bytes(&mut out, b"payload");
        let mut r = Reader::new(&out);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.bytes().unwrap(), b"payload");
        r.finish().unwrap();
    }

    #[test]
    fn oversized_length_rejected() {
        let mut out = Vec::new();
        put_u64(&mut out, u64::MAX);
        let mut r = Reader::new(&out);
        assert!(r.len(8).is_err());
    }

    #[test]
    fn trailing_bytes_rejected() {
        let r = Reader::new(b"x");
        assert!(r.finish().is_err());
    }
}

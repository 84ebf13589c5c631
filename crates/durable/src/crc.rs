//! CRC-32 (IEEE 802.3, reflected, polynomial `0xEDB88320`) — the
//! integrity check for WAL records and checkpoint files.
//!
//! Hand-rolled because the workspace is dependency-free by policy. The
//! tables are built at compile time, and the main loop is slice-by-8:
//! eight table lookups fold eight bytes at once, and the classic
//! one-lookup-per-byte loop takes the tail. This is the same polynomial
//! as zlib/PNG, so the vectors in the tests can be cross-checked against
//! any external implementation.

const fn build_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
}

/// `TABLES[0]` is the byte table; `TABLES[k][b]` is the CRC state
/// contribution of byte `b` followed by `k` zero bytes.
const fn build_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    tables[0] = build_table();
    let mut i = 0;
    while i < 256 {
        let mut k = 1;
        while k < 8 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            k += 1;
        }
        i += 1;
    }
    tables
}

static TABLES: [[u32; 256]; 8] = build_tables();

/// The one-lookup-per-byte loop.
fn update_bytes(mut crc: u32, bytes: &[u8]) -> u32 {
    for &b in bytes {
        crc = (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    crc
}

/// CRC-32 of `bytes`, as a one-shot convenience.
pub fn crc32(bytes: &[u8]) -> u32 {
    Crc32::new().update(bytes).finish()
}

/// Incremental CRC-32, for checksumming a file while streaming it out.
#[derive(Clone, Copy, Debug)]
pub struct Crc32(u32);

impl Crc32 {
    /// Fresh digest.
    pub fn new() -> Self {
        Crc32(0xFFFF_FFFF)
    }

    /// Folds `bytes` into the digest.
    #[must_use]
    pub fn update(self, bytes: &[u8]) -> Self {
        let t = &TABLES;
        let mut crc = self.0;
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            let lo = crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
            let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
            crc = t[7][(lo & 0xFF) as usize]
                ^ t[6][((lo >> 8) & 0xFF) as usize]
                ^ t[5][((lo >> 16) & 0xFF) as usize]
                ^ t[4][(lo >> 24) as usize]
                ^ t[3][(hi & 0xFF) as usize]
                ^ t[2][((hi >> 8) & 0xFF) as usize]
                ^ t[1][((hi >> 16) & 0xFF) as usize]
                ^ t[0][(hi >> 24) as usize];
        }
        Crc32(update_bytes(crc, words.remainder()))
    }

    /// Final checksum value.
    pub fn finish(self) -> u32 {
        !self.0
    }
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // Standard check value for the IEEE polynomial.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn incremental_matches_one_shot() {
        let whole = crc32(b"hello, world");
        let split = Crc32::new().update(b"hello").update(b", world").finish();
        assert_eq!(whole, split);
    }

    #[test]
    fn slice_by_8_equals_the_byte_loop() {
        let mut rng = incgraph_graph::rng::SplitMix64::seed_from_u64(8);
        let bytes: Vec<u8> = (0..4096).map(|_| rng.gen_range(0u32..256) as u8).collect();
        for _ in 0..500 {
            let start = rng.gen_range(0..bytes.len());
            let end = rng.gen_range(start..=bytes.len().min(start + 300));
            let slice = &bytes[start..end];
            let seed = rng.gen_range(0..u32::MAX);
            assert_eq!(
                Crc32(seed).update(slice).0,
                update_bytes(seed, slice),
                "bytes {start}..{end}"
            );
        }
    }

    #[test]
    fn single_bit_flip_changes_checksum() {
        let base = crc32(b"checkpoint payload");
        let mut corrupted = b"checkpoint payload".to_vec();
        for i in 0..corrupted.len() {
            corrupted[i] ^= 1;
            assert_ne!(crc32(&corrupted), base, "flip at byte {i} undetected");
            corrupted[i] ^= 1;
        }
    }
}

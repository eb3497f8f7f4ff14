//! The on-disk container format: magic, header, section table, checksum.
//!
//! ```text
//! offset 0                64               64-aligned sections          64-aligned
//! ┌──────────────────────┬────────────────┬───────────┬─────┬──────────┬───────────┐
//! │ header (64 bytes)    │ section 0      │ section 1 │ ... │ section k│ TOC       │
//! └──────────────────────┴────────────────┴───────────┴─────┴──────────┴───────────┘
//! ```
//!
//! All integers are little-endian. Every structure is located by a byte
//! *offset* from the start of the file — never a pointer — so the same
//! bytes are valid mapped at any address. Payload sections are 64-byte
//! aligned (cache-line, and a superset of every element alignment used),
//! which is what makes the zero-copy slice reinterpretation in the
//! reader sound: a mapping is page-aligned, so `map_base + 64k·i` is
//! aligned for `u64`/`f64` and everything smaller.
//!
//! The section table (TOC) is written *after* the payload so the writer
//! streams sections in one pass; the header is patched last with the
//! TOC offset, file length, and checksums.

use crate::StoreError;

/// First 8 bytes of every store file.
pub const MAGIC: [u8; 8] = *b"RWSTORE\0";

/// Endianness canary: decodes to this value only when reader and writer
/// agree on byte order.
pub const ENDIAN_MARK: u64 = 0x0123_4567_89AB_CDEF;

/// The one format version this build writes and reads. Version 2
/// dropped the alias-table sections and the `alias_vertices` word of the
/// graph artifact's sampler meta; version 3 dropped the method map and
/// the CDF row starts, whose rows are now the CSR offsets, and shrank
/// that meta to `[bias_tag, span_bits]` (see [`crate::pack_graph`]).
pub const FORMAT_VERSION: u32 = 3;

/// Header size in bytes; also the offset of the first section.
pub const HEADER_LEN: usize = 64;

/// Payload sections start on multiples of this.
pub const SECTION_ALIGN: usize = 64;

/// One TOC entry's encoded size.
pub const TOC_ENTRY_LEN: usize = 40;

/// Maximum section-name length (NUL-padded into 8 bytes on disk).
pub const NAME_LEN: usize = 8;

/// What a store file holds. One artifact kind per file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArtifactKind {
    /// A CSR temporal graph, optionally with prepared sampler tables.
    Graph,
    /// A model snapshot: embedding table + link-FNN weights + version.
    Snapshot,
}

impl ArtifactKind {
    /// The on-disk tag.
    pub fn tag(self) -> u32 {
        match self {
            ArtifactKind::Graph => 1,
            ArtifactKind::Snapshot => 2,
        }
    }

    /// Inverse of [`Self::tag`].
    pub fn from_tag(tag: u32) -> Result<Self, StoreError> {
        match tag {
            1 => Ok(ArtifactKind::Graph),
            2 => Ok(ArtifactKind::Snapshot),
            other => Err(StoreError::UnknownKind { found: other }),
        }
    }

    /// Human-readable name (used in errors and `inspect` output).
    pub fn name(self) -> &'static str {
        match self {
            ArtifactKind::Graph => "graph",
            ArtifactKind::Snapshot => "snapshot",
        }
    }
}

/// Rounds `n` up to the next multiple of [`SECTION_ALIGN`].
pub fn align_up(n: u64) -> u64 {
    n.div_ceil(SECTION_ALIGN as u64) * SECTION_ALIGN as u64
}

/// Streaming FNV-1a-64 variant striped across `LANES` independent
/// lanes of little-endian `u64` words. Word `i` of the stream folds
/// into lane `i % LANES`, and [`Checksum::finish`] chains the lane
/// digests through one more FNV pass together with the total length.
///
/// Why lanes: plain FNV is one serial multiply chain — latency-bound at
/// ~8 bytes per multiply, which caps validation around 2 GB/s and sits
/// directly on the warm-restart critical path (the open path checksums
/// every payload byte). Four independent chains let the CPU overlap the
/// multiplies, roughly quadrupling throughput, while preserving the
/// properties the corruption corpus relies on: every input bit perturbs
/// exactly one lane before the combine mixes all lanes, the tail word
/// is zero-padded, and the total length is folded in so distinct-length
/// zero-extensions of a stream cannot collide trivially.
#[derive(Debug, Clone)]
pub struct Checksum {
    lanes: [u64; LANES],
    carry: [u8; 8],
    carry_len: usize,
    words: u64,
    total: u64,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
/// Number of interleaved FNV chains; part of the on-disk format.
const LANES: usize = 4;

/// One lane step: `(lane ^ word) * FNV_PRIME`.
///
/// On x86-64 the multiply is issued as an explicit scalar `imul`: LLVM
/// otherwise SLP-vectorizes the four lane chains into SSE2 `pmuludq`
/// sequences that emulate a 64-bit multiply in ~7 µops, which measures
/// ~2× *slower* than four interleaved scalar multiplies. The asm block
/// is opaque to the vectorizer, so each chain keeps its own register
/// and 3-cycle multiply. Value is identical on every path.
#[inline(always)]
fn lane_step(lane: u64, word: u64) -> u64 {
    #[cfg(all(target_arch = "x86_64", not(miri)))]
    {
        let mut h = lane ^ word;
        // SAFETY: a register-only multiply; no memory, no flags needed
        // beyond what the instruction itself clobbers.
        unsafe {
            core::arch::asm!(
                "imul {h}, {p}",
                h = inout(reg) h,
                p = in(reg) FNV_PRIME,
                options(pure, nomem, nostack),
            );
        }
        h
    }
    #[cfg(not(all(target_arch = "x86_64", not(miri))))]
    {
        (lane ^ word).wrapping_mul(FNV_PRIME)
    }
}

impl Checksum {
    /// Fresh hasher.
    pub fn new() -> Self {
        // Distinct lane seeds so a block of repeated words does not put
        // every lane in the same state.
        let mut lanes = [FNV_OFFSET; LANES];
        for (i, lane) in lanes.iter_mut().enumerate() {
            *lane = (*lane ^ i as u64).wrapping_mul(FNV_PRIME);
        }
        Self { lanes, carry: [0; 8], carry_len: 0, words: 0, total: 0 }
    }

    /// Folds `bytes` into the hash. Chunk boundaries do not affect the
    /// result: `update(a); update(b)` equals `update(a ++ b)`.
    pub fn update(&mut self, mut bytes: &[u8]) {
        self.total += bytes.len() as u64;
        if self.carry_len > 0 {
            let take = bytes.len().min(8 - self.carry_len);
            self.carry[self.carry_len..self.carry_len + take].copy_from_slice(&bytes[..take]);
            self.carry_len += take;
            bytes = &bytes[take..];
            if self.carry_len == 8 {
                self.fold(u64::from_le_bytes(self.carry));
                self.carry_len = 0;
            } else {
                return;
            }
        }
        // Re-align to lane 0 so the unrolled loop's lane assignment
        // matches the stream position regardless of chunk boundaries.
        while !self.words.is_multiple_of(LANES as u64) && bytes.len() >= 8 {
            self.fold(u64::from_le_bytes(bytes[..8].try_into().expect("8-byte word")));
            bytes = &bytes[8..];
        }
        // Hot loop: LANES independent multiply chains per block, kept in
        // named locals so each chain stays in its own register and the
        // multiplies overlap.
        let [mut l0, mut l1, mut l2, mut l3] = self.lanes;
        let mut blocks = bytes.chunks_exact(8 * LANES);
        for b in &mut blocks {
            let w0 = u64::from_le_bytes(b[0..8].try_into().expect("word"));
            let w1 = u64::from_le_bytes(b[8..16].try_into().expect("word"));
            let w2 = u64::from_le_bytes(b[16..24].try_into().expect("word"));
            let w3 = u64::from_le_bytes(b[24..32].try_into().expect("word"));
            l0 = lane_step(l0, w0);
            l1 = lane_step(l1, w1);
            l2 = lane_step(l2, w2);
            l3 = lane_step(l3, w3);
        }
        self.lanes = [l0, l1, l2, l3];
        self.words += (bytes.len() / (8 * LANES) * LANES) as u64;
        let mut words = blocks.remainder().chunks_exact(8);
        for w in &mut words {
            self.fold(u64::from_le_bytes(w.try_into().expect("8-byte chunk")));
        }
        let rem = words.remainder();
        self.carry[..rem.len()].copy_from_slice(rem);
        self.carry_len = rem.len();
    }

    fn fold(&mut self, word: u64) {
        let lane = (self.words % LANES as u64) as usize;
        self.lanes[lane] = (self.lanes[lane] ^ word).wrapping_mul(FNV_PRIME);
        self.words += 1;
    }

    /// The digest: remaining tail bytes are zero-padded into one final
    /// word, then the lane states are chained through a final FNV pass
    /// and the total length is xored in.
    pub fn finish(&self) -> u64 {
        let mut h = self.clone();
        if h.carry_len > 0 {
            h.carry[h.carry_len..].fill(0);
            let w = u64::from_le_bytes(h.carry);
            h.fold(w);
        }
        let mut out = FNV_OFFSET;
        for lane in h.lanes {
            out = (out ^ lane).wrapping_mul(FNV_PRIME);
        }
        out ^ h.total
    }
}

impl Default for Checksum {
    fn default() -> Self {
        Self::new()
    }
}

/// One-shot checksum of a byte slice.
pub fn checksum64(bytes: &[u8]) -> u64 {
    let mut c = Checksum::new();
    c.update(bytes);
    c.finish()
}

/// Block size for section payload digests; part of the on-disk format.
///
/// Section checksums are not one flat [`Checksum`] over the payload:
/// they are a chain over independent per-block digests (see
/// [`BlockChecksum`]). 8 MiB keeps the per-block overhead negligible
/// while giving the reader enough blocks to spread validation of even a
/// single huge section across every core.
pub const CHECKSUM_BLOCK: usize = 8 << 20;

/// Streaming section-payload digest: the payload is cut into
/// [`CHECKSUM_BLOCK`]-byte blocks (the last may be short), each block is
/// hashed independently with [`Checksum`], and the final digest is a
/// [`Checksum`] over the little-endian block digests in order.
///
/// Why blocks: a single FNV stream must be hashed front to back, so a
/// one-digest-per-section format caps open-path parallelism at the
/// *largest section* — and the CSR arrays dominate real files. Chaining
/// per-block digests keeps the stored checksum a single `u64` while
/// letting the reader verify all blocks of all sections concurrently.
/// Corruption detection is preserved: a flipped payload bit perturbs its
/// block digest, which perturbs the chain; block digests fold their own
/// length (so short-block boundaries matter) and the chain folds the
/// digest count, so blocks cannot be dropped, reordered, or merged
/// silently.
///
/// Chunking-invariant like [`Checksum`]: `update(a); update(b)` equals
/// `update(a ++ b)`.
#[derive(Debug, Clone)]
pub struct BlockChecksum {
    /// Chain over completed block digests.
    chain: Checksum,
    /// The in-flight block.
    block: Checksum,
    block_bytes: usize,
    block_len: usize,
}

impl BlockChecksum {
    /// Fresh hasher with the format's block size.
    pub fn new() -> Self {
        Self::with_block_len(CHECKSUM_BLOCK)
    }

    /// Test-size blocks so boundary logic is exercisable under miri
    /// (hashing multi-MiB blocks there is impractically slow).
    #[cfg(test)]
    fn with_block_len_for_test(block_len: usize) -> Self {
        Self::with_block_len(block_len)
    }

    fn with_block_len(block_len: usize) -> Self {
        assert!(block_len > 0, "block length must be positive");
        Self { chain: Checksum::new(), block: Checksum::new(), block_bytes: 0, block_len }
    }

    /// Folds `bytes` into the digest.
    pub fn update(&mut self, mut bytes: &[u8]) {
        while !bytes.is_empty() {
            let take = bytes.len().min(self.block_len - self.block_bytes);
            self.block.update(&bytes[..take]);
            self.block_bytes += take;
            bytes = &bytes[take..];
            if self.block_bytes == self.block_len {
                self.chain.update(&self.block.finish().to_le_bytes());
                self.block = Checksum::new();
                self.block_bytes = 0;
            }
        }
    }

    /// The digest: a trailing short block (if any) is folded into the
    /// chain, then the chain is finished. An empty payload is the chain
    /// over zero digests.
    pub fn finish(&self) -> u64 {
        let mut chain = self.chain.clone();
        if self.block_bytes > 0 {
            chain.update(&self.block.finish().to_le_bytes());
        }
        chain.finish()
    }
}

impl Default for BlockChecksum {
    fn default() -> Self {
        Self::new()
    }
}

/// One-shot section-payload digest of a byte slice.
pub fn block_checksum64(bytes: &[u8]) -> u64 {
    let mut c = BlockChecksum::new();
    c.update(bytes);
    c.finish()
}

/// Reads a little-endian `u64` at `off`; caller guarantees bounds.
pub(crate) fn read_u64(bytes: &[u8], off: usize) -> u64 {
    u64::from_le_bytes(bytes[off..off + 8].try_into().expect("8 bytes"))
}

/// Reads a little-endian `u32` at `off`; caller guarantees bounds.
pub(crate) fn read_u32(bytes: &[u8], off: usize) -> u32 {
    u32::from_le_bytes(bytes[off..off + 4].try_into().expect("4 bytes"))
}

/// The decoded fixed-size file header.
#[derive(Debug, Clone, Copy)]
pub struct Header {
    /// Artifact kind tag (see [`ArtifactKind`]).
    pub kind: ArtifactKind,
    /// Number of TOC entries.
    pub section_count: u32,
    /// Byte offset of the TOC.
    pub toc_offset: u64,
    /// Total file length the writer committed.
    pub file_len: u64,
    /// Checksum over the encoded TOC bytes.
    pub toc_checksum: u64,
}

impl Header {
    /// Encodes the 64-byte header. The final 8 bytes are a checksum over
    /// the preceding 56.
    pub fn encode(&self) -> [u8; HEADER_LEN] {
        let mut h = [0u8; HEADER_LEN];
        h[0..8].copy_from_slice(&MAGIC);
        h[8..16].copy_from_slice(&ENDIAN_MARK.to_le_bytes());
        h[16..20].copy_from_slice(&FORMAT_VERSION.to_le_bytes());
        h[20..24].copy_from_slice(&self.kind.tag().to_le_bytes());
        h[24..28].copy_from_slice(&self.section_count.to_le_bytes());
        // h[28..32] reserved, zero.
        h[32..40].copy_from_slice(&self.toc_offset.to_le_bytes());
        h[40..48].copy_from_slice(&self.file_len.to_le_bytes());
        h[48..56].copy_from_slice(&self.toc_checksum.to_le_bytes());
        let sum = checksum64(&h[..56]);
        h[56..64].copy_from_slice(&sum.to_le_bytes());
        h
    }

    /// Decodes and validates a header from the start of `bytes`.
    ///
    /// Check order matters for error quality: magic first (is this even
    /// a store file?), then the header checksum (random corruption),
    /// then endianness/version/kind (real but incompatible files), then
    /// the structural offsets against the actual file length.
    pub fn decode(bytes: &[u8]) -> Result<Self, StoreError> {
        if bytes.len() < HEADER_LEN {
            return Err(StoreError::Truncated {
                what: "header".into(),
                needed: HEADER_LEN as u64,
                actual: bytes.len() as u64,
            });
        }
        if bytes[0..8] != MAGIC {
            return Err(StoreError::BadMagic { found: bytes[0..8].try_into().expect("8 bytes") });
        }
        let stored = read_u64(bytes, 56);
        let computed = checksum64(&bytes[..56]);
        if stored != computed {
            return Err(StoreError::HeaderChecksum { stored, computed });
        }
        let endian = read_u64(bytes, 8);
        if endian != ENDIAN_MARK {
            return Err(StoreError::Endianness { found: endian });
        }
        let version = read_u32(bytes, 16);
        if version != FORMAT_VERSION {
            return Err(StoreError::UnsupportedVersion {
                found: version,
                supported: FORMAT_VERSION,
            });
        }
        let kind = ArtifactKind::from_tag(read_u32(bytes, 20))?;
        let header = Header {
            kind,
            section_count: read_u32(bytes, 24),
            toc_offset: read_u64(bytes, 32),
            file_len: read_u64(bytes, 40),
            toc_checksum: read_u64(bytes, 48),
        };
        if header.file_len != bytes.len() as u64 {
            return Err(StoreError::Truncated {
                what: "file body".into(),
                needed: header.file_len,
                actual: bytes.len() as u64,
            });
        }
        let toc_len = header.section_count as u64 * TOC_ENTRY_LEN as u64;
        if !header.toc_offset.is_multiple_of(SECTION_ALIGN as u64) {
            return Err(StoreError::Misaligned {
                section: "<toc>".into(),
                offset: header.toc_offset,
                multiple_of: SECTION_ALIGN as u64,
            });
        }
        let toc_end = header.toc_offset.checked_add(toc_len).ok_or(StoreError::OutOfBounds {
            section: "<toc>".into(),
            offset: header.toc_offset,
            len: toc_len,
            file_len: header.file_len,
        })?;
        if header.toc_offset < HEADER_LEN as u64 || toc_end > header.file_len {
            return Err(StoreError::OutOfBounds {
                section: "<toc>".into(),
                offset: header.toc_offset,
                len: toc_len,
                file_len: header.file_len,
            });
        }
        Ok(header)
    }
}

/// One decoded TOC entry: a named, typed, checksummed byte range.
#[derive(Debug, Clone)]
pub struct SectionEntry {
    /// NUL-padded section name.
    pub name: [u8; NAME_LEN],
    /// Payload byte offset from the start of the file (64-aligned).
    pub offset: u64,
    /// Payload byte length.
    pub len: u64,
    /// Element size the payload reinterprets as (1, 4, or 8).
    pub elem_size: u32,
    /// Block-chained digest over the payload bytes ([`BlockChecksum`]).
    pub checksum: u64,
}

impl SectionEntry {
    /// The name as UTF-8 with the NUL padding stripped.
    pub fn name_str(&self) -> &str {
        let end = self.name.iter().position(|&b| b == 0).unwrap_or(NAME_LEN);
        std::str::from_utf8(&self.name[..end]).unwrap_or("<non-utf8>")
    }

    /// Encodes the 40-byte TOC entry.
    pub fn encode(&self) -> [u8; TOC_ENTRY_LEN] {
        let mut e = [0u8; TOC_ENTRY_LEN];
        e[0..8].copy_from_slice(&self.name);
        e[8..16].copy_from_slice(&self.offset.to_le_bytes());
        e[16..24].copy_from_slice(&self.len.to_le_bytes());
        e[24..28].copy_from_slice(&self.elem_size.to_le_bytes());
        // e[28..32] reserved, zero.
        e[32..40].copy_from_slice(&self.checksum.to_le_bytes());
        e
    }

    /// Decodes one entry (no validation beyond field extraction — the
    /// container validates ranges with the whole file in hand).
    pub fn decode(bytes: &[u8]) -> Self {
        SectionEntry {
            name: bytes[0..8].try_into().expect("8 bytes"),
            offset: read_u64(bytes, 8),
            len: read_u64(bytes, 16),
            elem_size: read_u32(bytes, 24),
            checksum: read_u64(bytes, 32),
        }
    }
}

/// Builds the fixed 8-byte name array from a short ASCII string.
///
/// # Panics
///
/// Panics if `name` exceeds 8 bytes — section names are compile-time
/// constants chosen by this crate, so a long one is a programming error.
pub fn section_name(name: &str) -> [u8; NAME_LEN] {
    assert!(name.len() <= NAME_LEN, "section name {name:?} exceeds {NAME_LEN} bytes");
    let mut out = [0u8; NAME_LEN];
    out[..name.len()].copy_from_slice(name.as_bytes());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checksum_is_chunking_invariant() {
        let data: Vec<u8> = (0..1000u32).map(|i| (i * 7 + 13) as u8).collect();
        let whole = checksum64(&data);
        for split in [0, 1, 7, 8, 9, 63, 64, 65, 999, 1000] {
            let mut c = Checksum::new();
            c.update(&data[..split]);
            c.update(&data[split..]);
            assert_eq!(c.finish(), whole, "split at {split} changed the digest");
        }
        // Three-way split with awkward boundaries.
        let mut c = Checksum::new();
        c.update(&data[..3]);
        c.update(&data[3..10]);
        c.update(&data[10..]);
        assert_eq!(c.finish(), whole);
    }

    #[test]
    fn checksum_distinguishes_lengths_and_contents() {
        assert_ne!(checksum64(b""), checksum64(b"\0"));
        assert_ne!(checksum64(b"\0"), checksum64(b"\0\0"));
        assert_ne!(checksum64(b"abcdefgh"), checksum64(b"abcdefgi"));
        // A trailing zero after a word boundary must still matter.
        assert_ne!(checksum64(b"abcdefgh"), checksum64(b"abcdefgh\0"));
    }

    #[test]
    fn block_checksum_is_chunking_invariant_and_boundary_sensitive() {
        let data: Vec<u8> = (0..512u32).map(|i| (i * 31 + 5) as u8).collect();
        // Whole-slice reference with a 100-byte test block size.
        let mut whole = BlockChecksum::with_block_len_for_test(100);
        whole.update(&data);
        let reference = whole.finish();
        for split in [0, 1, 99, 100, 101, 200, 511, 512] {
            let mut c = BlockChecksum::with_block_len_for_test(100);
            c.update(&data[..split]);
            c.update(&data[split..]);
            assert_eq!(c.finish(), reference, "split at {split} changed the digest");
        }
        // Block size is part of the digest: the same bytes hashed with a
        // different block length must not collide.
        let mut other = BlockChecksum::with_block_len_for_test(128);
        other.update(&data);
        assert_ne!(other.finish(), reference);
        // Exactly one block vs one block plus one byte.
        let mut exact = BlockChecksum::with_block_len_for_test(100);
        exact.update(&data[..100]);
        let mut over = BlockChecksum::with_block_len_for_test(100);
        over.update(&data[..101]);
        assert_ne!(exact.finish(), over.finish());
        // Empty payload has a stable, distinct digest.
        assert_eq!(
            BlockChecksum::with_block_len_for_test(100).finish(),
            BlockChecksum::with_block_len_for_test(100).finish()
        );
        assert_ne!(BlockChecksum::with_block_len_for_test(100).finish(), exact.finish());
    }

    #[cfg(not(miri))]
    #[test]
    fn block_checksum_matches_manual_chain_at_format_block_size() {
        // Cross the real 8 MiB boundary once so the production block
        // size is exercised, and check the one-shot helper agrees with
        // hand-chaining the block digests (the reader's parallel path).
        let data: Vec<u8> = (0..CHECKSUM_BLOCK + 12_345).map(|i| (i * 7 + 1) as u8).collect();
        let mut chain = Checksum::new();
        for block in data.chunks(CHECKSUM_BLOCK) {
            chain.update(&checksum64(block).to_le_bytes());
        }
        assert_eq!(block_checksum64(&data), chain.finish());
    }

    #[test]
    fn header_round_trips() {
        let h = Header {
            kind: ArtifactKind::Graph,
            section_count: 3,
            toc_offset: 256,
            file_len: 376,
            toc_checksum: 0xdead_beef,
        };
        let mut file = vec![0u8; 376];
        file[..HEADER_LEN].copy_from_slice(&h.encode());
        let d = Header::decode(&file).expect("valid header");
        assert_eq!(d.kind, ArtifactKind::Graph);
        assert_eq!(d.section_count, 3);
        assert_eq!(d.toc_offset, 256);
        assert_eq!(d.file_len, 376);
        assert_eq!(d.toc_checksum, 0xdead_beef);
    }

    #[test]
    fn header_rejects_bad_magic_and_corruption() {
        let h = Header {
            kind: ArtifactKind::Snapshot,
            section_count: 1,
            toc_offset: 64,
            file_len: 104,
            toc_checksum: 1,
        };
        let mut file = vec![0u8; 104];
        file[..HEADER_LEN].copy_from_slice(&h.encode());
        assert!(Header::decode(&file).is_ok());

        let mut bad = file.clone();
        bad[0] ^= 0xFF;
        assert!(matches!(Header::decode(&bad), Err(StoreError::BadMagic { .. })));

        // Any single bit flip in the checksummed region must be caught.
        for byte in [9, 17, 21, 25, 33, 41, 49] {
            let mut bad = file.clone();
            bad[byte] ^= 0x10;
            assert!(
                matches!(Header::decode(&bad), Err(StoreError::HeaderChecksum { .. })),
                "flip at byte {byte} was not caught"
            );
        }
    }

    #[test]
    fn section_entry_round_trips() {
        let e = SectionEntry {
            name: section_name("goff"),
            offset: 64,
            len: 800,
            elem_size: 8,
            checksum: 42,
        };
        let d = SectionEntry::decode(&e.encode());
        assert_eq!(d.name_str(), "goff");
        assert_eq!(d.offset, 64);
        assert_eq!(d.len, 800);
        assert_eq!(d.elem_size, 8);
        assert_eq!(d.checksum, 42);
    }

    #[test]
    fn align_up_rounds_to_cache_lines() {
        assert_eq!(align_up(0), 0);
        assert_eq!(align_up(1), 64);
        assert_eq!(align_up(64), 64);
        assert_eq!(align_up(65), 128);
    }
}

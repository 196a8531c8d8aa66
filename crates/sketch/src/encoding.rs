//! Superpost compaction encoding (§IV-C).
//!
//! The paper concatenates all superposts into a single blob (or a few
//! blocks), serialized compactly, with a *header block* holding bin
//! pointers, hash seeds, a string-compression table, and metadata. The
//! header is the one piece the Searcher downloads at initialization; every
//! superpost is then reachable in a single ranged read via its
//! `(block, offset, length)` pointer.
//!
//! The paper serializes with Protocol Buffers; protobuf is not on the
//! offline crate allowlist, so we implement an equivalent compact binary
//! format (see EXPERIMENTS.md, "Substitutions"): LEB128 varints, delta-encoded sorted
//! postings, and interned blob names ("Airphant compresses repeated strings
//! within postings into integer keys").

use crate::error::SketchError;
use crate::hash::LayerSeed;
use crate::postings::{Posting, PostingsList};
use crate::sketch::SketchConfig;
use crate::Result;
use bytes::{BufMut, Bytes, BytesMut};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

// ---------------------------------------------------------------------------
// Varint primitives (LEB128, unsigned)
// ---------------------------------------------------------------------------

/// Append `v` as a LEB128 varint.
pub fn put_varint(buf: &mut BytesMut, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            buf.put_u8(byte);
            return;
        }
        buf.put_u8(byte | 0x80);
    }
}

/// A decoding cursor over a byte slice.
#[derive(Debug)]
pub struct Cursor<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    /// Start at the beginning of `data`.
    pub fn new(data: &'a [u8]) -> Self {
        Cursor { data, pos: 0 }
    }

    /// Bytes remaining.
    pub fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }

    /// Current byte offset from the start of the underlying slice.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Whether the cursor consumed everything.
    pub fn is_exhausted(&self) -> bool {
        self.remaining() == 0
    }

    fn corrupt(&self, what: &str) -> SketchError {
        SketchError::Corrupt {
            detail: format!("{what} at byte {}", self.pos),
        }
    }

    /// Read one LEB128 varint.
    pub fn varint(&mut self) -> Result<u64> {
        // Fast path: single-byte values dominate posting streams (small
        // deltas and lengths), and the bounds check is already paid.
        if let Some(&byte) = self.data.get(self.pos) {
            if byte & 0x80 == 0 {
                self.pos += 1;
                return Ok(u64::from(byte));
            }
        }
        let mut v = 0u64;
        let mut shift = 0u32;
        loop {
            let byte = *self
                .data
                .get(self.pos)
                .ok_or_else(|| self.corrupt("truncated varint"))?;
            self.pos += 1;
            if shift >= 64 {
                return Err(self.corrupt("varint overflow"));
            }
            v |= ((byte & 0x7f) as u64) << shift;
            if byte & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
        }
    }

    /// Read `n` raw bytes.
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.remaining() < n {
            return Err(self.corrupt("truncated bytes"));
        }
        let out = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Read a length-prefixed UTF-8 string as a borrowed slice — the
    /// zero-copy twin of [`Cursor::string`]. UTF-8 is validated in place;
    /// no intermediate buffer is allocated.
    pub fn str_ref(&mut self) -> Result<&'a str> {
        let len = self.varint()? as usize;
        let raw = self.bytes(len)?;
        std::str::from_utf8(raw).map_err(|_| self.corrupt("invalid utf-8"))
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn string(&mut self) -> Result<String> {
        self.str_ref().map(str::to_owned)
    }

    /// Read a u32 stored as raw little-endian bits.
    pub fn u32_le(&mut self) -> Result<u32> {
        let raw = self.bytes(4)?;
        Ok(u32::from_le_bytes(raw.try_into().unwrap()))
    }

    /// Read a u64 stored as raw little-endian bits.
    pub fn u64_le(&mut self) -> Result<u64> {
        let raw = self.bytes(8)?;
        Ok(u64::from_le_bytes(raw.try_into().unwrap()))
    }

    /// Read an f64 stored as raw little-endian bits.
    pub fn f64(&mut self) -> Result<f64> {
        let raw = self.bytes(8)?;
        Ok(f64::from_le_bytes(raw.try_into().unwrap()))
    }
}

/// Append a length-prefixed UTF-8 string.
pub fn put_string(buf: &mut BytesMut, s: &str) {
    put_varint(buf, s.len() as u64);
    buf.put_slice(s.as_bytes());
}

/// Append an f64 as raw little-endian bits.
pub fn put_f64(buf: &mut BytesMut, v: f64) {
    buf.put_slice(&v.to_le_bytes());
}

// ---------------------------------------------------------------------------
// String-compression table
// ---------------------------------------------------------------------------

/// Interns blob names to `u32` ids (§IV-C's string compression).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StringTable {
    names: Vec<String>,
    ids: HashMap<String, u32>,
}

impl StringTable {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Intern `name`, returning its stable id.
    pub fn intern(&mut self, name: &str) -> u32 {
        if let Some(&id) = self.ids.get(name) {
            return id;
        }
        let id = self.names.len() as u32;
        self.names.push(name.to_owned());
        self.ids.insert(name.to_owned(), id);
        id
    }

    /// Resolve an id back to a name.
    pub fn name(&self, id: u32) -> Option<&str> {
        self.names.get(id as usize).map(|s| s.as_str())
    }

    /// Look up an already-interned name.
    pub fn id_of(&self, name: &str) -> Option<u32> {
        self.ids.get(name).copied()
    }

    /// Number of interned names.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    fn encode_into(&self, buf: &mut BytesMut) {
        put_varint(buf, self.names.len() as u64);
        for n in &self.names {
            put_string(buf, n);
        }
    }

    fn decode_from(cur: &mut Cursor<'_>) -> Result<Self> {
        let count = cur.varint()? as usize;
        // Every entry costs at least one length byte; an implausible count
        // (from a bit flip) must not drive a huge pre-allocation.
        if count > cur.remaining() {
            return Err(SketchError::Corrupt {
                detail: format!("string table count {count} exceeds remaining bytes"),
            });
        }
        let mut table = StringTable::new();
        for _ in 0..count {
            let name = cur.str_ref()?;
            table.intern(name);
        }
        Ok(table)
    }
}

// ---------------------------------------------------------------------------
// Superpost codec
// ---------------------------------------------------------------------------

/// Encode a superpost: varint count, then delta-encoded `(blob, offset,
/// len)` triples exploiting the sorted order.
pub fn encode_superpost(list: &PostingsList) -> Bytes {
    let mut buf = BytesMut::with_capacity(list.approx_bytes());
    put_varint(&mut buf, list.len() as u64);
    let mut prev_blob = 0u32;
    let mut prev_offset = 0u64;
    for (i, p) in list.iter().enumerate() {
        let blob_delta = if i == 0 { p.blob } else { p.blob - prev_blob };
        put_varint(&mut buf, blob_delta as u64);
        let off = if i > 0 && blob_delta == 0 {
            p.offset - prev_offset
        } else {
            p.offset
        };
        put_varint(&mut buf, off);
        put_varint(&mut buf, p.len as u64);
        prev_blob = p.blob;
        prev_offset = p.offset;
    }
    buf.freeze()
}

/// Decode one delta-encoded posting. `prev` is `(blob, offset)` of the
/// previous posting, or `(0, 0)` before the first one — the two cases
/// coincide because the first posting's blob delta is taken from zero and
/// its offset delta only applies when the blob delta is zero.
fn read_posting(cur: &mut Cursor<'_>, prev: (u32, u64)) -> Result<Posting> {
    let blob_delta = cur.varint()?;
    let blob = u32::try_from(blob_delta)
        .ok()
        .and_then(|d| prev.0.checked_add(d))
        .ok_or_else(|| SketchError::Corrupt {
            detail: "blob id overflow".into(),
        })?;
    let raw_off = cur.varint()?;
    let offset = if blob_delta == 0 {
        prev.1
            .checked_add(raw_off)
            .ok_or_else(|| SketchError::Corrupt {
                detail: "posting offset overflow".into(),
            })?
    } else {
        raw_off
    };
    let len = u32::try_from(cur.varint()?).map_err(|_| SketchError::Corrupt {
        detail: "posting length overflow".into(),
    })?;
    Ok(Posting::new(blob, offset, len))
}

/// Validate a superpost count against the bytes that must back it: each
/// posting costs at least three varint bytes.
fn check_superpost_count(count: usize, remaining: usize) -> Result<()> {
    if count > remaining / 3 {
        return Err(SketchError::Corrupt {
            detail: format!("superpost count {count} exceeds {remaining} payload bytes"),
        });
    }
    Ok(())
}

/// Decode a superpost produced by [`encode_superpost`].
pub fn decode_superpost(data: &[u8]) -> Result<PostingsList> {
    let mut cur = Cursor::new(data);
    let list = decode_superpost_from(&mut cur)?;
    if !cur.is_exhausted() {
        return Err(SketchError::Corrupt {
            detail: format!("{} trailing bytes after superpost", cur.remaining()),
        });
    }
    Ok(list)
}

/// Decode a superpost from a cursor (for concatenated blocks).
pub fn decode_superpost_from(cur: &mut Cursor<'_>) -> Result<PostingsList> {
    let count = cur.varint()? as usize;
    check_superpost_count(count, cur.remaining())?;
    let mut postings = Vec::with_capacity(count);
    let mut prev = (0u32, 0u64);
    for i in 0..count {
        let p = read_posting(cur, prev)?;
        if i > 0 && p <= *postings.last().expect("nonempty after first") {
            return Err(SketchError::Corrupt {
                detail: "postings out of order".into(),
            });
        }
        prev = (p.blob, p.offset);
        postings.push(p);
    }
    Ok(PostingsList::from_sorted_unique(postings))
}

// ---------------------------------------------------------------------------
// Bin pointers and the header block
// ---------------------------------------------------------------------------

/// Pointer to one superpost inside the compacted superpost blocks:
/// "each bin pointer need\[s\] to represent block ID, offset, and byte length
/// to retrieve the superpost's bytes in a single round-trip" (§IV-C).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BinPointer {
    /// Superpost block id (blob index).
    pub block: u32,
    /// Byte offset within the block.
    pub offset: u64,
    /// Byte length of the serialized superpost.
    pub len: u32,
}

impl BinPointer {
    /// Construct a pointer.
    pub fn new(block: u32, offset: u64, len: u32) -> Self {
        BinPointer { block, offset, len }
    }

    fn encode_into(&self, buf: &mut BytesMut) {
        put_varint(buf, self.block as u64);
        put_varint(buf, self.offset);
        put_varint(buf, self.len as u64);
    }

    fn decode_from(cur: &mut Cursor<'_>) -> Result<Self> {
        Ok(BinPointer {
            block: cur.varint()? as u32,
            offset: cur.varint()?,
            len: cur.varint()? as u32,
        })
    }
}

/// The persistent header block: everything the Searcher needs to
/// reconstruct the MHT — structure, hash seeds, bin pointers, the exact
/// common-word dictionary, the string table, and free-form metadata.
#[derive(Debug, Clone, PartialEq)]
pub struct HeaderBlock {
    /// Sketch structure.
    pub config: SketchConfig,
    /// Per-layer hash seeds.
    pub seeds: Vec<LayerSeed>,
    /// Blob-name interning table.
    pub string_table: StringTable,
    /// Bin pointers, layer-major: `pointers[layer][bin]`.
    pub pointers: Vec<Vec<BinPointer>>,
    /// Exact common-word dictionary: word → pointer to its postings list.
    pub common: Vec<(String, BinPointer)>,
    /// Free-form metadata (e.g. accuracy constraint, corpus name).
    pub meta: Vec<(String, String)>,
    /// Sorted vocabulary + suffix array for prefix/fuzzy expansion.
    /// Serialized only by format v2 (an optional Index-class section);
    /// v1 headers drop it on encode and decode to `None`.
    pub vocab: Option<crate::vocab::Vocabulary>,
}

const MAGIC: &[u8; 4] = b"AIRP";
const VERSION: u64 = 1;
const VERSION_V2: u64 = 2;

impl HeaderBlock {
    /// Serialize the header to bytes in format v1 (varint stream).
    pub fn encode(&self) -> Bytes {
        let mut buf =
            BytesMut::with_capacity(64 + self.pointers.iter().map(|l| l.len() * 6).sum::<usize>());
        buf.put_slice(MAGIC);
        put_varint(&mut buf, VERSION);
        put_varint(&mut buf, self.config.total_bins as u64);
        put_varint(&mut buf, self.config.layers as u64);
        put_f64(&mut buf, self.config.common_fraction);
        put_varint(&mut buf, self.seeds.len() as u64);
        for s in &self.seeds {
            put_varint(&mut buf, s.a);
            put_varint(&mut buf, s.b);
        }
        self.string_table.encode_into(&mut buf);
        put_varint(&mut buf, self.pointers.len() as u64);
        for layer in &self.pointers {
            put_varint(&mut buf, layer.len() as u64);
            for p in layer {
                p.encode_into(&mut buf);
            }
        }
        put_varint(&mut buf, self.common.len() as u64);
        for (word, ptr) in &self.common {
            put_string(&mut buf, word);
            ptr.encode_into(&mut buf);
        }
        put_varint(&mut buf, self.meta.len() as u64);
        for (k, v) in &self.meta {
            put_string(&mut buf, k);
            put_string(&mut buf, v);
        }
        buf.freeze()
    }

    /// Deserialize a header in either format version. Prefer
    /// [`HeaderBlock::decode_any`] when the caller also needs to know which
    /// version it got (and, for v2, the layer directory).
    pub fn decode(data: &[u8]) -> Result<Self> {
        Self::decode_any(data).map(|(header, _)| header)
    }

    /// Deserialize a header in either format version, returning the decoded
    /// header together with a [`SegmentFormat`] describing what was on the
    /// wire (version, and the layer directory for v2).
    pub fn decode_any(data: &[u8]) -> Result<(Self, SegmentFormat)> {
        let version = peek_version(data)?;
        match version {
            VERSION => {
                let header = Self::decode_v1(data)?;
                Ok((header, SegmentFormat::v1()))
            }
            VERSION_V2 => {
                let view = HeaderView::parse(Bytes::from(data.to_vec()))?;
                let format = SegmentFormat {
                    version: 2,
                    directory: Some(view.directory().clone()),
                };
                Ok((view.to_header_block()?, format))
            }
            other => Err(SketchError::Corrupt {
                detail: format!("unsupported header version {other}"),
            }),
        }
    }

    fn decode_v1(data: &[u8]) -> Result<Self> {
        let mut cur = Cursor::new(data);
        let magic = cur.bytes(4)?;
        if magic != MAGIC {
            return Err(SketchError::Corrupt {
                detail: "bad magic".into(),
            });
        }
        let version = cur.varint()?;
        if version != VERSION {
            return Err(SketchError::Corrupt {
                detail: format!("unsupported header version {version}"),
            });
        }
        let total_bins = cur.varint()? as usize;
        let layers = cur.varint()? as usize;
        let common_fraction = cur.f64()?;
        let config = SketchConfig {
            total_bins,
            layers,
            common_fraction,
        };
        let n_seeds = cur.varint()? as usize;
        if n_seeds != layers {
            return Err(SketchError::Corrupt {
                detail: format!("{n_seeds} seeds for {layers} layers"),
            });
        }
        if n_seeds > cur.remaining() / 2 {
            return Err(SketchError::Corrupt {
                detail: format!("seed count {n_seeds} exceeds remaining bytes"),
            });
        }
        let mut seeds = Vec::with_capacity(n_seeds);
        for _ in 0..n_seeds {
            seeds.push(LayerSeed {
                a: cur.varint()?,
                b: cur.varint()?,
            });
        }
        let string_table = StringTable::decode_from(&mut cur)?;
        let n_layers = cur.varint()? as usize;
        if n_layers != layers {
            return Err(SketchError::Corrupt {
                detail: format!("{n_layers} pointer layers for {layers} layers"),
            });
        }
        let mut pointers = Vec::with_capacity(n_layers);
        for _ in 0..n_layers {
            let n_bins = cur.varint()? as usize;
            if n_bins > cur.remaining() / 3 {
                return Err(SketchError::Corrupt {
                    detail: format!("bin count {n_bins} exceeds remaining bytes"),
                });
            }
            let mut layer = Vec::with_capacity(n_bins);
            for _ in 0..n_bins {
                layer.push(BinPointer::decode_from(&mut cur)?);
            }
            pointers.push(layer);
        }
        let n_common = cur.varint()? as usize;
        if n_common > cur.remaining() / 4 {
            return Err(SketchError::Corrupt {
                detail: format!("common-word count {n_common} exceeds remaining bytes"),
            });
        }
        let mut common = Vec::with_capacity(n_common);
        for _ in 0..n_common {
            let word = cur.string()?;
            let ptr = BinPointer::decode_from(&mut cur)?;
            common.push((word, ptr));
        }
        let n_meta = cur.varint()? as usize;
        if n_meta > cur.remaining() / 2 {
            return Err(SketchError::Corrupt {
                detail: format!("meta count {n_meta} exceeds remaining bytes"),
            });
        }
        let mut meta = Vec::with_capacity(n_meta);
        for _ in 0..n_meta {
            let k = cur.string()?;
            let v = cur.string()?;
            meta.push((k, v));
        }
        if !cur.is_exhausted() {
            return Err(SketchError::Corrupt {
                detail: format!("{} trailing bytes after header", cur.remaining()),
            });
        }
        Ok(HeaderBlock {
            config,
            seeds,
            string_table,
            pointers,
            common,
            meta,
            vocab: None,
        })
    }
}

// ---------------------------------------------------------------------------
// Format v2: section-table header, layer directory, zero-copy views
// ---------------------------------------------------------------------------

/// Which cache tier a byte range belongs to (§ ablation_cache): **Index**
/// bytes are the small, high-fanout structures every query touches (header,
/// MHT, superpost directory, string table); **Data** bytes are the bulky
/// payloads (posting bytes, documents).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ByteClass {
    /// Hot index structures — worth pinning resident.
    Index,
    /// Bulk payload bytes — plain LRU traffic.
    #[default]
    Data,
}

/// Which on-wire segment format the writer produces.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum FormatVersion {
    /// The original varint-stream header.
    V1,
    /// Section-table header with a layer directory and zero-copy views.
    #[default]
    V2,
}

impl FormatVersion {
    /// Numeric on-wire version.
    pub fn number(self) -> u32 {
        match self {
            FormatVersion::V1 => 1,
            FormatVersion::V2 => 2,
        }
    }
}

impl std::fmt::Display for FormatVersion {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "v{}", self.number())
    }
}

impl std::str::FromStr for FormatVersion {
    type Err = SketchError;
    fn from_str(s: &str) -> Result<Self> {
        match s {
            "v1" | "1" => Ok(FormatVersion::V1),
            "v2" | "2" => Ok(FormatVersion::V2),
            other => Err(SketchError::InvalidConfig {
                reason: format!("unknown format version {other:?} (expected v1 or v2)"),
            }),
        }
    }
}

/// Section kinds in the v2 header's section table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SectionKind {
    /// Sketch structure (fixed-width).
    Config,
    /// Per-layer hash seeds (fixed-width).
    Seeds,
    /// Blob-name interning table.
    Strings,
    /// Fixed-width bin pointers, layer-major.
    Pointers,
    /// Exact common-word dictionary.
    Common,
    /// Byte sizes of the external superpost blocks (the Data side of the
    /// layer directory).
    Blocks,
    /// Free-form metadata.
    Meta,
    /// Sorted vocabulary + suffix array (optional; absent in segments
    /// written before prefix/fuzzy support).
    Vocab,
}

impl SectionKind {
    fn from_u32(v: u32) -> Option<Self> {
        Some(match v {
            1 => SectionKind::Config,
            2 => SectionKind::Seeds,
            3 => SectionKind::Strings,
            4 => SectionKind::Pointers,
            5 => SectionKind::Common,
            6 => SectionKind::Blocks,
            7 => SectionKind::Meta,
            8 => SectionKind::Vocab,
            _ => return None,
        })
    }

    fn to_u32(self) -> u32 {
        match self {
            SectionKind::Config => 1,
            SectionKind::Seeds => 2,
            SectionKind::Strings => 3,
            SectionKind::Pointers => 4,
            SectionKind::Common => 5,
            SectionKind::Blocks => 6,
            SectionKind::Meta => 7,
            SectionKind::Vocab => 8,
        }
    }

    /// Human-readable section name (CLI byte breakdown).
    pub fn name(self) -> &'static str {
        match self {
            SectionKind::Config => "config",
            SectionKind::Seeds => "seeds",
            SectionKind::Strings => "strings",
            SectionKind::Pointers => "pointers",
            SectionKind::Common => "common",
            SectionKind::Blocks => "blocks",
            SectionKind::Meta => "meta",
            SectionKind::Vocab => "vocab",
        }
    }
}

/// One entry of the v2 layer directory: a classified byte range of the
/// header blob.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SectionInfo {
    /// What the section holds.
    pub kind: SectionKind,
    /// Cache tier the bytes belong to.
    pub class: ByteClass,
    /// Byte offset within the header blob (8-aligned).
    pub offset: u64,
    /// Byte length of the section body.
    pub len: u64,
}

/// The v2 layer directory: every byte range of the segment classified as
/// Index or Data. Header sections are enumerated explicitly; the external
/// superpost blocks (Data class) are described by their byte sizes.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerDirectory {
    /// Classified byte ranges of the header blob.
    pub sections: Vec<SectionInfo>,
    /// Byte size of superpost block `i` (blob `{prefix}/superposts/{i:05}`).
    pub data_blocks: Vec<u64>,
}

impl LayerDirectory {
    /// Total Index-class bytes (the header sections).
    pub fn index_bytes(&self) -> u64 {
        self.sections
            .iter()
            .filter(|s| s.class == ByteClass::Index)
            .map(|s| s.len)
            .sum()
    }

    /// Total Data-class bytes (the superpost blocks).
    pub fn data_bytes(&self) -> u64 {
        self.data_blocks.iter().sum()
    }
}

/// What was on the wire when a header was decoded: the format version and,
/// for v2, the layer directory.
#[derive(Debug, Clone, PartialEq)]
pub struct SegmentFormat {
    /// On-wire version (1 or 2).
    pub version: u32,
    /// Layer directory (v2 only).
    pub directory: Option<LayerDirectory>,
}

impl SegmentFormat {
    /// Format descriptor for a v1 segment (no layer directory).
    pub fn v1() -> Self {
        SegmentFormat {
            version: 1,
            directory: None,
        }
    }
}

/// Read the format version of a serialized header without decoding it.
pub fn peek_version(data: &[u8]) -> Result<u64> {
    let mut cur = Cursor::new(data);
    let magic = cur.bytes(4)?;
    if magic != MAGIC {
        return Err(SketchError::Corrupt {
            detail: "bad magic".into(),
        });
    }
    cur.varint()
}

const V2_PREAMBLE: usize = 16; // magic(4) + version(1) + pad(3) + count(4) + reserved(4)
const V2_TABLE_ENTRY: usize = 24; // kind(4) + class(4) + offset(8) + len(8)
const V2_POINTER_ENTRY: usize = 16; // block(4) + len(4) + offset(8)

fn align8(n: usize) -> usize {
    (n + 7) & !7
}

impl HeaderBlock {
    /// Serialize the header in the requested format. `data_blocks` are the
    /// byte sizes of the superpost blocks (ignored by v1, recorded in the
    /// v2 layer directory).
    pub fn encode_with(&self, format: FormatVersion, data_blocks: &[u64]) -> Bytes {
        match format {
            FormatVersion::V1 => self.encode(),
            FormatVersion::V2 => self.encode_v2(data_blocks),
        }
    }

    /// Serialize the header in format v2: an 8-aligned section table whose
    /// entries classify every byte range (the layer directory), fixed-width
    /// seeds and bin pointers readable in place, and a BLOCKS section
    /// recording the byte size of each external superpost block.
    pub fn encode_v2(&self, data_blocks: &[u64]) -> Bytes {
        let mut bodies: Vec<(SectionKind, Bytes)> = Vec::with_capacity(7);

        let mut config = BytesMut::with_capacity(24);
        config.put_u64_le(self.config.total_bins as u64);
        config.put_u64_le(self.config.layers as u64);
        config.put_slice(&self.config.common_fraction.to_le_bytes());
        bodies.push((SectionKind::Config, config.freeze()));

        let mut seeds = BytesMut::with_capacity(self.seeds.len() * 16);
        for s in &self.seeds {
            seeds.put_u64_le(s.a);
            seeds.put_u64_le(s.b);
        }
        bodies.push((SectionKind::Seeds, seeds.freeze()));

        let mut strings = BytesMut::new();
        self.string_table.encode_into(&mut strings);
        bodies.push((SectionKind::Strings, strings.freeze()));

        let entries: usize = self.pointers.iter().map(|l| l.len()).sum();
        let mut pointers =
            BytesMut::with_capacity(8 + 8 * self.pointers.len() + V2_POINTER_ENTRY * entries);
        pointers.put_u64_le(self.pointers.len() as u64);
        for layer in &self.pointers {
            pointers.put_u64_le(layer.len() as u64);
        }
        for layer in &self.pointers {
            for p in layer {
                pointers.put_u32_le(p.block);
                pointers.put_u32_le(p.len);
                pointers.put_u64_le(p.offset);
            }
        }
        bodies.push((SectionKind::Pointers, pointers.freeze()));

        let mut common = BytesMut::new();
        put_varint(&mut common, self.common.len() as u64);
        for (word, ptr) in &self.common {
            put_string(&mut common, word);
            ptr.encode_into(&mut common);
        }
        bodies.push((SectionKind::Common, common.freeze()));

        let mut blocks = BytesMut::with_capacity(8 + 8 * data_blocks.len());
        blocks.put_u64_le(data_blocks.len() as u64);
        for &size in data_blocks {
            blocks.put_u64_le(size);
        }
        bodies.push((SectionKind::Blocks, blocks.freeze()));

        let mut meta = BytesMut::new();
        put_varint(&mut meta, self.meta.len() as u64);
        for (k, v) in &self.meta {
            put_string(&mut meta, k);
            put_string(&mut meta, v);
        }
        bodies.push((SectionKind::Meta, meta.freeze()));

        if let Some(v) = &self.vocab {
            let mut vocab = BytesMut::new();
            v.encode_into(&mut vocab);
            bodies.push((SectionKind::Vocab, vocab.freeze()));
        }

        let table_bytes = V2_TABLE_ENTRY * bodies.len();
        let mut offset = V2_PREAMBLE + table_bytes; // already 8-aligned
        let mut placed: Vec<(SectionKind, usize, usize)> = Vec::with_capacity(bodies.len());
        for (kind, body) in &bodies {
            placed.push((*kind, offset, body.len()));
            offset = align8(offset + body.len());
        }

        let mut buf = BytesMut::with_capacity(offset);
        buf.put_slice(MAGIC);
        put_varint(&mut buf, VERSION_V2);
        buf.put_slice(&[0u8; 3]);
        buf.put_u32_le(bodies.len() as u32);
        buf.put_u32_le(0);
        for (kind, off, len) in &placed {
            buf.put_u32_le(kind.to_u32());
            // All header sections are Index class; the Data class lives in
            // the external blocks the BLOCKS section describes.
            buf.put_u32_le(0);
            buf.put_u64_le(*off as u64);
            buf.put_u64_le(*len as u64);
        }
        for ((_, body), (_, off, _)) in bodies.iter().zip(&placed) {
            while buf.len() < *off {
                buf.put_u8(0);
            }
            buf.put_slice(body);
        }
        buf.freeze()
    }

    /// Like [`HeaderBlock::decode_any`], but borrowing the caller's
    /// [`Bytes`] so a v2 header is decoded without copying the blob.
    pub fn decode_any_bytes(data: &Bytes) -> Result<(Self, SegmentFormat)> {
        match peek_version(data)? {
            VERSION => Self::decode_v1(data).map(|h| (h, SegmentFormat::v1())),
            VERSION_V2 => {
                let view = HeaderView::parse(data.clone())?;
                let format = SegmentFormat {
                    version: 2,
                    directory: Some(view.directory().clone()),
                };
                Ok((view.to_header_block()?, format))
            }
            other => Err(SketchError::Corrupt {
                detail: format!("unsupported header version {other}"),
            }),
        }
    }
}

/// A validated, zero-copy view of a v2 header blob. Parsing checks the
/// section table and fixed-width sections once; afterwards bin pointers and
/// seeds are read in place from the borrowed [`Bytes`] with no allocation.
#[derive(Debug, Clone)]
pub struct HeaderView {
    data: Bytes,
    directory: LayerDirectory,
    config: SketchConfig,
    seeds_offset: usize,
    layer_counts: Vec<usize>,
    layer_starts: Vec<usize>,
    strings: (usize, usize),
    common: (usize, usize),
    meta: (usize, usize),
    vocab: Option<(usize, usize)>,
}

impl HeaderView {
    /// Validate a v2 header blob and build the view.
    pub fn parse(data: Bytes) -> Result<Self> {
        let corrupt = |detail: String| SketchError::Corrupt { detail };
        let mut cur = Cursor::new(&data);
        let magic = cur.bytes(4)?;
        if magic != MAGIC {
            return Err(corrupt("bad magic".into()));
        }
        let version = cur.varint()?;
        if version != VERSION_V2 {
            return Err(corrupt(format!("unsupported header version {version}")));
        }
        if cur.position() != 5 {
            return Err(corrupt("overlong version varint".into()));
        }
        cur.bytes(3)?; // padding
        let section_count = cur.u32_le()? as usize;
        let _reserved = cur.u32_le()?;
        if section_count > data.len() / V2_TABLE_ENTRY {
            return Err(corrupt(format!(
                "section count {section_count} exceeds blob size"
            )));
        }
        let mut sections = Vec::with_capacity(section_count);
        let mut max_end = V2_PREAMBLE + V2_TABLE_ENTRY * section_count;
        for _ in 0..section_count {
            let kind_raw = cur.u32_le()?;
            let class_raw = cur.u32_le()?;
            let offset = cur.u64_le()?;
            let len = cur.u64_le()?;
            let kind = SectionKind::from_u32(kind_raw)
                .ok_or_else(|| corrupt(format!("unknown section kind {kind_raw}")))?;
            let class = match class_raw {
                0 => ByteClass::Index,
                1 => ByteClass::Data,
                other => return Err(corrupt(format!("unknown byte class {other}"))),
            };
            let end = offset
                .checked_add(len)
                .filter(|&e| e <= data.len() as u64)
                .ok_or_else(|| corrupt("section range out of bounds".into()))?;
            if offset % 8 != 0 || (offset as usize) < V2_PREAMBLE + V2_TABLE_ENTRY * section_count {
                return Err(corrupt("misaligned section offset".into()));
            }
            max_end = max_end.max(end as usize);
            sections.push(SectionInfo {
                kind,
                class,
                offset,
                len,
            });
        }
        if max_end != data.len() {
            return Err(corrupt(format!(
                "{} trailing bytes after header sections",
                data.len() - max_end
            )));
        }

        let find_optional = |kind: SectionKind| -> Result<Option<(usize, usize)>> {
            let mut found = None;
            for s in &sections {
                if s.kind == kind {
                    if found.is_some() {
                        return Err(SketchError::Corrupt {
                            detail: format!("duplicate {} section", kind.name()),
                        });
                    }
                    found = Some((s.offset as usize, s.len as usize));
                }
            }
            Ok(found)
        };
        let find = |kind: SectionKind| -> Result<(usize, usize)> {
            find_optional(kind)?.ok_or_else(|| SketchError::Corrupt {
                detail: format!("missing {} section", kind.name()),
            })
        };

        let (config_off, config_len) = find(SectionKind::Config)?;
        if config_len != 24 {
            return Err(corrupt(format!("config section has {config_len} bytes")));
        }
        let mut ccur = Cursor::new(&data[config_off..config_off + config_len]);
        let total_bins = ccur.u64_le()? as usize;
        let layers = ccur.u64_le()? as usize;
        let common_fraction = ccur.f64()?;
        let config = SketchConfig {
            total_bins,
            layers,
            common_fraction,
        };

        let (seeds_offset, seeds_len) = find(SectionKind::Seeds)?;
        if Some(seeds_len) != 16usize.checked_mul(layers) {
            return Err(corrupt(format!(
                "{seeds_len} seed bytes for {layers} layers"
            )));
        }

        let (ptr_off, ptr_len) = find(SectionKind::Pointers)?;
        let mut pcur = Cursor::new(&data[ptr_off..ptr_off + ptr_len]);
        let n_layers = pcur.u64_le()? as usize;
        if n_layers != layers {
            return Err(corrupt(format!(
                "{n_layers} pointer layers for {layers} layers"
            )));
        }
        if ptr_len < 8 + 8 * n_layers {
            return Err(corrupt("pointer section truncated".into()));
        }
        let mut layer_counts = Vec::with_capacity(n_layers);
        let mut total_entries = 0usize;
        for _ in 0..n_layers {
            let n = pcur.u64_le()? as usize;
            total_entries = total_entries
                .checked_add(n)
                .ok_or_else(|| corrupt("pointer count overflow".into()))?;
            layer_counts.push(n);
        }
        let expect = 8
            + 8 * n_layers
            + total_entries
                .checked_mul(V2_POINTER_ENTRY)
                .ok_or_else(|| corrupt("pointer count overflow".into()))?;
        if expect != ptr_len {
            return Err(corrupt(format!(
                "pointer section is {ptr_len} bytes, expected {expect}"
            )));
        }
        let mut layer_starts = Vec::with_capacity(n_layers);
        let mut start = ptr_off + 8 + 8 * n_layers;
        for &n in &layer_counts {
            layer_starts.push(start);
            start += n * V2_POINTER_ENTRY;
        }

        let (blocks_off, blocks_len) = find(SectionKind::Blocks)?;
        let mut bcur = Cursor::new(&data[blocks_off..blocks_off + blocks_len]);
        let n_blocks = bcur.u64_le()? as usize;
        if Some(blocks_len) != 8usize.checked_mul(n_blocks).and_then(|b| b.checked_add(8)) {
            return Err(corrupt(format!(
                "blocks section is {blocks_len} bytes for {n_blocks} blocks"
            )));
        }
        let mut data_blocks = Vec::with_capacity(n_blocks);
        for _ in 0..n_blocks {
            data_blocks.push(bcur.u64_le()?);
        }

        let strings = find(SectionKind::Strings)?;
        let common = find(SectionKind::Common)?;
        let meta = find(SectionKind::Meta)?;
        let vocab = find_optional(SectionKind::Vocab)?;

        Ok(HeaderView {
            directory: LayerDirectory {
                sections,
                data_blocks,
            },
            config,
            seeds_offset,
            layer_counts,
            layer_starts,
            strings,
            common,
            meta,
            vocab,
            data,
        })
    }

    /// The layer directory (classified byte ranges).
    pub fn directory(&self) -> &LayerDirectory {
        &self.directory
    }

    /// Sketch structure.
    pub fn config(&self) -> SketchConfig {
        self.config.clone()
    }

    /// Number of layers.
    pub fn n_layers(&self) -> usize {
        self.layer_counts.len()
    }

    /// Number of bins in `layer`.
    pub fn bins_in_layer(&self, layer: usize) -> usize {
        self.layer_counts.get(layer).copied().unwrap_or(0)
    }

    /// Read the hash seed of `layer` in place.
    pub fn seed(&self, layer: usize) -> Option<LayerSeed> {
        if layer >= self.layer_counts.len() {
            return None;
        }
        let off = self.seeds_offset + 16 * layer;
        let a = u64::from_le_bytes(self.data[off..off + 8].try_into().unwrap());
        let b = u64::from_le_bytes(self.data[off + 8..off + 16].try_into().unwrap());
        Some(LayerSeed { a, b })
    }

    /// Read bin pointer `(layer, bin)` in place — no decode, no allocation.
    pub fn pointer(&self, layer: usize, bin: usize) -> Option<BinPointer> {
        if bin >= *self.layer_counts.get(layer)? {
            return None;
        }
        let off = self.layer_starts[layer] + bin * V2_POINTER_ENTRY;
        let block = u32::from_le_bytes(self.data[off..off + 4].try_into().unwrap());
        let len = u32::from_le_bytes(self.data[off + 4..off + 8].try_into().unwrap());
        let offset = u64::from_le_bytes(self.data[off + 8..off + 16].try_into().unwrap());
        Some(BinPointer { block, offset, len })
    }

    /// Materialize the full [`HeaderBlock`] (variable-width sections are
    /// decoded here; fixed-width sections were validated by `parse`).
    pub fn to_header_block(&self) -> Result<HeaderBlock> {
        let section = |&(off, len): &(usize, usize)| &self.data[off..off + len];

        let mut scur = Cursor::new(section(&self.strings));
        let string_table = StringTable::decode_from(&mut scur)?;
        if !scur.is_exhausted() {
            return Err(SketchError::Corrupt {
                detail: format!("{} trailing bytes after strings", scur.remaining()),
            });
        }

        let mut seeds = Vec::with_capacity(self.n_layers());
        let mut pointers = Vec::with_capacity(self.n_layers());
        for layer in 0..self.n_layers() {
            seeds.push(self.seed(layer).expect("validated layer"));
            let mut bins = Vec::with_capacity(self.layer_counts[layer]);
            for bin in 0..self.layer_counts[layer] {
                bins.push(self.pointer(layer, bin).expect("validated bin"));
            }
            pointers.push(bins);
        }

        let mut ccur = Cursor::new(section(&self.common));
        let n_common = ccur.varint()? as usize;
        if n_common > ccur.remaining() / 4 {
            return Err(SketchError::Corrupt {
                detail: format!("common-word count {n_common} exceeds remaining bytes"),
            });
        }
        let mut common = Vec::with_capacity(n_common);
        for _ in 0..n_common {
            let word = ccur.string()?;
            let ptr = BinPointer::decode_from(&mut ccur)?;
            common.push((word, ptr));
        }
        if !ccur.is_exhausted() {
            return Err(SketchError::Corrupt {
                detail: format!("{} trailing bytes after common words", ccur.remaining()),
            });
        }

        let mut mcur = Cursor::new(section(&self.meta));
        let n_meta = mcur.varint()? as usize;
        if n_meta > mcur.remaining() / 2 {
            return Err(SketchError::Corrupt {
                detail: format!("meta count {n_meta} exceeds remaining bytes"),
            });
        }
        let mut meta = Vec::with_capacity(n_meta);
        for _ in 0..n_meta {
            let k = mcur.string()?;
            let v = mcur.string()?;
            meta.push((k, v));
        }
        if !mcur.is_exhausted() {
            return Err(SketchError::Corrupt {
                detail: format!("{} trailing bytes after meta", mcur.remaining()),
            });
        }

        let vocab = match &self.vocab {
            Some(range) => {
                let mut vcur = Cursor::new(section(range));
                let v = crate::vocab::Vocabulary::decode_from(&mut vcur)?;
                if !vcur.is_exhausted() {
                    return Err(SketchError::Corrupt {
                        detail: format!("{} trailing bytes after vocab", vcur.remaining()),
                    });
                }
                Some(v)
            }
            None => None,
        };

        Ok(HeaderBlock {
            config: self.config.clone(),
            seeds,
            string_table,
            pointers,
            common,
            meta,
            vocab,
        })
    }
}

// ---------------------------------------------------------------------------
// Zero-copy superpost views
// ---------------------------------------------------------------------------

/// A validated, zero-copy view over one serialized superpost. `parse`
/// walks the payload once — bounds, overflow, and strict sorted order are
/// all checked up front — so iteration afterwards is infallible and
/// allocation-free: postings are decoded lazily straight out of the
/// borrowed [`Bytes`].
#[derive(Debug, Clone)]
pub struct SuperpostView {
    data: Bytes,
    count: usize,
    payload_start: usize,
}

impl SuperpostView {
    /// Validate `data` (exactly one encoded superpost) and build the view.
    pub fn parse(data: Bytes) -> Result<Self> {
        let mut cur = Cursor::new(&data);
        let count = cur.varint()? as usize;
        check_superpost_count(count, cur.remaining())?;
        let payload_start = cur.position();
        let mut prev = (0u32, 0u64);
        let mut prev_posting: Option<Posting> = None;
        for _ in 0..count {
            let p = read_posting(&mut cur, prev)?;
            if let Some(pp) = prev_posting {
                if p <= pp {
                    return Err(SketchError::Corrupt {
                        detail: "postings out of order".into(),
                    });
                }
            }
            prev = (p.blob, p.offset);
            prev_posting = Some(p);
        }
        if !cur.is_exhausted() {
            return Err(SketchError::Corrupt {
                detail: format!("{} trailing bytes after superpost", cur.remaining()),
            });
        }
        Ok(SuperpostView {
            data,
            count,
            payload_start,
        })
    }

    /// Number of postings.
    pub fn len(&self) -> usize {
        self.count
    }

    /// Whether the superpost is empty.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Lazily iterate the postings, decoding in place.
    pub fn iter(&self) -> SuperpostIter<'_> {
        SuperpostIter {
            cur: Cursor::new(&self.data[self.payload_start..]),
            left: self.count,
            prev: (0, 0),
        }
    }

    /// Materialize the full [`PostingsList`] (one allocation).
    pub fn to_postings_list(&self) -> PostingsList {
        let mut postings = Vec::with_capacity(self.count);
        postings.extend(self.iter());
        PostingsList::from_sorted_unique(postings)
    }
}

impl<'a> IntoIterator for &'a SuperpostView {
    type Item = Posting;
    type IntoIter = SuperpostIter<'a>;
    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// Lazy posting iterator over a validated [`SuperpostView`].
#[derive(Debug)]
pub struct SuperpostIter<'a> {
    cur: Cursor<'a>,
    left: usize,
    prev: (u32, u64),
}

impl Iterator for SuperpostIter<'_> {
    type Item = Posting;

    fn next(&mut self) -> Option<Posting> {
        if self.left == 0 {
            return None;
        }
        self.left -= 1;
        // The view was fully validated at parse time, so decoding cannot
        // fail here; `.ok()` keeps even a misuse panic-free.
        let p = read_posting(&mut self.cur, self.prev).ok()?;
        self.prev = (p.blob, p.offset);
        Some(p)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }
}

impl ExactSizeIterator for SuperpostIter<'_> {}

/// K-way streaming intersection over superpost views: the `query(word)`
/// aggregation without materializing any input list. Only the result is
/// allocated — each input is decoded lazily, in lockstep, straight from its
/// fetched bytes.
pub fn intersect_views(views: &[&SuperpostView]) -> PostingsList {
    match views.len() {
        0 => PostingsList::new(),
        1 => views[0].to_postings_list(),
        _ => {
            let mut iters: Vec<SuperpostIter<'_>> = views.iter().map(|v| v.iter()).collect();
            let mut heads: Vec<Option<Posting>> = iters.iter_mut().map(|it| it.next()).collect();
            // Grow on demand: intersections are usually far smaller than
            // the smallest input, and reserving input-sized capacity
            // would reintroduce an input-proportional allocation.
            let mut out = Vec::new();
            'outer: while let Some(first) = heads[0] {
                let mut max = first;
                for h in &heads[1..] {
                    match *h {
                        None => break 'outer,
                        Some(p) => {
                            if p > max {
                                max = p;
                            }
                        }
                    }
                }
                let mut all_equal = true;
                for (head, it) in heads.iter_mut().zip(iters.iter_mut()) {
                    while matches!(head, Some(p) if *p < max) {
                        *head = it.next();
                    }
                    match head {
                        None => break 'outer,
                        Some(p) if *p == max => {}
                        _ => all_equal = false,
                    }
                }
                if all_equal {
                    out.push(max);
                    for (head, it) in heads.iter_mut().zip(iters.iter_mut()) {
                        *head = it.next();
                    }
                }
            }
            PostingsList::from_sorted_unique(out)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varint_roundtrip_edge_values() {
        for v in [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX] {
            let mut buf = BytesMut::new();
            put_varint(&mut buf, v);
            let mut cur = Cursor::new(&buf);
            assert_eq!(cur.varint().unwrap(), v);
            assert!(cur.is_exhausted());
        }
    }

    #[test]
    fn varint_truncated_errors() {
        let mut buf = BytesMut::new();
        put_varint(&mut buf, 1_000_000);
        let mut cur = Cursor::new(&buf[..1]);
        assert!(cur.varint().is_err());
    }

    #[test]
    fn varint_overlong_errors() {
        let overlong = [0x80u8; 11];
        let mut cur = Cursor::new(&overlong);
        assert!(cur.varint().is_err());
    }

    #[test]
    fn string_roundtrip() {
        let mut buf = BytesMut::new();
        put_string(&mut buf, "héllo wörld");
        let mut cur = Cursor::new(&buf);
        assert_eq!(cur.string().unwrap(), "héllo wörld");
    }

    #[test]
    fn string_invalid_utf8_errors() {
        let mut buf = BytesMut::new();
        put_varint(&mut buf, 2);
        buf.put_slice(&[0xff, 0xfe]);
        let mut cur = Cursor::new(&buf);
        assert!(cur.string().is_err());
    }

    #[test]
    fn string_table_interning() {
        let mut t = StringTable::new();
        let a = t.intern("logs/part-0");
        let b = t.intern("logs/part-1");
        let a2 = t.intern("logs/part-0");
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(t.name(a), Some("logs/part-0"));
        assert_eq!(t.id_of("logs/part-1"), Some(b));
        assert_eq!(t.name(99), None);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn superpost_roundtrip_multi_blob() {
        let list = PostingsList::from_postings(vec![
            Posting::new(0, 0, 120),
            Posting::new(0, 120, 80),
            Posting::new(0, 200, 4_000),
            Posting::new(2, 64, 128),
            Posting::new(2, 1 << 40, 17),
        ]);
        let enc = encode_superpost(&list);
        let dec = decode_superpost(&enc).unwrap();
        assert_eq!(dec, list);
    }

    #[test]
    fn superpost_empty_roundtrip() {
        let enc = encode_superpost(&PostingsList::new());
        assert_eq!(enc.len(), 1); // just the zero count
        assert_eq!(decode_superpost(&enc).unwrap(), PostingsList::new());
    }

    #[test]
    fn superpost_delta_encoding_is_compact() {
        // Consecutive documents in one blob should cost ~3 bytes each, far
        // below the 13+ bytes of a raw (u32, u64, u32) encoding.
        let postings: Vec<Posting> = (0..1_000).map(|i| Posting::new(0, i * 100, 100)).collect();
        let list = PostingsList::from_sorted_unique(postings);
        let enc = encode_superpost(&list);
        assert!(
            enc.len() < 1_000 * 5,
            "encoding too large: {} bytes for 1000 postings",
            enc.len()
        );
    }

    #[test]
    fn superpost_trailing_garbage_errors() {
        let list = PostingsList::from_doc_ids(&[1, 2, 3]);
        let mut enc = BytesMut::from(&encode_superpost(&list)[..]);
        enc.put_u8(0x00);
        assert!(decode_superpost(&enc).is_err());
    }

    #[test]
    fn superpost_truncated_errors() {
        let list = PostingsList::from_doc_ids(&[1, 2, 3]);
        let enc = encode_superpost(&list);
        assert!(decode_superpost(&enc[..enc.len() - 1]).is_err());
    }

    fn sample_header() -> HeaderBlock {
        let mut st = StringTable::new();
        st.intern("corpus/blob-0");
        st.intern("corpus/blob-1");
        HeaderBlock {
            config: SketchConfig {
                total_bins: 100,
                layers: 2,
                common_fraction: 0.01,
            },
            seeds: vec![LayerSeed { a: 7, b: 13 }, LayerSeed { a: 99, b: 0 }],
            string_table: st,
            pointers: vec![
                (0..49).map(|i| BinPointer::new(0, i * 10, 10)).collect(),
                (0..49).map(|i| BinPointer::new(1, i * 20, 20)).collect(),
            ],
            common: vec![("the".into(), BinPointer::new(0, 490, 1_000))],
            meta: vec![
                ("f0".into(), "1.0".into()),
                ("corpus".into(), "test".into()),
            ],
            vocab: None,
        }
    }

    fn sample_vocab() -> crate::vocab::Vocabulary {
        crate::vocab::Vocabulary::build(vec![
            "alpha".into(),
            "beta".into(),
            "gamma".into(),
            "the".into(),
        ])
        .unwrap()
    }

    #[test]
    fn header_roundtrip() {
        let h = sample_header();
        let enc = h.encode();
        let dec = HeaderBlock::decode(&enc).unwrap();
        assert_eq!(dec, h);
    }

    #[test]
    fn header_bad_magic_errors() {
        let h = sample_header();
        let mut enc = h.encode().to_vec();
        enc[0] = b'X';
        assert!(matches!(
            HeaderBlock::decode(&enc),
            Err(SketchError::Corrupt { .. })
        ));
    }

    #[test]
    fn header_truncation_errors() {
        let enc = sample_header().encode();
        for cut in [3, 10, enc.len() / 2, enc.len() - 1] {
            assert!(
                HeaderBlock::decode(&enc[..cut]).is_err(),
                "cut at {cut} should fail"
            );
        }
    }

    #[test]
    fn header_seed_layer_mismatch_errors() {
        let mut h = sample_header();
        h.seeds.pop();
        let enc = h.encode();
        assert!(HeaderBlock::decode(&enc).is_err());
    }

    #[test]
    fn header_size_is_small_for_paper_config() {
        // §V-A0c: B = 1e5 bins → "runtime size about 2 MB". Each pointer
        // costs ≲ 12 varint bytes; the full header must stay in the
        // low-megabyte range.
        let pointers: Vec<Vec<BinPointer>> = vec![(0..99_000u64)
            .map(|i| BinPointer::new(0, i * 50, 50))
            .collect()];
        let h = HeaderBlock {
            config: SketchConfig {
                total_bins: 100_000,
                layers: 1,
                common_fraction: 0.01,
            },
            seeds: vec![LayerSeed { a: 1, b: 2 }],
            string_table: StringTable::new(),
            pointers,
            common: Vec::new(),
            meta: Vec::new(),
            vocab: None,
        };
        let enc = h.encode();
        assert!(
            enc.len() < 2 * 1024 * 1024,
            "header is {} bytes, expected < 2MB",
            enc.len()
        );
    }

    // -- format v2 ----------------------------------------------------------

    #[test]
    fn v2_header_roundtrip() {
        let h = sample_header();
        let enc = h.encode_v2(&[1024, 2048]);
        let (dec, format) = HeaderBlock::decode_any(&enc).unwrap();
        assert_eq!(dec, h);
        assert_eq!(format.version, 2);
        let dir = format.directory.unwrap();
        assert_eq!(dir.data_blocks, vec![1024, 2048]);
        assert_eq!(dir.data_bytes(), 3072);
        assert!(dir.index_bytes() > 0);
        assert!(dir
            .sections
            .iter()
            .all(|s| s.class == ByteClass::Index && s.offset % 8 == 0));
    }

    #[test]
    fn v2_decode_through_plain_decode() {
        let h = sample_header();
        let enc = h.encode_v2(&[]);
        assert_eq!(HeaderBlock::decode(&enc).unwrap(), h);
    }

    #[test]
    fn v2_vocab_section_roundtrips() {
        let mut h = sample_header();
        h.vocab = Some(sample_vocab());
        let enc = h.encode_v2(&[512]);
        let (dec, format) = HeaderBlock::decode_any(&enc).unwrap();
        assert_eq!(dec, h);
        let dir = format.directory.unwrap();
        let vocab_section = dir
            .sections
            .iter()
            .find(|s| s.kind == SectionKind::Vocab)
            .expect("vocab section listed in directory");
        assert_eq!(
            vocab_section.class,
            ByteClass::Index,
            "vocab is pinned with the index tier"
        );
        let (_, bare) = HeaderBlock::decode_any(&sample_header().encode_v2(&[512])).unwrap();
        assert!(
            dir.index_bytes() > bare.directory.unwrap().index_bytes(),
            "the vocab section adds Index-class bytes"
        );
    }

    #[test]
    fn v1_encode_drops_vocab() {
        let mut h = sample_header();
        h.vocab = Some(sample_vocab());
        let dec = HeaderBlock::decode(&h.encode()).unwrap();
        assert_eq!(dec.vocab, None, "v1 wire format has no vocab section");
        h.vocab = None;
        assert_eq!(dec, h);
    }

    #[test]
    fn vocab_less_v2_still_decodes() {
        // Segments written before prefix/fuzzy support simply lack the
        // section — decoding must keep working, with `vocab: None`.
        let h = sample_header();
        let (dec, _) = HeaderBlock::decode_any(&h.encode_v2(&[64])).unwrap();
        assert_eq!(dec.vocab, None);
    }

    #[test]
    fn v1_decode_any_reports_version_1() {
        let h = sample_header();
        let (dec, format) = HeaderBlock::decode_any(&h.encode()).unwrap();
        assert_eq!(dec, h);
        assert_eq!(format.version, 1);
        assert!(format.directory.is_none());
    }

    #[test]
    fn peek_version_distinguishes_formats() {
        let h = sample_header();
        assert_eq!(peek_version(&h.encode()).unwrap(), 1);
        assert_eq!(peek_version(&h.encode_v2(&[])).unwrap(), 2);
        assert!(peek_version(b"XIRP").is_err());
    }

    #[test]
    fn v2_header_view_reads_pointers_in_place() {
        let h = sample_header();
        let enc = h.encode_v2(&[512]);
        let view = HeaderView::parse(enc).unwrap();
        assert_eq!(view.n_layers(), 2);
        assert_eq!(view.bins_in_layer(0), 49);
        assert_eq!(view.bins_in_layer(1), 49);
        for layer in 0..2 {
            for bin in 0..49 {
                assert_eq!(view.pointer(layer, bin), Some(h.pointers[layer][bin]));
            }
            assert_eq!(view.seed(layer), Some(h.seeds[layer]));
        }
        assert_eq!(view.pointer(0, 49), None);
        assert_eq!(view.pointer(2, 0), None);
        assert_eq!(view.config(), h.config);
    }

    #[test]
    fn v2_truncation_errors_at_every_cut() {
        let enc = sample_header().encode_v2(&[100, 200]);
        for cut in 0..enc.len() {
            assert!(
                HeaderBlock::decode(&enc[..cut]).is_err(),
                "cut at {cut} should fail"
            );
        }
    }

    #[test]
    fn unsupported_version_errors() {
        let mut buf = BytesMut::new();
        buf.put_slice(MAGIC);
        put_varint(&mut buf, 9);
        let err = HeaderBlock::decode(&buf).unwrap_err();
        assert!(err.to_string().contains("unsupported header version 9"));
    }

    #[test]
    fn format_version_parsing() {
        use std::str::FromStr;
        assert_eq!(FormatVersion::from_str("v1").unwrap(), FormatVersion::V1);
        assert_eq!(FormatVersion::from_str("2").unwrap(), FormatVersion::V2);
        assert!(FormatVersion::from_str("v3").is_err());
        assert_eq!(FormatVersion::default(), FormatVersion::V2);
        assert_eq!(FormatVersion::V2.to_string(), "v2");
    }

    // -- superpost views ----------------------------------------------------

    fn sample_list() -> PostingsList {
        PostingsList::from_postings(vec![
            Posting::new(0, 0, 120),
            Posting::new(0, 120, 80),
            Posting::new(0, 200, 4_000),
            Posting::new(2, 64, 128),
            Posting::new(2, 1 << 40, 17),
        ])
    }

    #[test]
    fn superpost_view_matches_eager_decode() {
        let list = sample_list();
        let enc = encode_superpost(&list);
        let view = SuperpostView::parse(enc.clone()).unwrap();
        assert_eq!(view.len(), list.len());
        let lazy: Vec<Posting> = view.iter().collect();
        assert_eq!(lazy, list.as_slice());
        assert_eq!(view.to_postings_list(), list);
        assert_eq!(decode_superpost(&enc).unwrap(), list);
    }

    #[test]
    fn superpost_view_rejects_what_decode_rejects() {
        let list = sample_list();
        let enc = encode_superpost(&list);
        for cut in 0..enc.len() {
            let truncated = enc.slice(0..cut);
            assert_eq!(
                SuperpostView::parse(truncated.clone()).is_err(),
                decode_superpost(&truncated).is_err(),
                "view/decode disagree at cut {cut}"
            );
        }
    }

    #[test]
    fn superpost_view_rejects_unsorted() {
        // Same blob, zero offset delta, same len → duplicate posting, which
        // a valid encoder can never emit.
        let mut dup = BytesMut::new();
        put_varint(&mut dup, 2);
        put_varint(&mut dup, 1);
        put_varint(&mut dup, 5);
        put_varint(&mut dup, 1);
        put_varint(&mut dup, 0); // same blob
        put_varint(&mut dup, 0); // same offset
        put_varint(&mut dup, 1); // same len → duplicate posting
        assert!(SuperpostView::parse(dup.clone().freeze()).is_err());
        assert!(decode_superpost(&dup).is_err());
    }

    #[test]
    fn superpost_count_larger_than_payload_errors() {
        let mut buf = BytesMut::new();
        put_varint(&mut buf, u32::MAX as u64); // absurd count, no payload
        assert!(decode_superpost(&buf).is_err());
        assert!(SuperpostView::parse(buf.freeze()).is_err());
    }

    #[test]
    fn intersect_views_matches_intersect_all() {
        let a = PostingsList::from_doc_ids(&[1, 2, 3, 4, 5, 6, 7, 8]);
        let b = PostingsList::from_doc_ids(&[2, 4, 6, 8, 10]);
        let c = PostingsList::from_doc_ids(&[4, 8, 12]);
        let views: Vec<SuperpostView> = [&a, &b, &c]
            .iter()
            .map(|l| SuperpostView::parse(encode_superpost(l)).unwrap())
            .collect();
        let refs: Vec<&SuperpostView> = views.iter().collect();
        assert_eq!(
            intersect_views(&refs),
            PostingsList::intersect_all(&[&a, &b, &c])
        );
        assert_eq!(intersect_views(&refs[..1]), a);
        assert_eq!(intersect_views(&[]), PostingsList::new());
    }

    #[test]
    fn intersect_views_disjoint_and_empty() {
        let a = PostingsList::from_doc_ids(&[1, 3, 5]);
        let b = PostingsList::from_doc_ids(&[2, 4, 6]);
        let empty = PostingsList::new();
        let va = SuperpostView::parse(encode_superpost(&a)).unwrap();
        let vb = SuperpostView::parse(encode_superpost(&b)).unwrap();
        let ve = SuperpostView::parse(encode_superpost(&empty)).unwrap();
        assert!(intersect_views(&[&va, &vb]).is_empty());
        assert!(intersect_views(&[&va, &ve]).is_empty());
        assert!(ve.is_empty());
    }

    #[test]
    fn cursor_str_ref_borrows() {
        let mut buf = BytesMut::new();
        put_string(&mut buf, "borrowed");
        let mut cur = Cursor::new(&buf);
        let s: &str = cur.str_ref().unwrap();
        assert_eq!(s, "borrowed");
        assert!(cur.is_exhausted());
    }
}

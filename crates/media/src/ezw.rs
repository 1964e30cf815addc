//! Embedded zerotree wavelet (EZW) coding, after Shapiro (the paper's
//! reference \[23\]).
//!
//! The encoder emits bit-planes most-significant first. Each plane has
//! a **dominant pass** — coefficients not yet significant are coded
//! with a context-dependent prefix-free alphabet (zerotree root /
//! isolated zero / significant-positive / significant-negative) — and a
//! **subordinate pass** refining the magnitudes of previously
//! significant coefficients by one bit. The result is a fully
//! *embedded* stream: decoding any prefix yields a coarser but complete
//! reconstruction, which is exactly the property the paper's image
//! viewer exploits when the inference engine limits it to 1–16 packets.
//!
//! The zerotree structure uses Shapiro's parent–child relation on the
//! Mallat quadrant layout: each coarsest-LL coefficient parents the
//! co-located HL/LH/HH coefficients, and every detail coefficient
//! parents the 2×2 block at the next finer level.
//!
//! ## Fast path
//!
//! The wire format is pinned bit-identical to the pre-refactor coder
//! (`crate::reference`, differential suite in `tests/media_codec.rs`),
//! but neither side re-scans the full subband order and branch-skips
//! the already-significant majority every bit-plane:
//!
//! * **one walk codes and reads every dominant symbol.** The live set
//!   is a bitmap over *scan rank* — set while a coefficient is coded
//!   and not yet significant — and a dominant pass is a
//!   `trailing_zeros` walk over its set bits, the same code in both
//!   directions: the encoder writes the symbol of each rank it visits
//!   and the decoder reads it, and neither does anything else. A
//!   parent's first non-zerotree symbol sets its children's bits;
//!   since parents precede children in scan order the same walk meets
//!   them later in the pass, in order, with no list to sort, merge or
//!   copy. The walk takes each 64-rank word's ranks once, so the next
//!   rank never waits on the symbol being coded,
//! * the encoder reads the plane in scan order, one packed word per
//!   rank (magnitude, sign, subtree maximum), copied band row by band
//!   row once a plane; significant coefficients go, in significance
//!   order, into one list that the subordinate pass refines
//!   sequentially — on the decoder's side too, which scatters them into
//!   the plane once, at the end,
//! * [`BitWriter`]/[`BitReader`] move whole symbols through a 64-bit
//!   accumulator (`push_bits`, `peek`/`consume`) instead of one
//!   bounds-checked byte poke per bit,
//! * all per-plane state (lists, bitmaps, the rank-space geometry)
//!   lives in a caller-owned [`EzwScratch`], so a session
//!   encoding a stream of planes allocates nothing after warm-up; one
//!   [`CodecScratch`] keeps it, with the wavelet buffers, the
//!   coefficient planes and the channel records, for both directions:
//!   behind [`encode_image_capped_with`], which also keeps its
//!   per-channel analyses and container there, and behind
//!   [`decode_image_reduced_with`].
//!
//! And every embedded bit is coded once and read once:
//!
//! * **The encoder stops at the cap.** A session that sends `k` bits
//!   per pixel wants the container [`truncate_container`] would cut of
//!   the full encode, without coding the rest. The cut splits the
//!   budget over the channels in proportion to their *full* lengths,
//!   so those must be known before a bit is written — and they are a
//!   sum of per-coefficient costs in which only *parents* need bit
//!   positions, their own and their subtree maximum's
//!   ([`EzwEncoder::measure_plane`]: one OR over the plane, one OR sweep
//!   up the tree and one pass over the parent quadrant, which leaves
//!   the subtree positions the emission reads, a byte per parent). So
//!   an encode is two halves with the split ([`channel_keeps`]) between
//!   them: size up every channel, then write each to its share
//!   ([`EzwEncoder::emit_plane`]), the passes stopping at the cap and
//!   the coefficients that would first be coded below it never
//!   visited. No cap is the same loop run to the end;
//!   [`encode_image_capped`] is byte for byte
//!   `truncate_container(encode_image_opts(..), cap)`.
//! * **A receiver reads the symbols of a stream once.** The viewers of
//!   one shared object hold prefixes of one stream, of 2, 4, 8 … of
//!   its packets — prefixes *of each other*. Reading a stream leaves a
//!   record (`PlaneRecord`: the significance list with every refined
//!   bit, the bit offset at which each entry's symbol ended, and where
//!   each plane's passes began) from which the coefficients of any
//!   prefix follow without reading a bit: the decoder is deterministic
//!   and strictly forward, so on a prefix it does what it did on the
//!   whole stream up to the cut and stops — the entries whose symbols
//!   end before the cut, their magnitudes masked below the plane the
//!   cut falls in. A [`CodecScratch`] keeps the record of the last
//!   stream read per channel, with the stream's bytes; a container
//!   whose channel streams are — compared byte for byte — prefixes of
//!   those is replayed, anything else is read and replaces the record.
//!   Reading *is* building the record and coefficients only ever come
//!   out of a record, so there is one decode path, and what a scratch
//!   decoded before changes the cost of a decode, never its result.
//!   Asked longest first (how a session's packets arrive) the four
//!   prefixes cost one reading; shortest first they cost four.
//! * **The encoder is a stream's first reader.** Writing a symbol
//!   records it as reading it would — the entry, where its symbol
//!   ends, where each plane's passes begin and end — and the record
//!   keeps the bytes written, so an encode through a [`CodecScratch`]
//!   leaves it holding what a decode of the whole container would
//!   have read: every view of a fresh share, the longest too, is a
//!   replay. The entries hold whole magnitudes (the subordinate pass
//!   refines from them); a replay keeps of each only the bits its
//!   prefix holds, so it gives what reading the prefix gives.
//!
//! Every size the decoder allocates comes from a plane header, which
//! is received bytes: headers are checked — against a fixed sample
//! cap, and against each other within a container — before anything
//! is sized from them. The encoder refuses what a header cannot say
//! (a dimension over 16 bits) or a decoder would refuse.

use crate::image::Image;
use crate::wavelet::{self, WaveletKind, WaveletScratch};
use crate::MediaError;

/// Per-plane stream magic.
pub(crate) const PLANE_MAGIC: &[u8; 4] = b"EZP1";
/// Image container magic.
pub(crate) const CONTAINER_MAGIC: &[u8; 4] = b"EZC1";
/// Sentinel for an all-zero plane (no bit data follows).
pub(crate) const EMPTY_PLANE: u8 = 0xFF;
/// Plane header size: magic + w + h + levels + top_plane.
pub const PLANE_HEADER_LEN: usize = 4 + 2 + 2 + 1 + 1;
/// Container header size: magic + channels + kind byte.
pub const CONTAINER_HEADER_LEN: usize = 4 + 1 + 1;

// ---------------------------------------------------------------- bits

/// MSB-first bit writer batching through a 64-bit accumulator.
#[derive(Debug, Default)]
pub struct BitWriter {
    bytes: Vec<u8>,
    /// Pending bits, right-aligned; `nacc < 64` between calls.
    acc: u64,
    nacc: u32,
    nbits: usize,
}

impl BitWriter {
    /// Empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append one bit.
    #[inline]
    pub fn push(&mut self, bit: bool) {
        self.push_bits(bit as u32, 1);
    }

    /// Append the low `n` bits of `pattern` (`n <= 32`), most
    /// significant first — `push_bits(0b110, 3)` is `push(true);
    /// push(true); push(false)`.
    #[inline]
    fn push_bits(&mut self, pattern: u32, n: u32) {
        debug_assert!(n <= 32);
        debug_assert!(n == 32 || pattern < (1u32 << n));
        let free = 64 - self.nacc;
        if n > free {
            // Top up the accumulator, flush it whole, keep the rest.
            let spill = n - free;
            self.acc = (self.acc << free) | (pattern >> spill) as u64;
            self.bytes.extend_from_slice(&self.acc.to_be_bytes());
            self.acc = pattern as u64 & ((1u64 << spill) - 1);
            self.nacc = spill;
        } else {
            self.acc = (self.acc << n) | pattern as u64;
            self.nacc += n;
            if self.nacc == 64 {
                self.bytes.extend_from_slice(&self.acc.to_be_bytes());
                self.acc = 0;
                self.nacc = 0;
            }
        }
        self.nbits += n as usize;
    }

    /// A writer that appends to `bytes` (whole bytes: a header, say);
    /// [`BitWriter::len_bits`] counts only what is pushed from here on.
    fn after(bytes: Vec<u8>) -> Self {
        BitWriter {
            bytes,
            ..Self::default()
        }
    }

    /// Total bits written.
    fn len_bits(&self) -> usize {
        self.nbits
    }

    /// Finish, returning the packed bytes (zero-padded to a byte
    /// boundary, exactly like the pre-refactor writer).
    pub fn into_bytes(mut self) -> Vec<u8> {
        let pad = (8 - self.nacc % 8) % 8;
        self.acc <<= pad;
        self.nacc += pad;
        while self.nacc >= 8 {
            self.nacc -= 8;
            self.bytes.push((self.acc >> self.nacc) as u8);
        }
        self.bytes
    }
}

/// MSB-first bit reader over a left-aligned 64-bit accumulator: the
/// next unread bit is bit 63, so a whole symbol is one shift away
/// ([`BitReader::peek`]) and is dropped with another
/// ([`BitReader::consume`]). [`BitReader::next`] is the one-bit wrapper.
#[derive(Debug)]
pub struct BitReader<'a> {
    bytes: &'a [u8],
    /// Next byte to load into the accumulator.
    byte_pos: usize,
    /// Unread bits, left-aligned. Whatever sits below the `nacc`
    /// counted bits is either zero or a copy of the stream bits that
    /// the next refill loads again, so refilling is a plain OR.
    acc: u64,
    /// Counted bits in `acc`, at most 63.
    nacc: u32,
}

impl<'a> BitReader<'a> {
    /// Read over `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        BitReader {
            bytes,
            byte_pos: 0,
            acc: 0,
            nacc: 0,
        }
    }

    /// Top up the accumulator: afterwards at least 56 bits are
    /// buffered, or every remaining bit of the data is.
    #[inline]
    fn refill(&mut self) {
        if let Some(chunk) = self.bytes.get(self.byte_pos..self.byte_pos + 8) {
            let word = u64::from_be_bytes(chunk.try_into().expect("8 bytes"));
            self.acc |= word >> self.nacc;
            // Count whole bytes only; the partial byte below them is
            // loaded again by the next refill.
            let take = (63 - self.nacc) >> 3;
            self.byte_pos += take as usize;
            self.nacc += take * 8;
        } else {
            while self.nacc < 56 && self.byte_pos < self.bytes.len() {
                self.acc |= (self.bytes[self.byte_pos] as u64) << (56 - self.nacc);
                self.byte_pos += 1;
                self.nacc += 8;
            }
        }
    }

    /// The next `n` bits (`1..=56`) right-aligned, without consuming
    /// them. Bits past the end of the data read as zero; compare `n`
    /// with [`BitReader::buffered`] to tell.
    #[inline]
    pub fn peek(&mut self, n: u32) -> u64 {
        debug_assert!((1..=56).contains(&n));
        if self.nacc < n {
            self.refill();
        }
        self.acc >> (64 - n)
    }

    /// Unread bits currently in the accumulator. After `peek(n)` this
    /// is below `n` only when the data ends inside those `n` bits.
    #[inline]
    pub fn buffered(&self) -> u32 {
        self.nacc
    }

    /// Drop `n <= buffered()` bits.
    #[inline]
    pub fn consume(&mut self, n: u32) {
        debug_assert!(n <= self.nacc);
        self.acc <<= n;
        self.nacc -= n;
    }

    /// Bits consumed so far.
    #[inline]
    fn position(&self) -> u64 {
        self.byte_pos as u64 * 8 - self.nacc as u64
    }

    /// Next bit, or `None` at end of data.
    #[allow(clippy::should_implement_trait)] // not an Iterator: no fused/size semantics
    #[inline]
    pub fn next(&mut self) -> Option<bool> {
        let bit = self.peek(1) != 0;
        if self.nacc == 0 {
            return None;
        }
        self.consume(1);
        Some(bit)
    }
}

// ------------------------------------------------------------ geometry

/// Most samples a plane header may declare. The header is received
/// bytes and the decoder allocates from it, so it is bounded before
/// anything is sized by it; 2048x2048 is well past any shared image.
const MAX_PLANE_SAMPLES: usize = 1 << 22;

/// The subbands of a `w x h x levels` plane in scan order, as rows:
/// `(start, len)` of each band row in the plane's linear layout — the
/// coarsest LL, then level by level, coarse to fine, HL (top-right), LH
/// (bottom-left) and HH (bottom-right), each row by row.
fn band_rows(w: usize, h: usize, levels: usize) -> impl Iterator<Item = (usize, usize)> {
    let ll = (0, 0, w >> levels, h >> levels);
    let details = (1..=levels).rev().flat_map(move |l| {
        let (wb, hb) = (w >> l, h >> l);
        [(wb, 0, wb, hb), (0, hb, wb, hb), (wb, hb, wb, hb)]
    });
    std::iter::once(ll)
        .chain(details)
        .flat_map(move |(x0, y0, bw, bh)| (y0..y0 + bh).map(move |y| (y * w + x0, bw)))
}

/// Scan/tree geometry of one plane shape, addressed by **scan rank**
/// (the position in the subband-ordered scan, coarse to fine), which
/// is the space both walks run in.
///
/// In rank space the zerotree is simple: the `roots()` coarsest-LL
/// nodes come first and root `r` parents `r + roots`, `r + 2·roots`,
/// `r + 3·roots` (the co-located HL/LH/HH coefficients); every other
/// node below `parents()` has a 2x2 block of children in the same
/// orientation one level finer; the finest level — everything from
/// `parents()` on — has none. A parent always precedes its children.
struct Geometry {
    w: usize,
    h: usize,
    levels: usize,
    /// Rank to linear index.
    scan: Vec<u32>,
    /// For the detail parent of rank `r`, at `r - roots()`: the ranks
    /// of its top-left and bottom-left children (the other two follow
    /// each at `+ 1`).
    child_rows: Vec<[u32; 2]>,
}

impl Geometry {
    fn new(w: usize, h: usize, levels: usize) -> Geometry {
        assert_levels(w, h, levels);
        let mut scan = Vec::with_capacity(w * h);
        for (start, len) in band_rows(w, h, levels) {
            scan.extend((start..start + len).map(|i| i as u32));
        }
        debug_assert_eq!(scan.len(), w * h);
        // The detail parents are the bands of every level but the
        // finest, in scan order.
        let (wl, hl) = (w >> levels, h >> levels);
        let mut child_rows = Vec::with_capacity((w / 2) * (h / 2) - wl * hl);
        for l in (2..=levels).rev() {
            let (wb, hb) = (w >> l, h >> l);
            for band in 0..3 {
                // The same band one level finer starts after everything
                // coarser (4·wb·hb ranks) and holds 2wb x 2hb
                // coefficients.
                let child_band = (4 + 4 * band) * wb * hb;
                for y in 0..hb {
                    for x in 0..wb {
                        let top = child_band + 4 * y * wb + 2 * x;
                        child_rows.push([top as u32, (top + 2 * wb) as u32]);
                    }
                }
            }
        }
        Geometry {
            w,
            h,
            levels,
            scan,
            child_rows,
        }
    }

    /// Number of coarsest-LL (parentless) nodes; they hold ranks
    /// `0..roots()`.
    fn roots(&self) -> usize {
        (self.w >> self.levels) * (self.h >> self.levels)
    }

    /// Ranks below this have children; the finest level does not.
    fn parents(&self) -> usize {
        (self.w / 2) * (self.h / 2)
    }

    /// Child ranks of the parent at `rank` (3 for a root, else 4).
    #[inline]
    fn children(&self, rank: usize, out: &mut [usize; 4]) -> usize {
        let roots = self.roots();
        if rank < roots {
            *out = [rank + roots, rank + 2 * roots, rank + 3 * roots, 0];
            3
        } else {
            let [top, bottom] = self.child_rows[rank - roots];
            *out = [
                top as usize,
                top as usize + 1,
                bottom as usize,
                bottom as usize + 1,
            ];
            4
        }
    }
}

// ------------------------------------------------------------- scratch

/// Bit position of a magnitude: 0 for zero, else `1 + msb`. The bit
/// position of an OR of magnitudes is that of their maximum.
#[inline]
fn bit_position(mag: u32) -> u32 {
    32 - mag.leading_zeros()
}

/// Panics unless a `w x h` plane can be coded at `levels` levels.
fn assert_levels(w: usize, h: usize, levels: usize) {
    let fits = levels >= 1 && levels <= wavelet::max_levels(w, h);
    assert!(fits, "{w}x{h} does not support {levels} wavelet levels");
}

/// What [`EzwEncoder::measure_plane`] works out about a plane without
/// writing a bit of its stream, and all [`EzwEncoder::emit_plane`]
/// needs beside the coefficients to write any prefix of it: a byte per
/// parent (the bit position of its subtree's maximum), the top bit
/// position and the stream's length. Reusable from plane to plane; an
/// image's channels each keep one while the rate cap is split between
/// them.
#[derive(Default)]
pub struct PlaneAnalysis {
    /// `(w, h, levels)` of the plane measured.
    shape: (usize, usize, usize),
    /// Bit position of the largest `|coeff|` of that plane (its top
    /// bit-plane plus one; 0 for an all-zero plane).
    top_pos: u8,
    /// Length of that plane's whole stream, header included.
    full_len: usize,
    /// Bit position of the max `|coeff|` over each parent's subtree, by
    /// rows of the parent quadrant (the top-left `w/2 x h/2`).
    subtree_pos: Vec<u8>,
    /// The sweep's working buffer, laid out as `subtree_pos`: `|coeff|`
    /// ORed over each parent's subtree.
    subtree_or: Vec<u32>,
}

impl PlaneAnalysis {
    /// Empty analysis; buffers grow on first use.
    pub fn new() -> PlaneAnalysis {
        PlaneAnalysis::default()
    }
}

/// Reusable per-plane coder state: the live set both walks run on, the
/// cached `Geometry` (rebuilt only when the plane shape changes), the
/// encoder's per-rank coefficients, and the significance record of the
/// last plane written or read. Shared by
/// [`EzwEncoder::encode_plane_with`] / [`EzwEncoder::emit_plane`] and
/// [`EzwDecoder::decode_plane_with`]; a default-constructed scratch is
/// used transparently by the plain entry points.
#[derive(Default)]
pub struct EzwScratch {
    /// Tree geometry of the last plane shape coded, either way.
    geo: Option<Geometry>,
    /// Encoder: what [`EzwEncoder::encode_plane_with`] sizes a plane
    /// up into (a container encode keeps one per channel instead).
    analysis: PlaneAnalysis,
    /// Encoder: the plane's coefficients by scan rank, packed as the
    /// dominant pass reads them (`|coeff|`, sign, and for a parent the
    /// bit position of its subtree maximum at `RANKED_SMAX_SHIFT`), one
    /// ordered read a symbol.
    ranked: Vec<u64>,
    /// The live set, one bit per scan rank — set while a coefficient
    /// is coded in the dominant pass (a root, or its parent has coded
    /// a non-zerotree symbol) and not yet significant. A dominant pass
    /// is a walk over the set bits in rank order.
    live: Vec<u64>,
    /// One bit per parent rank, set once its children have joined the
    /// live set (a significant child leaves `live`, so `live` alone
    /// cannot say whether that already happened).
    spawned: Vec<u64>,
    /// What [`EzwEncoder::emit_plane`] records a stream into and
    /// [`EzwDecoder::decode_plane_with`] reads one into (a container
    /// encode or decode keeps one per channel instead, in a
    /// [`CodecScratch`]).
    record: PlaneRecord,
}

impl EzwScratch {
    /// Empty scratch; buffers grow on first use.
    pub fn new() -> EzwScratch {
        EzwScratch::default()
    }

    /// The geometry for `w x h x levels`, rebuilding only on change.
    fn geometry(&mut self, w: usize, h: usize, levels: usize) -> &Geometry {
        let stale = !matches!(&self.geo, Some(g) if g.w == w && g.h == h && g.levels == levels);
        if stale {
            self.geo = Some(Geometry::new(w, h, levels));
        }
        self.geo.as_ref().expect("just built")
    }
}

// ------------------------------------------------------------ the walk

/// The three kinds of node a dominant pass meets, in scan order.
const ROOTS: u8 = 0;
const QUADS: u8 = 1;
const LEAVES: u8 = 2;

/// One side of the codec, as the walk over the live set sees it: the
/// encoder writes the symbol of each rank the walk visits, the decoder
/// reads it. Which ranks are visited, in what order, and what a symbol
/// does to the live set is the walk's ([`LiveSet::dominant`]), the same
/// for both sides, so what one writes the other reads.
trait Side {
    /// Before each 64-rank word of the live set: whether the walk goes
    /// on, once room is made for the word's entries. The encoder stops
    /// past its cap; the decoder goes on to the end of its stream.
    fn word(&mut self) -> bool;

    /// Write or read the symbol of `rank`: in the parent alphabet
    /// (`PARENT`) `0` zerotree root / `10` isolated zero / `11s`
    /// significant, in the childless one `0` zero / `1s` significant.
    /// Returns whether it is anything but a zerotree root and whether
    /// it is significant, 0 or 1 each — or `None` when the stream ends
    /// inside it, which then has no effect.
    fn symbol<const PARENT: bool>(&mut self, rank: usize) -> Option<(u64, u64)>;
}

#[inline]
fn set_bit(words: &mut [u64], i: usize) {
    words[i / 64] |= 1 << (i % 64);
}

/// The live set of one plane's dominant passes, over its geometry.
struct LiveSet<'a> {
    geo: &'a Geometry,
    live: &'a mut [u64],
    spawned: &'a mut [u64],
}

impl<'a> LiveSet<'a> {
    /// The live set of a plane's first pass: the parentless roots.
    /// Everything under a zerotree root stays out of it, so no skip
    /// stamps are needed.
    fn new(geo: &'a Geometry, live: &'a mut Vec<u64>, spawned: &'a mut Vec<u64>) -> LiveSet<'a> {
        live.clear();
        live.resize((geo.w * geo.h).div_ceil(64), 0);
        for r in 0..geo.roots() {
            set_bit(live, r);
        }
        spawned.clear();
        spawned.resize(geo.parents().div_ceil(64), 0);
        LiveSet { geo, live, spawned }
    }

    /// One dominant pass: every live rank in scan order, its symbol
    /// coded by `side`. The set grows by activation: the first time a
    /// parent codes a non-zerotree symbol its children join, and since
    /// a parent precedes its children in scan order the same pass meets
    /// them later, in order. A significant rank leaves the set. Returns
    /// `false` when `side` stopped the pass.
    fn dominant(&mut self, side: &mut impl Side) -> bool {
        let (roots, parents, n) = (self.geo.roots(), self.geo.parents(), self.geo.scan.len());
        self.walk::<ROOTS>(side, 0, roots)
            && self.walk::<QUADS>(side, roots, parents)
            && self.walk::<LEAVES>(side, parents, n)
    }

    /// The live ranks in `lo..hi`, all of one `KIND`, word by word.
    ///
    /// A word's ranks are taken once, as a `pending` mask, and nothing
    /// a symbol says is on the way to the next rank: a significant rank
    /// is only noted (`gone`) and leaves the set when the word ends.
    /// Taking the next rank from the live word itself would put the
    /// symbol — for the encoder a load of the coefficient — on the
    /// loop-carried chain. The one thing that does join `pending` mid
    /// word is a quad parent's children in the same word, which rank
    /// above it and so are still ahead; whether they are in it is
    /// geometry, a branch the predictor learns, not data.
    ///
    /// Apart from the handful of roots the body is branch-free in the
    /// data: a quad parent ORs its children into the set — as nothing,
    /// unless this is its first non-zerotree symbol. (A fifth to a third
    /// of all symbols of a 6 bpp stream activate children; as a branch,
    /// taken or not at the data's whim, that would be the pass's main
    /// cost.)
    #[inline(always)]
    fn walk<const KIND: u8>(&mut self, side: &mut impl Side, lo: usize, hi: usize) -> bool {
        if lo >= hi {
            return true;
        }
        let roots = self.geo.roots();
        let (first, last) = (lo / 64, (hi - 1) / 64);
        for wi in first..=last {
            if !side.word() {
                return false;
            }
            let mut range = !0u64;
            if wi == first {
                range &= !0u64 << (lo % 64);
            }
            if wi == last {
                range &= !0u64 >> (63 - (hi - 1) % 64);
            }
            let mut pending = self.live[wi] & range;
            let mut spawned = if KIND == LEAVES { 0 } else { self.spawned[wi] };
            let mut gone = 0u64;
            let mut cut = false;
            while pending != 0 {
                let bit = pending.trailing_zeros();
                pending &= pending - 1;
                let rank = wi * 64 + bit as usize;
                let symbol = if KIND == LEAVES {
                    side.symbol::<false>(rank)
                } else {
                    side.symbol::<true>(rank)
                };
                let Some((coded, sig)) = symbol else {
                    cut = true;
                    break;
                };
                gone |= sig << bit;
                if KIND == LEAVES {
                    continue;
                }
                let fresh = coded & !(spawned >> bit) & 1;
                spawned |= fresh << bit;
                if KIND == ROOTS {
                    // A root's children are quads (leaves at one
                    // level): never in this walk's range.
                    if fresh != 0 {
                        let mut kids = [0usize; 4];
                        let n = self.geo.children(rank, &mut kids);
                        for &k in &kids[..n] {
                            set_bit(self.live, k);
                        }
                    }
                } else {
                    // Both rows start on an even rank, so neither pair
                    // straddles a word.
                    let [top, bottom] = self.geo.child_rows[rank - roots];
                    let (top, bottom) = (top as usize, bottom as usize);
                    let pair = fresh * 3;
                    self.live[top / 64] |= pair << (top % 64);
                    self.live[bottom / 64] |= pair << (bottom % 64);
                    if top / 64 == wi {
                        let mut kids = pair << (top % 64);
                        if bottom / 64 == wi {
                            kids |= pair << (bottom % 64);
                        }
                        pending |= kids & range;
                    }
                }
            }
            self.live[wi] &= !gone;
            if KIND != LEAVES {
                self.spawned[wi] = spawned;
            }
            if cut {
                return false;
            }
        }
        true
    }
}

// -------------------------------------------------------------- encode

/// Encode a wavelet-transformed plane into a fully embedded stream.
pub struct EzwEncoder;

impl EzwEncoder {
    /// Encode `coeffs` (a `w x h` plane already wavelet-transformed
    /// with `levels` levels). The returned bytes are
    /// [`PLANE_HEADER_LEN`] of header followed by the embedded
    /// bitstream down to bit-plane 0.
    pub fn encode_plane(coeffs: &[i32], w: usize, h: usize, levels: usize) -> Vec<u8> {
        Self::encode_plane_with(coeffs, w, h, levels, &mut EzwScratch::new())
    }

    /// [`EzwEncoder::encode_plane`] with caller-owned scratch — the
    /// allocation-free hot path (only the output stream is allocated).
    pub fn encode_plane_with(
        coeffs: &[i32],
        w: usize,
        h: usize,
        levels: usize,
        scratch: &mut EzwScratch,
    ) -> Vec<u8> {
        let mut analysis = std::mem::take(&mut scratch.analysis);
        let full = Self::measure_plane(coeffs, w, h, levels, &mut analysis);
        let stream = Self::emit_plane(coeffs, &analysis, full, scratch);
        scratch.analysis = analysis;
        stream
    }

    /// The analysis half of an encode: size up the stream of `coeffs`
    /// without writing a bit of it, and leave in `analysis` what
    /// [`EzwEncoder::emit_plane`] writes it from. Returns the length of
    /// the whole stream, header included — what a rate cap split over
    /// several planes ([`channel_keeps`]) is split by.
    ///
    /// The length is a sum of per-coefficient costs. A coefficient
    /// first coded at bit position `a` (its parent's subtree max, the
    /// top position for the parentless coarsest LL) and significant at
    /// `m` costs a bit in each plane from `a` down to `m + 1`, two in
    /// plane `m` and a refinement bit in each plane below it:
    /// `a + [m > 0]` bits. A parent whose subtree max is at `s` costs one
    /// more in each plane where its subtree holds something significant
    /// and it does not (isolated zero, not zerotree root), and one more
    /// for its significant symbol: `s - m + [m > 0]`. Every `a` is the
    /// top position or a parent's `s`, so only parents need bit
    /// positions: the body is the nonzero count, plus the top position
    /// per root, plus `3s` per root and `4s` per other parent (its
    /// children's `a`), plus each parent's `s - m + [m > 0]`.
    pub fn measure_plane(
        coeffs: &[i32],
        w: usize,
        h: usize,
        levels: usize,
        analysis: &mut PlaneAnalysis,
    ) -> usize {
        assert_eq!(coeffs.len(), w * h);
        assert!(
            w <= u16::MAX as usize && h <= u16::MAX as usize,
            "the plane header holds 16-bit dimensions"
        );
        assert_levels(w, h, levels);
        // Both dimensions fit 16 bits, so the nonzero count fits 32.
        let (or, nnz) = coeffs.iter().fold((0u32, 0u32), |(or, nnz), &c| {
            (or | c.unsigned_abs(), nnz + (c != 0) as u32)
        });
        let top_pos = bit_position(or);
        analysis.shape = (w, h, levels);
        analysis.top_pos = top_pos as u8;
        analysis.full_len = PLANE_HEADER_LEN;
        if top_pos == 0 {
            return PLANE_HEADER_LEN;
        }

        // The tree is implicit in the plane's coordinates: every parent
        // lies in the top-left quadrant, `wp x hp`; the coarsest LL,
        // `wl x hl`, parents the three co-located coarsest bands, every
        // other parent the 2x2 block at twice its coordinates.
        let (wl, hl) = (w >> levels, h >> levels);
        let (wp, hp) = (w / 2, h / 2);
        let mag = |x: usize, y: usize| coeffs[y * w + x].unsigned_abs();
        // A parent's subtree OR is its `|coeff|` ORed with its
        // children's: a child inside the quadrant gives its subtree OR,
        // a leaf its `|coeff|`. A descending sweep meets every child
        // before its parent.
        let sub = &mut analysis.subtree_or;
        sub.clear();
        sub.resize(wp * hp, 0);
        let kid = |sub: &[u32], x: usize, y: usize| {
            if x < wp && y < hp {
                sub[y * wp + x]
            } else {
                mag(x, y)
            }
        };
        // Rows from 1 on, whole-row and branch-free: the children of
        // row `y` are rows `2y` and `2y + 1`, parents left of `mid`,
        // leaves right of it. Roots, left of `x0`, come last.
        for y in (1..hp).rev() {
            let x0 = if y < hl { wl } else { 0 };
            let mid = if 2 * y < hp { wp / 2 } else { 0 }.max(x0);
            let own = &coeffs[y * w..][..wp];
            let (head, tail) = sub.split_at_mut((y + 1) * wp);
            let row = &mut head[y * wp..];
            if x0 < mid {
                let (top, bottom) = tail[(y - 1) * wp..(y + 1) * wp].split_at(wp);
                let kids = top[2 * x0..]
                    .chunks_exact(2)
                    .zip(bottom[2 * x0..].chunks_exact(2));
                for ((o, &c), (t, b)) in row[x0..mid].iter_mut().zip(&own[x0..mid]).zip(kids) {
                    *o = c.unsigned_abs() | t[0] | t[1] | b[0] | b[1];
                }
            }
            let (top, bottom) = coeffs[2 * y * w..(2 * y + 2) * w].split_at(w);
            let kids = top[2 * mid..]
                .chunks_exact(2)
                .zip(bottom[2 * mid..].chunks_exact(2));
            for ((o, &c), (t, b)) in row[mid..].iter_mut().zip(&own[mid..]).zip(kids) {
                *o = c.unsigned_abs()
                    | t[0].unsigned_abs()
                    | t[1].unsigned_abs()
                    | b[0].unsigned_abs()
                    | b[1].unsigned_abs();
            }
        }
        // Row 0, whose parents have children in their own row, right of
        // them; then the roots.
        for x in (wl..wp).rev() {
            let kids = [(2 * x, 0), (2 * x + 1, 0), (2 * x, 1), (2 * x + 1, 1)];
            sub[x] = kids.iter().fold(mag(x, 0), |v, &(x, y)| v | kid(sub, x, y));
        }
        for y in 0..hl {
            for x in 0..wl {
                let kids = [(x + wl, y), (x, y + hl), (x + wl, y + hl)];
                sub[y * wp + x] = kids.iter().fold(mag(x, y), |v, &(x, y)| v | kid(sub, x, y));
            }
        }

        // The sum, over the parents alone, leaving each one's subtree
        // position for `emit_plane`.
        let pos = &mut analysis.subtree_pos;
        pos.clear();
        pos.resize(wp * hp, 0);
        let mut bits = nnz as u64 + (wl * hl) as u64 * top_pos as u64;
        let rows = sub.chunks_exact(wp).zip(coeffs.chunks_exact(w));
        for (y, ((ors, own), pos)) in rows.zip(pos.chunks_exact_mut(wp)).enumerate() {
            let roots = if y < hl { wl } else { 0 };
            for (x, ((&or, &c), p)) in ors.iter().zip(own).zip(pos).enumerate() {
                let (s, m) = (bit_position(or), bit_position(c.unsigned_abs()));
                let kids = 4 - (x < roots) as u32;
                bits += ((kids + 1) * s - m + (m > 0) as u32) as u64;
                *p = s as u8;
            }
        }
        analysis.full_len = PLANE_HEADER_LEN + bits.div_ceil(8) as usize;
        analysis.full_len
    }

    /// The emission half: the first `keep` bytes (clamped to the
    /// header at least, the whole stream at most) of the stream
    /// `analysis` is [`EzwEncoder::measure_plane`]'s sizing-up of, for
    /// these same `coeffs` — byte for byte the prefix of the full
    /// stream, with the passes stopping where `keep` does instead of
    /// running to bit-plane 0 and being cut afterwards. The dominant
    /// pass is the decoder's walk over the live set, writing each
    /// symbol where the decoder reads it: no coefficient is looked at
    /// in a pass it is not coded in, and past the cut none is. The
    /// stream's record is left in `scratch`, as a read of it would.
    pub fn emit_plane(
        coeffs: &[i32],
        analysis: &PlaneAnalysis,
        keep: usize,
        scratch: &mut EzwScratch,
    ) -> Vec<u8> {
        let mut record = std::mem::take(&mut scratch.record);
        Self::emit_plane_into(coeffs, analysis, keep, scratch, &mut record);
        let stream = record.stream.clone();
        scratch.record = record;
        stream
    }

    /// [`EzwEncoder::emit_plane`] into a record the caller keeps: the
    /// stream is written into `record.stream`, and the rest of `record`
    /// becomes what reading those bytes would make it
    /// ([`EzwDecoder::read_symbols`]) — the encoder is the stream's
    /// first reader — so a decode of the stream or of any prefix of it
    /// replays the record without reading a bit. The buffers grow only
    /// past their capacity.
    fn emit_plane_into(
        coeffs: &[i32],
        analysis: &PlaneAnalysis,
        keep: usize,
        scratch: &mut EzwScratch,
        record: &mut PlaneRecord,
    ) {
        let (w, h, levels) = analysis.shape;
        assert_eq!(coeffs.len(), w * h, "the plane `measure_plane` sized up");
        let keep = keep.clamp(PLANE_HEADER_LEN, analysis.full_len);
        let top_pos = analysis.top_pos;

        // The walk looks at the cap once a word of the live set, so it
        // overshoots by at most 64 three-bit symbols and the writer's
        // word.
        let mut out = std::mem::take(&mut record.stream);
        out.clear();
        out.reserve(keep + 64);
        out.extend_from_slice(PLANE_MAGIC);
        out.extend_from_slice(&(w as u16).to_be_bytes());
        out.extend_from_slice(&(h as u16).to_be_bytes());
        out.push(levels as u8);
        let top_plane = top_pos.checked_sub(1);
        out.push(top_plane.unwrap_or(EMPTY_PLANE));
        // Bits to write. Short of the whole stream this is a whole
        // number of bytes; for the whole stream it is the stream's bits
        // rounded up, which the passes end before reaching.
        let limit = (keep - PLANE_HEADER_LEN) * 8;
        record.reset(top_plane.map(u32::from), w * h, limit);
        if top_plane.is_none() || limit == 0 {
            if top_plane.is_some() {
                // A reader's first symbol would not fit.
                record.marks.push(PlaneMark::begun(0));
            }
            record.stream = out;
            return;
        }

        scratch.geometry(w, h, levels);
        let EzwScratch {
            geo,
            ranked,
            live,
            spawned,
            ..
        } = scratch;
        let geo = geo.as_ref().expect("geometry cached");
        // The plane in scan order, band row by band row: the dominant
        // pass then reads each coefficient it codes with one ordered
        // load, and nothing else. Parent rows, which rank first and lie
        // in the parent quadrant, carry their subtree positions; a
        // leaf's symbol reads none.
        let packed = |c: i32| c.unsigned_abs() as u64 | ((c < 0) as u64) << 63;
        ranked.clear();
        for (start, len) in band_rows(w, h, levels) {
            let row = &coeffs[start..start + len];
            if ranked.len() < geo.parents() {
                let at = start / w * (w / 2) + start % w;
                let smax = &analysis.subtree_pos[at..at + len];
                ranked.extend(
                    row.iter()
                        .zip(smax)
                        .map(|(&c, &s)| packed(c) | (s as u64) << RANKED_SMAX_SHIFT),
                );
            } else {
                ranked.extend(row.iter().map(|&c| packed(c)));
            }
        }
        let mut set = LiveSet::new(geo, live, spawned);
        let mut emit = PlaneEmit {
            ranked,
            record,
            bits: BitWriter::after(out),
            t: 0,
            pos: 0,
            limit,
        };
        // The reader's marks: a pass is held when its last bit is.
        for pos in (1..=top_pos).rev() {
            let b = pos as u32 - 1;
            (emit.t, emit.pos) = (1 << b, pos as u64);
            let mut mark = PlaneMark::begun(emit.record.nsub);
            if set.dominant(&mut emit) && emit.bits.len_bits() <= limit {
                let start = emit.bits.len_bits();
                mark.sub_start = start as u64;
                // Subordinate pass: one refinement bit for coefficients
                // significant before this plane, magnitudes read from
                // the list, and no more of them than the cap has room
                // for.
                let count = mark.refine_count.min(limit - start);
                for entries in emit.record.entries[..count].chunks(32) {
                    let word = entries
                        .iter()
                        .fold(0u32, |acc, &entry| acc << 1 | (entry as u32 >> b) & 1);
                    emit.bits.push_bits(word, entries.len() as u32);
                }
                if count == mark.refine_count {
                    mark.end = emit.bits.len_bits() as u64;
                }
            }
            emit.record.marks.push(mark);
            if mark.end == u64::MAX {
                break;
            }
        }
        let mut out = emit.bits.into_bytes();
        out.truncate(keep);
        record.stream = out;
    }
}

/// Where the bit position of a parent's subtree maximum sits in its
/// `EzwScratch::ranked` word (a leaf's is zero); `|coeff|` is the low
/// half, the sign bit 63.
const RANKED_SMAX_SHIFT: u32 = 32;

/// The encoder's side of the walk: one plane's stream, written up to
/// the cap and recorded as a reader of it would record it.
struct PlaneEmit<'a> {
    /// The plane by scan rank (`EzwScratch::ranked`).
    ranked: &'a [u64],
    /// The significant coefficients in significance order, with whole
    /// magnitudes — what the subordinate pass refines — and where
    /// each symbol ends. Symbols written past the cap are noted too;
    /// nothing reads them, as they end past the stream.
    record: &'a mut PlaneRecord,
    bits: BitWriter,
    /// The pass's threshold `1 << b`, and its bit position `b + 1`.
    t: u32,
    pos: u64,
    /// Bits to write.
    limit: usize,
}

impl Side for PlaneEmit<'_> {
    /// Goes on while the stream's last bit is not written: a pass is
    /// then either all written or cut inside a symbol, as a reader
    /// finds it.
    #[inline(always)]
    fn word(&mut self) -> bool {
        self.record.reserve_word();
        self.bits.len_bits() <= self.limit
    }

    /// Branch-free: the four symbols collapse to
    /// `pattern = (1 << len) - 2 + sign` (0; 10; 10|s or 110|s), and
    /// the entry is stored whether significant or not, the count
    /// bumped only if so — significance is about 50/50 in the busy
    /// passes.
    #[inline(always)]
    fn symbol<const PARENT: bool>(&mut self, rank: usize) -> Option<(u64, u64)> {
        let entry = self.ranked[rank];
        let mag = entry as u32;
        let sig = (mag >= self.t) as u64;
        let coded = if PARENT {
            sig | (((entry >> RANKED_SMAX_SHIFT) & 0xFF >= self.pos) as u64)
        } else {
            sig
        };
        let len = 1 + coded + (PARENT as u64 & sig);
        let neg = (entry >> 63) & sig;
        self.bits
            .push_bits(((1 << len) - 2 + neg) as u32, len as u32);
        let recorded = entry & (1 << 63 | u32::MAX as u64) | (rank as u64) << 32;
        self.record.note(recorded, self.bits.len_bits(), sig);
        Some((coded, sig))
    }
}

/// Decode an embedded plane stream (possibly truncated anywhere past
/// the header).
pub struct EzwDecoder;

/// A decoded plane plus its geometry.
#[derive(Debug, Clone, PartialEq)]
pub struct DecodedPlane {
    /// Width in samples.
    pub w: usize,
    /// Height in samples.
    pub h: usize,
    /// Wavelet levels the plane was coded with.
    pub levels: usize,
    /// Reconstructed coefficients (still in the wavelet domain).
    pub coeffs: Vec<i32>,
}

/// The checked fields of a plane header.
#[derive(Clone, Copy, Default, PartialEq, Eq)]
struct PlaneHeader {
    w: usize,
    h: usize,
    levels: usize,
    /// Top bit-plane, or `None` for an all-zero plane.
    top_plane: Option<u32>,
}

impl PlaneHeader {
    /// Parse and bound the header at the front of a plane stream.
    /// Everything the decoder allocates is sized from these fields, so
    /// nothing may be sized before this returns `Ok`.
    fn parse(bytes: &[u8]) -> Result<PlaneHeader, MediaError> {
        if bytes.len() < PLANE_HEADER_LEN || &bytes[..4] != PLANE_MAGIC {
            return Err(MediaError::Malformed("bad plane header"));
        }
        let w = u16::from_be_bytes([bytes[4], bytes[5]]) as usize;
        let h = u16::from_be_bytes([bytes[6], bytes[7]]) as usize;
        let levels = bytes[8] as usize;
        if w == 0 || h == 0 || levels == 0 || levels > wavelet::max_levels(w, h) {
            return Err(MediaError::Malformed("bad plane geometry"));
        }
        if w * h > MAX_PLANE_SAMPLES {
            return Err(MediaError::Malformed("plane too large"));
        }
        let top_plane = match bytes[9] {
            EMPTY_PLANE => None,
            top if top > 31 => return Err(MediaError::Malformed("bad top plane")),
            top => Some(top as u32),
        };
        Ok(PlaneHeader {
            w,
            h,
            levels,
            top_plane,
        })
    }

    fn same_shape(&self, other: &PlaneHeader) -> bool {
        (self.w, self.h, self.levels) == (other.w, other.h, other.levels)
    }
}

/// Where one bit-plane's passes lie in a recorded stream, in bits from
/// the start of the body. `u64::MAX` stands for "the stream ended
/// first".
#[derive(Clone, Copy)]
struct PlaneMark {
    /// Entries significant before this plane — the ones its
    /// subordinate pass refines, one bit each, in list order.
    refine_count: usize,
    /// Where the subordinate pass starts.
    sub_start: u64,
    /// Where the plane ends: a prefix at least this long holds all of
    /// it.
    end: u64,
}

impl PlaneMark {
    /// A plane begun after `refine_count` entries, no pass of it held
    /// yet.
    fn begun(refine_count: usize) -> PlaneMark {
        PlaneMark {
            refine_count,
            sub_start: u64::MAX,
            end: u64::MAX,
        }
    }
}

/// What symbol-decoding one plane stream leaves behind — or writing it:
/// the encoder records what it writes the way the decoder records what
/// it reads — and all that is needed to give the coefficients of any
/// *prefix* of that stream without reading a bit of it.
///
/// The decoder is deterministic and reads strictly forward, so on a
/// prefix cut at bit `x` it does exactly what it did on the whole
/// stream up to `x` and then stops: the symbols that end at or before
/// `x` take effect, the one `x` falls inside does not (a symbol's
/// length is decided by its own leading bits, and the zeros read past
/// the end never make it look shorter than what is left), and the
/// refinement bits before `x` count one by one. The list is in
/// significance order, which is stream order, so the prefix's
/// significant coefficients are a prefix of the list; their magnitudes
/// are the recorded ones without the bits read after `x`.
#[derive(Default)]
struct PlaneRecord {
    /// The stream that was read, header and all — compared byte for
    /// byte with whatever claims to be a prefix of it. Empty when
    /// nothing is held.
    stream: Vec<u8>,
    /// Significant coefficients in significance order, one word each —
    /// sign in bit 63, scan rank in bits 32..63, magnitude in the low
    /// half — so the subordinate pass refines magnitudes in one
    /// sequential sweep and nothing is scattered until the end. A
    /// reader holds the magnitude bits it has read, the encoder the
    /// whole magnitude; `scatter` keeps of each only the bits the
    /// prefix it gives has read, so the two records give the same
    /// coefficients. Longer than `nsub`: grown by need, never cleared.
    entries: Vec<u64>,
    /// Per entry, the bit offset just past its dominant symbol;
    /// ascending. (A plane is capped at 2^22 samples and 32 bit-planes,
    /// so a decode never gets as far as bit 2^32.)
    ends: Vec<u32>,
    /// Entries in use — for the encoder, with the ones its walk wrote
    /// past the stream's end, which `scatter` drops by their ends.
    nsub: usize,
    /// Top bit-plane of the stream.
    top_plane: u32,
    /// One mark per plane reached, top plane first.
    marks: Vec<PlaneMark>,
}

impl PlaneRecord {
    /// Whether `stream` is a prefix of the stream recorded — header
    /// included, so also of the same shape and top plane.
    fn covers(&self, stream: &[u8]) -> bool {
        self.stream.starts_with(stream)
    }

    /// Start the record of a stream with `top_plane` (`None`: an
    /// all-zero plane) over planes of `n` samples, whose body holds
    /// `body_bits`: empty, with a first guess at the list so that it
    /// seldom grows — streams cut at a few bits per pixel spend about
    /// six bits on each significant coefficient, symbol and
    /// refinements together.
    fn reset(&mut self, top_plane: Option<u32>, n: usize, body_bits: usize) {
        self.nsub = 0;
        self.marks.clear();
        self.top_plane = top_plane.unwrap_or(0);
        let guess = n.min(body_bits / 6) + 65;
        if top_plane.is_some() && self.entries.len() < guess {
            self.grow(guess);
        }
    }

    /// Note the symbol that ends at body bit `end`: `entry` joins the
    /// list if it is significant (`sig` is 1), by an unconditional
    /// store and a conditional bump.
    #[inline(always)]
    fn note(&mut self, entry: u64, end: usize, sig: u64) {
        let nsub = self.nsub;
        self.entries[nsub] = entry;
        self.ends[nsub] = end as u32;
        self.nsub = nsub + sig as usize;
    }

    /// Room for the entries of one more word of the live set: its 64
    /// symbols append at most 64, and one spare slot takes the store
    /// of a symbol that is not significant.
    #[inline]
    fn reserve_word(&mut self) {
        let need = self.nsub + 65;
        if self.entries.len() < need {
            self.grow(need + need / 4);
        }
    }

    #[cold]
    fn grow(&mut self, len: usize) {
        self.entries.resize(len, 0);
        self.ends.resize(len, 0);
    }

    /// Write into the zeroed `coeffs` what the first `stream_len` bytes
    /// of the recorded stream — all of it, or a prefix — decode to.
    /// `geo` is the geometry of its shape.
    fn scatter(&self, stream_len: usize, geo: &Geometry, coeffs: &mut [i32]) {
        debug_assert!(stream_len <= self.stream.len());
        let body_bits = (stream_len - PLANE_HEADER_LEN) as u64 * 8;
        let count = self.ends[..self.nsub].partition_point(|&end| end as u64 <= body_bits);
        // The first plane the prefix does not hold all of: the
        // uncertainty interval of a coefficient cut there is
        // [mag, mag + 2^b), and of its bit b only what came before the
        // cut was read.
        let cut = self
            .marks
            .iter()
            .position(|mark| mark.end > body_bits)
            .map(|p| (self.top_plane - p as u32, self.marks[p]));
        let Some((b, mark)) = cut else {
            return scatter_entries(&self.entries[..count], !0, 0, geo, coeffs);
        };
        let offset = (1u32 << b) >> 1;
        let from_plane = !0u32 << b;
        let above_plane = (!0u64 << (b + 1)) as u32;
        // Bit b is a refinement bit for the entries significant before
        // this plane, read for the first of them only; for the entries
        // significant *in* this plane it is the significance itself.
        let before = mark.refine_count.min(count);
        let read = body_bits.saturating_sub(mark.sub_start);
        let refined = usize::try_from(read).map_or(before, |read| read.min(before));
        let entries = &self.entries[..count];
        scatter_entries(&entries[..refined], from_plane, offset, geo, coeffs);
        scatter_entries(&entries[refined..before], above_plane, offset, geo, coeffs);
        scatter_entries(&entries[before..], from_plane, offset, geo, coeffs);
    }
}

/// Centre each entry's interval and write it to its place — the only
/// pass over the plane that is not in scan order.
fn scatter_entries(entries: &[u64], keep: u32, offset: u32, geo: &Geometry, coeffs: &mut [i32]) {
    for &entry in entries {
        let rank = (entry >> 32) as u32 & 0x7FFF_FFFF;
        let v = (entry as u32 & keep).wrapping_add(offset) as i32;
        coeffs[geo.scan[rank as usize] as usize] = if entry >> 63 != 0 {
            v.wrapping_neg()
        } else {
            v
        };
    }
}

/// The decoder's side of the walk: one plane's stream, read into its
/// record.
struct PlaneRead<'b, 'r> {
    bits: BitReader<'b>,
    record: &'r mut PlaneRecord,
    /// The pass's threshold, the magnitude a significant entry starts
    /// at.
    t: u64,
}

impl Side for PlaneRead<'_, '_> {
    #[inline(always)]
    fn word(&mut self) -> bool {
        self.record.reserve_word();
        true
    }

    /// Branch-free but for the end of the stream: symbol length,
    /// significance and sign are arithmetic on the peeked bits, and a
    /// significant coefficient is appended by an unconditional store
    /// and a conditional bump.
    #[inline(always)]
    fn symbol<const PARENT: bool>(&mut self, rank: usize) -> Option<(u64, u64)> {
        let (coded, sig, neg, len);
        if PARENT {
            let sym = self.bits.peek(3);
            coded = sym >> 2; // anything but a zerotree root
            sig = coded & (sym >> 1);
            neg = sym & 1;
            len = 1 + (coded + sig) as u32;
        } else {
            let sym = self.bits.peek(2);
            sig = sym >> 1;
            coded = sig;
            neg = sym & 1;
            len = 1 + sig as u32;
        }
        if len > self.bits.buffered() {
            return None;
        }
        self.bits.consume(len);
        let entry = neg << 63 | (rank as u64) << 32 | self.t;
        self.record.note(entry, self.bits.position() as usize, sig);
        Some((coded, sig))
    }
}

impl PlaneRead<'_, '_> {
    /// Subordinate pass: one refinement bit at plane `b` for each of
    /// the first `count` significant coefficients, a sequential sweep
    /// taking up to 56 bits per refill. Returns `false` when the
    /// stream ends first; the bits that were there still count.
    #[inline(always)]
    fn subordinate(&mut self, count: usize, b: u32) -> bool {
        let mut done = 0;
        while done < count {
            let want = (count - done).min(56) as u32;
            let chunk = self.bits.peek(want);
            let have = want.min(self.bits.buffered());
            for (j, entry) in self.record.entries[done..done + have as usize]
                .iter_mut()
                .enumerate()
            {
                *entry |= ((chunk >> (want - 1 - j as u32)) & 1) << b;
            }
            self.bits.consume(have);
            if have < want {
                return false;
            }
            done += have as usize;
        }
        true
    }
}

impl EzwDecoder {
    /// Decode as much of `bytes` as is present.
    pub fn decode_plane(bytes: &[u8]) -> Result<DecodedPlane, MediaError> {
        Self::decode_plane_with(bytes, &mut EzwScratch::new())
    }

    /// [`EzwDecoder::decode_plane`] with caller-owned scratch.
    pub fn decode_plane_with(
        bytes: &[u8],
        scratch: &mut EzwScratch,
    ) -> Result<DecodedPlane, MediaError> {
        let header = PlaneHeader::parse(bytes)?;
        let mut coeffs = vec![0i32; header.w * header.h];
        let mut record = std::mem::take(&mut scratch.record);
        Self::read_symbols(header, bytes, scratch, &mut record);
        let geo = scratch.geometry(header.w, header.h, header.levels);
        record.scatter(bytes.len(), geo, &mut coeffs);
        scratch.record = record;
        Ok(DecodedPlane {
            w: header.w,
            h: header.h,
            levels: header.levels,
            coeffs,
        })
    }

    /// Symbol-decode the bitstream behind an already-checked `header`
    /// into `record`, replacing what it held. This is the only reader
    /// of stream bits; coefficients come out of the record
    /// (`PlaneRecord::scatter`), for this stream and for its prefixes
    /// alike.
    fn read_symbols(
        header: PlaneHeader,
        stream: &[u8],
        scratch: &mut EzwScratch,
        record: &mut PlaneRecord,
    ) {
        record.stream.clear();
        record.stream.extend_from_slice(stream);
        let PlaneHeader { w, h, levels, .. } = header;
        let body_bits = (stream.len() - PLANE_HEADER_LEN) * 8;
        record.reset(header.top_plane, w * h, body_bits);
        let Some(top_plane) = header.top_plane else {
            return;
        };
        scratch.geometry(w, h, levels);
        let geo = scratch.geo.as_ref().expect("geometry cached");
        let mut set = LiveSet::new(geo, &mut scratch.live, &mut scratch.spawned);
        let mut read = PlaneRead {
            bits: BitReader::new(&stream[PLANE_HEADER_LEN..]),
            record,
            t: 0,
        };
        for b in (0..=top_plane).rev() {
            read.t = 1 << b;
            let mut mark = PlaneMark::begun(read.record.nsub);
            if set.dominant(&mut read) {
                mark.sub_start = read.bits.position();
                if read.subordinate(mark.refine_count, b) {
                    mark.end = read.bits.position();
                }
            }
            read.record.marks.push(mark);
            if mark.end == u64::MAX {
                break;
            }
        }
    }
}

// ----------------------------------------------------------- container

/// Kind byte for the container header; bit 7 flags YCoCg-R color
/// decorrelation.
const COLOR_TRANSFORM_FLAG: u8 = 0x80;

fn kind_to_byte(k: WaveletKind) -> u8 {
    match k {
        WaveletKind::Haar => 0,
        WaveletKind::Cdf53 => 1,
    }
}

pub(crate) fn kind_from_byte(b: u8) -> Result<(WaveletKind, bool), MediaError> {
    let color = b & COLOR_TRANSFORM_FLAG != 0;
    match b & !COLOR_TRANSFORM_FLAG {
        0 => Ok((WaveletKind::Haar, color)),
        1 => Ok((WaveletKind::Cdf53, color)),
        _ => Err(MediaError::Malformed("bad wavelet kind")),
    }
}

/// Extract the coder-input planes of `img`: level-shifted to signed
/// and, when `color_transform` is set (3-channel images only),
/// YCoCg-R-decorrelated with the luma plane shifted: per channel, the
/// plane [`wavelet::forward_2d_with`] transforms for
/// [`EzwEncoder::encode_plane_with`] to code.
pub fn prepare_planes(img: &Image, color_transform: bool) -> Result<Vec<Vec<i32>>, MediaError> {
    let mut planes = vec![Vec::new(); img.channels];
    prepare_planes_into(img, color_transform, &mut planes)?;
    Ok(planes)
}

/// [`prepare_planes`] into planes the caller keeps: channel `c` is
/// written over `planes[c]`, whatever it held, and the buffers grow
/// only past their capacity.
///
/// # Panics
/// Panics when `planes` has fewer entries than `img` has channels.
fn prepare_planes_into(
    img: &Image,
    color_transform: bool,
    planes: &mut [Vec<i32>],
) -> Result<(), MediaError> {
    if color_transform && img.channels != 3 {
        return Err(MediaError::BadDimensions(
            "color transform requires 3 channels".to_string(),
        ));
    }
    // Nothing is encoded that the header cannot say (two 16-bit
    // dimensions) or that the decoder would refuse.
    if img.width > u16::MAX as usize || img.height > u16::MAX as usize {
        return Err(MediaError::BadDimensions(format!(
            "{}x{} does not fit the plane header's 16-bit dimensions",
            img.width, img.height
        )));
    }
    if img.pixels() > MAX_PLANE_SAMPLES {
        return Err(MediaError::BadDimensions(format!(
            "{}x{} is over the {MAX_PLANE_SAMPLES}-sample plane cap",
            img.width, img.height
        )));
    }
    let planes = &mut planes[..img.channels];
    for (c, plane) in planes.iter_mut().enumerate() {
        plane.clear();
        plane.extend(
            img.data[c..]
                .iter()
                .step_by(img.channels)
                .map(|&v| i32::from(v)),
        );
    }
    if color_transform {
        let (r, rest) = planes.split_at_mut(1);
        let (g, b) = rest.split_at_mut(1);
        crate::color::forward_planes(&mut r[0], &mut g[0], &mut b[0]);
        // Level-shift luma only; chroma is already near-zero-centred.
        for v in planes[0].iter_mut() {
            *v -= 128;
        }
    } else {
        for plane in planes.iter_mut() {
            // Level-shift to signed, as standard for wavelet coding.
            for v in plane.iter_mut() {
                *v -= 128;
            }
        }
    }
    Ok(())
}

/// How many bytes of each channel stream a container of at most
/// `budget` bytes keeps, given the streams' full lengths: the budget
/// left after the container's framing, split in proportion to the
/// lengths and never below a plane header. The one statement of the
/// split — [`truncate_container`] cuts by it and a capped encode
/// ([`encode_image_capped`]) stops at it — so the two agree to the
/// byte. `None` keeps everything.
pub fn channel_keeps(lens: &[usize], budget: Option<usize>) -> Vec<usize> {
    let total = lens.iter().sum();
    lens.iter()
        .map(|&len| channel_keep(len, total, lens.len(), budget))
        .collect()
}

/// One channel's entry of [`channel_keeps`]: its stream is `len` bytes
/// of the `total` that `channels` streams hold.
fn channel_keep(len: usize, total: usize, channels: usize, budget: Option<usize>) -> usize {
    let Some(budget) = budget else {
        return len;
    };
    let payload_budget = budget.saturating_sub(CONTAINER_HEADER_LEN + 4 * channels);
    let share = (payload_budget * len).checked_div(total).unwrap_or(0);
    share.clamp(PLANE_HEADER_LEN.min(len), len)
}

/// Pack per-channel plane streams into a container:
/// `EZC1 | channels u8 | kind u8 | (len u32 | plane-stream)*`.
pub fn assemble_container(
    channels: usize,
    kind: WaveletKind,
    color_transform: bool,
    streams: &[Vec<u8>],
) -> Vec<u8> {
    assert_eq!(streams.len(), channels, "one stream per channel");
    let mut out = Vec::new();
    let streams = streams.iter().map(Vec::as_slice);
    assemble_container_into(&mut out, kind, color_transform, streams);
    out
}

/// [`assemble_container`] of the channel `streams`, into a buffer the
/// caller keeps: `out` is cleared, then holds the container; it grows
/// only past its capacity.
fn assemble_container_into<'a>(
    out: &mut Vec<u8>,
    kind: WaveletKind,
    color_transform: bool,
    streams: impl Iterator<Item = &'a [u8]> + Clone,
) {
    let (channels, body) = streams
        .clone()
        .fold((0, 0), |(n, body), s| (n + 1, body + s.len() + 4));
    out.clear();
    out.reserve_exact(CONTAINER_HEADER_LEN + body);
    out.extend_from_slice(CONTAINER_MAGIC);
    out.push(channels as u8);
    out.push(
        kind_to_byte(kind)
            | if color_transform {
                COLOR_TRANSFORM_FLAG
            } else {
                0
            },
    );
    for stream in streams {
        out.extend_from_slice(&(stream.len() as u32).to_be_bytes());
        out.extend_from_slice(stream);
    }
}

/// Encode a whole image: wavelet transform + EZW per channel, packed as
/// `EZC1 | channels u8 | kind u8 | (len u32 | plane-stream)*`.
pub fn encode_image(img: &Image, levels: usize, kind: WaveletKind) -> Result<Vec<u8>, MediaError> {
    encode_image_opts(img, levels, kind, false)
}

/// [`encode_image`] with options: `color_transform` applies reversible
/// YCoCg-R decorrelation before coding (3-channel images only), which
/// typically shrinks the stream on natural colour content and
/// front-loads quality into the luma plane.
pub fn encode_image_opts(
    img: &Image,
    levels: usize,
    kind: WaveletKind,
    color_transform: bool,
) -> Result<Vec<u8>, MediaError> {
    encode_image_capped(img, levels, kind, color_transform, None)
}

/// [`encode_image_opts`] under a rate cap: with `cap = Some(budget)`
/// the container is `truncate_container(&full, budget)` of the full
/// encode, byte for byte, but no bit past the cut is ever coded — every
/// channel is sized up first, the budget is split ([`channel_keeps`]),
/// and each channel's passes stop at its share. `None` runs the same
/// loop to the end. [`encode_image_capped_with`] on fresh scratch.
pub fn encode_image_capped(
    img: &Image,
    levels: usize,
    kind: WaveletKind,
    color_transform: bool,
    cap: Option<usize>,
) -> Result<Vec<u8>, MediaError> {
    let mut scratch = CodecScratch::new();
    encode_image_capped_with(img, levels, kind, color_transform, cap, &mut scratch)?;
    Ok(scratch.container)
}

/// [`encode_image_capped`] with caller-kept scratch: the same
/// container, byte for byte, whatever the scratch coded before. The
/// encoder is the first reader of what it writes: it prepares the
/// image's coefficient planes (what [`prepare_planes`] returns) in the
/// ones `scratch` keeps, overwriting what they held, and leaves in its
/// records what reading each channel stream would — so a decode of the
/// container, or of any cut of it, through `scratch` next
/// ([`decode_image_reduced_with`]) reads no symbol. The container is
/// assembled in `scratch` too, and the returned bytes borrow it. After
/// warm-up an encode allocates nothing.
pub fn encode_image_capped_with<'s>(
    img: &Image,
    levels: usize,
    kind: WaveletKind,
    color_transform: bool,
    cap: Option<usize>,
    scratch: &'s mut CodecScratch,
) -> Result<&'s [u8], MediaError> {
    check_levels(img, levels)?;
    if img.channels != 1 && img.channels != 3 {
        return Err(MediaError::BadDimensions(format!(
            "{} channels: a container holds 1 or 3",
            img.channels
        )));
    }
    let CodecScratch {
        ezw: es,
        wavelet: ws,
        records,
        planes,
        analyses,
        lens,
        container,
        ..
    } = scratch;
    prepare_planes_into(img, color_transform, planes)?;
    let (w, h, n) = (img.width, img.height, img.channels);
    let planes = &mut planes[..n];
    // Two rounds with the cap's split between them: how much of a
    // channel the cap keeps depends on every channel's length.
    lens.clear();
    lens.extend(
        planes
            .iter_mut()
            .zip(analyses.iter_mut())
            .map(|(plane, analysis)| {
                wavelet::forward_2d_with(plane, w, h, levels, kind, ws);
                EzwEncoder::measure_plane(plane, w, h, levels, analysis)
            }),
    );
    let total = lens.iter().sum();
    let records = &mut records[..n];
    let jobs = planes.iter().zip(analyses.iter()).zip(records.iter_mut());
    for (((plane, analysis), record), &len) in jobs.zip(lens.iter()) {
        let keep = channel_keep(len, total, n, cap);
        EzwEncoder::emit_plane_into(plane, analysis, keep, es, record);
    }
    let streams = records.iter().map(|record| record.stream.as_slice());
    assemble_container_into(container, kind, color_transform, streams);
    Ok(container)
}

/// Refuse a level count the image's dimensions do not support.
pub fn check_levels(img: &Image, levels: usize) -> Result<(), MediaError> {
    if levels == 0 || levels > wavelet::max_levels(img.width, img.height) {
        return Err(MediaError::BadDimensions(format!(
            "{}x{} does not support {} wavelet levels",
            img.width, img.height, levels
        )));
    }
    Ok(())
}

/// The channel streams of a container whose framing
/// [`container_streams`] has checked, in order.
#[derive(Clone)]
pub(crate) struct ChannelStreams<'a> {
    rest: &'a [u8],
    left: usize,
}

impl<'a> ChannelStreams<'a> {
    /// Length and bytes of the next stream, if both are all there.
    fn split(&self) -> Option<(&'a [u8], &'a [u8])> {
        let (len, tail) = self.rest.split_first_chunk::<4>()?;
        tail.split_at_checked(u32::from_be_bytes(*len) as usize)
    }
}

impl<'a> Iterator for ChannelStreams<'a> {
    type Item = &'a [u8];

    fn next(&mut self) -> Option<&'a [u8]> {
        self.left = self.left.checked_sub(1)?;
        let (stream, rest) = self.split().expect("framing checked when opened");
        self.rest = rest;
        Some(stream)
    }
}

/// Split a container into its header fields and channel streams,
/// checking every length against the bytes present.
pub(crate) fn container_streams(
    bytes: &[u8],
) -> Result<(usize, u8, ChannelStreams<'_>), MediaError> {
    if bytes.len() < CONTAINER_HEADER_LEN || &bytes[..4] != CONTAINER_MAGIC {
        return Err(MediaError::Malformed("bad container header"));
    }
    let channels = bytes[4] as usize;
    let streams = ChannelStreams {
        rest: &bytes[CONTAINER_HEADER_LEN..],
        left: channels,
    };
    let mut walk = streams.clone();
    for _ in 0..channels {
        if walk.rest.len() < 4 {
            return Err(MediaError::Malformed("truncated container"));
        }
        let Some((_, rest)) = walk.split() else {
            return Err(MediaError::Malformed("truncated channel stream"));
        };
        walk.rest = rest;
    }
    Ok((channels, bytes[5], streams))
}

/// Width and height the first plane of a container declares, checked
/// the way the decoder checks them but without decoding anything — for
/// a receiver that knows what size it was promised.
pub fn container_dimensions(bytes: &[u8]) -> Result<(usize, usize), MediaError> {
    let (_, _, mut streams) = container_streams(bytes)?;
    let first = streams
        .next()
        .ok_or(MediaError::Malformed("bad channel count"))?;
    let header = PlaneHeader::parse(first)?;
    Ok((header.w, header.h))
}

/// Everything a container encode or decode reuses from one call to the
/// next, in either direction: the EZW coder state (scan geometry, live
/// bitmap), the wavelet's half band and working lines, the coefficient
/// planes, and per channel the record of the last stream coded there,
/// read or written. An encode ([`encode_image_capped_with`]) also keeps
/// per channel its sizing-up ([`PlaneAnalysis`]) and length, and the
/// container it assembles; it prepares its planes here and leaves the
/// records of the streams it wrote. A receiver that keeps one and
/// decodes through [`decode_image_reduced_with`] allocates only the
/// image it returns — not even that, when it handed back an image at
/// least as large that nobody reads any more
/// ([`CodecScratch::recycle`]) — and pays for reading symbols at most
/// once per stream: a container whose channel streams are prefixes of
/// the recorded ones — a smaller packet budget's view of the same
/// shared object, or any view of the one just encoded — is replayed
/// from the records. What the planes hold between calls is not part of
/// the scratch's state: an encode or a decode overwrites every plane it
/// uses before reading it. The buffers stay the size of the largest
/// plane coded, which the plane-sample cap bounds.
#[derive(Default)]
pub struct CodecScratch {
    ezw: EzwScratch,
    wavelet: WaveletScratch,
    records: [PlaneRecord; 3],
    planes: [Vec<i32>; 3],
    /// A pixel buffer the next decode returns its image in, instead of
    /// allocating one ([`CodecScratch::recycle`]).
    pixels: Vec<u8>,
    replays: u64,
    /// An encode's per-channel sizing-up and stream lengths.
    analyses: [PlaneAnalysis; 3],
    lens: Vec<usize>,
    /// The container the last encode assembled.
    container: Vec<u8>,
}

impl CodecScratch {
    /// Empty scratch; buffers grow on first use.
    pub fn new() -> CodecScratch {
        CodecScratch::default()
    }

    /// Hand back an image nobody reads any more: the next decode on
    /// this scratch returns its image in `image`'s pixel buffer rather
    /// than a fresh one, and writes every byte of it first. Of two
    /// buffers recycled before a decode, the larger stays.
    pub fn recycle(&mut self, image: Image) {
        if image.data.capacity() > self.pixels.capacity() {
            self.pixels = image.data;
        }
    }

    /// Containers decoded without reading a symbol: every channel
    /// stream was a prefix of the one recorded for its channel. It
    /// counts what this scratch was asked in the order it was asked:
    /// the same containers shortest first replay nothing.
    pub fn replays(&self) -> u64 {
        self.replays
    }
}

/// Decode a container (channel streams may be internally truncated by
/// [`truncate_container`]; the container structure itself must be
/// intact).
pub fn decode_image(bytes: &[u8]) -> Result<Image, MediaError> {
    decode_image_reduced(bytes, 0)
}

/// Decode a container at reduced resolution: `drop_levels` finest
/// wavelet levels are discarded, yielding a `(w >> drop, h >> drop)`
/// image — the hierarchical representation of §5.4 where "each of the
/// users may access the same visual information but at different
/// resolutions". The skipped detail subbands also never need to be
/// reconstructed, so thin clients save decode work too.
pub fn decode_image_reduced(bytes: &[u8], drop_levels: usize) -> Result<Image, MediaError> {
    decode_image_reduced_with(bytes, drop_levels, &mut CodecScratch::new())
}

/// [`decode_image_reduced`] with caller-owned scratch: the same image,
/// bit for bit, whatever the scratch decoded before. What it decoded
/// before only decides the cost: a container that is a prefix, channel
/// by channel, of the last one read is replayed from the scratch's
/// records; anything else — longer, different, or the first — has its
/// symbols read, which replaces the records.
pub fn decode_image_reduced_with(
    bytes: &[u8],
    drop_levels: usize,
    scratch: &mut CodecScratch,
) -> Result<Image, MediaError> {
    let (channels, kind, streams) = container_streams(bytes)?;
    if channels != 1 && channels != 3 {
        return Err(MediaError::Malformed("bad channel count"));
    }
    let (kind, color) = kind_from_byte(kind)?;
    if color && channels != 3 {
        return Err(MediaError::Malformed("color transform on non-RGB"));
    }
    // Every header is checked, and the planes held to one shape,
    // before any plane is decoded: a plane's header sizes what its
    // decode allocates.
    let mut parts = [(PlaneHeader::default(), &bytes[..0]); 3];
    for (part, stream) in parts.iter_mut().zip(streams) {
        *part = (PlaneHeader::parse(stream)?, stream);
    }
    let parts = &parts[..channels];
    let first = parts[0].0;
    if parts.iter().any(|(p, _)| !p.same_shape(&first)) {
        return Err(MediaError::Malformed("channel geometry mismatch"));
    }
    let (w, h, levels) = (first.w, first.h, first.levels);
    if drop_levels > levels {
        return Err(MediaError::BadDimensions(format!(
            "cannot drop {drop_levels} of {levels} levels"
        )));
    }
    let CodecScratch {
        ezw: es,
        wavelet: ws,
        records,
        planes,
        pixels,
        replays,
        ..
    } = scratch;
    let planes = &mut planes[..channels];
    let mut read_symbols = false;
    for (i, &(header, stream)) in parts.iter().enumerate() {
        // A stream is read once: what is a prefix of the stream last
        // read for this channel — verified byte for byte, header and
        // all — comes out of that reading's record.
        let record = &mut records[i];
        if !record.covers(stream) {
            EzwDecoder::read_symbols(header, stream, es, record);
            read_symbols = true;
        }
        let coeffs = &mut planes[i];
        coeffs.clear();
        coeffs.resize(w * h, 0);
        record.scatter(stream.len(), es.geometry(w, h, levels), coeffs);
        wavelet::inverse_2d_partial_with(coeffs, w, h, levels, drop_levels, kind, ws);
        // Undo the level shift (luma only once decorrelated).
        if !color || i == 0 {
            for v in coeffs.iter_mut() {
                *v = v.wrapping_add(128);
            }
        }
    }
    *replays += !read_symbols as u64;
    if color {
        let (y, rest) = planes.split_at_mut(1);
        let (co, cg) = rest.split_at_mut(1);
        crate::color::inverse_planes(&mut y[0], &mut co[0], &mut cg[0]);
    }
    // The image goes into a recycled pixel buffer when there is one.
    // Every byte of it is written below — each channel of each pixel,
    // whole image or reduced corner — so whatever the buffer held
    // before cannot show through.
    let (rw, rh) = (w >> drop_levels, h >> drop_levels);
    let mut data = std::mem::take(pixels);
    data.resize(rw * rh * channels, 0);
    let mut img = Image {
        width: rw,
        height: rh,
        channels,
        data,
    };
    if drop_levels == 0 {
        for (c, plane) in planes.iter().enumerate() {
            img.set_plane(c, plane);
        }
        return Ok(img);
    }
    // The reduced image is the top-left corner of each plane.
    for (c, plane) in planes.iter().enumerate() {
        let rows = img.data.chunks_exact_mut(rw * channels);
        for (out, row) in rows.zip(plane.chunks_exact(w)) {
            for (px, &v) in out.chunks_exact_mut(channels).zip(&row[..rw]) {
                px[c] = v.clamp(0, 255) as u8;
            }
        }
    }
    Ok(img)
}

/// Build a valid container whose total size is at most `budget` bytes
/// by cutting each channel stream proportionally (never below its
/// header). This is how "receiving only k of n packets" is realised:
/// quality degrades gracefully across all channels instead of dropping
/// whole channels.
pub fn truncate_container(bytes: &[u8], budget: usize) -> Result<Vec<u8>, MediaError> {
    let (channels, _, streams) = container_streams(bytes)?;
    let total = streams.clone().map(<[u8]>::len).sum();
    let mut out = Vec::with_capacity(budget.min(bytes.len()));
    out.extend_from_slice(&bytes[..CONTAINER_HEADER_LEN]);
    for s in streams {
        let keep = channel_keep(s.len(), total, channels, Some(budget));
        out.extend_from_slice(&(keep as u32).to_be_bytes());
        out.extend_from_slice(&s[..keep]);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::image::synthetic_scene;
    use crate::metrics::psnr;
    use proptest::prelude::*;

    #[test]
    fn bit_writer_reader_round_trip() {
        let mut w = BitWriter::new();
        let pattern = [true, false, false, true, true, true, false, true, true];
        for &b in &pattern {
            w.push(b);
        }
        assert_eq!(w.len_bits(), 9);
        let bytes = w.into_bytes();
        assert_eq!(bytes.len(), 2);
        let mut r = BitReader::new(&bytes);
        for &b in &pattern {
            assert_eq!(r.next(), Some(b));
        }
        // Padding bits then exhaustion.
        for _ in 9..16 {
            assert!(r.next().is_some());
        }
        assert_eq!(r.next(), None);
    }

    #[test]
    fn bit_writer_matches_per_bit_packing_across_word_boundaries() {
        // Long pseudo-random sequences pushed as mixed-width symbols
        // must pack exactly like single-bit pushes (which in turn match
        // the pre-refactor byte-at-a-time writer).
        let mut state = 0x2545F4914F6CDD1Du64;
        let mut bits_expected = Vec::new();
        let mut batch = BitWriter::new();
        let mut single = BitWriter::new();
        for _ in 0..999 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let n = (state % 3) as u32 + 1; // 1..=3 bit symbols
            let pattern = (state >> 32) as u32 & ((1 << n) - 1);
            batch.push_bits(pattern, n);
            for i in (0..n).rev() {
                let bit = pattern & (1 << i) != 0;
                single.push(bit);
                bits_expected.push(bit);
            }
        }
        assert_eq!(batch.len_bits(), single.len_bits());
        let (batch, single) = (batch.into_bytes(), single.into_bytes());
        assert_eq!(batch, single);
        let mut r = BitReader::new(&batch);
        for (i, &b) in bits_expected.iter().enumerate() {
            assert_eq!(r.next(), Some(b), "bit {i}");
        }
    }

    #[test]
    fn bit_reader_peeks_symbols_across_refills_and_pads_the_tail() {
        // 19 bytes: two whole-word refills, then the byte-wise tail.
        let bytes: Vec<u8> = (0..19u32).map(|i| (i * 37 + 11) as u8).collect();
        let bit_at = |i: usize| (bytes[i / 8] >> (7 - i % 8)) & 1;
        let total = bytes.len() * 8;
        for width in [1u32, 2, 3, 7, 31, 56] {
            let mut r = BitReader::new(&bytes);
            let mut pos = 0usize;
            while pos < total {
                let got = r.peek(width);
                let mut want = 0u64;
                for i in 0..width as usize {
                    let bit = if pos + i < total { bit_at(pos + i) } else { 0 };
                    want = want << 1 | bit as u64;
                }
                assert_eq!(got, want, "width {width} at bit {pos}");
                let left = (total - pos).min(width as usize) as u32;
                assert!(r.buffered() >= left, "width {width} at bit {pos}");
                r.consume(left);
                pos += left as usize;
            }
            assert_eq!(r.buffered(), 0);
            assert_eq!(r.next(), None);
        }
    }

    #[test]
    fn geometry_scan_covers_everything_once() {
        let geo = Geometry::new(16, 16, 3);
        let mut seen = vec![false; 256];
        for &i in &geo.scan {
            assert!(!seen[i as usize], "duplicate {i}");
            seen[i as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    /// Shapiro's parent-child relation in plane coordinates — the
    /// definition the rank-space tables are derived from.
    fn children_by_coords(w: usize, h: usize, levels: usize, idx: usize) -> Vec<usize> {
        let (x, y) = (idx % w, idx / w);
        let (wl, hl) = (w >> levels, h >> levels);
        if x < wl && y < hl {
            vec![y * w + (x + wl), (y + hl) * w + x, (y + hl) * w + (x + wl)]
        } else if 2 * x < w && 2 * y < h {
            vec![
                2 * y * w + 2 * x,
                2 * y * w + 2 * x + 1,
                (2 * y + 1) * w + 2 * x,
                (2 * y + 1) * w + 2 * x + 1,
            ]
        } else {
            Vec::new()
        }
    }

    #[test]
    fn geometry_children_match_the_coordinate_definition() {
        for (w, h, levels) in [
            (32, 32, 3),
            (96, 32, 2),
            (24, 48, 1),
            (24, 48, 3),
            (8, 8, 3),
        ] {
            let geo = Geometry::new(w, h, levels);
            let mut kids = [0usize; 4];
            for (rank, &idx) in geo.scan.iter().enumerate() {
                let expected = children_by_coords(w, h, levels, idx as usize);
                assert_eq!(
                    rank < geo.parents(),
                    !expected.is_empty(),
                    "{w}x{h} L{levels} rank {rank}: parents come first"
                );
                if rank >= geo.parents() {
                    continue;
                }
                let n = geo.children(rank, &mut kids);
                let got: Vec<usize> = kids[..n].iter().map(|&k| geo.scan[k] as usize).collect();
                assert_eq!(got, expected, "{w}x{h} L{levels} rank {rank}");
                assert!(
                    kids[..n].iter().all(|&k| k > rank),
                    "a parent is scanned before its children"
                );
            }
        }
    }

    #[test]
    fn full_stream_decodes_losslessly() {
        let scene = synthetic_scene(32, 32, 1, 3, 11);
        let mut plane = scene.image.plane(0);
        for v in plane.iter_mut() {
            *v -= 128;
        }
        wavelet::forward_2d(&mut plane, 32, 32, 3, WaveletKind::Cdf53);
        let stream = EzwEncoder::encode_plane(&plane, 32, 32, 3);
        let decoded = EzwDecoder::decode_plane(&stream).unwrap();
        assert_eq!(decoded.coeffs, plane, "full embedded stream is lossless");
    }

    #[test]
    fn scratch_reuse_is_equivalent_to_fresh_scratch() {
        // Encoding planes of different shapes and contents through one
        // scratch must give the same bytes as fresh scratch per call
        // (stale stamps, lists, or geometry must never leak through).
        // The session's shape, then smaller ones, then it again: the
        // analysis keeps its buffers at the largest plane's size, and
        // what a smaller plane leaves past its own end is never read.
        let mut scratch = EzwScratch::new();
        for (w, h, levels, seed) in [
            (32, 32, 3, 1u64),
            (16, 16, 2, 2),
            (32, 32, 3, 3),
            (64, 32, 2, 4),
            (256, 256, 5, 7),
            (96, 192, 5, 8),
            (64, 64, 4, 9),
            (256, 256, 5, 10),
        ] {
            let scene = synthetic_scene(w, h, 1, 3, seed);
            let mut plane = scene.image.plane(0);
            for v in plane.iter_mut() {
                *v -= 128;
            }
            wavelet::forward_2d(&mut plane, w, h, levels, WaveletKind::Cdf53);
            let warm = EzwEncoder::encode_plane_with(&plane, w, h, levels, &mut scratch);
            let cold = EzwEncoder::encode_plane(&plane, w, h, levels);
            assert_eq!(warm, cold, "{w}x{h} L{levels} seed {seed}");
            let dwarm = EzwDecoder::decode_plane_with(&warm, &mut scratch).unwrap();
            let dcold = EzwDecoder::decode_plane(&cold).unwrap();
            assert_eq!(dwarm, dcold);
            assert_eq!(dwarm.coeffs, plane);
        }
        // The two directions share the geometry cache and the live set:
        // encode A, decode B, encode B, decode A, A and B of different
        // shapes, each step as through fresh scratch.
        let [a, b] = [(64, 32, 3, 5u64), (32, 64, 2, 6)].map(|(w, h, levels, seed)| {
            let scene = synthetic_scene(w.max(h), w.max(h), 1, 3, seed);
            let mut plane: Vec<i32> = scene.image.plane(0)[..w * h]
                .iter()
                .map(|v| v - 128)
                .collect();
            wavelet::forward_2d(&mut plane, w, h, levels, WaveletKind::Cdf53);
            let stream = EzwEncoder::encode_plane(&plane, w, h, levels);
            (w, h, levels, plane, stream)
        });
        for (encode, decode) in [(&a, &b), (&b, &a)] {
            let (w, h, levels, plane, stream) = encode;
            let warm = EzwEncoder::encode_plane_with(plane, *w, *h, *levels, &mut scratch);
            assert_eq!(&warm, stream, "encode {w}x{h} L{levels}");
            let (_, _, _, plane, stream) = decode;
            let dwarm = EzwDecoder::decode_plane_with(stream, &mut scratch).unwrap();
            assert_eq!(dwarm, EzwDecoder::decode_plane(stream).unwrap());
            assert_eq!(&dwarm.coeffs, plane);
        }
    }

    #[test]
    fn all_zero_plane_is_tiny() {
        let plane = vec![0i32; 64 * 64];
        let stream = EzwEncoder::encode_plane(&plane, 64, 64, 4);
        assert_eq!(stream.len(), PLANE_HEADER_LEN);
        let decoded = EzwDecoder::decode_plane(&stream).unwrap();
        assert!(decoded.coeffs.iter().all(|&c| c == 0));
    }

    #[test]
    fn any_prefix_decodes_and_quality_is_monotone() {
        let scene = synthetic_scene(64, 64, 1, 4, 3);
        let container = encode_image(&scene.image, 4, WaveletKind::Cdf53).unwrap();
        let full = decode_image(&container).unwrap();
        assert_eq!(full.data, scene.image.data, "full container lossless");

        let mut last_psnr = 0.0;
        for frac in [0.05, 0.1, 0.25, 0.5, 1.0] {
            let budget = (container.len() as f64 * frac) as usize;
            let cut = truncate_container(&container, budget).unwrap();
            assert!(cut.len() <= container.len());
            let img = decode_image(&cut).unwrap();
            let q = psnr(&scene.image, &img);
            assert!(
                q >= last_psnr - 0.9,
                "PSNR should be (weakly) monotone: {q:.2} after {last_psnr:.2} at {frac}"
            );
            last_psnr = q;
        }
        assert!(last_psnr.is_infinite(), "100% prefix is lossless");
    }

    #[test]
    fn tiny_prefix_still_reconstructs_something() {
        let scene = synthetic_scene(64, 64, 1, 4, 5);
        let container = encode_image(&scene.image, 4, WaveletKind::Cdf53).unwrap();
        let cut = truncate_container(&container, 40).unwrap();
        let img = decode_image(&cut).unwrap();
        let q = psnr(&scene.image, &img);
        assert!(q > 5.0, "even ~40 bytes give a coarse image, got {q:.2} dB");
    }

    #[test]
    fn color_image_round_trip_and_truncation() {
        let scene = synthetic_scene(32, 32, 3, 3, 8);
        let container = encode_image(&scene.image, 3, WaveletKind::Cdf53).unwrap();
        let full = decode_image(&container).unwrap();
        assert_eq!(full.data, scene.image.data);
        let cut = truncate_container(&container, container.len() / 3).unwrap();
        let img = decode_image(&cut).unwrap();
        assert_eq!(img.channels, 3);
        assert!(psnr(&scene.image, &img) > 15.0);
    }

    #[test]
    fn color_transform_is_lossless_and_usually_smaller() {
        let scene = synthetic_scene(64, 64, 3, 4, 19);
        let plain = encode_image(&scene.image, 4, WaveletKind::Cdf53).unwrap();
        let transformed = encode_image_opts(&scene.image, 4, WaveletKind::Cdf53, true).unwrap();
        assert_eq!(
            decode_image(&transformed).unwrap().data,
            scene.image.data,
            "YCoCg-R path is lossless"
        );
        // Synthetic scenes have strongly correlated channels: the
        // decorrelated stream should not be larger (and usually wins).
        assert!(
            transformed.len() <= plain.len() + plain.len() / 20,
            "transformed {} vs plain {}",
            transformed.len(),
            plain.len()
        );
    }

    #[test]
    fn color_transform_truncation_still_decodes() {
        let scene = synthetic_scene(64, 64, 3, 4, 20);
        let c = encode_image_opts(&scene.image, 4, WaveletKind::Cdf53, true).unwrap();
        let cut = truncate_container(&c, c.len() / 3).unwrap();
        let img = decode_image(&cut).unwrap();
        assert_eq!(img.channels, 3);
        assert!(psnr(&scene.image, &img) > 15.0);
    }

    #[test]
    fn color_transform_rejected_on_grayscale() {
        let scene = synthetic_scene(32, 32, 1, 1, 0);
        assert!(encode_image_opts(&scene.image, 2, WaveletKind::Haar, true).is_err());
        assert!(prepare_planes(&scene.image, true).is_err());
    }

    #[test]
    fn haar_also_round_trips() {
        let scene = synthetic_scene(32, 32, 1, 2, 21);
        let container = encode_image(&scene.image, 3, WaveletKind::Haar).unwrap();
        assert_eq!(decode_image(&container).unwrap().data, scene.image.data);
    }

    #[test]
    fn compression_beats_raw_on_structured_content() {
        let scene = synthetic_scene(128, 128, 1, 4, 13);
        let container = encode_image(&scene.image, 5, WaveletKind::Cdf53).unwrap();
        assert!(
            container.len() < scene.image.byte_len(),
            "embedded stream {} should undercut raw {}",
            container.len(),
            scene.image.byte_len()
        );
    }

    #[test]
    fn split_encode_steps_match_encode_image_opts() {
        // prepare_planes, then per plane the forward and the plane
        // encoder, then assemble_container: the bytes must be
        // encode_image_opts's for any channel/transform combo.
        for (channels, color) in [(1, false), (3, false), (3, true)] {
            let scene = synthetic_scene(32, 32, channels, 3, 17);
            let whole = encode_image_opts(&scene.image, 3, WaveletKind::Cdf53, color).unwrap();
            let mut planes = prepare_planes(&scene.image, color).unwrap();
            let mut ws = WaveletScratch::new();
            let mut es = EzwScratch::new();
            let streams: Vec<Vec<u8>> = planes
                .iter_mut()
                .map(|p| {
                    wavelet::forward_2d_with(p, 32, 32, 3, WaveletKind::Cdf53, &mut ws);
                    EzwEncoder::encode_plane_with(p, 32, 32, 3, &mut es)
                })
                .collect();
            let split = assemble_container(channels, WaveletKind::Cdf53, color, &streams);
            assert_eq!(split, whole, "channels={channels} color={color}");
        }
        // One kept scratch, both directions, through encodes that
        // change, one after another, the channel count (3 → 1 → 3), the
        // size, the level count, the wavelet, the colour transform and
        // the cap (none, below a plane header, mid-stream). Before each
        // encode the scratch decodes a container of another shape and
        // channel count, so its coder state, wavelet lines, planes and
        // records are another image's when the encoder starts: nothing
        // left from a decode or an earlier encode reaches the next, and
        // a decode through the scratch replays what the encode recorded.
        let mut scratch = CodecScratch::new();
        let dirty = |channels, w, h, levels, kind, color| {
            let scene = synthetic_scene(w, h, channels, 4, 99);
            encode_image_opts(&scene.image, levels, kind, color).unwrap()
        };
        let grey = dirty(1, 80, 40, 3, WaveletKind::Haar, false);
        let colour = dirty(3, 40, 24, 2, WaveletKind::Cdf53, true);
        let (below_a_header, headers_and_a_little) =
            (Some(PLANE_HEADER_LEN - 1), Some(CONTAINER_HEADER_LEN + 20));
        for (channels, w, h, levels, kind, color, cap) in [
            (3, 64, 64, 4, WaveletKind::Cdf53, true, None),
            (3, 64, 64, 4, WaveletKind::Cdf53, true, Some(2_000)),
            (1, 32, 48, 3, WaveletKind::Haar, false, below_a_header),
            (1, 96, 64, 5, WaveletKind::Cdf53, false, None),
            (3, 48, 32, 2, WaveletKind::Haar, false, Some(300)),
            (3, 16, 16, 1, WaveletKind::Cdf53, true, headers_and_a_little),
            (3, 128, 64, 4, WaveletKind::Cdf53, true, None),
        ] {
            let other = if channels == 3 { &grey } else { &colour };
            let view = decode_image_reduced_with(other, 0, &mut scratch).unwrap();
            assert!(view == decode_image(other).unwrap());
            let scene = synthetic_scene(w, h, channels, 3, (w + h + levels) as u64);
            let fresh = encode_image_capped(&scene.image, levels, kind, color, cap).unwrap();
            let kept =
                encode_image_capped_with(&scene.image, levels, kind, color, cap, &mut scratch)
                    .unwrap();
            let what = format!("{channels}ch {w}x{h} L{levels} {kind:?} {color} {cap:?}");
            assert!(kept == fresh, "{what}");
            let replays = scratch.replays();
            let view = decode_image_reduced_with(&fresh, 0, &mut scratch).unwrap();
            assert!(view == decode_image(&fresh).unwrap(), "{what}");
            assert_eq!(scratch.replays(), replays + 1, "{what}: no symbol read");
        }
        let four = Image {
            channels: 4,
            ..Image::new(8, 8, 1)
        };
        assert!(encode_image_capped(&four, 1, WaveletKind::Haar, false, None).is_err());
    }

    #[test]
    fn reduced_resolution_decode_matches_downsample() {
        let scene = synthetic_scene(64, 64, 1, 3, 14);
        let container = encode_image(&scene.image, 4, WaveletKind::Haar).unwrap();
        let half = decode_image_reduced(&container, 1).unwrap();
        assert_eq!((half.width, half.height), (32, 32));
        // The Haar LL band is (approximately) the box-downsampled image.
        let reference = scene.image.downsample(2);
        let q = psnr(&reference, &half);
        assert!(q > 40.0, "half-res decode ~= 2x downsample, got {q:.1} dB");
        // Quarter resolution too.
        let quarter = decode_image_reduced(&container, 2).unwrap();
        assert_eq!((quarter.width, quarter.height), (16, 16));
        assert!(psnr(&scene.image.downsample(4), &quarter) > 30.0);
    }

    #[test]
    fn reduced_decode_of_zero_drop_is_normal_decode() {
        let scene = synthetic_scene(32, 32, 3, 2, 6);
        let container = encode_image(&scene.image, 3, WaveletKind::Cdf53).unwrap();
        let full = decode_image_reduced(&container, 0).unwrap();
        assert_eq!(full.data, scene.image.data);
    }

    #[test]
    fn reduced_decode_rejects_excess_drop() {
        let scene = synthetic_scene(32, 32, 1, 1, 0);
        let container = encode_image(&scene.image, 2, WaveletKind::Haar).unwrap();
        assert!(decode_image_reduced(&container, 3).is_err());
    }

    #[test]
    fn malformed_streams_rejected() {
        assert!(EzwDecoder::decode_plane(b"nope").is_err());
        assert!(decode_image(b"EZC1").is_err());
        let scene = synthetic_scene(16, 16, 1, 1, 0);
        let mut container = encode_image(&scene.image, 2, WaveletKind::Cdf53).unwrap();
        container[4] = 7; // bad channel count
        assert!(decode_image(&container).is_err());
    }

    /// The plane header says each dimension in 16 bits; 65 538 x 2 is
    /// inside the sample cap and used to encode "successfully" as 2 x 2.
    #[test]
    fn an_image_wider_than_the_header_can_say_is_refused() {
        for (w, h) in [(65_538, 2), (2, 65_538)] {
            let img = Image::new(w, h, 1);
            assert!(img.pixels() <= MAX_PLANE_SAMPLES);
            for refused in [
                prepare_planes(&img, false).map(drop),
                encode_image_opts(&img, 1, WaveletKind::Haar, false).map(drop),
                encode_image_capped(&img, 1, WaveletKind::Haar, false, Some(64)).map(drop),
            ] {
                assert!(
                    matches!(refused, Err(MediaError::BadDimensions(_))),
                    "{w}x{h}: {refused:?}"
                );
            }
        }
        // The widest the header can say still goes through.
        let img = Image::new(65_534, 2, 1);
        let c = encode_image_opts(&img, 1, WaveletKind::Haar, false).unwrap();
        assert_eq!(container_dimensions(&c).unwrap(), (65_534, 2));
    }

    /// One plane, every keep: stopping the passes at `keep` writes the
    /// first `keep` bytes of the full stream, and the length sized up
    /// beforehand is the length written.
    #[test]
    fn emitting_to_a_keep_is_a_prefix_of_the_full_stream() {
        let mut analysis = PlaneAnalysis::new();
        let mut es = EzwScratch::new();
        for (side, levels, seed) in [(32, 3, 11u64), (16, 2, 12), (64, 1, 13)] {
            let scene = synthetic_scene(side, side, 1, 3, seed);
            let mut plane = scene.image.plane(0);
            for v in plane.iter_mut() {
                *v -= 128;
            }
            wavelet::forward_2d(&mut plane, side, side, levels, WaveletKind::Cdf53);
            let full = EzwEncoder::encode_plane(&plane, side, side, levels);
            let len = EzwEncoder::measure_plane(&plane, side, side, levels, &mut analysis);
            assert_eq!(len, full.len(), "{side}x{side} L{levels}");
            for keep in 0..=full.len() + 3 {
                let got = EzwEncoder::emit_plane(&plane, &analysis, keep, &mut es);
                let want = &full[..keep.clamp(PLANE_HEADER_LEN, full.len())];
                assert!(got == want, "{side}x{side} L{levels} keep {keep}");
            }
        }
    }

    #[test]
    fn channel_keeps_never_cut_into_a_header_or_past_a_stream() {
        let lens = [500usize, PLANE_HEADER_LEN, 90];
        assert_eq!(channel_keeps(&lens, None), lens);
        for budget in 0..700 {
            let keeps = channel_keeps(&lens, Some(budget));
            for (&keep, &len) in keeps.iter().zip(&lens) {
                assert!((PLANE_HEADER_LEN..=len).contains(&keep), "budget {budget}");
            }
            // Within the budget, but for the framing and the headers
            // it may not cut.
            let framing = CONTAINER_HEADER_LEN + 4 * lens.len();
            let framed = framing + keeps.iter().sum::<usize>();
            assert!(
                framed <= budget.max(framing) + lens.len() * PLANE_HEADER_LEN,
                "budget {budget}: {framed} bytes"
            );
        }
        assert_eq!(channel_keeps(&lens, Some(10_000)), lens);
    }

    #[test]
    fn encoder_rejects_bad_levels() {
        let scene = synthetic_scene(16, 16, 1, 1, 0);
        assert!(encode_image(&scene.image, 0, WaveletKind::Haar).is_err());
        assert!(encode_image(&scene.image, 9, WaveletKind::Haar).is_err());
    }

    /// `measure_plane` refuses a level count its shape cannot have, as
    /// `emit_plane` would, instead of sizing up a stream nothing writes.
    #[test]
    #[should_panic(expected = "8x8 does not support 0 wavelet levels")]
    fn measure_plane_refuses_zero_levels() {
        EzwEncoder::measure_plane(&[1; 64], 8, 8, 0, &mut PlaneAnalysis::new());
    }

    #[test]
    #[should_panic(expected = "8x8 does not support 4 wavelet levels")]
    fn measure_plane_refuses_more_levels_than_the_shape_has() {
        EzwEncoder::measure_plane(&[1; 64], 8, 8, 4, &mut PlaneAnalysis::new());
    }

    /// A random coefficient plane: sparse or dense, small magnitudes or
    /// spanning twenty bit-planes, so zerotrees, isolated zeros and
    /// long refinement tails all occur.
    fn arb_plane() -> impl Strategy<Value = (usize, usize, usize, Vec<i32>)> {
        (0usize..4, 0usize..4, 0u32..=20, 1u32..=8).prop_flat_map(|(wi, hi, bits, sparsity)| {
            let dims = [8usize, 16, 24, 32];
            let (w, h) = (dims[wi], dims[hi]);
            let coeff =
                (any::<i32>(), 0..sparsity).prop_map(
                    move |(v, keep)| {
                        if keep == 0 {
                            v >> (31 - bits)
                        } else {
                            0
                        }
                    },
                );
            (
                Just(w),
                Just(h),
                1usize..=wavelet::max_levels(w, h),
                proptest::collection::vec(coeff, w * h..w * h + 1),
            )
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The closed form against the emitted stream: the length
        /// sized up from the bit positions alone is the length the
        /// passes write, and any keep below it is that stream's prefix.
        #[test]
        fn measured_length_is_emitted_length(
            (w, h, levels, coeffs) in arb_plane(),
            keep_ppm in 0usize..=1_000_000,
        ) {
            let mut analysis = PlaneAnalysis::new();
            let mut es = EzwScratch::new();
            let len = EzwEncoder::measure_plane(&coeffs, w, h, levels, &mut analysis);
            let full = EzwEncoder::emit_plane(&coeffs, &analysis, len, &mut es);
            prop_assert_eq!(full.len(), len, "{}x{} L{}", w, h, levels);
            prop_assert_eq!(&full, &crate::reference::encode_plane(&coeffs, w, h, levels));
            let keep = len * keep_ppm / 1_000_000;
            let cut = EzwEncoder::emit_plane(&coeffs, &analysis, keep, &mut es);
            prop_assert_eq!(&cut[..], &full[..keep.max(PLANE_HEADER_LEN)], "keep {}", keep);
        }
    }

    /// A random image: grey or colour, 8 to 32 a side, a base level
    /// plus noise of `8 - flat` bits — at `flat == 8` a flat image, all
    /// of whose planes but a colour one's luma are all zero.
    fn arb_image() -> impl Strategy<Value = Image> {
        let shape = (0usize..4, 0usize..4, prop_oneof![Just(1usize), Just(3)]);
        (shape, 0u32..=8, any::<u8>()).prop_flat_map(|((wi, hi, channels), flat, base)| {
            let dims = [8usize, 16, 24, 32];
            let (w, h) = (dims[wi], dims[hi]);
            let n = w * h * channels;
            proptest::collection::vec(any::<u8>(), n..n + 1).prop_map(move |noise| {
                let mut img = Image::new(w, h, channels);
                for (px, v) in img.data.iter_mut().zip(noise) {
                    *px = base.wrapping_add((u32::from(v) >> flat) as u8);
                }
                img
            })
        })
    }

    /// The coefficients `record` gives for the first `len` bytes of its
    /// stream.
    fn scattered(record: &PlaneRecord, len: usize, es: &mut EzwScratch) -> Vec<i32> {
        let header = PlaneHeader::parse(&record.stream).expect("a recorded stream");
        let mut coeffs = vec![0; header.w * header.h];
        record.scatter(
            len,
            es.geometry(header.w, header.h, header.levels),
            &mut coeffs,
        );
        coeffs
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The record an encode leaves is, for every prefix of every
        /// channel stream, the record reading the stream builds: both
        /// give the same coefficients. Grey and colour, both wavelets,
        /// every level count, and caps of none, below a plane header,
        /// the headers alone, the headers and 20 bytes, and mid-stream.
        #[test]
        fn the_encoders_record_replays_as_reading_the_stream_does(
            img in arb_image(),
            haar in any::<bool>(),
            color in any::<bool>(),
            levels_pct in 0usize..100,
            cap_pick in 0usize..5,
            mid_ppm in 0usize..=1_000_000,
        ) {
            let kind = if haar { WaveletKind::Haar } else { WaveletKind::Cdf53 };
            let color = color && img.channels == 3;
            let levels = 1 + levels_pct * wavelet::max_levels(img.width, img.height) / 100;
            let headers = CONTAINER_HEADER_LEN + img.channels * (4 + PLANE_HEADER_LEN);
            let full = encode_image_opts(&img, levels, kind, color).unwrap();
            let cap = [
                None,
                Some(PLANE_HEADER_LEN - 1),
                Some(headers),
                Some(headers + 20),
                Some(full.len() * mid_ppm / 1_000_000),
            ][cap_pick];
            let mut scratch = CodecScratch::new();
            let sent = encode_image_capped_with(&img, levels, kind, color, cap, &mut scratch)
                .unwrap()
                .to_vec();
            let (_, _, streams) = container_streams(&sent).unwrap();
            let mut es = EzwScratch::new();
            let mut read = PlaneRecord::default();
            for (c, stream) in streams.enumerate() {
                let written = &scratch.records[c];
                prop_assert!(written.covers(stream) && stream.len() == written.stream.len());
                let header = PlaneHeader::parse(stream).unwrap();
                EzwDecoder::read_symbols(header, stream, &mut es, &mut read);
                for len in PLANE_HEADER_LEN..=stream.len() {
                    prop_assert!(
                        scattered(written, len, &mut es) == scattered(&read, len, &mut es),
                        "channel {} cut to {} of {} bytes, cap {:?}", c, len, stream.len(), cap
                    );
                }
            }
        }
    }
}

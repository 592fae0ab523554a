//! Firmware images: versioned byte blobs split into pages of
//! packet-sized chunks, integrity-checked with CRC-32.
//!
//! The unit of transfer over the air is a *chunk* (one MAC payload);
//! the unit of request/verification is a *page* (a fixed number of
//! chunks with its own CRC); the unit of activation is the whole
//! *image* (whole-image CRC checked at the end). This mirrors Deluge's
//! page/packet decomposition: pages bound the receiver's bitmap state
//! and let a node start serving its neighbours before it holds the
//! whole image.

/// The reflected IEEE 802.3 generator polynomial.
const POLY: u32 = 0xEDB8_8320;

/// Slice-by-8 lookup tables, built at compile time. `TABLES[0][b]` is
/// the CRC register after shifting byte `b` through eight bitwise
/// steps; `TABLES[k][b]` is the same byte followed by `k` zero bytes,
/// which is what lets eight input bytes be folded in one step.
static TABLES: [[u32; 256]; 8] = crc_tables();

const fn crc_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut b = 0;
    while b < 256 {
        let mut crc = b as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = (crc >> 1) ^ (POLY & (crc & 1).wrapping_neg());
            bit += 1;
        }
        t[0][b] = crc;
        b += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut b = 0;
        while b < 256 {
            let prev = t[k - 1][b];
            t[k][b] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            b += 1;
        }
        k += 1;
    }
    t
}

/// CRC-32 (IEEE 802.3, reflected polynomial `0xEDB8_8320`). The
/// *value* is the one a flash bootloader's table-free bitwise loop
/// produces (`crc32(b"123456789") == 0xCBF4_3926`); the host computes
/// it eight bytes at a time from an 8 KiB table built at compile time.
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    let mut chunks = data.chunks_exact(8);
    for c in &mut chunks {
        let lo = crc ^ u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
        crc = TABLES[7][(lo & 0xFF) as usize]
            ^ TABLES[6][(lo >> 8 & 0xFF) as usize]
            ^ TABLES[5][(lo >> 16 & 0xFF) as usize]
            ^ TABLES[4][(lo >> 24) as usize]
            ^ TABLES[3][c[4] as usize]
            ^ TABLES[2][c[5] as usize]
            ^ TABLES[1][c[6] as usize]
            ^ TABLES[0][c[7] as usize];
    }
    let mut rest = chunks.remainder();
    if let [b0, b1, b2, b3, ref more @ ..] = *rest {
        // One shorter step: the register folds into the first four of the
        // bytes left, and byte `j` is followed by `rest.len() - 1 - j` more.
        let lo = (crc ^ u32::from_le_bytes([b0, b1, b2, b3])).to_le_bytes();
        crc = 0;
        for (j, &b) in lo.iter().chain(more).enumerate() {
            crc ^= TABLES[rest.len() - 1 - j][b as usize];
        }
        rest = &[];
    }
    for &b in rest {
        crc = (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

/// Fixed-size description of an image: everything a node needs to
/// judge advertisements and allocate flash, small enough to ride in
/// every ADV packet.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ImageMeta {
    /// Monotonic image version; `0` means "no image".
    pub version: u32,
    /// Total image length in bytes.
    pub len: u32,
    /// Bytes per chunk (one chunk per DATA packet).
    pub chunk_len: u8,
    /// Chunks per page (at most 64 — page bitmaps are `u64`s).
    pub page_chunks: u8,
    /// CRC-32 of the whole image.
    pub crc: u32,
}

impl ImageMeta {
    /// Bytes covered by one full page.
    pub fn page_len(&self) -> u32 {
        self.chunk_len as u32 * self.page_chunks as u32
    }

    /// Number of pages (the last may be partial).
    pub fn pages(&self) -> u32 {
        if self.len == 0 {
            0
        } else {
            self.len.div_ceil(self.page_len())
        }
    }

    /// Number of chunks actually present in `page` (the tail page may
    /// hold fewer than `page_chunks`).
    pub fn chunks_in_page(&self, page: u32) -> u8 {
        let start = page * self.page_len();
        let bytes = self.len.saturating_sub(start).min(self.page_len());
        bytes.div_ceil(self.chunk_len as u32) as u8
    }

    /// Byte range of `chunk` within `page`, clamped to the image tail.
    fn chunk_range(&self, page: u32, chunk: u8) -> (usize, usize) {
        let start = (page * self.page_len() + chunk as u32 * self.chunk_len as u32) as usize;
        let end = (start + self.chunk_len as usize).min(self.len as usize);
        (start, end)
    }
}

/// A complete firmware image held by a source (the gateway, or a node
/// that finished downloading): metadata plus the full payload.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Image {
    meta: ImageMeta,
    data: Vec<u8>,
}

impl Image {
    /// Builds an image from raw bytes. `chunk_len` must fit a MAC
    /// payload net of the 11-byte DATA header; `page_chunks ≤ 64`.
    ///
    /// # Panics
    ///
    /// Panics on a zero `version`, empty `data`, zero `chunk_len` or
    /// `page_chunks` outside `1..=64`.
    pub fn build(version: u32, data: Vec<u8>, chunk_len: u8, page_chunks: u8) -> Self {
        assert!(version > 0, "version 0 means 'no image'");
        assert!(!data.is_empty(), "empty image");
        assert!(chunk_len > 0, "zero chunk length");
        assert!((1..=64).contains(&page_chunks), "page bitmap is a u64");
        let meta = ImageMeta {
            version,
            len: data.len() as u32,
            chunk_len,
            page_chunks,
            crc: crc32(&data),
        };
        Image { meta, data }
    }

    /// Flips one payload byte *after* the CRC was computed: the image
    /// advertises and transfers normally but fails verification on
    /// arrival. Models a corrupted build escaping the backend.
    pub fn poisoned(mut self) -> Self {
        let mid = self.data.len() / 2;
        self.data[mid] ^= 0xFF;
        self
    }

    /// The image metadata.
    pub fn meta(&self) -> ImageMeta {
        self.meta
    }

    /// The full payload.
    pub fn data(&self) -> &[u8] {
        &self.data
    }

    /// The bytes of one chunk (tail chunks may be short), or `None`
    /// past the end of the page.
    pub fn chunk(&self, page: u32, chunk: u8) -> Option<&[u8]> {
        if page >= self.meta.pages() || chunk >= self.meta.chunks_in_page(page) {
            return None;
        }
        let (s, e) = self.meta.chunk_range(page, chunk);
        Some(&self.data[s..e])
    }

    /// CRC-32 of one page's bytes.
    pub fn page_crc(&self, page: u32) -> u32 {
        let s = (page * self.meta.page_len()) as usize;
        let e = (s + self.meta.page_len() as usize).min(self.data.len());
        crc32(&self.data[s..e])
    }

    /// Serializes metadata + payload for transport over the backbone
    /// (CoAP blockwise): `[version, len, chunk_len, page_chunks, crc]`
    /// big-endian, then the raw bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(14 + self.data.len());
        out.extend_from_slice(&self.meta.version.to_be_bytes());
        out.extend_from_slice(&self.meta.len.to_be_bytes());
        out.push(self.meta.chunk_len);
        out.push(self.meta.page_chunks);
        out.extend_from_slice(&self.meta.crc.to_be_bytes());
        out.extend_from_slice(&self.data);
        out
    }

    /// Inverse of [`encode`](Image::encode). The declared CRC is
    /// *trusted*, not recomputed — exactly like a real pipeline, a
    /// poisoned image decodes fine and is only caught by receivers.
    pub fn decode(bytes: &[u8]) -> Option<Self> {
        if bytes.len() < 14 {
            return None;
        }
        let version = u32::from_be_bytes(bytes[0..4].try_into().ok()?);
        let len = u32::from_be_bytes(bytes[4..8].try_into().ok()?);
        let chunk_len = bytes[8];
        let page_chunks = bytes[9];
        let crc = u32::from_be_bytes(bytes[10..14].try_into().ok()?);
        let data = bytes[14..].to_vec();
        if version == 0
            || data.len() != len as usize
            || chunk_len == 0
            || !(1..=64).contains(&page_chunks)
        {
            return None;
        }
        let meta = ImageMeta {
            version,
            len,
            chunk_len,
            page_chunks,
            crc,
        };
        Some(Image { meta, data })
    }
}

/// How many chunks of `page` are still missing, as a bitmap with bit
/// `i` set for each missing chunk `i`.
pub fn missing_mask(meta: &ImageMeta, page: u32, have: impl Fn(u8) -> bool) -> u64 {
    let n = meta.chunks_in_page(page);
    let mut mask = 0u64;
    for c in 0..n {
        if !have(c) {
            mask |= 1 << c;
        }
    }
    mask
}

/// Bytes of external flash a mote sets aside for one image.
const FLASH_CAPACITY: u32 = 1 << 20;

/// Per-node flash image store: survives [`Proto::crashed`] (RAM loss)
/// but is erased by [`Proto::wiped`] (full state loss).
///
/// [`Proto::crashed`]: iiot_sim::Proto::crashed
/// [`Proto::wiped`]: iiot_sim::Proto::wiped
#[derive(Clone, Debug, Default)]
pub struct PageStore {
    meta: Option<ImageMeta>,
    data: Vec<u8>,
    page_done: Vec<bool>,
    verdict: Option<bool>,
}

impl PageStore {
    /// An empty store ("no image").
    pub fn new() -> Self {
        Self::default()
    }

    /// Begins (or restarts) a download of the described image,
    /// discarding any previous content. An image larger than the flash
    /// is refused — `false`, the store untouched: `meta` may be a
    /// forged advertisement, and its `len` sizes two allocations.
    #[must_use]
    pub fn begin(&mut self, meta: ImageMeta) -> bool {
        if meta.len > FLASH_CAPACITY {
            return false;
        }
        self.meta = Some(meta);
        self.data = vec![0; meta.len as usize];
        self.page_done = vec![false; meta.pages() as usize];
        self.verdict = None;
        true
    }

    /// Installs a complete image wholesale, *trusting* it (the
    /// gateway-side injection path: the backend vouches for its own
    /// build, so the store serves it without re-verification — which
    /// is exactly how a poisoned build escapes into the network).
    /// Returns whether the declared CRC actually matches, purely as
    /// information for the caller; a build that does not fit the flash
    /// is not installed at all.
    pub fn install(&mut self, image: &Image) -> bool {
        if !self.begin(image.meta()) {
            return false;
        }
        self.data.copy_from_slice(image.data());
        for p in self.page_done.iter_mut() {
            *p = true;
        }
        let matches = crc32(&self.data) == image.meta().crc;
        self.verdict = Some(true);
        matches
    }

    /// Erases everything — the [`wiped`](iiot_sim::Proto::wiped) path.
    pub fn wipe(&mut self) {
        *self = Self::default();
    }

    /// Metadata of the image being downloaded (or held), if any.
    pub fn meta(&self) -> Option<ImageMeta> {
        self.meta
    }

    /// The advertised version (0 if the store is empty).
    pub fn version(&self) -> u32 {
        self.meta.map_or(0, |m| m.version)
    }

    /// Number of verified pages held.
    pub fn have_pages(&self) -> u32 {
        self.page_done.iter().filter(|&&d| d).count() as u32
    }

    /// Lowest page index not yet verified (pages are fetched in
    /// order, Deluge-style), or `None` when every page is done.
    pub fn first_missing_page(&self) -> Option<u32> {
        self.page_done.iter().position(|&d| !d).map(|p| p as u32)
    }

    /// Whether `page` is verified.
    pub fn page_is_done(&self, page: u32) -> bool {
        self.page_done.get(page as usize).copied().unwrap_or(false)
    }

    /// Writes one received chunk into flash.
    pub fn write_chunk(&mut self, page: u32, chunk: u8, bytes: &[u8]) {
        let Some(meta) = self.meta else { return };
        if page >= meta.pages() || chunk >= meta.chunks_in_page(page) {
            return;
        }
        let (s, e) = meta.chunk_range(page, chunk);
        let n = bytes.len().min(e - s);
        self.data[s..s + n].copy_from_slice(&bytes[..n]);
    }

    /// Checks `page` against `crc`; marks it done on a match.
    pub fn verify_page(&mut self, page: u32, crc: u32) -> bool {
        let Some(meta) = self.meta else { return false };
        if page >= meta.pages() {
            return false;
        }
        let s = (page * meta.page_len()) as usize;
        let e = (s + meta.page_len() as usize).min(self.data.len());
        let ok = crc32(&self.data[s..e]) == crc;
        if ok {
            self.page_done[page as usize] = true;
        }
        ok
    }

    /// The bytes of one *verified* chunk, for serving a neighbour's
    /// request; `None` while its page is unverified.
    pub fn chunk(&self, page: u32, chunk: u8) -> Option<&[u8]> {
        let meta = self.meta?;
        if !self.page_is_done(page) || chunk >= meta.chunks_in_page(page) {
            return None;
        }
        let (s, e) = meta.chunk_range(page, chunk);
        Some(&self.data[s..e])
    }

    /// CRC of a verified page (served alongside its chunks).
    pub fn page_crc(&self, page: u32) -> Option<u32> {
        let meta = self.meta?;
        if !self.page_is_done(page) {
            return None;
        }
        let s = (page * meta.page_len()) as usize;
        let e = (s + meta.page_len() as usize).min(self.data.len());
        Some(crc32(&self.data[s..e]))
    }

    /// Runs the whole-image CRC once every page is done; records and
    /// returns the verdict. `false` means the image is quarantined:
    /// it will never be activated or re-served.
    pub fn finalize(&mut self) -> bool {
        let Some(meta) = self.meta else { return false };
        let ok = self.first_missing_page().is_none() && crc32(&self.data) == meta.crc;
        self.verdict = Some(ok);
        ok
    }

    /// `Some(true)` after a clean finalize, `Some(false)` after a
    /// failed one (quarantine), `None` while downloading.
    pub fn verdict(&self) -> Option<bool> {
        self.verdict
    }

    /// Whether the store completed with a good image.
    pub fn complete_ok(&self) -> bool {
        self.verdict == Some(true)
    }

    /// Whether the store finalized with a *bad* image (quarantined).
    pub fn poisoned(&self) -> bool {
        self.verdict == Some(false)
    }

    /// Reconstructs the full image from a cleanly completed store, for
    /// onward serving.
    pub fn as_image(&self) -> Option<Image> {
        let meta = self.meta?;
        if !self.complete_ok() {
            return None;
        }
        Some(Image {
            meta,
            data: self.data.clone(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(len: usize) -> Vec<u8> {
        (0..len).map(|i| (i * 31 % 251) as u8).collect()
    }

    /// The bootloader's form: one shift/xor step per bit, no table.
    fn crc32_bitwise(data: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &b in data {
            crc ^= b as u32;
            for _ in 0..8 {
                let mask = (crc & 1).wrapping_neg();
                crc = (crc >> 1) ^ (POLY & mask);
            }
        }
        !crc
    }

    #[test]
    fn crc32_known_vector() {
        // The classic check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32_bitwise(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn table_crc_equals_the_bitwise_reference_at_every_length() {
        // 0..=200 covers the empty input, every remainder length after
        // the 8-byte body, and 25 full bodies.
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let bytes: Vec<u8> = (0..200)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 32) as u8
            })
            .collect();
        for len in 0..=bytes.len() {
            assert_eq!(
                crc32(&bytes[..len]),
                crc32_bitwise(&bytes[..len]),
                "length {len}"
            );
            // An unaligned start shifts which bytes land in the body.
            assert_eq!(
                crc32(&bytes[len..]),
                crc32_bitwise(&bytes[len..]),
                "tail from {len}"
            );
        }
        // Every length to 64 from eight starting offsets: each 0..=7-byte
        // tail, the 4..=7 that fold in one step among them, after every
        // body of up to eight chunks.
        for start in 0..8 {
            for len in 0..=64 {
                let data = &bytes[start..start + len];
                assert_eq!(crc32(data), crc32_bitwise(data), "{len} from {start}");
            }
        }
    }

    #[test]
    fn page_and_chunk_geometry() {
        // 100 bytes, 8-byte chunks, 4 chunks/page => 32-byte pages:
        // pages 0..2 full, page 3 holds 4 bytes in one chunk.
        let img = Image::build(1, sample(100), 8, 4);
        let m = img.meta();
        assert_eq!(m.pages(), 4);
        assert_eq!(m.chunks_in_page(0), 4);
        assert_eq!(m.chunks_in_page(3), 1);
        assert_eq!(img.chunk(0, 0).unwrap().len(), 8);
        assert_eq!(img.chunk(3, 0).unwrap().len(), 4);
        assert!(img.chunk(3, 1).is_none());
        assert!(img.chunk(4, 0).is_none());
    }

    #[test]
    fn encode_decode_round_trip() {
        let img = Image::build(7, sample(90), 10, 3);
        let back = Image::decode(&img.encode()).expect("decodes");
        assert_eq!(back, img);
        assert!(Image::decode(&[0; 5]).is_none());
    }

    #[test]
    fn store_reassembles_and_verifies() {
        let img = Image::build(3, sample(100), 8, 4);
        let mut st = PageStore::new();
        assert!(st.begin(img.meta()));
        for page in 0..img.meta().pages() {
            assert_eq!(st.first_missing_page(), Some(page));
            for c in 0..img.meta().chunks_in_page(page) {
                st.write_chunk(page, c, img.chunk(page, c).unwrap());
            }
            assert!(st.verify_page(page, img.page_crc(page)));
        }
        assert!(st.finalize());
        assert!(st.complete_ok());
        assert_eq!(st.as_image().unwrap(), img);
    }

    #[test]
    fn corrupt_page_is_rejected_then_refetched() {
        let img = Image::build(3, sample(64), 8, 4);
        let mut st = PageStore::new();
        assert!(st.begin(img.meta()));
        let mut bad = img.chunk(0, 0).unwrap().to_vec();
        bad[0] ^= 1;
        st.write_chunk(0, 0, &bad);
        for c in 1..img.meta().chunks_in_page(0) {
            st.write_chunk(0, c, img.chunk(0, c).unwrap());
        }
        assert!(!st.verify_page(0, img.page_crc(0)));
        assert_eq!(st.first_missing_page(), Some(0));
        st.write_chunk(0, 0, img.chunk(0, 0).unwrap());
        assert!(st.verify_page(0, img.page_crc(0)));
    }

    #[test]
    fn poisoned_image_passes_pages_but_fails_finalize() {
        let img = Image::build(9, sample(64), 8, 4).poisoned();
        let mut st = PageStore::new();
        assert!(st.begin(img.meta()));
        for page in 0..img.meta().pages() {
            for c in 0..img.meta().chunks_in_page(page) {
                st.write_chunk(page, c, img.chunk(page, c).unwrap());
            }
            // Page CRCs are computed over the poisoned bytes, so every
            // page verifies; only the whole-image check catches it.
            assert!(st.verify_page(page, img.page_crc(page)));
        }
        assert!(!st.finalize());
        assert!(st.poisoned());
        assert!(st.as_image().is_none());
    }

    #[test]
    fn missing_mask_tracks_holes() {
        let img = Image::build(2, sample(64), 8, 4);
        let have = [true, false, true, false];
        let m = missing_mask(&img.meta(), 0, |c| have[c as usize]);
        assert_eq!(m, 0b1010);
    }
}

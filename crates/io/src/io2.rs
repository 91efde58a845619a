//! # CATS-IO2 — versioned little-endian binary container
//!
//! The on-disk framing of every snapshot, dataset and checkpoint
//! (DESIGN.md §12): a *sectioned* container laid out for zero-copy
//! reads — a fixed-size header, a section table (name, offset, length,
//! per-section CRC32), and 8-byte-aligned flat payloads. Numeric arrays
//! inside sections are stored as raw little-endian words, so loading a
//! model is a bounds check plus a `from_le_bytes` sweep.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! offset  size  field
//! 0       8     magic "CATS-IO2"
//! 8       4     u32 container version (currently 2)
//! 12      4     u32 section count N
//! 16      32×N  section table: 12-byte NUL-padded name,
//!               u64 offset, u64 length, u32 crc32
//! 16+32N  ...   section payloads, each padded to 8-byte alignment
//! ```
//!
//! A section's CRC32 covers its 12 name bytes, NUL padding included, then
//! its payload, so a damaged name is an error, not an absent section.
//!
//! Forward-compatibility rules:
//!
//! * a reader MUST reject a container whose *version* is not the one it
//!   writes — the table layout or what a CRC covers may have changed;
//! * within a known version, a reader MUST skip section names it does
//!   not recognize — future writers add data as new sections, never by
//!   changing the meaning of existing ones;
//! * every section's CRC is verified up front, unknown sections
//!   included: bit rot in a section we would skip still means the file
//!   is damaged.
//!
//! The reader accepts only the layout [`Io2Builder`] writes: each
//! payload at the next 8-byte boundary after the previous one, zero
//! padding, NUL-padded names, and nothing after the last payload. The
//! header, the table's offsets, lengths and CRCs, and the padding are
//! outside every CRC, so this is what makes a flipped or appended byte
//! there an error instead of a silent no-op.

use crate::{atomic_write, crc32_of, IoError};
use std::path::Path;

/// File-format magic of IO2 containers.
pub const MAGIC2: &[u8; 8] = b"CATS-IO2";

/// Container layout version this build writes and the only one it reads.
pub const IO2_VERSION: u32 = 2;

/// Maximum section-name length (the table reserves 12 bytes).
pub const MAX_SECTION_NAME: usize = 12;

const HEADER_LEN: usize = 16;
const ENTRY_LEN: usize = 32;

/// Whether `bytes` begin with the IO2 magic.
pub fn is_io2(bytes: &[u8]) -> bool {
    bytes.starts_with(MAGIC2)
}

fn pad8(n: usize) -> usize {
    (8 - n % 8) % 8
}

/// Accumulates named sections and serializes them into one container.
#[derive(Default)]
pub struct Io2Builder {
    sections: Vec<(String, Vec<u8>)>,
}

impl Io2Builder {
    /// An empty container builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a section. Section order is preserved, so a builder fed
    /// the same sections in the same order produces byte-identical
    /// output — the canonical-bytes property the snapshot save → load →
    /// save tests check.
    ///
    /// # Panics
    /// Panics on a name longer than [`MAX_SECTION_NAME`] bytes, an empty
    /// name, or a duplicate name.
    pub fn section(&mut self, name: &str, payload: Vec<u8>) -> &mut Self {
        assert!(
            !name.is_empty() && name.len() <= MAX_SECTION_NAME,
            "section name {name:?} must be 1..={MAX_SECTION_NAME} bytes"
        );
        assert!(!name.as_bytes().contains(&0), "section name {name:?} contains NUL");
        assert!(self.sections.iter().all(|(n, _)| n != name), "duplicate section {name:?}");
        self.sections.push((name.to_owned(), payload));
        self
    }

    /// Serializes the container.
    pub fn finish(&self) -> Vec<u8> {
        let table_end = HEADER_LEN + ENTRY_LEN * self.sections.len();
        let mut total = table_end;
        let mut offsets = Vec::with_capacity(self.sections.len());
        for (_, payload) in &self.sections {
            total += pad8(total);
            offsets.push(total as u64);
            total += payload.len();
        }
        let mut out = Vec::with_capacity(total);
        out.extend_from_slice(MAGIC2);
        out.extend_from_slice(&IO2_VERSION.to_le_bytes());
        out.extend_from_slice(&(self.sections.len() as u32).to_le_bytes());
        for ((name, payload), &offset) in self.sections.iter().zip(&offsets) {
            let mut name_bytes = [0u8; MAX_SECTION_NAME];
            name_bytes[..name.len()].copy_from_slice(name.as_bytes());
            out.extend_from_slice(&name_bytes);
            out.extend_from_slice(&offset.to_le_bytes());
            out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
            out.extend_from_slice(&crc32_of(&[&name_bytes, payload]).to_le_bytes());
        }
        for (_, payload) in &self.sections {
            out.resize(out.len() + pad8(out.len()), 0);
            out.extend_from_slice(payload);
        }
        out
    }

    /// [`Io2Builder::finish`] written atomically to `path`.
    pub fn write(&self, path: &Path) -> Result<(), IoError> {
        atomic_write(path, &self.finish())
    }
}

/// A parsed, CRC-verified view over an IO2 container's bytes.
///
/// Parsing validates the header, the section table, and every section's
/// checksum up front; [`Io2File::section`] afterwards is a pure slice
/// lookup. Unknown section names are carried but ignored — readers skip
/// what they do not recognize (the forward-compat rule above).
#[derive(Debug)]
pub struct Io2File<'a> {
    version: u32,
    sections: Vec<(String, &'a [u8])>,
}

impl<'a> Io2File<'a> {
    /// Parses and verifies a container. `path` is for error messages.
    pub fn parse(bytes: &'a [u8], path: &str) -> Result<Self, IoError> {
        if bytes.is_empty() {
            return Err(IoError::Empty { path: path.to_owned() });
        }
        if !is_io2(bytes) {
            return Err(IoError::BadHeader {
                path: path.to_owned(),
                reason: "missing CATS-IO2 magic".into(),
            });
        }
        if bytes.len() < HEADER_LEN {
            return Err(IoError::LengthMismatch {
                path: path.to_owned(),
                expected: HEADER_LEN as u64,
                actual: bytes.len() as u64,
            });
        }
        let version = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
        if version != IO2_VERSION {
            let reason = if version > IO2_VERSION {
                format!("container version {version} is newer than supported {IO2_VERSION}")
            } else {
                format!("container version {version} is older than supported {IO2_VERSION}")
            };
            return Err(IoError::BadHeader { path: path.to_owned(), reason });
        }
        let count = u32::from_le_bytes(bytes[12..16].try_into().expect("4 bytes")) as usize;
        let table_end = HEADER_LEN + ENTRY_LEN * count;
        if bytes.len() < table_end {
            // Truncated mid-table: the header promises more entries than
            // the file holds.
            return Err(IoError::LengthMismatch {
                path: path.to_owned(),
                expected: table_end as u64,
                actual: bytes.len() as u64,
            });
        }
        let mut sections = Vec::with_capacity(count);
        // End of the previous payload: the next one must start at the
        // following 8-byte boundary, with only zero bytes in between.
        let mut end = table_end;
        for i in 0..count {
            let e = HEADER_LEN + ENTRY_LEN * i;
            let name_raw = &bytes[e..e + MAX_SECTION_NAME];
            let name_len = name_raw.iter().position(|&b| b == 0).unwrap_or(MAX_SECTION_NAME);
            if name_len == 0 || name_raw[name_len..].iter().any(|&b| b != 0) {
                return Err(IoError::BadHeader {
                    path: path.to_owned(),
                    reason: format!("section {i}: name is empty or not NUL-padded"),
                });
            }
            let name = std::str::from_utf8(&name_raw[..name_len])
                .map_err(|_| IoError::BadHeader {
                    path: path.to_owned(),
                    reason: format!("section {i}: non-UTF-8 name"),
                })?
                .to_owned();
            let off = u64::from_le_bytes(bytes[e + 12..e + 20].try_into().expect("8 bytes"));
            let len = u64::from_le_bytes(bytes[e + 20..e + 28].try_into().expect("8 bytes"));
            let expected_crc =
                u32::from_le_bytes(bytes[e + 28..e + 32].try_into().expect("4 bytes"));
            let start = end + pad8(end);
            if off != start as u64 || bytes[end..start.min(bytes.len())].iter().any(|&b| b != 0) {
                return Err(IoError::BadHeader {
                    path: path.to_owned(),
                    reason: format!("section {i}: payload at offset {off}, expected {start}"),
                });
            }
            end = usize::try_from(len)
                .ok()
                .and_then(|len| start.checked_add(len))
                .filter(|&end| end <= bytes.len())
                .ok_or_else(|| {
                    // Payload runs past EOF: truncation after the table.
                    IoError::LengthMismatch {
                        path: path.to_owned(),
                        expected: off.saturating_add(len),
                        actual: bytes.len() as u64,
                    }
                })?;
            let payload = &bytes[start..end];
            let actual_crc = crc32_of(&[name_raw, payload]);
            if actual_crc != expected_crc {
                return Err(IoError::ChecksumMismatch {
                    path: path.to_owned(),
                    expected: expected_crc,
                    actual: actual_crc,
                });
            }
            sections.push((name, payload));
        }
        if end != bytes.len() {
            // Bytes after the last payload: concatenation or a torn
            // append, never something the builder writes.
            return Err(IoError::LengthMismatch {
                path: path.to_owned(),
                expected: end as u64,
                actual: bytes.len() as u64,
            });
        }
        Ok(Self { version, sections })
    }

    /// The container's layout version.
    pub fn version(&self) -> u32 {
        self.version
    }

    /// A section's payload, or `None` if absent.
    pub fn section(&self, name: &str) -> Option<&'a [u8]> {
        self.sections.iter().find(|(n, _)| n == name).map(|(_, p)| *p)
    }

    /// A section that must exist; a missing one is a [`IoError::BadHeader`].
    pub fn require(&self, name: &str, path: &str) -> Result<&'a [u8], IoError> {
        self.section(name).ok_or_else(|| IoError::BadHeader {
            path: path.to_owned(),
            reason: format!("missing required section {name:?}"),
        })
    }

    /// Section names in table order (unknown ones included).
    pub fn section_names(&self) -> impl Iterator<Item = &str> {
        self.sections.iter().map(|(n, _)| n.as_str())
    }
}

/// Little-endian payload encoder for IO2 section bodies.
///
/// Scalar and array writes append raw LE words; arrays are prefixed
/// with a `u64` element count. The matching reads live on [`Dec`].
#[derive(Default)]
pub struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    /// An empty encoder.
    pub fn new() -> Self {
        Self::default()
    }

    /// The encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Appends a `u8`.
    pub fn u8(&mut self, v: u8) -> &mut Self {
        self.buf.push(v);
        self
    }

    /// Appends a `u32`.
    pub fn u32(&mut self, v: u32) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Appends a `u64`.
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Appends an `f64` (bit pattern, so NaNs round-trip exactly).
    pub fn f64(&mut self, v: f64) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn str(&mut self, s: &str) -> &mut Self {
        self.u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
        self
    }

    /// Appends a count-prefixed `u8` array.
    pub fn u8s(&mut self, v: &[u8]) -> &mut Self {
        self.u64(v.len() as u64);
        self.buf.extend_from_slice(v);
        self
    }

    /// Appends a count-prefixed `u32` array.
    pub fn u32s(&mut self, v: &[u32]) -> &mut Self {
        self.u64(v.len() as u64);
        for &x in v {
            self.buf.extend_from_slice(&x.to_le_bytes());
        }
        self
    }

    /// Appends a count-prefixed `u64` array.
    pub fn u64s(&mut self, v: &[u64]) -> &mut Self {
        self.u64(v.len() as u64);
        for &x in v {
            self.buf.extend_from_slice(&x.to_le_bytes());
        }
        self
    }

    /// Appends a count-prefixed `f32` array (bit patterns).
    pub fn f32s(&mut self, v: &[f32]) -> &mut Self {
        self.u64(v.len() as u64);
        for &x in v {
            self.buf.extend_from_slice(&x.to_le_bytes());
        }
        self
    }

    /// Appends a count-prefixed `f64` array (bit patterns).
    pub fn f64s(&mut self, v: &[f64]) -> &mut Self {
        self.u64(v.len() as u64);
        for &x in v {
            self.buf.extend_from_slice(&x.to_le_bytes());
        }
        self
    }
}

/// Cursor-style decoder matching [`Enc`]. Every read is bounds-checked
/// and returns a descriptive error instead of panicking, so a damaged
/// (but CRC-valid — e.g. maliciously rewritten) section surfaces as a
/// format error, never as an out-of-bounds slice.
pub struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    /// A decoder over `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], String> {
        if self.remaining() < n {
            return Err(format!(
                "section truncated: need {n} bytes for {what}, have {}",
                self.remaining()
            ));
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Reads a `u8`.
    pub fn u8(&mut self) -> Result<u8, String> {
        Ok(self.take(1, "u8")?[0])
    }

    /// Reads a `u32`.
    pub fn u32(&mut self) -> Result<u32, String> {
        Ok(u32::from_le_bytes(self.take(4, "u32")?.try_into().expect("4 bytes")))
    }

    /// Reads a `u64`.
    pub fn u64(&mut self) -> Result<u64, String> {
        Ok(u64::from_le_bytes(self.take(8, "u64")?.try_into().expect("8 bytes")))
    }

    /// Reads an `f64`.
    pub fn f64(&mut self) -> Result<f64, String> {
        Ok(f64::from_le_bytes(self.take(8, "f64")?.try_into().expect("8 bytes")))
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String, String> {
        let len = self.u32()? as usize;
        let bytes = self.take(len, "string")?;
        String::from_utf8(bytes.to_vec()).map_err(|e| format!("non-UTF-8 string: {e}"))
    }

    fn array_len(&mut self, elem: usize, what: &str) -> Result<usize, String> {
        let n = self.u64()? as usize;
        if n.checked_mul(elem).map_or(true, |bytes| bytes > self.remaining()) {
            return Err(format!("section truncated: {what} count {n} exceeds remaining bytes"));
        }
        Ok(n)
    }

    /// Reads a count-prefixed `u8` array.
    pub fn u8s(&mut self) -> Result<Vec<u8>, String> {
        let n = self.array_len(1, "u8 array")?;
        Ok(self.take(n, "u8 array")?.to_vec())
    }

    /// Reads a count-prefixed `u32` array.
    pub fn u32s(&mut self) -> Result<Vec<u32>, String> {
        let n = self.array_len(4, "u32 array")?;
        let raw = self.take(n * 4, "u32 array")?;
        Ok(raw.chunks_exact(4).map(|c| u32::from_le_bytes(c.try_into().expect("4"))).collect())
    }

    /// Reads a count-prefixed `u64` array.
    pub fn u64s(&mut self) -> Result<Vec<u64>, String> {
        let n = self.array_len(8, "u64 array")?;
        let raw = self.take(n * 8, "u64 array")?;
        Ok(raw.chunks_exact(8).map(|c| u64::from_le_bytes(c.try_into().expect("8"))).collect())
    }

    /// Reads a count-prefixed `f32` array.
    pub fn f32s(&mut self) -> Result<Vec<f32>, String> {
        let n = self.array_len(4, "f32 array")?;
        let raw = self.take(n * 4, "f32 array")?;
        Ok(raw.chunks_exact(4).map(|c| f32::from_le_bytes(c.try_into().expect("4"))).collect())
    }

    /// Reads a count-prefixed `f64` array.
    pub fn f64s(&mut self) -> Result<Vec<f64>, String> {
        let n = self.array_len(8, "f64 array")?;
        let raw = self.take(n * 8, "f64 array")?;
        Ok(raw.chunks_exact(8).map(|c| f64::from_le_bytes(c.try_into().expect("8"))).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn container() -> Vec<u8> {
        let mut b = Io2Builder::new();
        b.section("alpha", b"hello world".to_vec());
        b.section("beta", vec![1, 2, 3, 4, 5]);
        b.section("empty", Vec::new());
        b.finish()
    }

    #[test]
    fn roundtrip_preserves_sections() {
        let bytes = container();
        assert!(is_io2(&bytes));
        let f = Io2File::parse(&bytes, "t").unwrap();
        assert_eq!(f.version(), IO2_VERSION);
        assert_eq!(f.section("alpha"), Some(&b"hello world"[..]));
        assert_eq!(f.section("beta"), Some(&[1u8, 2, 3, 4, 5][..]));
        assert_eq!(f.section("empty"), Some(&[][..]));
        assert_eq!(f.section("missing"), None);
        assert!(f.require("missing", "t").is_err());
        assert_eq!(f.section_names().collect::<Vec<_>>(), vec!["alpha", "beta", "empty"]);
    }

    #[test]
    fn payloads_are_8_byte_aligned() {
        let bytes = container();
        let f = Io2File::parse(&bytes, "t").unwrap();
        for name in ["alpha", "beta"] {
            let payload = f.section(name).unwrap();
            let off = payload.as_ptr() as usize - bytes.as_ptr() as usize;
            assert_eq!(off % 8, 0, "section {name} at unaligned offset {off}");
        }
    }

    #[test]
    fn builder_is_deterministic() {
        assert_eq!(container(), container(), "same sections, same bytes");
    }

    #[test]
    fn corruption_is_typed() {
        let bytes = container();

        // Zero-length.
        assert!(matches!(Io2File::parse(&[], "t"), Err(IoError::Empty { .. })));

        // Wrong magic.
        assert!(matches!(
            Io2File::parse(b"NOT-MAGIC bytes here", "t"),
            Err(IoError::BadHeader { .. })
        ));

        // Truncated mid-table.
        assert!(matches!(
            Io2File::parse(&bytes[..HEADER_LEN + ENTRY_LEN / 2], "t"),
            Err(IoError::LengthMismatch { .. })
        ));

        // Truncated mid-payload.
        assert!(matches!(
            Io2File::parse(&bytes[..bytes.len() - 3], "t"),
            Err(IoError::LengthMismatch { .. })
        ));

        // Flipped payload bit (inside "alpha"'s bytes — trailing
        // alignment padding is deliberately not CRC-covered).
        let mut flipped = bytes.clone();
        let at = flipped.windows(11).position(|w| w == b"hello world").unwrap();
        flipped[at] ^= 0x01;
        assert!(matches!(Io2File::parse(&flipped, "t"), Err(IoError::ChecksumMismatch { .. })));

        // Any other container version: a future one, and version 1, whose
        // CRCs did not cover the section names.
        for (version, age) in [(IO2_VERSION + 1, "newer"), (1, "older")] {
            let mut other = bytes.clone();
            other[8..12].copy_from_slice(&version.to_le_bytes());
            let err = Io2File::parse(&other, "t").unwrap_err();
            assert!(matches!(err, IoError::BadHeader { .. }), "{err}");
            assert!(err.to_string().contains(&format!("{age} than supported")), "{err}");
        }

        // A renamed section fails its CRC, which covers the name.
        let mut renamed = bytes.clone();
        renamed[HEADER_LEN] = b'A';
        assert!(matches!(Io2File::parse(&renamed, "t"), Err(IoError::ChecksumMismatch { .. })));

        // No CRC covers the padding or what follows the last payload, and
        // a name's NUL padding is checked before its CRC; the layout check
        // rejects changes there.
        let mut padding = bytes.clone();
        padding[at + b"hello world".len()] = 1;
        assert!(matches!(Io2File::parse(&padding, "t"), Err(IoError::BadHeader { .. })));
        let mut name = bytes.clone();
        name[HEADER_LEN + MAX_SECTION_NAME - 1] = b'x';
        assert!(matches!(Io2File::parse(&name, "t"), Err(IoError::BadHeader { .. })));
        let mut appended = bytes.clone();
        appended.push(0);
        assert!(matches!(Io2File::parse(&appended, "t"), Err(IoError::LengthMismatch { .. })));

        // Forged offset and length fields: typed errors, no overflow.
        let mut offset = bytes.clone();
        offset[HEADER_LEN + 12..HEADER_LEN + 20].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(matches!(Io2File::parse(&offset, "t"), Err(IoError::BadHeader { .. })));
        let mut length = bytes.clone();
        length[HEADER_LEN + 20..HEADER_LEN + 28].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(matches!(Io2File::parse(&length, "t"), Err(IoError::LengthMismatch { .. })));
    }

    #[test]
    fn unknown_sections_are_skipped_not_fatal() {
        // A future writer adds a section this reader has never heard of:
        // known sections still load.
        let mut b = Io2Builder::new();
        b.section("known", b"payload".to_vec());
        b.section("from-future", vec![0xAB; 64]);
        let bytes = b.finish();
        let f = Io2File::parse(&bytes, "t").unwrap();
        assert_eq!(f.section("known"), Some(&b"payload"[..]));
    }

    #[test]
    fn enc_dec_roundtrip() {
        let mut e = Enc::new();
        e.u8(7)
            .u32(0xDEAD_BEEF)
            .u64(1 << 40)
            .f64(-0.125)
            .str("snapshot")
            .u8s(&[1, 2, 3])
            .u32s(&[10, 20])
            .u64s(&[1, u64::MAX])
            .f32s(&[1.5, -2.5])
            .f64s(&[3.25, f64::NAN]);
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes);
        assert_eq!(d.u8().unwrap(), 7);
        assert_eq!(d.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(d.u64().unwrap(), 1 << 40);
        assert_eq!(d.f64().unwrap(), -0.125);
        assert_eq!(d.str().unwrap(), "snapshot");
        assert_eq!(d.u8s().unwrap(), vec![1, 2, 3]);
        assert_eq!(d.u32s().unwrap(), vec![10, 20]);
        assert_eq!(d.u64s().unwrap(), vec![1, u64::MAX]);
        assert_eq!(d.f32s().unwrap(), vec![1.5, -2.5]);
        let f = d.f64s().unwrap();
        assert_eq!(f[0], 3.25);
        assert!(f[1].is_nan(), "NaN bit pattern survives");
        assert_eq!(d.remaining(), 0);
    }

    #[test]
    fn dec_is_bounds_checked() {
        let mut e = Enc::new();
        e.u32(5);
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes);
        assert!(d.u64().is_err(), "read past end is a typed error");
        // A lying array count must not allocate or slice past the end.
        let mut e = Enc::new();
        e.u64(u64::MAX);
        let bytes = e.into_bytes();
        assert!(Dec::new(&bytes).f64s().is_err());
        let mut e = Enc::new();
        e.str("hello");
        let mut bytes = e.into_bytes();
        bytes.truncate(6);
        assert!(Dec::new(&bytes).str().is_err());
    }
}

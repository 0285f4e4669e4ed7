//! The one length-prefixed wire format of the workspace.
//!
//! Every structured message ShEF hashes, signs or relays through the
//! untrusted host uses it: bitstreams, boot payloads, Shield
//! configurations, register packets, stream frames, and both
//! attestation stacks' reports, quotes, certificates and tickets.
//! Fixed-width fields go raw; integers are little-endian; variable
//! fields carry a `u64` little-endian length prefix.
//!
//! Hand-rolled (rather than serde) because the formats are tiny, must be
//! stable byte-for-byte (they are hashed and signed), and the offline
//! environment provides no serde_derive-compatible format crate.
//!
//! The [`Reader`] is the single bounded decoder: a length prefix is
//! checked against the *remaining* input before anything is sliced, and
//! variable fields are returned borrowed, so a forged prefix can neither
//! over-read nor force an allocation.
//!
//! # Example
//!
//! ```
//! use shef_crypto::wire::{Reader, Writer};
//!
//! let mut w = Writer::new();
//! w.put_str("tag");
//! w.put_fixed(&[7u8; 4]);
//! let bytes = w.finish();
//!
//! let mut r = Reader::new(&bytes);
//! assert_eq!(r.get_str()?, "tag");
//! assert_eq!(r.get_fixed::<4>()?, [7u8; 4]);
//! r.finish()?;
//! # Ok::<(), shef_crypto::wire::WireError>(())
//! ```

/// A message that failed to decode: truncated, trailing bytes, an
/// out-of-range length prefix, a bad `bool` byte or invalid UTF-8.
/// Each protocol crate maps it onto its own `Malformed` error variant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError(pub String);

impl core::fmt::Display for WireError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for WireError {}

/// Serializes fields into a buffer.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// An empty writer.
    #[must_use]
    pub fn new() -> Self {
        Writer::default()
    }

    /// An empty writer with room for `capacity` bytes.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        Writer {
            buf: Vec::with_capacity(capacity),
        }
    }

    /// Appends one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a little-endian `u16`.
    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `bool` as one `0`/`1` byte.
    pub fn put_bool(&mut self, v: bool) {
        self.put_u8(v as u8);
    }

    /// Appends a fixed-width field with no length prefix.
    pub fn put_fixed(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }

    /// Appends a variable field: `u64` length prefix, then the bytes.
    pub fn put_bytes(&mut self, v: &[u8]) {
        self.put_u64(v.len() as u64);
        self.buf.extend_from_slice(v);
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, v: &str) {
        self.put_bytes(v.as_bytes());
    }

    /// The encoded bytes.
    #[must_use]
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }
}

/// Deserializes fields from a buffer. Every getter fails with a
/// [`WireError`] on truncated input instead of reading past the end.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader positioned at the start of `buf`.
    #[must_use]
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if n > self.buf.len() - self.pos {
            return Err(WireError(format!(
                "truncated input: need {n} bytes at offset {}",
                self.pos
            )));
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Reads one byte.
    pub fn get_u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u16`.
    pub fn get_u16(&mut self) -> Result<u16, WireError> {
        Ok(u16::from_le_bytes(self.get_fixed()?))
    }

    /// Reads a little-endian `u32`.
    pub fn get_u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.get_fixed()?))
    }

    /// Reads a little-endian `u64`.
    pub fn get_u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.get_fixed()?))
    }

    /// Reads a `bool`, rejecting any byte but `0` and `1`.
    pub fn get_bool(&mut self) -> Result<bool, WireError> {
        match self.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            v => Err(WireError(format!("invalid bool byte {v}"))),
        }
    }

    /// Reads a fixed-width field.
    pub fn get_fixed<const N: usize>(&mut self) -> Result<[u8; N], WireError> {
        Ok(self.take(N)?.try_into().expect("fixed size"))
    }

    /// Reads a length-prefixed variable field, borrowed from the input;
    /// rejects a prefix claiming more bytes than remain.
    pub fn get_bytes(&mut self) -> Result<&'a [u8], WireError> {
        let len = self.get_u64()?;
        // Bound against the *remaining* bytes before anything else: a
        // forged 2^64 length prefix must be rejected outright, and the
        // check must not pass just because the claim is smaller than
        // the total buffer.
        let remaining = (self.buf.len() - self.pos) as u64;
        if len > remaining {
            return Err(WireError(format!(
                "length {len} exceeds remaining input ({remaining} bytes)"
            )));
        }
        self.take(len as usize)
    }

    /// Reads a length-prefixed UTF-8 string, borrowed from the input.
    pub fn get_str(&mut self) -> Result<&'a str, WireError> {
        core::str::from_utf8(self.get_bytes()?)
            .map_err(|_| WireError("invalid utf-8 string".into()))
    }

    /// Ensures all input was consumed.
    pub fn finish(self) -> Result<(), WireError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(WireError(format!(
                "{} trailing bytes",
                self.buf.len() - self.pos
            )))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_all_types() {
        let mut w = Writer::new();
        w.put_u8(7);
        w.put_u16(300);
        w.put_u32(70_000);
        w.put_u64(1 << 40);
        w.put_bool(true);
        w.put_fixed(&[1, 2, 3]);
        w.put_bytes(b"hello");
        w.put_str("world");
        let buf = w.finish();

        let mut r = Reader::new(&buf);
        assert_eq!(r.get_u8().unwrap(), 7);
        assert_eq!(r.get_u16().unwrap(), 300);
        assert_eq!(r.get_u32().unwrap(), 70_000);
        assert_eq!(r.get_u64().unwrap(), 1 << 40);
        assert!(r.get_bool().unwrap());
        assert_eq!(r.get_fixed::<3>().unwrap(), [1, 2, 3]);
        assert_eq!(r.get_bytes().unwrap(), b"hello");
        assert_eq!(r.get_str().unwrap(), "world");
        r.finish().unwrap();
    }

    #[test]
    fn truncation_detected() {
        let mut w = Writer::new();
        w.put_u64(10);
        let mut buf = w.finish();
        buf.push(0xAB); // claims 10 bytes follow but only 1 does
        let mut r = Reader::new(&buf);
        assert!(r.get_bytes().is_err());
    }

    #[test]
    fn forged_huge_length_rejected_before_allocation() {
        // A u64::MAX length prefix must fail fast, not allocate.
        let mut buf = u64::MAX.to_le_bytes().to_vec();
        buf.extend_from_slice(&[0u8; 32]);
        let mut r = Reader::new(&buf);
        assert!(r.get_bytes().is_err());
    }

    #[test]
    fn length_bounded_by_remaining_not_total() {
        // After consuming a field, a length claim that fits the total
        // buffer but not the remaining bytes must still be rejected.
        let mut w = Writer::new();
        w.put_u64(0xDEAD);
        w.put_u64(10); // claims 10 payload bytes...
        let mut buf = w.finish();
        buf.extend_from_slice(&[0u8; 4]); // ...but only 4 follow
        let mut r = Reader::new(&buf);
        let _ = r.get_u64().unwrap();
        assert!(r.get_bytes().is_err());
    }

    #[test]
    fn trailing_bytes_detected() {
        let buf = vec![1u8, 2, 3];
        let mut r = Reader::new(&buf);
        let _ = r.get_u8().unwrap();
        assert!(r.finish().is_err());
    }

    #[test]
    fn bad_bool_rejected() {
        let buf = vec![5u8];
        let mut r = Reader::new(&buf);
        assert!(r.get_bool().is_err());
    }
}

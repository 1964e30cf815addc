//! The one bounded byte reader every wire decoder outside `media` reads
//! through: BER, the semantic bus's `SEM1` frames, custody bundles,
//! application events and the latency probe's echo.
//!
//! A [`Reader`] holds the bytes not yet read. Every read checks the
//! bytes it asks for against what is left before it touches them, so a
//! length prefix a peer chose can at most make a read fail, never index
//! past the input or size an allocation. A decoder adds its own format
//! on top and turns an [`Error`] into its own error values.

/// What went wrong reading the wire.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Error {
    /// The input ended before the field did.
    Short,
    /// A string field was not UTF-8.
    Utf8,
}

/// A forward-only reader over received bytes: the bytes not yet read,
/// so a read is one length comparison and a split.
#[derive(Clone, Copy, Debug)]
pub struct Reader<'a> {
    rest: &'a [u8],
}

impl<'a> Reader<'a> {
    /// Read `buf` from its first byte.
    #[inline]
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { rest: buf }
    }

    /// Bytes not yet read.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.rest.len()
    }

    /// The next `n` bytes.
    #[inline]
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], Error> {
        let (s, rest) = self.rest.split_at_checked(n).ok_or(Error::Short)?;
        self.rest = rest;
        Ok(s)
    }

    /// The next `N` bytes, by value.
    #[inline]
    pub fn array<const N: usize>(&mut self) -> Result<[u8; N], Error> {
        let (a, rest) = self.rest.split_first_chunk().ok_or(Error::Short)?;
        self.rest = rest;
        Ok(*a)
    }

    /// The next byte, left unread.
    #[inline]
    pub fn peek(&self) -> Result<u8, Error> {
        self.rest.first().copied().ok_or(Error::Short)
    }

    /// Everything not yet read.
    #[inline]
    pub fn rest(&mut self) -> &'a [u8] {
        std::mem::take(&mut self.rest)
    }

    /// A byte.
    #[inline]
    pub fn u8(&mut self) -> Result<u8, Error> {
        let (&b, rest) = self.rest.split_first().ok_or(Error::Short)?;
        self.rest = rest;
        Ok(b)
    }

    /// A big-endian `u16`.
    #[inline]
    pub fn u16(&mut self) -> Result<u16, Error> {
        self.array().map(u16::from_be_bytes)
    }

    /// A big-endian `u32`.
    #[inline]
    pub fn u32(&mut self) -> Result<u32, Error> {
        self.array().map(u32::from_be_bytes)
    }

    /// A big-endian `u64`.
    #[inline]
    pub fn u64(&mut self) -> Result<u64, Error> {
        self.array().map(u64::from_be_bytes)
    }

    /// A byte run behind a big-endian `u32` length.
    #[inline]
    pub fn bytes32(&mut self) -> Result<&'a [u8], Error> {
        let n = self.u32()?;
        self.take(n as usize)
    }

    /// A UTF-8 string behind a big-endian `u16` length.
    #[inline]
    pub fn str16(&mut self) -> Result<&'a str, Error> {
        let n = self.u16()?;
        utf8(self.take(n.into())?)
    }

    /// A UTF-8 string behind a big-endian `u32` length.
    #[inline]
    pub fn str32(&mut self) -> Result<&'a str, Error> {
        utf8(self.bytes32()?)
    }
}

#[inline]
fn utf8(bytes: &[u8]) -> Result<&str, Error> {
    std::str::from_utf8(bytes).map_err(|_| Error::Utf8)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_fields_in_order_and_refuses_what_is_not_there() {
        let bytes = [0xAB, 0x01, 0x02, 0, 0, 0, 2, b'h', b'i', 0, 1, 0xFF, 9];
        let mut r = Reader::new(&bytes);
        assert_eq!(r.peek(), Ok(0xAB));
        assert_eq!(r.u8(), Ok(0xAB));
        assert_eq!(r.u16(), Ok(0x0102));
        assert_eq!(r.str32(), Ok("hi"));
        let before = r;
        assert_eq!(r.str16(), Err(Error::Utf8));
        let mut r = before;
        assert_eq!(r.u64(), Err(Error::Short), "a failed read moves nothing");
        assert_eq!(r.remaining(), 4);
        assert_eq!(r.take(5), Err(Error::Short));
        assert_eq!(r.rest(), &[0, 1, 0xFF, 9]);
        assert_eq!(
            (r.remaining(), r.peek(), r.u8()),
            (0, Err(Error::Short), Err(Error::Short))
        );
    }

    #[test]
    fn a_length_prefix_larger_than_the_input_is_refused() {
        let mut r = Reader::new(&[0xFF, 0xFF, 0xFF, 0xFF, 1]);
        assert_eq!(r.bytes32(), Err(Error::Short));
        let mut r = Reader::new(&[0xFF, 0xFF, b'a']);
        assert_eq!(r.str16(), Err(Error::Short));
        let mut r = Reader::new(&[]);
        assert_eq!(r.take(usize::MAX), Err(Error::Short));
        assert_eq!(r.take(0), Ok(&[][..]));
    }
}

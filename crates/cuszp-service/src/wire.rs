//! Element payloads on the socket: the typed buffers' own bytes are the
//! wire bytes, so payloads move socket ↔ `&[f32]`/`&[f64]` with one
//! `read_exact` or one vectored write and no per-element pass. The wire
//! is little-endian; a big-endian host byte-swaps behind
//! `cfg(target_endian = "big")`.

use cuszp_core::FloatData;
use std::io::{self, IoSlice, Read, Write};

/// The two element types the codec supports. Only `f32` and `f64` can
/// implement it ([`FloatData`] is sealed), which is what makes the byte
/// views below sound. Kept crate-private: the public API speaks
/// `f32`/`f64`.
pub(crate) trait WireFloat: FloatData + Copy {
    /// Element size on the wire, in bytes.
    const WIRE_SIZE: usize;
    /// Read one element from the first `WIRE_SIZE` little-endian bytes.
    #[cfg(target_endian = "big")]
    fn read_le(b: &[u8]) -> Self;
    /// Write this element's little-endian bytes to the first `WIRE_SIZE`.
    #[cfg(target_endian = "big")]
    fn write_le(self, out: &mut [u8]);
}

impl WireFloat for f32 {
    const WIRE_SIZE: usize = 4;
    #[cfg(target_endian = "big")]
    fn read_le(b: &[u8]) -> Self {
        f32::from_le_bytes(b[..4].try_into().expect("4 bytes"))
    }
    #[cfg(target_endian = "big")]
    fn write_le(self, out: &mut [u8]) {
        out[..4].copy_from_slice(&self.to_le_bytes());
    }
}

impl WireFloat for f64 {
    const WIRE_SIZE: usize = 8;
    #[cfg(target_endian = "big")]
    fn read_le(b: &[u8]) -> Self {
        f64::from_le_bytes(b[..8].try_into().expect("8 bytes"))
    }
    #[cfg(target_endian = "big")]
    fn write_le(self, out: &mut [u8]) {
        out[..8].copy_from_slice(&self.to_le_bytes());
    }
}

/// The in-memory bytes of `v`.
fn as_bytes<T: WireFloat>(v: &[T]) -> &[u8] {
    let len = std::mem::size_of_val(v);
    debug_assert_eq!(len, v.len() * T::WIRE_SIZE);
    // SAFETY: `T` is `f32` or `f64` (sealed): no padding, so all `len`
    // bytes of the slice are initialized, and `len` is exactly the
    // slice's size, so the view stays inside its one allocation. `u8`
    // has alignment 1 and the view borrows `v`, so it cannot outlive it
    // or alias a mutable borrow.
    unsafe { std::slice::from_raw_parts(v.as_ptr().cast::<u8>(), len) }
}

/// The in-memory bytes of `v`, writable.
fn as_bytes_mut<T: WireFloat>(v: &mut [T]) -> &mut [u8] {
    let len = std::mem::size_of_val(v);
    debug_assert_eq!(len, v.len() * T::WIRE_SIZE);
    // SAFETY: as in `as_bytes`, and the view holds the only borrow of
    // `v`. Every bit pattern is a valid `f32`/`f64`, so whatever bytes
    // are written through the view leave valid elements.
    unsafe { std::slice::from_raw_parts_mut(v.as_mut_ptr().cast::<u8>(), len) }
}

/// Fill `v` with exactly `size_of_val(v)` little-endian element bytes
/// from `r`, straight into its memory.
pub(crate) fn read_elems<T: WireFloat>(r: &mut impl Read, v: &mut [T]) -> io::Result<()> {
    r.read_exact(as_bytes_mut(v))?;
    #[cfg(target_endian = "big")]
    for x in v.iter_mut() {
        *x = T::read_le(as_bytes(std::slice::from_ref(x)));
    }
    Ok(())
}

/// Write `head` and then `v` as little-endian element bytes. On a
/// little-endian host that is one vectored write straight from `v`'s
/// memory.
pub(crate) fn write_elems<T: WireFloat>(
    w: &mut impl Write,
    head: &[u8],
    v: &[T],
) -> io::Result<()> {
    #[cfg(target_endian = "little")]
    {
        write_all_vectored(w, &mut [IoSlice::new(head), IoSlice::new(as_bytes(v))])
    }
    #[cfg(target_endian = "big")]
    {
        w.write_all(head)?;
        let mut buf = [0u8; 4096];
        for part in v.chunks(buf.len() / T::WIRE_SIZE) {
            for (dst, &x) in buf.chunks_exact_mut(T::WIRE_SIZE).zip(part) {
                x.write_le(dst);
            }
            w.write_all(&buf[..part.len() * T::WIRE_SIZE])?;
        }
        Ok(())
    }
}

/// Write every byte of `bufs`, in order, with as few `writev` calls as
/// the socket allows (`Write::write_all_vectored` is not stable).
pub(crate) fn write_all_vectored(
    w: &mut impl Write,
    mut bufs: &mut [IoSlice<'_>],
) -> io::Result<()> {
    // Drop leading empty slices, so an empty `bufs` means done.
    IoSlice::advance_slices(&mut bufs, 0);
    while !bufs.is_empty() {
        match w.write_vectored(bufs) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => IoSlice::advance_slices(&mut bufs, n),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A writer that takes at most `max` bytes per call, so every slice
    /// boundary and mid-slice resume of `write_all_vectored` is hit.
    struct Trickle {
        got: Vec<u8>,
        max: usize,
    }

    impl Write for Trickle {
        fn write(&mut self, b: &[u8]) -> io::Result<usize> {
            let n = b.len().min(self.max);
            self.got.extend_from_slice(&b[..n]);
            Ok(n)
        }
        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
            let first = bufs.iter().find(|b| !b.is_empty()).map_or(&[][..], |b| b);
            self.write(first)
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn elements_go_out_little_endian_through_short_writes() {
        let v = [1.5f64, -0.0, f64::MIN_POSITIVE, f64::NAN];
        let mut want = b"hdr".to_vec();
        for x in v {
            want.extend_from_slice(&x.to_le_bytes());
        }
        for max in [1, 3, 8, 1 << 10] {
            let mut w = Trickle {
                got: Vec::new(),
                max,
            };
            write_elems(&mut w, b"hdr", &v).unwrap();
            assert_eq!(w.got, want, "max {max}");
        }
    }

    #[test]
    fn empty_slices_and_zero_writes() {
        let mut w = Trickle {
            got: Vec::new(),
            max: 2,
        };
        write_all_vectored(
            &mut w,
            &mut [IoSlice::new(b""), IoSlice::new(b"abc"), IoSlice::new(b"")],
        )
        .unwrap();
        assert_eq!(w.got, b"abc");
        let mut full: &mut [u8] = &mut [];
        let err = write_all_vectored(&mut full, &mut [IoSlice::new(b"x")]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::WriteZero);
    }
}

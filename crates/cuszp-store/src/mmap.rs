//! Memory-mapped file views: the zero-copy byte view behind
//! [`crate::Shard::open_path`], and a zero-copy `&[f32]` view of an
//! on-disk SDRBench raw stream.
//!
//! Reading a file into a `Vec` costs one full-size allocation plus a
//! full-size copy before the first byte is touched. This module maps the
//! file instead: the kernel lends the page cache directly, the view costs
//! no heap and no copy, and compressing straight out of it — or reading a
//! shard's frames in place — is the paper's "no intermediate buffer"
//! stance applied to the input side.
//!
//! The build environment has no `libc` crate, so the two syscall wrappers
//! are declared directly (`mmap`/`munmap` are part of every Unix libc's
//! stable ABI). Non-Unix targets — and any mapping failure — fall back to
//! the buffered reader, so callers never lose correctness, only the
//! zero-copy property. `mmap` returns page-aligned addresses, which
//! satisfies `f32`/`f64` alignment by a wide margin.
//!
//! A raw little-endian stream only equals the in-memory representation on
//! a little-endian host; on a big-endian target the fallback path (which
//! byte-swaps per element) is used unconditionally.

use std::fs::File;
use std::io;
use std::ops::Deref;
use std::path::Path;

#[cfg(all(unix, target_endian = "little"))]
mod sys {
    use std::ffi::c_void;
    use std::os::unix::io::RawFd;

    pub const PROT_READ: i32 = 1;
    pub const MAP_PRIVATE: i32 = 2;
    pub const MAP_FAILED: *mut c_void = usize::MAX as *mut c_void;

    // No `libc` crate in this environment; these signatures are the
    // POSIX-stable ABI every Unix libc exports.
    extern "C" {
        pub fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: i32,
            flags: i32,
            fd: RawFd,
            offset: i64,
        ) -> *mut c_void;
        pub fn munmap(addr: *mut c_void, len: usize) -> i32;
    }
}

/// Where a view's elements live.
enum Backing<T: Copy + 'static> {
    /// A private read-only file mapping (address + mapped length).
    #[cfg(all(unix, target_endian = "little"))]
    Mapped {
        addr: *mut std::ffi::c_void,
        len: usize,
    },
    /// Fallback: elements read into an owned buffer.
    Owned(Vec<T>),
}

/// A read-only view of a raw little-endian float file, memory-mapped when
/// the platform allows it. Derefs to `&[T]`, so it drops into any API
/// taking a slice — `Cuszp::compress(&view, …)` compresses straight from
/// the page cache.
pub struct MappedSlice<T: Copy + 'static> {
    backing: Backing<T>,
    len: usize,
}

// SAFETY: the mapping is PROT_READ/MAP_PRIVATE — immutable shared memory
// with no interior mutability; `&[T]` access from any thread is sound
// (same argument as `Arc<Vec<T>>`).
unsafe impl<T: Copy + Send + 'static> Send for MappedSlice<T> {}
// SAFETY: as for `Send`: shared access only ever reads immutable memory.
unsafe impl<T: Copy + Sync + 'static> Sync for MappedSlice<T> {}

impl<T: Copy + 'static> Deref for MappedSlice<T> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        match &self.backing {
            #[cfg(all(unix, target_endian = "little"))]
            Backing::Mapped { addr, len } => {
                debug_assert!(self.len * std::mem::size_of::<T>() <= *len);
                debug_assert!((*addr as usize).is_multiple_of(std::mem::align_of::<T>()));
                // SAFETY: `addr` is a live PROT_READ mapping of at least
                // `len * size_of::<T>()` bytes (checked at construction),
                // page-aligned (≥ align_of::<T>()), and unmapped only in
                // Drop, after every borrow of `self` has ended.
                unsafe { std::slice::from_raw_parts(*addr as *const T, self.len) }
            }
            Backing::Owned(v) => v,
        }
    }
}

impl<T: Copy + 'static> Drop for MappedSlice<T> {
    fn drop(&mut self) {
        #[cfg(all(unix, target_endian = "little"))]
        if let Backing::Mapped { addr, len } = self.backing {
            debug_assert!(addr != sys::MAP_FAILED);
            // SAFETY: exactly the region mmap returned, unmapped once.
            unsafe {
                sys::munmap(addr, len);
            }
        }
    }
}

impl<T: Copy + 'static> MappedSlice<T> {
    /// Whether this view is an actual file mapping (`false` means the
    /// owned-buffer fallback was taken — contents are identical either
    /// way).
    pub fn is_mapped(&self) -> bool {
        match &self.backing {
            #[cfg(all(unix, target_endian = "little"))]
            Backing::Mapped { .. } => true,
            Backing::Owned(_) => false,
        }
    }
}

fn open_sized(path: &Path, elem: usize) -> io::Result<(File, usize)> {
    let file = File::open(path)?;
    let bytes = file.metadata()?.len();
    if bytes % elem as u64 != 0 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("file length {bytes} is not a multiple of {elem}"),
        ));
    }
    let bytes = usize::try_from(bytes)
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "file too large to map"))?;
    Ok((file, bytes))
}

#[cfg(all(unix, target_endian = "little"))]
fn try_map<T: Copy + 'static>(file: &File, bytes: usize) -> Option<MappedSlice<T>> {
    use std::os::unix::io::AsRawFd;
    if bytes == 0 {
        return None; // mmap(len = 0) is EINVAL; empty files use the fallback
    }
    debug_assert!(bytes > 0);
    // SAFETY: fd is open for reading; len > 0; a failed mapping returns
    // MAP_FAILED, which is checked before use.
    let addr = unsafe {
        sys::mmap(
            std::ptr::null_mut(),
            bytes,
            sys::PROT_READ,
            sys::MAP_PRIVATE,
            file.as_raw_fd(),
            0,
        )
    };
    if addr == sys::MAP_FAILED {
        return None;
    }
    Some(MappedSlice {
        backing: Backing::Mapped { addr, len: bytes },
        len: bytes / std::mem::size_of::<T>(),
    })
}

/// Map a raw little-endian `f32` file as a zero-copy slice view.
///
/// The file length must be a multiple of 4; falls back to an owned read
/// if mapping is unavailable.
pub fn map_f32_le(path: &Path) -> io::Result<MappedSlice<f32>> {
    let (file, bytes) = open_sized(path, 4)?;
    #[cfg(all(unix, target_endian = "little"))]
    if let Some(m) = try_map::<f32>(&file, bytes) {
        return Ok(m);
    }
    drop((file, bytes));
    let data: Vec<f32> = std::fs::read(path)?
        .chunks_exact(4)
        .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
        .collect();
    let len = data.len();
    Ok(MappedSlice {
        backing: Backing::Owned(data),
        len,
    })
}

/// Map any file as a zero-copy byte view (no length constraint) — the
/// backing for `Shard::open_path`-style consumers that parse their own
/// structure out of the raw bytes.
pub fn map_bytes(path: &Path) -> io::Result<MappedSlice<u8>> {
    let (file, bytes) = open_sized(path, 1)?;
    #[cfg(all(unix, target_endian = "little"))]
    if let Some(m) = try_map::<u8>(&file, bytes) {
        return Ok(m);
    }
    drop((file, bytes));
    let data = std::fs::read(path)?;
    let len = data.len();
    Ok(MappedSlice {
        backing: Backing::Owned(data),
        len,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn write_f32(path: &std::path::Path, data: &[f32]) {
        let bytes: Vec<u8> = data.iter().flat_map(|v| v.to_le_bytes()).collect();
        std::fs::write(path, bytes).unwrap();
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("cuszp_mmap_test_{}_{}", std::process::id(), name));
        p
    }

    #[test]
    fn maps_the_values_written() {
        let path = tmp("view.f32");
        let data = vec![1.0f32, -2.5, 3.25e-7, f32::MAX, 0.0, -0.0, f32::MIN];
        write_f32(&path, &data);
        let view = map_f32_le(&path).unwrap();
        assert_eq!(&*view, &data[..]);
        #[cfg(all(unix, target_endian = "little"))]
        assert!(view.is_mapped(), "unix host should take the mmap path");
        drop(view);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn rejects_misaligned_length() {
        let path = tmp("bad.f32");
        std::fs::write(&path, [0u8; 10]).unwrap();
        assert!(map_f32_le(&path).is_err());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn empty_file_is_empty_slice() {
        let path = tmp("empty.f32");
        std::fs::write(&path, []).unwrap();
        let view = map_f32_le(&path).unwrap();
        assert!(view.is_empty());
        assert!(!view.is_mapped()); // len-0 mappings are EINVAL; fallback
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn byte_view_matches_fs_read() {
        let path = tmp("view.bytes");
        let data: Vec<u8> = (0..=255u8).cycle().take(1001).collect(); // odd length on purpose
        std::fs::write(&path, &data).unwrap();
        let view = map_bytes(&path).unwrap();
        assert_eq!(&*view, &data[..]);
        #[cfg(all(unix, target_endian = "little"))]
        assert!(view.is_mapped(), "unix host should take the mmap path");
        drop(view);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn view_usable_across_threads() {
        let path = tmp("threads.f32");
        let data: Vec<f32> = (0..1024).map(|i| i as f32).collect();
        write_f32(&path, &data);
        let view = map_f32_le(&path).unwrap();
        let sum: f64 = std::thread::scope(|s| {
            let halves: Vec<_> = view
                .chunks(512)
                .map(|half| s.spawn(move || half.iter().map(|&v| v as f64).sum::<f64>()))
                .collect();
            halves.into_iter().map(|h| h.join().unwrap()).sum()
        });
        assert_eq!(sum, (0..1024).map(|i| i as f64).sum::<f64>());
        drop(view);
        std::fs::remove_file(&path).unwrap();
    }
}

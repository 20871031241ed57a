//! Device memory: buffers, shared slices, and device atomics.
//!
//! A [`DeviceBuffer`] plays the role of a `cudaMalloc`'d allocation. Kernel
//! blocks access it through [`GpuSlice`], the moral equivalent of passing a
//! `T*` device pointer into a kernel: many blocks may hold slices to the
//! same buffer simultaneously, and — exactly as in CUDA — racing
//! *conflicting* accesses to the same element is a bug in the kernel. All
//! kernels in this repository write disjoint regions (each block owns its
//! output range, computed via prefix sums), so every access pattern that
//! occurs is race-free. Cross-block communication must go through
//! [`DeviceAtomics`].

use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicU64, Ordering};

/// Marker for plain-old-data element types that may live in device buffers.
///
/// # Safety
/// Implementors must be `Copy` types with no interior mutability or drop
/// glue, valid for concurrent disjoint element access.
pub unsafe trait DeviceCopy: Copy + Send + Sync + Default + 'static {}

macro_rules! impl_device_copy {
    // SAFETY: primitive integers, floats and `bool` are `Copy`, with no
    // interior mutability and no drop glue.
    ($($t:ty),*) => { $(unsafe impl DeviceCopy for $t {})* };
}
impl_device_copy!(u8, u16, u32, u64, i8, i16, i32, i64, f32, f64, usize, bool);

/// One element slot; `Sync` so blocks on different workers can address the
/// same buffer. Disjointness of actual accesses is the kernel's contract.
#[repr(transparent)]
struct SyncCell<T>(UnsafeCell<T>);

// SAFETY: access discipline is delegated to kernel code, mirroring device
// pointers in CUDA. See module docs.
unsafe impl<T: Send> Sync for SyncCell<T> {}

/// A linear device allocation of `T`.
pub struct DeviceBuffer<T: DeviceCopy> {
    cells: Box<[SyncCell<T>]>,
}

impl<T: DeviceCopy> DeviceBuffer<T> {
    /// Allocate `len` zero/default-initialized elements.
    pub fn zeroed(len: usize) -> Self {
        let cells = (0..len)
            .map(|_| SyncCell(UnsafeCell::new(T::default())))
            .collect();
        DeviceBuffer { cells }
    }

    /// Allocate and fill from a host slice (no simulated-time charge; use
    /// [`crate::Gpu::h2d`] to account for the PCIe transfer).
    pub fn from_host(host: &[T]) -> Self {
        let cells = host.iter().map(|v| SyncCell(UnsafeCell::new(*v))).collect();
        DeviceBuffer { cells }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// True when the buffer holds no elements.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Size in bytes.
    pub fn size_bytes(&self) -> u64 {
        (self.cells.len() * std::mem::size_of::<T>()) as u64
    }

    /// Obtain a device-pointer-like view usable inside kernels.
    pub fn slice(&self) -> GpuSlice<'_, T> {
        GpuSlice { cells: &self.cells }
    }

    /// Copy contents back to a host `Vec` (no simulated-time charge; use
    /// [`crate::Gpu::d2h`] to account for the PCIe transfer).
    pub fn to_host(&self) -> Vec<T> {
        // SAFETY: a kernel launch joins its blocks before it returns, so
        // no kernel writes a cell while the host reads it here.
        self.cells.iter().map(|c| unsafe { *c.0.get() }).collect()
    }

    /// Overwrite contents from a host slice of identical length.
    ///
    /// # Panics
    /// Panics if lengths differ.
    pub fn copy_from_host(&mut self, host: &[T]) {
        assert_eq!(host.len(), self.len(), "host/device length mismatch");
        for (cell, v) in self.cells.iter_mut().zip(host) {
            *cell.0.get_mut() = *v;
        }
    }
}

impl<T: DeviceCopy + std::fmt::Debug> std::fmt::Debug for DeviceBuffer<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "DeviceBuffer<{}>[len={}]",
            std::any::type_name::<T>(),
            self.len()
        )
    }
}

/// A shared, kernel-side view of a [`DeviceBuffer`] — the analogue of a raw
/// device pointer parameter.
#[derive(Clone, Copy)]
pub struct GpuSlice<'a, T> {
    cells: &'a [SyncCell<T>],
}

impl<'a, T: DeviceCopy> GpuSlice<'a, T> {
    /// Number of addressable elements.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Load element `i`.
    ///
    /// # Panics
    /// Panics on out-of-bounds access (a kernel bug, as in `cuda-memcheck`).
    #[inline]
    pub fn get(&self, i: usize) -> T {
        // SAFETY: kernels guarantee no concurrent conflicting access; see
        // module docs.
        unsafe { *self.cells[i].0.get() }
    }

    /// Store `v` into element `i`.
    ///
    /// # Panics
    /// Panics on out-of-bounds access.
    #[inline]
    pub fn set(&self, i: usize, v: T) {
        // SAFETY: as for `get`.
        unsafe { *self.cells[i].0.get() = v }
    }

    /// Copy a host-side slice into `[offset, offset + src.len())`.
    pub fn write_slice(&self, offset: usize, src: &[T]) {
        assert!(offset + src.len() <= self.len(), "GpuSlice write OOB");
        for (k, v) in src.iter().enumerate() {
            self.set(offset + k, *v);
        }
    }

    /// Read `[offset, offset + dst.len())` into a host-side slice.
    pub fn read_slice(&self, offset: usize, dst: &mut [T]) {
        assert!(offset + dst.len() <= self.len(), "GpuSlice read OOB");
        for (k, v) in dst.iter_mut().enumerate() {
            *v = self.get(offset + k);
        }
    }
}

/// A device-resident array of 64-bit atomics: the only sanctioned channel
/// for cross-block communication (scan lookback flags, grid-wide counters).
pub struct DeviceAtomics {
    slots: Box<[AtomicU64]>,
}

impl DeviceAtomics {
    /// Allocate `len` atomics initialized to zero.
    pub fn zeroed(len: usize) -> Self {
        let slots = (0..len).map(|_| AtomicU64::new(0)).collect();
        DeviceAtomics { slots }
    }

    /// Number of atomic slots.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Atomic load with acquire ordering.
    #[inline]
    pub fn load(&self, i: usize) -> u64 {
        self.slots[i].load(Ordering::Acquire)
    }

    /// Atomic store with release ordering.
    #[inline]
    pub fn store(&self, i: usize, v: u64) {
        self.slots[i].store(v, Ordering::Release)
    }

    /// Atomic fetch-add (AcqRel), returning the previous value.
    #[inline]
    pub fn fetch_add(&self, i: usize, v: u64) -> u64 {
        self.slots[i].fetch_add(v, Ordering::AcqRel)
    }

    /// Atomic max (AcqRel), returning the previous value.
    #[inline]
    pub fn fetch_max(&self, i: usize, v: u64) -> u64 {
        self.slots[i].fetch_max(v, Ordering::AcqRel)
    }

    /// Reset every slot to zero (host-side, between launches).
    pub fn reset(&self) {
        for s in self.slots.iter() {
            s.store(0, Ordering::Release);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_host_device() {
        let host = vec![1.5f32, -2.0, 3.25];
        let buf = DeviceBuffer::from_host(&host);
        assert_eq!(buf.to_host(), host);
        assert_eq!(buf.len(), 3);
        assert_eq!(buf.size_bytes(), 12);
    }

    #[test]
    fn zeroed_is_default() {
        let buf = DeviceBuffer::<u32>::zeroed(4);
        assert_eq!(buf.to_host(), vec![0, 0, 0, 0]);
    }

    #[test]
    fn slice_get_set() {
        let buf = DeviceBuffer::<u64>::zeroed(8);
        let s = buf.slice();
        s.set(3, 42);
        assert_eq!(s.get(3), 42);
        s.write_slice(4, &[7, 8, 9]);
        let mut out = [0u64; 3];
        s.read_slice(4, &mut out);
        assert_eq!(out, [7, 8, 9]);
        assert_eq!(buf.to_host()[3], 42);
    }

    #[test]
    #[should_panic]
    fn slice_oob_panics() {
        let buf = DeviceBuffer::<u8>::zeroed(2);
        buf.slice().get(2);
    }

    #[test]
    fn copy_from_host_overwrites() {
        let mut buf = DeviceBuffer::<i32>::zeroed(3);
        buf.copy_from_host(&[-1, -2, -3]);
        assert_eq!(buf.to_host(), vec![-1, -2, -3]);
    }

    #[test]
    fn atomics_basics() {
        let a = DeviceAtomics::zeroed(2);
        assert_eq!(a.fetch_add(0, 5), 0);
        assert_eq!(a.fetch_add(0, 5), 5);
        assert_eq!(a.load(0), 10);
        a.store(1, 99);
        assert_eq!(a.fetch_max(1, 50), 99);
        assert_eq!(a.load(1), 99);
        a.reset();
        assert_eq!(a.load(0), 0);
        assert_eq!(a.load(1), 0);
    }

    #[test]
    fn concurrent_disjoint_writes() {
        let buf = DeviceBuffer::<usize>::zeroed(1024);
        std::thread::scope(|scope| {
            for w in 0..4 {
                let s = buf.slice();
                scope.spawn(move || {
                    for i in (w..1024).step_by(4) {
                        s.set(i, i);
                    }
                });
            }
        });
        let host = buf.to_host();
        for (i, v) in host.iter().enumerate() {
            assert_eq!(*v, i);
        }
    }
}

//! Device memory buffers.
//!
//! A [`DeviceBuffer`] is a typed allocation whose size is charged against the
//! owning device's memory capacity and released on drop.  G-TADOC's
//! self-managed memory pool (`gtadoc::mempool`) carves its per-rule regions
//! out of a single large `DeviceBuffer<u32>`, mirroring how the real system
//! sub-allocates one `cudaMalloc`'d pool.

use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A typed device allocation.
#[derive(Debug)]
pub struct DeviceBuffer<T> {
    data: Vec<T>,
    bytes: u64,
    mem_used: Arc<AtomicU64>,
}

impl<T> DeviceBuffer<T> {
    pub(crate) fn new(data: Vec<T>, mem_used: Arc<AtomicU64>) -> Self {
        let bytes = (data.len() * std::mem::size_of::<T>()) as u64;
        Self {
            data,
            bytes,
            mem_used,
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Returns `true` if the buffer holds no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Size in bytes charged against the device.
    pub fn size_bytes(&self) -> u64 {
        self.bytes
    }

    /// Read-only view of the underlying storage.
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }
}

impl<T> Deref for DeviceBuffer<T> {
    type Target = [T];
    fn deref(&self) -> &[T] {
        &self.data
    }
}

impl<T> DerefMut for DeviceBuffer<T> {
    fn deref_mut(&mut self) -> &mut [T] {
        &mut self.data
    }
}

impl<T> Drop for DeviceBuffer<T> {
    fn drop(&mut self) {
        self.mem_used.fetch_sub(self.bytes, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use crate::device::Device;
    use crate::spec::GpuSpec;

    #[test]
    fn buffer_accessors() {
        let device = Device::new(GpuSpec::rtx_2080_ti());
        let mut buf = device.alloc_with::<u32>(16, 7);
        assert_eq!(buf.len(), 16);
        assert!(!buf.is_empty());
        assert_eq!(buf.size_bytes(), 64);
        assert_eq!(buf[3], 7);
        buf[3] = 9;
        assert_eq!(buf.as_slice()[3], 9);
    }

    #[test]
    fn multiple_buffers_accumulate_and_release() {
        let device = Device::new(GpuSpec::rtx_2080_ti());
        let a = device.alloc::<u64>(100);
        let b = device.alloc::<u8>(100);
        assert_eq!(device.memory_used(), 800 + 100);
        drop(a);
        assert_eq!(device.memory_used(), 100);
        drop(b);
        assert_eq!(device.memory_used(), 0);
    }

    #[test]
    fn empty_buffer() {
        let device = Device::new(GpuSpec::gtx_1080());
        let buf = device.alloc::<u32>(0);
        assert!(buf.is_empty());
        assert_eq!(buf.size_bytes(), 0);
    }
}

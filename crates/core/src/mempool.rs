//! The G-TADOC self-maintained GPU memory pool (Section IV-C).
//!
//! The memory each rule needs is unknown until runtime and allocating
//! dynamically from thousands of threads is not an option on a GPU, so
//! G-TADOC sizes every rule's requirement during the initialization phase,
//! allocates one large device buffer, and hands out non-overlapping regions
//! by a bump (prefix-sum) allocation — the design described in
//! "G-TADOC maintained memory pool".
//!
//! Region sizing follows the local tables' sizing contract (see
//! [`crate::hashtable`]): consumers pass `words_required(bound)` per table
//! (0 words for 0 keys — the root's region), and the tables trust those
//! bounds absolutely.

use gpu_sim::Device;

/// A region of the pool owned by one consumer (a rule).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolRegion {
    /// First `u32` word of the region inside the pool buffer.
    pub offset: u32,
    /// Length of the region in `u32` words.
    pub len: u32,
}

impl PoolRegion {
    /// The half-open word range of this region.
    pub fn range(&self) -> std::ops::Range<usize> {
        self.offset as usize..(self.offset + self.len) as usize
    }
}

/// The memory pool: one flat `u32` buffer plus the per-consumer regions,
/// charged against a simulated device's memory capacity.
#[derive(Debug)]
pub struct MemoryPool {
    storage: Vec<u32>,
    regions: Vec<PoolRegion>,
}

impl MemoryPool {
    /// Builds a pool from per-consumer requirements (in `u32` words) with a
    /// bump (prefix-sum) allocation, charging the allocation against
    /// `device`'s memory capacity.
    ///
    /// # Panics
    /// Panics if the total exceeds the 4G-word (`u32` offset) addressing
    /// limit; the dataset must be sharded.
    pub fn allocate(device: &Device, requirements: &[u32]) -> Self {
        let mut regions = Vec::with_capacity(requirements.len());
        let mut offset: u64 = 0;
        for &req in requirements {
            regions.push(PoolRegion {
                offset: offset as u32,
                len: req,
            });
            offset += req as u64;
        }
        assert!(
            offset <= u32::MAX as u64,
            "allocation of {offset} words exceeds the 4G-word pool limit; \
             shard the dataset"
        );
        // Charge the device for the backing storage (and release the tracking
        // buffer immediately: the pool keeps its own storage so the simulated
        // capacity check is what matters here).
        drop(device.alloc::<u32>(offset as usize));
        Self {
            storage: vec![0u32; offset as usize],
            regions,
        }
    }

    /// Number of consumers (regions).
    pub fn num_regions(&self) -> usize {
        self.regions.len()
    }

    /// Total pool size in `u32` words.
    pub fn total_words(&self) -> usize {
        self.storage.len()
    }

    /// The region of consumer `i`.
    pub fn region(&self, i: usize) -> PoolRegion {
        self.regions[i]
    }

    /// Immutable view of consumer `i`'s region.
    pub fn slice(&self, i: usize) -> &[u32] {
        &self.storage[self.regions[i].range()]
    }

    /// Mutable view of consumer `i`'s region.
    pub fn slice_mut(&mut self, i: usize) -> &mut [u32] {
        let range = self.regions[i].range();
        &mut self.storage[range]
    }

    /// Mutable access to the whole backing storage together with the region
    /// table — what a kernel holding the raw pool pointer would see.
    pub fn storage_and_regions(&mut self) -> (&mut [u32], &[PoolRegion]) {
        (&mut self.storage, &self.regions)
    }

    /// Verifies that no two regions overlap (invariant test hook).
    pub fn regions_disjoint(&self) -> bool {
        let mut sorted: Vec<PoolRegion> =
            self.regions.iter().copied().filter(|r| r.len > 0).collect();
        sorted.sort_by_key(|r| r.offset);
        sorted
            .windows(2)
            .all(|w| w[0].offset + w[0].len <= w[1].offset)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::GpuSpec;

    fn device() -> Device {
        Device::new(GpuSpec::gtx_1080())
    }

    #[test]
    fn regions_follow_requirements() {
        let pool = MemoryPool::allocate(&device(), &[4, 0, 8, 2]);
        assert_eq!(pool.num_regions(), 4);
        assert_eq!(pool.total_words(), 14);
        assert_eq!(pool.region(0), PoolRegion { offset: 0, len: 4 });
        assert_eq!(pool.region(1), PoolRegion { offset: 4, len: 0 });
        assert_eq!(pool.region(2), PoolRegion { offset: 4, len: 8 });
        assert_eq!(pool.region(3), PoolRegion { offset: 12, len: 2 });
        assert!(pool.regions_disjoint());
    }

    #[test]
    fn writes_to_one_region_do_not_leak_into_another() {
        let mut pool = MemoryPool::allocate(&device(), &[3, 3, 3]);
        for (i, v) in pool.slice_mut(1).iter_mut().enumerate() {
            *v = 100 + i as u32;
        }
        assert!(pool.slice(0).iter().all(|&v| v == 0));
        assert!(pool.slice(2).iter().all(|&v| v == 0));
        assert_eq!(pool.slice(1), &[100, 101, 102]);
    }

    #[test]
    fn empty_requirements_give_empty_pool() {
        let pool = MemoryPool::allocate(&device(), &[]);
        assert_eq!(pool.num_regions(), 0);
        assert_eq!(pool.total_words(), 0);
        assert!(pool.regions_disjoint());
    }

    #[test]
    fn storage_and_regions_expose_raw_view() {
        let mut pool = MemoryPool::allocate(&device(), &[2, 2]);
        {
            let (storage, regions) = pool.storage_and_regions();
            storage[regions[1].offset as usize] = 7;
        }
        assert_eq!(pool.slice(1)[0], 7);
    }

    #[test]
    #[should_panic(expected = "exceeds the 4G-word pool limit")]
    fn over_4g_word_pool_is_rejected_before_allocating() {
        MemoryPool::allocate(&device(), &[u32::MAX, u32::MAX]);
    }
}

//! Single-pass chained-scan (decoupled lookback) prefix sums.
//!
//! This is the machinery behind cuSZp's Global Synchronization (paper §4.3,
//! Figs 8–10): each tile (thread block) publishes its local aggregate, then
//! resolves its exclusive prefix by walking backwards over predecessor
//! tiles' published state — without any separate kernel or host round-trip.
//! The same [`ScanState`] object is embedded inside the fused compression
//! kernels (cuszp-core) and also drives the standalone
//! [`exclusive_scan_u32`] used by tests and the Fig 10 experiment.
//!
//! Tile status is packed into one atomic u64: two flag bits (`X` = invalid,
//! `A` = aggregate available, `P` = inclusive prefix available) and 62 value
//! bits. Compressed sizes comfortably fit 62 bits.

use crate::gpu::Gpu;
use crate::kernel::LaunchConfig;
use crate::memory::{DeviceAtomics, DeviceBuffer};
use crate::warp::{exclusive_scan_u64, WARP};

/// Flag: tile has published nothing yet (the zero-initialized state).
#[allow(dead_code)]
const FLAG_X: u64 = 0;
/// Flag: tile has published its local aggregate.
const FLAG_A: u64 = 1;
/// Flag: tile has published its inclusive prefix.
const FLAG_P: u64 = 2;

const FLAG_SHIFT: u32 = 62;
const VALUE_MASK: u64 = (1u64 << FLAG_SHIFT) - 1;

/// Items each lane scans serially before the warp-level pass (paper:
/// "cuSZp utilizes one thread to operate multiple blocks").
pub const SCAN_ITEMS_PER_THREAD: usize = 4;
/// Items per tile: one warp × items-per-thread.
pub const SCAN_TILE: usize = WARP * SCAN_ITEMS_PER_THREAD;

/// Grid geometry for scanning `n` items: `(tiles, tile_size)`.
pub fn scan_tile_geometry(n: usize) -> (usize, usize) {
    (n.div_ceil(SCAN_TILE).max(1), SCAN_TILE)
}

/// Per-tile decoupled-lookback state shared by all blocks of one launch.
pub struct ScanState {
    tiles: DeviceAtomics,
}

impl ScanState {
    /// State for `num_tiles` tiles, all initially `X`.
    pub fn new(num_tiles: usize) -> Self {
        ScanState {
            tiles: DeviceAtomics::zeroed(num_tiles),
        }
    }

    /// Number of tiles tracked.
    pub fn num_tiles(&self) -> usize {
        self.tiles.len()
    }

    /// Reset all tiles to `X` so the state can be reused across launches.
    pub fn reset(&self) {
        self.tiles.reset();
    }

    fn pack(flag: u64, value: u64) -> u64 {
        debug_assert!(value <= VALUE_MASK, "scan value exceeds 62 bits");
        (flag << FLAG_SHIFT) | value
    }

    fn unpack(word: u64) -> (u64, u64) {
        (word >> FLAG_SHIFT, word & VALUE_MASK)
    }

    /// Tile publishes its local aggregate (status `A`).
    pub fn publish_aggregate(&self, tile: usize, aggregate: u64) {
        self.tiles.store(tile, Self::pack(FLAG_A, aggregate));
    }

    /// Tile publishes its inclusive prefix (status `P`), unblocking all
    /// successors' lookbacks.
    pub fn publish_prefix(&self, tile: usize, inclusive_prefix: u64) {
        self.tiles.store(tile, Self::pack(FLAG_P, inclusive_prefix));
    }

    /// Resolve this tile's *exclusive* prefix by decoupled lookback,
    /// spinning on predecessors until each publishes. Returns
    /// `(exclusive_prefix, simulated ops spent)`.
    ///
    /// One op is counted per predecessor read that finds a published
    /// flag (`A` or `P`). Polls of a tile that has not published yet are
    /// free: how often they happen depends on how the host schedules its
    /// worker threads, and counting them would make the simulated device
    /// time vary from run to run.
    ///
    /// Tile 0 returns 0 immediately. Requires the in-order block dispatch
    /// guarantee of [`crate::kernel::run_grid`]; see that module's docs.
    pub fn lookback(&self, tile: usize) -> (u64, u64) {
        let mut ops = 0u64;
        let mut running = 0u64;
        let mut look = tile;
        while look > 0 {
            look -= 1;
            loop {
                let word = self.tiles.load(look);
                let (flag, value) = Self::unpack(word);
                match flag {
                    FLAG_P => {
                        return (running + value, ops + 1);
                    }
                    FLAG_A => {
                        ops += 1;
                        running += value;
                        break; // continue to the next predecessor
                    }
                    _ => {
                        // Predecessor started but hasn't published; it is
                        // running on another worker. Yield and retry.
                        std::hint::spin_loop();
                        std::thread::yield_now();
                    }
                }
            }
        }
        (running, ops)
    }
}

/// Device-wide exclusive prefix sum over `u32` sizes, fully inside one
/// kernel launch (the standalone form of cuSZp's Global Synchronization).
///
/// Writes the exclusive prefix of `input` into `output` (same length) and
/// returns the grand total. Traffic is recorded under `step`.
#[allow(clippy::needless_range_loop)] // k is the thread-local item slot, as in the CUDA kernel
pub fn exclusive_scan_u32(
    gpu: &mut Gpu,
    input: &DeviceBuffer<u32>,
    output: &DeviceBuffer<u32>,
    step: &'static str,
) -> u64 {
    assert_eq!(input.len(), output.len(), "scan buffers must match");
    let n = input.len();
    if n == 0 {
        return 0;
    }
    let (tiles, tile_size) = scan_tile_geometry(n);
    let state = ScanState::new(tiles);
    let total = DeviceAtomics::zeroed(1);

    gpu.launch("exclusive_scan", LaunchConfig::grid(tiles), |ctx| {
        let inp = input.slice();
        let out = output.slice();
        let tile = ctx.block;
        let base = tile * tile_size;
        let count = tile_size.min(n - base.min(n));

        // Thread-level serial scan: each lane accumulates its own items.
        let mut lane_sums = [0u64; WARP];
        let mut lane_vals = [[0u64; SCAN_ITEMS_PER_THREAD]; WARP];
        for lane in 0..WARP {
            let mut acc = 0u64;
            for k in 0..SCAN_ITEMS_PER_THREAD {
                let idx = lane * SCAN_ITEMS_PER_THREAD + k;
                lane_vals[lane][k] = acc;
                if idx < count {
                    acc += inp.get(base + idx) as u64;
                }
            }
            lane_sums[lane] = acc;
        }
        ctx.read(step, (count * 4) as u64);
        ctx.ops(step, count as u64);

        // Warp-level scan of per-lane sums via shuffles.
        let (lane_offsets, tile_aggregate, warp_ops) = exclusive_scan_u64(lane_sums);
        ctx.ops(step, warp_ops);

        // Global chained-scan: publish aggregate, look back, publish prefix.
        let exclusive = if tile == 0 {
            state.publish_prefix(0, tile_aggregate);
            0
        } else {
            state.publish_aggregate(tile, tile_aggregate);
            let (prefix, look_ops) = state.lookback(tile);
            state.publish_prefix(tile, prefix + tile_aggregate);
            ctx.ops(step, look_ops);
            prefix
        };
        // Each tile writes one flag word and reads ~its lookback window.
        ctx.write(step, 8);
        ctx.read(step, 8);

        // Restore per-item exclusive offsets and store.
        for lane in 0..WARP {
            for k in 0..SCAN_ITEMS_PER_THREAD {
                let idx = lane * SCAN_ITEMS_PER_THREAD + k;
                if idx < count {
                    let v = exclusive + lane_offsets[lane] + lane_vals[lane][k];
                    debug_assert!(v <= u32::MAX as u64, "scan overflowed u32 output");
                    out.set(base + idx, v as u32);
                }
            }
        }
        ctx.write(step, (count * 4) as u64);
        ctx.ops(step, count as u64);

        if tile == tiles - 1 {
            total.store(0, exclusive + tile_aggregate);
        }
    });

    total.load(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::DeviceSpec;

    fn host_exclusive_scan(input: &[u32]) -> (Vec<u32>, u64) {
        let mut out = Vec::with_capacity(input.len());
        let mut acc = 0u64;
        for &v in input {
            out.push(acc as u32);
            acc += v as u64;
        }
        (out, acc)
    }

    fn check_scan(input: &[u32], workers: usize) {
        let mut gpu = Gpu::new(DeviceSpec::a100()).with_workers(workers);
        let inp = DeviceBuffer::from_host(input);
        let out = DeviceBuffer::<u32>::zeroed(input.len());
        let total = exclusive_scan_u32(&mut gpu, &inp, &out, "scan");
        let (expect, expect_total) = host_exclusive_scan(input);
        assert_eq!(out.to_host(), expect);
        assert_eq!(total, expect_total);
    }

    #[test]
    fn scan_small() {
        check_scan(&[3, 1, 4, 1, 5], 1);
    }

    #[test]
    fn scan_exact_tile() {
        let input: Vec<u32> = (0..SCAN_TILE as u32).collect();
        check_scan(&input, 2);
    }

    #[test]
    fn scan_many_tiles_multi_worker() {
        let input: Vec<u32> = (0..10_000u32).map(|i| (i * 37) % 251).collect();
        for workers in [1, 2, 4] {
            check_scan(&input, workers);
        }
    }

    #[test]
    fn scan_all_zeros() {
        check_scan(&[0; 1000], 2);
    }

    #[test]
    fn scan_empty() {
        let mut gpu = Gpu::new(DeviceSpec::a100());
        let inp = DeviceBuffer::<u32>::from_host(&[]);
        let out = DeviceBuffer::<u32>::zeroed(0);
        assert_eq!(exclusive_scan_u32(&mut gpu, &inp, &out, "scan"), 0);
    }

    #[test]
    fn scan_records_traffic_and_time() {
        let mut gpu = Gpu::new(DeviceSpec::a100());
        let input: Vec<u32> = vec![1; 4096];
        let inp = DeviceBuffer::from_host(&input);
        let out = DeviceBuffer::<u32>::zeroed(4096);
        exclusive_scan_u32(&mut gpu, &inp, &out, "scan");
        let tl = gpu.timeline();
        assert_eq!(tl.kernel_count(), 1);
        let k = tl.kernels().next().unwrap();
        let t = k.steps.get("scan").unwrap();
        // Reads + writes at least the payload both ways.
        assert!(t.bytes_read >= 4096 * 4);
        assert!(t.bytes_written >= 4096 * 4);
        assert!(tl.gpu_time() > 0.0);
    }

    #[test]
    fn state_pack_roundtrip() {
        let s = ScanState::new(4);
        s.publish_prefix(0, 0);
        s.publish_aggregate(1, 12345);
        let (p1, _) = s.lookback(2);
        assert_eq!(p1, 12345);
    }

    #[test]
    fn lookback_tile0_is_zero() {
        let s = ScanState::new(3);
        let (p, ops) = s.lookback(0);
        assert_eq!(p, 0);
        assert_eq!(ops, 0);
    }

    #[test]
    fn waiting_on_a_late_predecessor_costs_one_op() {
        // Tile 0 publishes 10 ms after tile 1 starts looking back: the
        // unpublished polls in between must not count, so the simulated
        // cost is the same however long the host took to schedule tile 0.
        let s = ScanState::new(2);
        let (p, ops) = std::thread::scope(|scope| {
            scope.spawn(|| {
                std::thread::sleep(std::time::Duration::from_millis(10));
                s.publish_prefix(0, 7);
            });
            s.lookback(1)
        });
        assert_eq!((p, ops), (7, 1));
    }

    #[test]
    fn lookback_sums_aggregates_until_prefix() {
        let s = ScanState::new(5);
        s.publish_prefix(0, 10);
        s.publish_aggregate(1, 5);
        s.publish_aggregate(2, 7);
        let (p, _) = s.lookback(3);
        assert_eq!(p, 22);
    }
}

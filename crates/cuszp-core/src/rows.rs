//! Row layouts: which elements of a decoded stream a caller wants, and
//! where each one goes in the caller's output.
//!
//! A region read from a C-order chunk is a set of *rows*: runs of
//! elements contiguous along the last axis, both in the chunk and in the
//! caller's output, spaced by per-axis strides. A [`RowLayout`] describes
//! them by their length, per-axis counts and the two stride sets, so a
//! decoder can write every row straight to its place instead of decoding
//! into a tile and copying rows out of it. A contiguous range of elements
//! is the one-row case ([`RowLayout::contiguous`]).
//!
//! The row-aware decoders ([`crate::fast::decompress_rows_into`],
//! [`crate::hybrid::decode_rows_into`]) walk the rows in order and decode
//! each codec block the rows touch exactly once.

use std::ops::Range;

/// Highest array rank a [`RowLayout`] describes.
pub const MAX_RANK: usize = 8;

/// Leading (row-indexing) axes of a rank-[`MAX_RANK`] box.
const AXES: usize = MAX_RANK - 1;

/// The rows of an axis-aligned box inside a C-order array, and where
/// each row lands in a C-order output.
///
/// Rows are visited in C order. Because the box lies inside the array,
/// their source ranges are disjoint and strictly increasing, which is
/// what lets a decoder walk the array's blocks once, front to back. The
/// first row's destination is output index 0.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RowLayout {
    /// Elements per row.
    row_len: usize,
    /// Source index (in the array) of the first row's first element.
    start: usize,
    /// Leading axes in use (rank − 1).
    axes: usize,
    /// Rows along each leading axis, outermost first.
    counts: [usize; AXES],
    /// Source stride of each leading axis, in elements.
    src_strides: [usize; AXES],
    /// Output stride of each leading axis, in elements.
    dst_strides: [usize; AXES],
}

impl RowLayout {
    /// One row: `len` elements starting at source index `start`, written
    /// to the front of the output.
    pub fn contiguous(start: usize, len: usize) -> RowLayout {
        RowLayout {
            row_len: len,
            start,
            axes: 0,
            counts: [1; AXES],
            src_strides: [0; AXES],
            dst_strides: [0; AXES],
        }
    }

    /// The box `lo[i]..hi[i]` of a C-order array of shape `dims`, written
    /// to an output whose axis `i` has stride `out_strides[i]` (the last
    /// axis is contiguous, so its stride must be 1).
    ///
    /// Rows that follow each other without a gap in both the array and
    /// the output are merged into one longer row, so a box spanning whole
    /// rows of both is walked as few, long runs.
    ///
    /// # Panics
    /// Panics if the ranks disagree or exceed [`MAX_RANK`], or the box is
    /// empty or not inside `dims`.
    pub fn of_box(dims: &[usize], lo: &[usize], hi: &[usize], out_strides: &[usize]) -> RowLayout {
        let d = dims.len();
        assert!(
            (1..=MAX_RANK).contains(&d) && lo.len() == d && hi.len() == d && out_strides.len() == d,
            "box rank"
        );
        assert!(
            (0..d).all(|i| lo[i] < hi[i] && hi[i] <= dims[i]),
            "box must be non-empty and inside the array"
        );
        assert_eq!(out_strides[d - 1], 1, "the last output axis is contiguous");
        let mut layout = RowLayout::contiguous(lo[d - 1], hi[d - 1] - lo[d - 1]);
        layout.axes = d - 1;
        let mut stride = dims[d - 1];
        for i in (0..d - 1).rev() {
            layout.counts[i] = hi[i] - lo[i];
            layout.src_strides[i] = stride;
            layout.dst_strides[i] = out_strides[i];
            layout.start += lo[i] * stride;
            stride *= dims[i];
        }
        while layout.axes > 0 {
            let a = layout.axes - 1;
            if layout.src_strides[a] != layout.row_len || layout.dst_strides[a] != layout.row_len {
                break;
            }
            layout.row_len *= layout.counts[a];
            layout.counts[a] = 1;
            layout.axes = a;
        }
        layout
    }

    /// Elements per row.
    pub fn row_len(&self) -> usize {
        self.row_len
    }

    /// Number of rows.
    pub fn num_rows(&self) -> usize {
        self.counts[..self.axes].iter().product()
    }

    /// Number of elements the rows select.
    pub fn elements(&self) -> usize {
        self.num_rows() * self.row_len
    }

    /// One past the last row's last source index.
    pub fn src_end(&self) -> usize {
        let last: usize = (0..self.axes)
            .map(|i| (self.counts[i] - 1) * self.src_strides[i])
            .sum();
        self.start + last + self.row_len
    }

    /// Output elements the rows span: one past the last row's last
    /// destination.
    pub fn dst_len(&self) -> usize {
        let last: usize = (0..self.axes)
            .map(|i| (self.counts[i] - 1) * self.dst_strides[i])
            .sum();
        last + self.row_len
    }

    /// The rows in C order, as `(source index, output index)` of each
    /// row's first element.
    pub fn iter(&self) -> Rows<'_> {
        Rows {
            layout: self,
            idx: [0; AXES],
            src: self.start,
            dst: 0,
            left: self.num_rows(),
        }
    }

    /// The rows grouped into runs of `l`-element blocks: consecutive rows
    /// join a run while each one's first block is at or before the run's
    /// end block. Yields each run's block range and its rows. The runs'
    /// ranges are disjoint and their union is exactly the blocks the rows
    /// touch.
    pub fn block_runs(&self, l: usize) -> BlockRuns<'_> {
        assert!(l > 0, "block length must be positive");
        BlockRuns {
            rows: self.iter(),
            row_len: self.row_len,
            l,
        }
    }

    /// Number of distinct `l`-element blocks the rows touch.
    pub fn blocks(&self, l: usize) -> usize {
        self.block_runs(l).map(|(b, _)| b.len()).sum()
    }
}

/// Iterator over a [`RowLayout`]'s rows; see [`RowLayout::iter`].
#[derive(Debug, Clone)]
pub struct Rows<'a> {
    layout: &'a RowLayout,
    idx: [usize; AXES],
    src: usize,
    dst: usize,
    left: usize,
}

impl Rows<'_> {
    /// The next row, without advancing.
    fn peek(&self) -> Option<(usize, usize)> {
        (self.left > 0).then_some((self.src, self.dst))
    }
}

impl Iterator for Rows<'_> {
    type Item = (usize, usize);

    fn next(&mut self) -> Option<(usize, usize)> {
        if self.left == 0 {
            return None;
        }
        let row = (self.src, self.dst);
        self.left -= 1;
        if self.left > 0 {
            // Odometer step over the leading axes, innermost first.
            let g = self.layout;
            for a in (0..g.axes).rev() {
                self.idx[a] += 1;
                self.src += g.src_strides[a];
                self.dst += g.dst_strides[a];
                if self.idx[a] < g.counts[a] {
                    break;
                }
                self.idx[a] = 0;
                self.src -= g.counts[a] * g.src_strides[a];
                self.dst -= g.counts[a] * g.dst_strides[a];
            }
        }
        Some(row)
    }
}

/// Iterator over a [`RowLayout`]'s block runs; see
/// [`RowLayout::block_runs`].
#[derive(Debug, Clone)]
pub struct BlockRuns<'a> {
    rows: Rows<'a>,
    row_len: usize,
    l: usize,
}

impl<'a> Iterator for BlockRuns<'a> {
    type Item = (Range<usize>, std::iter::Take<Rows<'a>>);

    fn next(&mut self) -> Option<Self::Item> {
        let first = self.rows.clone();
        let (start, _) = self.rows.next()?;
        let b0 = start / self.l;
        let mut b1 = (start + self.row_len).div_ceil(self.l);
        let mut count = 1;
        while let Some((start, _)) = self.rows.peek() {
            if start / self.l > b1 {
                break;
            }
            b1 = (start + self.row_len).div_ceil(self.l);
            count += 1;
            self.rows.next();
        }
        Some((b0..b1, first.take(count)))
    }
}

/// A walk over a layout's rows that can stop part-way through a row:
/// the hybrid decoder hands each entropy chunk the rows (and row parts)
/// that fall in it, and a row crossing a chunk boundary continues in the
/// next chunk.
pub(crate) struct RowWalk<'a> {
    rows: Rows<'a>,
    row_len: usize,
    /// The current row's remaining part: source, output, length.
    seg: Option<(usize, usize, usize)>,
}

impl<'a> RowWalk<'a> {
    pub(crate) fn new(layout: &'a RowLayout) -> RowWalk<'a> {
        let mut walk = RowWalk {
            rows: layout.iter(),
            row_len: layout.row_len,
            seg: None,
        };
        walk.next_row();
        walk
    }

    fn next_row(&mut self) {
        self.seg = if self.row_len == 0 {
            None
        } else {
            self.rows.next().map(|(s, d)| (s, d, self.row_len))
        };
    }

    /// The current row part: `(source, output, length)`.
    #[inline]
    pub(crate) fn seg(&self) -> Option<(usize, usize, usize)> {
        self.seg
    }

    /// Mark the current row part done up to source index `to`; the walk
    /// moves to the next row once the current one is finished.
    #[inline]
    pub(crate) fn done_to(&mut self, to: usize) {
        if let Some((src, dst, len)) = self.seg {
            if to >= src + len {
                self.next_row();
            } else {
                self.seg = Some((to, dst + (to - src), src + len - to));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every element of the box, as `(source, output)` pairs, straight
    /// from the definition.
    fn brute(dims: &[usize], lo: &[usize], hi: &[usize]) -> Vec<(usize, usize)> {
        let d = dims.len();
        let total: usize = (0..d).map(|i| hi[i] - lo[i]).product();
        (0..total)
            .map(|k| {
                let (mut rem, mut src, mut sstride) = (k, 0, 1);
                for i in (0..d).rev() {
                    let e = hi[i] - lo[i];
                    src += (lo[i] + rem % e) * sstride;
                    rem /= e;
                    sstride *= dims[i];
                }
                (src, k)
            })
            .collect()
    }

    #[test]
    fn box_rows_enumerate_the_box() {
        for (dims, lo, hi) in [
            (vec![7usize], vec![2usize], vec![6usize]),
            (vec![5, 9], vec![1, 3], vec![4, 8]),
            (vec![3, 5, 100], vec![1, 0, 7], vec![3, 5, 93]),
            (vec![4, 3, 2, 6], vec![0, 1, 0, 2], vec![4, 3, 2, 3]),
        ] {
            let d = dims.len();
            let mut out_strides = vec![1usize; d];
            for i in (0..d - 1).rev() {
                out_strides[i] = out_strides[i + 1] * (hi[i + 1] - lo[i + 1]);
            }
            let layout = RowLayout::of_box(&dims, &lo, &hi, &out_strides);
            let mut got = Vec::new();
            for (src, dst) in layout.iter() {
                for j in 0..layout.row_len() {
                    got.push((src + j, dst + j));
                }
            }
            let want = brute(&dims, &lo, &hi);
            assert_eq!(got, want, "{dims:?} {lo:?}..{hi:?}");
            assert_eq!(layout.iter().count(), layout.num_rows());
            assert_eq!(layout.dst_len(), want.len());
            assert_eq!(layout.src_end(), want[want.len() - 1].0 + 1);

            // Block runs cover exactly the blocks the elements touch.
            for l in [1usize, 4, 8, 32] {
                let mut touched: Vec<usize> = want.iter().map(|&(s, _)| s / l).collect();
                touched.dedup();
                let runs: Vec<usize> = layout.block_runs(l).flat_map(|(b, _)| b).collect();
                assert_eq!(runs, touched, "{dims:?} l = {l}");
                assert_eq!(layout.blocks(l), touched.len());
                let rows: usize = layout.block_runs(l).map(|(_, r)| r.count()).sum();
                assert_eq!(rows, layout.num_rows());
            }
        }
    }

    #[test]
    fn gapless_rows_merge() {
        // Whole rows of both the array and the output: one row per plane,
        // then one row for the whole box once the planes also follow on.
        let planes = RowLayout::of_box(&[4, 3, 5], &[1, 0, 0], &[3, 3, 5], &[20, 5, 1]);
        assert_eq!((planes.row_len(), planes.num_rows()), (15, 2));
        assert_eq!(planes.iter().collect::<Vec<_>>(), [(15, 0), (30, 20)]);
        let whole = RowLayout::of_box(&[4, 3, 5], &[1, 0, 0], &[3, 3, 5], &[15, 5, 1]);
        assert_eq!((whole.row_len(), whole.num_rows()), (30, 1));
        // A gap in the output keeps the rows apart.
        let gapped = RowLayout::of_box(&[4, 3, 5], &[1, 0, 0], &[3, 3, 5], &[18, 6, 1]);
        assert_eq!((gapped.row_len(), gapped.num_rows()), (5, 6));
    }

    #[test]
    fn walk_splits_rows_at_any_point() {
        let layout = RowLayout::of_box(&[4, 10], &[1, 2], &[3, 9], &[7, 1]);
        let mut walk = RowWalk::new(&layout);
        assert_eq!(walk.seg(), Some((12, 0, 7)));
        walk.done_to(15);
        assert_eq!(walk.seg(), Some((15, 3, 4)));
        walk.done_to(19);
        assert_eq!(walk.seg(), Some((22, 7, 7)));
        walk.done_to(40);
        assert_eq!(walk.seg(), None);
        let empty = RowLayout::contiguous(5, 0);
        assert_eq!(RowWalk::new(&empty).seg(), None);
    }
}

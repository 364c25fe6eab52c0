//! Worker parts and their one exact-size assembly into a table's columns.
//!
//! Every window table is grouped by leading word with one counting sort
//! ([`super`], items 3 and 6 of the module design), and its passes hand
//! each worker a contiguous word range of the table; term vector hands
//! each worker a contiguous file range.  The parts the workers return are
//! therefore disjoint *and* in row order, already in the layout of the
//! ordered columnar forms of [`crate::results`]: an answer's columns are
//! the parts' columns end to end, each posting list's or file row's end
//! rebased onto the values before its part.  Zero hash probes and zero key
//! comparisons after the pass.  (The window fill needs no parts: it counts
//! each worker's rows first and writes them straight into the table's
//! columns.)

/// One worker's share of an answer, in the table's own layout.
#[derive(Debug, Default)]
pub(super) struct Part<V> {
    /// The flat key arena of the part's rows, ascending; empty when the
    /// rows are files (term vector).
    pub(super) keys: Vec<u32>,
    /// Where each posting list or file row ends in `values`; empty for a
    /// count table, whose rows are one value each.
    pub(super) ends: Vec<usize>,
    /// The values: one count per row, or the concatenated rows.
    pub(super) values: Vec<V>,
}

/// The key, offsets and value columns of `parts`, which are in row order:
/// each column is allocated once at its exact length, and each part is
/// copied into it once.  The offsets are a leading `0`, then every part's
/// `ends` rebased onto the values before it (so `[0]` for a count table).
/// A column that only one part fills is moved and shrunk to fit instead.
pub(super) fn assemble<V: Copy>(parts: Vec<Part<V>>) -> (Vec<u32>, Vec<u32>, Vec<V>) {
    let rows = parts.iter().map(|p| p.ends.len()).sum::<usize>();
    let mut offsets = Vec::with_capacity(rows + 1);
    offsets.push(0);
    let mut base = 0;
    for part in &parts {
        offsets.extend(part.ends.iter().map(|end| offset(end + base)));
        base += part.values.len();
    }
    let (keys, values) = parts.into_iter().map(|p| (p.keys, p.values)).unzip();
    (concat_exact(keys), offsets, concat_exact(values))
}

/// A row's end as a CSR offset.  An answer past `u32::MAX` values panics
/// here, never truncates, and the engine reports the fault as a typed error.
pub(super) fn offset(end: usize) -> u32 {
    u32::try_from(end).expect("a posting table holds at most u32::MAX values")
}

/// `columns` end to end, at exactly their total length.
fn concat_exact<T: Copy>(mut columns: Vec<Vec<T>>) -> Vec<T> {
    columns.retain(|c| !c.is_empty());
    if columns.len() <= 1 {
        let mut only = columns.pop().unwrap_or_default();
        only.shrink_to_fit();
        return only;
    }
    let mut out = Vec::with_capacity(columns.iter().map(Vec::len).sum());
    for column in &columns {
        out.extend_from_slice(column);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A part of width-`width` keys from `(key, postings)` rows.
    fn part(width: usize, rows: &[(&[u32], &[u32])]) -> Part<u32> {
        let mut part = Part::default();
        for &(key, postings) in rows {
            assert_eq!(key.len(), width);
            part.keys.extend_from_slice(key);
            part.values.extend_from_slice(postings);
            part.ends.push(part.values.len());
        }
        part
    }

    /// [`assemble`], asserting that every column is exactly its length.
    fn assembled(parts: Vec<Part<u32>>) -> (Vec<u32>, Vec<u32>, Vec<u32>) {
        let (keys, offsets, values) = assemble(parts);
        assert_eq!(keys.capacity(), keys.len());
        assert_eq!(offsets.capacity(), offsets.len());
        assert_eq!(values.capacity(), values.len());
        (keys, offsets, values)
    }

    /// Width-2 keys (a sequence table's arena) are copied in part order,
    /// never re-sorted; an empty part between two others adds nothing.
    #[test]
    fn serial_merge_matches_concat_sort() {
        let merged = assembled(vec![
            part(2, &[(&[1, 1], &[10]), (&[5, 5], &[50, 51])]),
            part(2, &[]),
            part(2, &[(&[6, 6], &[20]), (&[9, 9], &[90])]),
        ]);
        assert_eq!(
            merged,
            (
                vec![1, 1, 5, 5, 6, 6, 9, 9],
                vec![0, 1, 3, 4, 5],
                vec![10, 50, 51, 20, 90]
            )
        );
    }

    #[test]
    fn posting_merge_concatenates_disjoint_runs_in_key_order() {
        let a = part(1, &[(&[1], &[7]), (&[2], &[1, 4])]);
        let b = part(1, &[(&[4], &[2, 3, 5]), (&[6], &[0])]);
        assert_eq!(
            assembled(vec![a, b]),
            (
                vec![1, 2, 4, 6],
                vec![0, 1, 3, 6, 7],
                vec![7, 1, 4, 2, 3, 5, 0]
            )
        );
    }

    #[test]
    fn posting_merge_parallel_matches_serial_on_large_input() {
        let mut sorted: Vec<u32> = (0..5000u32)
            .map(|i| i.wrapping_mul(2_654_435_761) % 100_000)
            .collect();
        sorted.sort_unstable();
        sorted.dedup();
        let postings = |k: u32| -> Vec<u32> { (0..(k % 3 + 1)).map(|j| k ^ j).collect() };
        let mut serial = Part::default();
        let mut parts: Vec<Part<u32>> = (0..32).map(|_| Part::default()).collect();
        for &k in &sorted {
            for part in [&mut serial, &mut parts[k as usize * 32 / 100_000]] {
                part.keys.push(k);
                part.values.extend(postings(k));
                part.ends.push(part.values.len());
            }
        }
        assert!(parts.iter().filter(|p| !p.keys.is_empty()).count() > 16);
        assert_eq!(assembled(parts), assembled(vec![serial]));
    }

    /// No part, empty parts, a count table's parts (no `ends`) and one
    /// part, grown past its length, all come out exact.
    #[test]
    fn empty_and_single_run_pass_through() {
        let empty = (vec![], vec![0], vec![]);
        assert_eq!(assembled(Vec::new()), empty);
        assert_eq!(assembled(vec![part(1, &[]), part(1, &[])]), empty);
        let counts = |keys: &[u32], values: &[u32]| Part {
            keys: keys.to_vec(),
            ends: Vec::new(),
            values: values.to_vec(),
        };
        assert_eq!(
            assembled(vec![
                counts(&[1, 2], &[9, 8]),
                counts(&[], &[]),
                counts(&[4], &[7])
            ]),
            (vec![1, 2, 4], vec![0], vec![9, 8, 7])
        );
        let mut one = part(1, &[(&[3], &[1, 2])]);
        one.values.reserve(100);
        assert!(one.values.capacity() > one.values.len());
        assert_eq!(assembled(vec![one]), (vec![3], vec![0, 2], vec![1, 2]));
    }
}

//! Answer checks. The benchmark knows the loaded data (`Dataset`: key
//! `i * gap` holds value `i`) and every insert it issued, so each answer
//! can be checked against that oracle as it arrives.

use std::collections::BTreeSet;

use ycsb::Dataset;

/// Outcome of one operation as the benchmark judges it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Completed with a correct answer.
    Ok,
    /// Completed with a wrong answer.
    Wrong,
    /// Returned an error.
    Error,
}

/// A point lookup of loaded key `key` must return its loaded value.
pub fn point(data: &Dataset, key: u64, got: Option<u64>) -> bool {
    // `value * gap == key` without a division: this runs once per op.
    key < data.domain() && got.is_some_and(|v| v.wrapping_mul(data.gap) == key)
}

/// A scan over `[lo, hi]` (both loaded keys) must return rows in key
/// order, all inside the range, every loaded key of the range with its
/// loaded value, and otherwise only `(key, value)` pairs some client
/// tried to insert (`issued`), whether or not that insert had returned.
///
/// Runs on every returned row, so it walks the expected loaded keys
/// (a chunk at a time where nothing was inserted) instead of dividing
/// each key by the gap.
pub fn range(
    data: &Dataset,
    issued: &BTreeSet<(u64, u64)>,
    lo: u64,
    hi: u64,
    rows: &[(u64, u64)],
) -> bool {
    const CHUNK: usize = 8;
    let gap = data.gap;
    let mut next_key = lo;
    let mut next_value = lo / gap;
    let mut prev = lo;
    let mut i = 0;
    while i < rows.len() {
        // Common case: a whole chunk of consecutive loaded rows, compared
        // without branches so the loop vectorises.
        if let Some(chunk) = rows.get(i..i + CHUNK) {
            let loaded = chunk.iter().zip(0u64..).fold(true, |ok, (&(k, v), j)| {
                ok & (k == next_key + j * gap) & (v == next_value + j)
            });
            if loaded {
                prev = next_key + (CHUNK as u64 - 1) * gap;
                next_key += CHUNK as u64 * gap;
                next_value += CHUNK as u64;
                i += CHUNK;
                continue;
            }
        }
        let (k, v) = rows[i];
        if k == next_key && v == next_value {
            // The next loaded key with its loaded value. (`next_key >
            // prev` always; a key past `hi` leaves `next_key` past its
            // final value.)
            next_key += gap;
            next_value += 1;
        } else if k < prev || k > next_key || k + gap == next_key || k == next_key {
            // Out of order, skipped a loaded key, repeated one, or gave
            // one a wrong value.
            return false;
        } else if k > hi || !issued.contains(&(k, v)) {
            // A key no client inserted.
            return false;
        }
        prev = k;
        i += 1;
    }
    next_key == hi + data.gap
}

/// After the window, a lookup of an acknowledged insert's key must return
/// a value some client inserted under that key (keys may be drawn twice:
/// the index is non-unique and returns the first live entry).
pub fn inserted(issued: &BTreeSet<(u64, u64)>, key: u64, got: Option<u64>) -> bool {
    got.is_some_and(|v| issued.contains(&(key, v)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn data() -> Dataset {
        Dataset::new(100)
    }

    #[test]
    fn point_needs_the_loaded_value() {
        let d = data();
        assert!(point(&d, 80, Some(10)));
        assert!(!point(&d, 80, Some(11)));
        assert!(!point(&d, 80, None));
        assert!(!point(&d, 81, Some(10)));
    }

    #[test]
    fn range_accepts_loaded_rows_and_issued_inserts() {
        let d = data();
        let issued: BTreeSet<_> = [(17, 5), (17, 6)].into_iter().collect();
        let rows = [(16, 2), (17, 5), (17, 6), (24, 3)];
        assert!(range(&d, &issued, 16, 24, &rows));
        assert!(range(&d, &issued, 16, 24, &[(16, 2), (24, 3)]));
    }

    #[test]
    fn range_rejects_bad_answers() {
        let d = data();
        let issued: BTreeSet<_> = [(17, 5)].into_iter().collect();
        // Missing loaded key.
        assert!(!range(&d, &issued, 16, 32, &[(16, 2), (32, 4)]));
        // Wrong value.
        assert!(!range(&d, &issued, 16, 24, &[(16, 2), (24, 4)]));
        // Out of order.
        assert!(!range(&d, &issued, 16, 24, &[(24, 3), (16, 2)]));
        // Outside the range.
        assert!(!range(&d, &issued, 16, 24, &[(16, 2), (24, 3), (32, 4)]));
        // Never-issued insert.
        assert!(!range(&d, &issued, 16, 24, &[(16, 2), (19, 1), (24, 3)]));
        // Repeated loaded key.
        assert!(!range(&d, &issued, 16, 24, &[(16, 2), (16, 2), (24, 3)]));
        // Empty answer.
        assert!(!range(&d, &issued, 16, 24, &[]));
    }

    #[test]
    fn range_checks_long_scans_chunk_by_chunk() {
        let d = data();
        let issued: BTreeSet<_> = [(41, 9)].into_iter().collect();
        let mut rows: Vec<_> = (2..=60).map(|i| (i * 8, i)).collect();
        assert!(range(&d, &issued, 16, 480, &rows));
        rows.insert(4, (41, 9));
        assert!(range(&d, &issued, 16, 480, &rows));
        let mut missing = rows.clone();
        missing.remove(20);
        assert!(!range(&d, &issued, 16, 480, &missing));
        let mut wrong = rows.clone();
        wrong[30].1 += 1;
        assert!(!range(&d, &issued, 16, 480, &wrong));
        let mut beyond = rows.clone();
        beyond.push((488, 61));
        assert!(!range(&d, &issued, 16, 480, &beyond));
    }

    #[test]
    fn inserted_accepts_any_issued_value_of_the_key() {
        let issued: BTreeSet<_> = [(17, 5), (17, 6)].into_iter().collect();
        assert!(inserted(&issued, 17, Some(6)));
        assert!(!inserted(&issued, 17, Some(7)));
        assert!(!inserted(&issued, 17, None));
    }
}

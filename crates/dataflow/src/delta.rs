//! Z-set deltas and consolidated collections — the algebra every
//! operator in this crate is linear (or bilinear) over.
//!
//! A [`Delta`] is a weighted batch of rows: weight `+1` inserts a row,
//! `-1` retracts one, and arbitrary integer weights arise transiently
//! inside operators (a join multiplies weights). A [`DiffCollection`] is
//! the consolidated integral of all deltas applied so far: a multiset
//! mapping each `(key, value)` row to its multiplicity. Together they
//! give the standard incremental-view-maintenance contract:
//!
//! ```text
//! collection_after = collection_before + delta
//! op(collection + delta) = op(collection) + δop(delta, state)
//! ```
//!
//! where `δop` touches only `O(|delta|)` rows (plus the documented
//! rescan fallback of the extremum aggregates).

use std::collections::BTreeMap;

/// One weighted row change: `(key, value, weight)`.
pub type Row<K, V> = (K, V, i64);

/// A weighted batch of row changes. Rows are kept in insertion order and
/// may mention the same `(key, value)` more than once;
/// [`consolidate`](Delta::consolidate) merges them.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Delta<K, V> {
    rows: Vec<Row<K, V>>,
}

impl<K: Ord + Copy, V: Ord + Copy> Delta<K, V> {
    /// Empty delta.
    pub fn new() -> Self {
        Delta { rows: Vec::new() }
    }

    /// Builds a delta from raw rows (zero weights are dropped).
    pub fn from_rows(rows: impl IntoIterator<Item = Row<K, V>>) -> Self {
        Delta {
            rows: rows.into_iter().filter(|&(_, _, w)| w != 0).collect(),
        }
    }

    /// Appends one weighted row.
    pub fn push(&mut self, key: K, val: V, weight: i64) {
        if weight != 0 {
            self.rows.push((key, val, weight));
        }
    }

    /// The raw weighted rows.
    pub fn rows(&self) -> &[Row<K, V>] {
        &self.rows
    }

    /// Number of raw rows (the operator cost unit).
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the delta carries no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Drops every row, keeping the buffer.
    pub fn clear(&mut self) {
        self.rows.clear();
    }

    /// Heap bytes held by the row buffer.
    pub fn space_bytes(&self) -> usize {
        self.rows.capacity() * size_of::<Row<K, V>>()
    }

    /// Merges duplicate `(key, value)` rows and drops zero-weight
    /// residue, producing the canonical sorted form — in place, nothing
    /// allocated. Canonical rows (strictly ascending; stored weights are
    /// never zero) are left as they are.
    pub fn consolidate(&mut self) {
        let key = |r: &Row<K, V>| (r.0, r.1);
        if self.rows.windows(2).all(|w| key(&w[0]) < key(&w[1])) {
            return;
        }
        self.rows.sort_unstable_by_key(key);
        self.rows.dedup_by(|cur, prev| {
            let same = key(cur) == key(prev);
            if same {
                prev.2 += cur.2;
            }
            same
        });
        self.rows.retain(|r| r.2 != 0);
    }
}

/// The rows under one key. A class output has one row per node, so the
/// single-valued case is inline (24 bytes for `u64` values); only a key
/// with several live values pays for a map.
#[derive(Clone, Debug)]
enum Slot<V> {
    Empty,
    One(V, i64),
    // Boxed to keep the slot at 24 bytes; an inline map makes it 32.
    #[allow(clippy::box_collection)]
    Many(Box<BTreeMap<V, i64>>),
}

impl<V: Ord + Copy> Slot<V> {
    /// Adds `weight` to `val`'s multiplicity; returns the change in the
    /// number of distinct live rows (−1, 0 or +1).
    fn add(&mut self, val: V, weight: i64) -> isize {
        match self {
            Slot::Empty => {
                *self = Slot::One(val, weight);
                1
            }
            Slot::One(v, m) if *v == val => {
                *m += weight;
                if *m != 0 {
                    return 0;
                }
                *self = Slot::Empty;
                -1
            }
            Slot::One(v, m) => {
                *self = Slot::Many(Box::new(BTreeMap::from([(*v, *m), (val, weight)])));
                1
            }
            Slot::Many(vals) => {
                let m = vals.entry(val).or_insert(0);
                let was = *m != 0;
                *m += weight;
                if *m != 0 {
                    return isize::from(!was);
                }
                vals.remove(&val);
                if vals.len() == 1 {
                    let (&v, &m) = vals.iter().next().expect("one entry left");
                    *self = Slot::One(v, m);
                }
                -1
            }
        }
    }

    /// The `(value, multiplicity)` entries, in value order.
    fn iter(&self) -> impl Iterator<Item = (V, i64)> + '_ {
        let (one, many) = match self {
            Slot::Empty => (None, None),
            Slot::One(v, m) => (Some((*v, *m)), None),
            Slot::Many(vals) => (None, Some(vals)),
        };
        one.into_iter().chain(
            many.into_iter()
                .flat_map(|vals| vals.iter().map(|(&v, &m)| (v, m))),
        )
    }
}

/// Upper estimate of a `BTreeMap<K, V>`'s heap bytes: half-full leaves
/// (the B-tree invariant's worst case) plus their share of inner nodes.
fn btree_bytes<K, V>(entries: usize) -> usize {
    entries * 2 * (size_of::<K>() + size_of::<V>() + 8)
}

/// The column grows over a key only below `COLUMN_SLACK + 4 × live
/// rows`, so its length is bounded by the rows it was grown for.
const COLUMN_SLACK: u64 = 64;

/// A consolidated multiset of `(key, value)` rows: the integral of every
/// delta applied so far. Keys are node ids (or the aggregates' `0`), so
/// the rows live in a **column of slots indexed by key**: a lookup is
/// one index, a node-keyed class output costs 24 bytes a row, and
/// iteration order is `(key, value)` by construction. The column never
/// grows past four slots per live row (plus [`COLUMN_SLACK`]); a key
/// beyond that — a view that keeps a sparse few of many nodes, or a
/// hostile `u64::MAX` — is held in a sorted overflow map, whose keys
/// all lie past the column's end.
#[derive(Clone, Debug, Default)]
pub struct DiffCollection<V> {
    column: Vec<Slot<V>>,
    overflow: BTreeMap<u64, Slot<V>>,
    rows: usize,
}

impl<V: Ord + Copy> DiffCollection<V> {
    /// Empty collection.
    pub fn new() -> Self {
        DiffCollection {
            column: Vec::new(),
            overflow: BTreeMap::new(),
            rows: 0,
        }
    }

    /// Applies one weighted row; rows whose multiplicity reaches zero
    /// vanish.
    pub fn apply_row(&mut self, key: u64, val: V, weight: i64) {
        if weight == 0 {
            return;
        }
        if key >= self.column.len() as u64 && key < COLUMN_SLACK + 4 * self.rows as u64 {
            // Grow the column over `key`, taking back the overflow keys
            // it now covers.
            self.column.resize_with(key as usize + 1, || Slot::Empty);
            let beyond = self.overflow.split_off(&(key + 1));
            for (k, slot) in std::mem::replace(&mut self.overflow, beyond) {
                self.column[k as usize] = slot;
            }
        }
        let change = if key < self.column.len() as u64 {
            self.column[key as usize].add(val, weight)
        } else {
            let slot = self.overflow.entry(key).or_insert(Slot::Empty);
            let change = slot.add(val, weight);
            if matches!(slot, Slot::Empty) {
                self.overflow.remove(&key);
            }
            change
        };
        self.rows = self.rows.wrapping_add_signed(change);
    }

    /// Applies a whole delta.
    pub fn apply(&mut self, delta: &Delta<u64, V>) {
        for &(k, v, w) in delta.rows() {
            self.apply_row(k, v, w);
        }
    }

    fn slot(&self, key: u64) -> &Slot<V> {
        let in_column = usize::try_from(key).ok().and_then(|k| self.column.get(k));
        in_column
            .or_else(|| self.overflow.get(&key))
            .unwrap_or(&Slot::Empty)
    }

    /// Multiplicity of one row (0 when absent).
    pub fn multiplicity(&self, key: u64, val: V) -> i64 {
        self.values_of(key)
            .find(|&(v, _)| v == val)
            .map_or(0, |(_, m)| m)
    }

    /// Distinct rows present (multiplicity ≠ 0).
    pub fn len(&self) -> usize {
        self.rows
    }

    /// Whether the collection is empty.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// The `(value, multiplicity)` entries under one key, in value
    /// order.
    pub fn values_of(&self, key: u64) -> impl Iterator<Item = (V, i64)> + '_ {
        self.slot(key).iter()
    }

    /// All rows in `(key, value)` order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, V, i64)> + '_ {
        let column = self.column.iter().enumerate().map(|(k, s)| (k as u64, s));
        let overflow = self.overflow.iter().map(|(&k, s)| (k, s));
        column
            .chain(overflow)
            .flat_map(|(k, slot)| slot.iter().map(move |(v, m)| (k, v, m)))
    }

    /// All rows as a sorted vector — the materialized view shape the
    /// wire `VIEW` reply and the CLI print.
    pub fn to_rows(&self) -> Vec<(u64, V, i64)> {
        let mut rows = Vec::with_capacity(self.rows);
        rows.extend(self.iter());
        rows
    }

    /// Resident bytes: the struct, the column at its capacity, and the
    /// maps behind multi-valued and overflow keys.
    pub fn space_bytes(&self) -> usize {
        let slots = self.column.iter().chain(self.overflow.values());
        let boxed = slots.map(|slot| match slot {
            Slot::Many(vals) => size_of_val(&**vals) + btree_bytes::<V, i64>(vals.len()),
            _ => 0,
        });
        size_of::<Self>()
            + self.column.capacity() * size_of::<Slot<V>>()
            + btree_bytes::<u64, Slot<V>>(self.overflow.len())
            + boxed.sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn consolidate_merges_and_drops_zeroes() {
        let mut d: Delta<u64, u64> =
            Delta::from_rows([(1, 5, 1), (1, 5, 1), (2, 7, 1), (2, 7, -1)]);
        d.consolidate();
        assert_eq!(d.rows(), &[(1, 5, 2)]);
    }

    #[test]
    fn collection_tracks_multiplicities_and_row_count() {
        let mut c: DiffCollection<u64> = DiffCollection::new();
        c.apply_row(3, 9, 1);
        c.apply_row(3, 9, 1);
        c.apply_row(3, 4, 1);
        assert_eq!(c.len(), 2);
        assert_eq!(c.multiplicity(3, 9), 2);
        c.apply_row(3, 9, -2);
        assert_eq!(c.len(), 1);
        assert_eq!(c.to_rows(), vec![(3, 4, 1)]);
        c.apply_row(3, 4, -1);
        assert!(c.is_empty());
    }

    #[test]
    fn a_slot_is_24_bytes() {
        assert_eq!(size_of::<Slot<u64>>(), 24);
    }

    #[test]
    fn insert_then_delete_cancels() {
        let mut c: DiffCollection<u64> = DiffCollection::new();
        let mut d = Delta::new();
        d.push(1, 2, 1);
        d.push(1, 2, -1);
        c.apply(&d);
        assert!(c.is_empty());
    }
}

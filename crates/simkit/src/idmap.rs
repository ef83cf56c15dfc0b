//! An id-keyed table held as two id-sorted vectors.
//!
//! [`IdMap`] is what the ecovisor's per-batch and per-tick tables need
//! from an ordered map: lookup by id, iteration in ascending id order,
//! and cheap appends, since ids are handed out from a rising counter.
//! A lookup is a binary search over a dense key vector (a key above
//! the last one is answered without searching), and a walk is a walk
//! over two slices, so both beat a B-tree's pointer chase at the sizes
//! a node holds. The table is never indexed by the id itself: ids come
//! from snapshots and transfers, and one near `u64::MAX` must not size
//! anything.

/// A map from ids to values, ascending by id.
///
/// Iteration order is ascending key order, as a `BTreeMap`'s is. Bulk
/// input ([`FromIterator`], [`Extend`]) is sorted once, and a repeated
/// key keeps its last value, as it does in a `BTreeMap`.
///
/// ```
/// use simkit::IdMap;
///
/// let mut m: IdMap<u32, &str> = [(3, "c"), (1, "a")].into_iter().collect();
/// m.insert(2, "b");
/// assert_eq!(m.keys().copied().collect::<Vec<_>>(), [1, 2, 3]);
/// assert_eq!(m.remove(&1), Some("a"));
/// assert_eq!(m.get(&3), Some(&"c"));
/// ```
#[derive(Debug)]
pub struct IdMap<K, V> {
    keys: Vec<K>,
    values: Vec<V>,
}

impl<K, V> Default for IdMap<K, V> {
    fn default() -> Self {
        Self {
            keys: Vec::new(),
            values: Vec::new(),
        }
    }
}

impl<K: Ord + Copy, V> IdMap<K, V> {
    /// An empty map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// Whether the map holds no entry.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// `Ok(index)` of `key`, or `Err(index)` where it would be inserted.
    fn find(&self, key: &K) -> Result<usize, usize> {
        match self.keys.last() {
            Some(last) if last < key => Err(self.keys.len()),
            _ => self.keys.binary_search(key),
        }
    }

    /// The value under `key`.
    pub fn get(&self, key: &K) -> Option<&V> {
        self.find(key).ok().map(|i| &self.values[i])
    }

    /// The value under `key`, mutably.
    pub fn get_mut(&mut self, key: &K) -> Option<&mut V> {
        self.find(key).ok().map(|i| &mut self.values[i])
    }

    /// Whether `key` is present.
    pub fn contains_key(&self, key: &K) -> bool {
        self.find(key).is_ok()
    }

    /// Inserts `value` under `key`, returning the value it replaces.
    /// A key above every present one is an append.
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        match self.find(&key) {
            Ok(i) => Some(std::mem::replace(&mut self.values[i], value)),
            Err(i) => {
                self.keys.insert(i, key);
                self.values.insert(i, value);
                None
            }
        }
    }

    /// Removes `key`, returning its value.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        let i = self.find(key).ok()?;
        self.keys.remove(i);
        Some(self.values.remove(i))
    }

    /// Removes every entry whose value `pred` selects, in one pass,
    /// and returns their values in key order.
    pub fn remove_where(&mut self, mut pred: impl FnMut(&V) -> bool) -> Vec<V> {
        let keys = std::mem::take(&mut self.keys);
        let values = std::mem::take(&mut self.values);
        let mut removed = Vec::new();
        for (key, value) in keys.into_iter().zip(values) {
            if pred(&value) {
                removed.push(value);
            } else {
                self.keys.push(key);
                self.values.push(value);
            }
        }
        removed
    }

    /// The keys, ascending.
    pub fn keys(&self) -> std::slice::Iter<'_, K> {
        self.keys.iter()
    }

    /// The values, in key order.
    pub fn values(&self) -> std::slice::Iter<'_, V> {
        self.values.iter()
    }

    /// The values, mutably, in key order.
    pub fn values_mut(&mut self) -> std::slice::IterMut<'_, V> {
        self.values.iter_mut()
    }

    /// The entries, in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&K, &V)> {
        self.keys.iter().zip(&self.values)
    }

    /// The entries with their values mutable, in key order.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (&K, &mut V)> {
        self.keys.iter().zip(&mut self.values)
    }
}

impl<K: Ord + Copy, V> Extend<(K, V)> for IdMap<K, V> {
    /// Adds every entry with one sort: what is held and what arrives are
    /// two ascending runs when the arrivals are, so merging them is
    /// linear. An arriving key replaces a held one, and the last of a
    /// repeated arriving key wins.
    fn extend<I: IntoIterator<Item = (K, V)>>(&mut self, iter: I) {
        let mut entries: Vec<(K, V)> = self.keys.drain(..).zip(self.values.drain(..)).collect();
        entries.extend(iter);
        // Stable, so the entries of one key keep their arrival order.
        entries.sort_by_key(|&(key, _)| key);
        for (key, value) in entries {
            if self.keys.last() == Some(&key) {
                *self.values.last_mut().expect("one value per key") = value;
            } else {
                self.keys.push(key);
                self.values.push(value);
            }
        }
    }
}

impl<K: Ord + Copy, V> FromIterator<(K, V)> for IdMap<K, V> {
    fn from_iter<I: IntoIterator<Item = (K, V)>>(iter: I) -> Self {
        let mut map = Self::new();
        map.extend(iter);
        map
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SimRng;
    use std::collections::BTreeMap;

    fn agree(ids: &IdMap<u64, u64>, model: &BTreeMap<u64, u64>, step: &str) {
        assert_eq!(ids.len(), model.len(), "{step}");
        assert!(
            ids.iter().eq(model.iter()),
            "{step}: {:?} vs {model:?}",
            ids.iter().collect::<Vec<_>>()
        );
        assert!(ids.keys().eq(model.keys()), "{step}");
        assert!(ids.values().eq(model.values()), "{step}");
    }

    /// A seeded walk drives the table and a `BTreeMap` side by side:
    /// ascending, descending and repeated inserts, removes of present
    /// and absent keys, lookups and writes through `get_mut`, bulk
    /// builds from shuffled lists with a repeated key, and one-pass
    /// removals. Both must hold the same entries in the same order after
    /// every step.
    #[test]
    fn agrees_with_a_btree_map_step_by_step() {
        for seed in 0..64 {
            let mut rng = SimRng::from_seed(0x1D_3A90 + seed);
            let mut ids = IdMap::new();
            let mut model = BTreeMap::new();
            let (mut up, mut down) = (1_000, 1_000);
            for step in 0..400 {
                let key = match rng.uniform_u64(0, 3) {
                    0 => {
                        up += 1;
                        up
                    }
                    1 => {
                        down -= 1;
                        down
                    }
                    _ => rng.uniform_u64(0, 2_100),
                };
                let value = rng.next_u64();
                let what = match rng.uniform_u64(0, 8) {
                    0..=2 => {
                        assert_eq!(ids.insert(key, value), model.insert(key, value));
                        "insert"
                    }
                    3 | 4 => {
                        assert_eq!(ids.remove(&key), model.remove(&key));
                        "remove"
                    }
                    5 => {
                        assert_eq!(ids.get(&key), model.get(&key));
                        assert_eq!(ids.contains_key(&key), model.contains_key(&key));
                        if let (Some(a), Some(b)) = (ids.get_mut(&key), model.get_mut(&key)) {
                            *a = value;
                            *b = value;
                        }
                        "get_mut"
                    }
                    6 => {
                        let mut list: Vec<(u64, u64)> =
                            model.iter().map(|(&k, &v)| (k, v)).collect();
                        if let Some(&(k, _)) = list.first() {
                            list.push((k, value));
                        }
                        for i in (1..list.len()).rev() {
                            list.swap(i, rng.uniform_u64(0, i as u64 + 1) as usize);
                        }
                        ids = list.iter().copied().collect();
                        model = list.iter().copied().collect();
                        "collect"
                    }
                    _ => {
                        let odd = |v: &u64| v % 2 == 1;
                        let want: Vec<u64> = model.values().copied().filter(odd).collect();
                        model.retain(|_, v| !odd(v));
                        assert_eq!(ids.remove_where(odd), want);
                        "remove_where"
                    }
                };
                agree(
                    &ids,
                    &model,
                    &format!("seed {seed} step {step}: {what} {key}"),
                );
            }
        }
    }

    #[test]
    fn extend_merges_and_the_last_repeated_key_wins() {
        let mut ids: IdMap<u32, char> = [(5, 'a'), (1, 'b')].into_iter().collect();
        ids.extend([(3, 'c'), (5, 'd'), (3, 'e'), (9, 'f')]);
        let mut model: BTreeMap<u32, char> = [(5, 'a'), (1, 'b')].into_iter().collect();
        model.extend([(3, 'c'), (5, 'd'), (3, 'e'), (9, 'f')]);
        assert!(ids.iter().eq(model.iter()));
    }

    /// An id near the top of the key space is one entry, not a table
    /// sized by it.
    #[test]
    fn a_huge_id_is_one_entry() {
        let mut ids = IdMap::new();
        ids.insert(u64::MAX - 1, ());
        ids.insert(0, ());
        assert_eq!(ids.len(), 2);
        assert!(ids.contains_key(&(u64::MAX - 1)));
        assert!(!ids.contains_key(&u64::MAX));
    }
}

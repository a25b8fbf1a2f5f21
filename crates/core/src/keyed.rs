//! Request-side tables keyed like the forms candidates carry.
//!
//! Candidate records carry each title and label in normal form with its
//! [`text_key`](minaret_scholarly::text_key). A request prepares the
//! manuscript's side once as a [`KeyedTable`]: entries sorted by key, so
//! a probe is a binary search and request text cannot choose where an
//! entry lands, behind a bit filter of the keys present, so a probe for
//! a key the table lacks usually reads one word. A key match is only a
//! lead: the probe's text must equal the entry's.

/// Words of the key filter: 4 096 bits, indexed by a key's top 12 bits.
const FILTER_WORDS: usize = 64;

/// Entries `(key, text, value)` sorted by key.
pub(crate) struct KeyedTable<'a, V> {
    filter: [u64; FILTER_WORDS],
    entries: Vec<(u64, &'a str, V)>,
}

impl<'a, V> KeyedTable<'a, V> {
    /// The table of `entries`. Entries sharing a key keep their order.
    pub(crate) fn new(mut entries: Vec<(u64, &'a str, V)>) -> Self {
        entries.sort_by_key(|e| e.0);
        let mut filter = [0u64; FILTER_WORDS];
        for &(key, _, _) in &entries {
            let (word, bit) = filter_slot(key);
            filter[word] |= bit;
        }
        KeyedTable { filter, entries }
    }

    /// The values of the entries whose key is `key` and whose text is
    /// `text`, in the order they were given.
    pub(crate) fn get<'t>(&'t self, key: u64, text: &'t str) -> impl Iterator<Item = &'t V> + 't {
        let (word, bit) = filter_slot(key);
        let first = if self.filter[word] & bit == 0 {
            self.entries.len()
        } else {
            self.entries.partition_point(|e| e.0 < key)
        };
        self.entries[first..]
            .iter()
            .take_while(move |e| e.0 == key)
            .filter(move |e| e.1 == text)
            .map(|e| &e.2)
    }
}

/// The filter word and bit of `key`.
fn filter_slot(key: u64) -> (usize, u64) {
    ((key >> 58) as usize, 1 << ((key >> 52) & 63))
}

#[cfg(test)]
mod tests {
    use super::*;
    use minaret_scholarly::text_key;

    #[test]
    fn texts_sharing_a_key_are_told_apart() {
        // Two titles filed under one key, one of them listed twice: a
        // probe reaches the entries of its own text only.
        let table = KeyedTable::new(vec![
            (7, "notes on the analytical engine", 0u32),
            (9, "deep learning for graphs", 1),
            (7, "scalable sparql processing", 1),
            (7, "notes on the analytical engine", 2),
        ]);
        let get = |key, text| table.get(key, text).copied().collect::<Vec<_>>();
        assert_eq!(get(7, "notes on the analytical engine"), vec![0, 2]);
        assert_eq!(get(7, "scalable sparql processing"), vec![1]);
        assert_eq!(get(7, "deep learning for graphs"), Vec::<u32>::new());
        assert_eq!(get(9, "deep learning for graphs"), vec![1]);
        assert_eq!(get(8, "notes on the analytical engine"), Vec::<u32>::new());
    }

    #[test]
    fn the_filter_never_hides_a_present_key() {
        let texts: Vec<String> = (0..2_000).map(|i| format!("title {i}")).collect();
        let table = KeyedTable::new(
            texts
                .iter()
                .enumerate()
                .map(|(i, t)| (text_key(t), t.as_str(), i))
                .collect(),
        );
        for (i, t) in texts.iter().enumerate() {
            assert_eq!(
                table.get(text_key(t), t).copied().collect::<Vec<_>>(),
                vec![i]
            );
        }
        assert_eq!(table.get(text_key("title x"), "title x").count(), 0);
    }
}

//! Full-text trie over node/edge labels (the paper's "full text indexes
//! shown in Fig. 2 correspond to tries").
//!
//! Keyword search in graphVizdb returns "nodes whose labels *contain* the
//! given keyword". To answer substring queries from a trie we index every
//! suffix of every word (a word-level suffix trie): searching `falou`
//! walks the trie to the `falou…` subtree and collects the ids of every
//! label with a word having `falou` at any position.
//!
//! The trie lives in memory (it indexes distinct words, not rows) and is
//! serialized into a page chain on flush — mirroring how MySQL keeps
//! InnoDB's fulltext auxiliary structures hot in the cache.
//!
//! Words are lowercased and tokenized on non-alphanumeric boundaries;
//! suffix indexing is capped at [`MAX_WORD`] bytes per word to bound the
//! O(len²) suffix blowup on pathological tokens.
//!
//! Every posting list is **sorted and unique**. An insert finds its slot
//! by binary search, so ids arriving in ascending order (how a layer is
//! bulk-built) are appended in O(log n), and a delete finds its id the
//! same way. Loading sorts and dedups each list, so blobs written in
//! first-seen order still open.

use crate::buffer::BufferPool;
use crate::error::{Result, StorageError};
use crate::page::{PageId, PAGE_SIZE};
use std::collections::BTreeMap;

/// Longest word prefix whose suffixes are indexed.
pub const MAX_WORD: usize = 32;

#[derive(Debug, Default, Clone)]
struct TrieNode {
    children: BTreeMap<u8, u32>,
    /// Ids whose label has a word with this exact suffix ending here;
    /// sorted, no duplicates.
    ids: Vec<u64>,
}

/// A substring-searchable label index.
#[derive(Debug, Default, Clone)]
pub struct FullTextTrie {
    nodes: Vec<TrieNode>,
}

impl FullTextTrie {
    /// An empty trie.
    pub fn new() -> Self {
        FullTextTrie {
            nodes: vec![TrieNode::default()],
        }
    }

    /// Number of trie nodes (diagnostic).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Index `label` under `id`. Idempotent: each posting list holds `id`
    /// at most once, in sorted position. Inserting ids in ascending order
    /// appends to every list it touches.
    pub fn insert(&mut self, label: &str, id: u64) {
        for word in tokenize(label) {
            let word = &word[..word.len().min(MAX_WORD)];
            for start in 0..word.len() {
                self.insert_suffix(&word[start..], id);
            }
        }
    }

    fn insert_suffix(&mut self, suffix: &[u8], id: u64) {
        let mut cur = 0usize;
        for &b in suffix {
            let next = match self.nodes[cur].children.get(&b) {
                Some(&n) => n as usize,
                None => {
                    let n = self.nodes.len();
                    self.nodes.push(TrieNode::default());
                    self.nodes[cur].children.insert(b, n as u32);
                    n
                }
            };
            cur = next;
        }
        let ids = &mut self.nodes[cur].ids;
        if let Err(pos) = ids.binary_search(&id) {
            ids.insert(pos, id);
        }
    }

    /// Ids of labels containing `keyword` (case-insensitive substring of
    /// any word), sorted and deduplicated.
    pub fn search(&self, keyword: &str) -> Vec<u64> {
        let mut out = Vec::new();
        for word in tokenize(keyword) {
            // Multi-word keywords: every word must match at least once;
            // intersect per-word results.
            let ids = self.search_word(&word);
            if out.is_empty() {
                out = ids;
            } else {
                out.retain(|id| ids.binary_search(id).is_ok());
            }
            if out.is_empty() {
                return out;
            }
        }
        out
    }

    fn search_word(&self, word: &[u8]) -> Vec<u64> {
        let Some(cur) = self.find(word) else {
            return Vec::new();
        };
        // Collect the whole subtree: every suffix extending this prefix.
        let mut out = Vec::new();
        let mut stack = vec![cur];
        while let Some(n) = stack.pop() {
            out.extend_from_slice(&self.nodes[n].ids);
            stack.extend(self.nodes[n].children.values().map(|&c| c as usize));
        }
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Undo [`FullTextTrie::insert`]`(label, id)` for an id indexed under
    /// `label` alone, as a row id in the edge-label trie is: remove `id`
    /// from the posting lists of `label`'s word suffixes and from no other
    /// list. Other ids on those suffixes stay. Walks only those suffix
    /// paths, not the whole trie.
    pub fn remove(&mut self, label: &str, id: u64) {
        for word in tokenize(label) {
            let word = &word[..word.len().min(MAX_WORD)];
            for start in 0..word.len() {
                if let Some(n) = self.find(&word[start..]) {
                    let ids = &mut self.nodes[n].ids;
                    if let Ok(pos) = ids.binary_search(&id) {
                        ids.remove(pos);
                    }
                }
            }
        }
    }

    /// The trie node `path` leads to from the root, if any.
    fn find(&self, path: &[u8]) -> Option<usize> {
        let mut cur = 0usize;
        for b in path {
            cur = *self.nodes[cur].children.get(b)? as usize;
        }
        Some(cur)
    }

    /// Serialize into `pool` as a page-chain blob; returns the head page.
    pub fn save(&self, pool: &BufferPool) -> Result<PageId> {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&(self.nodes.len() as u64).to_le_bytes());
        for node in &self.nodes {
            bytes.extend_from_slice(&(node.ids.len() as u32).to_le_bytes());
            for &id in &node.ids {
                bytes.extend_from_slice(&id.to_le_bytes());
            }
            bytes.extend_from_slice(&(node.children.len() as u32).to_le_bytes());
            for (&b, &child) in &node.children {
                bytes.push(b);
                bytes.extend_from_slice(&child.to_le_bytes());
            }
        }
        blob::write(pool, &bytes)
    }

    /// Load a trie previously written by [`FullTextTrie::save`]. Posting
    /// lists are sorted and deduplicated on the way in, so blobs whose
    /// lists are in first-seen order (older files) load to the same trie.
    pub fn load(pool: &BufferPool, head: PageId) -> Result<Self> {
        let bytes = blob::read(pool, head)?;
        let mut pos = 0usize;
        let take = |pos: &mut usize, n: usize| -> Result<&[u8]> {
            if *pos + n > bytes.len() {
                return Err(StorageError::Corrupt("trie blob truncated".into()));
            }
            let s = &bytes[*pos..*pos + n];
            *pos += n;
            Ok(s)
        };
        // Counts carry no CRC: reject one the remaining bytes cannot hold
        // (a node is at least its two 4-byte counts, an id is 8 bytes)
        // before it sizes an allocation.
        let fits = |pos: usize, count: usize, min: usize| -> Result<()> {
            if count > (bytes.len() - pos) / min {
                return Err(StorageError::Corrupt("trie blob count overruns".into()));
            }
            Ok(())
        };
        let node_count = u64::from_le_bytes(take(&mut pos, 8)?.try_into().unwrap()) as usize;
        fits(pos, node_count, 8)?;
        let mut nodes = Vec::with_capacity(node_count);
        for _ in 0..node_count {
            let id_count = u32::from_le_bytes(take(&mut pos, 4)?.try_into().unwrap()) as usize;
            fits(pos, id_count, 8)?;
            let mut ids = Vec::with_capacity(id_count);
            for _ in 0..id_count {
                ids.push(u64::from_le_bytes(take(&mut pos, 8)?.try_into().unwrap()));
            }
            ids.sort_unstable();
            ids.dedup();
            let child_count = u32::from_le_bytes(take(&mut pos, 4)?.try_into().unwrap()) as usize;
            let mut children = BTreeMap::new();
            for _ in 0..child_count {
                let b = take(&mut pos, 1)?[0];
                let child = u32::from_le_bytes(take(&mut pos, 4)?.try_into().unwrap());
                children.insert(b, child);
            }
            nodes.push(TrieNode { children, ids });
        }
        if nodes.is_empty() {
            return Err(StorageError::Corrupt("trie blob has no root".into()));
        }
        Ok(FullTextTrie { nodes })
    }
}

/// Lowercased alphanumeric words of `text` (as byte vectors).
fn tokenize(text: &str) -> Vec<Vec<u8>> {
    text.to_lowercase()
        .split(|c: char| !c.is_alphanumeric())
        .filter(|w| !w.is_empty())
        .map(|w| w.as_bytes().to_vec())
        .collect()
}

/// Page-chain blobs: arbitrary byte strings spread over linked pages.
/// Layout per page: `[next u64][len u16][payload]`.
pub mod blob {
    use super::*;

    const OFF_NEXT: usize = 0;
    const OFF_LEN: usize = 8;
    const HEADER: usize = 10;
    const CAP: usize = PAGE_SIZE - HEADER;

    /// Write `bytes` as a new page chain; returns the head page id.
    pub fn write(pool: &BufferPool, bytes: &[u8]) -> Result<PageId> {
        let chunks: Vec<&[u8]> = if bytes.is_empty() {
            vec![&[][..]]
        } else {
            bytes.chunks(CAP).collect()
        };
        let pages: Vec<PageId> = (0..chunks.len())
            .map(|_| pool.allocate())
            .collect::<Result<_>>()?;
        for (i, chunk) in chunks.iter().enumerate() {
            let next = pages.get(i + 1).map(|p| p.0).unwrap_or(0);
            pool.with_page_mut(pages[i], |p| {
                p.put_u64(OFF_NEXT, next);
                p.put_u16(OFF_LEN, chunk.len() as u16);
                p.put_slice(HEADER, chunk);
            })?;
        }
        Ok(pages[0])
    }

    /// Read a blob written by [`write()`].
    pub fn read(pool: &BufferPool, head: PageId) -> Result<Vec<u8>> {
        let mut out = Vec::new();
        let mut pid = head;
        loop {
            let next = pool.with_page(pid, |p| {
                let len = p.get_u16(OFF_LEN) as usize;
                out.extend_from_slice(p.get_slice(HEADER, len));
                p.get_u64(OFF_NEXT)
            })?;
            if next == 0 {
                return Ok(out);
            }
            pid = PageId(next);
        }
    }

    /// Free every page of a blob chain.
    pub fn free(pool: &BufferPool, head: PageId) -> Result<()> {
        let mut pid = head;
        loop {
            let next = pool.with_page(pid, |p| p.get_u64(OFF_NEXT))?;
            pool.free(pid)?;
            if next == 0 {
                return Ok(());
            }
            pid = PageId(next);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pager::Pager;

    #[test]
    fn substring_search_hits_mid_word() {
        let mut t = FullTextTrie::new();
        t.insert("Christos Faloutsos", 1);
        t.insert("Database Systems", 2);
        assert_eq!(t.search("alou"), vec![1]);
        assert_eq!(t.search("tos"), vec![1]);
        assert_eq!(t.search("base"), vec![2]);
        assert!(t.search("zzz").is_empty());
    }

    #[test]
    fn case_insensitive() {
        let mut t = FullTextTrie::new();
        t.insert("Zürich", 5);
        assert_eq!(t.search("ZÜRICH"), vec![5]);
        assert_eq!(t.search("rich"), vec![5]);
    }

    #[test]
    fn multi_word_keywords_intersect() {
        let mut t = FullTextTrie::new();
        t.insert("graph databases", 1);
        t.insert("graph theory", 2);
        t.insert("relational databases", 3);
        assert_eq!(t.search("graph databases"), vec![1]);
        assert_eq!(t.search("graph"), vec![1, 2]);
    }

    #[test]
    fn duplicate_ids_deduplicated() {
        let mut t = FullTextTrie::new();
        t.insert("aaa aaa aaa", 9);
        assert_eq!(t.search("a"), vec![9]);
        assert_eq!(t.search("aa"), vec![9]);
    }

    #[test]
    fn long_words_capped_not_lost() {
        let mut t = FullTextTrie::new();
        let long = "x".repeat(100);
        t.insert(&long, 3);
        // Prefix within the cap still matches.
        assert_eq!(t.search(&"x".repeat(10)), vec![3]);
    }

    #[test]
    fn remove_id_clears_postings() {
        let mut t = FullTextTrie::new();
        t.insert("shared word", 1);
        t.insert("shared word", 2);
        t.remove("shared word", 1);
        assert_eq!(t.search("shared"), vec![2]);
        assert_eq!(t.search("ord"), vec![2]);
    }

    #[test]
    fn remove_keeps_other_labels_and_shared_suffixes() {
        let mut t = FullTextTrie::new();
        t.insert("shared", 1);
        // A list outside `shared`'s suffixes keeps id 1.
        t.insert("other", 1);
        // "hared" and "red" end on suffix nodes of "shared" too.
        t.insert("hared", 2);
        t.insert("red", 3);
        t.insert("shared", 4);
        t.remove("shared", 1);
        assert_eq!(t.search("shared"), vec![4]);
        assert_eq!(t.search("hared"), vec![2, 4]);
        assert_eq!(t.search("red"), vec![2, 3, 4]);
        assert_eq!(t.search("other"), vec![1]);
        // Removing a label that was never indexed, or an absent id, is a no-op.
        t.remove("unseen", 2);
        t.remove("red", 9);
        assert_eq!(t.search("red"), vec![2, 3, 4]);
    }

    #[test]
    fn postings_stay_sorted_whatever_the_insert_order() {
        let mut t = FullTextTrie::new();
        for id in [5, 1, 9, 1, 3, 5] {
            t.insert("word", id);
        }
        for node in &t.nodes {
            assert!(node.ids.windows(2).all(|w| w[0] < w[1]), "{:?}", node.ids);
        }
        assert_eq!(t.search("or"), vec![1, 3, 5, 9]);
    }

    #[test]
    fn save_load_roundtrip() {
        let mut path = std::env::temp_dir();
        path.push(format!("gvdb-trie-{}", std::process::id()));
        let pool = BufferPool::new(Pager::create(&path).unwrap(), 32);
        let mut t = FullTextTrie::new();
        for (i, label) in ["alpha beta", "gamma", "alphabet soup"].iter().enumerate() {
            t.insert(label, i as u64);
        }
        let head = t.save(&pool).unwrap();
        let loaded = FullTextTrie::load(&pool, head).unwrap();
        assert_eq!(loaded.search("alpha"), vec![0, 2]);
        assert_eq!(loaded.search("soup"), vec![2]);
        assert_eq!(loaded.node_count(), t.node_count());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupt_counts_are_errors_not_aborts() {
        let mut path = std::env::temp_dir();
        path.push(format!("gvdb-trie-corrupt-{}", std::process::id()));
        let pool = BufferPool::new(Pager::create(&path).unwrap(), 8);
        let mut t = FullTextTrie::new();
        t.insert("ab", 1);
        let good = blob::read(&pool, t.save(&pool).unwrap()).unwrap();
        // Node count 2^40, then the root's id count 2^31.
        let mut huge_nodes = good.clone();
        huge_nodes[..8].copy_from_slice(&(1u64 << 40).to_le_bytes());
        let mut huge_ids = good;
        huge_ids[8..12].copy_from_slice(&(1u32 << 31).to_le_bytes());
        for blob_bytes in [huge_nodes, huge_ids] {
            let head = blob::write(&pool, &blob_bytes).unwrap();
            match FullTextTrie::load(&pool, head) {
                Err(StorageError::Corrupt(_)) => {}
                other => panic!("expected Corrupt, got {:?}", other.map(|t| t.node_count())),
            }
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn blob_roundtrip_multi_page() {
        let mut path = std::env::temp_dir();
        path.push(format!("gvdb-blob-{}", std::process::id()));
        let pool = BufferPool::new(Pager::create(&path).unwrap(), 8);
        let data: Vec<u8> = (0..50_000).map(|i| (i % 251) as u8).collect();
        let head = blob::write(&pool, &data).unwrap();
        assert_eq!(blob::read(&pool, head).unwrap(), data);
        blob::free(&pool, head).unwrap();
        // Empty blob edge case.
        let head = blob::write(&pool, &[]).unwrap();
        assert!(blob::read(&pool, head).unwrap().is_empty());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn tokenizer_splits_punctuation() {
        let words = tokenize("has-author: \"Per-Åke  Larson\" (2016)");
        let strs: Vec<String> = words
            .iter()
            .map(|w| String::from_utf8(w.clone()).unwrap())
            .collect();
        assert_eq!(strs, vec!["has", "author", "per", "åke", "larson", "2016"]);
    }
}

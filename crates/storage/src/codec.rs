//! R-tree node ⇄ page serialization.
//!
//! Fixed little-endian layout, one node per page (the paper's
//! node-fills-a-block organization):
//!
//! ```text
//! offset 0   u32  level          (0 = leaf)
//! offset 4   u32  entry count
//! offset 8   entries, 40 bytes each:
//!            f64 min_x, f64 min_y, f64 max_x, f64 max_y, u64 child
//! ```
//!
//! `child` holds an [`ItemId`] in leaves and a [`PageId`] (zero-extended)
//! in internal nodes — exactly the paper's `POINTER` field, "interpreted
//! as pointers to other R-tree nodes if CLASS is non_leaf and to database
//! tuples if CLASS is leaf".
//!
//! [`encode_entries`] tags the page as [`PageType::Node`].
//! [`NodeView::parse`] is the one parser: it validates the tag and
//! structural bounds, reports violations as an error string (the storage
//! layers wrap it into [`StorageError::Corrupt`](crate::StorageError::Corrupt)
//! with the page id attached) and hands back a borrowed view whose
//! entries decode on the fly — what the search loop reads, straight out
//! of the buffer pool's frame. [`decode`] is that view copied into an
//! owned [`DiskNode`], for callers that keep the node. The page-level
//! CRC is the pager's job.

use crate::page::{Page, PageId, PageType, PAYLOAD_SIZE};
use rtree_geom::Rect;
use rtree_index::ItemId;

/// Bytes per serialized entry.
pub const ENTRY_SIZE: usize = 40;
/// Bytes of node header.
pub const HEADER_SIZE: usize = 8;
/// Maximum entries a page can hold — the natural "disk branching factor"
/// (102 with 4 KiB pages and the 8-byte checksum footer).
pub const MAX_ENTRIES_PER_PAGE: usize = (PAYLOAD_SIZE - HEADER_SIZE) / ENTRY_SIZE;

/// Sanity bound on node levels; real trees at branching ~100 are depth
/// ≤ 10 even at billions of items, so anything larger is corruption.
const MAX_LEVEL: u32 = 64;

/// A decoded on-disk entry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiskEntry {
    /// Bounding rectangle.
    pub mbr: Rect,
    /// Child page (internal) or item id (leaf), per the node's level.
    pub child: u64,
}

/// A decoded on-disk node.
#[derive(Debug, Clone, PartialEq)]
pub struct DiskNode {
    /// Height above the leaves (0 = leaf).
    pub level: u32,
    /// The node's entries.
    pub entries: Vec<DiskEntry>,
}

impl DiskNode {
    /// `true` if this node's entries point at items.
    pub fn is_leaf(&self) -> bool {
        self.level == 0
    }

    /// Child as a page id (internal nodes).
    pub fn child_page(&self, i: usize) -> PageId {
        debug_assert!(!self.is_leaf());
        self.entries[i].child_page()
    }

    /// Child as an item id (leaf nodes).
    pub fn child_item(&self, i: usize) -> ItemId {
        debug_assert!(self.is_leaf());
        ItemId(self.entries[i].child)
    }
}

impl DiskEntry {
    /// `child` as a page id (entries of internal nodes).
    ///
    /// # Panics
    ///
    /// Panics if `child` does not fit a page id.
    #[inline]
    pub fn child_page(&self) -> PageId {
        PageId(u32::try_from(self.child).expect("page id fits u32"))
    }

    fn read(b: &[u8]) -> DiskEntry {
        let f = |o: usize| f64::from_le_bytes(b[o..o + 8].try_into().expect("8"));
        DiskEntry {
            mbr: Rect::new(f(0), f(8), f(16), f(24)),
            child: u64::from_le_bytes(b[32..40].try_into().expect("8")),
        }
    }

    fn write(&self, b: &mut [u8]) {
        b[0..8].copy_from_slice(&self.mbr.min_x.to_le_bytes());
        b[8..16].copy_from_slice(&self.mbr.min_y.to_le_bytes());
        b[16..24].copy_from_slice(&self.mbr.max_x.to_le_bytes());
        b[24..32].copy_from_slice(&self.mbr.max_y.to_le_bytes());
        b[32..40].copy_from_slice(&self.child.to_le_bytes());
    }
}

/// Serializes a node's entries into a page and tags it as
/// [`PageType::Node`]; returns the payload bytes written (header +
/// entries). Bytes past them are left as they were.
///
/// # Panics
///
/// Panics if there are more than [`MAX_ENTRIES_PER_PAGE`] entries.
pub fn encode_entries(level: u32, entries: &[DiskEntry], page: &mut Page) -> usize {
    assert!(
        entries.len() <= MAX_ENTRIES_PER_PAGE,
        "{} entries exceed page capacity {}",
        entries.len(),
        MAX_ENTRIES_PER_PAGE
    );
    let used = HEADER_SIZE + entries.len() * ENTRY_SIZE;
    let bytes = page.bytes_mut();
    bytes[0..4].copy_from_slice(&level.to_le_bytes());
    bytes[4..8].copy_from_slice(&(entries.len() as u32).to_le_bytes());
    for (e, b) in entries
        .iter()
        .zip(bytes[HEADER_SIZE..used].chunks_exact_mut(ENTRY_SIZE))
    {
        e.write(b);
    }
    page.set_type(PageType::Node);
    used
}

/// A validated node page, read in place: the header is checked once by
/// [`parse`](NodeView::parse), entries decode as they are visited, and
/// nothing is allocated.
#[derive(Debug, Clone, Copy)]
pub struct NodeView<'a> {
    level: u32,
    /// Exactly the entry bytes: `len() * ENTRY_SIZE` of them.
    entries: &'a [u8],
}

impl<'a> NodeView<'a> {
    /// Validates `page`'s page-type tag and structural bounds. Returns
    /// the corruption reason on failure.
    pub fn parse(page: &'a Page) -> Result<NodeView<'a>, String> {
        let tag = page.tag();
        // `Free` (0) is accepted: an allocated-but-never-written page reads
        // as all zeroes, which decodes as an empty leaf.
        if tag != PageType::Node as u8 && tag != PageType::Free as u8 {
            return Err(format!("expected node page, found tag {tag}"));
        }
        let bytes = page.bytes();
        let level = u32::from_le_bytes(bytes[0..4].try_into().expect("4 bytes"));
        let count = u32::from_le_bytes(bytes[4..8].try_into().expect("4 bytes")) as usize;
        if count > MAX_ENTRIES_PER_PAGE {
            return Err(format!(
                "entry count {count} exceeds page capacity {MAX_ENTRIES_PER_PAGE}"
            ));
        }
        if level > MAX_LEVEL {
            return Err(format!("implausible node level {level}"));
        }
        Ok(NodeView {
            level,
            entries: &bytes[HEADER_SIZE..HEADER_SIZE + count * ENTRY_SIZE],
        })
    }

    /// Height above the leaves (0 = leaf).
    #[inline]
    pub fn level(&self) -> u32 {
        self.level
    }

    /// `true` if this node's entries point at items.
    #[inline]
    pub fn is_leaf(&self) -> bool {
        self.level == 0
    }

    /// Number of entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.entries.len() / ENTRY_SIZE
    }

    /// `true` if the node has no entries.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The entries, in page order, decoded as the iterator advances.
    #[inline]
    pub fn entries(&self) -> impl ExactSizeIterator<Item = DiskEntry> + 'a {
        self.entries.chunks_exact(ENTRY_SIZE).map(DiskEntry::read)
    }

    /// The node, owned.
    pub fn to_node(&self) -> DiskNode {
        DiskNode {
            level: self.level,
            entries: self.entries().collect(),
        }
    }
}

/// Deserializes a node from a page, validating the page-type tag and
/// structural bounds. Returns the corruption reason on failure.
pub fn decode(page: &Page) -> Result<DiskNode, String> {
    Ok(NodeView::parse(page)?.to_node())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn encode(node: &DiskNode, page: &mut Page) {
        encode_entries(node.level, &node.entries, page);
    }

    fn sample_node(level: u32, n: usize) -> DiskNode {
        DiskNode {
            level,
            entries: (0..n)
                .map(|i| DiskEntry {
                    mbr: Rect::new(i as f64, -(i as f64), i as f64 + 0.5, i as f64 + 1.25),
                    child: 1000 + i as u64,
                })
                .collect(),
        }
    }

    #[test]
    fn roundtrip_leaf() {
        let node = sample_node(0, 7);
        let mut page = Page::zeroed();
        encode(&node, &mut page);
        assert_eq!(page.tag(), PageType::Node as u8);
        assert_eq!(decode(&page).unwrap(), node);
    }

    #[test]
    fn roundtrip_internal_full_page() {
        let node = sample_node(3, MAX_ENTRIES_PER_PAGE);
        let mut page = Page::zeroed();
        encode(&node, &mut page);
        let back = decode(&page).unwrap();
        assert_eq!(back, node);
        assert!(!back.is_leaf());
        assert_eq!(back.child_page(0), PageId(1000));
    }

    #[test]
    fn roundtrip_empty_node() {
        let node = DiskNode {
            level: 0,
            entries: vec![],
        };
        let mut page = Page::zeroed();
        encode(&node, &mut page);
        assert_eq!(decode(&page).unwrap(), node);
    }

    #[test]
    fn zeroed_page_decodes_as_empty_leaf() {
        let node = decode(&Page::zeroed()).unwrap();
        assert!(node.is_leaf());
        assert!(node.entries.is_empty());
    }

    #[test]
    #[should_panic(expected = "exceed page capacity")]
    fn overflow_rejected() {
        let node = sample_node(0, MAX_ENTRIES_PER_PAGE + 1);
        encode(&node, &mut Page::zeroed());
    }

    #[test]
    fn corrupt_count_rejected_not_panicking() {
        let mut page = Page::zeroed();
        encode(&sample_node(0, 3), &mut page);
        page.bytes_mut()[4..8].copy_from_slice(&u32::MAX.to_le_bytes());
        let err = decode(&page).unwrap_err();
        assert!(err.contains("entry count"), "{err}");
    }

    #[test]
    fn corrupt_level_rejected() {
        let mut page = Page::zeroed();
        encode(&sample_node(0, 1), &mut page);
        page.bytes_mut()[0..4].copy_from_slice(&9999u32.to_le_bytes());
        assert!(decode(&page).unwrap_err().contains("level"));
    }

    #[test]
    fn wrong_page_type_rejected() {
        let mut page = Page::zeroed();
        encode(&sample_node(0, 1), &mut page);
        page.set_type(PageType::Meta);
        assert!(decode(&page).unwrap_err().contains("tag"));
    }

    /// `decode` is `parse` + `to_node`, so agreement of the two on the
    /// *content* is what needs pinning: the view read entry by entry must
    /// be the node `decode` returns, and a page either parser rejects
    /// must be rejected by both with the same words.
    fn assert_view_agrees_with_decode(page: &Page) -> Result<DiskNode, String> {
        let decoded = decode(page);
        match (NodeView::parse(page), &decoded) {
            (Ok(view), Ok(node)) => {
                assert_eq!(view.level(), node.level);
                assert_eq!(view.is_leaf(), node.is_leaf());
                assert_eq!(view.len(), node.entries.len());
                assert_eq!(view.is_empty(), node.entries.is_empty());
                assert_eq!(view.entries().len(), node.entries.len());
                assert!(view.entries().eq(node.entries.iter().copied()));
                assert_eq!(&view.to_node(), node);
            }
            (Err(a), Err(b)) => assert_eq!(&a, b),
            (view, node) => panic!("view {view:?} but decode {node:?}"),
        }
        decoded
    }

    #[test]
    fn view_and_decode_agree_on_random_pages() {
        let mut state = 0x1985u64;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };
        let mut page = Page::zeroed();
        for round in 0..500 {
            let level = (next() % 5) as u32;
            let n = (next() % (MAX_ENTRIES_PER_PAGE as u64 + 1)) as usize;
            let node = DiskNode {
                level,
                entries: (0..n)
                    .map(|_| {
                        let (x, y) = (next() as f64 / 7.0, next() as f64 / -3.0);
                        DiskEntry {
                            mbr: Rect::new(x, y, x + (next() % 100) as f64, y + 0.25),
                            child: next(),
                        }
                    })
                    .collect(),
            };
            // The page is reused: entries of earlier, larger nodes stay
            // behind the count and must stay invisible.
            encode(&node, &mut page);
            assert_eq!(
                assert_view_agrees_with_decode(&page).unwrap(),
                node,
                "round {round}"
            );
        }
    }

    #[test]
    fn view_and_decode_reject_the_same_pages_in_the_same_words() {
        let mut good = Page::zeroed();
        encode(&sample_node(2, 9), &mut good);

        let mut wrong_tag = good.clone();
        wrong_tag.set_type(PageType::Wal);
        assert_eq!(
            assert_view_agrees_with_decode(&wrong_tag).unwrap_err(),
            "expected node page, found tag 4"
        );

        let mut too_many = good.clone();
        too_many.bytes_mut()[4..8].copy_from_slice(&103u32.to_le_bytes());
        assert_eq!(
            assert_view_agrees_with_decode(&too_many).unwrap_err(),
            "entry count 103 exceeds page capacity 102"
        );

        let mut too_high = good.clone();
        too_high.bytes_mut()[0..4].copy_from_slice(&65u32.to_le_bytes());
        assert_eq!(
            assert_view_agrees_with_decode(&too_high).unwrap_err(),
            "implausible node level 65"
        );

        // The bounds themselves are fine.
        let mut full = Page::zeroed();
        encode(&sample_node(MAX_LEVEL, MAX_ENTRIES_PER_PAGE), &mut full);
        assert_view_agrees_with_decode(&full).unwrap();

        // A never-written page is an empty leaf to both.
        let empty = assert_view_agrees_with_decode(&Page::zeroed()).unwrap();
        assert!(empty.is_leaf() && empty.entries.is_empty());
    }

    #[test]
    fn encode_entries_reports_the_bytes_it_wrote() {
        let node = sample_node(1, 5);
        let mut page = Page::zeroed();
        let used = encode_entries(node.level, &node.entries, &mut page);
        assert_eq!(used, HEADER_SIZE + 5 * ENTRY_SIZE);
        assert!(page.bytes()[used..PAYLOAD_SIZE].iter().all(|&b| b == 0));
        assert_eq!(decode(&page).unwrap(), node);
    }

    #[test]
    fn capacity_is_paper_scale() {
        // 4 KiB pages must give a branching factor of ~100 even with the
        // 8-byte checksum footer (8 + 102·40 = 4088 = PAYLOAD_SIZE).
        assert_eq!(MAX_ENTRIES_PER_PAGE, 102);
        const { assert!(HEADER_SIZE + MAX_ENTRIES_PER_PAGE * ENTRY_SIZE <= PAYLOAD_SIZE) }
    }

    #[test]
    fn leaf_child_is_item() {
        let node = sample_node(0, 2);
        assert_eq!(node.child_item(1), ItemId(1001));
    }
}

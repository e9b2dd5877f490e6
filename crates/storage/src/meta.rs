//! Two-slot (shadow) meta-page commit.
//!
//! A tree's meta page is its commit record: whoever it points at *is*
//! the tree. Overwriting a single meta page in place is not atomic — a
//! crash mid-`pwrite` tears it and loses the whole index. Instead the
//! page-resident tree keeps **two** adjacent meta slots and alternates
//! between them, stamping each commit with a monotonically increasing
//! epoch:
//!
//! * commit epoch `e` writes slot `base + (e & 1)`, leaving the other
//!   slot — the previous commit — untouched;
//! * the data sync happens *before* the meta write (nodes must be
//!   durable before the meta points at them) and the meta sync after;
//! * open reads both slots and picks the one with the highest epoch whose
//!   page checksum and magic verify. A torn meta write therefore rolls
//!   back to the previous consistent tree instead of bricking the file.
//!
//! Slot layout (within the page payload):
//!
//! ```text
//! offset 0   u64  magic
//! offset 8   u64  epoch (≥ 1; 0 marks an empty slot)
//! offset 16  tree-specific fields
//! ```

use crate::error::{StorageError, StorageResult};
use crate::page::{Page, PageId, PageType, PAYLOAD_SIZE};
use crate::pager::PageStore;

/// Number of shadow slots (adjacent pages) a meta pair occupies.
pub const META_SLOTS: u32 = 2;

/// Offset of tree-specific fields within a meta slot payload.
pub const META_FIELDS: usize = 16;

/// Reads both slots of the pair at `base` and returns the newest one
/// that verifies (checksum ok, magic matches, epoch ≥ 1) together with
/// its epoch, or `None` when neither slot is usable.
///
/// A slot that fails its checksum — a torn meta write — is *skipped*,
/// not propagated: that is the roll-back-to-previous-commit path. Plain
/// I/O errors still propagate.
pub fn load_newest(
    store: &dyn PageStore,
    base: PageId,
    magic: u64,
) -> StorageResult<Option<(Page, u64)>> {
    let mut best: Option<(Page, u64)> = None;
    for slot in 0..META_SLOTS {
        let id = PageId(base.0 + slot);
        let page = match store.read_page(id) {
            Ok(p) => p,
            Err(StorageError::Corrupt { .. }) => continue,
            Err(e) => return Err(e),
        };
        let b = page.bytes();
        if u64::from_le_bytes(b[0..8].try_into().expect("8")) != magic {
            continue;
        }
        let epoch = u64::from_le_bytes(b[8..16].try_into().expect("8"));
        if epoch == 0 {
            continue;
        }
        if best.as_ref().is_none_or(|&(_, e)| epoch > e) {
            best = Some((page, epoch));
        }
    }
    Ok(best)
}

/// Commits a meta record with the given `epoch` into the slot pair at
/// `base`: data sync → write the alternating slot → meta sync.
///
/// `fill` receives the tree-specific field region (payload bytes from
/// [`META_FIELDS`]) of a zeroed page, which is tagged [`PageType::Meta`].
pub fn commit(
    store: &dyn PageStore,
    base: PageId,
    magic: u64,
    epoch: u64,
    fill: impl FnOnce(&mut [u8]),
) -> StorageResult<()> {
    debug_assert!(epoch >= 1, "epoch 0 marks an empty slot");
    let mut page = Page::zeroed();
    let bytes = page.bytes_mut();
    bytes[0..8].copy_from_slice(&magic.to_le_bytes());
    bytes[8..16].copy_from_slice(&epoch.to_le_bytes());
    fill(&mut bytes[META_FIELDS..PAYLOAD_SIZE]);
    page.set_type(PageType::Meta);

    // Barrier: everything the meta record points at must be durable
    // before the record itself is.
    store.sync()?;
    let slot = PageId(base.0 + (epoch & 1) as u32);
    store.write_page(slot, &page)?;
    store.sync()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pager::Pager;

    const MAGIC: u64 = 0x5445_5354_4D45_5441; // "TESTMETA"

    fn setup() -> Pager {
        let pager = Pager::temp().unwrap();
        pager.allocate();
        pager.allocate();
        pager
    }

    #[test]
    fn empty_pair_loads_none() {
        let pager = setup();
        assert!(load_newest(&pager, PageId(0), MAGIC).unwrap().is_none());
    }

    #[test]
    fn commit_then_load_roundtrip() {
        let pager = setup();
        commit(&pager, PageId(0), MAGIC, 1, |b| b[0] = 0xAB).unwrap();
        let (page, epoch) = load_newest(&pager, PageId(0), MAGIC).unwrap().unwrap();
        assert_eq!(epoch, 1);
        assert_eq!(page.bytes()[META_FIELDS], 0xAB);
    }

    #[test]
    fn newer_epoch_wins_and_slots_alternate() {
        let pager = setup();
        commit(&pager, PageId(0), MAGIC, 1, |b| b[0] = 1).unwrap();
        commit(&pager, PageId(0), MAGIC, 2, |b| b[0] = 2).unwrap();
        let (page, epoch) = load_newest(&pager, PageId(0), MAGIC).unwrap().unwrap();
        assert_eq!(epoch, 2);
        assert_eq!(page.bytes()[META_FIELDS], 2);
        // Slot pages differ: epoch 1 in slot 1, epoch 2 in slot 0.
        let s0 = pager.read_page(PageId(0)).unwrap();
        let s1 = pager.read_page(PageId(1)).unwrap();
        assert_eq!(u64::from_le_bytes(s0.bytes()[8..16].try_into().unwrap()), 2);
        assert_eq!(u64::from_le_bytes(s1.bytes()[8..16].try_into().unwrap()), 1);
    }

    #[test]
    fn torn_slot_rolls_back_to_previous_epoch() {
        let pager = setup();
        commit(&pager, PageId(0), MAGIC, 1, |b| b[0] = 1).unwrap();
        commit(&pager, PageId(0), MAGIC, 2, |b| b[0] = 2).unwrap();
        // Tear the epoch-2 slot (slot 0) with a partial garbage write.
        let mut garbage = Page::zeroed();
        garbage.bytes_mut()[..64].copy_from_slice(&[0xFF; 64]);
        pager
            .write_partial(PageId(0), &garbage, crate::page::PAGE_SIZE / 2)
            .unwrap();
        let (page, epoch) = load_newest(&pager, PageId(0), MAGIC).unwrap().unwrap();
        assert_eq!(epoch, 1, "must fall back to the surviving slot");
        assert_eq!(page.bytes()[META_FIELDS], 1);
    }

    #[test]
    fn wrong_magic_ignored() {
        let pager = setup();
        commit(&pager, PageId(0), MAGIC, 1, |_| {}).unwrap();
        assert!(load_newest(&pager, PageId(0), MAGIC ^ 1).unwrap().is_none());
    }
}

//! Fixed-size disk pages with a checksummed footer.
//!
//! Every page reserves its last 8 bytes for a footer:
//!
//! ```text
//! offset PAGE_SIZE-8   u8   page-type tag (see [`PageType`])
//! offset PAGE_SIZE-7   [u8; 3] reserved (zero)
//! offset PAGE_SIZE-4   u32  CRC-32 over bytes [0, PAGE_SIZE-4)
//! ```
//!
//! The tag is set by whoever encodes the page (node codec, meta
//! writers); the CRC is stamped by the pager on every physical write and
//! verified on every physical read, so a torn write, bit rot, or a
//! misdirected read surfaces as a typed corruption error instead of a
//! garbage decode. A **fully zeroed** page is exempt: it is the
//! "never written" state (sparse-file semantics) and always verifies.

use crate::crc::crc32;
use std::fmt;

/// Size of one logical disk block. 4 KiB is the conventional choice; with
/// the [`codec`](crate::codec) entry layout this yields a branching
/// factor of ~100 — the "fill a logical disk block" configuration of §3.
pub const PAGE_SIZE: usize = 4096;

/// Bytes reserved at the end of every page for the tag + CRC footer.
pub const FOOTER_SIZE: usize = 8;

/// Bytes available to page payloads (node codec, meta fields).
pub const PAYLOAD_SIZE: usize = PAGE_SIZE - FOOTER_SIZE;

/// Offset of the page-type tag byte.
pub const TYPE_OFFSET: usize = PAGE_SIZE - 8;

/// Offset of the little-endian CRC-32 field.
pub const CRC_OFFSET: usize = PAGE_SIZE - 4;

/// What a page holds; stored in the footer tag byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum PageType {
    /// Never written / freed (all-zero pages read as this).
    Free = 0,
    /// A serialized R-tree node ([`codec`](crate::codec)).
    Node = 1,
    /// A [`DiskRTree`](crate::DiskRTree) meta slot.
    Meta = 2,
    // Tag 3 is retired: files written by older code may still hold it,
    // so `from_tag` rejects it and no new type may take it.
    /// A write-ahead-log page ([`wal`](crate::wal)).
    Wal = 4,
    /// An external-pack spill-run page (the `rtree-extpack` crate).
    Spill = 5,
}

impl PageType {
    /// Decodes a tag byte, or `None` for unknown tags.
    pub fn from_tag(tag: u8) -> Option<PageType> {
        match tag {
            0 => Some(PageType::Free),
            1 => Some(PageType::Node),
            2 => Some(PageType::Meta),
            4 => Some(PageType::Wal),
            5 => Some(PageType::Spill),
            _ => None,
        }
    }
}

/// Identifier of a page within a [`Pager`](crate::Pager) file.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PageId(pub u32);

impl PageId {
    /// Byte offset of this page in the backing file.
    #[inline]
    pub fn offset(self) -> u64 {
        self.0 as u64 * PAGE_SIZE as u64
    }
}

impl fmt::Display for PageId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// One in-memory page image.
#[derive(Clone)]
pub struct Page {
    bytes: Box<[u8; PAGE_SIZE]>,
}

impl Page {
    /// A zero-filled page.
    pub fn zeroed() -> Self {
        Page {
            bytes: vec![0u8; PAGE_SIZE]
                .into_boxed_slice()
                .try_into()
                .expect("size"),
        }
    }

    /// Read access to the raw bytes.
    #[inline]
    pub fn bytes(&self) -> &[u8; PAGE_SIZE] {
        &self.bytes
    }

    /// Write access to the raw bytes.
    #[inline]
    pub fn bytes_mut(&mut self) -> &mut [u8; PAGE_SIZE] {
        &mut self.bytes
    }

    /// `true` if every byte is zero (the "never written" state).
    pub fn is_zeroed(&self) -> bool {
        self.bytes.iter().all(|&b| b == 0)
    }

    /// The footer's page-type tag byte (raw).
    #[inline]
    pub fn tag(&self) -> u8 {
        self.bytes[TYPE_OFFSET]
    }

    /// Sets the footer's page-type tag.
    #[inline]
    pub fn set_type(&mut self, ty: PageType) {
        self.bytes[TYPE_OFFSET] = ty as u8;
    }

    /// Stamps the footer CRC over the current contents. Called by the
    /// pager on every physical write.
    pub fn seal(&mut self) {
        let crc = crc32(&self.bytes[..CRC_OFFSET]);
        self.bytes[CRC_OFFSET..].copy_from_slice(&crc.to_le_bytes());
    }

    /// Verifies the footer CRC. A fully zeroed page passes (it was never
    /// written). Returns the failure reason on mismatch.
    pub fn verify(&self) -> Result<(), String> {
        let stored = u32::from_le_bytes(self.bytes[CRC_OFFSET..].try_into().expect("4 bytes"));
        let computed = crc32(&self.bytes[..CRC_OFFSET]);
        if stored == computed {
            return Ok(());
        }
        if self.is_zeroed() {
            return Ok(());
        }
        Err(format!(
            "checksum mismatch: stored {stored:#010x}, computed {computed:#010x} (tag {})",
            self.tag()
        ))
    }
}

impl Default for Page {
    fn default() -> Self {
        Page::zeroed()
    }
}

impl fmt::Debug for Page {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Page({} bytes)", PAGE_SIZE)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeroed_page() {
        let p = Page::zeroed();
        assert!(p.bytes().iter().all(|&b| b == 0));
        assert!(p.is_zeroed());
    }

    #[test]
    fn page_offsets() {
        assert_eq!(PageId(0).offset(), 0);
        assert_eq!(PageId(3).offset(), 3 * PAGE_SIZE as u64);
    }

    #[test]
    fn mutation_roundtrip() {
        let mut p = Page::zeroed();
        p.bytes_mut()[17] = 0xAB;
        assert_eq!(p.bytes()[17], 0xAB);
        assert!(!p.is_zeroed());
    }

    #[test]
    fn zeroed_page_verifies() {
        assert!(Page::zeroed().verify().is_ok());
    }

    #[test]
    fn sealed_page_verifies_and_flip_fails() {
        let mut p = Page::zeroed();
        p.bytes_mut()[100] = 0x42;
        p.set_type(PageType::Node);
        p.seal();
        assert!(p.verify().is_ok());
        p.bytes_mut()[100] ^= 0x01;
        let err = p.verify().unwrap_err();
        assert!(err.contains("checksum mismatch"), "{err}");
    }

    #[test]
    fn unsealed_nonzero_page_fails_verify() {
        let mut p = Page::zeroed();
        p.bytes_mut()[0] = 1;
        assert!(p.verify().is_err());
    }

    #[test]
    fn footer_does_not_overlap_payload() {
        assert_eq!(PAYLOAD_SIZE, 4088);
        const { assert!(TYPE_OFFSET >= PAYLOAD_SIZE) }
        assert_eq!(CRC_OFFSET + 4, PAGE_SIZE);
    }

    #[test]
    fn type_tag_roundtrip() {
        let mut p = Page::zeroed();
        p.set_type(PageType::Meta);
        assert_eq!(PageType::from_tag(p.tag()), Some(PageType::Meta));
        assert_eq!(PageType::from_tag(3), None, "retired tag");
        assert_eq!(PageType::from_tag(250), None);
    }
}

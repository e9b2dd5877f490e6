//! The columnar store under a picture's packed generation and its delta
//! tail: objects and labels by position, a few flat planes in place of a
//! `SpatialObject` and a `String` per object.

use rtree_geom::{Point, Rect, SpatialObject};
use std::borrow::Cow;

/// `x` bits of a slot whose object lives in the side table; the `y` bits
/// are then its index there. A quiet NaN with a payload no arithmetic
/// produces — and a point that does carry it goes to the side table
/// itself, so every bit pattern round-trips.
const SIDE: u64 = 0x7ff8_5349_4445_0000;

/// Objects and their labels, addressed by position.
#[derive(Debug, Clone, Default)]
pub(crate) struct ObjectStore {
    /// One 16-byte slot per object: a point's `(x, y)` bits, or
    /// `(SIDE, index into side)`.
    slots: Vec<[u64; 2]>,
    /// What no slot can hold, in position order: segments, regions, and
    /// a point whose `x` bits are [`SIDE`] itself.
    side: Vec<SpatialObject>,
    /// Heap bytes behind `side` (region vertex lists), kept as a running
    /// total so [`bytes`](Self::bytes) walks nothing.
    side_heap_bytes: usize,
    /// Every label, concatenated in position order.
    text: String,
    /// `ends[i]` is where label `i` ends in `text`; it starts where
    /// label `i - 1` ends.
    ends: Vec<u32>,
}

/// Where `text` ends once `more` bytes are appended to `len`. Offsets are
/// 32-bit; a store past that fails loudly instead of wrapping.
fn text_end(len: usize, more: usize) -> u32 {
    len.checked_add(more)
        .and_then(|end| u32::try_from(end).ok())
        .expect("a picture holds at most 4 GiB of label text")
}

impl ObjectStore {
    /// Number of objects.
    pub(crate) fn len(&self) -> usize {
        self.slots.len()
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Appends `object` with its `label` at position `len()`.
    pub(crate) fn push(&mut self, object: SpatialObject, label: &str) {
        let end = text_end(self.text.len(), label.len());
        let slot = match object {
            SpatialObject::Point(p) if p.x.to_bits() != SIDE => [p.x.to_bits(), p.y.to_bits()],
            other => {
                if let SpatialObject::Region(region) = &other {
                    self.side_heap_bytes += std::mem::size_of_val(region.vertices());
                }
                self.side.push(other);
                [SIDE, self.side.len() as u64 - 1]
            }
        };
        self.slots.push(slot);
        self.text.push_str(label);
        self.ends.push(end);
    }

    fn resolve(&self, [x, y]: [u64; 2]) -> Cow<'_, SpatialObject> {
        if x == SIDE {
            Cow::Borrowed(&self.side[y as usize])
        } else {
            let p = Point::new(f64::from_bits(x), f64::from_bits(y));
            Cow::Owned(SpatialObject::Point(p))
        }
    }

    /// The object at position `at`: a point rebuilt from its slot (no
    /// heap behind it), anything else borrowed from the side table.
    pub(crate) fn object(&self, at: usize) -> Option<Cow<'_, SpatialObject>> {
        self.slots.get(at).map(|&slot| self.resolve(slot))
    }

    /// The label at position `at`.
    pub(crate) fn label(&self, at: usize) -> Option<&str> {
        let end = *self.ends.get(at)? as usize;
        let start = at.checked_sub(1).map_or(0, |prev| self.ends[prev] as usize);
        Some(&self.text[start..end])
    }

    /// Every object, in position order.
    pub(crate) fn objects(&self) -> impl ExactSizeIterator<Item = Cow<'_, SpatialObject>> {
        self.slots.iter().map(|&slot| self.resolve(slot))
    }

    /// Every object's bounding rectangle, in position order.
    pub(crate) fn mbrs(&self) -> impl ExactSizeIterator<Item = Rect> + '_ {
        self.objects().map(|object| object.mbr())
    }

    /// Appends a copy of `other`'s objects and labels after this store's.
    pub(crate) fn extend_from(&mut self, other: &ObjectStore) {
        // The last shifted end is the largest: checking it checks all.
        text_end(self.text.len(), other.text.len());
        let side_base = self.side.len() as u64;
        let text_base = self.text.len() as u32;
        self.slots.extend(other.slots.iter().map(|&[x, y]| {
            if x == SIDE {
                [x, y + side_base]
            } else {
                [x, y]
            }
        }));
        self.side.extend_from_slice(&other.side);
        self.side_heap_bytes += other.side_heap_bytes;
        self.text.push_str(&other.text);
        self.ends
            .extend(other.ends.iter().map(|end| end + text_base));
    }

    /// `self` followed by `tail` in a new store, each plane allocated
    /// once at its final size.
    pub(crate) fn followed_by(&self, tail: &ObjectStore) -> ObjectStore {
        let mut out = ObjectStore {
            slots: Vec::with_capacity(self.slots.len() + tail.slots.len()),
            side: Vec::with_capacity(self.side.len() + tail.side.len()),
            side_heap_bytes: 0,
            text: String::with_capacity(self.text.len() + tail.text.len()),
            ends: Vec::with_capacity(self.ends.len() + tail.ends.len()),
        };
        out.extend_from(self);
        out.extend_from(tail);
        out
    }

    /// Resident bytes of the planes, the side table and the vertex lists
    /// behind it, from lengths alone. Allocator overhead and spare
    /// capacity are not counted.
    pub(crate) fn bytes(&self) -> usize {
        std::mem::size_of_val(self.slots.as_slice())
            + std::mem::size_of_val(self.side.as_slice())
            + self.side_heap_bytes
            + self.text.len()
            + std::mem::size_of_val(self.ends.as_slice())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtree_geom::{Region, Segment};

    fn mixed() -> Vec<(SpatialObject, &'static str)> {
        let tagged = Point::new(f64::from_bits(SIDE), 7.0);
        vec![
            (SpatialObject::Point(Point::new(1.0, 2.0)), "a"),
            (
                SpatialObject::Segment(Segment::new(Point::new(0.0, 0.0), Point::new(3.0, 4.0))),
                "",
            ),
            (SpatialObject::Point(tagged), "looks like a tag"),
            (
                SpatialObject::Region(Region::rectangle(Rect::new(1.0, 1.0, 5.0, 6.0))),
                "Zürich — 湖",
            ),
            (SpatialObject::Point(Point::new(-0.0, f64::NAN)), "nan"),
        ]
    }

    /// Bitwise equality: `PartialEq` would call two NaNs different.
    fn same(a: &SpatialObject, b: &SpatialObject) -> bool {
        match (a, b) {
            (SpatialObject::Point(a), SpatialObject::Point(b)) => {
                (a.x.to_bits(), a.y.to_bits()) == (b.x.to_bits(), b.y.to_bits())
            }
            _ => a == b,
        }
    }

    fn assert_holds(store: &ObjectStore, expect: &[(SpatialObject, &str)]) {
        assert_eq!(store.len(), expect.len());
        for (at, (object, label)) in expect.iter().enumerate() {
            let got = store.object(at).expect("in range");
            assert!(same(&got, object), "object {at}: {got:?} != {object:?}");
            assert_eq!(store.label(at), Some(*label), "label {at}");
        }
        assert!(store.object(expect.len()).is_none());
        assert!(store.label(expect.len()).is_none());
        assert!(store
            .objects()
            .zip(expect)
            .all(|(got, (object, _))| same(&got, object)));
    }

    #[test]
    fn mbrs_read_the_plane_and_the_side_table() {
        // `Rect` debug-asserts finite coordinates, so the NaN points of
        // `mixed` stay out of this one.
        let objects: Vec<_> = mixed()
            .into_iter()
            .filter(|(_, label)| !["looks like a tag", "nan"].contains(label))
            .collect();
        assert_eq!(objects.len(), 3);
        let mut store = ObjectStore::default();
        for (object, label) in &objects {
            store.push(object.clone(), label);
        }
        let expect: Vec<Rect> = objects.iter().map(|(object, _)| object.mbr()).collect();
        assert_eq!(store.mbrs().collect::<Vec<_>>(), expect);
        assert_eq!(store.followed_by(&store).mbrs().count(), 6);
    }

    #[test]
    fn every_class_and_the_tag_lookalike_round_trip() {
        let objects = mixed();
        let mut store = ObjectStore::default();
        assert!(store.is_empty() && store.object(0).is_none() && store.label(0).is_none());
        for (object, label) in &objects {
            store.push(object.clone(), label);
        }
        assert_holds(&store, &objects);
        // Only real points are inline: the lookalike sits beside the
        // segment and the region.
        assert_eq!(store.side.len(), 3);
        assert!(matches!(store.object(0), Some(Cow::Owned(_))));
        assert!(matches!(store.object(2), Some(Cow::Borrowed(_))));
    }

    #[test]
    fn concatenation_rebases_side_indexes_and_label_offsets() {
        let objects = mixed();
        let mut head = ObjectStore::default();
        let mut tail = ObjectStore::default();
        for (object, label) in &objects {
            head.push(object.clone(), label);
        }
        for (object, label) in objects.iter().rev() {
            tail.push(object.clone(), label);
        }
        let expect: Vec<_> = objects
            .iter()
            .chain(objects.iter().rev())
            .cloned()
            .collect();
        let joined = head.followed_by(&tail);
        assert_holds(&joined, &expect);
        assert_eq!(joined.bytes(), head.bytes() + tail.bytes());
        head.extend_from(&tail);
        assert_holds(&head, &expect);
        assert_holds(&tail.followed_by(&ObjectStore::default()), &{
            let mut reversed = objects.clone();
            reversed.reverse();
            reversed
        });
    }

    #[test]
    fn bytes_counts_planes_side_table_and_vertices() {
        let mut store = ObjectStore::default();
        assert_eq!(store.bytes(), 0);
        store.push(SpatialObject::Point(Point::new(1.0, 2.0)), "abc");
        assert_eq!(store.bytes(), 16 + 3 + 4);
        store.push(
            SpatialObject::Region(Region::rectangle(Rect::new(0.0, 0.0, 1.0, 1.0))),
            "",
        );
        let region = std::mem::size_of::<SpatialObject>() + 4 * std::mem::size_of::<Point>();
        assert_eq!(store.bytes(), 2 * (16 + 4) + 3 + region);
    }

    #[test]
    #[should_panic(expected = "4 GiB of label text")]
    fn label_offsets_fail_loudly_instead_of_wrapping() {
        text_end(u32::MAX as usize - 2, 3);
    }
}

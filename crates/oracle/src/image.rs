//! A representation-neutral snapshot of an R-tree's structure.
//!
//! The workspace has two tree representations — the in-memory forms
//! ([`RTree`] and its frozen arena [`FrozenRTree`]) and the read-only
//! page image [`DiskRTree`] — and one set of structural invariants they
//! must all satisfy. [`TreeImage`] is the common denominator: every
//! variant is flattened into the same id → node map, and
//! [`validate_deep`](crate::invariant::validate_deep) checks the
//! invariants once, against the image, instead of once per API.

use rtree_geom::Rect;
use rtree_index::{Child, FrozenRTree, ItemId, NodeAccess, RTree};
use rtree_storage::{BufferPool, DiskRTree, StorageResult};
use std::collections::HashMap;

/// What one entry of an image node points at.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ImageChild {
    /// A child node, by image id.
    Node(u64),
    /// A data item (leaf entries only).
    Item(ItemId),
}

/// One entry: bounding rectangle plus child reference.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ImageEntry {
    /// The entry's MBR as stored in the parent.
    pub mbr: Rect,
    /// What it points at.
    pub child: ImageChild,
}

/// One node of the flattened tree.
#[derive(Debug, Clone, PartialEq)]
pub struct ImageNode {
    /// Height above the leaves (0 = leaf), as recorded by the
    /// representation.
    pub level: u32,
    /// The node's entries.
    pub entries: Vec<ImageEntry>,
}

/// A flattened tree: everything `validate_deep` needs, decoupled from
/// where the nodes came from.
#[derive(Debug, Clone, PartialEq)]
pub struct TreeImage {
    /// All reachable nodes, keyed by representation-specific id
    /// (arena index or page number).
    pub nodes: HashMap<u64, ImageNode>,
    /// Image id of the root node.
    pub root: u64,
    /// The depth the representation declares (root's expected level).
    pub declared_depth: u32,
    /// The item count the representation declares.
    pub declared_len: usize,
    /// Maximum entries per node (the branching factor `M`).
    pub max_entries: usize,
    /// Guttman's minimum fill `m` (checked only when asked).
    pub min_entries: usize,
}

impl TreeImage {
    /// Snapshots an in-memory [`RTree`] by walking from the root (freed
    /// arena slots are invisible, exactly like unreferenced pages).
    pub fn of_rtree(tree: &RTree) -> TreeImage {
        let mut nodes = HashMap::new();
        let mut stack = vec![tree.root()];
        while let Some(id) = stack.pop() {
            let node = tree.node(id);
            let entries = node
                .entries
                .iter()
                .map(|e| ImageEntry {
                    mbr: e.mbr,
                    child: match e.child {
                        Child::Node(c) => {
                            stack.push(c);
                            ImageChild::Node(c.index() as u64)
                        }
                        Child::Item(item) => ImageChild::Item(item),
                    },
                })
                .collect();
            nodes.insert(
                id.index() as u64,
                ImageNode {
                    level: node.level,
                    entries,
                },
            );
        }
        TreeImage {
            nodes,
            root: tree.root().index() as u64,
            declared_depth: tree.depth(),
            declared_len: tree.len(),
            max_entries: tree.config().max_entries,
            min_entries: tree.config().min_entries,
        }
    }

    /// Snapshots a read-only [`DiskRTree`] — including one freshly
    /// reopened after a crash, which is exactly when deep validation
    /// earns its keep. The disk image does not record its packing
    /// configuration, so the caller supplies the `(max, min)` entry
    /// bounds the tree was built with.
    pub fn of_disk_tree(
        tree: &DiskRTree,
        pool: &BufferPool<'_>,
        max_entries: usize,
        min_entries: usize,
    ) -> StorageResult<TreeImage> {
        // `dump_nodes` is breadth-first from the root, so the first
        // element is the root.
        let dump = tree.dump_nodes(pool)?;
        let root = dump.first().map_or(0, |(pid, _)| pid.0 as u64);
        let nodes = dump
            .into_iter()
            .map(|(pid, node)| {
                let entries = (0..node.entries.len())
                    .map(|i| ImageEntry {
                        mbr: node.entries[i].mbr,
                        child: if node.is_leaf() {
                            ImageChild::Item(node.child_item(i))
                        } else {
                            ImageChild::Node(node.child_page(i).0 as u64)
                        },
                    })
                    .collect();
                (
                    pid.0 as u64,
                    ImageNode {
                        level: node.level,
                        entries,
                    },
                )
            })
            .collect();
        Ok(TreeImage {
            nodes,
            root,
            declared_depth: tree.depth(),
            declared_len: tree.len(),
            max_entries,
            min_entries,
        })
    }

    /// Snapshots a [`FrozenRTree`]. Image ids are the BFS node indices
    /// of the arena; only the populated lanes of each node appear as
    /// entries (the NaN padding lanes are layout, not structure).
    pub fn of_frozen(tree: &FrozenRTree) -> TreeImage {
        let mut nodes = HashMap::new();
        // BFS from the root, deriving each node's level from its
        // parent's (the arena stores only the leaf boundary).
        let mut queue = std::collections::VecDeque::new();
        queue.push_back((tree.root(), tree.depth()));
        while let Some((node, level)) = queue.pop_front() {
            let is_leaf = tree.is_leaf(node);
            let entries = (0..tree.entry_count(node))
                .map(|lane| ImageEntry {
                    mbr: tree.lane_mbr(node, lane),
                    child: if is_leaf {
                        ImageChild::Item(tree.child_item(node, lane))
                    } else {
                        let child = tree.child_node(node, lane);
                        queue.push_back((child, level - 1));
                        ImageChild::Node(child.index() as u64)
                    },
                })
                .collect();
            nodes.insert(node.index() as u64, ImageNode { level, entries });
        }
        TreeImage {
            nodes,
            root: tree.root().index() as u64,
            declared_depth: tree.depth(),
            declared_len: tree.len(),
            max_entries: tree.config().max_entries,
            min_entries: tree.config().min_entries,
        }
    }

    /// Renumbers the image's node ids into a DFS preorder starting at 0,
    /// following entries in stored order. Two images of the *same logical
    /// tree* held in different representations (arena indices vs page
    /// numbers) canonicalize to equal values, so bit-identity between an
    /// in-memory pack and an external on-disk pack is a plain `==`.
    pub fn canonical(&self) -> TreeImage {
        let mut renamed: HashMap<u64, u64> = HashMap::new();
        let mut order: Vec<u64> = Vec::new();
        let mut stack = vec![self.root];
        while let Some(id) = stack.pop() {
            if renamed.contains_key(&id) {
                continue;
            }
            renamed.insert(id, order.len() as u64);
            order.push(id);
            // Push children in reverse so DFS visits them left-to-right.
            for e in self.nodes[&id].entries.iter().rev() {
                if let ImageChild::Node(c) = e.child {
                    stack.push(c);
                }
            }
        }
        let nodes = order
            .iter()
            .map(|old| {
                let node = &self.nodes[old];
                let entries = node
                    .entries
                    .iter()
                    .map(|e| ImageEntry {
                        mbr: e.mbr,
                        child: match e.child {
                            ImageChild::Node(c) => ImageChild::Node(renamed[&c]),
                            item => item,
                        },
                    })
                    .collect();
                (
                    renamed[old],
                    ImageNode {
                        level: node.level,
                        entries,
                    },
                )
            })
            .collect();
        TreeImage {
            nodes,
            root: 0,
            declared_depth: self.declared_depth,
            declared_len: self.declared_len,
            max_entries: self.max_entries,
            min_entries: self.min_entries,
        }
    }

    /// Total leaf entries in the image (the item count actually present).
    pub fn leaf_entry_count(&self) -> usize {
        self.nodes
            .values()
            .filter(|n| n.level == 0)
            .map(|n| n.entries.len())
            .sum()
    }
}

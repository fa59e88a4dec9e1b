//! Merkle trees over Poseidon-hashed [`Fr`] leaves.
//!
//! The RLN membership group is a fixed-depth binary Merkle tree whose leaves
//! are member public keys (`pk = H(sk)`), with empty slots holding the zero
//! leaf. The paper's §III stores only an *ordered list* of keys on-chain and
//! lets every peer maintain the tree locally; §IV cites reference \[9\] for a
//! storage optimization that shrinks a depth-20 tree from ~67 MB to a few
//! hundred bytes for peers that only need *their own* membership proof.
//!
//! Three implementations, one semantics:
//!
//! * [`FullMerkleTree`] — every node materialized; O(2^depth) memory,
//!   supports arbitrary updates and proofs for any leaf. This is what a
//!   full relay node or a slasher runs.
//! * [`IncrementalMerkleTree`] — append-only frontier; O(depth) memory,
//!   computes the running root only. This is what the *contract-side* root
//!   tracking of the original RLN design would cost.
//! * [`SyncedPathTree`] — the reference \[9\] optimization: a light member
//!   stores only its own authentication path plus the append frontier
//!   (O(depth) memory) and keeps the path current while *other* members
//!   join (O(depth) work per event) or are slashed (given the event's
//!   witness path).
//!
//! Property tests assert all three agree on the root under arbitrary event
//! streams.

mod delta;
mod full;
mod incremental;
mod synced;

pub use delta::{AppendDelta, MemberView, UpdateDelta};
pub use full::FullMerkleTree;
pub use incremental::IncrementalMerkleTree;
pub use synced::SyncedPathTree;

use crate::field::Fr;
use crate::poseidon;
use std::sync::OnceLock;

/// Maximum supported tree depth. Depth 32 covers the paper's 2³² group size.
pub const MAX_DEPTH: usize = 32;

/// Errors returned by Merkle tree operations.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MerkleError {
    /// The leaf index is outside the tree's capacity.
    IndexOutOfRange {
        /// The offending index.
        index: u64,
        /// The tree capacity (2^depth).
        capacity: u64,
    },
    /// The tree is full (append-only variants).
    TreeFull,
    /// A supplied witness path does not match the current root.
    StaleWitness,
    /// The requested depth is not in `1..=MAX_DEPTH`.
    UnsupportedDepth(usize),
}

impl std::fmt::Display for MerkleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MerkleError::IndexOutOfRange { index, capacity } => {
                write!(f, "leaf index {index} out of range for capacity {capacity}")
            }
            MerkleError::TreeFull => write!(f, "merkle tree is full"),
            MerkleError::StaleWitness => {
                write!(f, "witness path does not match the current root")
            }
            MerkleError::UnsupportedDepth(d) => {
                write!(f, "unsupported merkle depth {d} (max {MAX_DEPTH})")
            }
        }
    }
}

impl std::error::Error for MerkleError {}

/// The leaf value representing an empty slot (also the value written on
/// member deletion/slashing).
pub const EMPTY_LEAF: Fr = Fr::ZERO;

/// Precomputed roots of all-empty subtrees: `zero(0) = EMPTY_LEAF`,
/// `zero(l+1) = H(zero(l), zero(l))`.
pub fn zero_hashes() -> &'static [Fr; MAX_DEPTH + 1] {
    static ZEROS: OnceLock<[Fr; MAX_DEPTH + 1]> = OnceLock::new();
    ZEROS.get_or_init(|| {
        let mut z = [EMPTY_LEAF; MAX_DEPTH + 1];
        for l in 1..=MAX_DEPTH {
            z[l] = poseidon::hash2(z[l - 1], z[l - 1]);
        }
        z
    })
}

/// Hash of two child nodes.
#[inline]
pub fn node_hash(left: Fr, right: Fr) -> Fr {
    poseidon::hash2(left, right)
}

/// An authentication path for one leaf.
///
/// `siblings[l]` is the sibling node at level `l` (level 0 = leaves);
/// `index` encodes the left/right directions (bit `l` of `index` is 1 when
/// the path node at level `l` is a right child).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MerkleProof {
    /// Leaf index the proof authenticates.
    pub index: u64,
    /// Sibling hashes from the leaf level upward, `depth` entries.
    pub siblings: Vec<Fr>,
}

impl MerkleProof {
    /// Tree depth this proof corresponds to.
    pub fn depth(&self) -> usize {
        self.siblings.len()
    }

    /// Recomputes the root implied by `leaf` under this path.
    pub fn compute_root(&self, leaf: Fr) -> Fr {
        let mut node = leaf;
        let mut idx = self.index;
        for sibling in &self.siblings {
            node = if idx & 1 == 0 {
                node_hash(node, *sibling)
            } else {
                node_hash(*sibling, node)
            };
            idx >>= 1;
        }
        node
    }

    /// Verifies that `leaf` at this proof's index is included under `root`.
    ///
    /// ```
    /// use wakurln_crypto::{field::Fr, merkle::FullMerkleTree};
    ///
    /// let mut tree = FullMerkleTree::new(8).unwrap();
    /// tree.set(3, Fr::from_u64(77)).unwrap();
    /// let proof = tree.proof(3).unwrap();
    /// assert!(proof.verify(tree.root(), Fr::from_u64(77)));
    /// assert!(!proof.verify(tree.root(), Fr::from_u64(78)));
    /// ```
    pub fn verify(&self, root: Fr, leaf: Fr) -> bool {
        self.compute_root(leaf) == root
    }
}

/// Checks a depth argument and returns the capacity, shared by all
/// implementations.
pub(crate) fn validate_depth(depth: usize) -> Result<u64, MerkleError> {
    if depth == 0 || depth > MAX_DEPTH {
        return Err(MerkleError::UnsupportedDepth(depth));
    }
    Ok(1u64 << depth)
}

/// One level of a batched roll-up, handed to the observer **after** the
/// frontier maintenance for that level.
pub(crate) struct BatchLevel<'a> {
    /// Tree level (0 = leaves).
    pub level: usize,
    /// Level-local index of `nodes[0]`.
    pub start: u64,
    /// The batch's node values at this level.
    pub nodes: &'a [Fr],
    /// Level-local index whose value was just written into the frontier
    /// at this level, if any.
    pub frontier_set: Option<u64>,
}

/// Rolls a contiguous batch of appended leaves up to the root in one pass
/// per level (`O(n + depth)` hashes), maintaining the append **frontier**
/// invariant: after the batch, `frontier[l]` holds the pending left node
/// at level `l` whenever bit `l` of the new leaf count is set.
///
/// `start` is the leaf index of `leaves[0]`; the frontier must be valid
/// for a tree currently holding exactly `start` leaves, and the batch
/// must fit (`start + leaves.len() <= 2^depth` — callers check).
/// `observe` sees every level's computed span (the hook the light tree
/// uses to refresh its own authentication path and frontier bookkeeping).
/// Returns the new root. Shared by [`IncrementalMerkleTree::append_batch`]
/// and [`SyncedPathTree::apply_append_batch`].
pub(crate) fn roll_up_batch(
    depth: usize,
    start: u64,
    leaves: &[Fr],
    frontier: &mut [Fr],
    mut observe: impl FnMut(&BatchLevel<'_>),
) -> Fr {
    debug_assert!(!leaves.is_empty());
    debug_assert!(leaves.len() as u64 <= (1u64 << depth) - start);
    let zeros = zero_hashes();
    let end = start + leaves.len() as u64;
    // `nodes` holds the batch's values at the current level; `a` is the
    // level-local index of `nodes[0]`.
    let mut nodes = leaves.to_vec();
    let mut a = start;
    for l in 0..depth {
        let old_frontier = frontier[l];
        // when bit `l` of the new leaf count is set, frontier[l] must
        // hold the pending left node at this level
        let mut frontier_set = None;
        let nl = end >> l;
        if nl & 1 == 1 {
            let pending = nl - 1;
            if pending >= a {
                frontier[l] = nodes[(pending - a) as usize];
                frontier_set = Some(pending);
            }
        }
        observe(&BatchLevel {
            level: l,
            start: a,
            nodes: &nodes,
            frontier_set,
        });
        // roll the batch up one level: the left boundary pairs with the
        // pre-batch frontier, the right boundary with the empty subtree
        let b = a + nodes.len() as u64;
        let first_parent = a >> 1;
        let last_parent = (b - 1) >> 1;
        let mut parents = Vec::with_capacity((last_parent - first_parent + 1) as usize);
        for p in first_parent..=last_parent {
            let li = p << 1;
            let ri = li | 1;
            let left = if li < a {
                old_frontier
            } else {
                nodes[(li - a) as usize]
            };
            let right = if ri < b {
                nodes[(ri - a) as usize]
            } else {
                zeros[l]
            };
            parents.push(node_hash(left, right));
        }
        nodes = parents;
        a = first_parent;
    }
    debug_assert_eq!((a, nodes.len()), (0, 1));
    // lint:allow(panic-path, reason = "loop invariant: halving terminates with exactly one node, checked by the debug_assert above")
    nodes[0]
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn zero_hash_chain_is_consistent() {
        let z = zero_hashes();
        assert_eq!(z[0], EMPTY_LEAF);
        for l in 1..=MAX_DEPTH {
            assert_eq!(z[l], node_hash(z[l - 1], z[l - 1]));
        }
    }

    #[test]
    fn empty_trees_of_all_impls_share_roots() {
        for depth in [1usize, 2, 4, 10, 20] {
            let full = FullMerkleTree::new(depth).unwrap();
            let inc = IncrementalMerkleTree::new(depth).unwrap();
            assert_eq!(full.root(), zero_hashes()[depth]);
            assert_eq!(inc.root(), zero_hashes()[depth]);
        }
    }

    #[test]
    fn depth_validation() {
        assert!(matches!(
            FullMerkleTree::new(0),
            Err(MerkleError::UnsupportedDepth(0))
        ));
        assert!(matches!(
            FullMerkleTree::new(MAX_DEPTH + 1),
            Err(MerkleError::UnsupportedDepth(_))
        ));
    }

    #[test]
    fn error_display_nonempty() {
        for e in [
            MerkleError::IndexOutOfRange {
                index: 9,
                capacity: 8,
            },
            MerkleError::TreeFull,
            MerkleError::StaleWitness,
            MerkleError::UnsupportedDepth(99),
        ] {
            assert!(!e.to_string().is_empty());
        }
    }

    #[test]
    fn batched_append_uses_at_least_5x_fewer_hashes_at_1024() {
        // the tentpole accounting claim: at batch size 1024 on a depth-20
        // tree, append_batch needs ≥ 5× fewer Poseidon invocations than
        // leaf-at-a-time appends (measured: ~20×)
        let leaves: Vec<Fr> = (0..1024u64).map(Fr::from_u64).collect();

        let mut sequential = FullMerkleTree::new(20).unwrap();
        let before = crate::poseidon::permutation_count();
        for leaf in &leaves {
            sequential.append(*leaf).unwrap();
        }
        let sequential_hashes = crate::poseidon::permutation_count() - before;

        let mut batched = FullMerkleTree::new(20).unwrap();
        let before = crate::poseidon::permutation_count();
        batched.append_batch(&leaves).unwrap();
        let batched_hashes = crate::poseidon::permutation_count() - before;

        assert_eq!(batched.root(), sequential.root());
        assert!(
            sequential_hashes >= 5 * batched_hashes,
            "sequential {sequential_hashes} vs batched {batched_hashes}"
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// The tentpole equivalence property: one `append_batch` produces
        /// the same root, next index and proofs as leaf-at-a-time appends,
        /// across all three tree implementations, from any prefix state.
        #[test]
        fn prop_append_batch_equals_sequential_appends(
            prefix in proptest::collection::vec(any::<u64>(), 0..12),
            batch in proptest::collection::vec(any::<u64>(), 0..48),
            own_at in proptest::option::of(0u64..12)
        ) {
            let depth = 6;
            let prefix: Vec<Fr> = prefix.into_iter().map(Fr::from_u64).collect();
            let batch: Vec<Fr> = batch.into_iter().map(Fr::from_u64).collect();

            let mut seq_full = FullMerkleTree::new(depth).unwrap();
            let mut seq_inc = IncrementalMerkleTree::new(depth).unwrap();
            let mut seq_light = SyncedPathTree::new(depth).unwrap();
            let mut bat_full = FullMerkleTree::new(depth).unwrap();
            let mut bat_inc = IncrementalMerkleTree::new(depth).unwrap();
            let mut bat_light = SyncedPathTree::new(depth).unwrap();

            let own_at = own_at.map(|i| i % (prefix.len().max(1) as u64));
            for (i, leaf) in prefix.iter().enumerate() {
                seq_full.append(*leaf).unwrap();
                bat_full.append(*leaf).unwrap();
                seq_inc.append(*leaf).unwrap();
                bat_inc.append(*leaf).unwrap();
                if own_at == Some(i as u64) {
                    seq_light.register_own(*leaf).unwrap();
                    bat_light.register_own(*leaf).unwrap();
                } else {
                    seq_light.apply_append(*leaf).unwrap();
                    bat_light.apply_append(*leaf).unwrap();
                }
            }

            for leaf in &batch {
                seq_full.append(*leaf).unwrap();
                seq_inc.append(*leaf).unwrap();
                seq_light.apply_append(*leaf).unwrap();
            }
            let start = bat_full.append_batch(&batch).unwrap();
            prop_assert_eq!(start, prefix.len() as u64);
            prop_assert_eq!(bat_inc.append_batch(&batch).unwrap(), start);
            prop_assert_eq!(bat_light.apply_append_batch(&batch).unwrap(), start);

            prop_assert_eq!(bat_full.root(), seq_full.root());
            prop_assert_eq!(bat_inc.root(), seq_inc.root());
            prop_assert_eq!(bat_light.root(), seq_light.root());
            prop_assert_eq!(bat_full.next_index(), seq_full.next_index());
            prop_assert_eq!(bat_inc.len(), seq_inc.len());
            prop_assert_eq!(bat_light.len(), seq_light.len());

            // proofs agree for every populated leaf
            for index in 0..seq_full.next_index() {
                prop_assert_eq!(
                    bat_full.proof(index).unwrap(),
                    seq_full.proof(index).unwrap()
                );
            }
            // the light member's own path stays correct through the batch
            prop_assert_eq!(bat_light.own_index(), seq_light.own_index());
            if let Some(own_index) = bat_light.own_index() {
                let proof = bat_light.own_proof().unwrap();
                prop_assert_eq!(&proof, &seq_full.proof(own_index).unwrap());
                prop_assert!(proof.verify(seq_full.root(), seq_full.leaf(own_index).unwrap()));
            }
        }

        /// Batches that straddle frontier boundaries keep future appends
        /// and deletions correct (the frontier-invariant regression
        /// shape).
        #[test]
        fn prop_appends_after_batch_stay_consistent(
            batch_len in 1usize..20,
            tail in proptest::collection::vec(any::<u64>(), 1..12)
        ) {
            let depth = 5;
            let batch: Vec<Fr> = (0..batch_len as u64).map(|v| Fr::from_u64(v + 100)).collect();
            let mut full = FullMerkleTree::new(depth).unwrap();
            let mut inc = IncrementalMerkleTree::new(depth).unwrap();
            full.append_batch(&batch).unwrap();
            inc.append_batch(&batch).unwrap();
            for v in tail {
                if full.next_index() == full.capacity() { break; }
                full.append(Fr::from_u64(v)).unwrap();
                inc.append(Fr::from_u64(v)).unwrap();
                prop_assert_eq!(full.root(), inc.root());
            }
        }

        #[test]
        fn prop_full_and_incremental_agree_on_appends(
            leaves in proptest::collection::vec(any::<u64>(), 0..20)
        ) {
            let depth = 6;
            let mut full = FullMerkleTree::new(depth).unwrap();
            let mut inc = IncrementalMerkleTree::new(depth).unwrap();
            for (i, v) in leaves.iter().enumerate() {
                full.set(i as u64, Fr::from_u64(*v)).unwrap();
                inc.append(Fr::from_u64(*v)).unwrap();
                prop_assert_eq!(full.root(), inc.root());
            }
        }

        #[test]
        fn prop_proofs_verify_and_tampered_proofs_fail(
            assignments in proptest::collection::vec((0u64..16, any::<u64>()), 1..24),
            probe in 0u64..16
        ) {
            let mut tree = FullMerkleTree::new(4).unwrap();
            for (idx, v) in &assignments {
                tree.set(*idx, Fr::from_u64(*v)).unwrap();
            }
            let leaf = tree.leaf(probe).unwrap();
            let proof = tree.proof(probe).unwrap();
            prop_assert!(proof.verify(tree.root(), leaf));
            // tampering with the leaf breaks verification
            prop_assert!(!proof.verify(tree.root(), leaf + Fr::ONE));
            // tampering with a sibling breaks verification
            let mut bad = proof.clone();
            bad.siblings[0] += Fr::ONE;
            prop_assert!(!bad.verify(tree.root(), leaf));
        }
    }
}

//! The `BENCH_crypto.json` throughput report.
//!
//! Measures the four tentpole hot paths — Poseidon hashing (fast vs
//! reference), batched Merkle ingestion (vs sequential), proof
//! generation, and proof verification (single vs batch) — and serializes
//! the result as a flat JSON object so the numbers can be tracked across
//! commits. The `bench_crypto` binary runs this with a real measurement
//! budget; the smoke test runs it with a tiny one to pin the schema.

use crate::ProveFixture;
use std::time::{Duration, Instant};
use wakurln_crypto::field::Fr;
use wakurln_crypto::merkle::IncrementalMerkleTree;
use wakurln_crypto::poseidon;
use wakurln_rln::{verify_signal, verify_signal_batch, Signal, SignalValidity};
use wakurln_zksnark::{RlnCircuit, RlnWitness, SimSnark};

/// Configuration for one report run.
#[derive(Clone, Copy, Debug)]
pub struct ReportConfig {
    /// Wall-clock budget per measured section.
    pub section_budget: Duration,
    /// Membership tree depth for the proving/verification sections.
    pub tree_depth: usize,
    /// Leaves per batched Merkle append.
    pub merkle_batch: usize,
    /// Signals per verification batch.
    pub verify_batch: usize,
}

impl Default for ReportConfig {
    fn default() -> ReportConfig {
        ReportConfig {
            section_budget: Duration::from_millis(1500),
            tree_depth: 16,
            merkle_batch: 1024,
            verify_batch: 32,
        }
    }
}

/// The measured throughput numbers (also see `BENCH_crypto.json`).
#[derive(Clone, Debug)]
pub struct CryptoReport {
    /// Fast-path width-3 Poseidon permutations per second.
    pub poseidon_fast_hashes_per_sec: f64,
    /// Reference width-3 Poseidon permutations per second.
    pub poseidon_reference_hashes_per_sec: f64,
    /// Fast ÷ reference.
    pub poseidon_speedup: f64,
    /// Leaves per second through `append_batch` (depth-20 tree).
    pub batch_append_leaves_per_sec: f64,
    /// Leaves per second through sequential `append` (depth-20 tree).
    pub sequential_append_leaves_per_sec: f64,
    /// Batched ÷ sequential.
    pub batch_append_speedup: f64,
    /// Poseidon invocations for one sequential 1024-leaf ingest.
    pub sequential_hash_invocations_per_1024: u64,
    /// Poseidon invocations for one batched 1024-leaf ingest.
    pub batched_hash_invocations_per_1024: u64,
    /// Sequential ÷ batched invocation counts.
    pub hash_invocation_ratio: f64,
    /// Single-threaded proofs per second.
    pub prove_per_sec: f64,
    /// Proofs per second through the parallel `prove_batch` path.
    pub prove_batch_per_sec: f64,
    /// Single verifications per second.
    pub verify_per_sec: f64,
    /// Verifications per second through `verify_signal_batch`.
    pub verify_batch_per_sec: f64,
    /// Tree depth the proving sections used.
    pub tree_depth: usize,
    /// Worker threads available to the parallel paths.
    pub threads: usize,
}

/// Runs `op` (which reports how many units it processed) until `budget`
/// elapses; returns units per second.
fn units_per_sec(budget: Duration, mut op: impl FnMut() -> usize) -> f64 {
    op(); // warm-up, untimed
    let start = Instant::now();
    let mut units = 0usize;
    loop {
        units += op();
        if start.elapsed() >= budget {
            break;
        }
    }
    units as f64 / start.elapsed().as_secs_f64()
}

/// Runs the full measurement suite.
pub fn run(config: ReportConfig) -> CryptoReport {
    let budget = config.section_budget;

    // -- Poseidon: fast vs reference ------------------------------------
    let fast_params = poseidon::fast_params(3);
    let reference_params = poseidon::params(3);
    let mut state = [Fr::from_u64(1), Fr::from_u64(2), Fr::from_u64(3)];
    let poseidon_fast = units_per_sec(budget, || {
        for _ in 0..64 {
            poseidon::permute_fast::<3>(fast_params, &mut state);
        }
        64
    });
    let mut ref_state = vec![Fr::from_u64(1), Fr::from_u64(2), Fr::from_u64(3)];
    let poseidon_reference = units_per_sec(budget, || {
        for _ in 0..64 {
            poseidon::permute_with(reference_params, &mut ref_state);
        }
        64
    });

    // -- Merkle ingestion: batched vs sequential ------------------------
    let depth = 20;
    let leaves: Vec<Fr> = (0..config.merkle_batch as u64).map(Fr::from_u64).collect();
    let mut batch_tree = IncrementalMerkleTree::new(depth).expect("depth ok");
    let batch_append = units_per_sec(budget, || {
        if batch_tree.capacity() - batch_tree.len() < leaves.len() as u64 {
            batch_tree = IncrementalMerkleTree::new(depth).expect("depth ok");
        }
        batch_tree.append_batch(&leaves).expect("capacity");
        leaves.len()
    });
    let mut seq_tree = IncrementalMerkleTree::new(depth).expect("depth ok");
    let sequential_append = units_per_sec(budget, || {
        if seq_tree.capacity() - seq_tree.len() < leaves.len() as u64 {
            seq_tree = IncrementalMerkleTree::new(depth).expect("depth ok");
        }
        for leaf in &leaves {
            seq_tree.append(*leaf).expect("capacity");
        }
        leaves.len()
    });

    // hash-invocation accounting at the canonical batch size 1024
    let leaves_1024: Vec<Fr> = (0..1024u64).map(Fr::from_u64).collect();
    let mut tree = IncrementalMerkleTree::new(depth).expect("depth ok");
    let before = poseidon::permutation_count();
    for leaf in &leaves_1024 {
        tree.append(*leaf).expect("capacity");
    }
    let sequential_invocations = poseidon::permutation_count() - before;
    let mut tree = IncrementalMerkleTree::new(depth).expect("depth ok");
    let before = poseidon::permutation_count();
    tree.append_batch(&leaves_1024).expect("capacity");
    let batched_invocations = poseidon::permutation_count() - before;

    // -- Proving --------------------------------------------------------
    let mut fixture = ProveFixture::new(config.tree_depth, 8, 42);
    let mut epoch = 0u64;
    let prove = units_per_sec(budget, || {
        epoch += 1;
        let _ = fixture.signal(epoch, b"bench-prove");
        1
    });

    let proof = fixture.tree.own_proof().expect("registered");
    let root = fixture.tree.root();
    let jobs: Vec<_> = (0..config.verify_batch as u64)
        .map(|i| {
            let (public, _) = RlnCircuit::derive_public(
                fixture.identity.secret(),
                root,
                Fr::from_u64(10_000 + i),
                Fr::from_u64(i),
            );
            (public, RlnWitness::new(fixture.identity.secret(), &proof))
        })
        .collect();
    let prove_batch = units_per_sec(budget, || {
        let results = SimSnark::prove_batch(&fixture.proving_key, &jobs, &mut fixture.rng);
        assert!(results.iter().all(Result::is_ok), "batch prove failed");
        results.len()
    });

    // -- Verification ---------------------------------------------------
    let signals: Vec<Signal> = (0..config.verify_batch as u64)
        .map(|i| fixture.signal(20_000 + i, b"bench-verify"))
        .collect();
    let vk = fixture.verifying_key.clone();
    let verify = units_per_sec(budget, || {
        let validity = verify_signal(&vk, root, &signals[0]);
        assert_eq!(validity, SignalValidity::Valid);
        1
    });
    let refs: Vec<&Signal> = signals.iter().collect();
    let verify_batch = units_per_sec(budget, || {
        let verdicts = verify_signal_batch(&vk, root, &refs);
        assert!(verdicts.iter().all(|v| *v == SignalValidity::Valid));
        verdicts.len()
    });

    CryptoReport {
        poseidon_fast_hashes_per_sec: poseidon_fast,
        poseidon_reference_hashes_per_sec: poseidon_reference,
        poseidon_speedup: poseidon_fast / poseidon_reference,
        batch_append_leaves_per_sec: batch_append,
        sequential_append_leaves_per_sec: sequential_append,
        batch_append_speedup: batch_append / sequential_append,
        sequential_hash_invocations_per_1024: sequential_invocations,
        batched_hash_invocations_per_1024: batched_invocations,
        hash_invocation_ratio: sequential_invocations as f64 / batched_invocations as f64,
        prove_per_sec: prove,
        prove_batch_per_sec: prove_batch,
        verify_per_sec: verify,
        verify_batch_per_sec: verify_batch,
        tree_depth: config.tree_depth,
        threads: wakurln_zksnark::parallel::max_threads(),
    }
}

impl CryptoReport {
    /// Serializes as a flat JSON object (hand-rolled; the workspace has no
    /// serialization library).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        let mut field = |key: &str, value: String| {
            out.push_str(&format!("  \"{key}\": {value},\n"));
        };
        field(
            "poseidon_fast_hashes_per_sec",
            format!("{:.1}", self.poseidon_fast_hashes_per_sec),
        );
        field(
            "poseidon_reference_hashes_per_sec",
            format!("{:.1}", self.poseidon_reference_hashes_per_sec),
        );
        field("poseidon_speedup", format!("{:.3}", self.poseidon_speedup));
        field(
            "batch_append_leaves_per_sec",
            format!("{:.1}", self.batch_append_leaves_per_sec),
        );
        field(
            "sequential_append_leaves_per_sec",
            format!("{:.1}", self.sequential_append_leaves_per_sec),
        );
        field(
            "batch_append_speedup",
            format!("{:.3}", self.batch_append_speedup),
        );
        field(
            "sequential_hash_invocations_per_1024",
            self.sequential_hash_invocations_per_1024.to_string(),
        );
        field(
            "batched_hash_invocations_per_1024",
            self.batched_hash_invocations_per_1024.to_string(),
        );
        field(
            "hash_invocation_ratio",
            format!("{:.3}", self.hash_invocation_ratio),
        );
        field("prove_per_sec", format!("{:.2}", self.prove_per_sec));
        field(
            "prove_batch_per_sec",
            format!("{:.2}", self.prove_batch_per_sec),
        );
        field("verify_per_sec", format!("{:.1}", self.verify_per_sec));
        field(
            "verify_batch_per_sec",
            format!("{:.1}", self.verify_batch_per_sec),
        );
        field("tree_depth", self.tree_depth.to_string());
        out.push_str(&format!("  \"threads\": {}\n}}\n", self.threads));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The acceptance smoke test: every field of `BENCH_crypto.json` is
    /// present and positive, the batched append saves ≥ 5× the hash
    /// invocations at batch size 1024, and the JSON schema is stable.
    #[test]
    fn report_fields_present_and_positive() {
        let report = run(ReportConfig {
            section_budget: Duration::from_millis(5),
            tree_depth: 10,
            merkle_batch: 64,
            verify_batch: 4,
        });
        assert!(report.poseidon_fast_hashes_per_sec > 0.0);
        assert!(report.poseidon_reference_hashes_per_sec > 0.0);
        assert!(report.poseidon_speedup > 0.0);
        assert!(report.batch_append_leaves_per_sec > 0.0);
        assert!(report.sequential_append_leaves_per_sec > 0.0);
        assert!(report.batch_append_speedup > 0.0);
        assert!(report.sequential_hash_invocations_per_1024 > 0);
        assert!(report.batched_hash_invocations_per_1024 > 0);
        assert!(
            report.hash_invocation_ratio >= 5.0,
            "batched append must use ≥5× fewer hashes, got {:.2}×",
            report.hash_invocation_ratio
        );
        assert!(report.prove_per_sec > 0.0);
        assert!(report.prove_batch_per_sec > 0.0);
        assert!(report.verify_per_sec > 0.0);
        assert!(report.verify_batch_per_sec > 0.0);
        assert!(report.threads >= 1);

        let json = report.to_json();
        for key in [
            "poseidon_fast_hashes_per_sec",
            "poseidon_reference_hashes_per_sec",
            "poseidon_speedup",
            "batch_append_leaves_per_sec",
            "sequential_append_leaves_per_sec",
            "batch_append_speedup",
            "sequential_hash_invocations_per_1024",
            "batched_hash_invocations_per_1024",
            "hash_invocation_ratio",
            "prove_per_sec",
            "prove_batch_per_sec",
            "verify_per_sec",
            "verify_batch_per_sec",
            "tree_depth",
            "threads",
        ] {
            assert!(json.contains(&format!("\"{key}\":")), "missing {key}");
        }
        assert!(json.starts_with('{') && json.ends_with("}\n"));
    }
}

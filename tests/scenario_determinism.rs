//! Integration: the scenario engine's determinism contract.
//!
//! Same `ScenarioSpec` + seed ⇒ **byte-identical** `ScenarioReport`
//! JSON, for every built-in scenario. This is what makes scenario runs
//! citable (a report is reproducible from `(name, nodes, seed)` alone)
//! and sweeps comparable across machines.
//!
//! Runs are sized down (and traffic thinned) so each scenario finishes
//! quickly in debug builds; the engine scales the same code path to
//! 1000+ nodes under `simctl`.

use waku_rln::crypto::sha256::{to_hex, Sha256};
use waku_rln::scenarios::{builtin, run_scenario, ScenarioSpec};

/// Two full runs of the spec must serialize to the same bytes, and those
/// bytes must hash to `digest`: the SHA-256 of the report pinned when the
/// test was written, so a change that moves report bytes fails here even
/// when it stays deterministic.
fn assert_deterministic(mut spec: ScenarioSpec, digest: &str) {
    // thin the traffic to keep debug-mode proof generation cheap
    spec.traffic.publishers = spec.traffic.publishers.min(3);
    spec.traffic.rounds = spec.traffic.rounds.min(3);
    let first = run_scenario(&spec).to_json();
    let second = run_scenario(&spec).to_json();
    assert_eq!(
        first, second,
        "scenario {} not deterministic for seed {}",
        spec.name, spec.seed
    );
    assert_eq!(
        to_hex(&Sha256::digest(first.as_bytes())),
        digest,
        "scenario {} report bytes changed for seed {}",
        spec.name,
        spec.seed
    );
    // sanity: the run actually simulated something
    assert!(first.contains("\"messages_sent\""));
    let mut reseeded = spec.clone();
    reseeded.seed += 1;
    let third = run_scenario(&reseeded).to_json();
    assert_ne!(first, third, "seed {} had no effect", spec.seed);
}

#[test]
fn baseline_is_deterministic() {
    assert_deterministic(
        builtin("baseline", 16, 91).unwrap(),
        "d29d36fa20aeebe24d90acdc98fd96b058eaeb7928a763074b51fdf9da22a903",
    );
}

#[test]
fn spam_burst_is_deterministic() {
    assert_deterministic(
        builtin("spam_burst", 16, 92).unwrap(),
        "0b348eb5468fdd9a46d5dc2859fa9177f87f261d900f22c22e0d6ed39fd5be2b",
    );
}

#[test]
fn targeted_eclipse_is_deterministic() {
    assert_deterministic(
        builtin("targeted_eclipse", 16, 93).unwrap(),
        "9075529b242c98b1959493832fe01adc96c94bc3ffa7887aa40d9cfe461b41eb",
    );
}

#[test]
fn heterogeneous_devices_is_deterministic() {
    assert_deterministic(
        builtin("heterogeneous_devices", 16, 94).unwrap(),
        "3ade63f8ec73e2a8656539fc1027c9655b3c20406d565c3d4e4295d440fa4a01",
    );
}

#[test]
fn mass_churn_is_deterministic() {
    assert_deterministic(
        builtin("mass_churn", 20, 95).unwrap(),
        "34c50054ded54fdc8f895ff138283b220fba759f4891cae6a5185ef6839bbd05",
    );
}

#[test]
fn epoch_boundary_race_is_deterministic() {
    assert_deterministic(
        builtin("epoch_boundary_race", 16, 96).unwrap(),
        "01907d9ff4ea1313f6df3de730354d41d942a66f2772e4282a4d7fb280c1f0ec",
    );
}

#[test]
fn passive_surveillance_is_deterministic() {
    assert_deterministic(
        builtin("passive_surveillance", 16, 97).unwrap(),
        "32027361ee9af7d10d55a60f46184e3c079f439dd98120877754eb675490c324",
    );
}

#[test]
fn deanonymization_sweep_is_deterministic() {
    assert_deterministic(
        builtin("deanonymization_sweep", 16, 98).unwrap(),
        "809e80616fd62d5851b8bbb4d5dce8159201e4c8e93ccc7b4a163ef9c269fe9f",
    );
}

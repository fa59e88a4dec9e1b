//! # perfbench
//!
//! One scenario run per process, measured from outside the program: the
//! binaries time calls into the public API of the scenario engine, the
//! testbed, the network and the crypto crates, and print one JSON object
//! on standard output. `run.py` chooses the workloads, repeats the runs,
//! checks the reports and prints the metrics (see `README.md`).
//!
//! * [`timed_run`] — one untraced run through
//!   [`run_scenario_with_progress`]: wall time, set-up time (from the first
//!   progress callback), events dispatched, peak RSS and the report.
//! * [`traced_run`] — a run at threads 1 and one at threads 2 through
//!   [`run_scenario_detailed`], which hands back the testbed: phase
//!   timings, network counters, validator statistics, Poseidon
//!   permutations and (in the traced binary) allocations.
//! * [`probe_crypto`] — `create_signal`, `verify_signal` and Poseidon
//!   timed on their own at the workload's tree depth.
//!
//! Nothing here changes the program: every figure comes from a public
//! function of the crates.

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::{Duration, Instant};
use waku_rln_relay::{Testbed, TestbedConfig};
use wakurln_crypto::field::Fr;
use wakurln_crypto::merkle::SyncedPathTree;
use wakurln_crypto::poseidon;
use wakurln_crypto::sha256::Sha256;
use wakurln_netsim::NodeId;
use wakurln_rln::{create_signal, verify_signal, Identity, SignalValidity};
use wakurln_scenarios::{
    builtin, run_scenario_detailed, run_scenario_with_progress, Progress, ScenarioReport,
    ScenarioSpec,
};
use wakurln_zksnark::{RlnCircuit, SimSnark};

/// Command-line arguments shared by both binaries:
/// `<scenario> <nodes> <seed>`.
#[derive(Clone, Debug)]
pub struct Args {
    /// Built-in scenario name (see `wakurln_scenarios::BUILTIN_NAMES`).
    pub scenario: String,
    /// Honest population the built-in is sized to.
    pub nodes: usize,
    /// Scenario seed.
    pub seed: u64,
}

impl Args {
    /// Parses `<scenario> <nodes> <seed>` (program name already
    /// stripped).
    ///
    /// # Errors
    ///
    /// A usage message when an argument is missing, extra or malformed.
    pub fn parse(args: &[String]) -> Result<Args, String> {
        let usage = "usage: <scenario> <nodes> <seed>";
        let [scenario, nodes, seed] = args else {
            return Err(usage.to_string());
        };
        let number = |what: &str, s: &str| {
            s.parse::<u64>()
                .map_err(|_| format!("{what} must be a whole number, got {s:?}; {usage}"))
        };
        Ok(Args {
            scenario: scenario.clone(),
            nodes: number("nodes", nodes)? as usize,
            seed: number("seed", seed)?,
        })
    }

    /// The built-in scenario these arguments name, at 1 scheduler
    /// thread (set explicitly, never auto-detected).
    ///
    /// # Errors
    ///
    /// When the scenario name is unknown.
    pub fn spec(&self) -> Result<ScenarioSpec, String> {
        let mut spec = builtin(&self.scenario, self.nodes, self.seed)
            .ok_or_else(|| format!("unknown scenario {:?}", self.scenario))?;
        spec.threads = 1;
        Ok(spec)
    }
}

/// Runs `main` on `args` (the process arguments after the program name
/// and any mode flag); prints its JSON on success, the error on standard
/// error (exit code 2) otherwise.
pub fn run_main(args: &[String], main: impl FnOnce(&Args) -> Result<String, String>) {
    match Args::parse(args).and_then(|a| main(&a)) {
        Ok(json) => println!("{json}"),
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    }
}

/// One untraced run: `wall_s`, `setup_s`, `events`, `vm_hwm_kb`, the
/// report digest and the report itself, as one JSON object.
///
/// `setup_s` is the time from the call until the engine started its
/// simulated clock (see [`setup_seconds`]).
///
/// # Errors
///
/// When the scenario name is unknown or the engine never reported
/// progress.
pub fn timed_run(args: &Args) -> Result<String, String> {
    let spec = args.spec()?;
    let mut setup_s: Option<f64> = None;
    let mut events = 0u64;
    let start = Instant::now();
    let report = run_scenario_with_progress(&spec, |p| {
        if setup_s.is_none() {
            setup_s = Some(setup_seconds(start, p));
        }
        events = p.events_dispatched;
    });
    let wall_s = start.elapsed().as_secs_f64();
    let setup_s = setup_s.ok_or("the engine reported no progress")?;
    let vm_hwm_kb = vm_hwm_kb()?;
    Ok(object(|out| {
        field(out, "wall_s", wall_s);
        field(out, "setup_s", setup_s);
        field(out, "events", events);
        field(out, "vm_hwm_kb", vm_hwm_kb);
        field(out, "pipeline", spec.pipeline.is_some());
        push_report(out, &report);
    }))
}

/// Set-up only: starts the scenario, and at its first progress callback
/// prints `{"setup_s": …}` (measured as in [`timed_run`]) and ends the
/// process, so repeated set-up samples cost no simulation.
///
/// # Errors
///
/// When the scenario name is unknown or the engine never reported
/// progress.
pub fn setup_run(args: &Args) -> Result<String, String> {
    let spec = args.spec()?;
    let start = Instant::now();
    run_scenario_with_progress(&spec, |p| {
        let setup_s = setup_seconds(start, p);
        println!("{}", object(|out| field(out, "setup_s", setup_s)));
        std::process::exit(0);
    });
    Err("the engine reported no progress".into())
}

/// Time from `start` until the engine started its simulated clock: the
/// elapsed time at progress callback `p` minus the callback's own
/// `wall_ms`.
fn setup_seconds(start: Instant, p: &Progress) -> f64 {
    start.elapsed().as_secs_f64() - p.wall_ms as f64 / 1e3
}

/// One traced run at threads 1 and one at threads 2 (in that order, so
/// one-time initialisation inside the crates always lands in the
/// threads-1 run), a probe build for the initial membership sync, then
/// the crypto probes at the workload's tree depth, as one JSON object.
/// `alloc_count` reads the allocation counter of the calling binary.
///
/// # Errors
///
/// When the scenario name is unknown or a probe fails.
pub fn traced_run(args: &Args, alloc_count: fn() -> u64) -> Result<String, String> {
    let mut spec = args.spec()?;
    let mut runs = Vec::new();
    for threads in [1, 2] {
        spec.threads = threads;
        runs.push(traced_scenario(&spec, alloc_count));
    }
    spec.threads = 1;
    let initial_sync_s = probe_initial_sync(&spec);
    let probe = probe_crypto(spec.effective_tree_depth(), args.seed)?;
    let parallelism = std::thread::available_parallelism().map_or(0, |n| n.get());
    Ok(object(|out| {
        field(out, "t1", &runs[0]);
        field(out, "t2", &runs[1]);
        field(out, "initial_sync_s", initial_sync_s);
        field(out, "probe", probe);
        field(out, "host_parallelism", parallelism);
    }))
}

/// Seconds of membership sync inside [`Testbed::build`] for a world the
/// size of `spec` — the part of `core.sync_s` that falls in set-up.
fn probe_initial_sync(spec: &ScenarioSpec) -> f64 {
    let tb = Testbed::build(TestbedConfig {
        n_peers: spec.initial_peers(),
        tree_depth: spec.effective_tree_depth(),
        epoch: spec.epoch,
        seed: spec.seed,
        pipeline: spec.pipeline,
        threads: spec.threads,
        ..TestbedConfig::default()
    });
    tb.phase_timings().registration_sync_ns as f64 / 1e9
}

/// Runs one spec through [`run_scenario_detailed`] and reads the
/// per-layer figures off the returned testbed.
fn traced_scenario(spec: &ScenarioSpec, alloc_count: fn() -> u64) -> String {
    let allocs_before = alloc_count();
    let perms_before = poseidon::permutation_count();
    let start = Instant::now();
    let (report, tb) = run_scenario_detailed(spec);
    let engine = start.elapsed();
    let allocs = alloc_count() - allocs_before;
    // counted on the calling thread only: exact at threads 1
    let perms = poseidon::permutation_count() - perms_before;

    object(|out| {
        field(out, "threads", spec.threads);
        field(out, "allocs", allocs);
        field(out, "poseidon_perms", perms);
        layer_fields(out, &tb);
        push_report(out, &report);
        // the untraced call drops its testbed before returning; charge
        // the drop here too so the two wall times compare like for like
        let drop_start = Instant::now();
        drop(tb);
        let wall = engine + drop_start.elapsed();
        field(out, "wall_s", wall.as_secs_f64());
    })
}

/// Phase timings, network counters, validator statistics and the gas
/// the chain's transactions used.
fn layer_fields(out: &mut String, tb: &Testbed) {
    let phases = tb.phase_timings();
    field(out, "sync_s", phases.registration_sync_ns as f64 / 1e9);
    field(out, "dispatch_s", phases.dispatch_ns as f64 / 1e9);
    field(out, "drain_s", phases.drain_ns as f64 / 1e9);
    field(out, "events", tb.net.events_dispatched());
    field(out, "pending", tb.net.pending_events());
    let metrics = tb.net.metrics();
    for key in [
        "messages_sent",
        "bytes_sent",
        "duplicates",
        "iwant_sent",
        "pings_sent",
        "delivered_app",
        "messages_delivered",
    ] {
        field(out, key, metrics.counter(key));
    }
    // proof work at the relays: the serial validator verifies every
    // decoded signal; the batched pipeline counts what it verified
    let (mut submitted, mut verified) = (0u64, 0u64);
    for i in 0..tb.peer_count() {
        let validator = tb.net.node(NodeId(i)).validator();
        match validator.pipeline_stats() {
            Some(p) => {
                submitted += p.submitted;
                verified += p.proofs_verified;
            }
            None => {
                let s = validator.stats();
                let decoded = s.valid
                    + s.invalid_proof
                    + s.epoch_out_of_window
                    + s.duplicates
                    + s.spam_detected;
                submitted += decoded;
                verified += decoded;
            }
        }
    }
    field(out, "proofs_submitted", submitted);
    field(out, "proofs_verified", verified);
    let gas: u64 = tb.chain.receipts().map(|r| r.gas_used).sum();
    field(out, "gas_used", gas);
}

/// Per-call costs of the crypto layers at tree depth `depth`, timed
/// outside any scenario run. Each figure is the median over batches.
///
/// # Errors
///
/// When the fixture cannot be built or a probe signal does not verify.
pub fn probe_crypto(depth: usize, seed: u64) -> Result<String, String> {
    let mut rng = StdRng::seed_from_u64(seed);
    let (proving_key, verifying_key) = SimSnark::setup(RlnCircuit::new(depth), &mut rng);
    let mut tree = SyncedPathTree::new(depth).map_err(|e| format!("tree: {e:?}"))?;
    for i in 0..7 {
        tree.apply_append(Fr::from_u64(10_000 + i))
            .map_err(|e| format!("tree: {e:?}"))?;
    }
    let identity = Identity::random(&mut rng);
    tree.register_own(identity.commitment())
        .map_err(|e| format!("tree: {e:?}"))?;
    let path = tree.own_proof().ok_or("own proof missing")?;
    let root = tree.root();

    let mut epoch = 0u64;
    let mut signal = None;
    let prove_s = median_per_call(1, 5, Duration::from_millis(600), || {
        epoch += 1;
        signal = Some(create_signal(
            &identity,
            &path,
            root,
            &proving_key,
            Fr::from_u64(epoch),
            b"perfbench probe",
            &mut rng,
        ));
    });
    let signal = signal
        .ok_or("no probe signal")?
        .map_err(|e| format!("probe proof failed: {e:?}"))?;
    if verify_signal(&verifying_key, root, &signal) != SignalValidity::Valid {
        return Err("probe signal does not verify".into());
    }
    let verify_s = median_per_call(64, 5, Duration::from_millis(300), || {
        black_box(verify_signal(&verifying_key, black_box(root), &signal));
    });

    let perms_before = poseidon::permutation_count();
    let mut hashes = 0u64;
    let mut acc = Fr::from_u64(seed);
    let hash_s = median_per_call(4096, 5, Duration::from_millis(300), || {
        acc = poseidon::hash2(black_box(acc), Fr::ONE);
        hashes += 1;
    });
    black_box(acc);
    let perms_per_hash = (poseidon::permutation_count() - perms_before) as f64 / hashes as f64;

    Ok(object(|out| {
        field(out, "depth", depth);
        field(out, "prove_ms", prove_s * 1e3);
        field(out, "verify_us", verify_s * 1e6);
        field(out, "poseidon_ns", hash_s * 1e9 / perms_per_hash);
    }))
}

/// Runs `op` in batches of `per_batch` calls, at least `min_batches`
/// batches and until `budget` has passed; returns the median seconds per
/// call.
fn median_per_call(
    per_batch: u32,
    min_batches: usize,
    budget: Duration,
    mut op: impl FnMut(),
) -> f64 {
    let start = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < min_batches || start.elapsed() < budget {
        let batch = Instant::now();
        for _ in 0..per_batch {
            op();
        }
        samples.push(batch.elapsed().as_secs_f64() / per_batch as f64);
    }
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// Peak resident set (`VmHWM`) of this process, in KiB.
fn vm_hwm_kb() -> Result<u64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// A JSON object whose members `fill` appends with [`field`] and
/// [`push_report`].
fn object(fill: impl FnOnce(&mut String)) -> String {
    let mut out = String::from("{");
    fill(&mut out);
    out.pop(); // the last member's comma
    out.push('}');
    out
}

/// Appends `"key":value,`. Numbers, booleans and JSON objects print as
/// JSON as they are.
fn field(out: &mut String, key: &str, value: impl std::fmt::Display) {
    let _ = write!(out, "\"{key}\":{value},");
}

/// Appends the report's SHA-256 digest and the report object.
fn push_report(out: &mut String, report: &ScenarioReport) {
    let json = report.to_json();
    let digest: String = Sha256::digest(json.as_bytes())
        .iter()
        .map(|b| format!("{b:02x}"))
        .collect();
    let _ = write!(out, "\"report_sha256\":\"{digest}\",\"report\":{json},");
}

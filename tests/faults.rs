//! Fault-tolerant sweep semantics: per-family quarantine, deterministic
//! resource budgets, and the seeded fault-injection harness.
//!
//! The load-bearing claim is *thread-count invariance*: with a fault plan
//! armed, the quarantined set, the surviving reports and the counter deltas
//! (including the new `verify.families_quarantined` /
//! `verify.families_over_budget` pins) must be byte-identical at 1, 2 and 8
//! worker threads. Fault injection is process-global state, so every test
//! that arms a plan serializes on [`LOCK`] and clears the plan before
//! releasing it.

use std::collections::BTreeMap;
use std::sync::Mutex;

use hoyan::config::ConfigSnapshot;
use hoyan::core::{
    DirtyReason, FamilyBudget, FamilyOutcome, PrefixReport, SimError, StreamedFamily, SweepOptions,
    Verifier,
};
use hoyan::device::VsbProfile;
use hoyan::rt::fault::{self, FaultKind, FaultPlan};
use hoyan::topogen::WanSpec;

/// Fault plans are process-global; serialize the tests that arm them.
static LOCK: Mutex<()> = Mutex::new(());

const K: u32 = 1;

fn verifier() -> Verifier {
    let wan = WanSpec::tiny(9).build();
    Verifier::new(wan.configs, VsbProfile::ground_truth, Some(3)).unwrap()
}

/// A multi-region fixture whose sweep plans several multi-family batches,
/// so warm chaining and whole-batch stealing are both in play.
fn batchy_verifier() -> Verifier {
    let wan = WanSpec {
        seed: 42,
        regions: 3,
        pes_per_region: 4,
        mans_per_region: 2,
        prefixes_per_pe: 2,
        extra_core_links: 2,
        block_prefixes: 1,
    }
    .build();
    Verifier::new(wan.configs, VsbProfile::ground_truth, Some(3)).unwrap()
}

/// Everything in a report except the wall-clock timings, rendered to an
/// owned string so snapshots from different runs can be compared.
fn stable_view(r: &PrefixReport) -> String {
    format!(
        "{:?}",
        (
            r.prefix,
            r.stats,
            r.max_cond_len,
            r.max_reach_formula_len,
            &r.scope,
            &r.fragile,
            r.family_head,
        )
    )
}

/// `after - before`, per counter (new counters count from zero).
fn counter_deltas(
    before: &BTreeMap<&'static str, u64>,
    after: &BTreeMap<&'static str, u64>,
) -> BTreeMap<&'static str, u64> {
    after
        .iter()
        .map(|(k, v)| (*k, v - before.get(k).copied().unwrap_or(0)))
        .collect()
}

#[test]
fn quarantine_is_thread_count_invariant() {
    let _g = LOCK.lock().unwrap_or_else(|p| p.into_inner());
    // One family of each failure mode: an injected error, injected budget
    // exhaustion (routed through the real op-budget machinery), and a panic
    // caught by the worker's `catch_unwind`.
    fault::install(
        FaultPlan::new()
            .at("verify.family", &[1], FaultKind::Error)
            .at("verify.family", &[2], FaultKind::OverBudget)
            .at("verify.family", &[3], FaultKind::Panic),
    );
    let mut snapshots = Vec::new();
    for threads in [1usize, 2, 8] {
        let v = verifier();
        let n = v.families().len();
        assert!(n >= 4, "need >= 4 families to plant 3 faults, got {n}");
        let before = hoyan::obs::counter_values();
        let swept = v.verify_all_routes(K, threads).unwrap();
        let deltas = counter_deltas(&before, &hoyan::obs::counter_values());
        assert_eq!(swept.quarantined.len(), 3, "threads={threads}");
        assert_eq!(deltas["verify.families_quarantined"], 3);
        assert_eq!(deltas["verify.families_over_budget"], 1);
        assert_eq!(deltas["verify.families"], (n - 3) as u64);
        let quarantined: Vec<String> = swept
            .quarantined
            .iter()
            .map(|q| format!("{}:{:?}:{}", q.index, q.prefixes, q.outcome))
            .collect();
        let reports: Vec<String> = swept.reports.iter().map(stable_view).collect();
        snapshots.push((threads, quarantined, reports, deltas));
    }
    fault::clear();
    let (_, q1, r1, d1) = &snapshots[0];
    for (threads, q, r, d) in &snapshots[1..] {
        assert_eq!(q, q1, "quarantined set differs at threads={threads}");
        assert_eq!(r, r1, "reports differ at threads={threads}");
        assert_eq!(d, d1, "counter deltas differ at threads={threads}");
    }
    // The panic was quarantined with its payload message, not re-thrown.
    let (_, q, _, _) = &snapshots[0];
    assert!(
        q.iter().any(|s| s.contains("injected fault: panic")),
        "panic payload should be captured: {q:?}"
    );
}

/// Fail-fast surfaces the lowest failing family index at any thread
/// count. Family 0 heads batch 0 (home: worker 0); the second failure
/// heads batch 1, homed on worker 1 whenever there are two or more
/// workers — so the higher index usually fails first, and the sweep must
/// still run family 0 and report it.
#[test]
fn fail_fast_surfaces_the_lowest_failing_index() {
    let _g = LOCK.lock().unwrap_or_else(|p| p.into_inner());
    let opts = SweepOptions {
        fail_fast: true,
        ..SweepOptions::default()
    };
    let v = batchy_verifier();
    let batches = v.plan_batches(&v.families());
    assert!(batches.len() >= 3, "fixture must plan several batches");
    assert_eq!(batches[0][0], 0, "family 0 heads the first batch");
    let other = batches[1][0];
    fault::install(FaultPlan::new().at("verify.family", &[0, other as u64], FaultKind::Error));
    for threads in [1usize, 2, 8] {
        for run in 0..10 {
            match v.verify_all_routes_opts(K, threads, &opts).unwrap_err() {
                SimError::Injected { site, index } => assert_eq!(
                    (site, index),
                    ("verify.family", 0),
                    "threads={threads}, run {run}"
                ),
                other => panic!("expected the injected error, got {other}"),
            }
        }
    }
    // A single late failure aborts too (the pre-quarantine behavior).
    fault::install(FaultPlan::new().at("verify.family", &[2], FaultKind::Error));
    let err = verifier().verify_all_routes_opts(K, 2, &opts).unwrap_err();
    assert!(matches!(err, SimError::Injected { index: 2, .. }), "{err}");
    fault::clear();
}

#[test]
fn fail_fast_resumes_a_worker_panic() {
    let _g = LOCK.lock().unwrap_or_else(|p| p.into_inner());
    fault::install(FaultPlan::new().at("verify.family", &[1], FaultKind::Panic));
    let opts = SweepOptions {
        fail_fast: true,
        ..SweepOptions::default()
    };
    let outcome = std::panic::catch_unwind(|| {
        let _ = verifier().verify_all_routes_opts(K, 2, &opts);
    });
    fault::clear();
    let payload = outcome.expect_err("fail-fast must re-raise the worker panic");
    let msg = payload
        .downcast_ref::<String>()
        .cloned()
        .unwrap_or_default();
    assert!(msg.contains("injected fault: panic"), "payload: {msg}");
}

/// Op caps quarantine the same families, with the same counter deltas,
/// at 1, 2 and 8 threads. A cap of 1 trips every family whatever its
/// warmth; a mid-range cap — the median of the families' unbudgeted op
/// bills — trips some but not all, and which ones depends on each
/// family's own ops after its warm predecessors in the batch.
#[test]
fn op_budget_quarantines_deterministically() {
    let _g = LOCK.lock().unwrap_or_else(|p| p.into_inner());
    fault::clear();
    let v = batchy_verifier();
    let n = v.families().len();
    let mut ops = Vec::new();
    v.verify_all_routes_streaming(K, 1, &SweepOptions::default(), &mut |item| {
        if let StreamedFamily::Done { cost, .. } = item {
            ops.push(cost.ops);
        }
    })
    .unwrap();
    ops.sort_unstable();
    let median = ops[ops.len() / 2];
    for cap in [1, median] {
        let opts = SweepOptions {
            budget: FamilyBudget {
                max_ite_ops: Some(cap),
                ..FamilyBudget::default()
            },
            ..SweepOptions::default()
        };
        let mut snapshots = Vec::new();
        for threads in [1usize, 2, 8] {
            let before = hoyan::obs::counter_values();
            let swept = v.verify_all_routes_opts(K, threads, &opts).unwrap();
            let deltas = counter_deltas(&before, &hoyan::obs::counter_values());
            let tripped = swept.quarantined.len();
            if cap == 1 {
                assert_eq!(tripped, n, "threads={threads}");
                assert!(swept.reports.is_empty());
            } else {
                assert!(0 < tripped && tripped < n, "cap {cap}: {tripped} of {n} tripped");
            }
            assert!(swept
                .quarantined
                .iter()
                .all(|q| matches!(q.outcome, FamilyOutcome::OverBudget { .. })));
            assert_eq!(deltas["verify.families_over_budget"], tripped as u64);
            assert_eq!(deltas["verify.families_quarantined"], tripped as u64);
            let q: Vec<String> = swept
                .quarantined
                .iter()
                .map(|q| format!("{}:{:?}:{}", q.index, q.prefixes, q.outcome))
                .collect();
            snapshots.push((q, deltas));
        }
        assert_eq!(snapshots[0], snapshots[1], "cap {cap}: threads=1 vs 2");
        assert_eq!(snapshots[0], snapshots[2], "cap {cap}: threads=1 vs 8");
    }
}

#[test]
fn node_budget_trips_on_tiny_caps() {
    let _g = LOCK.lock().unwrap_or_else(|p| p.into_inner());
    fault::clear();
    let opts = SweepOptions {
        fail_fast: false,
        budget: FamilyBudget {
            max_live_nodes: Some(1),
            ..FamilyBudget::default()
        },
        ..SweepOptions::default()
    };
    let swept = verifier().verify_all_routes_opts(K, 2, &opts).unwrap();
    assert!(
        !swept.quarantined.is_empty(),
        "a 1-node arena cap must trip on real families"
    );
    assert!(swept
        .quarantined
        .iter()
        .all(|q| matches!(q.outcome, FamilyOutcome::OverBudget { .. })));
}

#[test]
fn reverify_retries_quarantined_families() {
    let _g = LOCK.lock().unwrap_or_else(|p| p.into_inner());
    let wan = WanSpec::tiny(9).build();
    let snap = ConfigSnapshot::new(wan.configs.clone());
    let delta = snap.diff(&snap);
    assert!(delta.is_empty());

    // Baseline sweep with one family quarantined: it must be missing from
    // the cache, not cached-as-failed.
    fault::install(FaultPlan::new().at("verify.family", &[1], FaultKind::Error));
    let v = Verifier::new(wan.configs.clone(), VsbProfile::ground_truth, Some(3)).unwrap();
    let n = v.families().len();
    let (base, cache) = v.verify_all_routes_cached(K, 2).unwrap();
    fault::clear();
    assert_eq!(base.quarantined.len(), 1);
    assert_eq!(cache.len(), n - 1, "quarantined family must not be cached");

    // Healthy re-verify over an *empty* delta: the quarantined family is
    // the only dirty one, and the merged output matches a fresh sweep.
    let v2 = Verifier::new(wan.configs.clone(), VsbProfile::ground_truth, Some(3)).unwrap();
    let outcome = v2.reverify(&delta, &cache, K, 2).unwrap();
    assert_eq!(outcome.recomputed, 1, "exactly the quarantined family");
    assert_eq!(outcome.reused, n - 1);
    assert!(outcome.quarantined.is_empty());

    let fresh = Verifier::new(wan.configs, VsbProfile::ground_truth, Some(3))
        .unwrap()
        .verify_all_routes(K, 2)
        .unwrap();
    assert!(fresh.quarantined.is_empty());
    let a: Vec<String> = fresh.reports.iter().map(stable_view).collect();
    let b: Vec<String> = outcome.reports.iter().map(stable_view).collect();
    assert_eq!(a, b, "retried family must reproduce the fresh sweep");
}

/// The modular pipeline's own fault site: an error, a budget breach or a
/// panic injected *during the abstract first pass* quarantines only that
/// family — its neighbors (same region or not) still complete, at any
/// thread count.
#[test]
fn abstract_stage_faults_quarantine_only_that_family() {
    let _g = LOCK.lock().unwrap_or_else(|p| p.into_inner());
    let opts = SweepOptions {
        modular: true,
        ..SweepOptions::default()
    };
    fault::install(
        FaultPlan::new()
            .at("verify.abstract", &[1], FaultKind::Error)
            .at("verify.abstract", &[2], FaultKind::OverBudget)
            .at("verify.abstract", &[3], FaultKind::Panic),
    );
    let mut snapshots = Vec::new();
    for threads in [1usize, 2, 8] {
        let v = verifier();
        let n = v.families().len();
        assert!(n >= 4, "need >= 4 families to plant 3 faults, got {n}");
        let before = hoyan::obs::counter_values();
        let swept = v.verify_all_routes_opts(K, threads, &opts).unwrap();
        let deltas = counter_deltas(&before, &hoyan::obs::counter_values());
        assert_eq!(swept.quarantined.len(), 3, "threads={threads}");
        assert_eq!(deltas["verify.families_quarantined"], 3);
        assert_eq!(deltas["verify.families_over_budget"], 1);
        assert_eq!(deltas["verify.families"], (n - 3) as u64);
        // Completed families still carry provenance; quarantined ones don't.
        assert_eq!(swept.provenance.len(), n - 3, "threads={threads}");
        let injected = swept
            .quarantined
            .iter()
            .find(|q| q.index == 1)
            .expect("family 1 quarantined");
        match &injected.outcome {
            FamilyOutcome::Failed { reason } => {
                assert!(reason.contains("verify.abstract"), "{reason}")
            }
            other => panic!("expected injected failure, got {other}"),
        }
        assert!(
            matches!(
                swept.quarantined.iter().find(|q| q.index == 2).unwrap().outcome,
                FamilyOutcome::OverBudget { .. }
            ),
            "injected abstract-stage breach must route through the budget machinery"
        );
        let quarantined: Vec<String> = swept
            .quarantined
            .iter()
            .map(|q| format!("{}:{:?}:{}", q.index, q.prefixes, q.outcome))
            .collect();
        let reports: Vec<String> = swept.reports.iter().map(stable_view).collect();
        snapshots.push((threads, quarantined, reports, deltas));
    }
    fault::clear();
    let (_, q1, r1, d1) = &snapshots[0];
    for (threads, q, r, d) in &snapshots[1..] {
        assert_eq!(q, q1, "quarantined set differs at threads={threads}");
        assert_eq!(r, r1, "reports differ at threads={threads}");
        assert_eq!(d, d1, "counter deltas differ at threads={threads}");
    }
}

/// A family quarantined by an abstract-stage fault is retried by
/// `reverify` once the fault clears — on the exact path — and reproduces a
/// fresh sweep: the retried family byte for byte, and the reused families
/// (whose reports the abstract pass may have synthesized) by verdict.
#[test]
fn abstract_fault_reverify_retries_on_exact_path() {
    let _g = LOCK.lock().unwrap_or_else(|p| p.into_inner());
    let wan = WanSpec::tiny(9).build();
    let snap = ConfigSnapshot::new(wan.configs.clone());
    let delta = snap.diff(&snap);
    let opts = SweepOptions {
        modular: true,
        ..SweepOptions::default()
    };
    fault::install(FaultPlan::new().at("verify.abstract", &[1], FaultKind::Error));
    let v = Verifier::new(wan.configs.clone(), VsbProfile::ground_truth, Some(3)).unwrap();
    let n = v.families().len();
    let (base, cache) = v.verify_all_routes_cached_opts(K, 2, &opts).unwrap();
    fault::clear();
    assert_eq!(base.quarantined.len(), 1);
    assert_eq!(cache.len(), n - 1, "quarantined family must not be cached");
    let retried = base.quarantined[0].prefixes.clone();

    let v2 = Verifier::new(wan.configs.clone(), VsbProfile::ground_truth, Some(3)).unwrap();
    let outcome = v2.reverify(&delta, &cache, K, 2).unwrap();
    assert_eq!(outcome.recomputed, 1, "exactly the quarantined family");
    assert_eq!(outcome.reused, n - 1);
    assert!(outcome.quarantined.is_empty());

    let fresh = Verifier::new(wan.configs, VsbProfile::ground_truth, Some(3))
        .unwrap()
        .verify_all_routes(K, 2)
        .unwrap();
    assert_eq!(fresh.reports.len(), outcome.reports.len());
    for (f, o) in fresh.reports.iter().zip(&outcome.reports) {
        assert_eq!(f.prefix, o.prefix);
        if retried.contains(&f.prefix) {
            assert_eq!(
                stable_view(f),
                stable_view(o),
                "exact-path retry must reproduce the fresh sweep"
            );
        } else {
            assert_eq!(
                (&f.scope, &f.fragile),
                (&o.scope, &o.fragile),
                "reused family's verdict differs for {}",
                f.prefix
            );
        }
    }
    assert!(outcome.reports.iter().any(|r| retried.contains(&r.prefix)));
}

/// A modular `reverify` reports provenance for every family, by
/// classification index: the replayed families' from the cache and the
/// retried family's from this run — together equal to a fresh modular
/// sweep's.
#[test]
fn modular_reverify_provenance_matches_a_fresh_sweep() {
    let _g = LOCK.lock().unwrap_or_else(|p| p.into_inner());
    let wan = WanSpec::tiny(9).build();
    let snap = ConfigSnapshot::new(wan.configs.clone());
    let opts = SweepOptions {
        modular: true,
        ..SweepOptions::default()
    };
    fault::install(FaultPlan::new().at("verify.abstract", &[1], FaultKind::Error));
    let v = Verifier::new(wan.configs.clone(), VsbProfile::ground_truth, Some(3)).unwrap();
    let (base, cache) = v.verify_all_routes_cached_opts(K, 2, &opts).unwrap();
    fault::clear();
    assert_eq!(base.quarantined.len(), 1);
    let outcome = v.reverify_opts(&snap.diff(&snap), &cache, K, 2, &opts).unwrap();
    assert_eq!(outcome.recomputed, 1, "exactly the quarantined family");
    let fresh = v.verify_all_routes_opts(K, 2, &opts).unwrap();
    assert_eq!(fresh.provenance.len(), v.families().len());
    assert_eq!(outcome.provenance, fresh.provenance);
}

/// Regression: a family classified *clean* whose cache entry has drifted
/// away (snapshot truncation, a buggy eviction — simulated here by the
/// `verify.cache_lookup` fault site) used to panic the whole reverify with
/// "clean family must be cached". It must instead demote the family to
/// [`DirtyReason::NotCached`] and re-simulate it like any other dirty
/// family.
#[test]
fn clean_family_missing_from_cache_is_recomputed_not_a_panic() {
    let _g = LOCK.lock().unwrap_or_else(|p| p.into_inner());
    fault::clear();
    let wan = WanSpec::tiny(9).build();
    let snap = ConfigSnapshot::new(wan.configs.clone());
    let delta = snap.diff(&snap);
    assert!(delta.is_empty(), "empty delta: every family classifies clean");

    let v = Verifier::new(wan.configs.clone(), VsbProfile::ground_truth, Some(3)).unwrap();
    let n = v.families().len();
    let (base, cache) = v.verify_all_routes_cached(K, 2).unwrap();
    assert!(base.quarantined.is_empty());
    assert_eq!(cache.len(), n, "healthy baseline caches every family");

    // The cache lookup for clean family 1 comes back empty.
    fault::install(FaultPlan::new().at("verify.cache_lookup", &[1], FaultKind::Error));
    let v2 = Verifier::new(wan.configs.clone(), VsbProfile::ground_truth, Some(3)).unwrap();
    let outcome = v2.reverify(&delta, &cache, K, 2).unwrap();
    fault::clear();

    assert_eq!(outcome.recomputed, 1, "exactly the evicted family");
    assert_eq!(outcome.reused, n - 1);
    assert!(outcome.quarantined.is_empty());
    let demoted: Vec<_> = outcome
        .classifications
        .iter()
        .filter(|(_, reason)| *reason == Some(DirtyReason::NotCached))
        .collect();
    assert_eq!(demoted.len(), 1, "family 1 must be demoted to NotCached");
    // The recomputed family lands back in the refreshed cache…
    assert_eq!(outcome.cache.len(), n);
    // …and the merged reports match a fresh sweep exactly.
    let fresh = Verifier::new(wan.configs, VsbProfile::ground_truth, Some(3))
        .unwrap()
        .verify_all_routes(K, 2)
        .unwrap();
    let a: Vec<String> = fresh.reports.iter().map(stable_view).collect();
    let b: Vec<String> = outcome.reports.iter().map(stable_view).collect();
    assert_eq!(a, b, "drift recovery must reproduce the fresh sweep");
}

#[test]
fn unknown_devices_are_errors_not_panics() {
    let _g = LOCK.lock().unwrap_or_else(|p| p.into_inner());
    fault::clear();
    let wan = WanSpec::tiny(9).build();
    let prefix = wan.customer_prefixes[0];
    let v = Verifier::new(wan.configs, VsbProfile::ground_truth, Some(3)).unwrap();
    match v.route_reachability(prefix, "NO-SUCH-ROUTER", K) {
        Err(SimError::UnknownDevice(d)) => assert_eq!(d, "NO-SUCH-ROUTER"),
        other => panic!("expected UnknownDevice, got {other:?}"),
    }
    match v.router_failure_tolerance(prefix, "NO-SUCH-ROUTER") {
        Err(SimError::UnknownDevice(_)) => {}
        other => panic!("expected UnknownDevice, got {other:?}"),
    }
    match v.role_equivalence("NO-SUCH-ROUTER", "CR1x0") {
        Err(SimError::UnknownDevice(_)) => {}
        other => panic!("expected UnknownDevice, got {other:?}"),
    }
}

//! Determinism regression: `verify_all_routes` must produce an identical
//! report list regardless of how many worker threads process the prefix
//! families. The implementation guarantees this by publishing each family's
//! reports atomically and sorting the final list by prefix; this test pins
//! the guarantee on a seeded topogen WAN.

use hoyan::core::{FamilyOutcome, PrefixReport, StreamedFamily, SweepOptions, Verifier};
use hoyan::device::VsbProfile;
use hoyan::logic::BddOrdering;
use hoyan::topogen::WanSpec;

/// Everything in a [`PrefixReport`] except the wall-clock timings, which
/// legitimately vary run to run.
fn stable_view(r: &PrefixReport) -> impl PartialEq + std::fmt::Debug + '_ {
    (
        r.prefix,
        r.stats,
        r.max_cond_len,
        r.max_reach_formula_len,
        &r.scope,
        &r.fragile,
        r.family_head,
    )
}

fn assert_reports_equal(a: &[PrefixReport], b: &[PrefixReport], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: report counts differ");
    for (x, y) in a.iter().zip(b) {
        assert_eq!(stable_view(x), stable_view(y), "{what}: report for {} differs", x.prefix);
    }
}

#[test]
fn verify_all_routes_is_thread_count_invariant() {
    let wan = WanSpec::tiny(9).build();
    let verifier = Verifier::new(wan.configs, VsbProfile::ground_truth, Some(1)).unwrap();
    let serial = verifier.verify_all_routes(1, 1).unwrap().reports;
    assert!(!serial.is_empty(), "sweep must cover some prefixes");
    let parallel = verifier.verify_all_routes(1, 8).unwrap().reports;
    assert_reports_equal(&serial, &parallel, "threads=1 vs threads=8");
    // Oversubscription (more threads than families) must change nothing.
    let oversub = verifier.verify_all_routes(1, 64).unwrap().reports;
    assert_reports_equal(&serial, &oversub, "threads=1 vs threads=64");
}

/// Everything in a [`PrefixReport`] except timings *and* formula-size
/// fields. Sizes (`max_cond_len`, `max_reach_formula_len`,
/// `stats.max_formula_len`) legitimately depend on the variable ordering —
/// that is the point of reordering — but verdicts, scopes and pruning
/// *counts* are semantic and must not.
fn ordering_invariant_view(r: &PrefixReport) -> impl PartialEq + std::fmt::Debug + '_ {
    (
        r.prefix,
        (
            r.stats.delivered,
            r.stats.dropped_policy,
            r.stats.dropped_over_k,
            r.stats.dropped_impossible,
        ),
        &r.scope,
        &r.fragile,
        r.family_head,
    )
}

/// Sweeps under every [`BddOrdering`] × {1, 2, 8} threads: within an
/// ordering the full stable report (sizes included) is thread-count
/// invariant, and across orderings the size-masked report is identical.
#[test]
fn sweep_verdicts_are_ordering_and_thread_invariant() {
    let wan = WanSpec::tiny(13).build();
    let mut baseline: Option<Vec<PrefixReport>> = None;
    for ordering in BddOrdering::ALL {
        let verifier = Verifier::new_ordered(
            wan.configs.clone(),
            VsbProfile::ground_truth,
            Some(1),
            ordering,
        )
        .unwrap();
        let serial = verifier.verify_all_routes(1, 1).unwrap().reports;
        assert!(!serial.is_empty(), "{ordering}: sweep must cover some prefixes");
        for threads in [2usize, 8] {
            let parallel = verifier.verify_all_routes(1, threads).unwrap().reports;
            assert_reports_equal(
                &serial,
                &parallel,
                &format!("{ordering}: threads=1 vs threads={threads}"),
            );
        }
        match &baseline {
            None => baseline = Some(serial),
            Some(base) => {
                assert_eq!(base.len(), serial.len(), "{ordering}: report counts differ");
                for (x, y) in base.iter().zip(&serial) {
                    assert_eq!(
                        ordering_invariant_view(x),
                        ordering_invariant_view(y),
                        "{ordering}: verdicts for {} depend on the variable ordering",
                        x.prefix
                    );
                }
            }
        }
    }
}

/// `--modular` skips the exact stage for proved families, so the
/// formula-size/stat fields may legitimately differ — but the *verdicts*
/// (scope, fragile sets) must match the monolithic sweep, and the whole
/// report, quarantined set and provenance must be thread-count invariant.
#[test]
fn modular_full_verdicts_match_and_are_thread_invariant() {
    let wan = WanSpec::tiny(13).build();
    let verifier = Verifier::new(wan.configs, VsbProfile::ground_truth, Some(1)).unwrap();
    let monolithic = verifier.verify_all_routes(1, 1).unwrap();
    assert!(monolithic.provenance.is_empty(), "monolithic sweeps carry no provenance");
    let monolithic = monolithic.reports;
    let opts = SweepOptions {
        modular: true,
        ..SweepOptions::default()
    };
    let serial = verifier.verify_all_routes_opts(1, 1, &opts).unwrap();
    assert_eq!(monolithic.len(), serial.reports.len());
    for (m, f) in monolithic.iter().zip(&serial.reports) {
        assert_eq!(m.prefix, f.prefix);
        assert_eq!(m.scope, f.scope, "full-mode scope differs for {}", m.prefix);
        assert_eq!(m.fragile, f.fragile, "full-mode fragility differs for {}", m.prefix);
    }
    // At least part of this fixture must actually exercise the fast path,
    // otherwise the test proves nothing about synthesized reports.
    assert!(
        serial
            .provenance
            .iter()
            .any(|p| p.outcome == FamilyOutcome::ProvedAbstract),
        "no family was abstract-proved on the fixture"
    );
    // Provenance covers every completed family and is index-ordered.
    assert_eq!(serial.provenance.len(), verifier.families().len());
    assert!(serial.provenance.windows(2).all(|w| w[0].index < w[1].index));
    for threads in [2usize, 8] {
        let parallel = verifier.verify_all_routes_opts(1, threads, &opts).unwrap();
        assert_reports_equal(
            &serial.reports,
            &parallel.reports,
            &format!("modular full, threads=1 vs {threads}"),
        );
        assert_eq!(serial.quarantined, parallel.quarantined, "threads={threads}");
        assert_eq!(serial.provenance, parallel.provenance, "threads={threads}");
    }
}

/// A multi-region fixture big enough for the dependency planner to emit
/// several batches (same shape as the bench suites' quick fixture).
fn batchy_wan() -> hoyan::topogen::Wan {
    WanSpec {
        seed: 42,
        regions: 3,
        pes_per_region: 4,
        mans_per_region: 2,
        prefixes_per_pe: 2,
        extra_core_links: 2,
        block_prefixes: 1,
    }
    .build()
}

/// The cold oracle for the batched sweep: each family simulated alone by
/// [`Verifier::simulate`] on a fresh manager — no shared base, no warm
/// predecessor, no batch. Every report of a sweep at 1, 2 and 8 threads
/// must match it: scope, fragile set (`min_failures_to_falsify <= k`),
/// prune stats and peak condition size. Warm chaining and whole-batch
/// stealing may change the work, never the answer.
#[test]
fn sweep_matches_cold_oracle_at_any_thread_count() {
    const K: u32 = 1;
    let wan = batchy_wan();
    let verifier = Verifier::new(wan.configs, VsbProfile::ground_truth, Some(1)).unwrap();
    let mut oracle = Vec::new();
    for fam in verifier.families() {
        let mut sim = verifier.simulate(fam[0], Some(K)).unwrap();
        for &p in &fam {
            let (mut scope, mut fragile) = (Vec::new(), Vec::new());
            for n in verifier.net.topology.nodes() {
                let v = sim.reach_cond(n, p);
                if !sim.mgr.eval(v, &[]) {
                    continue;
                }
                scope.push(n);
                if sim.mgr.min_failures_to_falsify(v) <= K {
                    fragile.push(n);
                }
            }
            oracle.push((p, scope, fragile, sim.stats, sim.max_cond_size));
        }
    }
    oracle.sort_by_key(|o| o.0);
    assert!(oracle.iter().any(|o| !o.2.is_empty()), "fixture must have fragile prefixes");
    for threads in [1usize, 2, 8] {
        let swept = verifier.verify_all_routes(K, threads).unwrap();
        assert!(swept.quarantined.is_empty(), "threads={threads}");
        assert_eq!(swept.reports.len(), oracle.len(), "threads={threads}");
        for (r, want) in swept.reports.iter().zip(&oracle) {
            let got = (r.prefix, r.scope.clone(), r.fragile.clone(), r.stats, r.max_cond_len);
            assert_eq!(&got, want, "threads={threads}: report for {} differs", r.prefix);
        }
    }
}

/// The streaming sink must see exactly the families the materialized sweep
/// reports — same verdicts, every family index exactly once — at 1, 2 and
/// 8 threads.
#[test]
fn streaming_sweep_matches_materialized() {
    let wan = batchy_wan();
    let verifier = Verifier::new(wan.configs, VsbProfile::ground_truth, Some(1)).unwrap();
    let materialized = verifier.verify_all_routes(1, 2).unwrap();
    let opts = SweepOptions::default();
    for threads in [1usize, 2, 8] {
        let mut reports: Vec<PrefixReport> = Vec::new();
        let mut indices: Vec<usize> = Vec::new();
        let mut quarantined = 0usize;
        let summary = verifier
            .verify_all_routes_streaming(1, threads, &opts, &mut |item| match item {
                StreamedFamily::Done { index, reports: r, .. } => {
                    indices.push(index);
                    reports.extend(r);
                }
                StreamedFamily::Quarantined(_) => quarantined += 1,
            })
            .unwrap();
        assert_eq!(summary.families, verifier.families().len());
        assert_eq!(summary.prefixes, materialized.reports.len());
        assert_eq!(summary.quarantined, 0);
        assert_eq!(quarantined, 0);
        // Every family streamed exactly once.
        indices.sort_unstable();
        assert_eq!(indices, (0..verifier.families().len()).collect::<Vec<_>>());
        // Arrival order is scheduling-dependent; the *set* of reports is not.
        reports.sort_by_key(|r| r.prefix);
        assert_reports_equal(
            &materialized.reports,
            &reports,
            &format!("streaming vs materialized (threads={threads})"),
        );
    }
}

#[test]
fn repeated_parallel_sweeps_agree() {
    let wan = WanSpec::tiny(21).build();
    let verifier = Verifier::new(wan.configs, VsbProfile::ground_truth, Some(1)).unwrap();
    let a = verifier.verify_all_routes(1, 4).unwrap().reports;
    let b = verifier.verify_all_routes(1, 4).unwrap().reports;
    assert_reports_equal(&a, &b, "back-to-back parallel sweeps");
}

//! Integration tests for the persistent cross-process model cache.
//!
//! The store promises:
//!
//! 1. **Round-trip fidelity** — an [`Analyzer`]/`ParametricAnalyzer` restored
//!    via `from_bytes` answers every measure bit-identically to the freshly
//!    built session, on the paper's CAS and CPS case studies included;
//! 2. **Robustness** — truncated files, flipped payload bytes, stale format
//!    versions and foreign fingerprints are *rejected* (counted in
//!    [`StoreStats::rejected`]) and fall back to a clean rebuild, never a
//!    panic and never a wrong answer;
//! 3. **Warm restarts** — a second service over the same store directory
//!    loads instead of building: `store_hits > 0`, zero aggregation runs,
//!    results bit-identical;
//! 4. **Atomic publication** — concurrent services sharing one directory
//!    never observe a half-written entry;
//! 5. **Typed errors only on the explicit API** — the service path degrades
//!    silently; [`Error::Store`] is reserved for `ModelStore`/`from_bytes`
//!    calls.

mod common;

use common::{job_report, job_request, sweep_report, sweep_request};
use dftmc::dft::{Dft, DftBuilder, Dormancy};
use dftmc::dft_core::casestudies::{cas, cps, DEFAULT_MISSION_TIMES};
use dftmc::dft_core::engine::{Analyzer, ParametricAnalyzer};
use dftmc::dft_core::service::{AnalysisService, ServiceOptions};
use dftmc::dft_core::store::ModelStore;
use dftmc::dft_core::{AnalysisOptions, Error, Measure, MeasureResult, SweepSpec};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

/// A unique, self-cleaning store directory per test.
struct TempStore {
    dir: PathBuf,
}

impl TempStore {
    fn new(label: &str) -> TempStore {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "dftmc-store-test-{label}-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).expect("create temp store dir");
        TempStore { dir }
    }

    fn path(&self) -> &PathBuf {
        &self.dir
    }

    /// The store entries currently on disk (no temporary files counted).
    fn entries(&self) -> Vec<PathBuf> {
        let mut entries: Vec<PathBuf> = std::fs::read_dir(&self.dir)
            .expect("list store dir")
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|ext| ext == "dftm"))
            .collect();
        entries.sort();
        entries
    }
}

impl Drop for TempStore {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

fn bits_of(result: &MeasureResult) -> Vec<(Option<u64>, u64, u64, u64)> {
    result
        .points()
        .iter()
        .map(|p| {
            (
                p.time().map(f64::to_bits),
                p.value().to_bits(),
                p.bounds().0.to_bits(),
                p.bounds().1.to_bits(),
            )
        })
        .collect()
}

fn spare_tree(prefix: &str, rate: f64) -> Dft {
    let mut b = DftBuilder::new();
    let p = b
        .basic_event(&format!("{prefix}_P"), rate, Dormancy::Hot)
        .unwrap();
    let s = b
        .basic_event(&format!("{prefix}_S"), rate, Dormancy::Cold)
        .unwrap();
    let top = b.spare_gate(&format!("{prefix}_Top"), &[p, s]).unwrap();
    b.build(top).unwrap()
}

/// Acceptance criterion: restored sessions are bit-identical to freshly built
/// ones on both of the paper's case studies.
#[test]
fn cas_and_cps_round_trip_bit_identically() {
    let measures = [
        Measure::curve(DEFAULT_MISSION_TIMES),
        Measure::Unreliability(1.0),
    ];
    for dft in [cas(), cps()] {
        let built = Analyzer::new(&dft, AnalysisOptions::default()).unwrap();
        let restored = Analyzer::from_bytes(&built.to_bytes()).unwrap();
        assert_eq!(restored.aggregation_runs(), 0);
        assert_eq!(restored.model_stats(), built.model_stats());
        for measure in &measures {
            let a = built.query(measure).unwrap();
            let b = restored.query(measure).unwrap();
            assert_eq!(bits_of(&a), bits_of(&b), "restored session must match");
        }
    }
}

/// The parametric twin of the criterion: the CAS quotient restored from bytes
/// instantiates every valuation bit-identically.
#[test]
fn parametric_cas_round_trips_bit_identically() {
    let built = ParametricAnalyzer::new(&cas(), AnalysisOptions::default()).unwrap();
    let restored = ParametricAnalyzer::from_bytes(&built.to_bytes()).unwrap();
    assert_eq!(restored.aggregation_runs(), 0);
    assert_eq!(restored.params(), built.params());
    for scale in [1.0, 1.35] {
        let valuation = built.params().scaled_valuation(scale);
        let a = built.instantiate(&valuation).unwrap();
        let b = restored.instantiate(&valuation).unwrap();
        let qa = a.query(Measure::curve(DEFAULT_MISSION_TIMES)).unwrap();
        let qb = b.query(Measure::curve(DEFAULT_MISSION_TIMES)).unwrap();
        assert_eq!(bits_of(&qa), bits_of(&qb));
    }
}

#[test]
fn warm_service_loads_instead_of_building() {
    let temp = TempStore::new("warm");
    let options = AnalysisOptions::default();
    let job = || {
        job_request(
            spare_tree("st_warm", 1.0),
            AnalysisOptions::default(),
            vec![Measure::curve([0.5, 1.0]), Measure::Mttf],
        )
    };

    // Cold service: builds, writes back.
    let cold = AnalysisService::new(
        ServiceOptions {
            workers: 1,
            cache_capacity: 8,
            ..ServiceOptions::default()
        }
        .store(temp.path()),
    );
    let cold_report = job_report(cold.run_request(job()));
    let cold_results = cold_report.results.as_ref().unwrap().clone();
    assert_eq!(cold_report.aggregation_runs, 1);
    let stats = cold.store_stats().expect("store configured");
    assert_eq!(stats.writes, 1);
    assert_eq!(stats.hits, 0);
    drop(cold);
    assert_eq!(
        temp.entries().len(),
        1,
        "one published entry, no temp files"
    );

    // Warm service, fresh process-level cache: loads, aggregates nothing.
    let warm = AnalysisService::new(
        ServiceOptions {
            workers: 1,
            cache_capacity: 8,
            ..ServiceOptions::default()
        }
        .store(temp.path()),
    );
    let warm_report = job_report(warm.run_request(job()));
    assert_eq!(
        warm_report.aggregation_runs, 0,
        "a warm store replaces the aggregation with a disk read"
    );
    let stats = warm.store_stats().unwrap();
    assert_eq!(stats.hits, 1);
    assert_eq!(stats.rejected, 0);
    assert_eq!(
        bits_of(&warm_report.results.as_ref().unwrap()[0]),
        bits_of(&cold_results[0]),
        "loaded model answers bit-identically"
    );
    // The session-level view agrees: still one in-memory miss (the slot was
    // cold), but zero pipeline runs.
    assert_eq!(warm.cache_stats().misses, 1);

    // Direct `analyzer()` calls share the same store-backed path.
    let direct = warm
        .analyzer(&spare_tree("st_warm_other_name", 1.0), &options)
        .unwrap();
    assert_eq!(direct.aggregation_runs(), 0, "same fingerprint, same entry");
}

#[test]
fn warm_sweeps_skip_the_parametric_aggregation() {
    let temp = TempStore::new("sweep");
    let dft = spare_tree("st_sweep", 1.0);
    let valuations: Vec<_> = {
        let parametric = ParametricAnalyzer::new(&dft, AnalysisOptions::default()).unwrap();
        (1..=3)
            .map(|i| parametric.params().scaled_valuation(i as f64))
            .collect()
    };
    let sweep = sweep_request(
        dft,
        AnalysisOptions::default(),
        vec![Measure::Unreliability(1.0)],
        SweepSpec::Valuations(valuations),
    );

    let service_options = || {
        ServiceOptions {
            workers: 1,
            cache_capacity: 8,
            ..ServiceOptions::default()
        }
        .store(temp.path())
    };
    let cold = AnalysisService::new(service_options());
    let cold_report = sweep_report(cold.run_request(sweep.clone()));
    assert_eq!(cold_report.stats.aggregation_runs, 1);
    let cold_values: Vec<Vec<_>> = cold_report
        .points
        .iter()
        .map(|p| bits_of(&p.results.as_ref().unwrap()[0]))
        .collect();
    drop(cold);

    let warm = AnalysisService::new(service_options());
    let warm_report = sweep_report(warm.run_request(sweep));
    assert_eq!(
        warm_report.stats.aggregation_runs, 0,
        "the parametric model came off disk"
    );
    assert!(!warm_report.stats.parametric_cache_hit);
    assert!(warm.store_stats().unwrap().hits >= 1);
    let warm_values: Vec<Vec<_>> = warm_report
        .points
        .iter()
        .map(|p| bits_of(&p.results.as_ref().unwrap()[0]))
        .collect();
    assert_eq!(warm_values, cold_values);
}

/// Write-back happens inside the build slot, before the report reaches the
/// handle — so even a service dropped immediately after submission leaves a
/// complete store behind for the next process.
#[test]
fn drop_drain_persists_built_models() {
    let temp = TempStore::new("drain");
    let service = AnalysisService::new(
        ServiceOptions {
            workers: 1,
            cache_capacity: 8,
            ..ServiceOptions::default()
        }
        .store(temp.path()),
    );
    let handle = service.submit_request(job_request(
        spare_tree("st_drain", 1.0),
        AnalysisOptions::default(),
        vec![Measure::Unreliability(1.0)],
    ));
    drop(service); // drains the queue, then joins the pool
    assert!(job_report(handle.wait()).results.is_ok());
    assert_eq!(temp.entries().len(), 1, "the drained job was written back");

    let warm = AnalysisService::new(
        ServiceOptions {
            workers: 1,
            cache_capacity: 8,
            ..ServiceOptions::default()
        }
        .store(temp.path()),
    );
    let report = job_report(warm.run_request(job_request(
        spare_tree("st_drain", 1.0),
        AnalysisOptions::default(),
        vec![Measure::Unreliability(1.0)],
    )));
    assert_eq!(report.aggregation_runs, 0);
}

/// Every corruption mode must fall back to a clean rebuild: no panic, the
/// rejection counted, the job still answered correctly, and the rebuilt entry
/// republished over the bad one.
#[test]
fn corrupt_entries_are_rejected_and_rebuilt() {
    type Corruption = fn(Vec<u8>) -> Vec<u8>;
    let corruptions: [(&str, Corruption); 4] = [
        ("truncated", |bytes| {
            let keep = bytes.len() / 2;
            bytes[..keep].to_vec()
        }),
        ("flipped payload byte", |mut bytes| {
            let last = bytes.len() - 1;
            bytes[last] ^= 0x01;
            bytes
        }),
        ("wrong format version", |mut bytes| {
            bytes[4] = bytes[4].wrapping_add(1);
            bytes
        }),
        ("empty file", |_| Vec::new()),
    ];

    for (label, corrupt) in corruptions {
        let temp = TempStore::new("corrupt");
        let job = || {
            job_request(
                spare_tree("st_corrupt", 1.0),
                AnalysisOptions::default(),
                vec![Measure::Unreliability(1.0)],
            )
        };
        let service_options = || {
            ServiceOptions {
                workers: 1,
                cache_capacity: 8,
                ..ServiceOptions::default()
            }
            .store(temp.path())
        };

        let reference = {
            let cold = AnalysisService::new(service_options());
            let report = job_report(cold.run_request(job()));
            bits_of(&report.results.as_ref().unwrap()[0])
        };
        let entries = temp.entries();
        assert_eq!(entries.len(), 1);
        let bytes = std::fs::read(&entries[0]).unwrap();
        std::fs::write(&entries[0], corrupt(bytes)).unwrap();

        let recovering = AnalysisService::new(service_options());
        let report = job_report(recovering.run_request(job()));
        let stats = recovering.store_stats().unwrap();
        assert_eq!(stats.rejected, 1, "{label}: the bad entry must be refused");
        assert_eq!(
            report.aggregation_runs, 1,
            "{label}: refusal falls back to a rebuild"
        );
        assert_eq!(
            bits_of(&report.results.as_ref().unwrap()[0]),
            reference,
            "{label}: the rebuilt model answers identically"
        );
        assert_eq!(stats.writes, 1, "{label}: the entry was republished");
    }
}

/// A crown over two hot events and a dynamic core whose events come later
/// in element order, so the core's slots are not the first ones of the
/// session's table.
fn mixed_tree(prefix: &str) -> Dft {
    let mut b = DftBuilder::new();
    let x = b
        .basic_event(&format!("{prefix}_X"), 0.3, Dormancy::Hot)
        .unwrap();
    let y = b
        .basic_event(&format!("{prefix}_Y"), 0.4, Dormancy::Hot)
        .unwrap();
    let crown = b.and_gate(&format!("{prefix}_Crown"), &[x, y]).unwrap();
    let d1 = b
        .basic_event(&format!("{prefix}_D1"), 1.0, Dormancy::Hot)
        .unwrap();
    let d2 = b
        .basic_event(&format!("{prefix}_D2"), 2.0, Dormancy::Hot)
        .unwrap();
    let core = b.pand_gate(&format!("{prefix}_Core"), &[d1, d2]).unwrap();
    let top = b.or_gate(&format!("{prefix}_Top"), &[crown, core]).unwrap();
    b.build(top).unwrap()
}

/// Entries written before hybrid cores became bare compositional bodies
/// carry format version 2: the service refuses both hybrid entries (numeric
/// and parametric), counts the refusals, rebuilds and republishes them
/// under the current version.
#[test]
fn version_2_hybrid_entries_are_rejected_and_rebuilt() {
    let temp = TempStore::new("v2");
    let options = AnalysisOptions {
        method: dftmc::dft_core::Method::Hybrid,
        ..AnalysisOptions::default()
    };
    let dft = mixed_tree("st_v2");
    let valuations = {
        let parametric = ParametricAnalyzer::new(&dft, options.clone()).unwrap();
        assert!(
            parametric.module_stats().is_some(),
            "a genuine decomposition"
        );
        vec![
            parametric.base_valuation(),
            parametric.params().scaled_valuation(0.5),
        ]
    };
    let measures = vec![Measure::curve([0.5, 1.0]), Measure::Unreliability(2.0)];
    let job = || job_request(dft.clone(), options.clone(), measures.clone());
    let sweep = || {
        sweep_request(
            dft.clone(),
            options.clone(),
            measures.clone(),
            SweepSpec::Valuations(valuations.clone()),
        )
    };
    let service_options = || {
        ServiceOptions {
            workers: 1,
            cache_capacity: 8,
            ..ServiceOptions::default()
        }
        .store(temp.path())
    };
    let run = |service: &AnalysisService| {
        let job = job_report(service.run_request(job()));
        let sweep = sweep_report(service.run_request(sweep()));
        let mut bits: Vec<_> = job.results.unwrap().iter().map(bits_of).collect();
        for point in &sweep.points {
            bits.extend(point.results.as_ref().unwrap().iter().map(bits_of));
        }
        (job.aggregation_runs, sweep.stats.aggregation_runs, bits)
    };

    let (job_runs, sweep_runs, reference) = run(&AnalysisService::new(service_options()));
    assert_eq!((job_runs, sweep_runs), (1, 1), "one core each");
    let entries = temp.entries();
    assert_eq!(entries.len(), 2);
    let version = |path: &PathBuf| {
        let bytes = std::fs::read(path).unwrap();
        u32::from_le_bytes(bytes[4..8].try_into().unwrap())
    };
    for entry in &entries {
        assert_eq!(version(entry), 3);
        let mut bytes = std::fs::read(entry).unwrap();
        bytes[4..8].copy_from_slice(&2u32.to_le_bytes());
        std::fs::write(entry, bytes).unwrap();
    }

    let recovering = AnalysisService::new(service_options());
    assert_eq!(run(&recovering), (1, 1, reference.clone()), "rebuilt");
    let stats = recovering.store_stats().unwrap();
    assert_eq!((stats.rejected, stats.hits, stats.writes), (2, 0, 2));
    for entry in &entries {
        assert_eq!(version(entry), 3, "republished under the current version");
    }

    let warm = AnalysisService::new(service_options());
    assert_eq!(run(&warm), (0, 0, reference), "loaded, not rebuilt");
    let stats = warm.store_stats().unwrap();
    assert_eq!((stats.rejected, stats.hits), (0, 2));
}

/// A fingerprint mismatch (an entry renamed onto another key's path — e.g. a
/// mis-synced fleet directory) is detected by the frame, not trusted from the
/// file name.
#[test]
fn foreign_fingerprints_are_rejected() {
    let temp = TempStore::new("foreign");
    let store = ModelStore::open(temp.path()).unwrap();
    let options = AnalysisOptions::default();

    let original = spare_tree("st_foreign_a", 1.0);
    let analyzer = Analyzer::new(&original, options.clone()).unwrap();
    store
        .save_analyzer(original.fingerprint(), &analyzer)
        .unwrap();

    // Rename the entry onto the path of a structurally different tree.
    let other = spare_tree("st_foreign_b", 2.0);
    assert_ne!(original.fingerprint(), other.fingerprint());
    let entries = temp.entries();
    assert_eq!(entries.len(), 1);
    let hijacked = entries[0].to_str().unwrap().replace(
        &format!("{:016x}", original.fingerprint()),
        &format!("{:016x}", other.fingerprint()),
    );
    std::fs::rename(&entries[0], &hijacked).unwrap();

    assert!(
        store.load_analyzer(other.fingerprint(), &options).is_none(),
        "the frame's fingerprint must override the file name"
    );
    let stats = store.stats();
    assert_eq!(stats.rejected, 1);
    assert_eq!(stats.hits, 0);
    // The original key simply misses (its entry is gone), without a rejection.
    assert!(store
        .load_analyzer(original.fingerprint(), &options)
        .is_none());
    assert_eq!(store.stats().rejected, 1);
}

/// A method mismatch (a compositional entry renamed onto the monolithic
/// path) is one rejection, not a phantom hit: `hits + misses` must stay equal
/// to the number of load attempts.
#[test]
fn method_mismatches_count_as_one_rejection_not_a_hit() {
    let temp = TempStore::new("method");
    let store = ModelStore::open(temp.path()).unwrap();
    let dft = spare_tree("st_method", 1.0);
    let compositional = AnalysisOptions::default();
    let analyzer = Analyzer::new(&dft, compositional.clone()).unwrap();
    store.save_analyzer(dft.fingerprint(), &analyzer).unwrap();

    let entries = temp.entries();
    assert_eq!(entries.len(), 1);
    let name = entries[0].file_name().unwrap().to_str().unwrap();
    assert!(
        name.starts_with("sc-"),
        "compositional session entry: {name}"
    );
    let monolithic_path = entries[0].with_file_name(name.replacen("sc-", "sm-", 1));
    std::fs::rename(&entries[0], &monolithic_path).unwrap();

    let monolithic = AnalysisOptions {
        method: dftmc::dft_core::Method::Monolithic,
        ..AnalysisOptions::default()
    };
    assert!(store
        .load_analyzer(dft.fingerprint(), &monolithic)
        .is_none());
    let stats = store.stats();
    assert_eq!(stats.hits, 0, "a refused load is never a hit");
    assert_eq!(stats.rejected, 1);
    assert_eq!(stats.misses, 1, "one attempt, one miss");
}

/// Concurrent services (standing in for a fleet of server processes) sharing
/// one directory: atomic rename publication means nobody ever reads a torn
/// entry — every rejection counter stays at zero and every result is correct.
#[test]
fn concurrent_services_never_read_half_written_entries() {
    let temp = TempStore::new("race");
    let expected = {
        let analyzer =
            Analyzer::new(&spare_tree("st_race", 1.0), AnalysisOptions::default()).unwrap();
        bits_of(&analyzer.query(Measure::Unreliability(1.0)).unwrap())
    };

    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let dir = temp.path().clone();
                let expected = expected.clone();
                scope.spawn(move || {
                    let service = AnalysisService::new(
                        ServiceOptions {
                            workers: 2,
                            cache_capacity: 8,
                            ..ServiceOptions::default()
                        }
                        .store(dir),
                    );
                    for round in 0..3 {
                        let report = job_report(service.run_request(job_request(
                            spare_tree("st_race", 1.0),
                            AnalysisOptions::default(),
                            vec![Measure::Unreliability(1.0)],
                        )));
                        assert_eq!(
                            bits_of(&report.results.as_ref().unwrap()[0]),
                            expected,
                            "round {round}: shared-store result diverged"
                        );
                    }
                    service.store_stats().unwrap()
                })
            })
            .collect();
        for handle in handles {
            let stats = handle.join().unwrap();
            assert_eq!(
                stats.rejected, 0,
                "a torn or partial entry was observed — atomic rename failed"
            );
        }
    });
    // Concurrent writers raced on the same key; exactly one entry survives.
    assert_eq!(temp.entries().len(), 1);
}

/// The explicit API carries typed failures; the service path never does.
#[test]
fn store_errors_are_typed_and_scoped_to_the_explicit_api() {
    // A path that cannot be a directory (its parent is a regular file).
    let temp = TempStore::new("typed");
    let blocker = temp.path().join("not-a-dir");
    std::fs::write(&blocker, b"file").unwrap();
    let unusable = blocker.join("store");

    match ModelStore::open(&unusable) {
        Err(Error::Store { message }) => {
            assert!(message.contains("store"), "actionable message: {message}")
        }
        other => panic!("expected Error::Store, got {other:?}"),
    }

    // The service with the same unusable path degrades to in-memory caching:
    // jobs succeed, store_stats reports no store.
    let service = AnalysisService::new(
        ServiceOptions {
            workers: 1,
            cache_capacity: 8,
            ..ServiceOptions::default()
        }
        .store(&unusable),
    );
    assert!(service.store_stats().is_none());
    let report = job_report(service.run_request(job_request(
        spare_tree("st_typed", 1.0),
        AnalysisOptions::default(),
        vec![Measure::Unreliability(1.0)],
    )));
    assert!(report.results.is_ok());

    // from_bytes on garbage: typed, never a panic.
    match Analyzer::from_bytes(b"garbage") {
        Err(Error::Store { .. }) => {}
        other => panic!("expected Error::Store, got {other:?}"),
    }
}

//! Property tests of the cloud simulator.

use disar_cloudsim::{CloudProvider, InstanceCatalog, Workload};
use disar_math::check::cases;
use disar_math::rng::Xoshiro256PlusPlus;

fn provider() -> CloudProvider {
    CloudProvider::new(InstanceCatalog::paper_catalog(), 0)
}

fn any_instance(rng: &mut Xoshiro256PlusPlus) -> &'static str {
    const NAMES: [&str; 6] = [
        "m4.4xlarge",
        "m4.10xlarge",
        "c3.4xlarge",
        "c3.8xlarge",
        "c4.4xlarge",
        "c4.8xlarge",
    ];
    NAMES[rng.gen_range(0..NAMES.len())]
}

/// More work never runs faster (same instance, nodes, noise seed).
#[test]
fn duration_monotone_in_work() {
    cases(64, |rng| {
        let instance = any_instance(rng);
        let (work, extra) = (rng.gen_range(100.0..1e5), rng.gen_range(1.0..1e5));
        let (n, seed) = (rng.gen_range(1usize..12), rng.gen_range(0u64..200));
        let p = provider();
        let small = Workload::new(work, 4.0, 50.0, 0.05).expect("valid");
        let big = Workload::new(work + extra, 4.0, 50.0, 0.05).expect("valid");
        let r_small = p.run_job_with_seed(instance, n, &small, seed).expect("ok");
        let r_big = p.run_job_with_seed(instance, n, &big, seed).expect("ok");
        assert!(r_big.duration_secs >= r_small.duration_secs);
    });
}

/// The compute phase shrinks (weakly) when nodes are added at a fixed noise
/// seed; total cost is positive either way.
#[test]
fn compute_phase_shrinks_with_nodes() {
    cases(64, |rng| {
        let (instance, work) = (any_instance(rng), rng.gen_range(1000.0..1e5));
        let (n, seed) = (rng.gen_range(1usize..8), rng.gen_range(0u64..200));
        let p = provider();
        let wl = Workload::new(work, 4.0, 50.0, 0.05).expect("valid");
        let r1 = p.run_job_with_seed(instance, n, &wl, seed).expect("ok");
        let r2 = p.run_job_with_seed(instance, n * 2, &wl, seed).expect("ok");
        // Per-node share halves; noise can only wiggle so much (σ = 4 %, a
        // 1.5x straggler can flip extreme cases — allow 60 % headroom).
        assert!(
            r2.compute_secs <= r1.compute_secs * 1.6,
            "n={n}: {} -> {}",
            r1.compute_secs,
            r2.compute_secs
        );
        assert!(r1.billed_cost > 0.0 && r2.billed_cost > 0.0);
    });
}

/// The billing identity: billed cost is the per-hour ceiling formula.
#[test]
fn billed_cost_identity() {
    cases(64, |rng| {
        let (instance, work) = (any_instance(rng), rng.gen_range(100.0..5e4));
        let (n, seed) = (rng.gen_range(1usize..10), rng.gen_range(0u64..200));
        let p = provider();
        let wl = Workload::new(work, 2.0, 10.0, 0.02).expect("valid");
        let r = p.run_job_with_seed(instance, n, &wl, seed).expect("ok");
        let rate = p.catalog().get(instance).expect("known").hourly_cost;
        let expect = (r.uptime_secs / 3600.0).ceil().max(1.0) * rate * n as f64;
        assert!((r.billed_cost - expect).abs() < 1e-9);
        let pro = r.uptime_secs / 3600.0 * rate * n as f64;
        assert!((r.prorated_cost - pro).abs() < 1e-9);
    });
}

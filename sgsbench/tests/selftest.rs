//! Toy-scale self-test of the benchmark: checks pass on healthy runs,
//! forced sheds and timeouts count as failures, and every metric named in
//! `BENCHMARK.json` is reported with its unit.
//!
//! Serving faults are process-global, so every test holds a fault guard
//! (`install` serializes holders), with an empty plan when it wants none.

use aqp_obs::json::{self, Value};
use aqp_serving::fault::{install, ServingFault};
use aqp_serving::{AdmissionConfig, ClassLimits, ServerConfig};
use sgsbench::{run, Options, Report, Scale, Workload};
use std::path::{Path, PathBuf};

fn options(workload: Workload, trace: bool, server: ServerConfig, name: &str) -> Options {
    Options {
        workload,
        seed: 7,
        seconds: 2.0,
        trace,
        scale: Scale::toy(),
        server,
        work_dir: PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name),
    }
}

fn metric(report: &Report, name: &str) -> f64 {
    report
        .metrics
        .iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("{name} not reported"))
        .value
}

/// `(name, unit)` of every metric in one list of `BENCHMARK.json`.
fn declared(list: &str) -> Vec<(String, String)> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json beside the benchmark");
    let doc = json::parse(&text).expect("BENCHMARK.json parses");
    doc.get(list)
        .and_then(Value::as_arr)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .and_then(Value::as_str)
                    .expect("name and unit")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

fn reported(report: &Report) -> Vec<(String, String)> {
    report
        .metrics
        .iter()
        .map(|m| (m.name.to_string(), m.unit.to_string()))
        .collect()
}

#[test]
fn healthy_runs_pass_every_check_and_report_every_metric() {
    let _faults = install(Vec::new());
    for workload in Workload::ALL {
        let name = format!("healthy-{}", workload.name());
        let plain = run(&options(workload, false, ServerConfig::default(), &name)).unwrap();
        assert!(plain.correct, "{}: {:?}", workload.name(), plain.failures);
        assert_eq!(plain.failed, 0);
        assert!(plain.attempted > 0);
        assert_eq!(
            reported(&plain),
            declared("end_to_end"),
            "{}",
            workload.name()
        );
        assert_eq!(metric(&plain, "success_frac"), 1.0);

        let traced = run(&options(workload, true, ServerConfig::default(), &name)).unwrap();
        assert!(traced.correct, "{}: {:?}", workload.name(), traced.failures);
        assert_eq!(
            reported(&traced),
            declared("per_layer"),
            "{}",
            workload.name()
        );
        let spans = std::fs::read_to_string(
            PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
                .join(&name)
                .join(format!("spans-{}.jsonl", workload.name())),
        )
        .unwrap();
        for span in [
            "request",
            "send",
            "wait",
            "decode",
            "parse",
            "cache_key",
            "answer",
            "encode",
        ] {
            assert!(
                spans.contains(&format!("\"span\":\"{span}\"")),
                "{span} span missing"
            );
        }
    }
}

#[test]
fn forced_timeout_counts_as_failed_and_misses_the_slo() {
    // The same plan as `AQP_FAULTS=exec-stall@3`: the fourth execution
    // stalls past the client's one-second limit.
    let _faults = install(vec![ServingFault::ExecStall { nth: 3 }]);
    let report = run(&options(
        Workload::SgsPaper,
        false,
        ServerConfig::default(),
        "timeout",
    ))
    .unwrap();
    assert!(!report.correct);
    assert!(report.failed >= 1, "{report:?}");
    assert!(metric(&report, "success_frac") < 1.0);
    assert!(metric(&report, "slo_attainment") < 1.0);
    assert!(
        report.provenance.contains("\"timed_out\":1"),
        "{}",
        report.provenance
    );
}

#[test]
fn forced_shed_counts_as_failed_and_misses_the_slo() {
    let caps = ClassLimits {
        max_inflight: 1,
        max_queue: 0,
    };
    let server = ServerConfig {
        admission: AdmissionConfig {
            interactive: caps,
            batch: caps,
        },
        ..ServerConfig::default()
    };
    for trace in [false, true] {
        // One execution slot and no queue: while the third execution
        // stalls in the slot, the other connection's requests are shed.
        let _faults = install(vec![ServingFault::ExecStall { nth: 2 }]);
        let report = run(&options(Workload::SgsPaper, trace, server.clone(), "shed")).unwrap();
        assert!(!report.correct);
        assert!(report.failed >= 1, "{report:?}");
        assert!(
            !report.provenance.contains("\"shed\":0,"),
            "{}",
            report.provenance
        );
        if trace {
            assert!(metric(&report, "serving.shed_frac") > 0.0);
            assert!(metric(&report, "bench.failed_frac") > 0.0);
        } else {
            assert!(metric(&report, "success_frac") < 1.0);
            assert!(metric(&report, "slo_attainment") < 1.0);
        }
    }
}

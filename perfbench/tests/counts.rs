//! The counts the benchmark reports as counts must repeat: two runs of one
//! seed, each in a fresh process, print the same probe.
//!
//! Every count repeats exactly except allocator calls. The program keeps
//! `HashMap`s and `HashSet`s with the default random hasher and removes
//! entries from them (nonce windows, sessions, caches); where a removal
//! leaves a tombstone depends on the hash values, so when a table regrows
//! differs by a call or two from run to run. Allocation counts are held to
//! one part in a thousand instead.

use std::collections::BTreeMap;
use std::process::Command;

/// Keys whose values are allocator-call rates.
const ALLOC_KEYS: [&str; 2] = ["alloc.per_auth", "alloc.per_event"];
const ALLOC_TOLERANCE: f64 = 1e-3;

/// The flat `"key": value` pairs of one result line.
fn fields(line: &str) -> BTreeMap<String, String> {
    let body = line.trim().trim_start_matches('{').trim_end_matches('}');
    body.split(", \"")
        .filter_map(|pair| {
            let (k, v) = pair.split_once("\": ")?;
            Some((k.trim_matches('"').to_string(), v.to_string()))
        })
        .collect()
}

fn assert_repeat(workload: &str, params: &[(&str, &str)]) {
    let first = fields(&counts(workload, params));
    let second = fields(&counts(workload, params));
    assert_eq!(
        first.keys().collect::<Vec<_>>(),
        second.keys().collect::<Vec<_>>(),
        "{workload}: the probes report different keys"
    );
    for (key, a) in &first {
        let b = &second[key];
        if ALLOC_KEYS.contains(&key.as_str()) {
            let (a, b): (f64, f64) = (a.parse().expect("number"), b.parse().expect("number"));
            assert!(
                (a - b).abs() <= ALLOC_TOLERANCE * a.abs().max(b.abs()),
                "{workload}: {key} {a} vs {b}"
            );
        } else {
            assert_eq!(a, b, "{workload}: {key} differs between runs");
        }
    }
}

fn counts(workload: &str, params: &[(&str, &str)]) -> String {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_perfbench"));
    cmd.args([
        "--workload",
        workload,
        "--seed",
        "7",
        "--seconds",
        "1",
        "--trace",
        "0",
        "--counts",
    ]);
    for (k, v) in params {
        cmd.args(["--param", &format!("{k}={v}")]);
    }
    let out = cmd.output().expect("run perfbench");
    assert!(
        out.status.success(),
        "{workload}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    stdout.lines().last().expect("a result line").to_string()
}

const WIRE: &[(&str, &str)] = &[
    ("ues", "16"),
    ("strangers", "4"),
    ("warmup_requests", "800"),
    ("open_rate_per_s", "400"),
    ("open_share", "0.6"),
    ("closed_inflight", "16"),
    ("hostile_replay_permille", "0"),
    ("hostile_bad_ue_sig_permille", "0"),
    ("hostile_bad_telco_sig_permille", "0"),
    ("hostile_unknown_user_permille", "0"),
    ("hostile_garbage_permille", "0"),
];

const CITY: &[(&str, &str)] = &[
    ("regions", "2"),
    ("ues", "60"),
    ("storm_sim_s", "10"),
    ("steady_sim_s_per_measured_s", "1"),
    ("flow_interval_us", "200"),
    ("churn_tick_ms", "100"),
    ("handovers_per_churn_tick", "1"),
    ("settle_sim_s", "1"),
    ("single_attaches", "10"),
    ("single_attach_window_ms", "200"),
];

#[test]
fn wire_counts_repeat() {
    assert_repeat("wire_hot", WIRE);
}

#[test]
fn sim_city_counts_repeat() {
    assert_repeat("sim_city", CITY);
}

#[test]
fn result_lines_parse() {
    let f = fields(r#"{"a": 1, "b.c": "x=1 y=2", "d": true}"#);
    assert_eq!(f["a"], "1");
    assert_eq!(f["b.c"], "\"x=1 y=2\"");
    assert_eq!(f["d"], "true");
}

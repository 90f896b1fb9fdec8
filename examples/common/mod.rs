//! Helpers shared by the examples that write a `BENCH_*.json` record.
//! Brought in with `mod common;`; a directory without `main.rs` is not an
//! example target of its own.

use serde::Value;

/// Write a benchmark record, then parse it back and check the keys the
/// verify script greps for — a malformed record should fail here, not in CI.
pub fn write_bench(path: &str, record: Value, required: &[&str]) {
    let json = serde_json::to_string_pretty(&record).expect("bench record serialises");
    std::fs::write(path, &json).expect("write benchmark json");
    let parsed = serde_json::parse_value(&json).expect("benchmark json parses back");
    let map = parsed.as_map().expect("benchmark json is an object");
    for key in required {
        assert!(
            serde::value::map_get(map, key).is_some(),
            "benchmark json missing key {key}"
        );
    }
    println!("benchmark record:         {path}");
}

#!/usr/bin/env bash
# Offline-safe verification gate for the workspace.
#
# Every dependency is either a workspace crate or a vendored shim under
# shims/ (see DESIGN.md §5), so every step below must succeed with no
# network access. --offline makes any accidental registry dependency a
# hard failure instead of a hang.

set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo build --release =="
cargo build --release --offline --workspace

echo "== cargo test -q =="
cargo test -q --offline --workspace

echo "== cargo test -q --release (the profile the examples and the benchmark build) =="
# The test profile keeps debug assertions on; a release-only miscompile
# passes it, so the same tests run once more as release builds.
cargo test -q --offline --release --workspace

echo "== cargo clippy (deny warnings) =="
cargo clippy --offline --workspace --all-targets -- -D warnings

echo "== cargo doc (deny warnings) =="
RUSTDOCFLAGS="-D warnings" cargo doc --offline --workspace --no-deps

echo "== crash-recovery fault injection suite =="
cargo test -q --offline -p hpc-tsdb --test tsdb_recovery

echo "== facility fault-injection suite =="
cargo test -q --offline -p hpc-faults
cargo test -q --offline -p archer2-core --lib fault_campaign_tests
# The node-failure example runs (not just compiles) through the one fault model.
cargo run --release --offline --example facility_operations >/dev/null

echo "== every table and figure (regenerate_experiments vs EXPERIMENTS.md) =="
# The one program that prints every table, figure and ablation; it also
# runs the hpc-tsdb direct ingest path. EXPERIMENTS.md's generated span
# runs from the `<!-- generated by` marker to the line before the
# hand-written "### Query engine: cold cache" section, and must match the
# program's output line for line. The "| Ingest throughput |" row is
# wall-clock, so it is left out on both sides.
fresh=$(cargo run --release --offline --example regenerate_experiments)
span=$(sed -n '/^<!-- generated by/,/^### Query engine: cold cache/p' EXPERIMENTS.md | sed '$d')
diff <(grep -v '^| Ingest throughput |' <<<"$span") \
     <(grep -v '^| Ingest throughput |' <<<"$fresh") \
    || { echo "EXPERIMENTS.md differs from regenerate_experiments (< file, > program)" >&2; exit 1; }

echo "== paper checklist (verify_reproduction) =="
# Every paper check at seed 2022, 1/10 scale (the settled means and the
# savings of Figures 1-3); exits non-zero when one fails.
cargo run --release --offline --example verify_reproduction

echo "== benchmark package (examples/bench: unit tests + 1/40-scale smoke) =="
# The package is outside the workspace, so no step above compiles it.
# --locked fails on a stale examples/bench/Cargo.lock instead of rewriting it.
cargo test --release --offline --locked --manifest-path examples/bench/Cargo.toml

echo "== benchmark smoke (BENCH_tsdb_query.json, BENCH_tsdb_persist.json) =="
# Keep the previous record (full-scale or prior smoke run) around as the
# regression reference before the smoke run overwrites it.
if [ -s BENCH_tsdb_query.json ]; then
    cp BENCH_tsdb_query.json BENCH_tsdb_query.ref.json
fi
rm -f BENCH_tsdb_query.json BENCH_tsdb_persist.json
cargo run --release --offline --example telemetry_at_scale -- --smoke
test -s BENCH_tsdb_query.json
for key in sequential_ms warm_ms warm_cache_hit_rate \
           speedup_columnar warm_columnar_p95_us blocks_pruned; do
    grep -q "\"$key\"" BENCH_tsdb_query.json \
        || { echo "BENCH_tsdb_query.json missing key: $key" >&2; exit 1; }
done
# Columnar zone-map regression gate: the fresh speedup must stay within 10%
# of the previous record (the example itself already asserts >= 2x). On a
# fresh clone there is no previous record — that is a documented skip, not
# a failure; the gate arms itself on the second run.
if [ -s BENCH_tsdb_query.ref.json ]; then
    ref=$(sed -n 's/.*"speedup_columnar": \([0-9.eE+-]*\).*/\1/p' BENCH_tsdb_query.ref.json)
    fresh=$(sed -n 's/.*"speedup_columnar": \([0-9.eE+-]*\).*/\1/p' BENCH_tsdb_query.json)
    if [ -z "$ref" ]; then
        echo "skip: speedup_columnar gate (reference record predates the key; it will arm next run)"
    elif [ -z "$fresh" ]; then
        echo "BENCH_tsdb_query.json lost its speedup_columnar key" >&2; exit 1
    else
        awk -v r="$ref" -v f="$fresh" 'BEGIN { exit !(f >= 0.9 * r) }' \
            || { echo "speedup_columnar regressed >10%: $fresh vs reference $ref" >&2; exit 1; }
        lim=$(awk -v r="$ref" 'BEGIN { print 0.9 * r }')
        echo "pass: speedup_columnar $fresh (reference $ref, limit >= $lim)"
    fi
    rm -f BENCH_tsdb_query.ref.json
else
    echo "skip: speedup_columnar regression gate (no prior BENCH_tsdb_query.json on this clone)"
fi
test -s BENCH_tsdb_persist.json
for key in snapshot_write_ms snapshot_read_ms snapshot_bytes snapshot_samples wal_replay_ms; do
    grep -q "\"$key\"" BENCH_tsdb_persist.json \
        || { echo "BENCH_tsdb_persist.json missing key: $key" >&2; exit 1; }
done

echo "== fault storm smoke (BENCH_fault_storm.json + determinism gate) =="
rm -f BENCH_fault_storm.json BENCH_fault_storm.run1.json
cargo run --release --offline --example fault_storm -- --smoke
test -s BENCH_fault_storm.json
for key in schedule_digest telemetry_digest mean_kw emissions_tco2 invariant_violations; do
    grep -q "\"$key\"" BENCH_fault_storm.json \
        || { echo "BENCH_fault_storm.json missing key: $key" >&2; exit 1; }
done
grep -q '"invariant_violations": 0' BENCH_fault_storm.json \
    || { echo "fault storm reported invariant violations" >&2; exit 1; }
# Two same-seed runs must produce bit-identical fault schedules and telemetry.
mv BENCH_fault_storm.json BENCH_fault_storm.run1.json
cargo run --release --offline --example fault_storm -- --smoke >/dev/null
for key in schedule_digest telemetry_digest; do
    a=$(grep "\"$key\"" BENCH_fault_storm.run1.json)
    b=$(grep "\"$key\"" BENCH_fault_storm.json)
    [ "$a" = "$b" ] \
        || { echo "determinism gate: $key differs between same-seed runs" >&2; exit 1; }
done
rm -f BENCH_fault_storm.run1.json

echo "== campaign throughput smoke (BENCH_campaign.json + determinism gate) =="
rm -f BENCH_campaign.json BENCH_campaign.run1.json
cargo run --release --offline --example campaign_throughput -- --smoke
test -s BENCH_campaign.json
for key in sim_days_per_s samples_per_s events_per_s digest_faults_on digest_faults_off digests_match invariant_violations; do
    grep -q "\"$key\"" BENCH_campaign.json \
        || { echo "BENCH_campaign.json missing key: $key" >&2; exit 1; }
done
# The example already asserts cold == warm digests per scenario; the record
# must confirm it and report a clean invariant audit.
grep -q '"digests_match": true' BENCH_campaign.json \
    || { echo "campaign throughput: cold/warm digests differ" >&2; exit 1; }
grep -q '"invariant_violations": 0' BENCH_campaign.json \
    || { echo "campaign throughput reported invariant violations" >&2; exit 1; }
# Two same-seed sweeps must produce bit-identical telemetry, faults on and off.
mv BENCH_campaign.json BENCH_campaign.run1.json
cargo run --release --offline --example campaign_throughput -- --smoke >/dev/null
for key in digest_faults_on digest_faults_off; do
    a=$(grep "\"$key\"" BENCH_campaign.run1.json)
    b=$(grep "\"$key\"" BENCH_campaign.json)
    [ "$a" = "$b" ] \
        || { echo "determinism gate: $key differs between same-seed sweeps" >&2; exit 1; }
done
rm -f BENCH_campaign.run1.json

echo "== serve protocol + concurrency suites =="
cargo test -q --offline -p hpc-serve

echo "== serve cache / single-flight / batch suite =="
cargo test -q --offline -p hpc-serve --test serve_cache

echo "== serve smoke (BENCH_tsdb_serve.json) =="
# Keep the previous record around as the regression reference before the
# smoke run overwrites it (same idiom as the columnar gate above).
if [ -s BENCH_tsdb_serve.json ]; then
    cp BENCH_tsdb_serve.json BENCH_tsdb_serve.ref.json
fi
rm -f BENCH_tsdb_serve.json
cargo run --release --offline --example tsdb_serve -- --smoke
test -s BENCH_tsdb_serve.json
for key in qps p50_us p95_us p99_us batched_p99_us ingest_degradation_pct \
           result_cache_hit_rate coalesced_queries rejected_frames; do
    grep -q "\"$key\"" BENCH_tsdb_serve.json \
        || { echo "BENCH_tsdb_serve.json missing key: $key" >&2; exit 1; }
done
# Under the generous default budgets every frame must have been served:
# no admission rejections, no protocol errors, no error responses.
grep -q '"rejected_frames": 0' BENCH_tsdb_serve.json \
    || { echo "serve smoke rejected frames" >&2; exit 1; }
# Read-path scale-out regression gate: ingest degradation (lower is
# better) must not regress >10% against the previous record. The example
# already reports the best of two back-to-back pairs; on top of that, any
# value within the 145% acceptance target is never a regression (a lucky
# previous run must not turn within-target jitter into a failure), so the
# 10% rule arms above the target. Skip (documented) on a fresh clone.
if [ -s BENCH_tsdb_serve.ref.json ]; then
    ref=$(sed -n 's/.*"ingest_degradation_pct": \([0-9.eE+-]*\).*/\1/p' BENCH_tsdb_serve.ref.json)
    fresh=$(sed -n 's/.*"ingest_degradation_pct": \([0-9.eE+-]*\).*/\1/p' BENCH_tsdb_serve.json)
    if [ -z "$ref" ]; then
        echo "skip: ingest_degradation_pct gate (reference record predates the key; it will arm next run)"
    elif [ -z "$fresh" ]; then
        echo "BENCH_tsdb_serve.json lost its ingest_degradation_pct key" >&2; exit 1
    else
        awk -v r="$ref" -v f="$fresh" \
            'BEGIN { lim = 1.1 * r; if (lim < 145) lim = 145; exit !(f <= lim) }' \
            || { echo "ingest_degradation_pct regressed >10%: $fresh vs reference $ref" >&2; exit 1; }
        lim=$(awk -v r="$ref" 'BEGIN { lim = 1.1 * r; if (lim < 145) lim = 145; print lim }')
        echo "pass: ingest_degradation_pct $fresh (reference $ref, limit <= $lim)"
    fi
    rm -f BENCH_tsdb_serve.ref.json
else
    echo "skip: ingest_degradation_pct regression gate (no prior BENCH_tsdb_serve.json on this clone)"
fi

echo "== serve chaos suite (deterministic fault storm) =="
cargo test -q --offline -p hpc-serve --test serve_chaos

echo "== serve chaos smoke (BENCH_serve_chaos.json) =="
rm -f BENCH_serve_chaos.json
cargo run --release --offline --example serve_chaos -- --smoke
test -s BENCH_serve_chaos.json
for key in requests success_rate retries reconnects honoured_retry_after \
           faults_injected evictions hung_requests p50_us_clean p99_us_clean \
           p50_us_chaos p99_us_chaos replies_bit_identical drained_sessions \
           force_closed; do
    grep -q "\"$key\"" BENCH_serve_chaos.json \
        || { echo "BENCH_serve_chaos.json missing key: $key" >&2; exit 1; }
done
# The resilience contract under the default storm: every request succeeds
# (retries absorb the faults), nothing hangs past its deadline, and the
# replies that survive chaos are byte-identical to the clean path.
grep -q '"success_rate": 1.0' BENCH_serve_chaos.json \
    || { echo "serve chaos: success_rate must be exactly 1.0 under the default plan" >&2; exit 1; }
grep -q '"hung_requests": 0' BENCH_serve_chaos.json \
    || { echo "serve chaos: a request outlived its deadline" >&2; exit 1; }
grep -q '"replies_bit_identical": true' BENCH_serve_chaos.json \
    || { echo "serve chaos: chaos-path replies diverged from the clean path" >&2; exit 1; }

echo "== distributed sweep suite (worker processes, kill + resume) =="
cargo test -q --offline --test sweep_distributed

echo "== distributed sweep smoke (BENCH_sweep.json + bit-identity gate) =="
rm -f BENCH_sweep.json
cargo run --release --offline --example sweep_distributed -- --smoke
test -s BENCH_sweep.json
for key in scenarios shards workers scenarios_per_s_distributed \
           resume_overhead_pct resumed_shards stolen_shards digests_match sweep_digest; do
    grep -q "\"$key\"" BENCH_sweep.json \
        || { echo "BENCH_sweep.json missing key: $key" >&2; exit 1; }
done
# The headline contract: distributed, resumed-after-kill and stolen-shard
# sweeps all merged bit-identically to the in-process reference.
grep -q '"digests_match": true' BENCH_sweep.json \
    || { echo "distributed sweep diverged from the in-process reference" >&2; exit 1; }

echo "verify: OK"

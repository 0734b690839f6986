# Development recipes. `just check` is the full gate CI runs.

# Build, test, and lint — the merge gate.
check: build test clippy lint

# Release build of every crate, bench and example target.
build:
    cargo build --release --all-targets

# The full test suite (unit + integration + property tests).
test:
    cargo build --release && cargo test -q --release

# Lint with warnings promoted to errors.
clippy:
    cargo clippy --release --all-targets -- -D warnings

# Workspace invariant linter (ratcheting baseline in lint-baseline.txt).
lint:
    cargo run --release --bin repro -- lint

# Grandfather the current findings / strike fixed ones from the baseline.
lint-update:
    cargo run --release --bin repro -- lint --update-baseline

# Print the invariant a lint rule protects and how to fix violations.
lint-explain rule="L7":
    cargo run --release --bin repro -- lint --explain {{ rule }}

# SARIF-shaped lint report on stdout (what CI uploads as an artifact).
lint-json:
    cargo run --release --bin repro -- lint --format json

# Regenerate every paper artifact at quick scale.
repro:
    cargo run --release --bin repro -- all

# Regenerate at paper scale (slow) with the worker pool pinned.
repro-full threads="0":
    cargo run --release --bin repro -- all --full {{ if threads == "0" { "" } else { "--threads " + threads } }}

# Run the Criterion benchmark suite.
criterion:
    cargo bench

# Time the end-to-end pipeline stages (quick scale) and write a JSON
# report; guard against regressions with the committed baseline.
bench json="BENCH_PR10.local.json":
    cargo run --release --bin repro -- bench --json {{ json }} --baseline BENCH_QUICK_BASELINE.json --max-ratio 2.0

# Re-measure at paper scale and refresh the committed baseline.
bench-full:
    cargo run --release --bin repro -- bench --full --json BENCH_PR10.json

# Serve the simulated registry over HTTP + WHOIS on fixed local ports.
serve:
    cargo run --release --bin repro -- serve --port 8080 --whois-port 4343

# Serve with the /debug/flight, /debug/requests and /debug/pool
# introspection routes enabled.
serve-debug:
    cargo run --release --bin repro -- serve --debug --port 8080 --whois-port 4343

# Drive a running `just serve` with the seeded load generator.
loadgen addr="127.0.0.1:8080":
    cargo run --release --bin repro -- loadgen --addr {{ addr }}

# Run an artifact and dump the always-on flight recorder ring as
# trace-check-compatible JSONL.
flight-dump artifact="fig6":
    cargo run --release --bin repro -- flight-dump {{ artifact }}

# One workload of the end-to-end benchmark, run the way BENCHMARK.json
# runs it (figures, archive or serve); prints the result JSON last.
perfbench workload="archive" seed="2020" seconds="40" trace="0":
    cargo run --offline --release --quiet --manifest-path perfbench/Cargo.toml -- --workload {{ workload }} --seed {{ seed }} --seconds {{ seconds }} --trace {{ trace }}

# Write the quick-scale MRT archive to disk and run a query over it.
query filter="kind=announce|withdraw" dir="archive.quick":
    cargo run --release --bin repro -- archive --out {{ dir }}
    cargo run --release --bin repro -- query {{ dir }} --filter "{{ filter }}" --limit 20

# Compare sequential vs parallel wall-clock for the archive pipeline.
scaling:
    DRYWELLS_THREADS=1 cargo run --release --bin repro -- fig6 > /dev/null
    cargo run --release --bin repro -- fig6 > /dev/null

# Per-stage wall-time / throughput tree for one artifact.
profile artifact="fig6":
    cargo run --release --bin repro -- profile {{ artifact }}

# Write a JSONL trace and a flight-ring dump of a run and validate the
# schema + nesting of both.
trace artifact="fig6":
    cargo run --release --bin repro -- {{ artifact }} --trace=jsonl:trace.jsonl > /dev/null
    cargo run --release --bin repro -- trace-check trace.jsonl
    cargo run --release --bin repro -- flight-dump {{ artifact }} --out flight-{{ artifact }}.jsonl
    cargo run --release --bin repro -- trace-check flight-{{ artifact }}.jsonl

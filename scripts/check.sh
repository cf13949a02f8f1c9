#!/usr/bin/env bash
# Full local gate: formatting, lints as errors, and every test in the
# workspace. Run from anywhere inside the repository.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check"
cargo fmt --all --check

echo "== cargo clippy (warnings are errors)"
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo doc (warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

echo "== cargo test"
cargo test --workspace -q

echo "== kernel properties in a release build (optimized float codegen)"
cargo test --release -q -p isgc-linalg --test kernel_props

echo "== cross-backend engine parity (net loopback vs simulator)"
cargo test -q --test engine_parity

echo "== metrics snapshots match their goldens (scripts/bless.sh to re-bless)"
# Runs un-blessed: any drift of the logical metric series from the files in
# tests/golden/ is a hard failure here, never a silent regeneration.
cargo test -q --test obs_snapshot

echo "== step-anatomy benchmark smoke (oracle equality, thread counts, bit-exact sim re-run)"
# Every workload at toy size through the benchmark's own output checks.
# Building the benchmark rewrites its stale checked-in Cargo.lock; the lock
# is put back afterwards, and the step fails if it left stepbench/ in any
# other state than it found it, so the gate never dirties the benchmark.
bench_state=$(git status --porcelain -- stepbench 2>/dev/null || true)
bench_lock=$(mktemp)
cp stepbench/Cargo.lock "$bench_lock"
bench_status=0
cargo test --release --offline --manifest-path stepbench/Cargo.toml || bench_status=$?
cp "$bench_lock" stepbench/Cargo.lock
rm -f "$bench_lock"
if [ "$(git status --porcelain -- stepbench 2>/dev/null || true)" != "$bench_state" ]; then
  echo "FAIL: the benchmark smoke step changed files under stepbench/:" >&2
  git status --short -- stepbench >&2
  exit 1
fi
[ "$bench_status" -eq 0 ] || exit "$bench_status"

echo "== chaos smoke (seeded, deterministic)"
cargo run --release --quiet -- chaos --plan smoke --seed 42

echo "== sub-master crash smoke (2-level tree, seeded, deterministic)"
cargo run --release --quiet -- chaos --plan submaster-crash --seed 42

echo "== blackout smoke (graceful degradation ladder, seeded, deterministic)"
cargo run --release --quiet -- chaos --plan blackout --seed 42

echo "== multi-tenant smoke (2 jobs x 2-level tree on loopback)"
cargo run --release --quiet -- launch fr 8 2 --jobs 2 --tree 2 --steps 4

echo "== reactor scale smoke (64 workers from one swarm process)"
# The master must stay an event loop: its process may use at most the
# reactor/state-machine thread plus the CLI main thread, no matter how many
# workers connect. (It is in fact 1 thread — the reactor is polled inline.)
swarm_out=$(cargo run --release --quiet -- launch fr 64 2 --w 62 --steps 4 --swarm 1)
echo "$swarm_out" | tail -6
threads=$(echo "$swarm_out" | sed -n 's/^master threads during run: //p')
if [ -z "$threads" ] || [ "$threads" -gt 2 ]; then
  echo "FAIL: master ran with ${threads:-unknown} threads (expected <= 2)" >&2
  exit 1
fi

echo "== protocol model-check smoke (flat3, depth-limited, exhaustive)"
# Enumerates every delivery order and ≤2-fault schedule of an FR(3, 1)
# cluster through the real collector loop; any invariant violation fails the
# command (and would write a replayable counterexample trace).
mc_out=$(cargo run --release --quiet -- mc --shape flat3 --depth 32 --trace-out target/mc_trace.json)
echo "$mc_out" | sed -n '2p;6p'
mc_rate=$(echo "$mc_out" | sed -n 's/^mc_flat3_states_per_sec: //p')
printf '{\n  "mc_flat3_states_per_sec": %s\n}\n' "$mc_rate" > target/BENCH_mc_smoke.json
scripts/bench_guard.sh target/BENCH_mc_smoke.json BENCH_mc.json

echo "== model-checker mutation loop (seeded bug: find -> shrink -> replay)"
# The mc-mutation feature weakens the real master's stale guard; the gated
# suite must find the bug by exhaustive search, shrink the schedule to its
# 1-minimal core, and reproduce the exact failure fingerprint on a real
# loopback cluster.
cargo test --release -q -p isgc-mc --features mc-mutation --test mutation

echo "== kernels bench smoke + regression guard (30% ns/elem budget)"
# A reduced-iteration measurement on this host, compared per-kernel against
# the checked-in BENCH_kernels.json; >30% slower on any kernel fails.
ISGC_BENCH_SMOKE=1 cargo run --release --quiet -p isgc-bench --bin kernels -- target/BENCH_kernels_smoke.json > /dev/null
scripts/bench_guard.sh target/BENCH_kernels_smoke.json

echo "ok: fmt, clippy, docs, tests, engine parity, snapshots, benchmark smoke, chaos, blackout, multi-tenant, reactor scale, model check, and perf guards all clean"

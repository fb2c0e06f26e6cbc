# Local mirror of the CI pipeline (.github/workflows/ci.yml).
#
#   make verify     — the tier-1 gate: release build + full test suite
#   make ci         — everything CI runs: fmt, build, test, clippy, mt-tests
#   make bench      — criterion micro-benchmarks (shimmed harness)
#   make bench-build — build the perfbench benchmark (its own workspace)
#   make speedup    — intra-query fan-out thread scaling (identical answers per row)
#   make test-mt    — release tests with 4 test threads (scheduler jobs)
#   make test-scalar — full release suite with the SIMD backend forced off
#   make sched-bench — FIFO vs concurrent-serving latency benchmark
#   make kernel-bench — scalar-adapter vs native-batch stepping throughput
#   make width-bench — batch_width=auto vs static-64 on a mixed workload
#   make wal-bench  — WAL fsync group-commit vs lone-appender throughput
#   make reuse-bench — cross-query shard reuse vs store-disabled baseline
#   make sql-demo   — pipe a demo script through the sql_shell example
#   make test-durability — crash-recovery suites + the kill -9 shell smoke
#   make serve-smoke — mlss_serve + 2-tenant load_bench + shell parity diff + nesting bomb
#   make load-bench — overload (capped) + fairness profiles vs a live server
#   make rank-bench — raced RANK BY vs exhaustive per-arm estimation + socket smoke

CARGO ?= cargo

.PHONY: verify ci fmt clippy test build bench bench-build speedup test-mt test-scalar sched-bench kernel-bench width-bench wal-bench reuse-bench sql-demo test-durability serve-smoke load-bench rank-bench

verify: build test

build:
	$(CARGO) build --release --workspace --all-targets

test:
	$(CARGO) test -q --workspace

fmt:
	$(CARGO) fmt --check

clippy:
	$(CARGO) clippy --workspace --all-targets -- -D warnings

test-mt:
	$(CARGO) test --release --workspace -- --test-threads=4

test-scalar:
	MLSS_SIMD=scalar $(CARGO) test --release --workspace

sched-bench:
	$(CARGO) run --release -p mlss-bench --bin scheduler_bench -- --full

kernel-bench:
	$(CARGO) run --release -p mlss-bench --bin kernel_bench -- --full

# Mirror of the width-policy rows inside the CI kernel bench: the mixed
# workload driven at batch_width=auto vs a static 64, with the
# speculation-discard ledger.
width-bench:
	$(CARGO) run --release -p mlss-bench --bin kernel_bench -- --width

wal-bench:
	$(CARGO) run --release -p mlss-bench --bin wal_bench -- --full

reuse-bench:
	$(CARGO) run --release -p mlss-bench --bin reuse_bench -- --full

sql-demo:
	printf '%s\n' \
	  "SHOW MODELS;" \
	  "EXPLAIN ESTIMATE DURABILITY OF cpp(beta=50) WITHIN 500 USING auto TARGET RE 15% WITH (batch_width=32);" \
	  "ESTIMATE DURABILITY OF walk(beta=6) WITHIN 50 USING srs TARGET RE 30%;" \
	  "ESTIMATE DURABILITY OF ar(beta=3) WITHIN 40 USING gmlss TARGET RE 50% WITH (seed=7) ASYNC;" \
	  "SELECT model, method, tau, plan_cache, shard_reuse FROM results;" \
	  "SHOW DIAGNOSTICS;" \
	  | $(CARGO) run --release --example sql_shell

# The durability gate (mirrors the CI `durability` job): the WAL
# corruption suite, the crash-point recovery sweep, write-ahead
# ordering, and a real kill -9 against the sql_shell — submit an ASYNC
# query, die mid-run, reopen the log, and demand the recovered row.
test-durability:
	$(CARGO) test --release -p mlss-store
	$(CARGO) test --release --test recovery_identity
	$(CARGO) test --release --test failure_injection
	$(CARGO) build --release --example sql_shell
	rm -rf target/wal-smoke && mkdir -p target/wal-smoke
	( printf '%s\n' "ESTIMATE DURABILITY OF walk(beta=6) WITHIN 50 USING gmlss(levels=3) TARGET RE 15% WITH (seed=4242) ASYNC"; sleep 3 ) \
	  | MLSS_WAL_DIR=target/wal-smoke ./target/release/examples/sql_shell & \
	sleep 1; kill -9 $$! 2>/dev/null || true; sleep 1
	printf '%s\n' "SELECT model, method, tau FROM results" \
	  | MLSS_WAL_DIR=target/wal-smoke ./target/release/examples/sql_shell \
	  | tee target/wal-smoke/reopen.txt
	grep -q "walk | gmlss" target/wal-smoke/reopen.txt
	rm -rf target/wal-smoke

# The server front-end gate (mirrors the CI `serve` job): start
# mlss_serve with tight admission caps, drive a 2-tenant open-loop load,
# and demand per-tenant report rows plus at least one shed response;
# then diff the sql_shell's embedded vs connected output row-for-row
# against a fresh, uncapped server (only the inline estimate's
# wall-clock millis cell is masked).
serve-smoke: build
	rm -rf target/serve-smoke && mkdir -p target/serve-smoke
	set -e; \
	./target/release/mlss_serve --listen 127.0.0.1:7878 --tenant alpha --tenant beta \
	  --global-cap 2 --tenant-cap 2 > target/serve-smoke/server.log & pid=$$!; \
	trap "kill $$pid 2>/dev/null || true" EXIT; \
	for i in $$(seq 50); do echo | ./target/release/examples/sql_shell --connect 127.0.0.1:7878 >/dev/null 2>&1 && break; sleep 0.2; done; \
	./target/release/load_bench --connect 127.0.0.1:7878 --smoke | tee target/serve-smoke/smoke.txt; \
	grep -E "^tenant=alpha " target/serve-smoke/smoke.txt; \
	grep -E "^tenant=beta " target/serve-smoke/smoke.txt; \
	grep -E "^shed_response RETRY AFTER" target/serve-smoke/smoke.txt
	set -e; \
	./target/release/mlss_serve --listen 127.0.0.1:7879 > target/serve-smoke/parity-server.log & pid=$$!; \
	trap "kill $$pid 2>/dev/null || true" EXIT; \
	for i in $$(seq 50); do echo | ./target/release/examples/sql_shell --connect 127.0.0.1:7879 >/dev/null 2>&1 && break; sleep 0.2; done; \
	printf '%s\n' \
	  "SHOW MODELS" \
	  "ESTIMATE DURABILITY OF walk(beta=6) WITHIN 50 USING srs TARGET RE 30% WITH (seed=7)" \
	  "SELECT model, method, tau, steps, n_roots FROM results" \
	  > target/serve-smoke/parity.sql; \
	./target/release/examples/sql_shell < target/serve-smoke/parity.sql > target/serve-smoke/embedded.txt; \
	./target/release/examples/sql_shell --connect 127.0.0.1:7879 < target/serve-smoke/parity.sql > target/serve-smoke/connected.txt; \
	python3 -c 'print("SELECT * FROM results WHERE " + "(" * 2000 + "1" + ")" * 2000)' \
	  | ./target/release/examples/sql_shell --connect 127.0.0.1:7879 > target/serve-smoke/nesting-bomb.txt || true; \
	grep -q "nests deeper" target/serve-smoke/nesting-bomb.txt; \
	echo "SHOW MODELS" | ./target/release/examples/sql_shell --connect 127.0.0.1:7879 > /dev/null; \
	awk -F' \| ' 'BEGIN{OFS=" | "} NF>=7{$$7="_"} {print}' target/serve-smoke/embedded.txt > target/serve-smoke/embedded.masked; \
	awk -F' \| ' 'BEGIN{OFS=" | "} NF>=7{$$7="_"} {print}' target/serve-smoke/connected.txt > target/serve-smoke/connected.masked; \
	diff target/serve-smoke/embedded.masked target/serve-smoke/connected.masked

# The overload table + the fairness split, against live servers (this
# is how the PR 9 numbers in CHANGES.md were produced).
load-bench: build
	set -e; \
	./target/release/mlss_serve --listen 127.0.0.1:7878 --tenant alpha --tenant beta \
	  --global-cap 4 --tenant-cap 4 >/dev/null & pid=$$!; \
	trap "kill $$pid 2>/dev/null || true" EXIT; \
	for i in $$(seq 50); do echo | ./target/release/examples/sql_shell --connect 127.0.0.1:7878 >/dev/null 2>&1 && break; sleep 0.2; done; \
	./target/release/load_bench --connect 127.0.0.1:7878 --clients 24 --rate 50 --duration 8 --re 2%
	set -e; \
	./target/release/mlss_serve --listen 127.0.0.1:7879 --workers 1 \
	  --tenant alpha --tenant beta >/dev/null & pid=$$!; \
	trap "kill $$pid 2>/dev/null || true" EXIT; \
	for i in $$(seq 50); do echo | ./target/release/examples/sql_shell --connect 127.0.0.1:7879 >/dev/null 2>&1 && break; sleep 0.2; done; \
	./target/release/load_bench --connect 127.0.0.1:7879 --profile fairness --duration 5 --re 1%

# The ranking gate (mirrors the CI `rank-bench` step): the raced
# RANK BY path must pick the same winner as exhaustive per-arm
# estimation while spending at most half the `g` invocations (the
# binary exits nonzero if either gate fails), then a socket smoke —
# the same RANK BY statement through a live mlss_serve must come back
# with a standings row for the winning arm.
rank-bench: build
	rm -rf target/rank-bench && mkdir -p target/rank-bench
	./target/release/rank_bench > target/rank-bench/summary.txt || { cat target/rank-bench/summary.txt; exit 1; }
	cat target/rank-bench/summary.txt
	grep -q "rank_bench PASS" target/rank-bench/summary.txt
	set -e; \
	./target/release/mlss_serve --listen 127.0.0.1:7880 > target/rank-bench/server.log & pid=$$!; \
	trap "kill $$pid 2>/dev/null || true" EXIT; \
	for i in $$(seq 50); do echo | ./target/release/examples/sql_shell --connect 127.0.0.1:7880 >/dev/null 2>&1 && break; sleep 0.2; done; \
	printf '%s\n' \
	  "ESTIMATE DURABILITY OF walk(beta=6) SWEEP up FROM 0.30 TO 0.42 STEP 0.04 WITHIN 50 USING srs TARGET RE 0.5 RANK BY TOP 2 (rounds=5, round_budget=4000) WITH (seed=7)" \
	  "SELECT * FROM rankings" \
	  | ./target/release/examples/sql_shell --connect 127.0.0.1:7880 \
	  | tee target/rank-bench/socket-smoke.txt; \
	grep -E "up=0\.42" target/rank-bench/socket-smoke.txt | grep -qE "\| (in|out|definitive|resolved|budget) \|"

ci: fmt build bench-build test clippy test-mt test-durability rank-bench

bench:
	$(CARGO) bench -p mlss-bench

bench-build:
	$(CARGO) build --release --offline --manifest-path perfbench/Cargo.toml

speedup:
	$(CARGO) run --release -p mlss-bench --bin parallel_speedup 4 0.02

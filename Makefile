# Local mirror of the CI pipeline (.github/workflows/ci.yml).
#
#   make verify     — the tier-1 gate: release build + full test suite
#   make ci         — everything CI runs: fmt, build, test, clippy, mt-tests
#   make bench-build — build the perfbench benchmark (its own workspace)
#   make bench-diff A=… B=… — per-metric ratios between two BENCH_*.json files
#   make speedup    — intra-query fan-out thread scaling (identical answers per row)
#   make test-mt    — release tests with 4 test threads (scheduler jobs)
#   make test-scalar — full release suite with the SIMD backend forced off
#   make sql-demo   — pipe a demo script through the sql_shell example
#   make test-durability — crash-recovery suites + the kill -9 shell smoke
#   make serve-smoke — shell parity diff + nesting bomb vs a live mlss_serve
#   make rank-smoke — a RANK BY statement through a live mlss_serve

CARGO ?= cargo

.PHONY: verify ci fmt clippy test build bench-build bench-diff speedup test-mt test-scalar sql-demo test-durability serve-smoke rank-smoke

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
# fan-out query (threads=2), die mid-run, reopen the log, and demand the
# recovered row.
test-durability:
	$(CARGO) test --release -p mlss-store
	$(CARGO) test --release --test recovery_identity
	$(CARGO) test --release --test failure_injection
	$(CARGO) build --release --example sql_shell
	rm -rf target/wal-smoke && mkdir -p target/wal-smoke
	( printf '%s\n' "ESTIMATE DURABILITY OF walk(beta=6) WITHIN 50 USING gmlss(levels=3) TARGET RE 15% WITH (seed=4242, threads=2) ASYNC"; sleep 3 ) \
	  | MLSS_WAL_DIR=target/wal-smoke ./target/release/examples/sql_shell & \
	sleep 1; kill -9 $$! 2>/dev/null || true; sleep 1
	printf '%s\n' "SELECT model, method, tau FROM results" \
	  | MLSS_WAL_DIR=target/wal-smoke ./target/release/examples/sql_shell \
	  | tee target/wal-smoke/reopen.txt
	grep -q "walk | gmlss" target/wal-smoke/reopen.txt
	rm -rf target/wal-smoke

# The live-server half of the CI `serve` job (its tests — shed under
# tight caps, the fair-share split over sockets, the protocol fuzz —
# run in `test-mt`): diff the sql_shell's embedded vs connected output
# row-for-row against a live mlss_serve (only the inline estimate's
# wall-clock millis cell is masked) and send it a nesting bomb it must
# refuse while it keeps serving.
serve-smoke: build
	rm -rf target/serve-smoke && mkdir -p target/serve-smoke
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

# The live-server half of the CI `ranking` job (its gate — raced RANK
# BY picks exhaustive's winner on at most half the `g` invocations —
# is tests/ranking.rs, run in `test` and `test-mt`): a RANK BY
# statement through a live mlss_serve must come back with a standings
# row for the winning arm.
rank-smoke: build
	rm -rf target/rank-smoke && mkdir -p target/rank-smoke
	set -e; \
	./target/release/mlss_serve --listen 127.0.0.1:7880 > target/rank-smoke/server.log & pid=$$!; \
	trap "kill $$pid 2>/dev/null || true" EXIT; \
	for i in $$(seq 50); do echo | ./target/release/examples/sql_shell --connect 127.0.0.1:7880 >/dev/null 2>&1 && break; sleep 0.2; done; \
	printf '%s\n' \
	  "ESTIMATE DURABILITY OF walk(beta=6) SWEEP up FROM 0.30 TO 0.42 STEP 0.04 WITHIN 50 USING srs TARGET RE 0.5 RANK BY TOP 2 (rounds=5, round_budget=4000) WITH (seed=7)" \
	  "SELECT * FROM rankings" \
	  | ./target/release/examples/sql_shell --connect 127.0.0.1:7880 \
	  | tee target/rank-smoke/socket-smoke.txt; \
	grep -E "up=0\.42" target/rank-smoke/socket-smoke.txt | grep -qE "\| (in|out|definitive|resolved|budget) \|"

ci: fmt build bench-build test clippy test-mt test-durability serve-smoke rank-smoke

bench-build:
	$(CARGO) build --release --offline --manifest-path perfbench/Cargo.toml

# Flags (exit 1) any end-to-end metric B worsens past its BENCHMARK.json bound.
A ?= BENCH_baseline.json
bench-diff:
	python3 tools/bench_diff.py $(A) $(B)

speedup:
	$(CARGO) run --release -p mlss-bench --bin parallel_speedup 4 0.02

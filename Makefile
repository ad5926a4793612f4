# Developer entry points. `make check` is the gate CI runs.

GO ?= go

.PHONY: check test build vet bench bench-parallel bench-json bench-diff

check:
	sh scripts/check.sh

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# Full benchmark suite (regenerates every exhibit; slow).
bench:
	$(GO) test -bench=. -benchmem .

# Just the parallel-kernel benchmarks: serial vs GOMAXPROCS workers.
bench-parallel:
	$(GO) test -run xxx -bench 'BenchmarkMatMulParallel|BenchmarkLatentExtractParallel' .

# Steady-state hot-path envelope as machine-readable JSON (BENCH_pr10.json):
# the precision-tier section (fp32 fused vs split vs fp64 reference train
# step, raw GEMM/GEMV at both widths, interleaved rounds) with its
# regression gates applied (medians of per-round ratios), plus train-step and
# eval-batch ns/op + allocs/op, the batched training core against the same
# step done one sample at a time at B=32 (train_batched, with its >=1.5x
# speedup and 0 allocs/op gates), serial vs batched eval speedup,
# checkpoint save/restore latency, the
# serving layer under 32-client closed-loop load (throughput + p50/p95/p99),
# the multi-tenant fleet under 10k-user Zipf load (throughput, eviction and
# fault-in counts, fault-in p50/p99, resident heap per 10k users), the
# warm-standby replication envelope (added p99 with the observe log on and a
# standby tailing, rolling-restart handoff time, with its zero-lost-requests
# and survivor bit-identity gates), the fp32-vs-int8 equal-bytes
# memory-accuracy frontier (with its >=4x sample ratio and -1.0 pt accuracy
# gates), and the full end-of-run metrics report.
bench-json:
	$(GO) run ./cmd/benchjson -check -out BENCH_pr10.json

# Cross-PR perf drift: compare the previous published exhibit against the
# current one, failing on >25% ns/op regressions or any allocs/op growth.
bench-diff:
	$(GO) run ./cmd/benchdiff BENCH_pr9.json BENCH_pr10.json

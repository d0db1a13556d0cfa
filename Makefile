# Convenience targets; everything is plain `go` underneath.

.PHONY: all ci build vet test test-race test-purego golden telemetry-smoke health-smoke chaos-smoke scale-smoke bench bench-e2e-smoke fuzz-short repro-fast repro-bench examples loc

all: build vet test test-race

# The full CI gate, in dependency order: static checks and unit tests, the
# race pass, the scalar-kernel pass, the golden-session gate, the observer
# stream smoke, the live health-monitor smoke, the async straggler matrix
# under the race detector, the 100k-client scale smoke, the decoder fuzz
# pass, and the repo benchmark's own smoke test.
ci: vet test test-race test-purego golden telemetry-smoke health-smoke chaos-smoke scale-smoke fuzz-short bench-e2e-smoke

build:
	go build ./...

# The wire framing views float64 memory as bytes on little-endian hosts and
# byte-swaps on the rest; cross-building for s390x keeps the big-endian
# branch (and nn's flatten helpers it calls) compiling, and vetting for
# arm64 covers the other 64-bit target people deploy on.
vet:
	go vet ./...
	GOOS=linux GOARCH=s390x go build ./internal/transport/ ./internal/nn/
	GOARCH=arm64 go vet ./internal/transport/

# vet is a prerequisite: the default test path fails on vet findings before
# any test runs.
test: vet
	go test ./...

# Race-detect the packages where goroutines share state: the worker pool and
# kernel budget (fl), the two client halves that read one DeltaTable from every
# worker (core), the aggregate's chunk workers, which write disjoint ranges of
# one model (engine), the kernel pool, whose workers take a job off one
# channel and write disjoint output bands, conv samples or ParallelFor
# indices (tensor; TENSOR_KERNEL_TESTS below names its pool tests), the
# layer scratch reuse (nn), the wire protocol (transport), the codec whose
# error histograms every client goroutine observes into (compress), the health
# monitor the round writes and the /debug/fl/health handler reads (health),
# and the series every client goroutine and IO-pool worker writes (telemetry).
# -race also turns on checkptr, which checks the framing's unsafe.Slice views
# of float64 payloads.
# The second line repeats the tests whose outcome rides on interleavings the
# scheduler picks, which one pass sees only some of: whether a pipe frame is
# copied into a parked receiver's lent weights or queued, the order in which
# the server's receive pumps hand frames, conn errors and rejoin handshakes to
# the live dispatcher, and which pooled vector a pipe copy or the server's
# round close takes or puts back (the two float-pool tests, named so the
# pattern's Pipe takes them). ServePipes sessions are stamp-ordered: their
# arrivals, rejoin handshakes and deadlines are handled in virtual-time order
# whatever the scheduler picks. So the live dispatcher's interleavings come
# from the hand-built pipe sessions — lend, the silent rejoiner, the reap,
# the live reference of TestAsyncVirtualSyncMatchesPipes — and
# TestPipeParkedUpdateNotRecycled keeps a live buffered straggler in the set.
# The virtual sessions the pattern's Async takes ride on it for the opposite
# reason: whatever the scheduler picks, they must replay bit for bit and
# match a live sync session. TestAsyncVirtualReplays is skipped there: it
# replays 20 sessions itself, and the single pass above runs it under -race.
# SendTimeout repeats the send watchdog's test: a send stuck in the assign,
# the δ request or MsgDone races the deadline's close of its conn.
# require-tests fails the target if a pattern matches no test or any of the
# five named tests, or of the tensor kernel tests below, is renamed away.
RACE_REPEAT = Pipe|Lend|Rejoin|Reap|Async|SendTimeout
test-race:
	$(call require-tests,./internal/tensor,$(TENSOR_KERNEL_TESTS))
	$(call require-tests,./internal/transport,$(RACE_REPEAT)|^TestPipeSessionMatchesTCP$$|^TestPipeParkedUpdateNotRecycled$$|^TestAsyncVirtualReplays$$|^TestAsyncVirtualSyncMatchesPipes$$|^TestPeerSendAllocs$$)
	go test -race ./internal/fl/... ./internal/core/... ./internal/engine/... ./internal/tensor/... ./internal/nn/... ./internal/transport/... ./internal/compress/... ./internal/health/... ./internal/telemetry/...
	go test -race -count=20 -run '$(RACE_REPEAT)' -skip '^TestAsyncVirtualReplays$$' ./internal/transport/

# The purego tag drops the AVX2 micro-kernel and SIMD element loops, so this
# is the only run that puts the scalar kernels every non-amd64 build uses
# through the GEMM property tests and nn's three conv bit-identity tests
# (TestConvForwardMatchesIm2colReference,
# TestConvBackwardParamsMatchesIm2colReference and
# TestConvBackwardInputMatchesCol2imReference, none of them amd64-gated), and
# through TestMaxPoolNonFiniteWindows, and that holds engine.Aggregate's
# chunked loop equal to the serial one with == on the FMA scalar axpy
# (TestAggregateMatchesParentServer). Here TestGemmInPlaceMatchesPacked,
# TestGemmInPlaceCounted and TestGemmScratchReuse run the small-batch shapes
# through the packed fallback, TestGemmPackedFloatsFleetRound pins what the
# scalar kernel packs, and TestAddScaledDiffMatchesGoLoop the health
# direction sum through its Go loop. The pool tests (parallel == serial at
# budgets 2–8, one processor, zero allocations, concurrent callers,
# ParallelFor) run under both targets.
TENSOR_KERNEL_TESTS = ^TestGemmInPlaceMatchesPacked$$|^TestGemmPackedFloatsFleetRound$$|^TestGemmInPlaceCounted$$|^TestGemmScratchReuse$$|^TestAddScaledDiffMatchesGoLoop$$|^TestGemmParallelMatchesSerial$$|^TestKernelPoolOneProcessor$$|^TestGemmParallelZeroAllocs$$|^TestConcurrentMatMulNoDeadlock$$|^TestParallelFor$$
test-purego:
	$(call require-tests,./internal/tensor,$(TENSOR_KERNEL_TESTS))
	go test -tags purego ./internal/tensor/ ./internal/nn/ ./internal/engine/

# $(call require-tests,PKG,PATTERN) fails unless every |-separated
# alternative of PATTERN names at least one test, fuzz target or benchmark in
# PKG, so a renamed test cannot drop silently out of a target's -run or -fuzz.
define require-tests
	@list=$$(go test -list '.*' $(1)) || { echo "$$list"; exit 1; }; \
	for alt in $$(echo '$(2)' | tr '|' ' '); do \
		echo "$$list" | grep -Eq -- "$$alt" || { echo "$(1): no test matches $$alt"; exit 1; }; \
	done
endef

# The fixed-seed sessions of testdata/golden_sessions.json are the bit-identity
# gate for anything that touches a round's arithmetic, and the test skips
# itself where the host's float kernels differ from the recording's. On amd64
# — the recording's architecture — a skip means the gate did not run: fail.
GOLDEN_TESTS = ^TestElideGoldenSessions$$
golden:
	$(call require-tests,./internal/transport,$(GOLDEN_TESTS))
	@out=$$(go test ./internal/transport -run '$(GOLDEN_TESTS)' -count 1 -v) || { echo "$$out"; exit 1; }; \
	echo "$$out"; \
	if [ "$$(go env GOARCH)" = amd64 ] && echo "$$out" | grep -q -- '--- SKIP'; then \
		echo "golden: TestElideGoldenSessions skipped on amd64 — the bit-identity gate did not run"; exit 1; \
	fi

# Smoke-test the observer stream end to end: run an flsim session with
# -observe and require span, round and event lines in the one file (fltrace
# fails when the stream has no round line or any line is not valid JSON
# with a known kind), then check that a q8 run — a wire session over
# in-process pipes — names its uplink scheme in the server's round lines
# and ends in the server's run_done.
# The live /metrics scrape, its series and the codec byte series are go
# test's (TestChaosSessionMetricsScrape, TestHTTPEndpoints,
# TestServeCompressedUplinkBytesReduction).
telemetry-smoke:
	@tmp=$$(mktemp -d) && \
	go run ./cmd/flsim -dataset mnist -method rfedavg+ -clients 4 -rounds 2 \
		-e 2 -b 16 -train 400 -test 100 -observe $$tmp/run.jsonl >/dev/null && \
	grep -q '"kind":"span"' $$tmp/run.jsonl && grep -q '"kind":"round"' $$tmp/run.jsonl && \
	grep -q '"event":"run_done"' $$tmp/run.jsonl && \
	go run ./cmd/fltrace -observe $$tmp/run.jsonl >/dev/null && \
	go run ./cmd/flsim -dataset mnist -method rfedavg+ -clients 4 -rounds 2 \
		-e 2 -b 16 -train 400 -test 100 -compress q8 \
		-observe $$tmp/q8.jsonl >/dev/null && \
	grep -q '"up_scheme":"q8"' $$tmp/q8.jsonl && \
	grep -q '"event":"run_done"' $$tmp/q8.jsonl && \
	rm -rf $$tmp && echo "observer stream smoke passed"

# Smoke-test live run health monitoring end to end: start an flsim run with
# the health monitor on and two injected Byzantine clients (one sign-flip,
# one 10× scale), scrape /debug/fl/health over HTTP *while the run is
# live*, and require a valid JSON snapshot carrying per-client scores
# and a firing alert (flbench -health-scrape polls until it sees one). After
# the run, the stream's round lines must carry verdicts and its event lines
# edge-triggered health_alerts for both attackers, and fltrace -follow must
# render the finished stream as a dashboard. The alert counts per client are printed;
# the honest clients' (0, 1, 3, 4) count is reported, not gated.
health-smoke:
	@tmp=$$(mktemp -d) || exit 1; \
	go build -o $$tmp/flsim ./cmd/flsim || exit 1; \
	go build -o $$tmp/flbench ./cmd/flbench || exit 1; \
	go build -o $$tmp/fltrace ./cmd/fltrace || exit 1; \
	$$tmp/flsim -dataset mnist -method rfedavg+ -clients 6 -rounds 150 \
		-e 1 -b 16 -train 600 -test 100 -sim 0 \
		-health -byzantine 2:signflip,5:scale10 \
		-telemetry-addr 127.0.0.1:17917 \
		-observe $$tmp/run.jsonl >$$tmp/run.log 2>&1 & \
	pid=$$!; \
	if ! $$tmp/flbench -health-scrape 'http://127.0.0.1:17917/debug/fl/health?top=8' \
		-scrape-timeout 90s; then \
		kill $$pid 2>/dev/null; cat $$tmp/run.log; exit 1; \
	fi; \
	wait $$pid; status=$$?; \
	echo "health alerts: client 2 $$(grep -c 'client 2 violated' $$tmp/run.jsonl), client 5 $$(grep -c 'client 5 violated' $$tmp/run.jsonl), honest 0/1/3/4 $$(grep -c 'client [0134] violated' $$tmp/run.jsonl)"; \
	[ $$status -eq 0 ] || { cat $$tmp/run.log; exit 1; }; \
	grep -q '"verdict":' $$tmp/run.jsonl && \
	grep -q 'client 2 violated' $$tmp/run.jsonl && \
	grep -q 'client 5 violated' $$tmp/run.jsonl && \
	$$tmp/fltrace -follow -observe $$tmp/run.jsonl >/dev/null && \
	rm -rf $$tmp && echo "health smoke passed"

# Prove the 100k-client scale story end to end: a short cohort-subsampled
# flsim session over 100k simulated clients must finish inside a wall-clock
# budget with peak heap bounded well below anything O(N·d) would need —
# steady-state memory tracks the sampled cohort, not the client count. The
# run drives the simulator, whose cohort of 100 goes through engine.Aggregate
# (the transport server's; before PR 21 the simulator had only a serial
# average), the streaming δ table, the summary-mode ledger, and — with
# -health on — the monitor's O(cohort) memory claim; the round lines of its
# observer stream (spans included) must carry the sampled MMD block and the
# health summary triple, never per-client arrays.
# The second run gates what an idle slot of a wire session costs: -compress
# dense makes it 1,000 pipe clients, 20 of them sampled a round. A slot keeps
# its weights, shard and optimizer and borrows its gradients, arena and round
# RNG only while it works. Peak heap read 583–641 MiB in eight runs on a
# 2-vCPU x86-64 host against the 700 MiB budget (≥ 9 % headroom), and
# 788–938 MiB when every slot kept that workspace.
scale-smoke:
	@tmp=$$(mktemp -d) && \
	go run ./cmd/flsim -clients 100000 -sr 0.001 -rounds 3 \
		-e 1 -b 10 -train 2000 -test 100 \
		-heap-budget-mb 2048 -wall-budget 120s -health \
		-observe $$tmp/run.jsonl && \
	grep -q '"mmd_sample":' $$tmp/run.jsonl && \
	grep -q '"health_stats":' $$tmp/run.jsonl && \
	! grep -q '"client_id":' $$tmp/run.jsonl && \
	go run ./cmd/flsim -method rfedavg+ -clients 1000 -sr 0.02 -e 1 -b 10 \
		-rounds 2 -train 2000 -test 100 -compress dense -heap-budget-mb 700 && \
	rm -rf $$tmp && echo "scale smoke passed"

# Prove the async robustness claim under the race detector: the seeded
# straggler matrix (async rounds within 1.2× fault-free in virtual time
# while sync degrades by the straggler's delay), the end-to-end fold/buffer
# session, the full-buffer bitwise-sync equivalence, the buffered-checkpoint
# resume path, the held-model state machine (elided assigns through retry,
# rejoin, resume, duplicated and corrupted frames), the silent-non-member
# rules (frames only to the cohort; a dead idle peer reaped at the round
# boundary, with deadlines or without, and its slot handed to a rejoiner), a
# rejoiner that never handshakes holding up no round boundary, and the
# virtual-time sessions (a straggler folds at its age and the run replays
# bit for bit; at a sync buffer a virtual session is a live one; fixed and
# adaptive deadlines evict the same clients in the same rounds every run),
# and the send path: a stuck send ends at its phase's deadline, and a send
# under a deadline allocates nothing.
CHAOS_TESTS = TestAsyncStragglerMatrix|TestAsyncSessionFoldsStraggler|TestAsyncFullBufferMatchesSync|TestResumeRestoresBufferedUpdates|TestDeadlineController|TestElide|TestCohortWireLaw|TestCohortReapsDeadUnsampledPeer|TestSilentRejoinerDoesNotStall|TestAsyncVirtualReplays|TestAsyncVirtualSyncMatchesPipes|TestVirtualDeadlinesReplay|TestDeadlineConnSendTimeout|TestPeerSendAllocs
chaos-smoke:
	$(call require-tests,./internal/transport,$(CHAOS_TESTS))
	go test -race -count 1 ./internal/transport -run '$(CHAOS_TESTS)'

# The full benchmark harness: one testing.B benchmark per paper table and
# figure plus ablations.
bench:
	go test -bench=. -benchmem ./...

# The repo benchmark (benchmark/, its own module, invisible to ./...) ships
# a smoke test that builds it and runs every workload briefly.
bench-e2e-smoke:
	cd benchmark && go test .

# A short fuzz pass over the two decoders that read untrusted bytes: the
# checkpoint file reader and the transport frame reader with its packed
# (compressed) payload headers. Malformed, truncated, or forged input must
# error, never panic or over-allocate.
fuzz-short:
	$(call require-tests,./internal/transport,^FuzzReadCheckpoint$$|^FuzzReadMessage$$)
	go test ./internal/transport -run '^$$' -fuzz '^FuzzReadCheckpoint$$' -fuzztime 10s
	go test ./internal/transport -run '^$$' -fuzz '^FuzzReadMessage$$' -fuzztime 10s

# Regenerate every table/figure at the fast scale (minutes each; raw
# outputs land in results/).
repro-fast:
	go run ./cmd/flbench -exp all -scale fast

# Same at the CI-sized bench scale (seconds each).
repro-bench:
	go run ./cmd/flbench -exp all -scale bench

examples:
	go run ./examples/quickstart
	go run ./examples/convex_theory
	go run ./examples/private_delta
	go run ./examples/efficient_uplink
	go run ./examples/crossdevice_text
	go run ./examples/crosssilo_image

# Go lines for the module and per internal package: non-test code (the count
# ROADMAP's net-negative goal is held to) and *_test.go beside it. benchmark/
# is its own module and .bench_build/ is what running it leaves behind;
# neither counts. The drivers row is fl + transport + engine, the sum the
# engine merge's ≥ 25 % target was counted against: 6,040 after its first
# step, 5,930 after its last.
loc:
	@count() { find "$$@" ! -path './benchmark/*' ! -path './.bench_build/*' -exec cat {} + | wc -l; }; \
	row() { printf '%-24s %6d %6d\n' "$$1" $$(count $$2 -name '*.go' ! -name '*_test.go') $$(count $$2 -name '*_test.go'); }; \
	printf '%-24s %6s %6s\n' '' code tests; \
	row module .; \
	row drivers 'internal/fl internal/transport internal/engine'; \
	for d in internal/* cmd/*; do row $$d $$d; done

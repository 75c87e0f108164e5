GO ?= go

.PHONY: all build test vet fmt golden race fuzz bench-smoke cross check no-unsafe no-gob size clean

all: check

build:
	$(GO) build ./...

# Twice: with the AVX2 bodies of internal/linalg where the CPU has them, and
# under -tags purego, where the Go loops are the whole kernel (what a CPU
# without AVX2, or another GOARCH, runs).
test:
	$(GO) test ./...
	$(GO) test -tags purego ./...

# vet's asmdecl pass checks the assembly's frame offsets against the Go
# declarations.
vet:
	$(GO) vet ./...

# The files a non-amd64 build uses must keep compiling (works offline).
cross:
	GOARCH=arm64 $(GO) build ./...
	GOARCH=arm64 $(GO) vet ./internal/linalg ./internal/nn

# gofmt prints the files it would change; any name is a failure.
# (.bench_build/ holds the benchmark's private GOPATH and build cache.)
fmt:
	@out="$$(find . -name '*.go' -not -path './.bench_build/*' | xargs gofmt -l)"; \
	if [ -n "$$out" ]; then echo 'gofmt -l lists:' >&2; echo "$$out" >&2; exit 1; fi
	@echo "fmt: gofmt -l clean"

# The golden decision-bits test, the golden decision trace (every batch's
# TraceEvent on the six Table I streams, byte for byte against
# internal/core/testdata/decision_trace) and the kernels' differential tests
# (the GEMM forms, the row sum, the SGD step, the packed bit compare, and NaN
# signs and payloads through every store epilogue) at three GOMAXPROCS values, with and without the assembly
# bodies: the GEMM fan-out partition depends on it and must never change a
# bit — nor may the choice between the assembly bodies and the Go loops. Then
# ExpInto, LogInto and the softmax against math with math.Exp's
# FMA body switched off: on an FMA machine that is the only way to check that
# the probe then rejects the FMA replica and ExpInto is math.Exp's own loop.
# (Not the golden hashes or the trace: they are an FMA host's.) The public
# facade's Example tests print G_acc and SI; their Output blocks are pinned
# the same way, and so are the model weights a stream ends with
# (TestDeferredCloseLandsInlineModels), and the twin learners that hold a
# Process fed an Infer's forwards to one that runs its own
# (TestForwardHandoffTwins) — also under each guard policy, where the Process
# takes the Infer's checked slab as its guard's scan and its detector's mean
# (TestGuardedHandoffTwins), and on the six Table I streams answers — labels,
# distributions and trace weights — with the fusion its Infer computed
# (TestAnswerHandoffTwins; TestTraceEventOwnsItsWeights: a trace event keeps its
# own copy of those weights) — and the twin learners that hold a caller reusing
# one row and label buffer for every batch to one handing fresh rows
# (TestReusedBufferTwins: what the learner keeps, it copies). The window close,
# split across two Train calls, is held bit for bit to the inline row close,
# chunk losses and weights, by the strategy package's Close tests.
golden:
	$(GO) test -cpu 1,2,4 -run 'Golden|LandsInline|ForwardHandoffTwins|GuardedHandoffTwins|AnswerHandoffTwins|TraceEventOwns|ReusedBufferTwins|SlabAndMeanHandoffTwins' ./internal/core
	$(GO) test -tags purego -cpu 1,2,4 -run 'Golden|LandsInline|ForwardHandoffTwins|GuardedHandoffTwins|AnswerHandoffTwins|TraceEventOwns|ReusedBufferTwins|SlabAndMeanHandoffTwins' ./internal/core
	$(GO) test -cpu 1,2,4 -run Close ./internal/strategy
	$(GO) test -tags purego -cpu 1,2,4 -run Close ./internal/strategy
	$(GO) test -cpu 1,2,4 -run Example .
	$(GO) test -tags purego -cpu 1,2,4 -run Example .
	$(GO) test -cpu 1,2,4 -run 'Gemm|Kernel|NaN' ./internal/linalg
	$(GO) test -tags purego -cpu 1,2,4 -run 'Gemm|Kernel|NaN' ./internal/linalg
	GODEBUG=cpu.fma=off $(GO) test -run 'Exp|Log|Softmax' ./internal/linalg ./internal/nn

# internal/dist runs three times over: its connection pool and the
# kill-and-restart-under-load test are concurrent code, and a flaky
# interleaving must show up here. So do internal/strategy and internal/core:
# readers of published snapshots share the process-wide workspace pool with
# each other and run beside the trainer, and park their workspaces in the
# learner's hand-off slot for it, which Process swaps out before its guard
# runs (TestForwardHandoffConcurrentReaders: a reader of non-finite rows is
# refused there and parks nothing). The trainer refills the storage of the
# parameter copies it published once no reader counts on them: every answer
# readers get while it trains equals a serial replay's at the publication
# they report, distributions bit for bit, and the race detector sees each
# refill ordered after the last read of that storage
# (TestReadersMatchSerialReplay).
race:
	$(GO) test -race ./...
	$(GO) test -race -count=3 ./internal/dist
	$(GO) test -race -count=3 ./internal/strategy ./internal/core

# Fuzzing, 20 s each: the GEMM kernels against their oracles (exact bits,
# n ≤ 90 and m, k ≤ 260, every shape through the Go loops and the assembly
# bodies), the binary frame decoder's total-safety contract (a clean
# ErrMalformed or a consistent shape, never a panic), the JSON batch parser
# against encoding/json, and its number scanner against strconv
# (ParseFloat's bits and Atoi's labels, accept/reject verdicts included).
fuzz:
	$(GO) test ./internal/linalg -run '^$$' -fuzz FuzzGemmShapes -fuzztime 20s
	$(GO) test ./internal/wire -run '^$$' -fuzz FuzzDecodeInto -fuzztime 20s
	$(GO) test ./internal/wire -run '^$$' -fuzz FuzzDecodeJSON -fuzztime 20s
	$(GO) test ./internal/wire -run '^$$' -fuzz FuzzParseNumber -fuzztime 20s

# Every benchmark body of the kernel, network, window, cluster, session, shift,
# wire, model and baselines packages, once (BenchmarkObserveMean: the detector at
# a full 512-centroid history), the learn_drift profile's (BenchmarkLearnDrift)
# and the observer's cost pair (BenchmarkLearner{Un,}Instrumented, DESIGN.md's
# "Instrumentation cost"): the before/after tables of a kernel or decoder change
# are these benchmarks (BenchmarkGemmForward runs the class head's products as
# the layers issue them), and the profile a change to the training plane is sized
# on is BenchmarkLearnDrift's, so a body that no longer builds or panics fails
# here, not in the next change that needs it.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./internal/linalg ./internal/nn ./internal/window ./internal/cluster ./internal/session ./internal/shift ./internal/wire ./internal/model ./internal/baselines
	$(GO) test -run '^$$' -bench 'LearnDrift|Learner(Uni|I)nstrumented' -benchtime 1x ./internal/core

# The GEMM kernels are bounds-checked Go wrappers around assembly bodies (and
# the Go loops that are their tail and fallback) whose bitwise contract is
# tested against the oracle: every pointer the assembly sees comes from a slice
# expression, so no unsafe may enter the compute packages.
no-unsafe:
	@if grep -rn '"unsafe"' internal/linalg internal/nn --include='*.go'; then \
		echo 'unsafe import found in kernel packages' >&2; exit 1; \
	fi
	@echo "no-unsafe: kernel packages clean"

# A model's saved state is its parameter image (internal/nn), not gob: the
# checkpoint's outer payload is the one gob left, until the checkpoint is
# reshaped into flat sections too.
no-gob:
	@if grep -rln '"encoding/gob"' --include='*.go' . | grep -v '_test\.go$$' | grep -v '^\./\.bench_build/' | grep -vx './internal/core/checkpoint.go'; then \
		echo 'encoding/gob imported outside internal/core/checkpoint.go' >&2; exit 1; \
	fi
	@echo "no-gob: only the checkpoint payload imports encoding/gob"

# Line counts: non-test Go (benchmark/ and cmd/ included), test Go, and amd64
# assembly. .bench_build/ holds the benchmark's private GOPATH, not the repo's
# code.
size:
	@lines() { find . -path ./.bench_build -prune -o -type f "$$@" -print | xargs cat | wc -l; }; \
	echo "size: $$(lines -name '*.go' ! -name '*_test.go') non-test Go, $$(lines -name '*_test.go') test Go, $$(lines -name '*_amd64.s') amd64 assembly lines"

# The full gate: everything CI runs.
check: build vet fmt no-unsafe no-gob cross test golden race bench-smoke

clean:
	$(GO) clean ./...

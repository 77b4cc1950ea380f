# Development entry points, mirroring .github/workflows/ci.yml so that
# `make lint` / `make test` / `make bench` reproduce locally exactly what CI
# gates on. staticcheck and govulncheck are skipped (with a notice) when the
# pinned tools are not installed, so the core targets work offline.

GO        ?= go
BIN       := $(CURDIR)/bin
HETRTALINT := $(BIN)/hetrtalint

STATICCHECK_VERSION := 2025.1
GOVULNCHECK_VERSION := v1.1.4

.PHONY: all lint test bench chaos fmt vet vettool staticcheck govulncheck tools clean

all: lint test

# --- lint: gofmt + vet + vettool + staticcheck, identical to the CI lint job.

lint: fmt vet vettool staticcheck govulncheck

fmt:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:" >&2; echo "$$out" >&2; exit 1; \
	fi

vet:
	$(GO) vet ./...

# The repo's own analyzers (detmap, ctxpoll, boundreg, hotalloc) run as a
# vettool, so cmd/go caches their per-package results.
vettool: $(HETRTALINT)
	$(GO) vet -vettool=$(HETRTALINT) ./...

$(HETRTALINT): FORCE
	@mkdir -p $(BIN)
	$(GO) build -o $(HETRTALINT) ./cmd/hetrtalint

FORCE:

staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (make tools to install)"; \
	fi

govulncheck:
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "govulncheck not installed; skipping (make tools to install)"; \
	fi

# --- test: the CI race + shuffle matrix.

test:
	$(GO) build ./...
	$(GO) test -race -shuffle=on -count=1 ./...

# --- chaos: the deterministic fault-injection suite, exactly as the CI
# chaos job runs it: resilience primitives, the service chaos invariants,
# and the daemon resilience end-to-end tests, under -race twice; plus the
# exact oracle under -race at 1, 2, and 4 CPUs, which checks that its
# results do not depend on GOMAXPROCS.

chaos:
	$(GO) test -race -count=2 ./internal/resilience/...
	$(GO) test -race -count=2 -run 'TestChaos|TestFailureNeverCached|TestDroppedCacheAdd|TestForcedCacheMiss|TestResidentReport|TestAdmitResultReport|TestExecPanic|TestBatchLone|TestBatchHoldsNoCharge' ./internal/service
	$(GO) test -race -count=2 -run 'TestShedding|TestDegraded|TestBatchDegraded|TestBatchPanic|TestHandlerPanic|TestGracefulShutdown|TestShutdownGrace|TestBodySize|TestReadyz' ./cmd/dagrtad
	$(GO) test -race -cpu=1,2,4 ./internal/exact

# --- bench: the CI bench job — the serving harness's own tests, then the
# benchmark regression gates: the root suite against the latest
# BENCH_<n>.json, the daemon handler against BENCH_DAGRTAD_1.json.

bench:
	$(GO) -C bench test .
	@baseline=$$(ls BENCH_[0-9]*.json | sort -t_ -k2 -n | tail -1); \
	echo "comparing against $$baseline"; \
	$(GO) run ./cmd/benchreport -out bench_local.json -baseline "$$baseline" -benchtime 2x -threshold 2
	$(GO) run ./cmd/benchreport -pkg ./cmd/dagrtad -out bench_local_dagrtad.json -baseline BENCH_DAGRTAD_1.json -benchtime 2x -threshold 2

# --- tools: install the pinned external linters (requires network).

tools:
	$(GO) install honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION)
	$(GO) install golang.org/x/vuln/cmd/govulncheck@$(GOVULNCHECK_VERSION)

clean:
	rm -rf $(BIN) bench_local.json bench_local_dagrtad.json

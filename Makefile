GO ?= go

## COVER_FLOOR is the coverage baseline `make cover` enforces. Raise it when
## coverage grows; never lower it to make a failing build pass. Coverage is
## measured with -coverpkg=./... (union across all test binaries) because the
## analyzer driver (internal/analysis/lintcore) and golden-test harness
## (linttest) are deliberately exercised from other packages' tests; without
## cross-package accounting their genuinely-executed statements would count
## as dead.
COVER_FLOOR ?= 86.0

## FUZZ_SMOKE_TIME bounds each fuzz target's run in `make fuzz-smoke`: long
## enough to mutate past the seed corpus, short enough for every CI run.
FUZZ_SMOKE_TIME ?= 10s

.PHONY: check build vet lint loc digests test cover fuzz-smoke bench bench-sync bench-wal

## check is the tier-1 verification gate: every PR must leave it green.
check: build vet lint test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

## lint runs dtnlint, the repository's own invariant checker (see
## internal/analysis and DESIGN.md §10): determinism, callbackunderlock,
## transientleak, errdiscard, lockorder, and unboundedgrowth. Any diagnostic
## fails the build. A violation may be suppressed with
## `//lint:allow <analyzer> -- <justification>` ONLY when
## the flagged code upholds the invariant by other documented means (e.g. a
## callback contractually forbidden from re-entering, a transient field that
## is an explicit part of the wire protocol); the justification is mandatory
## and reviewed like code. Never allow-list to silence a finding you have
## not analyzed — fix it or escalate.
##
## The binary lands in bin/. Packages are analyzed one at a time in
## dependency order; the whole repository takes about a second.
##
## Every concept has exactly one encoding, the internal/wire binary layout
## (DESIGN.md §14): lint also fails if any Go file in the module — tests and
## testdata included, tracked or not yet added — imports encoding/gob.
lint:
	$(GO) build -o bin/dtnlint ./cmd/dtnlint
	./bin/dtnlint ./...
	@if git ls-files --cached --others --exclude-standard '*.go' | xargs grep -l '"encoding/gob"'; then \
		echo 'lint: encoding/gob imported (files above); every concept has one encoding (DESIGN.md §14)'; exit 1; fi

## loc prints the Go line counts the ROADMAP tracks — non-test and test,
## testdata excluded — for the whole repo, then for each internal/* and
## cmd/* directory, subdirectories included.
loc:
	@count() { find $$1 -name '*.go' -not -path '*/testdata/*' $$2 -name '*_test.go' -print0 | xargs -0 cat | wc -l; }; \
	printf '%-24s %8s %8s\n' tree non-test test; \
	printf '%-24s %8d %8d\n' 'whole repo' $$(count . -not) $$(count .); \
	for d in internal/*/ cmd/*/; do \
		printf '%-24s %8d %8d\n' $${d%/} $$(count $$d -not) $$(count $$d); \
	done

## digests prints the SHA-256 of `dtnsim -experiment all`, of
## `-experiment fault-sweep` and of `-experiment summary`, the before/after
## check that a change leaves every emulated table byte-identical (a few
## seconds each); the byte columns (fault-sweep's `know B/enc`, all's sync
## overhead table) move with the knowledge layout alone. The outputs stay in
## bin/ for a diff when a digest moves.
digests:
	$(GO) build -o bin/dtnsim ./cmd/dtnsim
	@for e in all fault-sweep summary; do \
		./bin/dtnsim -experiment $$e > bin/dtnsim-$$e.txt || exit 1; \
		echo "$$(sha256sum < bin/dtnsim-$$e.txt | cut -d' ' -f1)  -experiment $$e"; \
	done

## test runs every package under the race detector, in shuffled test order so
## no test leans on state an earlier one left (the order's seed is printed for
## a rerun with -shuffle=<seed>), then again without it every package holding
## an alloc_test.go: the race runtime inflates allocation counts, so the
## allocation budgets (the `//go:build !race` alloc_test.go files) compile
## only in the second pass. The package list is
## derived from those files, tracked or not yet added, so a new budget file
## runs without touching this rule.
test:
	$(GO) test -race -shuffle=on ./...
	$(GO) test -count=1 $$(git ls-files --cached --others --exclude-standard '*alloc_test.go' | xargs -n1 dirname | sort -u | sed 's|^|./|')

## cover fails if total statement coverage drops below COVER_FLOOR.
cover:
	$(GO) test -coverpkg=./... -coverprofile=coverage.out ./...
	@$(GO) tool cover -func=coverage.out | tail -1
	@$(GO) tool cover -func=coverage.out | awk -v floor=$(COVER_FLOOR) \
		'END { sub(/%/, "", $$3); if ($$3 + 0 < floor + 0) { \
			printf "coverage %.1f%% is below the %.1f%% floor\n", $$3, floor; exit 1 } }'

## fuzz-smoke runs each native fuzz target briefly against the
## parse-hostile surfaces — the transport's frame stream, the frame bodies
## and routing deltas (internal/wire), the vclock knowledge codec, the WAL's
## crash-recovery readers, and discovery beacons — and against the serve,
## whose batches and stores an op sequence of puts, updates, deletes, serves
## and restores holds to its reference, complementing the static dtnlint pass with
## dynamic checking. Seed corpora live under each package's testdata/fuzz
## (regenerate with `go test -tags corpusgen -run WriteFuzzCorpus`; for the
## WAL, `WAL_GEN_CORPUS=1 go test -run TestGenerateFuzzCorpus
## ./internal/persist/wal/`). Any crasher fails the target; run the printed
## reproducer file under `go test` to debug.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzKnowledgeDecode$$' -fuzztime $(FUZZ_SMOKE_TIME) ./internal/vclock/
	$(GO) test -run '^$$' -fuzz '^FuzzKnowledgeMerge$$' -fuzztime $(FUZZ_SMOKE_TIME) ./internal/vclock/
	$(GO) test -run '^$$' -fuzz '^FuzzDeltaDecode$$' -fuzztime $(FUZZ_SMOKE_TIME) ./internal/vclock/
	$(GO) test -run '^$$' -fuzz '^FuzzServeConn$$' -fuzztime $(FUZZ_SMOKE_TIME) ./internal/transport/
	$(GO) test -run '^$$' -fuzz '^FuzzWireDecode$$' -fuzztime $(FUZZ_SMOKE_TIME) ./internal/wire/
	$(GO) test -run '^$$' -fuzz '^FuzzRoutingDeltaDecode$$' -fuzztime $(FUZZ_SMOKE_TIME) ./internal/wire/
	$(GO) test -run '^$$' -fuzz '^FuzzWALReplay$$' -fuzztime $(FUZZ_SMOKE_TIME) ./internal/persist/wal/
	$(GO) test -run '^$$' -fuzz '^FuzzBeaconDecode$$' -fuzztime $(FUZZ_SMOKE_TIME) ./internal/discovery/
	$(GO) test -run '^$$' -fuzz '^FuzzHandleSyncRequest$$' -fuzztime $(FUZZ_SMOKE_TIME) ./internal/replica/

## bench runs the hot-path microbenchmarks (store mutation, sync batch
## assembly, whole emulation runs, one MaxProp-served sync, one routing-state
## exchange per PROPHET and MaxProp, one bulk pull over loopback — B/op is the
## number to watch there — one WAL segment merge, and the observability hooks'
## disabled-path overhead) with allocation stats, for before/after comparisons.
## The alloc budget test turns the sync entry points' measured allocs/op
## into a hard assertion (it must run without -race; the race runtime inflates
## allocation counts); `make test` runs it and every other alloc_test.go too.
bench:
	$(GO) test -run 'TestSyncAllocBudget' -count=1 ./internal/replica/
	$(GO) test -run xxx -bench 'BenchmarkStorePut' -benchmem ./internal/store/
	$(GO) test -run xxx -bench 'BenchmarkHandleSyncRequest|BenchmarkMakeSyncRequest' -benchmem ./internal/replica/
	$(GO) test -run xxx -bench 'BenchmarkEmuRun' -benchmem ./internal/emu/
	$(GO) test -run xxx -bench 'BenchmarkMaxPropServe' -benchmem ./internal/routing/maxprop/
	$(GO) test -run xxx -bench 'BenchmarkRoutingExchange' -benchmem ./internal/routing/
	$(GO) test -run xxx -bench 'BenchmarkPullBatch' -benchmem ./internal/transport/
	$(GO) test -run xxx -bench 'BenchmarkCompaction' -benchmem ./internal/persist/wal/
	$(GO) test -run xxx -bench 'BenchmarkSyncHooks' -benchmem .

## bench-sync measures the knowledge-frame bytes each sync request mode
## ships at 10k+ known versions — exact frame and recurring-pair delta — plus
## the sync-response frame codec, with allocation stats. Results are recorded
## in BENCH_sync.json; refresh the file when the knowledge codec, delta
## protocol, or frame codec changes. The >=5x
## reduction the file reports is pinned as a regular test by
## TestKnowledgeFrameReduction.
bench-sync:
	$(GO) test -run xxx -bench 'BenchmarkKnowledgeFrame' -benchmem ./internal/replica/
	$(GO) test -run xxx -bench 'BenchmarkSyncResponseCodec' -benchmem ./internal/wire/

## bench-wal measures the write-ahead-log backend: the per-mutation append
## cost (encode + frame + fsync bookkeeping) with and without memtable
## flushing, and recovery time against logs of growing length. Results are
## recorded in BENCH_wal.json — refresh the file when the record format,
## flush policy, or recovery path changes.
bench-wal:
	$(GO) test -run xxx -bench 'BenchmarkWAL' -benchmem ./internal/persist/wal/

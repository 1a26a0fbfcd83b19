#!/bin/sh
# Repo-wide gate: build, vet, a gofmt check over every Go file (the
# benchmark module included), the default test pass (which executes the
# seeded fuzz corpora as regression cases and the cmd end-to-end smokes,
# the trace/metrics exporters included), a race-enabled pass over the
# concurrent machinery, the kernel, frame-codec and graph-loading
# (BenchmarkReadEdgeList, BenchmarkBuild) microbenchmark smokes,
# the race-enabled kernel differential suite (the msbfs fuzz corpus
# included) together with the path suite (every preset and kernel walks
# the same shortest paths), bounded fuzzes of the store's frame decoder
# against its reference, of msbfs against a plain BFS, of the min-plus
# kernels (FoldRow, RelaxWeighted, RelaxLanes) against their scalar
# references and of graph loading (the edge-list parser and the CSR
# builder) against the string-based parser and one-sort build they
# replaced, the store's and the solver's first-use races (shared-dictionary put/get;
# eight workers building the same rows' fold views at once), the
# performance gate (scripts/gate: the tiered store's memory-wall
# contracts and the kernel race, held against scripts/gate_baseline.json),
# and the benchmark module's own vet and smoke test. Run from anywhere
# inside the repo.
set -eu

cd "$(dirname "$0")/.."

echo "== go build ./..."
go build ./...

echo "== go vet ./..."
go vet ./...

echo "== gofmt -l . (every Go file, cmd/parapspbench included)"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt: these files need formatting:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go test -shuffle=on ./... (fuzz seed corpus + cmd e2e smoke included)"
go test -shuffle=on ./...

echo "== go test -race . ./internal/..."
go test -race . ./internal/...

echo "== kernel + frame codec + graph loading microbenchmarks (1 iteration, smoke)"
go test -run '^$' -bench . -benchtime=1x ./internal/kernel/
go test -run '^$' -bench Frame -benchtime=1x ./internal/store/
go test -run '^$' -bench '^BenchmarkReadEdgeList$' -benchtime=1x ./internal/gio/
go test -run '^$' -bench '^BenchmarkBuild$' -benchtime=1x ./internal/graph/

echo "== store frame codec: 10 s fuzz of the decoder vs its reference + shared-dictionary put/get (race-enabled, 10 runs)"
go test -run '^$' -fuzz '^FuzzDecodeFrame$' -fuzztime 10s ./internal/store/
echo "== msbfs lane engine: 10 s fuzz of one batch vs a plain BFS per source"
go test -run '^$' -fuzz '^FuzzBatchMSBFS$' -fuzztime 10s ./internal/core/
go test -race -count=10 -run '^TestStoreConcurrent' ./internal/store/
echo "== min-plus kernels: 10 s fuzzes of FoldRow, RelaxWeighted and RelaxLanes vs their scalar references"
go test -run '^$' -fuzz '^FuzzFoldRow$' -fuzztime 10s ./internal/kernel/
go test -run '^$' -fuzz '^FuzzRelaxWeighted$' -fuzztime 10s ./internal/kernel/
go test -run '^$' -fuzz '^FuzzRelaxLanes$' -fuzztime 10s ./internal/kernel/
echo "== graph loading: 10 s fuzzes of the edge-list parser and the CSR builder vs their references"
go test -run '^$' -fuzz '^FuzzReadEdgeList$' -fuzztime 10s ./internal/gio/
go test -run '^$' -fuzz '^FuzzBuilder$' -fuzztime 10s ./internal/graph/

echo "== fold views: eight workers fold the same rows for the first time at once (race-enabled, 10 runs)"
go test -race -count=10 -run '^TestFoldViewFirstFoldRace$' ./internal/core/

echo "== kernel differential suite (registry battery + batch engines vs scalar + msbfs fuzz corpus) + path suite (race-enabled)"
go test -race -run 'TestBatch|TestKernel|TestPath|FuzzBatchMSBFS' -count=1 ./internal/core/

echo "== cluster chaos e2e + shard-config fuzz corpus (race-enabled)"
go test -race -run 'TestClusterChaos|TestRouter|TestDifferentialPartitioning|FuzzParseShardConfig' \
    -count=1 ./internal/e2e/ ./internal/cluster/

echo "== dynamic-graph differential suite + /edge fuzz corpus (race-enabled)"
go test -race -run 'TestDynamic|TestMetamorphic|TestRepair|TestStore|TestSnapshot|TestVersionPinned|TestEdgeEndpoint|TestMutate|FuzzParseEdgeOp' \
    -count=1 ./internal/dyn/ ./internal/serve/ ./internal/graph/

echo "== admission suite: quotas, tiers, ledger reconciliation via /metrics + tier fuzz corpus (race-enabled)"
go test -race -run 'Test|FuzzParseTier' -count=1 ./internal/admit/
go test -race -run 'TestTierDifferentialUnderLoad|TestQuotaLedgerOverHTTP|TestBackpressure' -count=1 ./internal/serve/
go test -race -run 'TestRouterTierPassthrough|TestRouterEdgeQuota' -count=1 ./internal/cluster/

echo "== performance gate: tiered-store contracts + kernel race vs scripts/gate_baseline.json"
go run ./scripts/gate

echo "== benchmark module: vet + smoke test (its own go.mod; the root build skips it)"
(cd cmd/parapspbench && go vet . && go test -count=1 .)

echo "OK"

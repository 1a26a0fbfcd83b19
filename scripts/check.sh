#!/bin/sh
# Repo-wide gate: build, vet, the default test pass (which executes the
# seeded fuzz corpora as regression cases and the cmd end-to-end smokes),
# a race-enabled pass over the concurrent machinery, and one-iteration
# smokes of the bench/exporter rigs so a path that compiles but traps
# fails fast. Run from anywhere inside the repo.
set -eu

cd "$(dirname "$0")/.."

echo "== go build ./..."
go build ./...

echo "== go vet ./..."
go vet ./...

echo "== go test -shuffle=on ./... (fuzz seed corpus + cmd e2e smoke included)"
go test -shuffle=on ./...

echo "== go test -race . ./internal/..."
go test -race . ./internal/...

echo "== kernel microbenchmarks (1 iteration, smoke)"
go test -run '^$' -bench . -benchtime=1x ./internal/kernel/

echo "== kernel differential suite (registry battery + batch engines vs scalar, race-enabled)"
go test -race -run 'TestBatch|TestKernel' -count=1 ./internal/core/

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

echo "== obs exporters (trace + metrics smoke, tiny scale)"
tmpdir="$(mktemp -d)"
trap 'rm -rf "$tmpdir"' EXIT
go run ./cmd/apspbench -scale 0.2 -threads 1,2 -trace "$tmpdir/trace.json" \
    -metrics > "$tmpdir/metrics.json"
go run ./scripts/jsonok "$tmpdir/trace.json" "$tmpdir/metrics.json"

echo "== serve bench (tiny scale, report JSON smoke)"
go run ./cmd/apspbench -scale 0.1 -servejson "$tmpdir/serve.json"
go run ./scripts/jsonok "$tmpdir/serve.json"

echo "== batch bench (tiny scale, report JSON smoke; asserts batch == scalar checksums)"
go run ./cmd/apspbench -scale 0.05 -batchjson "$tmpdir/batch.json"
go run ./scripts/jsonok "$tmpdir/batch.json"

echo "== kernel comparison bench (tiny scale, report JSON smoke; asserts kernel checksums agree)"
go run ./cmd/apspbench -scale 0.2 -threads 1,2 -kerneljson "$tmpdir/kernelcmp.json"
go run ./scripts/jsonok "$tmpdir/kernelcmp.json"

echo "== kernel regression gate (reduced-scale measurement vs checked-in baseline)"
scripts/kernelgate.sh

echo "== tiered-store memory gate (reduced-scale storebench vs checked-in baseline)"
scripts/storegate.sh

echo "== benchmark module: vet + smoke test (its own go.mod; the root build skips it)"
(cd cmd/parapspbench && go vet . && go test -count=1 .)

echo "OK"

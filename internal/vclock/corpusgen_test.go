//go:build corpusgen

package vclock

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"testing"
)

// TestWriteFuzzCorpus regenerates the checked-in seed corpus under
// testdata/fuzz. It is excluded from normal builds by the corpusgen tag; run
//
//	go test -tags corpusgen -run WriteFuzzCorpus ./internal/vclock/
//
// after changing the wire format or the seed set, and commit the result. The
// corpus pins the shapes the fuzzers must keep exploring: canonical
// encodings, non-canonical ones the decoder must normalize, truncations, and
// forged counts.
func TestWriteFuzzCorpus(t *testing.T) {
	seeds := decodeSeeds()
	names := []string{
		"seed-empty", "seed-typical", "seed-noncanonical",
		"seed-truncated", "seed-forged-count", "seed-trailing",
	}
	if len(names) != len(seeds) {
		t.Fatalf("have %d seed names for %d seeds", len(names), len(seeds))
	}
	for i, seed := range seeds {
		writeCorpusFile(t, "FuzzKnowledgeDecode", names[i], seed)
	}
	for i, seed := range seeds {
		writeCorpusFile(t, "FuzzKnowledgeMerge", names[i],
			seed, seeds[(i+1)%len(seeds)])
	}

	deltaNames := []string{
		"seed-empty", "seed-typical", "seed-missing-body",
		"seed-noncanonical", "seed-forged-count",
	}
	dlSeeds := deltaSeeds()
	if len(deltaNames) != len(dlSeeds) {
		t.Fatalf("have %d delta seed names for %d seeds", len(deltaNames), len(dlSeeds))
	}
	for i, seed := range dlSeeds {
		writeCorpusFile(t, "FuzzDeltaDecode", deltaNames[i], seed)
	}
}

// writeCorpusFile writes one seed in the `go test fuzz v1` corpus format.
func writeCorpusFile(t *testing.T, target, name string, args ...[]byte) {
	t.Helper()
	dir := filepath.Join("testdata", "fuzz", target)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	content := "go test fuzz v1\n"
	for _, a := range args {
		content += fmt.Sprintf("[]byte(%s)\n", strconv.Quote(string(a)))
	}
	if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}

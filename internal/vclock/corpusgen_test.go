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
// encodings and one frame per rule the decoder enforces (order, prefix and
// length bounds, overflow, forged counts, truncation). Each target's
// directory is rewritten whole, so a renamed seed leaves no stale file.
func TestWriteFuzzCorpus(t *testing.T) {
	for _, target := range []string{"FuzzKnowledgeDecode", "FuzzKnowledgeMerge", "FuzzDeltaDecode"} {
		if err := os.RemoveAll(filepath.Join("testdata", "fuzz", target)); err != nil {
			t.Fatal(err)
		}
	}
	seeds := decodeSeeds()
	for i, seed := range seeds {
		writeCorpusFile(t, "FuzzKnowledgeDecode", "seed-"+seed.name, seed.data)
		writeCorpusFile(t, "FuzzKnowledgeMerge", "seed-"+seed.name, seed.data, seeds[(i+1)%len(seeds)].data)
	}
	for _, seed := range deltaSeeds() {
		writeCorpusFile(t, "FuzzDeltaDecode", "seed-"+seed.name, seed.data)
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

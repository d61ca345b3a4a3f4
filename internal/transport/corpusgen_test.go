//go:build corpusgen

package transport

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
//	go test -tags corpusgen -run WriteFuzzCorpus ./internal/transport/
//
// after a wire-protocol change, and commit the result. The valid transcript
// seed matters most: it is what lets mutation reach the deep protocol path
// (hello → sync request → reverse response) instead of dying on frame one.
func TestWriteFuzzCorpus(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzServeConn")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for name, seed := range serveConnSeeds(t) {
		content := fmt.Sprintf("go test fuzz v1\n[]byte(%s)\n", strconv.Quote(string(seed)))
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

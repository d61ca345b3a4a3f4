//go:build corpusgen

package discovery

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
//	go test -tags corpusgen -run WriteFuzzCorpus ./internal/discovery/
//
// after a beacon format change, and commit the result.
func TestWriteFuzzCorpus(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzBeaconDecode")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for name, seed := range beaconSeeds() {
		content := fmt.Sprintf("go test fuzz v1\n[]byte(%s)\n", strconv.Quote(string(seed)))
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

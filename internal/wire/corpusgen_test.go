//go:build corpusgen

package wire

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
//	go test -tags corpusgen -run WriteFuzzCorpus ./internal/wire/
//
// after changing the frame layout or the seed set, and commit the result.
// The corpus pins one valid encoding per frame family (exact/delta requests,
// PROPHET and MaxProp routing requests and routing deltas, a response with
// items, done, a mutation batch) plus the boundary shapes (truncation, bad
// codec version, an out-of-range probability, a request in the retired
// digest form, empty input).
func TestWriteFuzzCorpus(t *testing.T) {
	for target, seeds := range map[string]map[string][]byte{
		"FuzzWireDecode":         wireFuzzSeeds(t),
		"FuzzRoutingDeltaDecode": routingDeltaFuzzSeeds(t),
	} {
		dir := filepath.Join("testdata", "fuzz", target)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		for name, seed := range seeds {
			content := fmt.Sprintf("go test fuzz v1\n[]byte(%s)\n", strconv.Quote(string(seed)))
			if err := os.WriteFile(filepath.Join(dir, "seed-"+name), []byte(content), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
}

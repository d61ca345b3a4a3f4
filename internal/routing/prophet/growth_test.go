package prophet

import (
	"fmt"
	"testing"

	"replidtn/internal/routing/sorted"
	"replidtn/internal/vclock"
)

// TestPartnerCacheBounded is the regression test for the unbounded partner
// vector cache the dtnlint unboundedgrowth analyzer flagged: one
// predictability vector was retained per peer ever encountered. The cache
// now evicts in insertion order past partnerCap.
func TestPartnerCacheBounded(t *testing.T) {
	var c partnerCache
	vec := sorted.FromMap(map[string]float64{"dest": 0.5})
	for i := 0; i < partnerCap+100; i++ {
		c.store(vclock.ReplicaID(fmt.Sprintf("peer-%05d", i)), vec)
	}
	if len(c.vectors) > partnerCap {
		t.Fatalf("partner cache holds %d vectors, want <= %d", len(c.vectors), partnerCap)
	}
	// FIFO: the first 100 inserts are gone, the most recent survive.
	if _, ok := c.vectors["peer-00000"]; ok {
		t.Fatalf("oldest partner still cached after %d inserts", partnerCap+100)
	}
	if _, ok := c.vectors[vclock.ReplicaID(fmt.Sprintf("peer-%05d", partnerCap+99))]; !ok {
		t.Fatalf("newest partner missing from cache")
	}
	// Re-storing an existing partner must not duplicate its order entry.
	last := vclock.ReplicaID(fmt.Sprintf("peer-%05d", partnerCap+99))
	for i := 0; i < 10; i++ {
		c.store(last, vec)
	}
	if len(c.order) != len(c.vectors) {
		t.Fatalf("order ledger (%d) out of sync with cache (%d)", len(c.order), len(c.vectors))
	}
}

package replica

// SetSummaryPeerCap lowers r's bound on its per-peer summary caches, so an
// external test drives evictions with a handful of peers.
func SetSummaryPeerCap(r *Replica, n int) { r.peerCap = n }

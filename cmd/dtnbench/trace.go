package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"time"

	"replidtn/internal/replica"
	"replidtn/internal/wire"
)

// The traced pass times the calls into each layer's public functions from
// this package: spans inside the program are a later change (ROADMAP item
// 5). One span per call; a span's name is "<layer>.<call>".
type spanName uint8

const (
	spanEncounter spanName = iota
	spanSend
	spanMakeRequest
	spanEncodeRequest
	spanDecodeRequest
	spanHandleRequest
	spanEncodeResponse
	spanDecodeResponse
	spanApplyBatch
	spanFSWrite
	spanFSSync
	spanEmuRun
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"transport.encounter", "messaging.send",
	"replica.make_request", "wire.encode_request", "wire.decode_request",
	"replica.handle_request", "wire.encode_response", "wire.decode_response",
	"replica.apply_batch", "wal.fs_write", "wal.fs_sync", "emu.run",
}

// span is one timed call. Times are nanoseconds since the pass began;
// parent is an index into the tracer's spans (-1 for a root).
type span struct {
	name       spanName
	parent     int32
	encounter  int32
	start, end int64
}

// tracer records the spans of one single-goroutine traced pass in memory.
// While off, begin and end do nothing: the in-process replay runs every
// other encounter that way, with only its root timed, which is the "same
// calls untimed" side of trace.overhead_ratio.
type tracer struct {
	base      time.Time
	spans     []span
	cur       int32 // innermost open span, -1 when none
	encounter int32
	off       bool

	// Frame bytes the replay encoded, whether or not the encounter was
	// traced, and the codec's scratch.
	requestBytes, responseBytes int
	reqBuf, respBuf             []byte
	lastResponse                []byte // a copy of the last response frame that carried items
}

func newTracer(expectSpans int) *tracer {
	return &tracer{base: time.Now(), spans: make([]span, 0, expectSpans), cur: -1}
}

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

// begin opens a span under the innermost open one and returns its index
// (-1 while the tracer is off).
func (t *tracer) begin(name spanName) int32 {
	if t.off {
		return -1
	}
	idx := int32(len(t.spans))
	t.spans = append(t.spans, span{name: name, parent: t.cur, encounter: t.encounter, start: t.now()})
	t.cur = idx
	return idx
}

func (t *tracer) end(idx int32) {
	if idx < 0 {
		return
	}
	t.spans[idx].end = t.now()
	t.cur = t.spans[idx].parent
}

// meet replays one encounter in process, calling for each leg, in the order
// transport's pullBatch and serveBatch do: MakeSummaryRequest or
// MakeSyncRequest, AppendSyncRequest, DecodeSyncRequest, HandleSyncRequest
// (plus the exact-knowledge round when demanded), AppendSyncResponse,
// DecodeSyncResponse, ApplyBatch. It returns the root's duration.
func (t *tracer) meet(dialer *replica.Replica, listener *peer, maxItems int) (replica.EncounterResult, time.Duration, error) {
	t.encounter++
	var out replica.EncounterResult
	start := t.now()
	root := t.begin(spanEncounter)
	// Leg 1: the dialer pulls from the listener; leg 2: roles alternate.
	var err error
	out.BtoA, err = t.pull(dialer, listener.r, maxItems, listener.maxItems)
	if err == nil {
		out.AtoB, err = t.pull(listener.r, dialer, listener.maxItems, maxItems)
	}
	t.end(root)
	return out, time.Duration(t.now() - start), err
}

// pull runs one directed synchronization: target requests, source serves.
// requestMax is the bound the target asks for and clampMax the one the
// source enforces, as transport.clampItems does.
func (t *tracer) pull(target, source *replica.Replica, requestMax, clampMax int) (replica.SyncResult, error) {
	var res replica.SyncResult
	s := t.begin(spanMakeRequest)
	var req *replica.SyncRequest
	if target.SummariesEnabled() {
		req = target.MakeSummaryRequest(source.ID(), requestMax)
	} else {
		req = target.MakeSyncRequest(requestMax)
	}
	t.end(s)
	resp, err := t.exchange(req, source, clampMax)
	if err != nil {
		return res, err
	}
	if resp.NeedKnowledge {
		res.Fallback = true
		s = t.begin(spanMakeRequest)
		retry := target.MakeFallbackRequest(source.ID(), requestMax, req.Routing)
		t.end(s)
		if resp, err = t.exchange(retry, source, clampMax); err != nil {
			return res, err
		}
		if resp.NeedKnowledge {
			return res, fmt.Errorf("replay: %s demanded knowledge twice", source.ID())
		}
	}
	res.Sent = len(resp.Items)
	s = t.begin(spanApplyBatch)
	res.Apply = target.ApplyBatch(resp)
	t.end(s)
	return res, nil
}

// exchange carries one request to the source and its response back through
// the frame codec, as the v3 transport does minus the socket.
func (t *tracer) exchange(req *replica.SyncRequest, source *replica.Replica, clampMax int) (*replica.SyncResponse, error) {
	s := t.begin(spanEncodeRequest)
	buf, err := wire.AppendSyncRequest(t.reqBuf[:0], req)
	t.end(s)
	if err != nil {
		return nil, err
	}
	t.reqBuf = buf
	t.requestBytes += len(buf)

	s = t.begin(spanDecodeRequest)
	got, err := wire.DecodeSyncRequest(buf)
	t.end(s)
	if err != nil {
		return nil, err
	}
	if clampMax > 0 && (got.MaxItems == 0 || got.MaxItems > clampMax) {
		got.MaxItems = clampMax
	}

	s = t.begin(spanHandleRequest)
	resp := source.HandleSyncRequest(got)
	t.end(s)

	s = t.begin(spanEncodeResponse)
	//lint:allow transientleak -- the replay mirrors the transport's response frame, where BatchItem.Transient is an explicit field of the wire protocol
	buf, err = wire.AppendSyncResponse(t.respBuf[:0], resp)
	t.end(s)
	if err != nil {
		return nil, err
	}
	t.respBuf = buf
	t.responseBytes += len(buf)
	if len(resp.Items) > 0 {
		t.lastResponse = append(t.lastResponse[:0], buf...)
	}

	s = t.begin(spanDecodeResponse)
	back, err := wire.DecodeSyncResponse(buf)
	t.end(s)
	return back, err
}

// spanStats summarizes a pass's spans.
type spanStats struct {
	// calls is each name's self time per call: a span's duration minus the
	// part its child spans cover.
	calls [numSpanNames][]time.Duration
	// perEncounter is each name's self time summed over one encounter, both
	// legs, so that a workload whose legs differ (a big store serving a
	// small one) has one number per layer and the layers add up to the
	// encounter. Spans under a send are not part of any encounter.
	perEncounter [numSpanNames][]time.Duration
	// longest is each name's longest single call, children included.
	longest [numSpanNames]time.Duration
	// coverage is the smallest share of an encounter root that its child
	// spans account for; childOverrun counts spans whose children sum to
	// more than the span itself (must be 0).
	coverage     float64
	childOverrun int
}

func (t *tracer) stats() spanStats {
	st := spanStats{coverage: 1}
	children := make([]int64, len(t.spans))
	for i := range t.spans {
		if p := t.spans[i].parent; p >= 0 {
			children[p] += t.spans[i].end - t.spans[i].start
		}
	}
	var sums [numSpanNames]int64
	flush := func() {
		for name, v := range sums {
			if name != int(spanEncounter) {
				st.perEncounter[name] = append(st.perEncounter[name], time.Duration(v))
			}
		}
		sums = [numSpanNames]int64{}
	}
	inEncounter := false
	for i := range t.spans {
		sp := &t.spans[i]
		dur := sp.end - sp.start
		if children[i] > dur {
			st.childOverrun++
		}
		if time.Duration(dur) > st.longest[sp.name] {
			st.longest[sp.name] = time.Duration(dur)
		}
		st.calls[sp.name] = append(st.calls[sp.name], time.Duration(dur-children[i]))
		// Spans are in start order, so an encounter's descendants follow
		// its root directly, up to the next root.
		if sp.parent < 0 {
			if inEncounter {
				flush()
			}
			inEncounter = sp.name == spanEncounter
			if inEncounter && dur > 0 {
				if c := float64(children[i]) / float64(dur); c < st.coverage {
					st.coverage = c
				}
			}
		} else if inEncounter {
			sums[sp.name] += dur - children[i]
		}
	}
	if inEncounter {
		flush()
	}
	return st
}

// spanLine is one span in the -trace-out JSON-lines file.
type spanLine struct {
	Workload  string `json:"workload"`
	ID        int    `json:"id"`
	Parent    int    `json:"parent"`
	Encounter int    `json:"encounter"`
	Name      string `json:"name"`
	StartNS   int64  `json:"start_ns"`
	EndNS     int64  `json:"end_ns"`
}

// writeSpans writes every span as one JSON line.
func (t *tracer) writeSpans(w io.Writer, workload string) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for i, sp := range t.spans {
		line := spanLine{
			Workload: workload, ID: i, Parent: int(sp.parent), Encounter: int(sp.encounter),
			Name: spanNames[sp.name], StartNS: sp.start, EndNS: sp.end,
		}
		if err := enc.Encode(line); err != nil {
			return err
		}
	}
	return bw.Flush()
}

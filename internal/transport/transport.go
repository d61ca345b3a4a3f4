// Package transport runs the replication sync protocol over real TCP
// connections, so the same replica code that powers the trace-driven
// emulations also operates as an actual distributed system.
//
// One connection carries one session: a hello exchange, then encounters one
// at a time, each the emulated protocol's two syncs with alternating roles and
// transactional. The target side of a sync is replica.Pull, the same code the
// emulator runs, with the session as its carrier (one request frame out, one
// response frame back); the source side is serveBatch. Any error ends a
// session; a Dialer, which each node holds, parks clean ones in an idle cache
// of its own. Every message, the hello included, is a length-prefixed binary
// frame (bodies in the internal/wire encoding), and the wire-byte cap is
// enforced per frame on both sides. There is one protocol: a peer whose hello
// carries a different version byte is refused.
package transport

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/bits"
	"net"
	"sync"
	"syscall"
	"time"

	"replidtn/internal/item"
	"replidtn/internal/obs"
	"replidtn/internal/replica"
	"replidtn/internal/vclock"
	"replidtn/internal/wire"
	"replidtn/internal/wire/prim"
)

// protocolVersion is the one protocol this build speaks, carried as a single
// byte in the hello. Versions 1–3 were the retired gob-hello generations, 4
// the binary frames before routing deltas (and with a From field in every
// routing request), 5 the frames that could still carry a Bloom-digest
// knowledge summary, and 6 the knowledge layout of codec version 1; a
// mismatch is refused, never negotiated.
const protocolVersion = 7

// helloMagic opens every hello body, so a stray connection from some other
// protocol is refused on its first frame.
const helloMagic = "RDTN"

// maxHelloFrame caps the hello frame (type byte, magic, version byte, and the
// length-prefixed replica ID, which gets 256 bytes) on both sides. The hello
// arrives before anything about the peer is known, so its cap is fixed and
// small rather than MaxWireBytes: a hostile first frame cannot make this
// side allocate more than this.
const maxHelloFrame = int64(1 + len(helloMagic) + 1 + 2 + 256)

// defaultIOTimeout bounds each encounter and idle gap of a session when the
// server sets no limit of its own, so a stalled peer (slow-loris, dead link)
// cannot pin a handler goroutine. Dialers drop sessions idle for half of it.
const defaultIOTimeout = 30 * time.Second

// defaultMaxWireBytes bounds each frame read from or written to a connection
// — on both the serving and the dialing side — when no explicit limit is
// configured, so an adversarial or broken peer cannot make the other end
// buffer unbounded input.
const defaultMaxWireBytes = 64 << 20

// Server accepts encounters for one replica. The zero value is not usable;
// call NewServer.
type Server struct {
	replica  *replica.Replica
	maxItems int
	// OnError, when set before Listen, observes per-connection protocol
	// errors (primarily for logging and tests).
	OnError func(error)
	// IOTimeout bounds each encounter and each idle gap between a session's
	// encounters; 0 selects the 30-second default. Set before Listen.
	IOTimeout time.Duration
	// MaxWireBytes bounds each frame of a connection; 0 selects the 64 MiB
	// default. A peer exceeding it is rejected on the frame's length prefix
	// and the connection is dropped with nothing applied. Set before Listen.
	MaxWireBytes int64
	// Metrics, when set before Listen, receives served-encounter counters,
	// wire accounting, and sync spans. Nil disables instrumentation.
	Metrics *obs.TransportMetrics

	mu       sync.Mutex
	listener net.Listener
	closed   bool
	sessions map[net.Conn]bool // open sessions; true while idle between encounters
	wg       sync.WaitGroup
}

// NewServer wraps a replica. maxItems bounds each served synchronization
// batch (0 = unlimited).
func NewServer(r *replica.Replica, maxItems int) *Server {
	return &Server{replica: r, maxItems: maxItems, sessions: map[net.Conn]bool{}}
}

// Listen starts accepting encounters on addr (e.g. "127.0.0.1:0") and returns
// the bound address. It serves connections on background goroutines until
// Close. A server listens on at most one address: a second Listen while the
// first is active is rejected rather than silently abandoning the first
// listener and its accept goroutine.
func (s *Server) Listen(addr string) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", addr, err)
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close() //lint:allow errdiscard -- losing the race with Close: the socket was never exposed, so there is no caller to report a close failure to
		return nil, errors.New("transport: server closed")
	}
	if s.listener != nil {
		s.mu.Unlock()
		ln.Close() //lint:allow errdiscard -- the socket was never exposed; the caller only learns the Listen was rejected
		return nil, errors.New("transport: server already listening")
	}
	s.listener = ln
	s.mu.Unlock()

	s.wg.Add(1)
	go s.acceptLoop(ln)
	return ln.Addr(), nil
}

func (s *Server) acceptLoop(ln net.Listener) {
	defer s.wg.Done()
	var backoff time.Duration
	for {
		conn, err := ln.Accept()
		if errors.Is(err, net.ErrClosed) {
			return
		} else if err != nil { // transient (EMFILE): back off as net/http does
			backoff = min(max(2*backoff, 5*time.Millisecond), time.Second)
			time.Sleep(backoff)
			continue
		}
		backoff = 0
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			defer conn.Close() //lint:allow errdiscard -- teardown after the batch committed or failed transactionally; a close error cannot un-apply it and serveConn already surfaced any real fault via OnError
			// Errors are per-connection: a misbehaving peer must not take
			// down the server.
			if err := s.serveConn(conn); err != nil && s.OnError != nil {
				s.OnError(err)
			}
		}()
	}
}

// validationError marks frames that decoded but failed structural validation:
// the work of a hostile or broken peer, counted separately from transport
// faults.
type validationError struct{ err error }

func (e *validationError) Error() string { return e.err.Error() }
func (e *validationError) Unwrap() error { return e.err }

// errVersionMismatch classifies hello frames from an incompatible peer.
var errVersionMismatch = errors.New("protocol version mismatch")

// validateRequest rejects structurally malformed sync requests before they
// reach the replica. A frame can decode with fields omitted or forged, and
// the replica's in-process contract (a knowledge frame present, non-negative
// budgets) must not be enforceable by a hostile peer's byte stream: a missing
// knowledge frame would panic HandleSyncRequest, and a negative MaxItems
// would bypass the server's batch clamp. (The wire layout tags one knowledge
// form per request, so "none" is the only miscount a frame can express.) A
// routing delta rides a knowledge delta's tags and means nothing without.
func validateRequest(req *replica.SyncRequest) error {
	if req.Knowledge == nil && req.Delta == nil {
		return &validationError{errors.New("sync request without a knowledge frame")}
	}
	if req.RoutingDelta != nil && req.Delta == nil {
		return &validationError{errors.New("routing delta without a knowledge delta")}
	}
	if req.MaxItems < 0 || req.MaxBytes < 0 {
		return &validationError{fmt.Errorf("sync request with negative budget (items %d, bytes %d)", req.MaxItems, req.MaxBytes)}
	}
	return nil
}

// validateResponse rejects structurally malformed sync responses before
// ApplyBatch: a NeedKnowledge demand carries no items by contract, and every
// version a batch item names — its own and those in Prior — has a creator and
// a seq >= 1: knowledge cannot record any other, so the item would be stored,
// never become known, and be re-sent by every holder at every encounter.
// No transient field is negative: a TTL, copy allowance or hop count below
// zero is no state a replica produces, and a forged hop count of -1e9 would
// put the copy first in every MaxProp queue it reaches. (Every decoded batch
// item has its item, and its transient fields are 32-bit integers — the
// wire decoder fails the frame otherwise.)
func validateResponse(resp *replica.SyncResponse) error {
	if resp.NeedKnowledge && len(resp.Items) > 0 {
		return &validationError{fmt.Errorf("knowledge demand carrying %d items", len(resp.Items))}
	}
	unreal := func(v vclock.Version) bool { return v.Replica == "" || v.Seq == 0 }
	for i, bi := range resp.Items {
		bad := unreal(bi.Item.Version)
		for _, v := range bi.Item.Prior {
			bad = bad || unreal(v)
		}
		if bad {
			return &validationError{fmt.Errorf("batch item %d (%s, version %q) names a version no replica creates", i, bi.Item.ID, bi.Item.Version.String())}
		}
		for f := range item.NumFields {
			if v, _ := bi.Transient.Get(f); v < 0 {
				return &validationError{fmt.Errorf("batch item %d (%s) carries %s = %d", i, bi.Item.ID, f, v)}
			}
		}
	}
	return nil
}

// Frame layout, for every message of a connection: a uint32 little-endian
// length (covering the type byte and body, so always >= 1), a message-type
// byte, and the body. The hello body is magic, version byte, replica ID; the
// others are internal/wire encodings. A sync request or response is sized
// before it is encoded (wire.SyncRequestSize, wire.SyncResponseSize): the
// length is checked against the frame's cap before any body allocation on
// either side — so an oversized frame is rejected by both the producer and
// the consumer, neither having paid for it — and the writer reserves the
// whole frame once, so encoding a large batch never regrows its buffer.
const (
	frameSyncRequest  = 1
	frameSyncResponse = 2
	frameDone         = 3
	frameHello        = 4
)

// Frame buffers are recycled in size classes from 512 B (hellos, done
// frames, small requests) up to maxFrameScratch. A larger frame gets a buffer
// of exactly its size, dropped once the frame is written or decoded, so a
// single giant batch never parks its footprint in a pool.
const (
	minFrameShift   = 9
	maxFrameShift   = 22
	maxFrameScratch = 1 << maxFrameShift
)

// frameBuf wraps a frame buffer so the pools hold a pointer: a warm
// get/put pair allocates nothing, where putting a bare slice would box it.
type frameBuf struct{ b []byte }

// framePools recycles frame buffers process-wide, one pool per size class:
// 512 B, then four classes per octave up to maxFrameScratch.
var framePools [1 + 4*(maxFrameShift-minFrameShift)]sync.Pool

// frameClass rounds an n-byte frame up to its size class — a multiple of an
// eighth of the power of two at or above n, so a buffer wastes at most a
// quarter of its frame — and returns the class's pool, nil past
// maxFrameScratch.
func frameClass(n int) (int, *sync.Pool) {
	if n <= 1<<minFrameShift {
		return 1 << minFrameShift, &framePools[0]
	}
	if n > maxFrameScratch {
		return n, nil
	}
	e := bits.Len(uint(n - 1)) // 2^(e-1) < n <= 2^e
	step := e - 3
	eighths := (n + 1<<step - 1) >> step // 5..8
	return eighths << step, &framePools[4*(e-minFrameShift-1)+eighths-4]
}

// getFrame returns an empty buffer with room for an n-byte frame.
func getFrame(n int) *frameBuf {
	size, pool := frameClass(n)
	if pool != nil {
		if f, ok := pool.Get().(*frameBuf); ok {
			return f
		}
	}
	return &frameBuf{b: make([]byte, 0, size)}
}

// putFrame recycles a buffer taken with getFrame. Nothing may alias it
// afterwards: the next frame of any connection may overwrite it. A buffer
// that is not exactly a class size (oversized, or regrown) is dropped.
func putFrame(f *frameBuf) {
	if size, pool := frameClass(cap(f.b)); pool != nil && size == cap(f.b) {
		f.b = f.b[:0]
		pool.Put(f)
	}
}

// readerPool recycles the connections' buffered readers.
var readerPool = sync.Pool{New: func() any { return bufio.NewReader(nil) }}

// wireIO frames one session's messages, enforcing the MaxWireBytes cap per
// frame and keeping the per-encounter frame/byte accounting the metrics hooks
// report. It holds no frame buffer between frames: each frame takes one from
// framePools and gives it back when written or decoded.
type wireIO struct {
	conn  net.Conn
	br    *bufio.Reader
	limit int64            // the MaxWireBytes cap, applied to each frame
	peer  vclock.ReplicaID // from the peer's hello; "" until then
	idle  time.Time        // when a dialer parked the session

	bytesIn, bytesOut   int64
	framesIn, framesOut int64

	raw   syscall.RawConn // the idle probe's state (quiet), made on first use
	probe func(fd uintptr) bool
	perr  error
	peek  [1]byte
}

func newWireIO(conn net.Conn, limit int64) *wireIO {
	if limit <= 0 {
		limit = defaultMaxWireBytes
	}
	w := &wireIO{conn: conn, limit: limit}
	w.br = readerPool.Get().(*bufio.Reader)
	w.br.Reset(w)
	return w
}

// Read is the buffered reader's source: the connection, counted into
// bytesIn.
func (w *wireIO) Read(p []byte) (int, error) {
	n, err := w.conn.Read(p)
	w.bytesIn += int64(n)
	return n, err
}

// release returns the connection's reader to its pool; w reads nothing
// afterwards.
func (w *wireIO) release() {
	w.br.Reset(nil)
	readerPool.Put(w.br)
	w.br = nil
}

// close ends a dialed session and releases w.
func (w *wireIO) close() {
	w.conn.Close() //lint:allow errdiscard -- teardown after the session's encounters committed or failed transactionally; a close error cannot un-apply them, and their own errors were already reported
	w.release()
}

// beginFrame starts a frame of the given type in a pooled buffer with room
// for a body of bodySize bytes, so encoding it never regrows the buffer; the
// body is appended to f.b and f handed to writeFrame. A body too large for
// limit fails the encounter here, before a buffer is taken or a byte
// encoded, instead of feeding the peer a frame it is bound to reject.
func (w *wireIO) beginFrame(msgType byte, bodySize int, limit int64) (*frameBuf, error) {
	if length := int64(bodySize) + 1; length > limit {
		return nil, oversizeError(length, limit)
	}
	f := getFrame(5 + bodySize)
	f.b = append(f.b, 0, 0, 0, 0, msgType)
	return f, nil
}

func oversizeError(length, limit int64) error {
	return fmt.Errorf("transport: outgoing frame of %d bytes exceeds the %d-byte wire limit", length, limit)
}

// writeFrame back-patches the length of a frame begun with beginFrame,
// writes it in a single Write and recycles its buffer. The cap is checked
// again on the assembled frame, before anything reaches the connection.
func (w *wireIO) writeFrame(f *frameBuf, limit int64) error {
	defer putFrame(f)
	length := len(f.b) - 4
	if int64(length) > limit {
		return oversizeError(int64(length), limit)
	}
	binary.LittleEndian.PutUint32(f.b[:4], uint32(length))
	n, err := w.conn.Write(f.b)
	w.bytesOut += int64(n)
	if err != nil {
		return err
	}
	w.framesOut++
	return nil
}

// readFrame reads one frame of the wanted type and returns its body in a
// pooled buffer, which the caller recycles with putFrame once nothing
// aliases it. The length prefix is validated against the cap before a
// buffer is taken, so a hostile peer cannot make this side allocate past it.
func (w *wireIO) readFrame(want byte, limit int64) ([]byte, *frameBuf, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(w.br, hdr[:]); err != nil {
		return nil, nil, err
	}
	length := binary.LittleEndian.Uint32(hdr[:])
	if length == 0 {
		return nil, nil, &validationError{errors.New("empty wire frame")}
	}
	if int64(length) > limit {
		return nil, nil, &validationError{fmt.Errorf("incoming frame of %d bytes exceeds the %d-byte wire limit", length, limit)}
	}
	f := getFrame(int(length))
	buf := f.b[:length]
	_, err := io.ReadFull(w.br, buf)
	if err == nil && buf[0] != want {
		err = &validationError{fmt.Errorf("frame type %d, want %d", buf[0], want)}
	}
	if err != nil {
		putFrame(f)
		return nil, nil, err
	}
	w.framesIn++
	return buf[1:], f, nil
}

// writeHello opens our side of the connection.
func (w *wireIO) writeHello(id vclock.ReplicaID) error {
	f, err := w.beginFrame(frameHello, len(helloMagic)+1+prim.SizeString(string(id)), maxHelloFrame)
	if err != nil {
		return err
	}
	f.b = prim.AppendString(append(append(f.b, helloMagic...), protocolVersion), string(id))
	return w.writeFrame(f, maxHelloFrame)
}

// readHello reads the peer's hello and returns its replica ID. Wrong magic
// or a different version byte is errVersionMismatch: there is nothing to
// negotiate, the peer is refused.
func (w *wireIO) readHello() (vclock.ReplicaID, error) {
	body, f, err := w.readFrame(frameHello, maxHelloFrame)
	if err != nil {
		return "", err
	}
	defer putFrame(f)
	if len(body) <= len(helloMagic) || string(body[:len(helloMagic)]) != helloMagic {
		return "", fmt.Errorf("hello without the %q magic: %w", helloMagic, errVersionMismatch)
	}
	if ver := body[len(helloMagic)]; ver != protocolVersion {
		return "", fmt.Errorf("protocol version %d, want %d: %w", ver, protocolVersion, errVersionMismatch)
	}
	d := prim.NewDecoder(body[len(helloMagic)+1:])
	id := vclock.ReplicaID(d.String())
	if err := d.Finish(); err != nil {
		return "", &validationError{err}
	}
	return id, nil
}

func (w *wireIO) writeRequest(req *replica.SyncRequest) error {
	f, err := w.beginFrame(frameSyncRequest, wire.SyncRequestSize(req), w.limit)
	if err != nil {
		return err
	}
	if f.b, err = wire.AppendSyncRequest(f.b, req); err != nil {
		return err
	}
	return w.writeFrame(f, w.limit)
}

// writeResponse writes resp's frame and returns its item-section bytes
// (replica.BatchBytes), summed once to size the frame and the served leg.
func (w *wireIO) writeResponse(resp *replica.SyncResponse) (int64, error) {
	items := replica.BatchBytes(resp)
	f, err := w.beginFrame(frameSyncResponse, wire.SyncResponseSize(resp, items), w.limit)
	if err != nil {
		return 0, err
	}
	if f.b, err = wire.AppendSyncResponse(f.b, resp); err != nil {
		return 0, err
	}
	return items, w.writeFrame(f, w.limit)
}

func (w *wireIO) writeDone(applied int) error {
	f, err := w.beginFrame(frameDone, 1+prim.SizeVarint(int64(applied)), w.limit)
	if err != nil {
		return err
	}
	f.b = wire.AppendDone(f.b, applied)
	return w.writeFrame(f, w.limit)
}

// readMessage reads one frame of the wanted type, decodes its body and
// applies the structural rules. A frame that arrives whole but fails either
// is a validation error, counted with the other rejections of a hostile peer.
func readMessage[T any](w *wireIO, want byte, decode func([]byte) (T, error), validate func(T) error) (msg T, err error) {
	body, f, err := w.readFrame(want, w.limit)
	if err != nil {
		return msg, err
	}
	// The decoders copy everything that escapes the frame, so its buffer
	// goes back to the pool before the message is served or applied.
	msg, err = decode(body)
	putFrame(f)
	if err != nil {
		return msg, &validationError{err}
	}
	return msg, validate(msg)
}

func (w *wireIO) readRequest() (*replica.SyncRequest, error) {
	return readMessage(w, frameSyncRequest, wire.DecodeSyncRequest, validateRequest)
}

func (w *wireIO) readResponse() (*replica.SyncResponse, error) {
	return readMessage(w, frameSyncResponse, wire.DecodeSyncResponse, validateResponse)
}

func (w *wireIO) readDone() error {
	_, err := readMessage(w, frameDone, wire.DecodeDone, func(int) error { return nil })
	return err
}

// carry is the session's replica.Carrier: one request frame out, one
// response frame back.
func (w *wireIO) carry(req *replica.SyncRequest) (*replica.SyncResponse, error) {
	if err := w.writeRequest(req); err != nil {
		return nil, fmt.Errorf("write sync request: %w", err)
	}
	resp, err := w.readResponse()
	if err != nil {
		return nil, fmt.Errorf("read sync response: %w", err)
	}
	return resp, nil
}

// errClass buckets an encounter error for spans and counters: "" (success),
// timeout, refused, reset, truncated, validation, protocol, or io.
func errClass(err error) string {
	if err == nil {
		return ""
	}
	var ve *validationError
	if errors.As(err, &ve) || errors.Is(err, replica.ErrStrayDemand) {
		return "validation"
	}
	if errors.Is(err, errVersionMismatch) {
		return "protocol"
	}
	var ne net.Error
	switch {
	case errors.As(err, &ne) && ne.Timeout():
		return "timeout"
	case errors.Is(err, syscall.ECONNREFUSED):
		return "refused"
	case errors.Is(err, syscall.ECONNRESET):
		return "reset"
	case errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, io.EOF):
		return "truncated"
	}
	return "io"
}

// record folds one finished encounter into the metrics sink. m is non-nil.
func record(m *obs.TransportMetrics, span obs.SyncSpan, w *wireIO, start time.Time, err error) {
	span.BytesIn, span.BytesOut = w.bytesIn, w.bytesOut
	span.DurationMicros = time.Since(start).Microseconds()
	span.Err = errClass(err)
	m.FramesRead.Add(w.framesIn)
	m.FramesWritten.Add(w.framesOut)
	m.BytesRead.Add(w.bytesIn)
	m.BytesWritten.Add(w.bytesOut)
	if span.Err == "validation" {
		m.ValidationRejected.Inc()
	}
	if err != nil {
		m.EncounterErrors.Inc()
	} else {
		if span.Role == obs.RoleServe {
			m.EncountersServed.Inc()
		} else {
			m.EncountersDialed.Inc()
		}
		m.EncounterMicros.Observe(span.DurationMicros)
	}
	m.Spans.Record(span)
}

// serveBatch runs one directed synchronization as the source side: read the
// peer's request, serve it, and — when the replica demands exact knowledge
// for an unservable summary frame — run the single fallback round before
// shipping the batch. Both encounter roles serve one leg with it. It returns
// the batch and its item-section bytes.
func serveBatch(w *wireIO, r *replica.Replica, maxItems int) (*replica.SyncResponse, int64, error) {
	req, err := w.readRequest()
	if err != nil {
		return nil, 0, fmt.Errorf("read sync request: %w", err)
	}
	clampItems(req, maxItems)
	resp := r.HandleSyncRequest(req)
	if resp.NeedKnowledge {
		if _, err := w.writeResponse(resp); err != nil {
			return nil, 0, fmt.Errorf("write knowledge demand: %w", err)
		}
		retry, err := w.readRequest()
		if err != nil {
			return nil, 0, fmt.Errorf("read fallback request: %w", err)
		}
		if retry.Knowledge == nil {
			// One fallback round, maximum: the retry must be exact. A peer
			// looping summary frames would otherwise pin this handler.
			return nil, 0, &validationError{errors.New("fallback request without exact knowledge")}
		}
		clampItems(retry, maxItems)
		resp = r.HandleSyncRequest(retry)
	}
	items, err := w.writeResponse(resp)
	if err != nil {
		return nil, 0, fmt.Errorf("write sync response: %w", err)
	}
	return resp, items, nil
}

// clampItems applies the local per-batch bound to a decoded request.
func clampItems(req *replica.SyncRequest, maxItems int) {
	if maxItems > 0 && (req.MaxItems == 0 || req.MaxItems > maxItems) {
		req.MaxItems = maxItems
	}
}

// serveConn serves one session, an encounter per arriving frame, until one
// fails or, quietly, the peer leaves, an idle gap times out or Close cuts it.
func (s *Server) serveConn(conn net.Conn) error {
	timeout := s.IOTimeout
	if timeout <= 0 {
		timeout = defaultIOTimeout
	}
	w := newWireIO(conn, s.MaxWireBytes)
	defer w.release() // the caller closes conn once it has reported the error
	defer func() { s.mu.Lock(); delete(s.sessions, conn); s.mu.Unlock() }()
	for first := true; s.track(conn, true, timeout); first = false {
		w.bytesIn, w.bytesOut, w.framesIn, w.framesOut = 0, 0, 0, 0 // before the peek buffers bytes
		if _, err := w.br.Peek(1); err != nil || !s.track(conn, false, timeout) {
			return nil
		}
		if err := s.serveEncounter(w, first); err != nil {
			return err
		}
	}
	return nil
}

// track marks a session idle or busy, sets its deadline; false once closing.
func (s *Server) track(conn net.Conn, idle bool, timeout time.Duration) bool {
	_ = conn.SetDeadline(time.Now().Add(timeout))
	s.mu.Lock()
	defer s.mu.Unlock()
	s.sessions[conn] = idle
	return !s.closed
}

// serveEncounter serves one encounter, the first of a session opening with
// the hellos. Application is transactional: every frame is fully decoded
// before any replica call, so a peer dying mid-batch (truncated frame,
// deadline, wire limit) leaves the replica's store and knowledge as they were.
func (s *Server) serveEncounter(w *wireIO, first bool) (err error) {
	span := obs.SyncSpan{Peer: string(w.peer), Role: obs.RoleServe}
	if s.Metrics != nil {
		start := time.Now()
		span.Start = start.UnixNano()
		defer func() { record(s.Metrics, span, w, start, err) }()
	}
	if first {
		span.Peer = w.conn.RemoteAddr().String()
		if w.peer, err = w.readHello(); err != nil {
			return fmt.Errorf("transport: read hello: %w", err)
		}
		span.Peer = string(w.peer)
		if err := w.writeHello(s.replica.ID()); err != nil {
			return fmt.Errorf("transport: write hello: %w", err)
		}
		if s.Metrics != nil {
			s.Metrics.SessionsOpened.Inc()
		}
	}

	// Leg 1: we are the source; the dialer pulls from us.
	resp, _, err := serveBatch(w, s.replica, s.maxItems)
	if err != nil {
		return fmt.Errorf("transport: %w", err)
	}
	span.ItemsSent = len(resp.Items)

	// Leg 2: roles alternate; we pull from the dialer.
	res, err := s.replica.Pull(w.peer, replica.Budget{Items: s.maxItems}, false, w.carry)
	if err != nil {
		return fmt.Errorf("transport: %w", err)
	}
	span.ItemsApplied = res.Apply.Stored + res.Apply.Relayed + res.Apply.Tombstones
	if err := w.writeDone(span.ItemsApplied); err != nil {
		return fmt.Errorf("transport: write done: %w", err)
	}
	return nil
}

// Close stops accepting, cuts idle sessions and waits for encounters in flight.
func (s *Server) Close() error {
	s.mu.Lock()
	s.closed = true
	ln := s.listener
	s.listener = nil
	for conn, idle := range s.sessions {
		if idle {
			conn.Close() //lint:allow errdiscard -- an idle session holds no encounter; its handler sees the close and ends the session
		}
	}
	s.mu.Unlock()
	var err error
	if ln != nil {
		err = ln.Close()
	}
	s.wg.Wait()
	return err
}

// DialOptions configures the dialing side of an encounter.
type DialOptions struct {
	// MaxWireBytes bounds each frame of the connection, mirroring
	// Server.MaxWireBytes on the dialing side; 0 selects the 64 MiB default.
	// A listener exceeding it fails the encounter on the frame's length
	// prefix with nothing applied.
	MaxWireBytes int64
	// Metrics, when set, receives dialed-encounter counters, wire
	// accounting, and sync spans. Nil disables instrumentation.
	Metrics *obs.TransportMetrics
}

// EncounterOpts runs an encounter on the package's shared default Dialer.
func EncounterOpts(r *replica.Replica, addr string, maxItems int, timeout time.Duration, opts DialOptions) (replica.EncounterResult, error) {
	return defaultDialer.Encounter(r, addr, maxItems, timeout, opts)
}

var defaultDialer Dialer // EncounterOpts's, never closed

// Dialer runs the dialing side of encounters and parks each clean session for
// its replica's next encounter with the same listener (DESIGN §14). The zero
// value dials TCP; Close closes the parked sessions.
type Dialer struct {
	now  func() time.Time                                                    // nil = time.Now
	dial func(network, addr string, timeout time.Duration) (net.Conn, error) // nil = net.DialTimeout

	mu     sync.Mutex
	idle   map[sessionKey]*wireIO // parked between encounters, one per key
	closed bool
}

// Encounter runs a full encounter (two syncs with alternating roles) for r
// with the listener at addr, on r's sound idle session to it if there is one.
// maxItems bounds each pulled batch (0 = unlimited), timeout the exchange.
func (d *Dialer) Encounter(r *replica.Replica, addr string, maxItems int, timeout time.Duration, opts DialOptions) (out replica.EncounterResult, err error) {
	now, dial := time.Now, net.DialTimeout
	if d.now != nil {
		now = d.now
	}
	if d.dial != nil {
		dial = d.dial
	}
	key := sessionKey{string(r.ID()), addr, opts.MaxWireBytes}
	w := d.takeSession(key, now())
	if w == nil {
		conn, err := dial("tcp", addr, timeout)
		if err != nil {
			if opts.Metrics != nil {
				opts.Metrics.EncounterErrors.Inc()
				opts.Metrics.Spans.Record(obs.SyncSpan{
					Start: time.Now().UnixNano(), Peer: addr, Role: obs.RoleDial,
					Err: errClass(err),
				})
			}
			return out, fmt.Errorf("transport: dial %s: %w", addr, err)
		}
		w = newWireIO(conn, opts.MaxWireBytes)
	}
	defer func() { d.parkSession(key, w, err, now()) }()
	_ = w.conn.SetDeadline(time.Now().Add(timeout))

	span := obs.SyncSpan{Peer: addr, Role: obs.RoleDial}
	if opts.Metrics != nil {
		start := time.Now()
		span.Start = start.UnixNano()
		defer func() { record(opts.Metrics, span, w, start, err) }()
	}

	if w.peer == "" {
		if err := w.writeHello(r.ID()); err != nil {
			return out, fmt.Errorf("transport: write hello: %w", err)
		}
		if w.peer, err = w.readHello(); err != nil {
			return out, fmt.Errorf("transport: read hello: %w", err)
		}
		if opts.Metrics != nil {
			opts.Metrics.SessionsOpened.Inc()
		}
	}
	span.Peer = string(w.peer)

	// Leg 1: we are the target and pull from the listener.
	out.BtoA, err = r.Pull(w.peer, replica.Budget{Items: maxItems}, false, w.carry)
	if err != nil {
		return out, fmt.Errorf("transport: %w", err)
	}
	span.ItemsApplied = out.BtoA.Apply.Stored + out.BtoA.Apply.Relayed + out.BtoA.Apply.Tombstones

	// Leg 2: serve the listener's pull.
	resp, sentBytes, err := serveBatch(w, r, maxItems)
	if err != nil {
		return out, fmt.Errorf("transport: %w", err)
	}
	span.ItemsSent = len(resp.Items)
	out.AtoB.Sent = len(resp.Items)
	out.AtoB.SentBytes = sentBytes
	out.AtoB.Truncated = resp.Truncated
	if err := w.readDone(); err != nil {
		return out, fmt.Errorf("transport: read done: %w", err)
	}
	return out, nil
}

const maxIdleSessions = 64 // caps a Dialer's idle-session cache

// sessionKey names a dialer's reusable sessions; limit is MaxWireBytes.
type sessionKey struct {
	self, addr string
	limit      int64
}

// takeSession checks out key's idle session if it is sound — idle under half
// the default IOTimeout, open, nothing waiting — else closes it (DESIGN §14).
func (d *Dialer) takeSession(key sessionKey, now time.Time) *wireIO {
	d.mu.Lock()
	w := d.idle[key]
	delete(d.idle, key)
	d.mu.Unlock()
	if w == nil || now.Sub(w.idle) <= defaultIOTimeout/2 && w.quiet() {
		return w
	}
	w.close()
	return nil
}

// quiet reports whether a non-blocking peek finds w's connection open,
// nothing waiting. Only a connection's first probe allocates.
func (w *wireIO) quiet() bool {
	if w.raw == nil {
		sc, ok := w.conn.(syscall.Conn)
		if !ok {
			return false // no descriptor to peek at: dial fresh
		}
		raw, err := sc.SyscallConn()
		if err != nil {
			return false
		}
		w.raw, w.probe = raw, func(fd uintptr) bool {
			_, _, w.perr = syscall.Recvfrom(int(fd), w.peek[:], syscall.MSG_PEEK|syscall.MSG_DONTWAIT)
			return true
		}
	}
	return w.raw.Read(w.probe) == nil && w.perr == syscall.EAGAIN
}

// parkSession caches a clean session idle from now, evicting the key's older
// one or, at the cap, the one idle longest; it closes a failed or overfed
// one, or any once d is closed.
func (d *Dialer) parkSession(key sessionKey, w *wireIO, err error, now time.Time) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err != nil || w.br.Buffered() > 0 || d.closed {
		w.close()
		return
	}
	w.idle, w.bytesIn, w.bytesOut, w.framesIn, w.framesOut = now, 0, 0, 0, 0
	if d.idle == nil {
		d.idle = map[sessionKey]*wireIO{}
	}
	evict := key
	if d.idle[key] == nil && len(d.idle) >= maxIdleSessions {
		for k, c := range d.idle {
			if evict == key || c.idle.Before(d.idle[evict].idle) {
				evict = k
			}
		}
	}
	if old := d.idle[evict]; old != nil {
		old.close()
		delete(d.idle, evict)
	}
	d.idle[key] = w
}

// Close closes every parked session. A session whose encounter ends after
// Close is closed, not parked; Encounter still dials.
func (d *Dialer) Close() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.closed = true
	for _, w := range d.idle {
		w.close()
	}
	d.idle = nil
}

// Package kvserver is the memcached integration of Section 6.4: a TCP
// key-value cache speaking a subset of the memcached text protocol
// (get/set/delete/stats/version), whose internal hash table is replaced by
// the persistent trees under test. As in the paper, full string keys are
// stored in the tree (not their hashes), and the concurrent trees service
// requests in parallel while the single-threaded trees serialize behind a
// global lock.
package kvserver

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
	"unicode"
	"unicode/utf8"

	"fptree/internal/core"
	"fptree/internal/nvtree"
	"fptree/internal/obs"
	"fptree/internal/obs/trace"
	"fptree/internal/scm"
)

// Version is reported by the memcached `version` command.
const Version = "fptree-memkv/1.1"

// Store is the pluggable storage engine behind the server.
//
// The key and value slices passed to Set, Get and Delete are valid only for
// the duration of the call: the server parses requests in place, so they are
// slices of its per-connection read buffers, overwritten by the next read. A
// Store copies whatever it keeps. The value Get returns belongs to the store;
// callers copy it out and never modify it.
type Store interface {
	Set(key, value []byte) error
	Get(key []byte) ([]byte, bool)
	Delete(key []byte) (bool, error)
	Name() string
}

// MaxValueSize bounds stored values (they are stored inline in the trees'
// fixed-size value slots with a 2-byte length prefix).
const MaxValueSize = 120

const slotSize = MaxValueSize + 2

// MaxKeyLen is memcached's key length cap. set, get and delete reject a
// longer key with "CLIENT_ERROR bad command line format".
const MaxKeyLen = 250

// MaxLineLen bounds one command line, "\r\n" included: it is the size of the
// fixed per-connection read buffer lines are parsed in. A longer line gets
// "CLIENT_ERROR line too long" and the connection is closed.
const MaxLineLen = 16 << 10

// ErrValueTooLarge is returned by Store.Set when the value does not fit in
// the trees' inline value slots.
var ErrValueTooLarge = errors.New("kvserver: value exceeds MaxValueSize")

func encodeVal(v []byte) ([]byte, error) {
	if len(v) > MaxValueSize {
		return nil, ErrValueTooLarge
	}
	buf := make([]byte, slotSize)
	buf[0] = byte(len(v))
	buf[1] = byte(len(v) >> 8)
	copy(buf[2:], v)
	return buf, nil
}

func decodeVal(buf []byte) []byte {
	if len(buf) < 2 {
		return nil
	}
	n := int(buf[0]) | int(buf[1])<<8
	if n > len(buf)-2 {
		n = len(buf) - 2
	}
	return buf[2 : 2+n]
}

// --- stores -----------------------------------------------------------------

// Checker is the optional store interface for post-recovery validation:
// stores backed by a persistent tree report their size and can verify the
// tree's structural invariants. The transient hash map does not implement it.
type Checker interface {
	Len() int
	CheckInvariants() error
}

// NewFPTreeCStore backs the cache with the concurrent FPTree.
func NewFPTreeCStore(pool *scm.Pool) (Store, error) {
	t, err := core.CCreateVar(pool, core.Config{LeafCap: 56, InnerFanout: 64, ValueSize: slotSize})
	if err != nil {
		return nil, err
	}
	return cvarStore{t}, nil
}

// OpenFPTreeCStore recovers a concurrent-FPTree store from an arena that
// already holds one (a reopened -data file); workers tunes the parallel
// recovery leaf scan.
func OpenFPTreeCStore(pool *scm.Pool, workers int) (Store, error) {
	t, err := core.COpenVar(pool, core.RecoveryOptions{Workers: workers})
	if err != nil {
		return nil, err
	}
	return cvarStore{t}, nil
}

type cvarStore struct{ t *core.CVarTree }

func (s cvarStore) Set(k, v []byte) error {
	buf, err := encodeVal(v)
	if err != nil {
		return err
	}
	return s.t.Upsert(k, buf)
}
func (s cvarStore) Get(k []byte) ([]byte, bool) {
	v, ok := s.t.Find(k)
	if !ok {
		return nil, false
	}
	return decodeVal(v), true
}
func (s cvarStore) Delete(k []byte) (bool, error)         { return s.t.Delete(k) }
func (s cvarStore) Name() string                          { return "FPTreeC" }
func (s cvarStore) Len() int                              { return s.t.Len() }
func (s cvarStore) CheckInvariants() error                { return s.t.CheckInvariants() }
func (s cvarStore) RegisterMetrics(reg *obs.Registry)     { s.t.RegisterMetrics(reg) }
func (s cvarStore) SetTracer(tr *trace.Tracer)            { s.t.SetTracer(tr) }
func (s *lockedVarStore) RegisterMetrics(r *obs.Registry) { s.t.RegisterMetrics(r) }
func (s *lockedVarStore) SetTracer(tr *trace.Tracer)      { s.t.SetTracer(tr) }

// NewFPTreeStore backs the cache with the single-threaded FPTree behind a
// global lock (the paper's non-concurrent configuration).
func NewFPTreeStore(pool *scm.Pool) (Store, error) {
	t, err := core.CreateVar(pool, core.Config{LeafCap: 56, InnerFanout: 2048, GroupSize: 8, ValueSize: slotSize})
	if err != nil {
		return nil, err
	}
	return &lockedVarStore{t: t, name: "FPTree"}, nil
}

// NewPTreeStore backs the cache with the single-threaded PTree.
func NewPTreeStore(pool *scm.Pool) (Store, error) {
	t, err := core.CreateVar(pool, core.Config{Variant: core.VariantPTree, LeafCap: 32, InnerFanout: 256, ValueSize: slotSize})
	if err != nil {
		return nil, err
	}
	return &lockedVarStore{t: t, name: "PTree"}, nil
}

// OpenFPTreeStore recovers a single-threaded FPTree store from an arena that
// already holds one. The tree's variant and layout come from the persistent
// metadata, not from the constructor's defaults.
func OpenFPTreeStore(pool *scm.Pool, workers int) (Store, error) {
	return openLockedVarStore(pool, workers, "FPTree")
}

// OpenPTreeStore recovers a single-threaded PTree store.
func OpenPTreeStore(pool *scm.Pool, workers int) (Store, error) {
	return openLockedVarStore(pool, workers, "PTree")
}

func openLockedVarStore(pool *scm.Pool, workers int, name string) (Store, error) {
	t, err := core.OpenVar(pool, core.RecoveryOptions{Workers: workers})
	if err != nil {
		return nil, err
	}
	return &lockedVarStore{t: t, name: name}, nil
}

type lockedVarStore struct {
	mu   sync.Mutex
	t    *core.VarTree
	name string
}

func (s *lockedVarStore) Set(k, v []byte) error {
	buf, err := encodeVal(v)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.t.Upsert(k, buf)
}

func (s *lockedVarStore) Get(k []byte) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	v, ok := s.t.Find(k)
	if !ok {
		return nil, false
	}
	return decodeVal(v), true
}

func (s *lockedVarStore) Delete(k []byte) (bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.t.Delete(k)
}

func (s *lockedVarStore) Name() string { return s.name }

func (s *lockedVarStore) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.t.Len()
}

func (s *lockedVarStore) CheckInvariants() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.t.CheckInvariants()
}

// NewNVTreeCStore backs the cache with the concurrent NV-Tree.
func NewNVTreeCStore(pool *scm.Pool) (Store, error) {
	t, err := nvtree.CNewVar(pool, nvtree.Config{LeafCap: 32, InnerCap: 128, ValueSize: slotSize})
	if err != nil {
		return nil, err
	}
	return nvStore{t}, nil
}

// OpenNVTreeCStore recovers a concurrent NV-Tree store from an arena that
// already holds one.
func OpenNVTreeCStore(pool *scm.Pool) (Store, error) {
	t, err := nvtree.COpenVar(pool, 128)
	if err != nil {
		return nil, err
	}
	return nvStore{t}, nil
}

type nvStore struct{ t *nvtree.CVarTree }

func (s nvStore) Set(k, v []byte) error {
	buf, err := encodeVal(v)
	if err != nil {
		return err
	}
	return s.t.Upsert(k, buf)
}
func (s nvStore) Get(k []byte) ([]byte, bool) {
	v, ok := s.t.Find(k)
	if !ok {
		return nil, false
	}
	return decodeVal(v), true
}
func (s nvStore) Delete(k []byte) (bool, error) { return s.t.Delete(k) }
func (s nvStore) Name() string                  { return "NV-TreeC" }
func (s nvStore) Len() int                      { return s.t.Len() }
func (s nvStore) CheckInvariants() error        { return s.t.CheckInvariants() }

// NewHashMapStore is vanilla memcached's transient hash table. It enforces
// the same MaxValueSize contract as the tree stores so every engine is
// interchangeable behind the protocol.
func NewHashMapStore() Store {
	return &mapStore{m: map[string][]byte{}}
}

type mapStore struct {
	mu sync.RWMutex
	m  map[string][]byte
}

func (s *mapStore) Set(k, v []byte) error {
	if len(v) > MaxValueSize {
		return ErrValueTooLarge
	}
	s.mu.Lock()
	s.m[string(k)] = append([]byte(nil), v...)
	s.mu.Unlock()
	return nil
}

func (s *mapStore) Get(k []byte) ([]byte, bool) {
	s.mu.RLock()
	v, ok := s.m[string(k)]
	s.mu.RUnlock()
	return v, ok
}

func (s *mapStore) Delete(k []byte) (bool, error) {
	s.mu.Lock()
	_, ok := s.m[string(k)]
	delete(s.m, string(k))
	s.mu.Unlock()
	return ok, nil
}

func (s *mapStore) Name() string { return "HashMap" }

// --- server -------------------------------------------------------------------

// Config tunes the server's lifecycle and resource limits. The zero value
// means: no per-command deadlines, unlimited connections, 500ms drain on
// Close, no SCM counters in `stats`.
type Config struct {
	// ReadTimeout bounds how long the server waits for the next command (and
	// its payload) on a connection; expiry closes the connection. 0 disables.
	ReadTimeout time.Duration
	// WriteTimeout bounds each response flush. 0 disables.
	WriteTimeout time.Duration
	// MaxConns caps simultaneous connections; excess clients receive
	// "SERVER_ERROR max connections reached" and are disconnected. 0 means
	// unlimited.
	MaxConns int
	// DrainTimeout is the grace period Close gives in-flight commands before
	// force-closing their connections. 0 means 500ms.
	DrainTimeout time.Duration
	// Pool, when set, adds the SCM emulator counters (scm_* lines) to the
	// `stats` command output.
	Pool *scm.Pool
	// Pools lists every SCM pool behind a sharded store; `stats` reports the
	// scm_* counters summed across them and /metrics exposes both the
	// aggregate and per-shard labeled series. When empty, Pool (if any) is
	// used alone. Setting both is equivalent to Pools alone.
	Pools []*scm.Pool
	// Events, when set, receives noteworthy server events (rejected
	// connections, store errors, slow requests) for the /debug/events
	// endpoint.
	Events *obs.EventRing
	// Tracer, when set, samples request spans (parse/store/reply phases)
	// and is handed down to the storage engine when it supports SetTracer,
	// so one sampled request shows both the server-side and tree-side
	// attribution. Server spans carry time only; the engine spans own the
	// flush/fence attribution (no double counting).
	Tracer *trace.Tracer
	// SlowOpThreshold, when >0, counts and event-logs every request that
	// takes at least this long — always on, independent of trace sampling,
	// because the server already times each request.
	SlowOpThreshold time.Duration
}

const defaultDrainTimeout = 500 * time.Millisecond

// Server is a memcached-protocol server with connection tracking, graceful
// shutdown and a metrics layer surfaced through the `stats` command.
type Server struct {
	store   Store
	cfg     Config
	ln      net.Listener
	metrics Metrics
	wg      sync.WaitGroup
	closing atomic.Bool

	mu    sync.Mutex
	conns map[net.Conn]struct{}
}

// Serve starts listening on addr (e.g. "127.0.0.1:0") with default Config
// and returns the bound address.
func Serve(addr string, store Store) (*Server, string, error) {
	return ServeConfig(addr, store, Config{})
}

// ServeConfig starts listening on addr with the given Config and returns the
// bound address.
func ServeConfig(addr string, store Store, cfg Config) (*Server, string, error) {
	if cfg.DrainTimeout <= 0 {
		cfg.DrainTimeout = defaultDrainTimeout
	}
	if len(cfg.Pools) == 0 && cfg.Pool != nil {
		cfg.Pools = []*scm.Pool{cfg.Pool}
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, "", err
	}
	s := &Server{store: store, cfg: cfg, ln: ln, conns: map[net.Conn]struct{}{}}
	s.metrics.start = time.Now()
	if cfg.Tracer != nil {
		if ts, ok := store.(interface{ SetTracer(*trace.Tracer) }); ok {
			ts.SetTracer(cfg.Tracer)
		}
	}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, ln.Addr().String(), nil
}

// Metrics exposes the server's live counters.
func (s *Server) Metrics() *Metrics { return &s.metrics }

// RegisterMetrics exposes the server's counters and histograms on reg
// ("memkv" prefix), along with the SCM pool counters ("scm") when the server
// was configured with one and the storage engine's own tree counters
// ("fptree"/"htm") when the engine provides them.
func (s *Server) RegisterMetrics(reg *obs.Registry) {
	s.metrics.RegisterMetrics(reg, "memkv")
	if len(s.cfg.Pools) > 0 {
		scm.RegisterPoolsMetrics(reg, "scm", s.cfg.Pools)
	}
	if ms, ok := s.store.(interface{ RegisterMetrics(*obs.Registry) }); ok {
		ms.RegisterMetrics(reg)
	}
	if s.cfg.Tracer != nil {
		s.cfg.Tracer.RegisterMetrics(reg, "trace")
	}
}

// event records a noteworthy occurrence in the configured ring, if any.
func (s *Server) event(kind, format string, args ...interface{}) {
	if s.cfg.Events != nil {
		s.cfg.Events.Record(kind, format, args...)
	}
}

// Close stops the listener and shuts down every live connection: handlers
// get DrainTimeout to finish their current command (idle connections are
// released by the same deadline), after which remaining connections are
// force-closed. It is safe to call multiple times.
func (s *Server) Close() error {
	err := s.ln.Close()
	if s.closing.Swap(true) {
		s.wg.Wait()
		return err
	}
	deadline := time.Now().Add(s.cfg.DrainTimeout)
	s.mu.Lock()
	for c := range s.conns {
		c.SetDeadline(deadline)
	}
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(time.Until(deadline) + s.cfg.DrainTimeout):
		// A handler extended its own deadline past the drain window (or is
		// blocked writing to a dead peer): pull the plug.
		s.mu.Lock()
		for c := range s.conns {
			c.Close()
		}
		s.mu.Unlock()
		<-done
	}
	return err
}

// DumpStats writes the current stats (the same lines the `stats` protocol
// command reports, newline-terminated) to w.
func (s *Server) DumpStats(w io.Writer) {
	s.writeStats(w, "\n")
	fmt.Fprintf(w, "END\n")
}

func (s *Server) writeStats(w io.Writer, eol string) {
	fmt.Fprintf(w, "STAT version %s%s", Version, eol)
	fmt.Fprintf(w, "STAT engine %s%s", s.store.Name(), eol)
	if ss, ok := s.store.(ShardStatser); ok {
		fmt.Fprintf(w, "STAT shards %d%s", ss.NumShards(), eol)
	}
	s.metrics.writeTo(w, eol)
	if len(s.cfg.Pools) > 0 {
		// One scm_* block regardless of shard count: counters summed across
		// every shard pool (`stats shards` breaks them out per shard).
		var size int64
		var ps scm.StatsSnapshot
		for _, p := range s.cfg.Pools {
			size += p.Size()
			ps = ps.Add(p.Stats().Snapshot())
		}
		stat := func(k string, v interface{}) { fmt.Fprintf(w, "STAT %s %v%s", k, v, eol) }
		stat("scm_pool_bytes", size)
		stat("scm_reads", ps.Reads)
		stat("scm_writes", ps.Writes)
		stat("scm_read_hits", ps.ReadHits)
		stat("scm_read_misses", ps.ReadMisses)
		stat("scm_flushes", ps.Flushes)
		stat("scm_fences", ps.Fences)
		stat("scm_allocs", ps.Allocs)
		stat("scm_frees", ps.Frees)
		stat("scm_bytes_flushed", ps.BytesFlushed)
		stat("scm_syncs", ps.Syncs)
		stat("scm_sync_nanos", ps.SyncNanos)
	}
}

// track registers a connection; it reports (accepted, atCapacity).
func (s *Server) track(c net.Conn) (bool, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closing.Load() {
		return false, false
	}
	if s.cfg.MaxConns > 0 && len(s.conns) >= s.cfg.MaxConns {
		return false, true
	}
	s.conns[c] = struct{}{}
	return true, false
}

func (s *Server) untrack(c net.Conn) {
	s.mu.Lock()
	delete(s.conns, c)
	s.mu.Unlock()
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return
		}
		s.metrics.TotalConnections.Add(1)
		ok, full := s.track(conn)
		if !ok {
			if full {
				s.metrics.RejectedConnections.Add(1)
				s.event("conn", "rejected %s: max connections reached", conn.RemoteAddr())
				conn.SetWriteDeadline(time.Now().Add(time.Second))
				io.WriteString(conn, "SERVER_ERROR max connections reached\r\n")
			}
			conn.Close()
			continue
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.handle(conn)
		}()
	}
}

// pipelineDepth bounds the per-connection reply queue: the reader/executor
// may run this many commands ahead of the writer before back-pressure blocks
// it. Replies stay strictly in command order — the queue is the order.
const pipelineDepth = 128

// replyBufPool recycles the per-command reply buffers that travel from the
// reader/executor goroutine to the connection's writer goroutine.
var replyBufPool = sync.Pool{New: func() interface{} { return new(bytes.Buffer) }}

func getReplyBuf() *bytes.Buffer {
	b := replyBufPool.Get().(*bytes.Buffer)
	b.Reset()
	return b
}

// connWriter is the write half of a pipelined connection: an in-order queue
// of reply buffers drained by one goroutine that coalesces every reply
// already queued into a single buffered flush — hundreds of pipelined
// commands cost one write syscall per readable burst instead of one each.
type connWriter struct {
	out    chan *bytes.Buffer
	done   chan struct{}
	failed atomic.Bool // a flush failed; the connection is dead for writing
}

// run drains the queue until it is closed. After a write failure it keeps
// draining (recycling buffers, writing nothing) so the reader never blocks
// on a dead writer.
func (cw *connWriter) run(s *Server, conn net.Conn, w *bufio.Writer) {
	defer close(cw.done)
	flush := func() {
		if cw.failed.Load() || w.Buffered() == 0 {
			return
		}
		if s.cfg.WriteTimeout > 0 && !s.closing.Load() {
			conn.SetWriteDeadline(time.Now().Add(s.cfg.WriteTimeout))
		}
		if w.Flush() != nil {
			cw.failed.Store(true)
		}
	}
	write := func(b *bytes.Buffer) {
		if !cw.failed.Load() {
			w.Write(b.Bytes()) // errors are sticky and surface at Flush
		}
		replyBufPool.Put(b)
	}
	for buf := range cw.out {
		write(buf)
		// Coalesce the burst: fold in every reply already queued before
		// paying the flush syscall.
		for coalescing := true; coalescing; {
			select {
			case more, ok := <-cw.out:
				if !ok {
					flush()
					return
				}
				write(more)
			default:
				coalescing = false
			}
		}
		flush()
	}
	flush()
}

// session is the read half of a pipelined connection: the reader/executor's
// parse state, reused by every command so that steady-state requests
// allocate nothing. Each command line is parsed in place — fields are slices
// of r's buffer, valid only until the next read from r.
type session struct {
	s      *Server
	r      *bufio.Reader
	cw     *connWriter
	fields [][]byte // the current line's fields
	key    []byte   // a set's key, copied out of the line before the payload read
	data   []byte   // a set's payload and its trailing "\r\n"
}

func (s *Server) handle(conn net.Conn) {
	m := &s.metrics
	w := bufio.NewWriter(countingWriter{conn, &m.BytesWritten})
	cw := &connWriter{out: make(chan *bytes.Buffer, pipelineDepth), done: make(chan struct{})}
	go cw.run(s, conn, w)
	defer func() {
		close(cw.out)
		<-cw.done // final flush of any queued replies (e.g. after quit)
		conn.Close()
		s.untrack(conn)
		s.metrics.CurrConnections.Add(-1)
	}()
	s.metrics.CurrConnections.Add(1)
	c := &session{
		s:    s,
		r:    bufio.NewReaderSize(countingReader{conn, &m.BytesRead}, MaxLineLen),
		cw:   cw,
		data: make([]byte, MaxValueSize+2),
	}
	for {
		if s.closing.Load() || cw.failed.Load() {
			return
		}
		if s.cfg.ReadTimeout > 0 && !s.closing.Load() {
			conn.SetReadDeadline(time.Now().Add(s.cfg.ReadTimeout))
		}
		line, err := c.r.ReadSlice('\n')
		if errors.Is(err, bufio.ErrBufferFull) {
			// The rest of the line cannot be told apart from the next
			// command, so the stream cannot be resynchronized.
			m.ProtocolErrors.Add(1)
			c.reply("CLIENT_ERROR line too long\r\n")
			return
		}
		if err != nil {
			return
		}
		c.fields = appendFields(c.fields[:0], line)
		if len(c.fields) == 0 {
			continue
		}
		if !c.exec() {
			return
		}
	}
}

func (c *session) enqueue(b *bytes.Buffer) bool {
	if c.cw.failed.Load() {
		replyBufPool.Put(b)
		return false
	}
	c.cw.out <- b
	return true
}

func (c *session) reply(msg string) bool {
	b := getReplyBuf()
	b.WriteString(msg)
	return c.enqueue(b)
}

// arg returns field i of the current line, or nil when the line is shorter.
func (c *session) arg(i int) []byte {
	if i < len(c.fields) {
		return c.fields[i]
	}
	return nil
}

// exec runs the command in c.fields; it reports whether the connection
// should stay open.
func (c *session) exec() bool {
	s, m := c.s, &c.s.metrics
	start := time.Now()
	switch string(c.fields[0]) {
	case "set":
		sp := s.cfg.Tracer.Start(trace.OpReqSet)
		keep := c.set(sp, start)
		sp.Finish()
		s.noteSlow("set", c.key, start)
		return keep
	case "get", "gets":
		sp := s.cfg.Tracer.Start(trace.OpReqGet)
		keep := c.get(sp, start)
		sp.Finish()
		s.noteSlow("get", c.arg(1), start)
		return keep
	case "delete":
		sp := s.cfg.Tracer.Start(trace.OpReqDelete)
		keep := c.delete(sp, start)
		sp.Finish()
		s.noteSlow("delete", c.arg(1), start)
		return keep
	case "stats":
		m.CmdStats.Add(1)
		b := getReplyBuf()
		if len(c.fields) == 2 && string(c.fields[1]) == "shards" {
			ss, ok := s.store.(ShardStatser)
			if !ok {
				m.ProtocolErrors.Add(1)
				b.WriteString("ERROR\r\n")
				return c.enqueue(b)
			}
			writeShardStats(b, ss, "\r\n")
		} else {
			s.writeStats(b, "\r\n")
		}
		b.WriteString("END\r\n")
		return c.enqueue(b)
	case "version":
		m.CmdVersion.Add(1)
		return c.reply("VERSION " + Version + "\r\n")
	case "quit":
		return false
	default:
		m.ProtocolErrors.Add(1)
		return c.reply("ERROR\r\n")
	}
}

// asciiSpace marks the ASCII bytes unicode.IsSpace reports as space.
var asciiSpace = [utf8.RuneSelf]bool{'\t': true, '\n': true, '\v': true, '\f': true, '\r': true, ' ': true}

// appendFields appends the whitespace-separated fields of line to dst, as
// slices of line. It splits exactly where bytes.Fields does (unicode.IsSpace,
// so "\r\n" never ends up in a field) but reuses dst instead of allocating.
func appendFields(dst [][]byte, line []byte) [][]byte {
	start := -1
	for i := 0; i < len(line); {
		space, size := false, 1
		if b := line[i]; b < utf8.RuneSelf {
			space = asciiSpace[b]
		} else {
			var r rune
			r, size = utf8.DecodeRune(line[i:])
			space = unicode.IsSpace(r)
		}
		switch {
		case space && start >= 0:
			dst = append(dst, line[start:i])
			start = -1
		case !space && start < 0:
			start = i
		}
		i += size
	}
	if start >= 0 {
		dst = append(dst, line[start:])
	}
	return dst
}

// noteSlow counts and event-logs a request that crossed SlowOpThreshold.
// Unlike trace sampling this sees every request: the check rides on the
// per-request timing the latency histograms already pay for, so slow
// outliers surface even with tracing disabled.
func (s *Server) noteSlow(verb string, key []byte, start time.Time) {
	th := s.cfg.SlowOpThreshold
	if th <= 0 {
		return
	}
	d := time.Since(start)
	if d < th {
		return
	}
	s.metrics.SlowOps.Add(1)
	s.event("slow", "%s %q took %s (threshold %s)", verb, key, d, th)
}

// skip consumes a set payload of n bytes and its "\r\n" so that framing
// survives a rejected set; it reports whether the connection is still
// readable.
func (c *session) skip(n int) bool {
	if _, err := c.r.Discard(n); err != nil {
		return false
	}
	_, err := c.r.Discard(2)
	return err == nil
}

// set handles one `set <key> <flags> <exptime> <bytes> [noreply]` command;
// it reports whether the connection should stay open. sp is nil unless this
// request was sampled.
func (c *session) set(sp *trace.Span, start time.Time) bool {
	sp.Enter(trace.PhaseParse)
	s, m, f := c.s, &c.s.metrics, c.fields
	// The payload read below reuses the read buffer under f, so the key is
	// copied out first.
	c.key = append(c.key[:0], c.arg(1)...)
	noreply := len(f) == 6 && string(f[5]) == "noreply"
	if len(f) < 5 || len(f) > 6 || (len(f) == 6 && !noreply) {
		m.ProtocolErrors.Add(1)
		return c.reply("CLIENT_ERROR bad command line format\r\n")
	}
	n, err := strconv.Atoi(string(f[4]))
	if err != nil || n < 0 {
		// The payload length is unknowable; the stream cannot be
		// resynchronized. Report and keep reading (as memcached does).
		m.ProtocolErrors.Add(1)
		return c.reply("CLIENT_ERROR bad command line format\r\n")
	}
	// Both rejections below consume the declared payload first so framing
	// stays intact, and are client errors reported even on noreply.
	if len(c.key) > MaxKeyLen {
		if !c.skip(n) {
			return false
		}
		m.ProtocolErrors.Add(1)
		return c.reply("CLIENT_ERROR bad command line format\r\n")
	}
	if n > MaxValueSize {
		if !c.skip(n) {
			return false
		}
		m.StoreErrors.Add(1)
		return c.reply("SERVER_ERROR object too large for cache\r\n")
	}
	data := c.data[:n+2] // payload + trailing \r\n
	if _, err := io.ReadFull(c.r, data); err != nil {
		return false
	}
	if data[n] != '\r' || data[n+1] != '\n' {
		// Corrupt framing is reported even under noreply: the
		// connection is already suspect and silence would hide it.
		m.ProtocolErrors.Add(1)
		return c.reply("CLIENT_ERROR bad data chunk\r\n")
	}
	m.CmdSet.Add(1)
	sp.Enter(trace.PhaseStore)
	err = s.store.Set(c.key, data[:n])
	m.SetLatency.Observe(time.Since(start))
	sp.Enter(trace.PhaseReply)
	if err != nil {
		m.StoreErrors.Add(1)
		s.event("store", "set %q: %v", c.key, err)
	}
	if noreply {
		return true
	}
	switch {
	case errors.Is(err, ErrValueTooLarge):
		return c.reply("SERVER_ERROR object too large for cache\r\n")
	case err != nil:
		return c.reply(fmt.Sprintf("SERVER_ERROR %v\r\n", err))
	default:
		return c.reply("STORED\r\n")
	}
}

// get handles one `get <key>...` command; it reports whether the connection
// should stay open. The whole response (VALUE blocks + END) is built in one
// reply buffer and enqueued as a unit, so pipelined gets coalesce into the
// writer's per-burst flush.
func (c *session) get(sp *trace.Span, start time.Time) bool {
	sp.Enter(trace.PhaseParse)
	s, m := c.s, &c.s.metrics
	b := getReplyBuf()
	keys := c.fields[1:]
	if len(keys) == 0 {
		m.ProtocolErrors.Add(1)
		b.WriteString("ERROR\r\n")
		return c.enqueue(b)
	}
	for _, key := range keys {
		if len(key) > MaxKeyLen {
			m.ProtocolErrors.Add(1)
			b.WriteString("CLIENT_ERROR bad command line format\r\n")
			return c.enqueue(b)
		}
	}
	sp.Enter(trace.PhaseStore)
	for _, key := range keys {
		m.CmdGet.Add(1)
		if v, ok := s.store.Get(key); ok {
			m.GetHits.Add(1)
			writeValue(b, key, v)
		} else {
			m.GetMisses.Add(1)
		}
	}
	sp.Enter(trace.PhaseReply)
	b.WriteString("END\r\n")
	m.GetLatency.Observe(time.Since(start))
	return c.enqueue(b)
}

// writeValue appends one "VALUE <key> 0 <bytes>\r\n<data>\r\n" block to b.
func writeValue(b *bytes.Buffer, key, v []byte) {
	b.WriteString("VALUE ")
	b.Write(key)
	b.WriteString(" 0 ")
	b.Write(strconv.AppendInt(b.AvailableBuffer(), int64(len(v)), 10))
	b.WriteString("\r\n")
	b.Write(v)
	b.WriteString("\r\n")
}

// delete handles one `delete <key> [noreply]` command; it reports whether
// the connection should stay open.
func (c *session) delete(sp *trace.Span, start time.Time) bool {
	sp.Enter(trace.PhaseParse)
	s, m, f := c.s, &c.s.metrics, c.fields
	noreply := len(f) == 3 && string(f[2]) == "noreply"
	if len(f) < 2 || len(f) > 3 || (len(f) == 3 && !noreply) || len(f[1]) > MaxKeyLen {
		// An over-long key is a client error, reported even on noreply.
		m.ProtocolErrors.Add(1)
		return c.reply("CLIENT_ERROR bad command line format\r\n")
	}
	m.CmdDelete.Add(1)
	sp.Enter(trace.PhaseStore)
	found, err := s.store.Delete(f[1])
	m.DeleteLatency.Observe(time.Since(start))
	sp.Enter(trace.PhaseReply)
	if err != nil {
		m.StoreErrors.Add(1)
		s.event("store", "delete %q: %v", f[1], err)
	} else if found {
		m.DeleteHits.Add(1)
	} else {
		m.DeleteMisses.Add(1)
	}
	if noreply {
		return true
	}
	switch {
	case err != nil:
		return c.reply(fmt.Sprintf("SERVER_ERROR %v\r\n", err))
	case found:
		return c.reply("DELETED\r\n")
	default:
		return c.reply("NOT_FOUND\r\n")
	}
}

package kvserver

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"
)

// dialShort opens a test connection that leaves no TIME_WAIT behind: it is
// closed with a reset once the server has closed its side. Tests that open
// thousands of connections (FuzzProtocol) would otherwise exhaust the
// loopback ports.
func dialShort(t *testing.T, addr string) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	conn.(*net.TCPConn).SetLinger(0)
	t.Cleanup(func() { conn.Close() })
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	return conn
}

// exchange sends req on a fresh connection and returns every reply byte the
// server sends before it closes the connection. The write runs beside the
// read, so a server that closes early (line too long) cannot wedge the
// client; a reset after the replies counts as the close.
func exchange(t *testing.T, addr, req string) string {
	t.Helper()
	conn := dialShort(t, addr)
	defer conn.Close()
	go conn.Write([]byte(req)) //nolint:errcheck — the server may close mid-write
	got, err := io.ReadAll(conn)
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		t.Fatalf("connection still open after %q: got %q", truncate(req), got)
	}
	return string(got)
}

func truncate(s string) string {
	if len(s) > 80 {
		return s[:80] + "..."
	}
	return s
}

func TestAppendFieldsMatchesBytesFields(t *testing.T) {
	for _, line := range []string{
		"", "\r\n", " \t\v\f\r\n", "get a\r\n", "  set  k 0 0 5  noreply \r\n",
		"get a b　c\u0085d\r\n", "get \xff\xfe a\xc2\r\n", "x\x00y z",
	} {
		got := appendFields(nil, []byte(line))
		want := bytes.Fields([]byte(line))
		if fmt.Sprintf("%q", got) != fmt.Sprintf("%q", want) {
			t.Errorf("appendFields(%q) = %q, want %q", line, got, want)
		}
	}
}

// TestKeyLengthCap pins memcached's 250-byte key cap on every verb: a
// 250-byte key works, a 251-byte key is a client error, and a rejected set
// still consumes its payload so the next command stays in frame.
func TestKeyLengthCap(t *testing.T) {
	srv, addr, err := Serve("127.0.0.1:0", NewHashMapStore())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	maxKey, over := strings.Repeat("m", MaxKeyLen), strings.Repeat("o", MaxKeyLen+1)
	const bad = "CLIENT_ERROR bad command line format\r\n"
	req := "set " + maxKey + " 0 0 1\r\nx\r\n" +
		"get " + maxKey + "\r\n" +
		"delete " + maxKey + "\r\n" +
		"set " + over + " 0 0 1\r\nx\r\n" +
		"set " + over + " 0 0 5 noreply\r\nhello\r\n" +
		"get " + over + "\r\n" +
		"get a " + over + "\r\n" +
		"delete " + over + "\r\n" +
		"delete " + over + " noreply\r\n" +
		"version\r\nquit\r\n"
	want := "STORED\r\n" +
		"VALUE " + maxKey + " 0 1\r\nx\r\nEND\r\n" +
		"DELETED\r\n" +
		bad + bad + bad + bad + bad + bad +
		"VERSION " + Version + "\r\n"
	if got := exchange(t, addr, req); got != want {
		t.Fatalf("replies:\ngot:  %q\nwant: %q", got, want)
	}
	if _, ok := srv.store.Get([]byte(over)); ok {
		t.Fatal("over-long key was stored")
	}
}

// TestLineTooLong pins the bounded read buffer: a line that does not fit in
// MaxLineLen gets one error reply and a closed connection, while a line of
// exactly MaxLineLen bytes is parsed.
func TestLineTooLong(t *testing.T) {
	srv, addr, err := Serve("127.0.0.1:0", NewHashMapStore())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	const tooLong = "CLIENT_ERROR line too long\r\n"
	if got := exchange(t, addr, strings.Repeat("a", 1<<20)); got != tooLong {
		t.Fatalf("1 MiB line without newline: got %q, want %q", got, tooLong)
	}
	pad := func(n int) string { return "bogus" + strings.Repeat(" ", n-len("bogus\r\n")) + "\r\n" }
	if got := exchange(t, addr, pad(MaxLineLen)+"quit\r\n"); got != "ERROR\r\n" {
		t.Fatalf("line of MaxLineLen bytes: got %q, want ERROR", got)
	}
	if got := exchange(t, addr, pad(MaxLineLen+1)+"version\r\n"); got != tooLong {
		t.Fatalf("line of MaxLineLen+1 bytes: got %q, want %q", got, tooLong)
	}
	if got := srv.Metrics().ProtocolErrors.Load(); got != 3 {
		t.Fatalf("protocol_errors = %d, want 3", got)
	}
}

// TestOverlongKeysDoNotLeakSCM is the churn soak for the key cap: before it,
// every set+delete of a 64 KiB key leaked its key block for good, because
// the allocator drops frees too large for its size classes.
func TestOverlongKeysDoNotLeakSCM(t *testing.T) {
	p := pool()
	store, err := NewFPTreeCStore(p)
	if err != nil {
		t.Fatal(err)
	}
	srv, addr, err := Serve("127.0.0.1:0", store)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	const bad = "CLIENT_ERROR bad command line format\r\n"
	const tooLong = "CLIENT_ERROR line too long\r\n"
	k251, k64k := strings.Repeat("k", MaxKeyLen+1), strings.Repeat("K", 64<<10)
	for round := 0; round < 20; round++ {
		if got := exchange(t, addr, "set "+k251+" 0 0 1\r\nx\r\ndelete "+k251+"\r\nquit\r\n"); got != bad+bad {
			t.Fatalf("round %d, 251-byte key: got %q", round, got)
		}
		// A 64 KiB key hits the line limit, which closes the connection.
		if got := exchange(t, addr, "set "+k64k+" 0 0 1\r\nx\r\n"); got != tooLong {
			t.Fatalf("round %d, 64 KiB set: got %q", round, got)
		}
		if got := exchange(t, addr, "delete "+k64k+"\r\n"); got != tooLong {
			t.Fatalf("round %d, 64 KiB delete: got %q", round, got)
		}
	}
	if n := p.LargeFrees(); n != 0 {
		t.Fatalf("LargeFrees = %d after over-long key churn, want 0", n)
	}
	if n := store.(Checker).Len(); n != 0 {
		t.Fatalf("store holds %d keys, want 0", n)
	}
}

// TestStoreContractCallerBuffers pins the Store contract the in-place parser
// relies on: key and value slices are valid only for the duration of the
// call. Every store must copy what it keeps, so scribbling over the caller's
// buffers after each call must not change what later reads return.
func TestStoreContractCallerBuffers(t *testing.T) {
	stores := append(allStores(t), newShardedFPTreeC(t, 2))
	const n = 600 // enough to split leaves and grow inner nodes
	kbuf, vbuf := make([]byte, 0, 64), make([]byte, 0, MaxValueSize)
	key := func(i int) []byte { return fmt.Appendf(kbuf[:0], "contract-%05d", i) }
	want := func(i int) string { return fmt.Sprintf("value-%d-%s", i, strings.Repeat("v", i%50)) }
	val := func(i int) []byte { return append(vbuf[:0], want(i)...) }
	scribble := func(b []byte) {
		b = b[:cap(b)]
		for i := range b {
			b[i] = 0xA5
		}
	}
	for _, s := range stores {
		t.Run(s.Name(), func(t *testing.T) {
			for i := 0; i < n; i++ {
				k, v := key(i), val(i)
				if err := s.Set(k, v); err != nil {
					t.Fatal(err)
				}
				scribble(k)
				scribble(v)
				if _, ok := s.Get(key(i / 2)); !ok {
					t.Fatalf("get %d after set %d: missing", i/2, i)
				}
				scribble(kbuf)
			}
			for i := 0; i < n; i += 3 {
				if found, err := s.Delete(key(i)); err != nil || !found {
					t.Fatalf("delete %d = %v,%v", i, found, err)
				}
				scribble(kbuf)
			}
			for i := 0; i < n; i++ {
				v, ok := s.Get(key(i))
				switch {
				case i%3 == 0 && ok:
					t.Fatalf("key %d survived delete", i)
				case i%3 != 0 && (!ok || string(v) != want(i)):
					t.Fatalf("get %d = %q,%v, want %q", i, v, ok, want(i))
				}
			}
			if c, ok := s.(Checker); ok {
				if err := c.CheckInvariants(); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

// getLoad is a pipelined client that allocates nothing per request: it
// reuses pre-built batches of single-key gets, their expected replies and a
// fixed read buffer.
type getLoad struct {
	conn            net.Conn
	req, want, buf  []byte
	reqLen, wantLen int
}

const getLoadBatch = 100

func newGetLoad(tb testing.TB, addr string) *getLoad {
	tb.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { conn.Close() })
	const req, reply = "get k\r\n", "VALUE k 0 1\r\nv\r\nEND\r\n"
	return &getLoad{
		conn:    conn,
		req:     []byte(strings.Repeat(req, getLoadBatch)),
		want:    []byte(strings.Repeat(reply, getLoadBatch)),
		buf:     make([]byte, getLoadBatch*len(reply)),
		reqLen:  len(req),
		wantLen: len(reply),
	}
}

// run sends n gets in pipelined batches and checks every reply.
func (g *getLoad) run(n int) error {
	for n > 0 {
		k := min(n, getLoadBatch)
		if _, err := g.conn.Write(g.req[:k*g.reqLen]); err != nil {
			return err
		}
		got := g.buf[:k*g.wantLen]
		if _, err := io.ReadFull(g.conn, got); err != nil {
			return err
		}
		if !bytes.Equal(got, g.want[:len(got)]) {
			return fmt.Errorf("wrong replies: %q", got)
		}
		n -= k
	}
	return nil
}

func serveGetLoad(tb testing.TB) *getLoad {
	tb.Helper()
	srv, addr, err := Serve("127.0.0.1:0", NewHashMapStore())
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { srv.Close() })
	if err := srv.store.Set([]byte("k"), []byte("v")); err != nil {
		tb.Fatal(err)
	}
	g := newGetLoad(tb, addr)
	// Warm up: the connection's buffers and the reply-buffer pool fill on
	// the first requests.
	if err := g.run(10 * getLoadBatch); err != nil {
		tb.Fatal(err)
	}
	return g
}

// TestServerGetAllocs is the allocation gate of the request path: parsing a
// pipelined get, running it and formatting its reply must allocate nothing
// in steady state. The client allocates nothing either, so the process-wide
// malloc count is the server's.
func TestServerGetAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop items at random")
	}
	g := serveGetLoad(t)
	const requests = 10000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := g.run(requests); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	perReq := float64(after.Mallocs-before.Mallocs) / requests
	t.Logf("%.4f allocations per get", perReq)
	if perReq > 0.05 {
		t.Fatalf("%.4f allocations per pipelined get, want <= 0.05", perReq)
	}
}

// BenchmarkServerGet measures pipelined single-key gets over loopback
// against the hash map store, with allocations reported for profiling the
// request path.
func BenchmarkServerGet(b *testing.B) {
	g := serveGetLoad(b)
	b.ReportAllocs()
	b.ResetTimer()
	if err := g.run(b.N); err != nil {
		b.Fatal(err)
	}
}

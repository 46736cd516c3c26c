package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// control is the load's shared clock. phase is -1 during warm-up, then the
// index of the measured time slice, then the slice count once the load stops.
type control struct {
	epoch  time.Time
	phase  atomic.Int32
	slices int32
}

func (c *control) now() int64 { return int64(time.Since(c.epoch)) }

// recorder holds one connection's measured outcomes.
type recorder struct {
	slices    []sliceRec
	attempted uint64 // requests answered, in any phase
	failed    uint64 // requests answered wrongly, in any phase
	firstErr  error  // first wrong reply, for the report
}

type sliceRec struct {
	reqs      uint64
	keyOps    uint64               // store calls the requests imply
	userBytes uint64               // key+value bytes the sets wrote
	rttNs     [numOpKinds]uint64   // summed client round trips
	lat       [numOpKinds][]uint32 // client round trips in ns
}

// countingConn counts the client's own read and write calls, so the
// server's share of the process's syscalls can be told apart.
type countingConn struct {
	net.Conn
	calls *atomic.Uint64
}

func (c countingConn) Read(p []byte) (int, error) {
	c.calls.Add(1)
	return c.Conn.Read(p)
}

func (c countingConn) Write(p []byte) (int, error) {
	c.calls.Add(1)
	return c.Conn.Write(p)
}

// clientConn is one connection of the closed-loop load: it keeps a window of
// requests outstanding, writes new ones only once the replies already
// received have been read, and flushes them in one write, as pipelining
// memcached clients do.
type clientConn struct {
	r    *bufio.Reader
	w    *bufio.Writer
	gen  *generator
	led  *ledger
	win  []request // ring of outstanding requests, oldest at win[head]
	head int
	n    int
	buf  []byte
	data []byte
	rec  recorder
}

func newClientConn(nc net.Conn, calls *atomic.Uint64, gen *generator, led *ledger, slices int) *clientConn {
	cc := countingConn{nc, calls}
	return &clientConn{
		r:    bufio.NewReaderSize(cc, 64<<10),
		w:    bufio.NewWriterSize(cc, 64<<10),
		gen:  gen,
		led:  led,
		win:  make([]request, gen.w.Window),
		buf:  make([]byte, 0, 1024),
		data: make([]byte, 0, 256),
		rec:  recorder{slices: make([]sliceRec, slices)},
	}
}

// appendRequest appends the wire form of r.
func appendRequest(dst []byte, r *request) []byte {
	switch r.kind {
	case opGet:
		dst = append(dst, "get"...)
		for i := 0; i < r.n; i++ {
			dst = appendKey(append(dst, ' '), r.ids[i])
		}
		return append(dst, '\r', '\n')
	case opSet:
		dst = appendKey(append(dst, "set "...), r.ids[0])
		dst = append(dst, " 0 0 64\r\n"...)
		dst = appendValue(dst, r.ids[0], r.st[0]>>1)
		return append(dst, '\r', '\n')
	default:
		dst = appendKey(append(dst, "delete "...), r.ids[0])
		return append(dst, '\r', '\n')
	}
}

// run drives the connection until the load stops and every outstanding
// request is answered. It returns an error only when the reply stream cannot
// be parsed any further.
func (c *clientConn) run(ctl *control) error {
	for {
		if ctl.phase.Load() < ctl.slices && c.n < len(c.win) {
			fresh := c.n
			for c.n < len(c.win) {
				r := &c.win[(c.head+c.n)%len(c.win)]
				c.gen.next(r)
				c.buf = appendRequest(c.buf[:0], r)
				if _, err := c.w.Write(c.buf); err != nil {
					return err
				}
				c.n++
			}
			if err := c.w.Flush(); err != nil {
				return err
			}
			now := ctl.now()
			for i := fresh; i < c.n; i++ {
				c.win[(c.head+i)%len(c.win)].sent = now
			}
		}
		if c.n == 0 {
			return nil
		}
		for {
			r := &c.win[c.head]
			ok, err := c.readReply(r)
			if err != nil {
				return err
			}
			c.note(ctl, r, ok)
			c.head = (c.head + 1) % len(c.win)
			c.n--
			if c.n == 0 || c.r.Buffered() == 0 {
				break
			}
		}
	}
}

func (c *clientConn) note(ctl *control, r *request, ok bool) {
	c.rec.attempted++
	if !ok {
		c.rec.failed++
	}
	ph := ctl.phase.Load()
	if ph < 0 || ph >= ctl.slices {
		return
	}
	rtt := ctl.now() - r.sent
	s := &c.rec.slices[ph]
	s.reqs++
	s.keyOps += uint64(r.n)
	if r.kind == opSet {
		s.userBytes += keyLen + valueLen
	}
	s.rttNs[r.kind] += uint64(rtt)
	s.lat[r.kind] = append(s.lat[r.kind], uint32(min(rtt, 1<<32-1)))
}

// errWrongReply marks a reply that was framed correctly but is not the
// answer the request must get.
var errWrongReply = errors.New("wrong reply")

// readReply consumes the reply to r. A wrong answer returns ok=false; a
// stream that can no longer be framed returns an error.
func (c *clientConn) readReply(r *request) (bool, error) {
	var err error
	if r.kind == opGet {
		c.data, err = readGetReply(c.r, r, c.led, c.data)
	} else {
		err = readStoreReply(c.r, r)
		if err == nil {
			c.led.ack(r.ids[0], r.st[0])
		}
	}
	if errors.Is(err, errWrongReply) {
		if c.rec.firstErr == nil {
			c.rec.firstErr = err
		}
		return false, nil
	}
	return err == nil, err
}

// readStoreReply reads the one-line reply to a set or delete.
func readStoreReply(br *bufio.Reader, r *request) error {
	line, err := br.ReadSlice('\n')
	if err != nil {
		return fmt.Errorf("reading %s reply: %w", opNames[r.kind], err)
	}
	want := "STORED\r\n"
	if r.kind == opDelete {
		want = "DELETED\r\n"
	}
	if string(line) != want {
		return fmt.Errorf("%w: %s %x answered %q", errWrongReply, opNames[r.kind], mix64(r.ids[0]), line)
	}
	return nil
}

// readGetReply reads the VALUE blocks and END of a get. Every requested key
// must come back, in order, holding a version the ledger allows: exactly the
// last one issued for the connection's own keys, and for other keys one
// between the last acknowledged when the get was sent and the last issued
// now. data is scratch space for the value and is returned for reuse.
func readGetReply(br *bufio.Reader, r *request, led *ledger, data []byte) ([]byte, error) {
	var keyBuf [keyLen]byte
	var wrong error
	for i := 0; ; i++ {
		line, err := br.ReadSlice('\n')
		if err != nil {
			return data, fmt.Errorf("reading get reply: %w", err)
		}
		if string(line) == "END\r\n" {
			if i < r.n && wrong == nil {
				wrong = fmt.Errorf("%w: get answered %d of %d keys", errWrongReply, i, r.n)
			}
			return data, wrong
		}
		key, size, ok := parseValueLine(line)
		if !ok {
			return data, fmt.Errorf("malformed get reply line %q", line)
		}
		if cap(data) < size+2 {
			data = make([]byte, size+2)
		}
		data = data[:size+2]
		if _, err := io.ReadFull(br, data); err != nil {
			return data, fmt.Errorf("reading value block: %w", err)
		}
		if data[size] != '\r' || data[size+1] != '\n' {
			return data, fmt.Errorf("value block of %q not terminated by CRLF", key)
		}
		if wrong != nil {
			continue
		}
		if i >= r.n {
			wrong = fmt.Errorf("%w: get answered more than %d keys", errWrongReply, r.n)
			continue
		}
		id := r.ids[i]
		if !bytes.Equal(key, appendKey(keyBuf[:0], id)) {
			wrong = fmt.Errorf("%w: get of k:%016x answered key %q", errWrongReply, mix64(id), key)
			continue
		}
		ver, ok := valueVersion(data[:size], id)
		got := verState(ver, false)
		switch {
		case !ok:
			wrong = fmt.Errorf("%w: key %q holds a foreign value %q", errWrongReply, key, data[:size])
		case r.own[i] && got != r.st[i]:
			wrong = fmt.Errorf("%w: key %q holds version %d, want %d", errWrongReply, key, ver, r.st[i]>>1)
		case !r.own[i]:
			if issued, _ := led.load(id); got < r.st[i] || got > issued {
				wrong = fmt.Errorf("%w: key %q holds version %d, want %d..%d", errWrongReply, key, ver, r.st[i]>>1, issued>>1)
			}
		}
	}
}

// parseValueLine splits "VALUE <key> <flags> <bytes>\r\n".
func parseValueLine(line []byte) (key []byte, size int, ok bool) {
	rest, found := bytes.CutPrefix(line, []byte("VALUE "))
	if !found {
		return nil, 0, false
	}
	rest, found = bytes.CutSuffix(rest, []byte("\r\n"))
	if !found {
		return nil, 0, false
	}
	key, rest, found = bytes.Cut(rest, []byte{' '})
	if !found || len(key) == 0 {
		return nil, 0, false
	}
	_, rest, found = bytes.Cut(rest, []byte{' '}) // flags
	if !found || len(rest) == 0 || len(rest) > 6 {
		return nil, 0, false
	}
	for _, c := range rest {
		if c < '0' || c > '9' {
			return nil, 0, false
		}
		size = size*10 + int(c-'0')
	}
	return key, size, true
}

// loadResult is what the client saw during the measured slices, plus its
// outcome counts over the whole load.
type loadResult struct {
	slices      []sliceRec
	sliceDur    []time.Duration
	attempted   uint64
	failed      uint64
	firstErr    error
	clientCalls uint64 // the client's read/write calls during the measured slices
	before      snapshot
	after       snapshot
}

// runLoad runs the closed loop, one connection per generator, against addr:
// warm-up, then slices measured slices of sliceDur each. snap is taken at the
// measured window's two edges.
func runLoad(addr string, gens []*generator, led *ledger, warmup, sliceDur time.Duration, slices int, snap func() snapshot) (*loadResult, error) {
	ctl := &control{epoch: time.Now(), slices: int32(slices)}
	ctl.phase.Store(-1)
	deadline := ctl.epoch.Add(warmup + time.Duration(slices)*sliceDur + 60*time.Second)
	var calls atomic.Uint64
	conns := make([]*clientConn, len(gens))
	for i, g := range gens {
		nc, err := net.Dial("tcp", addr)
		if err != nil {
			return nil, fmt.Errorf("dial %s: %w", addr, err)
		}
		defer nc.Close()
		if err := nc.SetDeadline(deadline); err != nil {
			return nil, err
		}
		conns[i] = newClientConn(nc, &calls, g, led, slices)
	}
	errs := make([]error, len(conns))
	var wg sync.WaitGroup
	for i, c := range conns {
		wg.Add(1)
		go func(i int, c *clientConn) {
			defer wg.Done()
			errs[i] = c.run(ctl)
		}(i, c)
	}

	res := &loadResult{sliceDur: make([]time.Duration, slices)}
	time.Sleep(warmup)
	res.before = snap()
	callsBefore := calls.Load()
	start := time.Now()
	ctl.phase.Store(0)
	prev := start
	for i := 0; i < slices; i++ {
		time.Sleep(time.Until(start.Add(time.Duration(i+1) * sliceDur)))
		if i == slices-1 {
			res.after = snap()
			res.clientCalls = calls.Load() - callsBefore
		}
		now := time.Now()
		ctl.phase.Store(int32(i + 1))
		res.sliceDur[i] = now.Sub(prev)
		prev = now
	}
	wg.Wait()

	res.slices = make([]sliceRec, slices)
	for _, c := range conns {
		res.attempted += c.rec.attempted
		res.failed += c.rec.failed
		if res.firstErr == nil {
			res.firstErr = c.rec.firstErr
		}
		for i := range res.slices {
			d, s := &res.slices[i], &c.rec.slices[i]
			d.reqs += s.reqs
			d.keyOps += s.keyOps
			d.userBytes += s.userBytes
			for k := range d.lat {
				d.rttNs[k] += s.rttNs[k]
				d.lat[k] = append(d.lat[k], s.lat[k]...)
			}
		}
	}
	for _, err := range errs {
		if err != nil {
			return res, err
		}
	}
	return res, nil
}

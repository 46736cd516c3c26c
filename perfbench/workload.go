package main

import (
	"fmt"
	"math/rand"
	"sync/atomic"
	"time"
)

// Fixed shape of every workload: the server is memkv's default store split
// over two shards, and the load comes from two pipelined connections (one per
// CPU of the reference host).
const (
	numShards  = 2
	numConns   = 2
	keyLen     = 18 // "k:" + 16 hex digits
	valueLen   = 64
	zipfTheta  = 1.1
	maxGetKeys = 10
	scmLatency = 250 * time.Nanosecond
)

// mix gives the percentage of each request kind; the four add up to 100.
type mix struct {
	Get       int `json:"get"`
	Overwrite int `json:"set_overwrite"`
	Insert    int `json:"set_new"`
	Delete    int `json:"delete"`
}

// workload is one traffic mix the benchmark can run.
type workload struct {
	Name     string        `json:"name"`
	Mix      mix           `json:"mix"`
	Window   int           `json:"window"`         // requests outstanding per connection
	MultiGet int           `json:"keys_per_get"`   // keys per get request
	Zipf     bool          `json:"zipf"`           // zipfian (θ = zipfTheta) instead of uniform keys
	Latency  time.Duration `json:"scm_latency_ns"` // emulated SCM read/write latency, 0 = count only
}

// scmMode names how the emulator charges latency in this workload.
func (w workload) scmMode() string {
	if w.Latency == 0 {
		return "count"
	}
	return "spin"
}

// workloads are the benchmark's traffic mixes; README.md says why each exists.
var workloads = []workload{
	{Name: "read_zipf", Mix: mix{Get: 95, Overwrite: 5}, Window: 16, MultiGet: 1, Zipf: true},
	{Name: "multiget_cold", Mix: mix{Get: 100}, Window: 8, MultiGet: maxGetKeys, Latency: scmLatency},
	{Name: "write_churn", Mix: mix{Get: 30, Overwrite: 30, Insert: 20, Delete: 20}, Window: 16, MultiGet: 1, Latency: scmLatency},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// mix64 is the splitmix64 finalizer, a bijection on uint64: distinct key ids
// give distinct keys, and neighbouring ids (hot ranks, fresh inserts) land on
// unrelated leaves.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

const hexDigits = "0123456789abcdef"

func appendHex(dst []byte, v uint64, digits int) []byte {
	for i := digits - 1; i >= 0; i-- {
		dst = append(dst, hexDigits[(v>>(4*uint(i)))&0xf])
	}
	return dst
}

// appendKey appends the key of id.
func appendKey(dst []byte, id uint64) []byte {
	return appendHex(append(dst, 'k', ':'), mix64(id), 16)
}

// appendValue appends the 64-byte value that version ver of key id holds:
// the id and version in hex, then filler derived from both, so a value read
// back names the key and write it came from.
func appendValue(dst []byte, id uint64, ver uint32) []byte {
	dst = appendHex(dst, id, 16)
	dst = append(dst, ':')
	dst = appendHex(dst, uint64(ver), 8)
	dst = append(dst, ':')
	f := mix64(id ^ uint64(ver)<<40)
	for i := 26; i < valueLen; i++ {
		dst = append(dst, 'a'+byte((f>>uint(i%58))%26))
	}
	return dst
}

// valueVersion checks that v is a value of key id and returns its version.
func valueVersion(v []byte, id uint64) (uint32, bool) {
	if len(v) != valueLen {
		return 0, false
	}
	var ver uint64
	for _, c := range v[17:25] {
		switch {
		case c >= '0' && c <= '9':
			ver = ver<<4 | uint64(c-'0')
		case c >= 'a' && c <= 'f':
			ver = ver<<4 | uint64(c-'a'+10)
		default:
			return 0, false
		}
	}
	var want [valueLen]byte
	if string(appendValue(want[:0], id, uint32(ver))) != string(v) {
		return 0, false
	}
	return uint32(ver), true
}

// A key's write history is summarised as a version: the number of sets and
// deletes applied to it since the preload (which wrote version 0), shifted
// left once, with bit 0 set when the latest write was a delete.
func verState(ver uint32, deleted bool) uint32 {
	s := ver << 1
	if deleted {
		s |= 1
	}
	return s
}

const (
	chunkBits = 16
	chunkLen  = 1 << chunkBits
	maxChunks = 1 << 12 // 268M key ids; a run creates well under 10M
)

// ledger holds, per key id, the last write its owning connection issued
// (high half) and the last write the server acknowledged (low half), both as
// verState values. Only the owner stores an entry; other connections load
// it to bound the version a read may return.
type ledger struct {
	chunks [maxChunks]atomic.Pointer[[chunkLen]atomic.Uint64]
}

func (l *ledger) slot(id uint64) *atomic.Uint64 {
	c := &l.chunks[id>>chunkBits]
	p := c.Load()
	if p == nil {
		c.CompareAndSwap(nil, new([chunkLen]atomic.Uint64))
		p = c.Load()
	}
	return &p[id&(chunkLen-1)]
}

func (l *ledger) load(id uint64) (issued, acked uint32) {
	v := l.slot(id).Load()
	return uint32(v >> 32), uint32(v)
}

func (l *ledger) issue(id uint64, st uint32) {
	s := l.slot(id)
	s.Store(uint64(st)<<32 | s.Load()&0xffffffff)
}

func (l *ledger) ack(id uint64, st uint32) {
	s := l.slot(id)
	s.Store(s.Load()&^0xffffffff | uint64(st))
}

type opKind uint8

const (
	opGet opKind = iota
	opSet
	opDelete
	numOpKinds
)

var opNames = [numOpKinds]string{"get", "set", "delete"}

// request is one memcached command and what its reply must show.
type request struct {
	kind opKind
	n    int                // keys in ids (more than 1 only for a multi-key get)
	ids  [maxGetKeys]uint64 // key ids
	st   [maxGetKeys]uint32 // set/delete: the state written; get: the oldest acceptable state per key
	own  [maxGetKeys]bool   // get: the key belongs to this connection, so st is exact
	sent int64              // ns since the run's epoch when the request was flushed
}

// generator makes one connection's request stream. Its choices depend only on
// the seed and on the connection's own earlier requests, so a seed fixes the
// stream.
type generator struct {
	w    workload
	conn uint64
	keys uint64 // preloaded key ids are [0, keys)
	rng  *rand.Rand
	zipf *rand.Zipf
	led  *ledger

	// write_churn: this connection's live key ids, oldest first, from
	// live[head:]; fresh ids are keys + numConns*n + conn.
	live    []uint64
	head    int
	inserts uint64
}

func newGenerator(w workload, seed int64, conn int, keys uint64, led *ledger) *generator {
	rng := rand.New(rand.NewSource(seed*1000003 + int64(conn)))
	g := &generator{w: w, conn: uint64(conn), keys: keys, rng: rng, led: led}
	if w.Zipf {
		g.zipf = rand.NewZipf(rng, zipfTheta, 1, keys-1)
	}
	if w.Mix.Insert > 0 || w.Mix.Delete > 0 {
		for id := g.conn; id < keys; id += numConns {
			g.live = append(g.live, id)
		}
	}
	return g
}

// anyKey draws a preloaded key id, zipfian or uniform.
func (g *generator) anyKey() uint64 {
	if g.zipf != nil {
		return g.zipf.Uint64()
	}
	return uint64(g.rng.Int63n(int64(g.keys)))
}

// ownKey maps a drawn id to this connection's neighbour of it, so every key
// has exactly one writer and its order of writes is known.
func (g *generator) ownKey(id uint64) uint64 {
	return id - id%numConns + g.conn
}

func (g *generator) pickLive() uint64 {
	return g.live[g.head+g.rng.Intn(len(g.live)-g.head)]
}

// next fills r with the connection's next request and records any write in
// the ledger as issued.
func (g *generator) next(r *request) {
	p := g.rng.Intn(100)
	m := g.w.Mix
	switch {
	case p < m.Get:
		r.kind, r.n = opGet, g.w.MultiGet
		for i := 0; i < r.n; i++ {
			var id uint64
			if g.live != nil {
				id = g.pickLive()
			} else {
				id = g.anyKey()
			}
			issued, acked := g.led.load(id)
			r.ids[i], r.own[i] = id, id%numConns == g.conn
			if r.own[i] {
				r.st[i] = issued
			} else {
				r.st[i] = acked
			}
		}
	case p < m.Get+m.Overwrite:
		var id uint64
		if g.live != nil {
			id = g.pickLive()
		} else {
			id = g.ownKey(g.anyKey())
		}
		g.write(r, opSet, id)
	case p < m.Get+m.Overwrite+m.Insert:
		id := g.keys + numConns*g.inserts + g.conn
		g.inserts++
		g.live = append(g.live, id)
		g.write(r, opSet, id)
	default:
		id := g.live[g.head]
		g.head++
		if g.head > len(g.live)/2 {
			g.live = append(g.live[:0], g.live[g.head:]...)
			g.head = 0
		}
		g.write(r, opDelete, id)
	}
}

func (g *generator) write(r *request, kind opKind, id uint64) {
	issued, _ := g.led.load(id)
	st := verState(issued>>1+1, kind == opDelete)
	g.led.issue(id, st)
	r.kind, r.n, r.ids[0], r.st[0] = kind, 1, id, st
}

// eachInserted calls fn with every fresh key id this connection has written.
func (g *generator) eachInserted(fn func(id uint64)) {
	for n := uint64(0); n < g.inserts; n++ {
		fn(g.keys + numConns*n + g.conn)
	}
}

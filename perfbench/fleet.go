package main

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"fptree/internal/kvserver"
	"fptree/internal/obs"
	"fptree/internal/scm"
)

// fleet is the server under test, built as memkv builds its default store:
// one concurrent FPTree per shard over an in-memory SCM arena, behind the
// jump-hash router, with the fixed retry policy and no tracer.
type fleet struct {
	pools  []*scm.Pool
	stores []kvserver.Store
	router *kvserver.ShardedStore // over stores, undecorated
	srv    *kvserver.Server
	addr   string
	reg    *obs.Registry
	timed  *timing // non-nil while a traced server runs
}

// newFleet creates the arenas and shard trees, preloads keys ids [0, keys)
// at version 0 with the emulator in count mode, switches the arenas to the
// workload's SCM latency and starts the server. The returned duration is the
// set-up time.
func newFleet(w workload, keys uint64, poolBytes int64) (*fleet, time.Duration, error) {
	start := time.Now()
	f := &fleet{pools: make([]*scm.Pool, numShards)}
	for i := range f.pools {
		f.pools[i] = scm.NewPool(poolBytes, scm.LatencyConfig{Mode: scm.LatencyCount})
	}
	stores, err := kvserver.BuildShardStores(numShards, func(i int) (kvserver.Store, error) {
		return kvserver.NewFPTreeCStore(f.pools[i])
	})
	if err != nil {
		return nil, 0, err
	}
	f.stores = stores
	if f.router, err = kvserver.NewShardedStore(stores, f.pools); err != nil {
		return nil, 0, err
	}
	router := f.router
	errs := make([]error, numShards)
	var wg sync.WaitGroup
	for i := range stores {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var k [keyLen]byte
			var v [valueLen]byte
			for id := uint64(0); id < keys; id++ {
				key := appendKey(k[:0], id)
				if router.ShardFor(key) != i {
					continue
				}
				if err := stores[i].Set(key, appendValue(v[:0], id, 0)); err != nil {
					errs[i] = fmt.Errorf("preload shard %d: %w", i, err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, 0, err
		}
	}
	f.setLatency(w.Latency)
	if err := f.serve(false); err != nil {
		return nil, 0, err
	}
	return f, time.Since(start), nil
}

func (f *fleet) setLatency(lat time.Duration) {
	for _, p := range f.pools {
		if lat == 0 {
			p.SetLatency(scm.LatencyCount, 0, 0)
		} else {
			p.SetLatency(scm.LatencySpin, lat, lat)
		}
	}
}

// serve starts a server over the shard stores. With traced set, the router
// and every shard store are wrapped in timing decorators first.
func (f *fleet) serve(traced bool) error {
	shards := f.stores
	f.timed = nil
	if traced {
		f.timed = &timing{}
		shards = make([]kvserver.Store, len(f.stores))
		for i, st := range f.stores {
			ts := &timedStore{Store: st}
			f.timed.shards = append(f.timed.shards, ts)
			shards[i] = ts
		}
	}
	router, err := kvserver.NewShardedStore(shards, f.pools)
	if err != nil {
		return err
	}
	var st kvserver.Store = router
	if traced {
		f.timed.router = &timedStore{Store: router}
		st = f.timed.router
	}
	srv, addr, err := kvserver.ServeConfig("127.0.0.1:0", st, kvserver.Config{Pools: f.pools})
	if err != nil {
		return err
	}
	f.srv, f.addr = srv, addr
	f.reg = obs.NewRegistry()
	srv.RegisterMetrics(f.reg)
	return nil
}

func (f *fleet) stop() {
	if f.srv != nil {
		f.srv.Close()
		f.srv = nil
	}
}

// recovery is one crash-and-reopen of every shard.
type recovery struct {
	wall    time.Duration // from the first reopen starting to the router being ready
	shardNs int64         // summed reopen time of the shards
	leaves  uint64        // persistent leaves the reopens scanned
}

// crashAndRecover stops the server, power-fails every arena (unflushed lines
// are lost), and reopens all shards in parallel at the emulated SCM latency,
// as memkv does after a crash.
func (f *fleet) crashAndRecover() (recovery, error) {
	f.stop()
	for _, p := range f.pools {
		p.Crash()
	}
	f.setLatency(scmLatency)
	var rec recovery
	shardNs := make([]int64, numShards)
	start := time.Now()
	stores, err := kvserver.BuildShardStores(numShards, func(i int) (kvserver.Store, error) {
		t := time.Now()
		st, err := kvserver.OpenFPTreeCStore(f.pools[i], 1)
		shardNs[i] = int64(time.Since(t))
		return st, err
	})
	if err != nil {
		return rec, err
	}
	router, err := kvserver.NewShardedStore(stores, f.pools)
	if err != nil {
		return rec, err
	}
	rec.wall = time.Since(start)
	f.stores, f.router = stores, router
	for i, st := range stores {
		rec.shardNs += shardNs[i]
		reg := obs.NewRegistry()
		ms, ok := st.(interface{ RegisterMetrics(*obs.Registry) })
		if !ok {
			return rec, fmt.Errorf("shard store %s exposes no metrics", st.Name())
		}
		ms.RegisterMetrics(reg)
		rec.leaves += uint64(reg.Snapshot().Get("fptree_recovery_leaves_scanned_total"))
	}
	return rec, nil
}

// verify checks, untimed, that the recovered shards hold exactly what the
// server acknowledged: every shard passes its invariant check, every key
// whose last acknowledged write was a set holds that version, and every key
// whose last acknowledged write was a delete is absent. It returns the number
// of checks made and failed, and the first failure.
func (f *fleet) verify(led *ledger, keys uint64, gens []*generator) (checked, failed uint64, first error) {
	f.setLatency(0)
	fail := func(err error) {
		failed++
		if first == nil {
			first = err
		}
	}
	live := 0
	var k [keyLen]byte
	check := func(id uint64) {
		checked++
		issued, acked := led.load(id)
		key := appendKey(k[:0], id)
		v, ok := f.router.Get(key)
		switch {
		case acked&1 == 1:
			if ok {
				fail(fmt.Errorf("deleted key %q survived recovery", key))
			}
		case !ok:
			if issued&1 == 0 || issued == acked {
				fail(fmt.Errorf("key %q (version %d) lost in recovery", key, acked>>1))
			}
		default:
			live++
			ver, good := valueVersion(v, id)
			got := verState(ver, false)
			if !good || (got != acked && got != issued) {
				fail(fmt.Errorf("key %q recovered as %q, want version %d", key, v, acked>>1))
			}
		}
	}
	for id := uint64(0); id < keys; id++ {
		check(id)
	}
	for _, g := range gens {
		g.eachInserted(check)
	}
	n := 0
	for i, st := range f.stores {
		checked++
		c, ok := st.(kvserver.Checker)
		if !ok {
			fail(fmt.Errorf("shard %d cannot be checked", i))
			continue
		}
		if err := c.CheckInvariants(); err != nil {
			fail(fmt.Errorf("shard %d: %w", i, err))
		}
		n += c.Len()
	}
	checked++
	if n != live {
		fail(fmt.Errorf("recovered shards hold %d keys, %d expected", n, live))
	}
	return checked, failed, first
}

// timer sums the calls and wall time of one operation kind.
type timer struct {
	calls atomic.Uint64
	ns    atomic.Uint64
}

func (t *timer) since(start time.Time) {
	t.ns.Add(uint64(time.Since(start)))
	t.calls.Add(1)
}

// timedStore times every call into the store it wraps.
type timedStore struct {
	kvserver.Store
	ops [numOpKinds]timer
}

func (s *timedStore) Get(k []byte) ([]byte, bool) {
	t := time.Now()
	v, ok := s.Store.Get(k)
	s.ops[opGet].since(t)
	return v, ok
}

func (s *timedStore) Set(k, v []byte) error {
	t := time.Now()
	err := s.Store.Set(k, v)
	s.ops[opSet].since(t)
	return err
}

func (s *timedStore) Delete(k []byte) (bool, error) {
	t := time.Now()
	ok, err := s.Store.Delete(k)
	s.ops[opDelete].since(t)
	return ok, err
}

// timing holds the decorators of one traced server: one around the router
// and one around each shard store.
type timing struct {
	router *timedStore
	shards []*timedStore
}

// callTime is a copy of one timer.
type callTime struct{ calls, ns uint64 }

// timingSnap is a copy of the decorators' timers.
type timingSnap struct {
	router [numOpKinds]callTime
	shards [][numOpKinds]callTime
}

func (t *timing) snap() timingSnap {
	read := func(s *timedStore) (out [numOpKinds]callTime) {
		for k := range s.ops {
			out[k] = callTime{s.ops[k].calls.Load(), s.ops[k].ns.Load()}
		}
		return out
	}
	s := timingSnap{router: read(t.router)}
	for _, sh := range t.shards {
		s.shards = append(s.shards, read(sh))
	}
	return s
}

func (s timingSnap) sub(o timingSnap) timingSnap {
	diff := func(a, b [numOpKinds]callTime) (out [numOpKinds]callTime) {
		for k := range a {
			out[k] = callTime{a[k].calls - b[k].calls, a[k].ns - b[k].ns}
		}
		return out
	}
	d := timingSnap{router: diff(s.router, o.router)}
	for i := range s.shards {
		d.shards = append(d.shards, diff(s.shards[i], o.shards[i]))
	}
	return d
}

package kvserver

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"fptree/internal/obs"
	"fptree/internal/scm"
)

func newShardedFPTreeC(t testing.TB, n int) *ShardedStore {
	t.Helper()
	pools := make([]*scm.Pool, n)
	stores := make([]Store, n)
	for i := range stores {
		pools[i] = pool()
		st, err := NewFPTreeCStore(pools[i])
		if err != nil {
			t.Fatal(err)
		}
		stores[i] = st
	}
	ss, err := NewShardedStore(stores, pools)
	if err != nil {
		t.Fatal(err)
	}
	return ss
}

// TestShardForStable pins the key→shard mapping: it must be a pure function
// of (key, shard count) — no process state — because the per-shard arena
// files persist the partition across restarts. A drift here would strand
// every persisted key on the wrong shard.
func TestShardForStable(t *testing.T) {
	a := newShardedFPTreeC(t, 4)
	b := newShardedFPTreeC(t, 4)
	counts := make([]int, 4)
	for i := 0; i < 4096; i++ {
		k := []byte(fmt.Sprintf("key-%06d", i))
		sa, sb := a.ShardFor(k), b.ShardFor(k)
		if sa != sb {
			t.Fatalf("ShardFor(%s) differs across instances: %d vs %d", k, sa, sb)
		}
		if sa < 0 || sa >= 4 {
			t.Fatalf("ShardFor(%s) = %d out of range", k, sa)
		}
		counts[sa]++
	}
	// The hash must spread keys: with 4096 keys over 4 shards, each shard
	// should hold roughly 1024; a shard below 1/4 of that indicates a broken
	// hash, not bad luck.
	for i, c := range counts {
		if c < 256 {
			t.Fatalf("shard %d holds only %d/4096 keys: %v", i, c, counts)
		}
	}
	// One bucket degenerates to the identity mapping.
	one := newShardedFPTreeC(t, 1)
	if got := one.ShardFor([]byte("anything")); got != 0 {
		t.Fatalf("ShardFor with 1 shard = %d", got)
	}
}

// TestShardedStoreDifferential checks the router against a plain map oracle:
// routing must never lose, duplicate or misdeliver a key.
func TestShardedStoreDifferential(t *testing.T) {
	ss := newShardedFPTreeC(t, 4)
	oracle := map[string]string{}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 5000; i++ {
		k := fmt.Sprintf("key-%04d", rng.Intn(800))
		switch rng.Intn(3) {
		case 0, 1:
			v := fmt.Sprintf("val-%d", i)
			if err := ss.Set([]byte(k), []byte(v)); err != nil {
				t.Fatal(err)
			}
			oracle[k] = v
		case 2:
			found, err := ss.Delete([]byte(k))
			if err != nil {
				t.Fatal(err)
			}
			if _, want := oracle[k]; found != want {
				t.Fatalf("delete(%s) found=%v, oracle=%v", k, found, want)
			}
			delete(oracle, k)
		}
	}
	if ss.Len() != len(oracle) {
		t.Fatalf("Len = %d, oracle has %d", ss.Len(), len(oracle))
	}
	for k, want := range oracle {
		v, ok := ss.Get([]byte(k))
		if !ok || string(v) != want {
			t.Fatalf("get(%s) = %q,%v, want %q", k, v, ok, want)
		}
	}
	if err := ss.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func openShardedFromFiles(t *testing.T, path string, n int) (*ShardedStore, []bool) {
	t.Helper()
	pools, recovered, err := scm.OpenFileShards(path, n, 16<<20, scm.LatencyConfig{})
	if err != nil {
		t.Fatal(err)
	}
	stores, err := BuildShardStores(n, func(i int) (Store, error) {
		if recovered[i] {
			return OpenFPTreeCStore(pools[i], 2)
		}
		return NewFPTreeCStore(pools[i])
	})
	if err != nil {
		t.Fatal(err)
	}
	ss, err := NewShardedStore(stores, pools)
	if err != nil {
		t.Fatal(err)
	}
	return ss, recovered
}

// TestShardedRestartRecoversAllShards persists keys across a fleet of shard
// files, closes cleanly, reopens, and requires every key back — which holds
// only if the hash is restart-stable AND every shard file recovered.
func TestShardedRestartRecoversAllShards(t *testing.T) {
	path := filepath.Join(t.TempDir(), "data")
	const n = 4

	ss, recovered := openShardedFromFiles(t, path, n)
	for _, r := range recovered {
		if r {
			t.Fatal("fresh files reported recovered")
		}
	}
	const keys = 500
	for i := 0; i < keys; i++ {
		if err := ss.Set([]byte(fmt.Sprintf("k%04d", i)), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := ss.Close(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if _, err := os.Stat(scm.ShardPath(path, i)); err != nil {
			t.Fatalf("shard file %d: %v", i, err)
		}
	}

	ss2, recovered2 := openShardedFromFiles(t, path, n)
	defer ss2.Close()
	for i, r := range recovered2 {
		if !r {
			t.Fatalf("shard %d did not recover", i)
		}
	}
	if ss2.Len() != keys {
		t.Fatalf("recovered Len = %d, want %d", ss2.Len(), keys)
	}
	for i := 0; i < keys; i++ {
		k := fmt.Sprintf("k%04d", i)
		v, ok := ss2.Get([]byte(k))
		if !ok || string(v) != fmt.Sprintf("v%d", i) {
			t.Fatalf("after restart get(%s) = %q,%v", k, v, ok)
		}
	}
	if err := ss2.CheckInvariants(); err != nil {
		t.Fatal(err)
	}

	// Reopening narrower than the on-disk fleet must fail loudly, not
	// silently strand the keys of the dropped shards.
	if err := ss2.Close(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := scm.OpenFileShards(path, n/2, 16<<20, scm.LatencyConfig{}); err == nil {
		t.Fatal("opening 4-shard fleet with 2 shards succeeded")
	}
}

// TestShardedSyncFanOut pins the -sync ticker contract: one router Sync must
// reach every shard pool.
func TestShardedSyncFanOut(t *testing.T) {
	path := filepath.Join(t.TempDir(), "data")
	const n = 3
	ss, _ := openShardedFromFiles(t, path, n)
	defer ss.Close()
	before := make([]uint64, n)
	for i := 0; i < n; i++ {
		before[i] = ss.ShardStat(i).Pool.Stats().Syncs.Load()
	}
	if err := ss.Sync(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if got := ss.ShardStat(i).Pool.Stats().Syncs.Load(); got != before[i]+1 {
			t.Fatalf("shard %d syncs = %d, want %d", i, got, before[i]+1)
		}
	}
}

// TestShardedCloseMarksClean: router Close must write the clean-shutdown
// marker on every shard file, so the next open of each shard skips crash
// recovery (the memkv shutdown path relies on this fan-out).
func TestShardedCloseMarksClean(t *testing.T) {
	path := filepath.Join(t.TempDir(), "data")
	const n = 3
	ss, _ := openShardedFromFiles(t, path, n)
	if err := ss.Set([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := ss.Close(); err != nil {
		t.Fatal(err)
	}
	pools, _, err := scm.OpenFileShards(path, n, 16<<20, scm.LatencyConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer scm.ClosePools(pools)
	for i, p := range pools {
		if !p.WasCleanShutdown() {
			t.Fatalf("shard %d reopened dirty after Close", i)
		}
	}
}

// TestShardedServerStats drives `stats` and `stats shards` over TCP against a
// sharded server: the flat form reports the fleet width and pool counters
// summed across shards; the verbose form breaks them out per shard.
func TestShardedServerStats(t *testing.T) {
	ss := newShardedFPTreeC(t, 4)
	pools := make([]*scm.Pool, ss.NumShards())
	var wantBytes int64
	for i := range pools {
		pools[i] = ss.ShardStat(i).Pool
		wantBytes += pools[i].Size()
	}
	srv, addr, err := ServeConfig("127.0.0.1:0", ss, Config{Pools: pools})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := dialMC(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.close()

	const keys = 64
	for i := 0; i < keys; i++ {
		if err := c.set(fmt.Sprintf("k%03d", i), "v"); err != nil {
			t.Fatal(err)
		}
	}

	stats, err := c.stats()
	if err != nil {
		t.Fatal(err)
	}
	if stats["shards"] != "4" {
		t.Fatalf("stats shards = %q", stats["shards"])
	}
	if stats["engine"] != "FPTreeC[4 shards]" {
		t.Fatalf("engine = %q", stats["engine"])
	}
	if stats["scm_pool_bytes"] != fmt.Sprint(wantBytes) {
		t.Fatalf("scm_pool_bytes = %q, want %d (sum of shard pools)", stats["scm_pool_bytes"], wantBytes)
	}
	var gotWrites uint64
	if _, err := fmt.Sscan(stats["scm_writes"], &gotWrites); err != nil {
		t.Fatalf("scm_writes = %q: %v", stats["scm_writes"], err)
	}
	var wantWrites uint64
	for _, p := range pools {
		wantWrites += p.Stats().Writes.Load()
	}
	if gotWrites == 0 || gotWrites > wantWrites {
		t.Fatalf("scm_writes = %d, fleet total %d", gotWrites, wantWrites)
	}

	// Verbose per-shard form.
	fmt.Fprintf(c.w, "stats shards\r\n")
	if err := c.w.Flush(); err != nil {
		t.Fatal(err)
	}
	per := map[string]string{}
	for {
		line, err := c.r.ReadString('\n')
		if err != nil {
			t.Fatal(err)
		}
		line = strings.TrimSpace(line)
		if line == "END" {
			break
		}
		parts := strings.SplitN(line, " ", 3)
		if len(parts) != 3 || parts[0] != "STAT" {
			t.Fatalf("bad stats shards line %q", line)
		}
		per[parts[1]] = parts[2]
	}
	if per["shards"] != "4" {
		t.Fatalf("stats shards: shards = %q", per["shards"])
	}
	lenSum := 0
	for i := 0; i < 4; i++ {
		pfx := fmt.Sprintf("shard%d_", i)
		if per[pfx+"engine"] != "FPTreeC" {
			t.Fatalf("%sengine = %q", pfx, per[pfx+"engine"])
		}
		var n int
		if _, err := fmt.Sscan(per[pfx+"len"], &n); err != nil {
			t.Fatalf("%slen = %q", pfx, per[pfx+"len"])
		}
		if n == 0 {
			t.Fatalf("shard %d is empty; %d keys should spread over 4 shards", i, keys)
		}
		lenSum += n
		if per[pfx+"scm_writes"] == "" || per[pfx+"scm_writes"] == "0" {
			t.Fatalf("%sscm_writes = %q", pfx, per[pfx+"scm_writes"])
		}
	}
	if lenSum != keys {
		t.Fatalf("per-shard lens sum to %d, want %d", lenSum, keys)
	}
}

// TestStatsShardsOnUnshardedServer: the verbose form is an ERROR on a plain
// store, and the connection stays usable.
func TestStatsShardsOnUnshardedServer(t *testing.T) {
	srv, addr, err := Serve("127.0.0.1:0", NewHashMapStore())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	conn, r := dialRaw(t, addr)
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	fmt.Fprintf(conn, "stats shards\r\nversion\r\n")
	line, err := r.ReadString('\n')
	if err != nil || !strings.HasPrefix(line, "ERROR") {
		t.Fatalf("stats shards on unsharded = %q,%v", line, err)
	}
	if line, err = r.ReadString('\n'); err != nil || !strings.HasPrefix(line, "VERSION ") {
		t.Fatalf("connection unusable after stats shards error: %q,%v", line, err)
	}
}

// TestShardedMetricsRegistry: a sharded fleet registers the canonical
// unlabeled tree/HTM counters (summed) plus per-shard labeled series, and
// the resulting exposition parses.
func TestShardedMetricsRegistry(t *testing.T) {
	ss := newShardedFPTreeC(t, 4)
	pools := make([]*scm.Pool, ss.NumShards())
	for i := range pools {
		pools[i] = ss.ShardStat(i).Pool
	}
	srv, addr, err := ServeConfig("127.0.0.1:0", ss, Config{Pools: pools})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := dialMC(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.close()
	for i := 0; i < 64; i++ {
		if err := c.set(fmt.Sprintf("k%03d", i), "v"); err != nil {
			t.Fatal(err)
		}
		if _, ok, err := c.get(fmt.Sprintf("k%03d", i)); err != nil || !ok {
			t.Fatalf("get = %v,%v", ok, err)
		}
	}

	reg := obs.NewRegistry()
	srv.RegisterMetrics(reg)
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if err := obs.ValidateExposition(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("exposition invalid: %v\n%s", err, buf.String())
	}
	snap := reg.Snapshot()
	agg, ok := snap["fptree_searches_total"]
	if !ok || agg == 0 {
		t.Fatalf("aggregate fptree_searches_total = %v,%v", agg, ok)
	}
	var labeledSum float64
	for i := 0; i < 4; i++ {
		series := obs.Series("fptree_searches_total", obs.ShardLabel(i))
		v, ok := snap[series]
		if !ok {
			t.Fatalf("missing %s in snapshot", series)
		}
		labeledSum += v
	}
	if labeledSum != agg {
		t.Fatalf("per-shard searches sum to %v, aggregate is %v", labeledSum, agg)
	}
	for i := 0; i < 4; i++ {
		series := obs.Series("scm_writes_total", obs.ShardLabel(i))
		if _, ok := snap[series]; !ok {
			t.Fatalf("missing %s in snapshot", series)
		}
		series = obs.Series("memkv_shard_len", obs.ShardLabel(i))
		if v, ok := snap[series]; !ok || v == 0 {
			t.Fatalf("%s = %v,%v", series, v, ok)
		}
	}
}

package main

import (
	"bytes"
	"encoding/json"
	"os"
	"slices"
	"testing"
	"time"
)

type benchSpec struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func readSpec(t *testing.T) benchSpec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// smokeConfig is a short run on a small tree.
func smokeConfig(w workload, traced bool) config {
	cfg := config{
		w: w, seed: 3, traced: traced,
		keys:       4000,
		poolBytes:  8 << 20,
		setups:     1,
		recoveries: 1,
		warmup:     100 * time.Millisecond,
		sliceDur:   150 * time.Millisecond,
		slices:     2,
		refSlices:  1,
		settle:     50 * time.Millisecond,
	}
	if !traced {
		cfg.rounds = 2
	}
	return cfg
}

// lastLine parses the result line the report ends with.
func lastLine(t *testing.T, r *result, traced bool) final {
	t.Helper()
	var buf bytes.Buffer
	if err := r.write(&buf, traced); err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte("\n"))
	var f final
	if err := json.Unmarshal(lines[len(lines)-1], &f); err != nil {
		t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
	}
	return f
}

func checkNames(t *testing.T, what string, got metrics, want []struct{ Name, Unit string }) {
	t.Helper()
	var names []string
	for _, m := range want {
		names = append(names, m.Name)
		g, ok := got[m.Name]
		switch {
		case !ok:
			t.Errorf("%s: metric %s missing", what, m.Name)
		case g.Unit != m.Unit:
			t.Errorf("%s: metric %s has unit %q, BENCHMARK.json says %q", what, m.Name, g.Unit, m.Unit)
		}
	}
	for name := range got {
		if !slices.Contains(names, name) {
			t.Errorf("%s: metric %s is not named in BENCHMARK.json", what, name)
		}
	}
}

// TestSmokeEachWorkload runs every workload briefly and checks that the
// result lines carry exactly the metrics BENCHMARK.json names, that every
// reply and the recovered state were correct, and that the per-request time
// reconciles across the layer boundaries: client round trip >= server
// residence >= router >= engine.
func TestSmokeEachWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the server")
	}
	spec := readSpec(t)
	for _, w := range workloads {
		t.Run(w.Name, func(t *testing.T) {
			plain, err := run(smokeConfig(w, false))
			if err != nil {
				t.Fatal(err)
			}
			res, err := run(smokeConfig(w, true))
			if err != nil {
				t.Fatal(err)
			}
			e2e, layers := lastLine(t, plain, false), lastLine(t, res, true)
			for _, f := range []final{e2e, layers} {
				if !f.Correct || f.Failed != 0 || f.Attempted == 0 {
					t.Fatalf("correct=%v attempted=%d failed=%d: %v, %v", f.Correct, f.Attempted, f.Failed, plain.firstErr, res.firstErr)
				}
			}
			checkNames(t, "end-to-end", e2e.Metrics, spec.EndToEnd)
			checkNames(t, "per-layer", layers.Metrics, spec.PerLayer)
			for name, m := range e2e.Metrics {
				if m.Value <= 0 {
					t.Errorf("end-to-end metric %s = %v, want > 0", name, m.Value)
				}
			}

			seen := 0
			for k, c := range res.chain {
				if c.reqs == 0 {
					continue
				}
				seen++
				if !(c.client >= c.residence && c.residence >= c.router && c.router >= c.engine && c.engine > 0) {
					t.Errorf("%s: per-request ns client %.0f, residence %.0f, router %.0f, engine %.0f do not nest",
						opNames[k], c.client, c.residence, c.router, c.engine)
				}
			}
			if seen == 0 {
				t.Error("traced run completed no requests")
			}
		})
	}
}

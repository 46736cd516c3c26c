package main

import (
	"bufio"
	"bytes"
	"errors"
	"strings"
	"testing"
)

func TestGeneratorDeterministic(t *testing.T) {
	stream := func(w workload, seed int64) []byte {
		led := &ledger{}
		gens := []*generator{newGenerator(w, seed, 0, 1000, led), newGenerator(w, seed, 1, 1000, led)}
		var out []byte
		var r request
		for i := 0; i < 3000; i++ {
			gens[i%2].next(&r)
			out = appendRequest(out, &r)
		}
		return out
	}
	for _, w := range workloads {
		a, b := stream(w, 5), stream(w, 5)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: seed 5 gave two different request streams", w.Name)
		}
		if bytes.Equal(a, stream(w, 6)) {
			t.Errorf("%s: seeds 5 and 6 gave the same request stream", w.Name)
		}
	}
}

func TestValueNamesKeyAndVersion(t *testing.T) {
	v := appendValue(nil, 42, 7)
	if len(v) != valueLen {
		t.Fatalf("value is %d bytes, want %d", len(v), valueLen)
	}
	if ver, ok := valueVersion(v, 42); !ok || ver != 7 {
		t.Fatalf("valueVersion = %d, %v; want 7, true", ver, ok)
	}
	if _, ok := valueVersion(v, 43); ok {
		t.Fatal("value of key 42 accepted as a value of key 43")
	}
	v[40] ^= 1
	if _, ok := valueVersion(v, 42); ok {
		t.Fatal("corrupted filler accepted")
	}
}

// getReply renders the server's reply to a get of ids at the given versions.
func getReply(ids []uint64, vers []uint32) string {
	var b []byte
	for i, id := range ids {
		b = append(b, "VALUE "...)
		b = appendKey(b, id)
		b = append(b, " 0 64\r\n"...)
		b = appendValue(b, id, vers[i])
		b = append(b, "\r\n"...)
	}
	return string(append(b, "END\r\n"...))
}

func parseGet(reply string, r *request, led *ledger) error {
	_, err := readGetReply(bufio.NewReader(strings.NewReader(reply)), r, led, nil)
	return err
}

func TestReplyParser(t *testing.T) {
	led := &ledger{}
	led.issue(3, verState(2, false)) // key 3: version 2 issued, version 0 acknowledged
	own := &request{kind: opGet, n: 2, ids: [maxGetKeys]uint64{1, 3}, own: [maxGetKeys]bool{true, false}}
	good := getReply([]uint64{1, 3}, []uint32{0, 1})
	if err := parseGet(good, own, led); err != nil {
		t.Fatalf("valid reply rejected: %v", err)
	}

	wrong := map[string]string{
		"miss":              getReply([]uint64{1}, []uint32{0}),
		"wrong key":         getReply([]uint64{1, 5}, []uint32{0, 0}),
		"stale own version": getReply([]uint64{1, 3}, []uint32{1, 1}),
		"unissued version":  getReply([]uint64{1, 3}, []uint32{0, 3}),
		"extra key":         getReply([]uint64{1, 3, 3}, []uint32{0, 1, 1}),
	}
	for name, reply := range wrong {
		if err := parseGet(reply, own, led); !errors.Is(err, errWrongReply) {
			t.Errorf("%s: got %v, want a wrong-reply error", name, err)
		}
	}

	broken := map[string]string{
		"truncated value": good[:40],
		"no END":          strings.TrimSuffix(good, "END\r\n"),
		"bad framing":     strings.Replace(good, "\r\nVALUE", "\nVALUE", 1),
		"bad size":        strings.Replace(good, " 0 64\r\n", " 0 6x\r\n", 1),
	}
	for name, reply := range broken {
		if err := parseGet(reply, own, led); err == nil || errors.Is(err, errWrongReply) {
			t.Errorf("%s: got %v, want a framing error", name, err)
		}
	}

	del := &request{kind: opDelete, n: 1}
	if err := readStoreReply(bufio.NewReader(strings.NewReader("NOT_FOUND\r\n")), del); !errors.Is(err, errWrongReply) {
		t.Errorf("NOT_FOUND to a delete of a live key: got %v, want a wrong-reply error", err)
	}
	if err := readStoreReply(bufio.NewReader(strings.NewReader("STORED")), &request{kind: opSet, n: 1}); err == nil || errors.Is(err, errWrongReply) {
		t.Errorf("truncated set reply: got %v, want a framing error", err)
	}
}

// The process-wide allocation figures assume the client allocates nothing
// per request.
func TestClientDoesNotAllocate(t *testing.T) {
	led := &ledger{}
	g := newGenerator(workloads[1], 1, 0, 1000, led)
	var r request
	g.next(&r)
	reply := getReply(r.ids[:r.n], make([]uint32, r.n))
	sr := strings.NewReader(reply)
	br := bufio.NewReaderSize(sr, 4096)
	buf := make([]byte, 0, 1024)
	data := make([]byte, 0, 256)
	allocs := testing.AllocsPerRun(100, func() {
		buf = appendRequest(buf[:0], &r)
		sr.Reset(reply)
		br.Reset(sr)
		var err error
		if data, err = readGetReply(br, &r, led, data); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("encoding a request and parsing its reply allocated %v times", allocs)
	}
}
